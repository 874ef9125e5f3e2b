"""Canonical missingness structures used by the prediction study.

Ten named structures over ``p`` columns: the completely-at-random row of
the taxonomy, indicator structure (unstructured, weak, strong) crossed with
shape. Each (except ``complete``) is calibrated so the expected share of
missing cells hits ``rate`` (default 45%).

Each is declared by its shape, from one of three builders. The five
unstructured ones are independent per-column rates, set exactly. The two
sequential ones are indicator chains, each column coupled to the one
before it. The three block ones share one latent block. The structured
variants solve for their free parameter by bisection on the analytic
expected rate, except ``unit_block``, whose block probability is ``rate``.

``unit_block`` marks whole subjects missing; analyses are expected to drop
those rows rather than impute them.
"""

from __future__ import annotations

import numpy as np

from .mechanisms import (
    BLOCK,
    MCAR,
    POSITIVE,
    PROBABILISTIC,
    SEQUENTIAL,
    SHAPE_NONE,
    STRONG,
    UNSTRUCTURED,
    WEAK,
    ForceClause,
    LatentBlock,
    MechanismRule,
    MechanismSpec,
    SpecificationError,
    TableClause,
    TaxonomyLabel,
    block_ref,
    mask_col,
)

_UNSTRUCTURED_NAMES = ("complete", "mcar_u_1", "mcar_u_2", "mcar_u_3", "mcar_u_4")
BUILTIN_NAMES = _UNSTRUCTURED_NAMES + (
    "mcar_ws_block",
    "mcar_ws_seq",
    "mcar_ss_block",
    "mcar_ss_seq",
    "unit_block",
)

_WS_BLOCK_PI = 0.5  # share of rows in the elevated-missingness batch
_WS_BLOCK_RATIO = 0.2  # baseline probability as a fraction of the batch one
_WS_SEQ_STICKINESS = 0.8  # P(missing | previous visit missed)

def _bisect(fn, target: float, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Solve fn(x) = target for increasing fn on [lo, hi]."""
    f_lo, f_hi = fn(lo), fn(hi)
    if not (f_lo <= target <= f_hi):
        raise SpecificationError(
            f"target rate {target} outside achievable range [{f_lo:.4f}, {f_hi:.4f}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def _chain_mean(b: float, a: float, p: int) -> float:
    pi = b
    total = pi
    for _ in range(p - 1):
        pi = b + (a - b) * pi
        total += pi
    return total / p


def _dropout_mean(h: float, p: int) -> float:
    j = np.arange(1, p + 1)
    return float(1.0 - np.mean((1.0 - h) ** j))


def _unstructured_rates(name: str, p: int, rate: float):
    """Per-column rates of ``complete`` and ``mcar_u_1`` to ``mcar_u_4``."""
    if name == "complete":
        return [0.0] * p
    if name == "mcar_u_1":
        return [rate] * p
    if name == "mcar_u_2":
        # Evenly climbing per-column rates, from fully observed to 2*rate.
        rates = np.linspace(0.0, 2.0 * rate, p)
        if rates[-1] > 1.0:
            raise SpecificationError("mcar_u_2 needs rate <= 0.5")
        return rates
    # The leading half (mcar_u_3) or first column (mcar_u_4) stays observed;
    # the other columns share the target.
    spared = p // 2 if name == "mcar_u_3" else 1
    rest = rate * p / (p - spared)
    if rest > 1.0:
        raise SpecificationError(f"{name} target rate too high")
    return [0.0] * spared + [rest] * (p - spared)


def _chain(p: int, first, later) -> tuple[MechanismRule, ...]:
    """An indicator chain: column 0 takes the clauses ``first`` and column j
    the clauses ``later(mask_col(j - 1))``."""
    return (MechanismRule(0, first),) + tuple(
        MechanismRule(j, later(mask_col(j - 1))) for j in range(1, p)
    )


def builtin_structures(name: str, p: int = 10, rate: float = 0.45) -> MechanismSpec:
    """Return the named canonical mechanism over ``p`` columns.

    ``rate`` is the target expected fraction of missing cells (ignored by
    ``complete``). Raises for unknown names or unachievable targets.
    """
    if name not in BUILTIN_NAMES:
        raise SpecificationError(
            f"unknown builtin {name!r}; choose one of {', '.join(BUILTIN_NAMES)}"
        )
    if p < 2:
        raise SpecificationError("builtins need at least two columns")
    if not (0.0 <= rate < 1.0):
        raise SpecificationError("target rate must lie in [0, 1)")

    if name in _UNSTRUCTURED_NAMES:
        rates = _unstructured_rates(name, p, rate)
        return MechanismSpec(
            rules=tuple(
                MechanismRule(j, (TableClause.bernoulli(float(r)),))
                for j, r in enumerate(rates)
            ),
            declared_label=TaxonomyLabel(MCAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC),
        )

    blocks: tuple[LatentBlock, ...] = ()
    if name == "mcar_ws_block":
        structure, shape = WEAK, BLOCK
        pi, ratio = _WS_BLOCK_PI, _WS_BLOCK_RATIO
        p_batch = _bisect(lambda x: pi * x + (1 - pi) * ratio * x, rate, 0.0, 1.0)
        clause = TableClause.from_dict(
            (block_ref(0),), {(0,): ratio * p_batch, (1,): p_batch}
        )
        rules = tuple(MechanismRule(j, (clause,)) for j in range(p))
        blocks = (LatentBlock(pi),)
    elif name == "mcar_ws_seq":
        structure, shape = WEAK, SEQUENTIAL
        a = _WS_SEQ_STICKINESS
        b = _bisect(lambda x: _chain_mean(x, a, p), rate, 0.0, min(1.0, a))
        rules = _chain(
            p, (TableClause.bernoulli(b),),
            lambda prev: (TableClause.from_dict((prev,), {(0,): b, (1,): a}),),
        )
    elif name == "mcar_ss_seq":
        # Dropout: once a visit is missed, every later one is.
        structure, shape = STRONG, SEQUENTIAL
        h = _bisect(lambda x: _dropout_mean(x, p), rate, 0.0, 1.0)
        rules = _chain(
            p, (TableClause.bernoulli(h),),
            lambda prev: (ForceClause.follows(prev), TableClause.bernoulli(h)),
        )
    else:
        # One latent block drops columns 1..p-1 jointly. unit_block drops
        # column 0 with them, so whole subjects go unobserved with
        # probability rate. mcar_ss_block spares column 0, giving mcar_u_4's
        # per-column rates with the cells vanishing together.
        structure, shape = STRONG, BLOCK
        force = (ForceClause.follows(block_ref(0)),)
        if name == "unit_block":
            first, pi = force, rate
        else:
            first = (TableClause.bernoulli(0.0),)
            pi = _bisect(lambda x: x * (p - 1) / p, rate, 0.0, 1.0)
        rules = (MechanismRule(0, first),) + tuple(
            MechanismRule(j, force) for j in range(1, p)
        )
        blocks = (LatentBlock(pi),)
    return MechanismSpec(
        rules=rules,
        blocks=blocks,
        declared_label=TaxonomyLabel(MCAR, structure, shape, PROBABILISTIC, POSITIVE),
    )
