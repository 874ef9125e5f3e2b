"""Canonical missingness structures used by the prediction study.

Ten named structures over ``p`` columns, each (except ``complete``)
calibrated so the expected share of missing cells hits ``rate`` (default
45%). The uniform-rate and fixed-profile variants are exact; the
structured variants solve for their free parameter by bisection on the
analytic expected rate.

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
    Comparison,
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

BUILTIN_NAMES = (
    "complete",
    "mcar_u_1",
    "mcar_u_2",
    "mcar_u_3",
    "mcar_u_4",
    "mcar_ws_block",
    "mcar_ws_seq",
    "mcar_ss_block",
    "mcar_ss_seq",
    "unit_block",
)

_WS_BLOCK_PI = 0.5  # share of rows in the elevated-missingness batch
_WS_BLOCK_RATIO = 0.2  # baseline probability as a fraction of the batch one
_WS_SEQ_STICKINESS = 0.8  # P(missing | previous visit missed)

_MCAR_U_LABEL = TaxonomyLabel(MCAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC)


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


def _bernoulli_rules(rates) -> tuple[MechanismRule, ...]:
    return tuple(
        MechanismRule(j, (TableClause.bernoulli(float(r)),))
        for j, r in enumerate(rates)
    )


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

    if name == "complete":
        return MechanismSpec(
            rules=_bernoulli_rules([0.0] * p), declared_label=_MCAR_U_LABEL
        )

    if name == "mcar_u_1":
        return MechanismSpec(
            rules=_bernoulli_rules([rate] * p), declared_label=_MCAR_U_LABEL
        )

    if name == "mcar_u_2":
        # Evenly climbing per-column rates, from fully observed to 2*rate.
        rates = np.linspace(0.0, 2.0 * rate, p)
        if rates[-1] > 1.0:
            raise SpecificationError("mcar_u_2 needs rate <= 0.5")
        return MechanismSpec(
            rules=_bernoulli_rules(rates), declared_label=_MCAR_U_LABEL
        )

    if name == "mcar_u_3":
        half = p // 2
        top = rate * p / (p - half)
        if top > 1.0:
            raise SpecificationError("mcar_u_3 target rate too high")
        rates = [0.0] * half + [top] * (p - half)
        return MechanismSpec(
            rules=_bernoulli_rules(rates), declared_label=_MCAR_U_LABEL
        )

    if name == "mcar_u_4":
        rest = rate * p / (p - 1)
        if rest > 1.0:
            raise SpecificationError("mcar_u_4 target rate too high")
        rates = [0.0] + [rest] * (p - 1)
        return MechanismSpec(
            rules=_bernoulli_rules(rates), declared_label=_MCAR_U_LABEL
        )

    if name == "mcar_ws_block":
        pi, ratio = _WS_BLOCK_PI, _WS_BLOCK_RATIO
        p_batch = _bisect(
            lambda x: pi * x + (1 - pi) * ratio * x, rate, 0.0, 1.0
        )
        clause = TableClause.from_dict(
            (block_ref(0),), {(0,): ratio * p_batch, (1,): p_batch}
        )
        return MechanismSpec(
            rules=tuple(MechanismRule(j, (clause,)) for j in range(p)),
            blocks=(LatentBlock(pi),),
            declared_label=TaxonomyLabel(MCAR, WEAK, BLOCK, PROBABILISTIC, POSITIVE),
        )

    if name == "mcar_ws_seq":
        a = _WS_SEQ_STICKINESS
        b = _bisect(lambda x: _chain_mean(x, a, p), rate, 0.0, min(1.0, a))
        rules = [MechanismRule(0, (TableClause.bernoulli(b),))]
        for j in range(1, p):
            rules.append(
                MechanismRule(
                    j,
                    (TableClause.from_dict((mask_col(j - 1),), {(0,): b, (1,): a}),),
                )
            )
        return MechanismSpec(
            rules=tuple(rules),
            declared_label=TaxonomyLabel(
                MCAR, WEAK, SEQUENTIAL, PROBABILISTIC, POSITIVE
            ),
        )

    if name == "mcar_ss_block":
        # Same per-column rates as mcar_u_4, but the cells vanish jointly:
        # one whole bank of columns drops for a share of the subjects.
        members = list(range(1, p))
        pi = _bisect(lambda x: x * len(members) / p, rate, 0.0, 1.0)
        rules = []
        for j in range(p):
            if j in members:
                rules.append(
                    MechanismRule(
                        j, (ForceClause((Comparison(block_ref(0), "==", 1.0),), 1),)
                    )
                )
            else:
                rules.append(MechanismRule(j, (TableClause.bernoulli(0.0),)))
        return MechanismSpec(
            rules=tuple(rules),
            blocks=(LatentBlock(pi),),
            declared_label=TaxonomyLabel(MCAR, STRONG, BLOCK, PROBABILISTIC, POSITIVE),
        )

    if name == "mcar_ss_seq":
        h = _bisect(lambda x: _dropout_mean(x, p), rate, 0.0, 1.0)
        rules = [MechanismRule(0, (TableClause.bernoulli(h),))]
        for j in range(1, p):
            rules.append(
                MechanismRule(
                    j,
                    (
                        ForceClause((Comparison(mask_col(j - 1), "==", 1.0),), 1),
                        TableClause.bernoulli(h),
                    ),
                )
            )
        return MechanismSpec(
            rules=tuple(rules),
            declared_label=TaxonomyLabel(MCAR, STRONG, SEQUENTIAL, PROBABILISTIC,
                                         POSITIVE),
        )

    # unit_block: whole subjects unobserved with probability rate.
    rules = tuple(
        MechanismRule(j, (ForceClause((Comparison(block_ref(0), "==", 1.0),), 1),))
        for j in range(p)
    )
    return MechanismSpec(
        rules=rules,
        blocks=(LatentBlock(rate),),
        declared_label=TaxonomyLabel(MCAR, STRONG, BLOCK, PROBABILISTIC, POSITIVE),
    )

