"""The catalogue of ready-made mechanism specs.

It holds the prediction study's ten canonical structures, one spec per
taxonomy cell (to pin the classifier), the two inference-study mechanisms,
and clinical-flavoured illustrations of logical missingness (a test that
cannot apply), risk-driven screening and panel-driven gene missingness; the
last are illustrations, not data-backed models. Every spec is built by
``_spec``, which gives column j the j-th clause tuple and declares the
label the spec must classify to.

The ten structures run over ``p`` columns: the completely-at-random row of
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
    DETERMINISTIC,
    MAR,
    MCAR,
    MNAR,
    NEGATIVE,
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
    LogicalClause,
    LogisticClause,
    MechanismRule,
    MechanismSpec,
    SpecificationError,
    TableClause,
    TaxonomyLabel,
    block_ref,
    data_col,
    mask_col,
    subject_effect,
)


def _spec(label: TaxonomyLabel, *clauses, **fields) -> MechanismSpec:
    """A spec declaring ``label`` whose column j takes the j-th clause tuple."""
    rules = tuple(MechanismRule(j, c) for j, c in enumerate(clauses))
    return MechanismSpec(rules=rules, declared_label=label, **fields)


_OBSERVED = (TableClause.bernoulli(0.0),)  # a column that is never missing

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


def _chain(p: int, first, later) -> tuple[tuple, ...]:
    """An indicator chain: column 0 takes the clauses ``first`` and column j
    the clauses ``later(mask_col(j - 1))``."""
    return (first,) + tuple(later(mask_col(j - 1)) for j in range(1, p))


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
        return _spec(TaxonomyLabel(MCAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC),
                     *[(TableClause.bernoulli(float(r)),) for r in rates])

    blocks: tuple[LatentBlock, ...] = ()
    if name == "mcar_ws_block":
        structure, shape = WEAK, BLOCK
        pi, ratio = _WS_BLOCK_PI, _WS_BLOCK_RATIO
        p_batch = _bisect(lambda x: pi * x + (1 - pi) * ratio * x, rate, 0.0, 1.0)
        clause = TableClause.from_dict(
            (block_ref(0),), {(0,): ratio * p_batch, (1,): p_batch}
        )
        clauses = ((clause,),) * p
        blocks = (LatentBlock(pi),)
    elif name == "mcar_ws_seq":
        structure, shape = WEAK, SEQUENTIAL
        a = _WS_SEQ_STICKINESS
        b = _bisect(lambda x: _chain_mean(x, a, p), rate, 0.0, min(1.0, a))
        clauses = _chain(
            p, (TableClause.bernoulli(b),),
            lambda prev: (TableClause.from_dict((prev,), {(0,): b, (1,): a}),),
        )
    elif name == "mcar_ss_seq":
        # Dropout: once a visit is missed, every later one is.
        structure, shape = STRONG, SEQUENTIAL
        h = _bisect(lambda x: _dropout_mean(x, p), rate, 0.0, 1.0)
        clauses = _chain(
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
            first = _OBSERVED
            pi = _bisect(lambda x: x * (p - 1) / p, rate, 0.0, 1.0)
        clauses = (first,) + (force,) * (p - 1)
        blocks = (LatentBlock(pi),)
    return _spec(TaxonomyLabel(MCAR, structure, shape, PROBABILISTIC, POSITIVE), *clauses,
                 blocks=blocks)


# ---------------------------------------------------------------------------
# Taxonomy cells and the inference-study mechanisms
# ---------------------------------------------------------------------------


def sim2_label(q: float) -> TaxonomyLabel:
    """Expected taxonomy cell of the at-random inference study at ``q``."""
    if q == 0.0:
        return TaxonomyLabel(MAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC)
    structure = STRONG if q == 1.0 else WEAK
    return TaxonomyLabel(MAR, structure, SEQUENTIAL, PROBABILISTIC, NEGATIVE)


def _study_spec(label: TaxonomyLabel, q: float, missing_given_missing: float,
                **fields) -> MechanismSpec:
    """The three rules the inference studies share: the first column stays
    complete, the second goes missing through a logistic effect of the
    first's value, and the third goes missing with probability ``q`` when
    the second is observed and ``missing_given_missing`` when it is missing.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must lie in [0, 1]")
    table = {(0,): q, (1,): missing_given_missing}
    return _spec(label, _OBSERVED, (LogisticClause(0.0, ((data_col(0), 2.0),)),),
                 (TableClause.from_dict((mask_col(1),), table),), **fields)


def sim2_spec(q: float) -> MechanismSpec:
    """Mechanism of the at-random inference study.

    Three columns X1, X2, X3: X1 stays complete, X2 goes missing through a
    logistic effect of x1, and X3 goes missing with probability ``q`` when
    X2 is observed, never when X2 is missing. At q=1 the last two columns
    are never jointly observed (a file-matching pattern).
    """
    return _study_spec(sim2_label(q), q, 0.0, col_names=("X1", "X2", "X3"))


def sim3_label(q: float) -> TaxonomyLabel:
    """Expected taxonomy cell of the not-at-random study at ``q``.

    The indicator table (1/2 when the first column is missing, ``q`` when
    observed) carries no dependence exactly at q=1/2 and a deterministic
    branch exactly at q=1; elsewhere the coupling is weak, positive below
    1/2 and negative above.
    """
    if q == 0.5:
        return TaxonomyLabel(MNAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC)
    structure = STRONG if q == 1.0 else WEAK
    sign = POSITIVE if q < 0.5 else NEGATIVE
    return TaxonomyLabel(MNAR, structure, SEQUENTIAL, PROBABILISTIC, sign)


def sim3_spec(q: float) -> MechanismSpec:
    """Mechanism of the not-at-random study.

    Columns Z, X1, X2 with Z latent (generated but never shown to the
    analyst): X1 goes missing through a logistic effect of z, X2 through a
    table on X1's indicator (1/2 if missing, ``q`` if observed).
    """
    return _study_spec(sim3_label(q), q, 0.5, latent_columns=frozenset({0}),
                       col_names=("Z", "X1", "X2"))


def canonical_taxonomy_specs() -> dict[str, MechanismSpec]:
    """One three-column spec per taxonomy cell, keyed by the short name of
    the label it declares."""
    rate10, rate20 = (TableClause.bernoulli(0.1),), (TableClause.bernoulli(0.2),)
    rate30 = (TableClause.bernoulli(0.3),)
    batch = (TableClause.from_dict((block_ref(0),), {(0,): 0.1, (1,): 0.6}),)
    on_first = (LogisticClause(-1.0, ((data_col(0), 1.0),)),)
    on_own = (LogisticClause(0.0, ((data_col(1), 1.0),)),)
    own_low = (ForceClause((Comparison(data_col(1), "<", -0.5),), 1),)
    follows = (ForceClause.follows(mask_col(1)),)
    specs = (
        _spec(TaxonomyLabel(MCAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC), *[rate30] * 3),
        _spec(TaxonomyLabel(MCAR, WEAK, BLOCK, PROBABILISTIC, POSITIVE), *[batch] * 3,
              blocks=(LatentBlock(0.4),)),
        _spec(TaxonomyLabel(MCAR, STRONG, SEQUENTIAL, PROBABILISTIC, POSITIVE), rate30,
              *[(ForceClause.follows(mask_col(j - 1)), TableClause.bernoulli(0.1))
                for j in (1, 2)]),
        _spec(TaxonomyLabel(MAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC), rate10, on_first,
              (LogisticClause(-1.0, ((data_col(0), 0.5),)),)),
        _spec(TaxonomyLabel(MAR, UNSTRUCTURED, SHAPE_NONE, DETERMINISTIC), rate10,
              (ForceClause((Comparison(data_col(0), ">", 1.0),), 1),), rate20),
        _spec(TaxonomyLabel(MAR, WEAK, SEQUENTIAL, PROBABILISTIC, POSITIVE), rate10, on_first,
              (LogisticClause(-1.0, ((data_col(0), 0.5), (mask_col(1), 1.5))),)),
        _spec(TaxonomyLabel(MAR, STRONG, SEQUENTIAL, DETERMINISTIC, POSITIVE), rate10,
              (ForceClause((Comparison(data_col(0), ">=", 0.8),), 1),), follows),
        _spec(TaxonomyLabel(MNAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC), rate10,
              on_own, rate20),
        _spec(TaxonomyLabel(MNAR, UNSTRUCTURED, SHAPE_NONE, DETERMINISTIC), rate10,
              own_low, rate20),
        _spec(TaxonomyLabel(MNAR, WEAK, SEQUENTIAL, PROBABILISTIC, POSITIVE), rate10, on_own,
              (LogisticClause(-1.0, ((data_col(2), 0.5), (mask_col(1), 1.0))),)),
        _spec(TaxonomyLabel(MNAR, STRONG, SEQUENTIAL, DETERMINISTIC, POSITIVE), rate10,
              own_low, follows),
    )
    return {spec.declared_label.short(): spec for spec in specs}


def subject_effect_variant() -> MechanismSpec:
    """Completely-at-random missingness driven by a per-subject latent
    propensity: some subjects are simply likelier to have gaps everywhere.

    Still classifies as the unstructured completely-at-random cell — the
    subject effect is unrelated to anything observed.
    """
    return _spec(TaxonomyLabel(MCAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC),
                 *[(LogisticClause(-1.0, ((subject_effect(), 1.0),)),)] * 3,
                 subject_effect_var=1.0)


# ---------------------------------------------------------------------------
# Clinical-flavoured illustrations
# ---------------------------------------------------------------------------


def psa_logical_spec() -> MechanismSpec:
    """Antigen-test series absent for female patients.

    SEX (1 = female) deterministically rules the test out: a deterministic
    at-random mechanism, and logical missingness — the cells have no value
    to impute.
    """
    female = (LogicalClause((Comparison(data_col(0), "==", 1.0),)),)
    return _spec(TaxonomyLabel(MAR, UNSTRUCTURED, SHAPE_NONE, DETERMINISTIC),
                 _OBSERVED, _OBSERVED, *[female] * 3,
                 col_names=("SEX", "YEAR_OF_BIRTH", "PSA1", "PSA2", "PSA3"))


def psa_screening_spec() -> MechanismSpec:
    """Risk-driven antigen screening for male patients of other cancers.

    Age and a mutation flag raise the chance a test is ordered, and a test
    observed at one visit lowers the chance of repeating it at the next —
    a negative, sequential, weakly structured at-random mechanism.
    """
    risk = ((data_col(0), 0.02), (data_col(1), -1.0))
    return _spec(TaxonomyLabel(MAR, WEAK, SEQUENTIAL, PROBABILISTIC, NEGATIVE),
                 _OBSERVED, _OBSERVED, (LogisticClause(0.5, risk),),
                 *[(LogisticClause(0.5, risk + ((mask_col(j - 1), -1.5),)),) for j in (3, 4)],
                 col_names=("YEAR_OF_BIRTH", "BRCA", "PSA1", "PSA2", "PSA3"))


def genomic_testing_spec() -> MechanismSpec:
    """Panel-driven gene missingness.

    Cancer type and specimen date shift which test panel is run; a missing
    panel then implies missing gene calls with certainty, so the auxiliary
    panel column introduces strong structure over the gene indicators.
    """
    return _spec(TaxonomyLabel(MAR, STRONG, SEQUENTIAL, PROBABILISTIC, POSITIVE),
                 _OBSERVED, _OBSERVED,
                 (LogisticClause(-1.0, ((data_col(0), 0.8), (data_col(1), 0.3))),),
                 *[(ForceClause.follows(mask_col(2)),)] * 2,
                 col_names=("CANCER_TYPE", "DATE", "GENOMIC_TEST", "BCL10", "CASP8"))
