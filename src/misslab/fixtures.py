"""Ready-made mechanism specs: canonical taxonomy cells, the two
inference-study mechanisms, and clinical-flavoured illustrations.

The canonical specs exist to pin the classifier: one spec per taxonomy
cell, each carrying the label it must classify to. The clinical specs show
how logical missingness (a test that cannot apply), risk-driven screening,
and panel-driven gene missingness are written as rules; they are
illustrations, not data-backed models.
"""

from __future__ import annotations

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
