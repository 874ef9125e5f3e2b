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


def _bern(j: int, rate: float) -> MechanismRule:
    return MechanismRule(j, (TableClause.bernoulli(rate),))


def sim2_label(q: float) -> TaxonomyLabel:
    """Expected taxonomy cell of the at-random inference study at ``q``."""
    if q == 0.0:
        return TaxonomyLabel(MAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC)
    structure = STRONG if q == 1.0 else WEAK
    return TaxonomyLabel(MAR, structure, SEQUENTIAL, PROBABILISTIC, NEGATIVE)


def _study_spec(q: float, missing_given_missing: float, **fields) -> MechanismSpec:
    """The three rules the inference studies share: the first column stays
    complete, the second goes missing through a logistic effect of the
    first's value, and the third goes missing with probability ``q`` when
    the second is observed and ``missing_given_missing`` when it is missing.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must lie in [0, 1]")
    table = {(0,): q, (1,): missing_given_missing}
    rules = (
        _bern(0, 0.0),
        MechanismRule(1, (LogisticClause(0.0, ((data_col(0), 2.0),)),)),
        MechanismRule(2, (TableClause.from_dict((mask_col(1),), table),)),
    )
    return MechanismSpec(rules=rules, **fields)


def sim2_spec(q: float) -> MechanismSpec:
    """Mechanism of the at-random inference study.

    Three columns X1, X2, X3: X1 stays complete, X2 goes missing through a
    logistic effect of x1, and X3 goes missing with probability ``q`` when
    X2 is observed, never when X2 is missing. At q=1 the last two columns
    are never jointly observed (a file-matching pattern).
    """
    return _study_spec(q, 0.0, declared_label=sim2_label(q),
                       col_names=("X1", "X2", "X3"))


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
    return _study_spec(q, 0.5, latent_columns=frozenset({0}),
                       declared_label=sim3_label(q), col_names=("Z", "X1", "X2"))


def canonical_taxonomy_specs() -> dict[str, MechanismSpec]:
    """One three-column spec per taxonomy cell, labels declared."""
    specs: dict[str, MechanismSpec] = {}

    specs["MCAR-U"] = MechanismSpec(
        rules=tuple(_bern(j, 0.3) for j in range(3)),
        declared_label=TaxonomyLabel(MCAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC),
    )

    batch = TableClause.from_dict((block_ref(0),), {(0,): 0.1, (1,): 0.6})
    specs["MCAR-WS"] = MechanismSpec(
        rules=tuple(MechanismRule(j, (batch,)) for j in range(3)),
        blocks=(LatentBlock(0.4),),
        declared_label=TaxonomyLabel(MCAR, WEAK, BLOCK, PROBABILISTIC, POSITIVE),
    )

    specs["MCAR-SS"] = MechanismSpec(
        rules=(_bern(0, 0.3),) + tuple(
            MechanismRule(j, (ForceClause.follows(mask_col(j - 1)),
                              TableClause.bernoulli(0.1)))
            for j in (1, 2)
        ),
        declared_label=TaxonomyLabel(MCAR, STRONG, SEQUENTIAL, PROBABILISTIC,
                                     POSITIVE),
    )

    specs["MAR-UP"] = MechanismSpec(
        rules=(
            _bern(0, 0.1),
            MechanismRule(1, (LogisticClause(-1.0, ((data_col(0), 1.0),)),)),
            MechanismRule(2, (LogisticClause(-1.0, ((data_col(0), 0.5),)),)),
        ),
        declared_label=TaxonomyLabel(MAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC),
    )

    specs["MAR-UD"] = MechanismSpec(
        rules=(
            _bern(0, 0.1),
            MechanismRule(1, (ForceClause((Comparison(data_col(0), ">", 1.0),), 1),)),
            _bern(2, 0.2),
        ),
        declared_label=TaxonomyLabel(MAR, UNSTRUCTURED, SHAPE_NONE, DETERMINISTIC),
    )

    specs["MAR-WS"] = MechanismSpec(
        rules=(
            _bern(0, 0.1),
            MechanismRule(1, (LogisticClause(-1.0, ((data_col(0), 1.0),)),)),
            MechanismRule(
                2,
                (
                    LogisticClause(
                        -1.0, ((data_col(0), 0.5), (mask_col(1), 1.5))
                    ),
                ),
            ),
        ),
        declared_label=TaxonomyLabel(MAR, WEAK, SEQUENTIAL, PROBABILISTIC, POSITIVE),
    )

    specs["MAR-SS"] = MechanismSpec(
        rules=(
            _bern(0, 0.1),
            MechanismRule(
                1, (ForceClause((Comparison(data_col(0), ">=", 0.8),), 1),)
            ),
            MechanismRule(2, (ForceClause.follows(mask_col(1)),)),
        ),
        declared_label=TaxonomyLabel(MAR, STRONG, SEQUENTIAL, DETERMINISTIC,
                                     POSITIVE),
    )

    specs["MNAR-UP"] = MechanismSpec(
        rules=(
            _bern(0, 0.1),
            MechanismRule(1, (LogisticClause(0.0, ((data_col(1), 1.0),)),)),
            _bern(2, 0.2),
        ),
        declared_label=TaxonomyLabel(MNAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC),
    )

    specs["MNAR-UD"] = MechanismSpec(
        rules=(
            _bern(0, 0.1),
            MechanismRule(
                1, (ForceClause((Comparison(data_col(1), "<", -0.5),), 1),)
            ),
            _bern(2, 0.2),
        ),
        declared_label=TaxonomyLabel(MNAR, UNSTRUCTURED, SHAPE_NONE, DETERMINISTIC),
    )

    specs["MNAR-WS"] = MechanismSpec(
        rules=(
            _bern(0, 0.1),
            MechanismRule(1, (LogisticClause(0.0, ((data_col(1), 1.0),)),)),
            MechanismRule(
                2,
                (
                    LogisticClause(
                        -1.0, ((data_col(2), 0.5), (mask_col(1), 1.0))
                    ),
                ),
            ),
        ),
        declared_label=TaxonomyLabel(MNAR, WEAK, SEQUENTIAL, PROBABILISTIC,
                                     POSITIVE),
    )

    specs["MNAR-SS"] = MechanismSpec(
        rules=(
            _bern(0, 0.1),
            MechanismRule(
                1, (ForceClause((Comparison(data_col(1), "<", -0.5),), 1),)
            ),
            MechanismRule(2, (ForceClause.follows(mask_col(1)),)),
        ),
        declared_label=TaxonomyLabel(MNAR, STRONG, SEQUENTIAL, DETERMINISTIC,
                                     POSITIVE),
    )

    return specs


def subject_effect_variant() -> MechanismSpec:
    """Completely-at-random missingness driven by a per-subject latent
    propensity: some subjects are simply likelier to have gaps everywhere.

    Still classifies as the unstructured completely-at-random cell — the
    subject effect is unrelated to anything observed.
    """
    rules = tuple(
        MechanismRule(j, (LogisticClause(-1.0, ((subject_effect(), 1.0),)),))
        for j in range(3)
    )
    return MechanismSpec(
        rules=rules,
        subject_effect_var=1.0,
        declared_label=TaxonomyLabel(MCAR, UNSTRUCTURED, SHAPE_NONE, PROBABILISTIC),
    )


# ---------------------------------------------------------------------------
# Clinical-flavoured illustrations
# ---------------------------------------------------------------------------


def psa_logical_spec() -> MechanismSpec:
    """Antigen-test series absent for female patients.

    SEX (1 = female) deterministically rules the test out: a deterministic
    at-random mechanism, and logical missingness — the cells have no value
    to impute.
    """
    names = ("SEX", "YEAR_OF_BIRTH", "PSA1", "PSA2", "PSA3")
    female = (Comparison(data_col(0), "==", 1.0),)
    rules = (
        _bern(0, 0.0),
        _bern(1, 0.0),
        MechanismRule(2, (LogicalClause(female),)),
        MechanismRule(3, (LogicalClause(female),)),
        MechanismRule(4, (LogicalClause(female),)),
    )
    return MechanismSpec(
        rules=rules,
        col_names=names,
        declared_label=TaxonomyLabel(MAR, UNSTRUCTURED, SHAPE_NONE, DETERMINISTIC),
    )


def psa_screening_spec() -> MechanismSpec:
    """Risk-driven antigen screening for male patients of other cancers.

    Age and a mutation flag raise the chance a test is ordered, and a test
    observed at one visit lowers the chance of repeating it at the next —
    a negative, sequential, weakly structured at-random mechanism.
    """
    names = ("YEAR_OF_BIRTH", "BRCA", "PSA1", "PSA2", "PSA3")
    risk = ((data_col(0), 0.02), (data_col(1), -1.0))
    rules = (
        _bern(0, 0.0),
        _bern(1, 0.0),
        MechanismRule(2, (LogisticClause(0.5, risk),)),
        MechanismRule(3, (LogisticClause(0.5, risk + ((mask_col(2), -1.5),)),)),
        MechanismRule(4, (LogisticClause(0.5, risk + ((mask_col(3), -1.5),)),)),
    )
    return MechanismSpec(
        rules=rules,
        col_names=names,
        declared_label=TaxonomyLabel(MAR, WEAK, SEQUENTIAL, PROBABILISTIC, NEGATIVE),
    )


def genomic_testing_spec() -> MechanismSpec:
    """Panel-driven gene missingness.

    Cancer type and specimen date shift which test panel is run; a missing
    panel then implies missing gene calls with certainty, so the auxiliary
    panel column introduces strong structure over the gene indicators.
    """
    names = ("CANCER_TYPE", "DATE", "GENOMIC_TEST", "BCL10", "CASP8")
    rules = (
        _bern(0, 0.0),
        _bern(1, 0.0),
        MechanismRule(
            2, (LogisticClause(-1.0, ((data_col(0), 0.8), (data_col(1), 0.3))),)
        ),
        MechanismRule(3, (ForceClause.follows(mask_col(2)),)),
        MechanismRule(4, (ForceClause.follows(mask_col(2)),)),
    )
    return MechanismSpec(
        rules=rules,
        col_names=names,
        declared_label=TaxonomyLabel(MAR, STRONG, SEQUENTIAL, PROBABILISTIC,
                                     POSITIVE),
    )
