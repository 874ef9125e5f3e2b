import hashlib
import math

import numpy as np
import pytest

from misslab.builtins import (
    BUILTIN_NAMES,
    _chain_mean,
    _dropout_mean,
    builtin_structures,
    canonical_taxonomy_specs,
    genomic_testing_spec,
    psa_logical_spec,
    psa_screening_spec,
    sim2_spec,
    sim3_spec,
    subject_effect_variant,
)
from misslab.mechanisms import (
    MechanismSpec,
    SpecificationError,
    classify,
    dumps_spec,
    mask_law,
    simulate_mask,
)
from misslab.tabular import pattern_summary

# SHA-256 of the spec texts below, recorded before the builders were
# rewritten by shape.
BUILTIN_SPEC_DIGEST = (
    "a97c54e2d3c245a47d0f7a7dbbf548a72de4bf745362e3a256a5e312a02988c1"
)
FIXTURE_SPEC_DIGEST = (
    "350c38ccd78be9172283655515e62bf76885d00ef7eb3e9e313110d59a32c7bb"
)


def law_rates(name: str, p: int = 10, rate: float = 0.45) -> np.ndarray:
    """Per-column missingness rates of a builtin, read from its exact law."""
    patterns, probs = mask_law(builtin_structures(name, p, rate))
    return patterns.T @ probs


class TestCalibration:
    @pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "complete"])
    def test_expected_overall_rate_hits_target(self, name):
        for p in (2, 5, 10):
            for rate in (0.45, 0.3):
                assert abs(law_rates(name, p, rate).mean() - rate) < 1e-8

    def test_complete_is_all_zero(self):
        patterns, probs = mask_law(builtin_structures("complete"))
        assert patterns.tolist() == [[0] * 10] and probs.tolist() == [1.0]

    def test_climbing_rates_match_stated_sequence(self):
        assert np.allclose(law_rates("mcar_u_2"), np.arange(10) / 10.0)

    def test_half_zero_half_ninety(self):
        rates = law_rates("mcar_u_3")
        assert np.allclose(rates[:5], 0.0)
        assert np.allclose(rates[5:], 0.9)

    def test_first_column_spared(self):
        rates = law_rates("mcar_u_4")
        assert rates[0] == 0.0
        assert np.allclose(rates[1:], 0.5)

    def test_alternate_target_rate(self):
        rates = law_rates("mcar_ws_seq", rate=0.3)
        assert abs(rates.mean() - 0.3) < 1e-8

    @pytest.mark.parametrize("p", [2, 5, 10])
    def test_calibration_means_equal_the_law(self, p):
        # The bisection targets _chain_mean and _dropout_mean; the law,
        # derived from the built spec alone, must agree with both.
        seq = builtin_structures("mcar_ws_seq", p)
        b = dict(seq.rules[0].clauses[0].probs)[()]
        a = dict(seq.rules[1].clauses[0].probs)[(1,)]
        drop = builtin_structures("mcar_ss_seq", p)
        h = dict(drop.rules[0].clauses[0].probs)[()]
        for spec, mean in ((seq, _chain_mean(b, a, p)), (drop, _dropout_mean(h, p))):
            patterns, probs = mask_law(spec)
            assert abs((patterns.T @ probs).mean() - mean) < 1e-14

    def test_unit_block_one_draw_sd(self):
        # The SD of one 10 000 x 10 draw's overall rate, from the law's
        # per-row missing counts, is the whole-row closed form.
        n = 10_000
        patterns, probs = mask_law(builtin_structures("unit_block"))
        counts = patterns.sum(axis=1)
        mean = probs @ counts
        sd = math.sqrt((probs @ counts**2 - mean**2) / n) / patterns.shape[1]
        assert abs(sd - math.sqrt(0.45 * 0.55 / n)) < 1e-12

    def test_unachievable_target_rejected(self):
        with pytest.raises(SpecificationError):
            builtin_structures("mcar_u_2", rate=0.6)

    def test_unknown_name_rejected(self):
        with pytest.raises(SpecificationError, match="unknown builtin"):
            builtin_structures("mcar_u_99")


class TestSimulatedRates:
    @pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "complete"])
    def test_simulated_overall_rate(self, name):
        x = np.random.default_rng(0).normal(size=(10_000, 10))
        mask = simulate_mask(builtin_structures(name), x, seed=1)
        assert abs(float(mask.bits.mean()) - 0.45) < 0.01

    def test_per_column_rates_within_three_se(self):
        n = 10_000
        x = np.random.default_rng(0).normal(size=(n, 10))
        mask = simulate_mask(builtin_structures("mcar_u_2"), x, seed=1)
        expect = law_rates("mcar_u_2")
        got = mask.column_rates()
        for j in range(10):
            se = math.sqrt(expect[j] * (1 - expect[j]) / n)
            assert abs(got[j] - expect[j]) <= 3 * se + 1e-12

    def test_dropout_builtin_is_monotone(self):
        x = np.random.default_rng(2).normal(size=(10_000, 10))
        mask = simulate_mask(builtin_structures("mcar_ss_seq"), x, seed=3)
        assert pattern_summary(mask).monotone

    def test_unit_block_rows_all_or_nothing(self):
        x = np.random.default_rng(4).normal(size=(5000, 10))
        mask = simulate_mask(builtin_structures("unit_block"), x, seed=5)
        per_row = mask.bits.sum(axis=1)
        assert set(np.unique(per_row)) <= {0, 10}

    def test_strong_block_drops_bank_jointly(self):
        x = np.random.default_rng(6).normal(size=(5000, 10))
        mask = simulate_mask(builtin_structures("mcar_ss_block"), x, seed=7)
        bank = mask.bits[:, 1:]
        assert set(np.unique(bank.sum(axis=1))) <= {0, 9}
        assert mask.bits[:, 0].sum() == 0


class TestDeclaredLabels:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_classify_matches_declared(self, name):
        spec = builtin_structures(name)
        assert classify(spec) == spec.declared_label


def _fixture_specs() -> dict[str, MechanismSpec]:
    specs = dict(canonical_taxonomy_specs())
    for make in (subject_effect_variant, psa_logical_spec,
                 psa_screening_spec, genomic_testing_spec):
        specs[make.__name__] = make()
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        specs[f"sim2_spec({q})"] = sim2_spec(q)
        specs[f"sim3_spec({q})"] = sim3_spec(q)
    return specs


def _digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


class TestGoldenSpecJson:
    """The canonical spec JSON of every builtin and fixture, pinned by digest.

    A refactor of how these specs are built must leave every byte, and every
    error message of an unachievable target, as it is.
    """

    def test_builtin_specs_match_golden_digest(self):
        texts = []
        for name in BUILTIN_NAMES:
            for p in (2, 3, 5, 10, 17):
                for rate in (0.0, 0.1, 0.3, 0.45, 0.5, 0.7):
                    try:
                        text = dumps_spec(builtin_structures(name, p, rate))
                    except SpecificationError as exc:
                        text = f"error: {exc}\n"
                    texts.append(f"{name} p={p} rate={rate}\n{text}")
        assert len(texts) == 300
        assert _digest(texts) == BUILTIN_SPEC_DIGEST

    def test_fixture_specs_match_golden_digest(self):
        specs = _fixture_specs()
        assert len(specs) == 25
        texts = [f"{key}\n{dumps_spec(spec)}" for key, spec in specs.items()]
        assert _digest(texts) == FIXTURE_SPEC_DIGEST
