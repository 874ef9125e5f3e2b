import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misslab.builtins import (
    BUILTIN_NAMES,
    builtin_structures,
    canonical_taxonomy_specs,
    genomic_testing_spec,
    psa_logical_spec,
    psa_screening_spec,
    sim2_spec,
    sim3_spec,
    subject_effect_variant,
)
from misslab.graphs import export_dot
from misslab.mechanisms import (
    Comparison,
    EvaluationError,
    ForceClause,
    LatentBlock,
    LogicalClause,
    LogisticClause,
    MechanismRule,
    MechanismSpec,
    PredictorRef,
    SpecificationError,
    TableClause,
    TaxonomyLabel,
    _EvalContext,
    block_ref,
    classify,
    data_col,
    dumps_spec,
    load_spec,
    loads_spec,
    mask_col,
    mask_law,
    rule_probabilities,
    save_spec,
    simulate_mask,
)


def bern_spec(rates, **kw):
    rules = tuple(
        MechanismRule(j, (TableClause.bernoulli(r),)) for j, r in enumerate(rates)
    )
    return MechanismSpec(rules=rules, **kw)


class TestSimulateMask:
    def test_bernoulli_rates_within_three_se(self):
        n, rate = 100_000, 0.45
        x = np.zeros((n, 3))
        mask = simulate_mask(bern_spec([rate] * 3), x, seed=2)
        se = math.sqrt(rate * (1 - rate) / n)
        assert np.all(np.abs(mask.column_rates() - rate) < 3 * se)

    def test_logistic_probability_half_at_zero(self):
        rule = MechanismRule(1, (LogisticClause(0.0, ((data_col(0), 2.0),)),))
        ctx = _EvalContext(np.zeros((5, 2)), np.zeros((5, 2), np.uint8), [], np.zeros(5))
        prob, *_ = rule_probabilities(rule, ctx)
        assert np.allclose(prob, 0.5)

    def test_table_certainty_complements_parent(self):
        # q=1 wired through a table: the later column mirrors 1 - earlier.
        x = np.zeros((2000, 3))
        mask = simulate_mask(sim2_spec(1.0), np.random.default_rng(0).normal(size=(2000, 3)), seed=5)
        assert np.array_equal(mask.bits[:, 2], 1 - mask.bits[:, 1])

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(1).normal(size=(500, 3))
        spec = sim3_spec(0.3)
        a = simulate_mask(spec, x, seed=11)
        b = simulate_mask(spec, x, seed=11)
        c = simulate_mask(spec, x, seed=12)
        assert np.array_equal(a.bits, b.bits)
        assert not np.array_equal(a.bits, c.bits)

    def test_mcar_mask_uncorrelated_with_data(self):
        n = 100_000
        x = np.random.default_rng(3).normal(size=(n, 4))
        mask = simulate_mask(bern_spec([0.45] * 4), x, seed=4)
        bound = 4.0 / math.sqrt(n)
        for j in range(4):
            for k in range(4):
                r = np.corrcoef(mask.bits[:, j], x[:, k])[0, 1]
                assert abs(r) < bound

    def test_table_conditional_frequencies(self):
        n = 100_000
        x = np.random.default_rng(8).normal(size=(n, 3))
        mask = simulate_mask(sim3_spec(0.3), x, seed=9)
        m1, m2 = mask.bits[:, 1].astype(bool), mask.bits[:, 2]
        for parent_value, p_target in ((True, 0.5), (False, 0.3)):
            sel = m2[m1 == parent_value]
            se = math.sqrt(p_target * (1 - p_target) / sel.size)
            assert abs(sel.mean() - p_target) < 3 * se

    def test_subject_effect_induces_row_correlation(self):
        spec = subject_effect_variant()
        x = np.zeros((20_000, 3))
        mask = simulate_mask(spec, x, seed=6)
        # Shared subject effect couples columns within a row.
        r = np.corrcoef(mask.bits[:, 0], mask.bits[:, 1])[0, 1]
        assert r > 0.05

    def test_incomplete_data_rejected(self):
        from misslab.tabular import DataMatrix, MissMask

        d = DataMatrix(np.ones((2, 2)), MissMask([[0, 1], [0, 0]]), ("a", "b"))
        with pytest.raises(ValueError, match="complete"):
            simulate_mask(bern_spec([0.1, 0.1]), d, seed=0)

    def test_forward_reference_rejected(self):
        rules = (
            MechanismRule(0, (TableClause.from_dict((mask_col(1),), {(0,): 0.1, (1,): 0.9}),)),
            MechanismRule(1, (TableClause.bernoulli(0.5),)),
        )
        with pytest.raises(SpecificationError, match="simulated later"):
            MechanismSpec(rules=rules)

    def test_nonfinite_predictor_raises_evaluation_error(self):
        spec = MechanismSpec(
            rules=(
                MechanismRule(0, (LogisticClause(0.0, ((data_col(0), 1.0),)),)),
                MechanismRule(1, (TableClause.bernoulli(0.0),)),
            )
        )
        x = np.array([[np.inf, 0.0]])
        with pytest.raises(EvaluationError, match="non-finite"):
            simulate_mask(spec, x, seed=0)

    def test_overflowing_predictor_raises_without_numpy_warnings(self):
        # 2 * 1e308 overflows and 0 * inf is invalid: the error is all that
        # is reported.
        spec = MechanismSpec(
            rules=(
                MechanismRule(0, (TableClause.bernoulli(0.0),)),
                MechanismRule(1, (LogisticClause(0.0, ((data_col(0), 2.0),
                                                       (data_col(1), 0.0))),)),
            )
        )
        x = np.array([[1.0, 0.0], [1e308, np.inf]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EvaluationError,
                               match="non-finite linear predictor in rule for column 1"):
                simulate_mask(spec, x, seed=0)
        assert [str(w.message) for w in caught] == []

    def test_strong_rules_idempotent_on_final_mask(self):
        from misslab.builtins import builtin_structures

        spec = builtin_structures("mcar_ss_seq")
        x = np.random.default_rng(0).normal(size=(2000, 10))
        mask = simulate_mask(spec, x, seed=13)
        ctx = _EvalContext(x, mask.bits, [], np.zeros(2000))
        for rule in spec.rules:
            # Forced rows carry probability 1; no row is forced observed.
            prob, _ = rule_probabilities(rule, ctx)
            assert np.all(mask.bits[prob == 1.0, rule.target] == 1)
            assert (prob > 0.0).all()

    def test_zero_probability_clause_is_identity(self):
        # One uniform per cell: a rule that gains a zero-probability clause
        # draws the same mask bits for the same seed.
        def spec(extra):
            return MechanismSpec(rules=(
                MechanismRule(0, (TableClause.bernoulli(0.3),) + extra),
                MechanismRule(1, (ForceClause((Comparison(data_col(0), ">", 0.8),), 1),
                                  TableClause.bernoulli(0.2)) + extra),
            ))

        x = np.random.default_rng(2).normal(size=(3000, 2))
        a = simulate_mask(spec(()), x, seed=3)
        b = simulate_mask(spec((TableClause.bernoulli(0.0),)), x, seed=3)
        assert np.array_equal(a.bits, b.bits)

    def test_logical_cells_flagged(self):
        spec = psa_logical_spec()
        x = np.column_stack(
            [np.array([1.0, 0.0, 1.0]), np.zeros(3), np.ones(3), np.ones(3), np.ones(3)]
        )
        mask = simulate_mask(spec, x, seed=1)
        assert mask.logical is not None
        assert np.array_equal(mask.logical[:, 2], np.array([1, 0, 1], dtype=np.uint8))
        assert np.all(mask.bits >= mask.logical_bits())


def _reordered_spec() -> MechanismSpec:
    """Simulated in the order 3, 1, 0, 2: each column reads indicators that
    are simulated before it but stored after it."""
    return MechanismSpec(
        rules=(
            MechanismRule(0, (ForceClause((Comparison(mask_col(1), "==", 1.0),), 1),
                              TableClause.bernoulli(0.2))),
            MechanismRule(1, (TableClause.from_dict((mask_col(3),), {(0,): 0.1, (1,): 0.7}),)),
            MechanismRule(2, (LogisticClause(-1.0, ((mask_col(3), 1.5), (mask_col(0), -1.0))),)),
            MechanismRule(3, (TableClause.bernoulli(0.4),)),
        ),
        simulation_order=(3, 1, 0, 2),
    )


def _force_conflict(reverse: bool = False) -> MechanismSpec:
    """Every column forced missing on unit_block's block of 0.4, forced
    observed on a block of 0.5 and otherwise Bernoulli 0.2. Both forces fire
    on about a fifth of the rows; ``reverse`` lists the two blocks, and each
    rule's clauses, the other way round."""
    unit = builtin_structures("unit_block", p=3, rate=0.4)
    blocks = unit.blocks + (LatentBlock(0.5),)
    missing = (ForceClause.follows(block_ref(int(reverse))),)
    held = (ForceClause((Comparison(block_ref(1 - int(reverse)), "==", 1.0),), 0),
            TableClause.bernoulli(0.2))
    clauses = held + missing if reverse else missing + held
    return MechanismSpec(
        rules=tuple(MechanismRule(j, clauses) for j in range(3)),
        blocks=blocks[::-1] if reverse else blocks,
    )


def _ws_seq_with_ss_block(p: int) -> MechanismSpec:
    """Each column takes mcar_ws_seq's clauses followed by mcar_ss_block's,
    on mcar_ss_block's latent block."""
    seq, block = builtin_structures("mcar_ws_seq", p), builtin_structures("mcar_ss_block", p)
    return MechanismSpec(
        rules=tuple(MechanismRule(a.target, a.clauses + b.clauses)
                    for a, b in zip(seq.rules, block.rules)),
        blocks=block.blocks,
    )


def _law_cases() -> dict[str, MechanismSpec]:
    cases = {
        f"{name}-p{p}": builtin_structures(name, p)
        for name in BUILTIN_NAMES
        for p in (2, 5, 10)
    }
    canonical = canonical_taxonomy_specs()
    cases.update((name, canonical[name]) for name in ("MCAR-U", "MCAR-WS", "MCAR-SS"))
    cases["ws_seq-with-ss_block"] = _ws_seq_with_ss_block(5)
    cases["simulation-order"] = _reordered_spec()
    cases["force-conflict"] = _force_conflict()
    cases["force-conflict-reversed"] = _force_conflict(reverse=True)
    return cases


LAW_CASES = _law_cases()


def pattern_fit_pvalue(spec: MechanismSpec, n: int, seed: int) -> float:
    """Pearson p-value of the pattern counts of ``n`` simulated rows against
    ``mask_law(spec)``. Cells expected below 5 rows are pooled, smallest
    first, until the pool expects at least 5. A drawn pattern outside the
    law's support fails outright."""
    from scipy.special import chdtrc

    patterns, probs = mask_law(spec)
    weights = 1 << np.arange(spec.p, dtype=np.int64)
    keys = patterns.astype(np.int64) @ weights
    drawn = simulate_mask(spec, np.zeros((n, spec.p)), seed).bits.astype(np.int64) @ weights
    seen, counts = np.unique(drawn, return_counts=True)
    outside = np.setdiff1d(seen, keys)
    assert not len(outside), f"drawn patterns outside the law's support: {outside}"
    order = np.argsort(keys)
    observed = np.zeros(len(keys))
    observed[order[np.searchsorted(keys[order], seen)]] = counts
    by_size = np.argsort(n * probs, kind="stable")
    expected, observed = n * probs[by_size], observed[by_size]
    small = np.searchsorted(expected, 5.0)
    pool = max(small, np.searchsorted(np.cumsum(expected), 5.0) + 1) if small else 0
    if pool:
        expected = np.concatenate([[expected[:pool].sum()], expected[pool:]])
        observed = np.concatenate([[observed[:pool].sum()], observed[pool:]])
    if len(expected) < 2:
        return 1.0
    return float(chdtrc(len(expected) - 1, ((observed - expected) ** 2 / expected).sum()))


class TestMaskLaw:
    @pytest.mark.parametrize("name", list(LAW_CASES))
    def test_simulated_patterns_fit_the_law(self, name):
        # One fixed seed for every case; at a floor of 1e-6 a false alarm
        # over all cases has probability below 1e-4.
        assert pattern_fit_pvalue(LAW_CASES[name], 50_000, seed=12) > 1e-6

    def test_laws_are_distributions(self):
        for name, spec in LAW_CASES.items():
            patterns, probs = mask_law(spec)
            assert patterns.dtype == np.uint8 and patterns.shape == (len(probs), spec.p)
            assert len(np.unique(patterns, axis=0)) == len(probs), name
            assert (probs > 0).all() and abs(probs.sum() - 1.0) < 1e-12, name

    def test_whole_row_block(self):
        patterns, probs = mask_law(builtin_structures("unit_block", p=4, rate=0.3))
        assert patterns.tolist() == [[0] * 4, [1] * 4]
        assert np.allclose(probs, [0.7, 0.3])
        # A block that never fires leaves one pattern: its zero-weight
        # states are dropped.
        patterns, probs = mask_law(builtin_structures("unit_block", p=4, rate=0.0))
        assert patterns.tolist() == [[0] * 4] and probs.tolist() == [1.0]

    def test_hard_cases_match_golden_digests(self):
        # The dumps_spec text of the hand-written hard cases, pinned.
        digests = {
            name: hashlib.sha256(dumps_spec(LAW_CASES[name]).encode()).hexdigest()
            for name in ("ws_seq-with-ss_block", "force-conflict", "force-conflict-reversed")
        }
        assert digests == {
            "ws_seq-with-ss_block":
                "4cf6ab1ecf7a5a99772de9e4cd0f7846bb9bd7a5826914453ebbba941de730bd",
            "force-conflict":
                "243ee5cd5a35ea4d70c11c23a7d7346f6a98fc16e2156bbb74018eaf14cecda5",
            "force-conflict-reversed":
                "2ae9f636add7d80b1a6b44671567a36664c57945d43e5f89077fca67cdeeb4ed",
        }

    def test_force_precedence_ignores_clause_order(self):
        # Force-to-1 beats force-to-0 beats the probability, whatever the
        # order of the clauses within a rule: each column is missing with
        # probability 0.4 + 0.6 * 0.5 * 0.2.
        ahead, behind = mask_law(_force_conflict()), mask_law(_force_conflict(reverse=True))
        assert np.array_equal(ahead[0], behind[0])
        assert np.allclose(ahead[1], behind[1], rtol=1e-12, atol=0.0)
        assert np.allclose(ahead[0].T @ ahead[1], 0.46, rtol=1e-12, atol=0.0)

    def test_independent_clauses_multiply(self):
        # Two Bernoulli(0.5) clauses in one rule fire as independent
        # triggers: the cell is observed with probability 0.5 * 0.5.
        spec = MechanismSpec(rules=(
            MechanismRule(0, (TableClause.bernoulli(0.5), TableClause.bernoulli(0.5))),
        ))
        patterns, probs = mask_law(spec)
        assert patterns.tolist() == [[0], [1]]
        assert probs.tolist() == [0.25, 0.75]

    def test_row_dependent_specs_rejected(self):
        with pytest.raises(SpecificationError, match="column 1 reads data column 0"):
            mask_law(canonical_taxonomy_specs()["MAR-UP"])
        with pytest.raises(SpecificationError, match="reads the subject effect"):
            mask_law(subject_effect_variant())


class TestClassify:
    def test_constant_bernoulli_is_unstructured_mcar(self):
        label = classify(bern_spec([0.3, 0.3]))
        assert (label.data_dependence, label.structure, label.shape,
                label.determinism) == ("MCAR", "unstructured", "none", "probabilistic")

    def test_canonical_cells_match_declared(self):
        for name, spec in canonical_taxonomy_specs().items():
            assert classify(spec) == spec.declared_label, name
            assert classify(spec).short() == name

    def test_subject_effect_variant_stays_mcar(self):
        spec = subject_effect_variant()
        assert classify(spec) == spec.declared_label

    def test_sim2_weak_to_strong(self):
        assert classify(sim2_spec(0.5)).structure == "weak"
        assert classify(sim2_spec(0.5)).shape == "sequential"
        assert classify(sim2_spec(1.0)).structure == "strong"
        assert classify(sim2_spec(0.0)).structure == "unstructured"

    def test_sim3_sign_flips_at_half(self):
        assert classify(sim3_spec(0.2)).sign == "positive"
        assert classify(sim3_spec(0.8)).sign == "negative"
        assert classify(sim3_spec(0.5)).structure == "unstructured"

    def test_latent_column_forces_mnar(self):
        assert classify(sim3_spec(0.3)).data_dependence == "MNAR"

    def test_relabeling_invariance(self):
        spec = canonical_taxonomy_specs()["MNAR-WS"]
        perm = (2, 0, 1)  # new index of old column j is perm[j]
        relabeled = _permute_columns(spec, perm)
        assert classify(relabeled) == classify(spec)

    def test_clinical_fixture_labels(self):
        for fixture in (psa_logical_spec, psa_screening_spec, genomic_testing_spec):
            spec = fixture()
            assert classify(spec) == spec.declared_label, fixture.__name__

    def test_weak_plus_data_deterministic_flags_strong(self):
        # An indicator chain (weak) whose second column is also forced
        # missing by a data predicate.
        spec = MechanismSpec(rules=(
            MechanismRule(0, (TableClause.bernoulli(0.2),)),
            MechanismRule(1, (TableClause.from_dict((mask_col(0),), {(0,): 0.1, (1,): 0.6}),
                              ForceClause((Comparison(data_col(0), ">", 0.8),), 1))),
        ))
        label = classify(spec)
        assert label.data_dependence == "MAR"
        assert label.structure == "weak"
        assert label.determinism == "deterministic"
        assert label.short() == "MAR-WS/SS"

    def test_mixture_label_flags_strong_component(self):
        label = TaxonomyLabel("MAR", "weak", "sequential", "deterministic")
        assert label.short() == "MAR-WS/SS"

    @staticmethod
    def _forced_by(*when) -> MechanismSpec:
        return MechanismSpec(rules=(
            MechanismRule(0, (TableClause.bernoulli(0.3),)),
            MechanismRule(1, (ForceClause(when, 1), TableClause.bernoulli(0.2))),
        ))

    @pytest.mark.parametrize("op, value", [
        ("==", 0.5), (">", 1.0), ("<", 0.0),  # no value fires the clause
        ("!=", 0.5), (">=", 0.0), ("<=", 1.0),  # both values fire it
    ])
    def test_indicator_comparison_that_cannot_split_declares_no_edge(self, op, value):
        # M_1 does not depend on M_0, which takes only 0 and 1, when both or
        # neither satisfy the comparison: the law factorises.
        spec = self._forced_by(Comparison(mask_col(0), op, value))
        patterns, probs = mask_law(spec)
        law = dict(zip(map(tuple, patterns.tolist()), probs))
        p0, p1 = (sum(p for k, p in law.items() if k[j]) for j in (0, 1))
        for a, b in itertools.product((0, 1), repeat=2):
            joint = (p0 if a else 1 - p0) * (p1 if b else 1 - p1)
            assert law.get((a, b), 0.0) == pytest.approx(joint)
        assert classify(spec).short() == "MCAR-U"
        assert "->" not in export_dot(spec)

    def test_clause_that_never_fires_drops_its_data_edge_too(self):
        spec = self._forced_by(Comparison(mask_col(0), "==", 0.5),
                               Comparison(data_col(0), ">", 0.0))
        assert classify(spec).short() == "MCAR-U"
        assert "->" not in export_dot(spec)

    def test_always_true_indicator_comparison_keeps_the_data_edge(self):
        spec = self._forced_by(Comparison(mask_col(0), "!=", 0.5),
                               Comparison(data_col(0), ">", 0.0))
        assert classify(spec).short() == "MAR-UD"
        dot = export_dot(spec)
        assert '"X1" -> "M_X2" [style=solid];' in dot
        assert '"M_X1" ->' not in dot


def _permute_columns(spec: MechanismSpec, perm):
    """Relabel columns consistently across rules and orders: old column j
    becomes column perm[j] in every index, target and order of the spec's
    JSON."""
    obj = json.loads(dumps_spec(spec))
    for path in list(_json_paths(obj)):
        node = _json_node(obj, path)
        if isinstance(node, dict) and node.get("kind") in ("data", "mask"):
            node["index"] = perm[node["index"]]
        if path[:1] == ("rules",) and len(path) == 2:
            node["target"] = perm[node["target"]]
    temporal = obj["temporal_order"] or range(spec.p)
    obj["temporal_order"] = [perm[j] for j in temporal]
    for key in ("simulation_order", "latent_columns"):
        obj[key] = [perm[j] for j in obj[key]]
    return loads_spec(json.dumps(obj))


def every_fixture_spec() -> list[MechanismSpec]:
    """Every builtin (at two sizes) and every fixture spec."""
    specs = [builtin_structures(name, p) for name in BUILTIN_NAMES for p in (2, 10)]
    specs += [sim2_spec(q) for q in (0.0, 0.3, 1.0)]
    specs += [sim3_spec(q) for q in (0.0, 0.25, 0.5, 1.0)]
    specs += list(canonical_taxonomy_specs().values())
    specs += [subject_effect_variant(), psa_logical_spec(), psa_screening_spec(),
              genomic_testing_spec()]
    return specs


class TestSpecFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        for spec in every_fixture_spec():
            text = dumps_spec(spec)
            again = dumps_spec(loads_spec(text))
            assert text == again
            path = tmp_path / "spec.json"
            save_spec(spec, path)
            assert load_spec(path) == spec

    def test_bad_json_reports_spec_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecificationError, match="not valid JSON"):
            load_spec(path)


class TestDotExport:
    def test_sim3_graph_edges(self):
        dot = export_dot(sim3_spec(0.4))
        assert '"Z" -> "M_X1" [style=dashed];' in dot
        assert '"M_X1" -> "M_X2" [style=dashed];' in dot
        assert '"Z" [shape=box, color=gray, style=dashed, class="latent"];' in dot

    def test_deterministic_edges_solid(self):
        dot = export_dot(genomic_testing_spec())
        assert '"M_GENOMIC_TEST" -> "M_BCL10" [style=solid];' in dot

    def test_subject_effect_node(self):
        dot = export_dot(subject_effect_variant())
        assert '"S" [shape=circle, color=green, class="subject-effect"];' in dot

    def test_block_node_rendered(self):
        from misslab.builtins import builtin_structures

        dot = export_dot(builtin_structures("mcar_ws_block"))
        assert '"B1"' in dot
        assert '"B1" -> "M_X1" [style=dashed];' in dot


class TestValidation:
    def test_self_reference_rejected(self):
        with pytest.raises(SpecificationError, match="own"):
            MechanismSpec(rules=(
                MechanismRule(0, (TableClause.from_dict((mask_col(0),), {(0,): 0.1, (1,): 0.9}),)),
            ))

    def test_table_requires_total_probabilities(self):
        with pytest.raises(SpecificationError, match="every parent configuration"):
            TableClause((mask_col(0),), (((0,), 0.5),))

    def test_subject_reference_requires_declared_effect(self):
        from misslab.mechanisms import subject_effect

        with pytest.raises(SpecificationError, match="subject"):
            MechanismSpec(rules=(
                MechanismRule(0, (LogisticClause(0.0, ((subject_effect(), 1.0),)),)),
            ))

    def test_subject_reference_takes_no_index(self):
        # The subject effect is one per row: an index would give the same
        # mechanism a second spec file.
        with pytest.raises(SpecificationError, match="subject predictor takes no index"):
            PredictorRef("subject", 7)

    def test_nonfinite_numbers_rejected(self):
        with pytest.raises(SpecificationError, match="comparison value must be finite"):
            Comparison(mask_col(0), "==", float("nan"))

    def test_undeclared_block_rejected(self):
        with pytest.raises(SpecificationError, match="undeclared"):
            MechanismSpec(rules=(
                MechanismRule(0, (TableClause.from_dict(
                    (PredictorRef("block", 0),), {(0,): 0.0, (1,): 1.0}),)),
            ))


# ---------------------------------------------------------------------------
# Properties over random valid specs
# ---------------------------------------------------------------------------

_num = st.floats(-2.0, 2.0, allow_nan=False).map(lambda v: round(v, 3))
_threshold = st.sampled_from([-0.5, 0.0, 0.5, 1.0])
_OPS = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def specs(draw):
    """A random valid MechanismSpec using every clause type and ref kind."""
    p = draw(st.integers(1, 4))
    n_blocks = draw(st.integers(0, 2))
    subject = draw(st.booleans())
    order = tuple(draw(st.permutations(range(p))))

    def ref(kinds, earlier):
        options = []
        if "data" in kinds:
            options.append(st.integers(0, p - 1).map(data_col))
        if "mask" in kinds and earlier:
            options.append(st.sampled_from(earlier).map(mask_col))
        if "block" in kinds and n_blocks:
            options.append(st.integers(0, n_blocks - 1).map(
                lambda b: PredictorRef("block", b)))
        if "subject" in kinds and subject:
            options.append(st.just(PredictorRef("subject")))
        return draw(st.one_of(options))

    def predicate(kinds, earlier):
        return tuple(
            Comparison(ref(kinds, earlier), draw(st.sampled_from(_OPS)), draw(_threshold))
            for _ in range(draw(st.integers(1, 2)))
        )

    any_kind = ("data", "mask", "block", "subject")
    rules = []
    for pos, j in enumerate(order):
        earlier = list(order[:pos])
        clauses = []
        for kind in draw(st.lists(st.sampled_from(["logistic", "table", "force",
                                                   "logical"]), max_size=3)):
            if kind == "logistic":
                terms = tuple((ref(any_kind, earlier), draw(_num | st.just(0.0)))
                              for _ in range(draw(st.integers(0, 2))))
                clauses.append(LogisticClause(draw(_num), terms))
            elif kind == "table":
                can_parent = bool(earlier) or n_blocks > 0
                parents = tuple(ref(("mask", "block"), earlier)
                                for _ in range(draw(st.integers(0, 2 if can_parent else 0))))
                probs = {
                    key: draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
                    for key in itertools.product((0, 1), repeat=len(parents))
                }
                clauses.append(TableClause.from_dict(parents, probs))
            elif kind == "force":
                clauses.append(ForceClause(predicate(any_kind, earlier),
                                           draw(st.integers(0, 1))))
            else:
                clauses.append(LogicalClause(predicate(("data",), earlier)))
        scope = predicate(any_kind, earlier) if draw(st.booleans()) else None
        rules.append(MechanismRule(j, tuple(clauses), scope))
    return MechanismSpec(
        rules=tuple(rules),
        simulation_order=order,
        subject_effect_var=draw(st.floats(0.0, 2.0)) if subject else None,
        blocks=tuple(LatentBlock(draw(st.floats(0.0, 1.0))) for _ in range(n_blocks)),
        latent_columns=frozenset(draw(st.lists(st.integers(0, p - 1), max_size=2))),
        temporal_order=tuple(draw(st.permutations(range(p)))) if draw(st.booleans()) else None,
        col_names=tuple(f"c{j}" for j in range(p)) if draw(st.booleans()) else None,
    )


def _json_paths(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _json_node(obj, path):
    for key in path:
        obj = obj[key]
    return obj


# Every key some spec object may hold.
_SPEC_KEYS = {"type", "columns"} | {
    f.name for cls in (PredictorRef, Comparison, LogisticClause, TableClause, ForceClause,
                       LogicalClause, MechanismRule, LatentBlock, TaxonomyLabel, MechanismSpec)
    for f in dataclasses.fields(cls)
}


def _spec_path(path) -> str:
    """A JSON path as spec errors name it: ``rules[0].clauses[1]``."""
    text = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return text.removeprefix(".") or "spec"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


class TestSpecProperties:
    @given(specs())
    @settings(max_examples=200, deadline=None)
    def test_json_round_trip_is_byte_stable(self, spec):
        text = dumps_spec(spec)
        assert dumps_spec(loads_spec(text)) == text
        assert loads_spec(text) == spec

    @given(specs())
    @settings(max_examples=200, deadline=None)
    def test_classify_is_total(self, spec):
        label = classify(spec)
        assert isinstance(label, TaxonomyLabel)
        assert classify(loads_spec(dumps_spec(spec))) == label
        assert export_dot(spec).endswith("}\n")

    @given(specs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_simulate_mask_precedence(self, spec, seed):
        # logical > force-to-1 > force-to-0 > probability, replaying the
        # documented draw order: subject effects, block indicators, then one
        # uniform per cell column by column along simulation_order. The
        # forced and logical rows are found here from the rule's clauses;
        # the probability comes from the rule cut down to its logistic and
        # table clauses, which force nothing.
        n = 40
        x = np.random.default_rng(seed).integers(-1, 3, size=(n, spec.p)) / 2
        mask = simulate_mask(spec, x, seed)
        rng = np.random.default_rng(seed)
        subj = (rng.normal(0.0, np.sqrt(spec.subject_effect_var), size=n)
                if spec.subject_effect_var is not None else np.zeros(n))
        blocks = [(rng.random(n) < blk.prob).astype(np.uint8) for blk in spec.blocks]
        ctx = _EvalContext(x, mask.bits, blocks, subj)
        for j in spec.simulation_order:
            u = rng.random(n)
            rule = spec.rules[j]
            scope = ctx.predicate(rule.subject_scope or ())

            def fires(kind, value=None):
                hit = np.zeros(n, dtype=bool)
                for c in rule.clauses:
                    if isinstance(c, kind) and getattr(c, "value", None) == value:
                        hit |= ctx.predicate(c.when)
                return hit & scope

            force1, force0 = fires(ForceClause, 1), fires(ForceClause, 0)
            logic = fires(LogicalClause)
            pure = dataclasses.replace(rule, clauses=tuple(
                c for c in rule.clauses if isinstance(c, (LogisticClause, TableClause))))
            prob, _ = rule_probabilities(pure, ctx)
            want = np.where(logic | force1, 1, np.where(force0, 0, u < prob))
            assert np.array_equal(mask.bits[:, j], want)
            assert np.array_equal(mask.logical_bits()[:, j], logic)

    @given(specs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_spec_json_never_exits_two(self, tmp_path_factory, spec, data):
        # Replace one node of a valid spec's JSON by random JSON, or delete
        # one object key: classify accepts it or exits 1 with a message.
        from misslab.cli import dispatch

        obj = json.loads(dumps_spec(spec))
        path = data.draw(st.sampled_from(list(_json_paths(obj))))
        if not path:
            obj = data.draw(_json_values)
        else:
            parent = _json_node(obj, path[:-1])
            if isinstance(parent, dict) and data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_json_values)
        spec_file = tmp_path_factory.mktemp("spec") / "spec.json"
        spec_file.write_text(json.dumps(obj))
        assert dispatch(["classify", "--spec", str(spec_file)]) in (0, 1)

    @given(specs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_unknown_key_exits_one_naming_its_path(self, tmp_path_factory, spec, data):
        # Insert a key no spec object holds into one object of a valid spec's
        # JSON: classify exits 1 naming the key and the object's path.
        from misslab.cli import dispatch

        obj = json.loads(dumps_spec(spec))
        nodes = {}
        for path in _json_paths(obj):
            node = _json_node(obj, path)
            if isinstance(node, dict):
                nodes[path] = node
        path = data.draw(st.sampled_from(list(nodes)))
        key = data.draw(st.text(max_size=8).filter(lambda k: k not in _SPEC_KEYS))
        nodes[path][key] = data.draw(_json_values)
        spec_file = tmp_path_factory.mktemp("spec") / "spec.json"
        spec_file.write_text(json.dumps(obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert dispatch(["classify", "--spec", str(spec_file)]) == 1
        assert f"{_spec_path(path)}: unknown field {key!r}" in err.getvalue()
