import hashlib
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blas_kernel import kernel_note
from misslab import experiments
from misslab.builtins import sim2_spec, sim3_label
from misslab.experiments import (
    ExperimentConfig,
    _median,
    _sim1_data,
    _with_intercept,
    run_experiment,
    run_sim1,
    run_sim2,
    run_sim3,
    _check_label,
)
from misslab.impute import fcs_impute
from misslab.inference import ols_fit, predict_mse
from misslab.mechanisms import SpecificationError, TaxonomyLabel


def tiny_sim2(**kw):
    defaults = dict(
        experiment="sim2", n_replicates=3, seed=9, n=200, m=3,
        q_grid=(0.0, 0.5), maxit_list=(2,),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            ExperimentConfig("sim9").validate()

    def test_run_experiment_rejects_unknown_experiment(self):
        # Rejected by validate, ahead of the run_<id> lookup.
        with pytest.raises(ValueError, match=re.escape(
                "unknown experiment 'sim9'; choose one of sim1, sim2, sim3")):
            run_experiment(ExperimentConfig("sim9"))

    def test_rho_outside_positive_definite_range(self):
        with pytest.raises(ValueError, match="positive\\s*definite|positive "):
            ExperimentConfig("sim1", rho_list=(0.0, -0.2)).validate()

    def test_q_outside_unit_interval(self):
        with pytest.raises(ValueError, match="outside"):
            ExperimentConfig("sim2", q_grid=(0.5, 1.2)).validate()

    @pytest.mark.parametrize("experiment", ["sim2", "sim3"])
    def test_pooling_studies_need_two_imputations(self, experiment):
        with pytest.raises(ValueError, match="^m must be >= 2"):
            ExperimentConfig(experiment, m=1).validate()
        ExperimentConfig(experiment, m=2).validate()

    @pytest.mark.parametrize("experiment", ["sim2", "sim3", "sim1"])
    def test_fields_a_study_does_not_read_are_not_checked(self, experiment):
        if experiment == "sim1":
            unread = [dict(n=0), dict(q_grid=(1.5,)), dict(maxit_list=(0,), sim3_maxit=0)]
        else:
            unread = [dict(structures=(), rho_list=(), maxit=0, missing_rate=2.0),
                      dict(p=1), dict(rho_list=(5.0,)), dict(structures=("nope",)),
                      dict(n_train=0), dict(n_test=0)]
        for values in unread:
            ExperimentConfig(experiment, **values).validate()

    def test_sim1_accepts_one_imputation(self):
        ExperimentConfig("sim1", m=1).validate()
        with pytest.raises(ValueError, match="^m must be a positive integer"):
            ExperimentConfig("sim1", m=0).validate()

    def test_float_fields_stored_as_floats(self):
        cfg = ExperimentConfig("sim1", rho_list=[0, 0.4], missing_rate=0,
                               q_grid=[0, 1], maxit_list=[2])
        assert cfg.rho_list == (0.0, 0.4) and cfg.q_grid == (0.0, 1.0)
        assert all(type(v) is float for v in (*cfg.rho_list, *cfg.q_grid,
                                               cfg.missing_rate))
        assert cfg.maxit_list == (2,)

    @pytest.mark.parametrize("field, value", [
        ("n", "abc"), ("n", True), ("seed", 1.0), ("q_grid", 0.5),
        ("maxit_list", [1.5]), ("structures", "mcar_u_1"), ("missing_rate", None),
    ])
    def test_ill_typed_field_named(self, field, value):
        # A bad list entry is named by its position.
        path = re.escape(f"{field}[0]" if isinstance(value, list) else field)
        with pytest.raises(ValueError, match=f"^{path}: expected"):
            ExperimentConfig("sim2", **{field: value})

    @pytest.mark.parametrize("experiment", ["sim1", "sim2", "sim3"])
    def test_every_field_reads_back_from_json(self, experiment):
        # A field whose annotation the config reader cannot read fails here.
        from misslab.cli import config_from_mapping

        default = ExperimentConfig(experiment)
        for cfg in (default, replace(default, q_grid=default.effective_q_grid())):
            values = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "out_dir"}
            assert config_from_mapping(json.loads(json.dumps(values))) == cfg

    def test_default_grids(self):
        assert ExperimentConfig("sim2").effective_q_grid() == tuple(
            round(0.1 * i, 1) for i in range(11)
        )
        assert ExperimentConfig("sim3").effective_q_grid() == (
            0.0, 0.25, 0.5, 0.75, 1.0,
        )


class TestLabelValidation:
    def test_matching_label_passes(self):
        _check_label(sim2_spec(0.3), "ctx")

    def test_mismatch_raises(self):
        wrong = TaxonomyLabel("MCAR", "unstructured", "none", "probabilistic")
        spec = replace(sim2_spec(0.3), declared_label=wrong)
        message = f"ctx: spec classifies as {sim2_spec(0.3).declared_label} but {wrong} was declared"
        with pytest.raises(SpecificationError, match=re.escape(message)):
            _check_label(spec, "ctx")

    def test_sim3_labels_cover_grid(self):
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert sim3_label(q).data_dependence == "MNAR"


class TestDeterminismAndIndependence:
    def test_identical_runs_identical_rows(self):
        a = run_sim2(tiny_sim2())
        b = run_sim2(tiny_sim2())
        assert a.results == b.results
        assert a.summary == b.summary
        assert a.manifest == b.manifest

    def test_threading_does_not_change_rows(self):
        a = run_sim2(tiny_sim2(threads=1))
        b = run_sim2(tiny_sim2(threads=2))
        assert a.results == b.results

    def test_replicates_are_independent(self):
        few = run_sim2(tiny_sim2(n_replicates=2)).results
        more = run_sim2(tiny_sim2(n_replicates=4)).results
        few_rows = [r for r in more if r["replicate"] < 2]
        assert few_rows == few

    def test_seed_changes_rows(self):
        a = run_sim2(tiny_sim2()).results
        b = run_sim2(tiny_sim2(seed=10)).results
        assert a != b


class TestSim1Harness:
    def test_small_run_shape_and_paths(self, tmp_path):
        cfg = ExperimentConfig(
            "sim1", n_replicates=2, seed=5, n_test=50, out_dir=tmp_path,
            structures=("complete", "mcar_u_1", "unit_block"),
        )
        out = run_experiment(cfg)
        assert len(out.results) == 2 * 2 * 3 * 2  # rho x reps x structures x test
        assert all(np.isfinite(r["mse"]) for r in out.results)
        assert (tmp_path / "sim1_results.csv").exists()
        assert (tmp_path / "sim1_summary.csv").exists()
        header = (tmp_path / "sim1_results.csv").read_text().splitlines()[0]
        assert header == "rho,structure,test_missingness,replicate,mse"

    def test_complete_structure_error_level(self):
        cfg = ExperimentConfig(
            "sim1", n_replicates=6, seed=6, structures=("complete",),
            rho_list=(0.0,),
        )
        out = run_sim1(cfg)
        med = np.median([r["mse"] for r in out.results])
        assert 3.0 < med < 7.0

    def test_unit_block_complete_test_matches_subsampled_ols(self):
        cfg = ExperimentConfig(
            "sim1", n_replicates=4, seed=8, structures=("unit_block",),
            rho_list=(0.0,),
        )
        out = run_sim1(cfg)
        for r in out.results:
            assert r["mse"] < 12.0  # deletion, no imputation noise

    def test_fit_on_fewer_rows_than_coefficients_names_the_cell(self):
        # unit_block leaves one training row here, too few for p + 1 = 4
        # coefficients.
        cfg = ExperimentConfig(
            "sim1", n_replicates=1, seed=0, n_train=4, n_test=4, p=3,
            structures=("unit_block",), rho_list=(0.0,), missing_rate=0.6,
        )
        with pytest.raises(ValueError, match=re.escape(
                "study 1 at n_train=4, rho=0.0, structure unit_block, test rows "
                "complete, replicate 0: fewer rows (1) than coefficients (4) to fit; "
                "the sample is too small for this model")):
            run_sim1(cfg)

    def test_imputation_error_names_the_missing_setting(self):
        # X1 is missing in all three training rows. The one imputation of the
        # cell runs on the "missing" setting's mask, so it is named.
        cfg = ExperimentConfig(
            "sim1", n_replicates=1, seed=3, n_train=3, n_test=4, p=2, m=1, maxit=1,
            structures=("mcar_ws_seq",), rho_list=(0.0,), missing_rate=0.6,
        )
        with pytest.raises(ValueError, match=re.escape(
                "study 1 at n_train=3, rho=0.0, structure mcar_ws_seq, test rows "
                "missing, replicate 0: column 'X1' (index 0) has no observed values "
                "among fitting rows; the sample is too small for this model")):
            run_sim1(cfg)

    def test_one_imputation_per_rho_and_structure(self, monkeypatch):
        calls = []

        def counting(dm, impcfg):
            calls.append(dm)
            return fcs_impute(dm, impcfg)

        monkeypatch.setattr(experiments, "fcs_impute", counting)
        cfg = ExperimentConfig("sim1", n_replicates=1, seed=4, n_test=100, m=2, maxit=1)
        out = run_sim1(cfg)
        assert len(out.results) == 2 * 10 * 2
        assert len(calls) == 2 * 8  # rho x imputing structures
        assert all(dm.missing.bits[cfg.n_train:].any() for dm in calls)

    def test_both_settings_score_the_same_completions(self, monkeypatch):
        results = []

        def recording(dm, impcfg):
            results.append(fcs_impute(dm, impcfg))
            return results[-1]

        monkeypatch.setattr(experiments, "fcs_impute", recording)
        cfg = ExperimentConfig("sim1", n_replicates=1, seed=2, n_test=50, m=3, maxit=2,
                               structures=("mcar_ws_block",), rho_list=(0.0, 0.4))
        out = run_sim1(cfg)
        assert len(results) == 2
        n_train = cfg.n_train
        for rho_idx, result in enumerate(results):
            x, y = _sim1_data(cfg, rho_idx, 0)
            fits = [ols_fit(y[:n_train], _with_intercept(c[:n_train]))
                    for c in result.completed]
            want = {
                "complete": [f.predict(_with_intercept(x[n_train:])) for f in fits],
                "missing": [f.predict(_with_intercept(c[n_train:]))
                            for f, c in zip(fits, result.completed)],
            }
            for r in out.results:
                if r["rho"] == cfg.rho_list[rho_idx]:
                    setting = r["test_missingness"]
                    assert r["mse"] == predict_mse(np.array(want[setting]), y[n_train:])


class TestSim3Harness:
    def test_truth_note_recorded_in_manifest(self):
        out = run_sim3(ExperimentConfig(
            "sim3", n_replicates=2, seed=4, n=300, m=3, q_grid=(0.25,),
            sim3_maxit=3,
        ))
        assert "E[X2] = 1 + E[Z] + 2*E[X1] = 1" in out.manifest
        assert "inconsistent" in out.manifest

    def test_sign_column_tracks_q(self):
        out = run_sim3(ExperimentConfig(
            "sim3", n_replicates=3, seed=12, n=4000, m=2,
            q_grid=(0.1, 0.5, 0.9), sim3_maxit=2,
        ))
        by_q = {s["q"]: s for s in out.summary if s["approach"] == "fcs_on_values"}
        assert by_q[0.1]["modal_sign"] == "positive"
        assert by_q[0.5]["modal_sign"] == "none"
        assert by_q[0.9]["modal_sign"] == "negative"

    def test_indicator_route_has_two_approaches(self):
        out = run_sim3(ExperimentConfig(
            "sim3", n_replicates=2, seed=3, n=200, m=2, q_grid=(0.25,),
            sim3_maxit=2,
        ))
        approaches = {r["approach"] for r in out.results}
        assert approaches == {"fcs_on_values", "regress_on_indicator"}


class TestManifest:
    def test_config_echoed(self):
        out = run_sim2(tiny_sim2(seed=77))
        assert "seed: 77" in out.manifest
        assert "experiment: sim2" in out.manifest
        assert "q_grid: 0.0, 0.5" in out.manifest

    def test_output_files_byte_identical_across_runs(self, tmp_path):
        cfg_a = tiny_sim2(out_dir=tmp_path / "a")
        cfg_b = tiny_sim2(out_dir=tmp_path / "b")
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("sim2_results.csv", "sim2_summary.csv", "manifest.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


# Tiny runs of each study whose output files are pinned by sha256: reordered
# rho_list and structures, an unsorted q_grid and an unsorted maxit_list.
_GOLDEN = {
    "sim1": (
        dict(n_train=30, n_test=20, p=3, m=2, maxit=1, donors=3, rho_list=(0.4, 0.0),
             structures=("unit_block", "mcar_ws_seq", "complete", "mcar_u_2")),
        ("30c35113b16fd65fd9de19c8ed210979dd917c424c07cfc020d2f448374610bb",
         "2cccda9bd79f13e13e6e23498a9936c65feda5124b42d93c9517b050418b492b",
         "a5e0acb25609e3180c4576f666a8b0f5cf25ebe3192432eab2f1038c12a9f57c"),
    ),
    "sim2": (
        dict(n=60, m=2, q_grid=(0.9, 0.2, 0.5), maxit_list=(4, 1)),
        ("045216e8364e8b3c8312902803552a8140cbcdee2f0cda30e0071a982f4f4774",
         "307fcdc67def0aa5f6402dfbf8f686833a178dc48e5d0a47decf15152501e455",
         "566fc2a3367cfd9a9988fec16714098d7bf61ff6c82fe99fde4107be87ed27ef"),
    ),
    "sim3": (
        dict(n=60, m=2, q_grid=(0.5, 0.0), sim3_maxit=2),
        ("640f68be573ca585fda3705822558452bada00d909853aeecdb853141cbb8521",
         "7a60633b412af71b3f68003f8ebf9f4e641ed544fabaf22e29f677d5b8ff74e7",
         "5d6de784497c90c117408e4c4bdf7dadadf10063299111eb01bb7ad6269e6d96"),
    ),
}


# The golden sim1 rows that do not depend on the "complete" setting sharing
# its cell's imputation: every "missing" row and every row of the deletion
# structures, from the results and then the summary file.
_SIM1_PINNED_ROWS = (
    "59b70634e8d6101fe2ddd9c653a76991c677d0965b63e393625ed45a15900838")


def test_sim1_rows_outside_the_shared_imputation_are_pinned(tmp_path):
    sizes, _ = _GOLDEN["sim1"]
    run_experiment(ExperimentConfig("sim1", n_replicates=3, seed=3,
                                    out_dir=tmp_path, **sizes))
    pinned = []
    for name in ("sim1_results.csv", "sim1_summary.csv"):
        for line in (tmp_path / name).read_text().splitlines()[1:]:
            _, structure, setting = line.split(",")[:3]
            if setting == "missing" or structure in ("complete", "unit_block"):
                pinned.append(line)
    assert len(pinned) == 36 + 12
    digest = hashlib.sha256("\n".join(pinned).encode()).hexdigest()
    assert digest == _SIM1_PINNED_ROWS, kernel_note()


@pytest.mark.parametrize("experiment", sorted(_GOLDEN))
def test_study_outputs_match_golden_digests(tmp_path, experiment):
    sizes, digests = _GOLDEN[experiment]
    run_experiment(ExperimentConfig(experiment, n_replicates=3, seed=3,
                                    out_dir=tmp_path, **sizes))
    names = (f"{experiment}_results.csv", f"{experiment}_summary.csv", "manifest.txt")
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in names) == digests, kernel_note()


# -0.0 is mapped to 0.0: the two tie in a sort, so a middle -0.0 would rest
# on the sort's order of ties (an MSE is never -0.0). The sampled values
# make ties common.
_mse_like = (st.floats(allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0)
             | st.sampled_from([0.0, 1.5, 2.0, 1e308]))


@given(st.lists(_mse_like, min_size=1, max_size=9))
def test_median_is_numpys_bit_for_bit(values):
    with np.errstate(over="ignore"):  # two middle values near the float max
        want = np.median(values)
    assert np.float64(_median(values)).tobytes() == want.tobytes()
