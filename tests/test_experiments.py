import hashlib
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from misslab.experiments import (
    ExperimentConfig,
    run_experiment,
    run_sim1,
    run_sim2,
    run_sim3,
    _check_label,
)
from misslab.fixtures import sim2_spec, sim3_label
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
        _check_label(sim2_spec(0.3), sim2_spec(0.3).declared_label, "ctx")

    def test_mismatch_raises(self):
        wrong = TaxonomyLabel("MCAR", "unstructured", "none", "probabilistic")
        with pytest.raises(SpecificationError, match="classifies as"):
            _check_label(sim2_spec(0.3), wrong, "ctx")

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
        ("fcafa7086809b0ce64356be84f7eb6231a4dd95c8dd90c4763e9558842834921",
         "30c90a43104a4aea4f7d18f8f0faf37cf877bd3be4eead9d7bb72f6023937747",
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


@pytest.mark.parametrize("experiment", sorted(_GOLDEN))
def test_study_outputs_match_golden_digests(tmp_path, experiment):
    sizes, digests = _GOLDEN[experiment]
    run_experiment(ExperimentConfig(experiment, n_replicates=3, seed=3,
                                    out_dir=tmp_path, **sizes))
    names = (f"{experiment}_results.csv", f"{experiment}_summary.csv", "manifest.txt")
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in names) == digests
