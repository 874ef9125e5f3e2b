import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import misslab
from misslab.cli import dispatch
from misslab.fixtures import sim3_spec
from misslab.mechanisms import save_spec
from misslab.tabular import DataMatrix, MissMask, write_csv, write_mask_csv


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "sim3.json"
    save_spec(sim3_spec(0.4), path)
    return path


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    d = DataMatrix.complete(rng.normal(size=(80, 3)), ("Z", "X1", "X2"))
    path = tmp_path / "data.csv"
    write_csv(d, path)
    return path


def run(argv):
    return dispatch([str(a) for a in argv])


class TestSimulate:
    def test_writes_mask(self, tmp_path, spec_file, data_file):
        out = tmp_path / "mask.csv"
        assert run(["simulate", "--spec", spec_file, "--data", data_file,
                    "--seed", 3, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "Z,X1,X2"
        assert len(lines) == 81

    def test_byte_identical_reruns(self, tmp_path, spec_file, data_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--spec", spec_file, "--data", data_file,
             "--seed", 3, "--out", a])
        run(["simulate", "--spec", spec_file, "--data", data_file,
             "--seed", 3, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_required(self, tmp_path, spec_file, data_file, capsys):
        code = run(["simulate", "--spec", spec_file, "--data", data_file,
                    "--out", tmp_path / "m.csv"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_missing_file_names_flag(self, tmp_path, data_file, capsys):
        code = run(["simulate", "--spec", tmp_path / "nope.json",
                    "--data", data_file, "--seed", 1,
                    "--out", tmp_path / "m.csv"])
        assert code == 1
        assert "--spec" in capsys.readouterr().err


def _drop(*path):
    def edit(spec):
        node = spec
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return spec

    return edit


def _put(value, *path):
    def edit(spec):
        node = spec
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return spec

    return edit


class TestClassify:
    def test_prints_label(self, spec_file, capsys):
        assert run(["classify", "--spec", spec_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "MNAR-WS"
        assert payload["matches_declared"] is True

    @pytest.mark.parametrize("edit, message", [
        (_drop("rules"), "spec: missing field 'rules'"),
        (_drop("rules", 0, "clauses"), "rules[0]: missing field 'clauses'"),
        (lambda spec: [spec], "spec: expected an object, got list"),
        (_put("zzz", "rules", 2, "clauses", 0, "type"),
         "rules[2].clauses[0]: unknown clause type 'zzz'"),
        (_put(None, "rules", 0, "target"), "rules[0].target: expected an integer"),
        (_put("1", "rules", 2, "clauses", 0, "parents", 0, "index"),
         "rules[2].clauses[0].parents[0].index: expected an integer, got str"),
        (_put([1], "rules", 2, "clauses", 0, "probs", 0),
         "rules[2].clauses[0].probs[0]: expected a pair"),
        (_put(None, "blocks"), "blocks: expected a list"),
        (_put({}, "declared_label"), "declared_label: missing field 'data_dependence'"),
        (_put(float("nan"), "subject_effect_var"),
         "subject_effect_var must be a finite number >= 0, got nan"),
        (_put(float("inf"), "subject_effect_var"),
         "subject_effect_var must be a finite number >= 0, got inf"),
        (lambda spec: {("latent_column" if k == "latent_columns" else k): v
                       for k, v in spec.items()},
         "spec: unknown field 'latent_column'"),
        (_put(1.0, "rules", 2, "clauses", 0, "weight"),
         "rules[2].clauses[0]: unknown field 'weight'"),
        (_put(0.0, "rules", 0, "target"), "rules[0].target: expected an integer, got float"),
        (_put([99], "latent_columns"), "latent_columns: column 99 out of range"),
        (_put([-1], "latent_columns"), "latent_columns: column -1 out of range"),
        (_put(float("nan"), "rules", 1, "clauses", 0, "intercept"),
         "rules[1].clauses[0]: logistic intercept must be finite"),
        (_put(2.0, "rules", 1, "clauses", 0, "terms", 0, 0, "scale"),
         "rules[1].clauses[0].terms[0][0]: unknown field 'scale'"),
        (_put('constant', "rules", 1, "clauses", 0, "terms", 0, 0, "kind"),
         "rules[1].clauses[0].terms[0][0]: unknown predictor kind 'constant'"),
        (_put({"kind": "subject", "index": 7}, "rules", 1, "clauses", 0, "terms", 0, 0),
         "rules[1].clauses[0].terms[0][0]: subject predictor takes no index"),
        (_put("sideways", "declared_label", "sign"), "declared_label: bad sign 'sideways'"),
        (_put(["Z", "Z", "X2"], "columns"), "spec: columns: duplicate column names ['Z']"),
        (_put("", "columns", 1), "spec: columns: every column needs a name"),
        (_put({"data_dependence": "MNAR", "structure": "unstructured", "shape": "none",
               "determinism": "probabilistic", "sign": "positive"}, "declared_label"),
         "declared_label: unstructured mechanisms have no sign"),
    ])
    def test_malformed_spec_exits_one_naming_the_field(self, tmp_path, spec_file,
                                                       capsys, edit, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(json.loads(spec_file.read_text()))))
        assert run(["classify", "--spec", path]) == 1
        assert message in capsys.readouterr().err

    def test_deeply_nested_spec_exits_one(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert run(["classify", "--spec", path]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_random_spec_bytes_never_exit_two(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        path.write_bytes(content)
        assert run(["classify", "--spec", path]) in (0, 1)


class TestAnalyze:
    def _mask_file(self, tmp_path):
        rng = np.random.default_rng(1)
        m1 = (rng.random(400) < 0.5).astype(np.uint8)
        bits = np.column_stack([m1, 1 - m1, (rng.random(400) < 0.2).astype(np.uint8)])
        from misslab.tabular import write_mask_csv

        path = tmp_path / "mask.csv"
        write_mask_csv(MissMask(bits), path, ("a", "b", "c"))
        return path

    def test_stdout_summary(self, tmp_path, capsys):
        path = self._mask_file(tmp_path)
        assert run(["analyze", "--mask", path]) == 0
        out = capsys.readouterr().out
        assert "pairwise dependence" in out
        assert "sign=negative" in out

    def test_report_files(self, tmp_path):
        path = self._mask_file(tmp_path)
        prefix = tmp_path / "rep"
        assert run(["analyze", "--mask", path, "--out", prefix]) == 0
        assert (tmp_path / "rep.report.csv").exists()
        assert (tmp_path / "rep.summary.txt").exists()

    def test_negative_mask_entry_exits_one(self, tmp_path, capsys):
        path = tmp_path / "mask.csv"
        path.write_text("a,b\n0,1\n-1,0\n")
        assert run(["analyze", "--mask", path]) == 1
        assert "mask.csv:3: mask entries must be 0/1" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["7", "nan", "0", "1", "-0.5"])
    def test_alpha_outside_unit_interval_exits_one(self, tmp_path, capsys, alpha):
        path = self._mask_file(tmp_path)
        assert run(["analyze", "--mask", path, "--alpha", alpha]) == 1
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err

    def test_with_ordering(self, tmp_path, capsys):
        path = self._mask_file(tmp_path)
        ordering = tmp_path / "order.txt"
        ordering.write_text("a\nb\nc\n")
        assert run(["analyze", "--mask", path, "--ordering", ordering]) == 0
        assert "sequential signature" in capsys.readouterr().out

    def test_ordering_reuses_the_dependence_report(self, tmp_path, monkeypatch):
        # The sequential signature reads the report analyze has already
        # built: one dependence pass and one pair count per verb.
        import misslab.analyzer

        calls = {"pairwise_dependence": 0, "pair_counts": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        dependence = counted("pairwise_dependence", misslab.analyzer.pairwise_dependence)
        monkeypatch.setattr(misslab.analyzer, "pairwise_dependence", dependence)
        monkeypatch.setattr(MissMask, "pair_counts",
                            counted("pair_counts", MissMask.pair_counts))
        ordering = tmp_path / "order.txt"
        ordering.write_text("a\nb\nc\n")
        assert run(["analyze", "--mask", self._mask_file(tmp_path),
                    "--ordering", ordering, "--out", tmp_path / "rep"]) == 0
        assert calls == {"pairwise_dependence": 1, "pair_counts": 1}

    @pytest.mark.parametrize("text", ["c,0\n1\n", "b\r\na\r\n2"])
    def test_ordering_by_index_and_name(self, tmp_path, capsys, text):
        ordering = tmp_path / "order.txt"
        ordering.write_bytes(text.encode())
        assert run(["analyze", "--mask", self._mask_file(tmp_path),
                    "--ordering", ordering]) == 0
        assert "sequential signature" in capsys.readouterr().out

    @pytest.mark.parametrize("text, line, what", [
        ("a\n+1\nc\n", 2, "'+1' is not a column name or index"),
        ("\u0660\nb\nc\n", 1, "'\u0660' is not a column name or index"),
        ("a\nb\n 2\n", 3, "' 2' is not a column name or index"),
        ("a,01,c\n", 1, "'01' is not a column name or index"),
        ("a, b,c\n", 1, "' b' is not a column name or index"),
        ("a,,b,c\n", 1, "empty entry"),
        ("a,b,c,\n", 1, "empty entry"),
        ("a\n\nb\nc\n", 2, "empty entry"),
        ("a\nb\nc\n\n", 4, "empty entry"),
    ])
    def test_ordering_outside_the_grammar_exits_one(self, tmp_path, capsys, text,
                                                    line, what):
        ordering = tmp_path / "order.txt"
        ordering.write_text(text)
        assert run(["analyze", "--mask", self._mask_file(tmp_path),
                    "--ordering", ordering]) == 1
        assert f"order.txt:{line}: {what}" in capsys.readouterr().err


class TestImpute:
    def test_complete_input_round_trips(self, tmp_path, data_file):
        prefix = tmp_path / "out"
        assert run(["impute", "--data", data_file, "--method", "pmm",
                    "--m", 3, "--maxit", 2, "--seed", 5, "--out", prefix]) == 0
        original = data_file.read_bytes()
        for k in (1, 2, 3):
            assert (tmp_path / f"out.imp{k}.csv").read_bytes() == original
        manifest = (tmp_path / "out.manifest.txt").read_text()
        assert "imputed_columns: (none)" in manifest
        assert (tmp_path / "out.diagnostics.csv").exists()
        # The prefix-free outputs line still names every file impute wrote
        # besides the manifest itself.
        (line,) = [l for l in manifest.splitlines() if l.startswith("outputs: ")]
        entries = line.removeprefix("outputs: ").split(", ")
        assert all(e.startswith("<prefix>.") for e in entries)
        listed = [e.replace("<prefix>", "out", 1) for e in entries]
        written = sorted(p.name for p in tmp_path.glob("out.*"))
        assert sorted(listed + ["out.manifest.txt"]) == written

    def test_byte_identical_reruns(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(60, 3))
        bits = (rng.random((60, 3)) < 0.3).astype(np.uint8)
        d = DataMatrix(values, MissMask(bits), ("a", "b", "c"))
        src = tmp_path / "in.csv"
        write_csv(d, src)
        for name in ("x", "y"):
            assert run(["impute", "--data", src, "--method", "norm", "--m", 2,
                        "--maxit", 3, "--seed", 6,
                        "--out", tmp_path / name]) == 0
        for suffix in (".imp1.csv", ".imp2.csv", ".diagnostics.csv"):
            assert (tmp_path / f"x{suffix}").read_bytes() == (
                tmp_path / f"y{suffix}"
            ).read_bytes()

    def test_ignore_file(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(40, 2))
        bits = np.zeros((40, 2), dtype=np.uint8)
        bits[30:, 1] = 1
        src = tmp_path / "in.csv"
        write_csv(DataMatrix(values, MissMask(bits), ("a", "b")), src)
        ignore = tmp_path / "ignore.txt"
        ignore.write_text("\n".join(["0"] * 30 + ["1"] * 10) + "\n")
        assert run(["impute", "--data", src, "--ignore", ignore, "--m", 2,
                    "--maxit", 2, "--seed", 7, "--out", tmp_path / "ig"]) == 0
        manifest = (tmp_path / "ig.manifest.txt").read_text()
        assert "ignored_rows: 10" in manifest

    @pytest.mark.parametrize("entry", ["2", "-1", "x", "+1", "01", "٠", " 1", "1 "])
    def test_ignore_entry_other_than_zero_or_one_exits_one(self, tmp_path, data_file,
                                                           capsys, entry):
        ignore = tmp_path / "ignore.txt"
        ignore.write_text("\n".join(["0"] * 79 + [entry]) + "\n")
        assert run(["impute", "--data", data_file, "--ignore", ignore,
                    "--seed", 1, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert "--ignore: entries must be 0 or 1" in err
        assert "ignore.txt:80: " in err
        assert not list(tmp_path.glob("o.*"))

    # Each of these ran to exit 0 under the csv-module reader, read as
    # something else than its bytes say.
    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n1_000,2\n", "in.csv:3: data fields must be numbers or empty"),
        ("a,b\n1,2\n١٢,2\n", "in.csv:3: data fields must be numbers or empty"),
        ("a,b\n1,2\n１,2\n", "in.csv:3: data fields must be numbers or empty"),
        ('a,b\n1,2\n3,\n4,"5\n', "in.csv:4: data fields must be numbers or empty"),
        ("a,a\n1,2\n3,\n", "in.csv:1: header: duplicate column names ['a']"),
        ("a,b\n", "in.csv: no rows after the header"),
    ])
    def test_data_outside_the_grammar_exits_one_naming_the_file(self, tmp_path, capsys,
                                                               text, message):
        src = tmp_path / "in.csv"
        src.write_text(text)
        assert run(["impute", "--data", src, "--method", "norm", "--seed", 1,
                    "--out", tmp_path / "o"]) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("o.*"))

    def test_bom_and_crlf_read_as_the_plain_file(self, tmp_path):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(30, 2))
        values[rng.random((30, 2)) < 0.3] = np.nan
        values[:, 0] = np.nan_to_num(values[:, 0])
        plain = tmp_path / "plain.csv"
        write_csv(DataMatrix(values, MissMask(np.isnan(values)), ("a", "b")), plain)
        variant = tmp_path / "variant.csv"
        variant.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
        for src in (plain, variant):
            assert run(["impute", "--data", src, "--method", "norm", "--m", 2,
                        "--maxit", 2, "--seed", 4, "--out", tmp_path / src.stem]) == 0
        for suffix in (".imp1.csv", ".imp2.csv", ".diagnostics.csv"):
            assert (tmp_path / f"plain{suffix}").read_bytes() == (
                tmp_path / f"variant{suffix}").read_bytes()

    def test_quoted_empty_single_field_is_missing(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text('a\n1.5\n""\n2.5\n3.0\n')
        assert run(["impute", "--data", src, "--method", "norm", "--m", 2,
                    "--maxit", 1, "--seed", 2, "--out", tmp_path / "o"]) == 0
        assert "imputed_columns: a" in (tmp_path / "o.manifest.txt").read_text()
        assert (tmp_path / "o.imp1.csv").read_text().splitlines()[2] not in ("", '""')

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-1"])
    def test_ridge_must_be_finite_and_non_negative(self, tmp_path, data_file, capsys,
                                                   ridge):
        assert run(["impute", "--data", data_file, "--ridge", ridge,
                    "--seed", 1, "--out", tmp_path / "o"]) == 1
        assert "ridge must be a finite number >= 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("o.*"))

    def test_collinear_design_exits_one(self, tmp_path, capsys):
        # A singular design is a property of the data: exit 1, naming the
        # column whose model could not be fitted.
        base = np.random.default_rng(4).normal(size=40)
        values = np.column_stack([base, base, base])
        bits = np.zeros((40, 3), dtype=np.uint8)
        bits[20:, 2] = 1
        src = tmp_path / "in.csv"
        write_csv(DataMatrix(values, MissMask(bits), ("a", "b", "c")), src)
        code = run(["impute", "--data", src, "--method", "norm", "--ridge", 0,
                    "--m", 2, "--maxit", 1, "--seed", 8,
                    "--out", tmp_path / "bad"])
        assert code == 1
        assert capsys.readouterr().err == (
            "misslab: design is singular for column 'c' at sweep 1; "
            "collinear design columns: 2\n")
        assert not list(tmp_path.glob("bad.*"))

    @pytest.mark.parametrize("method", ["norm", "pmm"])
    def test_non_finite_draw_exits_one(self, tmp_path, capsys, method):
        src = tmp_path / "in.csv"
        src.write_text("a,b\n" + "".join(f"{i},{(-1) ** i * 1e308}\n" for i in range(8))
                       + "8,\n9,\n")
        code = run(["impute", "--data", src, "--method", method, "--m", 2,
                    "--maxit", 1, "--seed", 1, "--out", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err == (
            "misslab: non-finite imputation for column 'b' at sweep 1 in chain 0\n")


class TestExperimentVerb:
    def test_byte_identical_reruns(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"n": 200, "m": 2, "q_grid": [0.0, 1.0], "maxit_list": [2]}
        ))
        for name in ("a", "b"):
            assert run(["experiment", "--id", "sim2", "--reps", 2, "--seed", 11,
                        "--config", config, "--out", tmp_path / name]) == 0
        for f in ("sim2_results.csv", "sim2_summary.csv", "manifest.txt"):
            assert (tmp_path / "a" / f).read_bytes() == (
                tmp_path / "b" / f
            ).read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"qq_grid": [0.0]}))
        code = run(["experiment", "--id", "sim2", "--reps", 1, "--seed", 1,
                    "--config", config, "--out", tmp_path / "o"])
        assert code == 1
        assert "qq_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["sim2", "sim3"])
    def test_single_imputation_rejected_before_running(self, tmp_path, capsys,
                                                       experiment):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"m": 1}))
        code = run(["experiment", "--id", experiment, "--reps", 1, "--seed", 1,
                    "--config", config, "--out", tmp_path / "o"])
        assert code == 1
        assert "m must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override, message", [
        ({"n": "abc"}, "n: expected an integer, got str"),
        ({"q_grid": 0.5}, "q_grid: expected a list, got float"),
        ({"rho_list": [0.4, "a"]}, "rho_list[1]: expected a number, got str"),
        ({"n_replicates": 1.5}, "n_replicates: expected an integer, got float"),
        ({"structures": "mcar_u_1"}, "structures: expected a list, got str"),
    ])
    def test_ill_typed_config_field_exits_one(self, tmp_path, capsys, override,
                                              message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(override))
        code = run(["experiment", "--id", "sim2", "--seed", 1,
                    "--config", config, "--out", tmp_path / "o"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment, override, message", [
        ("sim1", {"p": 1}, "p must be >= 2"),
        ("sim1", {"n_train": 0}, "n_train must be a positive integer"),
        ("sim1", {"n_test": 0}, "n_test must be a positive integer"),
        ("sim2", {"n": 0}, ": n must be a positive integer"),
        ("sim3", {"n": -5}, ": n must be a positive integer"),
        ("sim1", {"structures": []}, "structures must list at least one value"),
        ("sim1", {"rho_list": []}, "rho_list must list at least one value"),
        ("sim2", {"q_grid": []}, "q_grid must list at least one value"),
        ("sim3", {"q_grid": []}, "q_grid must list at least one value"),
        ("sim2", {"maxit_list": []}, "maxit_list must list at least one value"),
        ("sim2", {"maxit_list": [0]}, "maxit_list entries must be positive integers"),
        ("sim3", {"sim3_maxit": 0}, "sim3_maxit must be a positive integer"),
        ("sim1", {"maxit": 0}, ": maxit must be a positive integer"),
        ("sim1", {"missing_rate": 2},
         "missing_rate=2.0 for structure complete: target rate must lie in [0, 1)"),
        ("sim1", {"missing_rate": 0.6},
         "missing_rate=0.6 for structure mcar_u_2: mcar_u_2 needs rate <= 0.5"),
        ("sim1", {"n_train": 10}, "n_train=10 is below p + 1 = 11"),
    ])
    def test_empty_study_size_exits_one(self, tmp_path, capsys, experiment, override,
                                        message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(override))
        code = run(["experiment", "--id", experiment, "--reps", 1, "--seed", 1,
                    "--config", config, "--out", tmp_path / "o"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment, override, message", [
        ("sim2", {"q_grid": [0.5, 0.5]}, "q_grid lists 0.5 more than once"),
        ("sim3", {"q_grid": [0.0, 1.0, -0.0]}, "q_grid lists -0.0 more than once"),
        ("sim2", {"maxit_list": [1, 5, 1]}, "maxit_list lists 1 more than once"),
        ("sim1", {"rho_list": [0, 0.4, 0.0]}, "rho_list lists 0.0 more than once"),
        ("sim1", {"structures": ["mcar_u_1", "complete", "mcar_u_1"]},
         "structures lists 'mcar_u_1' more than once"),
    ])
    def test_repeated_grid_entry_exits_one(self, tmp_path, capsys, experiment,
                                           override, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(override))
        code = run(["experiment", "--id", experiment, "--reps", 1, "--seed", 1,
                    "--config", config, "--out", tmp_path / "o"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sample_too_small_for_the_design_exits_one(self, tmp_path, capsys):
        # At n = 12 the indicator M1 is constant among the rows with X2
        # observed in some replicate, so regression on it is singular.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"n": 12, "m": 2, "q_grid": [0.0, 0.5, 1.0], "sim3_maxit": 1}
        ))
        code = run(["experiment", "--id", "sim3", "--reps", 3, "--seed", 1,
                    "--config", config, "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert ("study 3 at n=12, q=0.5, replicate 2, approach regress_on_indicator: "
                "design is singular") in err
        assert "too small" in err
        assert not (tmp_path / "o").exists()

    def test_sample_too_small_reads_the_same_on_two_processes(self, tmp_path, capsys):
        # Study workers send their errors back by pickle.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"n": 12, "m": 2, "q_grid": [0.0, 0.5, 1.0], "sim3_maxit": 1}
        ))
        errors = []
        for threads in (1, 2):
            code = run(["experiment", "--id", "sim3", "--reps", 3, "--seed", 1,
                        "--config", config, "--threads", threads,
                        "--out", tmp_path / "o"])
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "replicate 2, approach regress_on_indicator" in errors[0]

    @pytest.mark.parametrize("sizes, seed, rows", [
        ({"n_train": 3, "n_test": 4}, 0, "training"),
        # Enough training rows survive to fit three coefficients.
        ({"n_train": 20, "n_test": 1}, 4, "test"),
    ])
    def test_sim1_unit_block_without_rows_names_the_cell(self, tmp_path, capsys,
                                                         sizes, seed, rows):
        # unit_block drops fully missing rows; with none left, no fit or
        # score exists.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**sizes, "p": 2, "structures": ["unit_block"],
                                      "rho_list": [0.0], "missing_rate": 0.9}))
        code = run(["experiment", "--id", "sim1", "--reps", 1, "--seed", seed,
                    "--config", config, "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert (f"study 1 at n_train={sizes['n_train']}, rho=0.0, structure "
                f"unit_block, test rows ") in err
        assert f"replicate 0: every {rows} row is fully missing" in err
        assert "too small" in err
        assert not (tmp_path / "o").exists()

    def test_sim1_sample_too_small_names_the_cell(self, tmp_path, capsys):
        # Eleven training rows, as many as the analysis model's coefficients,
        # leave X10 unobserved among them under mcar_u_2 in replicate 1. The
        # cell's one imputation runs on the "missing" setting's mask.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_train": 11, "n_test": 20,
                                      "structures": ["mcar_u_2"]}))
        code = run(["experiment", "--id", "sim1", "--reps", 2, "--seed", 1,
                    "--config", config, "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert ("study 1 at n_train=11, rho=0.0, structure mcar_u_2, test rows "
                "missing, replicate 1: column 'X10' (index 9) has no observed "
                "values among fitting rows") in err
        assert "too small" in err
        assert not (tmp_path / "o").exists()

    def test_integer_spelling_writes_float_bytes(self, tmp_path):
        for name, grid in (("ints", [0, 0.5, 1]), ("floats", [0.0, 0.5, 1.0])):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(
                {"n": 100, "m": 2, "q_grid": grid, "maxit_list": [1]}
            ))
            assert run(["experiment", "--id", "sim2", "--reps", 1, "--seed", 3,
                        "--config", config, "--out", tmp_path / name]) == 0
        for f in ("sim2_results.csv", "sim2_summary.csv", "manifest.txt"):
            assert (tmp_path / "ints" / f).read_bytes() == (
                tmp_path / "floats" / f
            ).read_bytes()
        q_column = [line.split(",")[0] for line in
                    (tmp_path / "ints" / "sim2_results.csv").read_text().splitlines()]
        assert q_column[1:] == ["0.0", "0.5", "1.0"]

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"reps": 50, "n": 200, "m": 2, "q_grid": [0.0], "maxit_list": [1]}
        ))
        assert run(["experiment", "--id", "sim2", "--reps", 1, "--seed", 2,
                    "--config", config, "--out", tmp_path / "o"]) == 0
        manifest = (tmp_path / "o" / "manifest.txt").read_text()
        assert "n_replicates: 1" in manifest

    def test_reps_flag_overrides_n_replicates(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"n_replicates": 3, "n": 200, "m": 2, "q_grid": [0.0], "maxit_list": [1]}
        ))
        assert run(["experiment", "--id", "sim2", "--reps", 1, "--seed", 2,
                    "--config", config, "--out", tmp_path / "o"]) == 0
        manifest = (tmp_path / "o" / "manifest.txt").read_text()
        assert "n_replicates: 1" in manifest

    @pytest.mark.parametrize("reps_flag", [[], ["--reps", 1]])
    def test_config_setting_both_replicate_keys_exits_one(self, tmp_path, capsys,
                                                          reps_flag):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"reps": 2, "n_replicates": 3}))
        code = run(["experiment", "--id", "sim2", *reps_flag, "--seed", 1,
                    "--config", config, "--out", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err == (
            "misslab: --config: 'reps' and 'n_replicates' both set the replicate "
            "count; give one\n")
        assert not (tmp_path / "o").exists()

    def test_deeply_nested_config_exits_one(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000)
        code = run(["experiment", "--id", "sim2", "--seed", 1,
                    "--config", config, "--out", tmp_path / "o"])
        assert code == 1
        assert "--config: not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestExportGraph:
    def test_sim3_dot_edges(self, tmp_path, spec_file):
        out = tmp_path / "g.dot"
        assert run(["export-graph", "--spec", spec_file, "--out", out]) == 0
        dot = out.read_text()
        assert '"Z" -> "M_X1" [style=dashed];' in dot
        assert '"M_X1" -> "M_X2" [style=dashed];' in dot


class TestDispatchErrors:
    def test_unknown_verb(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_verb(self, capsys):
        assert run([]) == 1
        assert "verb" in capsys.readouterr().err

    def test_unknown_flag(self, capsys, spec_file):
        assert run(["classify", "--spec", spec_file, "--frob"]) == 1

    def test_inputs_never_mutated(self, tmp_path, spec_file, data_file):
        before = data_file.read_bytes(), spec_file.read_bytes()
        run(["simulate", "--spec", spec_file, "--data", data_file,
             "--seed", 3, "--out", tmp_path / "m.csv"])
        assert (data_file.read_bytes(), spec_file.read_bytes()) == before


# Every verb, in help order, and its flags, in help order. A verb's flags are
# declared only when it is the verb being run, so each --help is checked.
_VERB_FLAGS = {
    "simulate": ["-h", "--spec", "--data", "--seed", "--out"],
    "classify": ["-h", "--spec"],
    "analyze": ["-h", "--mask", "--ordering", "--out", "--alpha"],
    "impute": ["-h", "--data", "--method", "--m", "--maxit", "--donors", "--ridge",
               "--ignore", "--seed", "--out"],
    "experiment": ["-h", "--id", "--reps", "--seed", "--out", "--threads", "--config"],
    "export-graph": ["-h", "--spec", "--out"],
}


class TestHelp:
    def test_help_lists_every_verb(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"^    (\S+)", out, re.M) == list(_VERB_FLAGS)
        assert re.findall(r"^  (-\S+)", out, re.M) == ["-h,", "--version"]

    @pytest.mark.parametrize("verb", _VERB_FLAGS)
    def test_verb_help_lists_its_flags(self, capsys, verb):
        assert run([verb, "--help"]) == 0
        out = capsys.readouterr().out
        flags = [f.rstrip(",") for f in re.findall(r"^  (-\S+)", out, re.M)]
        assert flags == _VERB_FLAGS[verb]

    @pytest.mark.parametrize("argv, flag", [
        (["impute", "--method", "mice"], "--method"),
        (["impute", "--m", "two"], "--m"),
        (["impute", "--ridge", "small"], "--ridge"),
        (["analyze", "--alpha", "x"], "--alpha"),
        (["simulate", "--seed", "x"], "--seed"),
        (["experiment", "--threads", "x"], "--threads"),
        (["export-graph", "--out", "g.dot"], "--spec"),
        (["classify"], "--spec"),
    ])
    def test_flag_error_exits_one_naming_the_flag(self, capsys, argv, flag):
        assert run(argv) == 1
        assert flag in capsys.readouterr().err


def _subprocess_env() -> dict:
    """The environment with this checkout's ``src`` on PYTHONPATH."""
    src = str(Path(misslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _misslab_modules(code: str, *args) -> set[str]:
    """The ``misslab`` modules a fresh interpreter holds after ``code``."""
    code += ("; import sys; print(' '.join(k for k in sys.modules "
             "if k == 'misslab' or k.startswith('misslab.')))")
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], check=True,
                         env=_subprocess_env(), capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def test_package_import_loads_only_tabular():
    assert _misslab_modules("import misslab") == {"misslab", "misslab.tabular"}


# The misslab modules each verb runs on, besides misslab, misslab.tabular and
# misslab.cli.
_VERB_MODULES = {
    "simulate": {"mechanisms"},
    "classify": {"mechanisms"},
    "analyze": {"analyzer"},
    "impute": {"impute"},
    "experiment": {"analyzer", "builtins", "experiments", "fixtures", "impute",
                   "inference", "mechanisms"},
    "export-graph": {"graphs", "mechanisms"},
}


@pytest.mark.parametrize("verb", _VERB_MODULES)
def test_each_verb_loads_only_its_modules(tmp_path, spec_file, data_file, verb):
    mask = tmp_path / "mask.csv"
    write_mask_csv(MissMask(np.eye(4, dtype=np.uint8)), mask)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_train": 60, "n_test": 50, "m": 2, "maxit": 2,
                                  "structures": ["mcar_u_1"], "rho_list": [0.0]}))
    argv = {
        "simulate": ["--spec", spec_file, "--data", data_file, "--seed", 3,
                     "--out", tmp_path / "m.csv"],
        "classify": ["--spec", spec_file],
        "analyze": ["--mask", mask],
        "impute": ["--data", data_file, "--m", 2, "--maxit", 1, "--seed", 3,
                   "--out", tmp_path / "imp"],
        "experiment": ["--id", "sim1", "--reps", 1, "--seed", 5, "--threads", 1,
                       "--config", config, "--out", tmp_path / "sim1"],
        "export-graph": ["--spec", spec_file, "--out", tmp_path / "g.dot"],
    }[verb]
    # The experiment verb runs a small sim1 study, whose summary takes a
    # median without numpy.ma.
    code = ("import sys; from misslab.cli import dispatch; "
            "assert dispatch(sys.argv[1:]) == 0; assert 'numpy.ma' not in sys.modules")
    want = {"misslab", "misslab.tabular", "misslab.cli"}
    assert _misslab_modules(code, verb, *argv) == want | {
        f"misslab.{m}" for m in _VERB_MODULES[verb]}


def test_cli_import_skips_scipy_stats(tmp_path, spec_file, data_file):
    # misslab runs on numpy alone: neither importing the CLI nor the verbs
    # that test_statistics_skip_scipy does not run load any scipy module.
    verbs = [
        ["simulate", "--spec", spec_file, "--data", data_file, "--seed", 3,
         "--out", tmp_path / "mask.csv"],
        ["classify", "--spec", spec_file],
        ["export-graph", "--spec", spec_file, "--out", tmp_path / "g.dot"],
    ]
    code = ("import json, sys; import misslab.cli; "
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules); "
            "assert [misslab.cli.dispatch(v) for v in json.loads(sys.argv[1])] == [0, 0, 0]; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded[:3]")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([[str(a) for a in v] for v in verbs])],
        env=_subprocess_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr


def test_statistics_skip_scipy(tmp_path, data_file):
    # misslab runs on numpy alone: no analyze or impute verb, pooling, study
    # or collinear error path, run in a fresh interpreter, loads any scipy
    # module.
    rng = np.random.default_rng(2)
    bits = (rng.random((300, 4)) < 0.3).astype(np.uint8)
    bits[:, 1] = bits[:, 0] ^ (rng.random(300) < 0.1)  # a significant pair
    write_mask_csv(MissMask(bits), tmp_path / "mask.csv")
    (tmp_path / "order.txt").write_text("X2,X1,X4,X3\n")
    data = np.loadtxt(data_file, delimiter=",", skiprows=1)
    data[rng.random(data.shape) < 0.2] = np.nan
    write_csv(DataMatrix(data, MissMask(np.isnan(data)), ("Z", "X1", "X2")),
              tmp_path / "incomplete.csv")
    base = np.random.default_rng(4).normal(size=40)
    bits = np.zeros((40, 3), dtype=np.uint8)
    bits[20:, 2] = 1
    write_csv(DataMatrix(np.column_stack([base, base, base]), MissMask(bits), ("a", "b", "c")),
              tmp_path / "collinear.csv")
    verbs = [
        ["analyze", "--mask", tmp_path / "mask.csv", "--out", tmp_path / "plain"],
        ["analyze", "--mask", tmp_path / "mask.csv", "--ordering", tmp_path / "order.txt",
         "--out", tmp_path / "report"],
        ["impute", "--data", tmp_path / "incomplete.csv", "--m", "2", "--maxit", "2",
         "--seed", "3", "--out", tmp_path / "imp"],
        ["impute", "--data", tmp_path / "incomplete.csv", "--method", "norm", "--m", "2",
         "--maxit", "2", "--seed", "3", "--out", tmp_path / "norm"],
        ["impute", "--data", tmp_path / "collinear.csv", "--method", "norm", "--ridge", "0",
         "--m", "2", "--maxit", "1", "--seed", "8", "--out", tmp_path / "bad"],
    ]
    code = ("import json, sys; from misslab.cli import dispatch; "
            "from misslab.inference import pool; "
            "from misslab.experiments import ExperimentConfig, run_experiment; "
            "assert [dispatch(v) for v in json.loads(sys.argv[1])] == [0, 0, 0, 0, 1]; "
            "assert pool([1.0, 2.0], [1.0, 1.0]).ci_low < 1.5; "
            "run_experiment(ExperimentConfig('sim1', n_replicates=1, seed=5, n_test=50, "
            "structures=('mcar_u_1',), rho_list=(0.0,), threads=1)); "
            "run_experiment(ExperimentConfig('sim2', n_replicates=1, seed=5, n=100, m=2, "
            "q_grid=(0.5,), maxit_list=(2,), threads=1)); "
            "run_experiment(ExperimentConfig('sim3', n_replicates=1, seed=5, n=200, m=2, "
            "q_grid=(0.5,), sim3_maxit=2, threads=1)); "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded[:3]")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([[str(a) for a in v] for v in verbs])],
        env=_subprocess_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "collinear design columns: 2" in proc.stderr
    # The pair is significant, so the conditioning pass ran too.
    assert "M1 ~ M2:" in (tmp_path / "plain.summary.txt").read_text()


def test_verbs_skip_the_study_imports(tmp_path, spec_file, data_file):
    # Only the experiment verb needs misslab.experiments, and only a study
    # run on more than one process needs concurrent.futures.process.
    verbs = [
        ["simulate", "--spec", spec_file, "--data", data_file, "--seed", 3,
         "--out", tmp_path / "mask.csv"],
        ["analyze", "--mask", tmp_path / "mask.csv", "--out", tmp_path / "report"],
        ["impute", "--data", data_file, "--method", "norm", "--m", 2, "--maxit", 1,
         "--seed", 3, "--out", tmp_path / "imp"],
    ]
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"n": 100, "m": 2, "q_grid": [0.0], "maxit_list": [1]}))
    study = ["experiment", "--id", "sim2", "--reps", 2, "--seed", 5,
             "--config", tmp_path / "cfg.json"]
    code = ("import json, sys; from misslab.cli import dispatch; "
            "study = {'misslab.experiments', 'concurrent.futures.process'}; "
            "assert not study & set(sys.modules); "
            "assert [dispatch(v) for v in json.loads(sys.argv[1])] == [0, 0, 0]; "
            "assert not study & set(sys.modules); "
            "import misslab.experiments; "
            "assert 'concurrent.futures.process' not in sys.modules; "
            "assert dispatch(json.loads(sys.argv[2]) + ['--threads', '1']) == 0; "
            "assert 'concurrent.futures.process' not in sys.modules; "
            "assert dispatch(json.loads(sys.argv[3]) + ['--threads', '2']) == 0; "
            "assert 'concurrent.futures.process' in sys.modules")
    subprocess.run([sys.executable, "-c", code,
                    json.dumps([[str(a) for a in v] for v in verbs]),
                    json.dumps([str(a) for a in study + ["--out", tmp_path / "one"]]),
                    json.dumps([str(a) for a in study + ["--out", tmp_path / "two"]])],
                   check=True, env=_subprocess_env(), stdout=subprocess.DEVNULL)
    for f in ("sim2_results.csv", "sim2_summary.csv"):
        assert (tmp_path / "one" / f).read_bytes() == (tmp_path / "two" / f).read_bytes()


def test_unknown_experiment_id_names_the_flag(tmp_path, capsys):
    assert run(["experiment", "--id", "sim4", "--seed", 1, "--out", tmp_path / "o"]) == 1
    assert "--id: invalid choice 'sim4'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_module_entry_point_runs():
    out = subprocess.run([sys.executable, "-m", "misslab.cli", "--version"],
                         capture_output=True, text=True, check=True,
                         env=_subprocess_env())
    assert out.stdout == f"misslab {misslab.__version__}\n"


def test_export_list_resolves():
    # A stale or repeated name in __all__ would otherwise fail only a
    # star-import.
    assert len(set(misslab.__all__)) == len(misslab.__all__)
    for name in misslab.__all__:
        assert hasattr(misslab, name), name
    namespace = {}
    exec("from misslab import *", namespace)
    assert set(misslab.__all__) <= set(namespace)
