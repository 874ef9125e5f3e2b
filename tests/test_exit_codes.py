"""Exit codes of every verb on random and mutated input files.

Every failure that the inputs determine is a ``ValueError`` and exits 1
with one line, ``misslab: <message>``; exit 2 is left to failures of the
run itself. Each fuzz case drives one input file of one verb through
``dispatch`` with every other input valid, and holds the sizes a run can
reach small: the files are a few hundred bytes, the sample sizes and
counts in a study config stay below ten, and ``--threads`` is always 1.
"""

import contextlib
import importlib
import io
import inspect
import json
import pickle
import pkgutil
import re
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import misslab
from misslab.cli import dispatch
from misslab.fixtures import sim3_spec
from misslab.impute import CollinearityError, NonFiniteDrawError, UnimputableColumnError
from misslab.mechanisms import EvaluationError, SpecificationError, save_spec
from test_mechanisms import _json_paths, _json_values


def _exits_zero_or_one(argv) -> None:
    """Run one command line; assert that it exits 0 with nothing on stderr,
    or 1 with one ``misslab: `` line and nothing else, and that it raised
    no warning, NumPy's included."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = dispatch([str(a) for a in argv])
    assert [str(w.message) for w in caught] == []
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 1, err
        assert err.startswith("misslab: ") and err.count("\n") == 1, err


# Spans of a valid file are replaced by these: numbers at and past the
# float range, the CSV separators and line ends, and bytes outside ASCII.
_TOKENS = [b"", b"0", b"1", b"2", b"-", b"+", b".", b"e", b"inf", b"-inf", b"nan",
           b"1e308", b"-1e308", b"5e-324", b",", b"\n", b"\r\n", b"\r", b'"', b" ",
           b"\x00", b"\xff", b"\xef\xbb\xbf", b"a", "١".encode()]


@st.composite
def _mutated(draw, text: bytes) -> bytes:
    """``text`` with one to four edits, each replacing either a whole field
    or separator or a span of up to three bytes by a token (an empty span
    inserts it, an empty token deletes what it replaces)."""
    for _ in range(draw(st.integers(1, 4))):
        token = draw(st.sampled_from(_TOKENS))
        if draw(st.booleans()):
            pieces = re.split(rb"([,\n])", text)
            at = draw(st.integers(0, len(pieces) - 1))
            pieces[at] = token
            text = b"".join(pieces)
        else:
            at = draw(st.integers(0, len(text)))
            text = text[:at] + token + text[at + draw(st.integers(0, 3)):]
    return text


def _file_bytes(valid: bytes):
    return st.binary(max_size=200) | _mutated(valid)


def _csv(rows) -> bytes:
    return "".join(",".join(map(str, row)) + "\n" for row in rows).encode()


_DATA = _csv([("Z", "X1", "X2")] + [(round(0.37 * i - 2, 2), 0.5 * i, 1 - i)
                                     for i in range(9)])
_INCOMPLETE = _csv([("a", "b", "c")] + [(i, "" if i % 3 == 0 else 2.5 - i,
                                         "" if i % 4 == 1 else 0.25 * i * i)
                                        for i in range(12)])
_MASK = _csv([("a", "b", "c")] + [(i % 2, i // 2 % 2, int(i % 3 == 0))
                                   for i in range(12)])
_ORDERING = b"b\nc\na\n"
_IGNORE = b"0\n1\n" * 6


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "sim3.json"
    save_spec(sim3_spec(0.4), path)
    return path


def _write(tmp_path_factory, name: str, content: bytes):
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(content)
    return path


@given(_file_bytes(_DATA))
@settings(max_examples=150, deadline=None)
def test_simulate_data_exits_zero_or_one(tmp_path_factory, spec_file, content):
    data = _write(tmp_path_factory, "data.csv", content)
    _exits_zero_or_one(["simulate", "--spec", spec_file, "--data", data, "--seed", 1,
                "--out", data.with_name("mask.csv")])


@given(_file_bytes(_INCOMPLETE), st.sampled_from(["norm", "pmm"]))
@settings(max_examples=150, deadline=None)
def test_impute_data_exits_zero_or_one(tmp_path_factory, content, method):
    data = _write(tmp_path_factory, "data.csv", content)
    _exits_zero_or_one(["impute", "--data", data, "--method", method, "--m", 2, "--maxit", 2,
                "--donors", 3, "--seed", 1, "--out", data.with_name("imp")])


@given(_file_bytes(_MASK))
@settings(max_examples=150, deadline=None)
def test_analyze_mask_exits_zero_or_one(tmp_path_factory, content):
    mask = _write(tmp_path_factory, "mask.csv", content)
    _exits_zero_or_one(["analyze", "--mask", mask, "--out", mask.with_name("report")])


@given(_file_bytes(_ORDERING))
@settings(max_examples=150, deadline=None)
def test_analyze_ordering_exits_zero_or_one(tmp_path_factory, content):
    ordering = _write(tmp_path_factory, "order.txt", content)
    mask = ordering.with_name("mask.csv")
    mask.write_bytes(_MASK)
    _exits_zero_or_one(["analyze", "--mask", mask, "--ordering", ordering,
                "--out", ordering.with_name("report")])


@given(_file_bytes(_IGNORE))
@settings(max_examples=150, deadline=None)
def test_impute_ignore_exits_zero_or_one(tmp_path_factory, content):
    ignore = _write(tmp_path_factory, "ignore.txt", content)
    data = ignore.with_name("data.csv")
    data.write_bytes(_INCOMPLETE)
    _exits_zero_or_one(["impute", "--data", data, "--ignore", ignore, "--m", 2, "--maxit", 1,
                "--donors", 3, "--seed", 1, "--out", ignore.with_name("imp")])


# Every field that sets a size, at a small value: a mutation may change or
# break one but never drop it, which would restore a full-scale default.
_SIZES = {"n": 9, "n_train": 6, "n_test": 3, "p": 2, "m": 2, "maxit": 1, "donors": 2,
          "maxit_list": [1], "sim3_maxit": 1}
_CONFIG = {**_SIZES, "q_grid": [0.0, 1.0], "rho_list": [0.0],
           "structures": ["mcar_u_1", "unit_block"], "missing_rate": 0.3}

def _run_studies(tmp_path_factory, content: bytes) -> None:
    config = _write(tmp_path_factory, "cfg.json", content)
    for study in ("sim1", "sim2", "sim3"):
        _exits_zero_or_one(["experiment", "--id", study, "--reps", 1, "--seed", 1,
                    "--threads", 1, "--config", config, "--out", config.with_name(study)])


@given(st.binary(max_size=200))
@settings(max_examples=150, deadline=None)
def test_random_config_bytes_exit_zero_or_one(tmp_path_factory, content):
    # An object would run at the default sizes; objects are the mutated
    # case's.
    try:
        assume(not isinstance(json.loads(content), dict))
    except (ValueError, RecursionError):
        pass
    _run_studies(tmp_path_factory, content)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_config_exits_zero_or_one(tmp_path_factory, data):
    # Replace one value of a small valid config by random JSON (its numbers
    # at most 3 in size), delete a key that sets no size, or add a key: each
    # study runs or exits 1.
    obj = json.loads(json.dumps(_CONFIG))
    path = data.draw(st.sampled_from([p for p in _json_paths(obj) if p]))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add":
        key = data.draw(st.sampled_from(["seed", "threads", "reps", "n_replicates",
                                         "experiment", "out_dir"]) | st.text(max_size=3))
        obj[key] = data.draw(_json_values)
    elif action == "delete" and (isinstance(parent, list) or path[-1] not in _SIZES):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_json_values)
    _run_studies(tmp_path_factory, json.dumps(obj).encode())


def _error_classes():
    """Every exception class defined in a misslab module, with its module."""
    for info in pkgutil.iter_modules(misslab.__path__):
        module = importlib.import_module(f"misslab.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__):
                yield module, cls


def test_every_error_class_is_a_value_error_or_caught_at_home():
    # The command line exits 1 on a ValueError and 2 on anything else, so an
    # error class that the inputs can raise must be a ValueError. The only
    # others are private and caught in the module that raises them.
    found = list(_error_classes())
    assert found
    for module, cls in found:
        if not issubclass(cls, ValueError):
            assert cls.__name__.startswith("_"), cls
            assert f"except {cls.__name__}" in inspect.getsource(module), cls


_ERRORS = [
    CollinearityError([1, 2]),
    CollinearityError([3], " for column 'x' at sweep 2"),
    NonFiniteDrawError(1),
    NonFiniteDrawError(0, " for column 'x' at sweep 1"),
    UnimputableColumnError(1, "x"),
    UnimputableColumnError(2),
    SpecificationError("rules[0]: missing field 'clauses'"),
    EvaluationError("non-finite linear predictor in rule for column 1"),
]


@pytest.mark.parametrize("error", _ERRORS, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(error):
    # Study workers on other processes return their errors by pickle.
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert vars(back) == vars(error)


def test_every_public_error_class_is_pickled_above():
    public = {cls for _, cls in _error_classes() if not cls.__name__.startswith("_")}
    assert public <= {type(e) for e in _ERRORS}
