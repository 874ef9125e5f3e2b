"""Spans around calls into misslab's layers, recorded from outside the package.

A :class:`Tracer` replaces each public layer function listed in ``LAYERS``
by a wrapper in every ``misslab`` module that binds it, so calls made
between modules (``experiments`` -> ``impute``) are caught as well as calls
made by the benchmark. A wrapper reads the clock and the shapes of its
arguments only; it never touches a random generator, so a traced round
produces the same bytes as an untraced one.

Spans are kept in memory as ``[name, start, end, parent]`` lists plus one
work quantity (pairs, cells or bytes) and summarised per round by
:func:`layer_metrics`.
"""

from __future__ import annotations

import os
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MB = float(1 << 20)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _pmm_pairs(args, kwargs):
    # recipients x candidate donors: every missing row is ranked against
    # every observed row.
    y_obs = _arg(args, kwargs, 0, "y_obs")
    x_mis = _arg(args, kwargs, 2, "x_mis")
    return len(y_obs) * len(x_mis)


def _mask_cells(args, kwargs):
    x = _arg(args, kwargs, 1, "x")
    return int(np.prod(np.shape(getattr(x, "values", x))))


def _bytes_read(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _bytes_written(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


# (module, function, work quantity, measured before or after the call)
LAYERS = (
    ("impute", "fit_pmm_draw", _pmm_pairs, "before"),
    ("impute", "fit_norm_draw", None, None),
    ("impute", "fcs_impute", None, None),
    ("mechanisms", "simulate_mask", _mask_cells, "before"),
    ("analyzer", "pairwise_dependence", None, None),
    ("analyzer", "_single_column_conditioning", None, None),
    ("inference", "pool", None, None),
    ("inference", "ols_fit", None, None),
    ("tabular", "read_csv", _bytes_read, "before"),
    ("tabular", "write_csv", _bytes_written, "after"),
    ("tabular", "read_mask_csv", _bytes_read, "before"),
    ("tabular", "write_mask_csv", _bytes_written, "after"),
    ("experiments", "run_sim1", None, None),
    ("experiments", "run_sim2", None, None),
    ("experiments", "run_sim3", None, None),
)

CLI_VERBS = ("simulate", "analyze", "impute")


class Tracer:
    """Records nested spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name):
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name, fn, quantity, when):
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                if when == "before":
                    s[4] = quantity(args, kwargs)
                out = fn(*args, **kwargs)
                if when == "after":
                    s[4] = quantity(args, kwargs)
                return out
            finally:
                self._close(s)

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "misslab" or k.startswith("misslab."))]
        for mod, fname, quantity, when in LAYERS:
            original = getattr(sys.modules[f"misslab.{mod}"], fname)
            wrapper = self._wrap(f"{mod}.{fname}", original, quantity, when)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def summarise(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and summed work."""
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    out: dict[str, dict] = {}
    for i, (name, t0, t1, _, work) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        agg["calls"] += 1
        agg["s"] += t1 - t0
        agg["self_s"] += t1 - t0 - child_s[i]
        agg["work"] += work
    return out


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of one traced round, by metric name."""
    agg = summarise(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}

    def get(name):
        return agg.get(name, empty)

    out: dict[str, float] = {}
    pmm = get("impute.fit_pmm_draw")
    out["impute.fit_pmm_draw.calls"] = pmm["calls"]
    out["impute.fit_pmm_draw.s"] = pmm["s"]
    out["impute.fit_pmm_draw.pairs"] = pmm["work"]
    out["impute.fit_pmm_draw.ns_per_pair"] = _ratio(pmm["s"], pmm["work"], 1e9)
    norm = get("impute.fit_norm_draw")
    out["impute.fit_norm_draw.calls"] = norm["calls"]
    out["impute.fit_norm_draw.s"] = norm["s"]
    out["impute.fit_norm_draw.us_per_call"] = _ratio(norm["s"], norm["calls"], 1e6)
    fcs = get("impute.fcs_impute")
    out["impute.fcs_impute.calls"] = fcs["calls"]
    out["impute.fcs_impute.s"] = fcs["s"]
    out["impute.fcs_impute.self_s"] = fcs["self_s"]
    sim = get("mechanisms.simulate_mask")
    out["mechanisms.simulate_mask.calls"] = sim["calls"]
    out["mechanisms.simulate_mask.s"] = sim["s"]
    out["mechanisms.simulate_mask.ns_per_cell"] = _ratio(sim["s"], sim["work"], 1e9)
    pair = get("analyzer.pairwise_dependence")
    out["analyzer.pairwise_dependence.calls"] = pair["calls"]
    out["analyzer.pairwise_dependence.s"] = pair["s"]
    out["analyzer._single_column_conditioning.s"] = get("analyzer._single_column_conditioning")["s"]
    for fname in ("pool", "ols_fit"):
        agg_f = get(f"inference.{fname}")
        out[f"inference.{fname}.calls"] = agg_f["calls"]
        out[f"inference.{fname}.s"] = agg_f["s"]
    for fname in ("read_csv", "write_csv", "read_mask_csv", "write_mask_csv"):
        agg_f = get(f"tabular.{fname}")
        out[f"tabular.{fname}.s"] = agg_f["s"]
        out[f"tabular.{fname}.mb_per_s"] = _ratio(agg_f["work"] / MB, agg_f["s"])
    for verb in CLI_VERBS:
        out[f"cli.{verb}.s"] = get(f"cli.{verb}")["s"]
    for study in ("run_sim1", "run_sim2", "run_sim3"):
        out[f"experiments.{study}.self_s"] = get(f"experiments.{study}")["self_s"]
    return out


COUNT_SUFFIXES = (".calls", ".pairs")


def combine_rounds(per_round: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timing over traced rounds; counts must repeat exactly."""
    problems = []
    out = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if name.endswith(COUNT_SUFFIXES):
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, problems
