"""One workload in a fresh process: set up, then timed or traced rounds.

Started by ``run.py``, never by hand. After set-up it prints ``READY`` and
reads one line from stdin: ``go`` runs the rounds and writes the figures as
JSON to ``--result``; anything else exits, so ``run.py`` can time set-up
several times.

Rounds repeat until the next one would end past ``--seconds`` of round
time; at least one always runs. The first round's outputs are checked in
full; every later round, traced or not, must write the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def digest(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }


class Rounds:
    """Runs rounds of one workload and verifies their outputs."""

    def __init__(self, wl, out: Path):
        self.wl = wl
        self.dir = out / "round"
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, tracer=None) -> float:
        out = fresh_dir(self.dir)
        t0 = perf_counter()
        failed = self.wl.run_round(out, tracer)
        wall = perf_counter() - t0
        self.attempted += self.wl.ops_per_round
        self.failed += failed
        if failed == 0:
            got = digest(out)
            if self.reference is None:
                self.problems += self.wl.check(out)
                self.reference = got
            elif got != self.reference:
                changed = sorted(k for k in set(got) | set(self.reference)
                                 if got.get(k) != self.reference.get(k))
                kind = "traced" if tracer is not None else "untraced"
                self.problems.append(f"{kind} round {self.attempted // self.wl.ops_per_round} "
                                     f"wrote other bytes than the first round: {changed}")
        return wall


def timed(rounds: Rounds, seconds: float) -> dict:
    walls: list[float] = []
    peaks: list[float] = []
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        walls.append(rounds.run())
        peaks.append(rounds.wl.peak_rss_mb())
    return {"walls": walls, "peaks_mb": peaks}


def traced(rounds: Rounds, seconds: float, out: Path) -> dict:
    from tracing import Tracer, combine_rounds, layer_metrics

    tracer = Tracer()
    plain: list[float] = []
    with_trace: list[float] = []
    per_round = []
    # A first, untimed round takes the one-off costs (lazy imports, first
    # allocations) that would otherwise fall on whichever side runs first.
    elapsed = rounds.run()
    while not plain or elapsed + plain[-1] + with_trace[-1] <= seconds:
        plain.append(rounds.run())
        tracer.install()
        try:
            with_trace.append(rounds.run(tracer))
        finally:
            tracer.uninstall()
        spans = tracer.take()
        if not per_round:
            (out / "spans.json").write_text(json.dumps(
                {"fields": ["name", "start_s", "end_s", "parent", "work"], "spans": spans}))
        per_round.append(layer_metrics(spans))
        elapsed += plain[-1] + with_trace[-1]
    metrics, problems = combine_rounds(per_round)
    rounds.problems += problems
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.traced_wall_s"] = statistics.median(with_trace)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return {"walls": plain, "traced_walls": with_trace, "layers": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    import misslab
    import workloads

    src = (Path(__file__).resolve().parent.parent / "src" / "misslab").resolve()
    found = Path(misslab.__file__).resolve().parent
    if found != src:
        print(f"perfbench: imported misslab from {found}, not {src}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](
        args.seed, args.scale, args.out / "inputs", in_process=bool(args.trace))
    wl.setup()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    # The pipe to run.py is not read any more; program output goes to the log.
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

    rounds = Rounds(wl, args.out)
    if args.trace:
        result = traced(rounds, args.seconds, args.out)
    else:
        result = timed(rounds, args.seconds)
    result.update(attempted=rounds.attempted, failed=rounds.failed, problems=rounds.problems)
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
