"""Run one misslab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim1_prediction --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Each workload runs in a fresh single process (BLAS pinned to one
thread, studies with ``threads=1``); ``cli_pipeline`` starts one more
process per verb. Set-up (interpreter start, ``import misslab``, input
generation) is timed ``SETUPS`` times and reported as a median; the
timed part then repeats identical rounds for ``--seconds`` of round time.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``wall_s`` (median
round) and ``peak_rss_mb``. ``--trace 1`` runs untraced and traced rounds
in turn and prints the per-layer metrics instead, also written to
``trace.json`` in the run's output directory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when that line was printed, whatever ``correct`` says.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

WORKLOADS = ("sim1_prediction", "sim23_inference", "cli_pipeline")
SETUPS = {"full": 5, "tiny": 1}
IMPORTS = 3  # fresh interpreters timed for cli.import_s
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".pairs", "count"), (".ns_per_pair", "ns"),
                         (".ns_per_cell", "ns"), (".us_per_call", "us"),
                         (".mb_per_s", "MB/s")):
        if name.endswith(suffix):
            return unit
    return "s"


def time_cli_import(env, deadline: float) -> float:
    code = ("import time; t = time.perf_counter(); import misslab.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORTS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - perf_counter()))
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def start_worker(args, out: Path, env, log) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--scale", args.scale, "--trace", str(args.trace),
           "--out", str(out), "--result", str(out / "worker.json")]
    # A process group of its own, so that a worker past the deadline is killed
    # together with the verb process it may have started.
    return subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=log, text=True,
                            start_new_session=True)


def wait_ready(proc: subprocess.Popen, deadline: float) -> None:
    while True:
        left = deadline - perf_counter()
        if left <= 0:
            raise BenchError("worker set-up ran past the deadline")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            line = proc.stdout.readline()
            if line == "":
                raise BenchError(f"worker exited during set-up (code {proc.wait()})")
            if line.strip() == "READY":
                return


def finish(proc: subprocess.Popen, command: str, deadline: float) -> None:
    proc.stdin.write(command + "\n")
    proc.stdin.close()
    try:
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    if code != 0:
        raise BenchError(f"worker exited with code {code}")


def run(args) -> dict:
    if not (ROOT / "src" / "misslab" / "__init__.py").is_file():
        raise BenchError(f"no misslab sources under {ROOT / 'src'}")
    deadline = perf_counter() + DEADLINE_S
    out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = program_env()
    metrics: dict[str, dict] = {}
    if args.trace:
        metrics["cli.import_s"] = {"value": time_cli_import(env, deadline), "unit": "s"}

    setups = []
    n_setups = 1 if args.trace else SETUPS[args.scale]
    with open(out / "worker.log", "w") as log:
        for k in range(n_setups):
            t0 = perf_counter()
            proc = start_worker(args, out, env, log)
            try:
                wait_ready(proc, deadline)
                setups.append(perf_counter() - t0)
                finish(proc, "go" if k == n_setups - 1 else "stop", deadline)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                proc.stdout.close()
    result = json.loads((out / "worker.json").read_text())

    if args.trace:
        for name, value in result["layers"].items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        (out / "trace.json").write_text(json.dumps(metrics, indent=1))
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(result["walls"]),
                  "peak_rss_mb": statistics.median(result["peaks_mb"])}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    if not args.keep:
        for bulky in ("inputs", "round"):
            shutil.rmtree(out / bulky, ignore_errors=True)
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    summary = {"correct": not result["problems"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    (out / "result.json").write_text(json.dumps(summary, indent=1))
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(SETUPS), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    ap.add_argument("--keep", action="store_true",
                    help="keep the inputs and the last round's outputs")
    args = ap.parse_args()
    try:
        summary = run(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc} (worker log: {OUT_ROOT}/*/worker.log)", file=sys.stderr)
        return 1
    for name, m in summary["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  operations attempted = {summary['attempted']}, "
          f"failed = {summary['failed']}, correct = {summary['correct']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
