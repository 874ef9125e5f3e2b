"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run ends in a result line that is correct, has no failed
operation and carries exactly the metrics and units ``BENCHMARK.json``
names; that
the CLI verbs write the same bytes in their own processes as through
``misslab.cli.dispatch``; and that the benchmark refuses to run, without a
result line, where the program's sources are missing. Exits 1 on the
first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import OUT_ROOT, ROOT, WORKLOADS
from worker import digest

SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace), "--scale", "tiny", "--keep")
            where = f"{workload} --trace {trace}"
            before = len(problems)
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['correct']=}, {result['failed']=}, "
                                f"{result['attempted']=}: {done.stderr[-2000:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if len(problems) == before:
                print(f"ok  {where}: {result['attempted']} operations", flush=True)

    runs = [OUT_ROOT / f"cli_pipeline-seed{SEED}-trace{t}" / "round" for t in (0, 1)]
    if digest(runs[0]) != digest(runs[1]):
        problems.append("cli_pipeline: verbs in their own processes and through dispatch "
                        "wrote different bytes")

    bare = OUT_ROOT / "smoke-without-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        problems.append("without src/ the benchmark did not refuse to run")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
