"""dxtraj benchmark entry point.

    python3 perfbench/run.py --workload train_long --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seeds

Run from the root of a checkout. Each workload runs in child processes of
its own (perfbench/workload.py): one writes the inputs, a fresh one measures,
both with the library imported from src/ and the BLAS thread count pinned.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1. For --workload all the metric names are
prefixed with the workload name. The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1  # at most nproc; 1 and 2 threads train equally fast here
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_workload(name, seed, seconds, trace):
    """Generate the inputs in one child process, then measure in a fresh
    one; returns (exit code, stdout of the measuring child)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({var: threads for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    for extra in (["--generate"], []):
        try:
            proc = subprocess.run(cmd + extra, env=env, cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired as exc:
            out = exc.stdout or ""
            if isinstance(out, bytes):
                out = out.decode(errors="replace")
            print(f"error: workload {name} exceeded {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 124, out
        if proc.returncode != 0:
            break
    return proc.returncode, proc.stdout


def main(argv=None):
    record = json.loads((HERE / "workloads.json").read_text())["workloads"]
    names = sorted(record)
    parser = argparse.ArgumentParser(description="dxtraj benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the recorded one)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dxtraj" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'dxtraj'} not found; run from a dxtraj "
              "checkout", file=sys.stderr)
        return 2

    selected = names if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in selected:
        seed = (args.seed if args.seed is not None
                else record[name]["default_seed"])
        code, out = run_workload(name, seed, args.seconds, args.trace)
        if len(selected) == 1 or code != 0:
            sys.stdout.write(out)
            if code != 0:
                print(f"error: workload {name} (seed {seed}) exited with "
                      f"code {code}", file=sys.stderr)
            return code
        lines = out.rstrip("\n").splitlines()
        print(f"== {name} (seed {seed})")
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
