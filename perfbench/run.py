"""The repository benchmark: three pipeline workloads, end to end and per layer.

::

    python3 perfbench/run.py --workload synth_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each workload runs closed-loop with one client in fresh processes, one
process at a time (see ``workloads.py`` and ``README.md``).  With
``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it runs the workload untraced and then traced, in two processes with the
same seed and ops, and reports the per-layer metrics and the tracing
overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The op count is fixed by the workload and ``--seconds``: the loop lasts
about ``--seconds`` on the reference machine, and every run with the
same ``--seconds`` times the same work, so ``work_s`` compares across
commits.  The source tree under test is ``src/`` next to this directory;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from recorder import METRICS
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Nominal op seconds of each workload on the reference machine (2-core
#: x86-64 VM, Python 3.11, NumPy 2.4); sets the op count from --seconds.
OP_SECONDS = {"synth_sweep": 0.087, "docs_audit": 0.135, "churn_dynamics": 0.125}

#: At least 10 ops must lie above the p90: 100 ops per run.
MIN_OPS = 100

#: Set-up is measured this many times per run, each in a fresh process:
#: half of the others before the measured run, half after it, and the
#: measured run's own set-up.  The median is reported.  ``synth_sweep``'s
#: set-up is the shortest (0.3 s), so its samples spread most and cost
#: least.
SETUP_SAMPLES = {"synth_sweep": 11, "docs_audit": 7, "churn_dynamics": 7}

#: Wall-clock budget of one workload, below the 180 s a run may take.
DEADLINE_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "work_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "frac",
}


def n_ops(workload: str, seconds: int) -> int:
    return max(MIN_OPS, math.ceil(seconds / OP_SECONDS[workload]))


class Runner:
    """Starts worker processes one at a time against a shared deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(
            os.environ,
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONHASHSEED="0",
        )

    def worker(self, workload: str, seed: int, mode: str, ops: int = 0, **extra):
        command = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--ops", str(ops), "--mode", mode,
        ]
        for key, value in extra.items():
            command += [f"--{key}", str(value)]
        # run() kills the worker on timeout and waits for it to end.
        done = subprocess.run(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            timeout=max(1.0, self.deadline - time.monotonic()), check=True,
            text=True,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(runner: Runner, workload: str, seed: int, ops: int) -> dict:
    def setup() -> float:
        return runner.worker(workload, seed, "setup")["setup_s"]

    samples = SETUP_SAMPLES[workload]
    setups = [setup() for _ in range(samples // 2)]
    run = runner.worker(workload, seed, "run", ops)
    setups.append(run["setup_s"])
    setups += [setup() for _ in range(samples - len(setups))]
    print(f"{workload}: wall clock work {run['wall_work_s']:.3f} s, "
          f"set-up {run['setup_wall_s']:.3f} s (unscaled)")
    latencies_ms = [s * 1000.0 for s in run["latencies_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "work_s": run["work_s"],
        "op_ms_p50": statistics.median(latencies_ms),
        "op_ms_p90": percentile(latencies_ms, 0.9),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_ops_frac": (run["attempted"] - run["failed"]) / run["attempted"],
    }
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
    }


def per_layer(runner: Runner, workload: str, seed: int, ops: int) -> dict:
    untraced = runner.worker(workload, seed, "run", ops)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    traced = runner.worker(workload, seed, "trace", ops, spans=spans)
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = traced["work_s"] / untraced["work_s"] - 1.0
    if traced["absent"]:
        print(f"absent layers (reported as 0): {', '.join(traced['absent'])}")
    if traced["missing"]:
        print(f"missing wrapper targets: {', '.join(traced['missing'])}")
    print(f"spans: {spans}")
    units = dict(METRICS)
    return {
        "correct": untraced["correct"] and traced["correct"],
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k, _ in METRICS},
    }


def print_table(workload: str, ops: int, result: dict) -> None:
    print(f"== {workload}: {ops} ops, closed loop, 1 client; "
          f"correct={result['correct']} failed={result['failed']}"
          f"/{result['attempted']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*OP_SECONDS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no source tree at {ROOT / 'src' / 'repro'}; nothing to measure",
              file=sys.stderr)
        return 2
    # Byte-compile once up front, so no measured process pays for it.
    for tree in (ROOT / "src", HERE):
        compileall.compile_dir(tree, quiet=1)
    OUT.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    workloads = list(OP_SECONDS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        ops = n_ops(workload, args.seconds)
        runner = Runner(time.monotonic() + DEADLINE_S)
        try:
            results[workload] = measure(runner, workload, args.seed, ops)
        except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as error:
            print(f"{workload}: no result: {error}", file=sys.stderr)
            return 1
        print_table(workload, ops, results[workload])
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
