"""One workload in one fresh process: set up, warm up, run the op loop.

``run.py`` starts this script once per measurement and reads the JSON
object it prints as its last stdout line.  Modes:

* ``setup`` — set up, run the warm-up op, report ``setup_s``;
* ``run`` — also run the timed loop and verify the sampled ops;
* ``trace`` — the timed loop with the layer wrappers installed and
  ``repro.obs`` counters on; reports per-layer metrics and writes the
  spans to ``--spans``.

::

    python3 perfbench/worker.py --workload synth_sweep --seed 1 --ops 288 --mode run

Times are reported in reference seconds: wall time scaled by the
machine's speed as :func:`speed_probe` measures it between the phases
of set-up and between ops (see ``README.md``).  The unscaled wall times
are reported too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: What one speed probe takes on the reference machine (its median on a
#: 2-core x86-64 VM while other tenants kept it in its slower state).
REFERENCE_PROBE_S = 0.0015


def _probe_kernel() -> int:
    table: dict[int, float] = {}
    items = []
    for i in range(2000):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0.0) + i * 0.5
        items.append((key, str(i)))
    items.sort()
    return len(table) + len(items[-1][1])


def speed_probe() -> float:
    """Seconds one fixed pure-Python kernel takes right now.

    The machine's speed drifts by up to 40% within seconds (shared host,
    CPU clock), far more than the changes the bounds must catch.  The
    kernel touches no program code and runs with the collector off, but
    it shares the process with the work timed before it: run once right
    after an op, it took up to 15% less time than after a plain loop,
    and up to 22% more after a walk over 16 MB.  So it runs twice and the
    second run alone is timed; the first takes the caches and the
    allocator from whatever the op left (``RESULTS.md`` has the
    measurements).
    """
    gc.disable()
    try:
        _probe_kernel()
        start = time.perf_counter()
        _probe_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Stopwatch:
    """Wall time in reference seconds, lap by lap.

    Each lap's wall time is scaled by ``REFERENCE_PROBE_S`` over the
    slower of the probes just before and just after it.  A slow spell
    that starts or ends during the lap shows in one of the two; their
    mean would halve it, and a wider window of probes would smooth it
    away.  The probes themselves fall between laps and are not timed.
    Without *probe* every scale is 1.
    """

    def __init__(self, probe=None) -> None:
        self.probe = probe
        self.before = probe() if probe else REFERENCE_PROBE_S
        self.scaled_s = 0.0
        self.wall_s = 0.0
        self.started = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        """End the current lap and start the next; ``(wall, scale)``."""
        wall = time.perf_counter() - self.started
        after = self.probe() if self.probe else REFERENCE_PROBE_S
        scale = REFERENCE_PROBE_S / max(self.before, after)
        self.before = after
        self.scaled_s += wall * scale
        self.wall_s += wall
        self.started = time.perf_counter()
        return wall, scale


@dataclass
class Loop:
    """What :func:`run_ops` measured.

    ``scales[i]`` turns op *i*'s wall time into reference seconds;
    ``latencies`` (the op alone) and ``work_s`` (the sum of op plus
    check) are scaled, ``wall_s`` is not.
    """

    latencies: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    work_s: float = 0.0
    wall_s: float = 0.0
    failed: set[int] = field(default_factory=set)
    kept: dict[int, object] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)


def run_ops(workload, n_ops: int, recorder=None, sample_every: int = 0,
            probe=None) -> Loop:
    """The timed closed loop: op *i + 1* starts when op *i* returns.

    An op that raises and an op whose output fails its check both count
    as failed.  With *sample_every*, the checked outputs of ops
    ``i % sample_every == 0`` are kept for the reference comparison.
    Each op (with its check) is one :class:`Stopwatch` lap, so with
    *probe* (:func:`speed_probe`) the probes run between ops.
    """
    loop = Loop()
    clock = time.perf_counter
    watch = Stopwatch(probe)
    for i in range(n_ops):
        if recorder is not None:
            recorder.op = i
        latency = None
        try:
            output = workload.op(i)
            latency = clock() - watch.started
            checked = workload.check(i, output)
        except Exception as error:  # the loop must go on and count it
            loop.failed.add(i)
            loop.messages.append(f"op {i}: {type(error).__name__}: {error}")
        else:
            if sample_every and i % sample_every == 0:
                loop.kept[i] = checked
        wall, scale = watch.lap()
        loop.scales.append(scale)
        loop.latencies.append((wall if latency is None else latency) * scale)
    loop.work_s, loop.wall_s = watch.scaled_s, watch.wall_s
    return loop


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", help="where the trace mode writes its spans")
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    # Set-up is timed in laps, so the machine's speed is read between
    # its phases: the imports, each input built, the warm-up op.
    watch = Stopwatch(speed_probe)
    import workloads  # imports repro

    watch.lap()

    recorder = None
    if args.mode == "trace":
        import recorder as recorder_module

        recorder = recorder_module.Recorder()
        recorder.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, str(OUT), watch.lap)
    try:
        result = {"correct": True}
        try:
            workload.check(workloads.WARMUP, workload.op(workloads.WARMUP))
        except Exception as error:  # reported, not raised: correct = false
            result["correct"] = False
            print(f"warm-up op: {type(error).__name__}: {error}", file=sys.stderr)
        gc.collect()
        gc.freeze()
        watch.lap()
        result["setup_s"] = watch.scaled_s
        result["setup_wall_s"] = watch.wall_s
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        if recorder is None:
            loop = run_ops(
                workload, args.ops, sample_every=workloads.SAMPLE_EVERY,
                probe=speed_probe,
            )
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            for i, problem in sorted(workload.verify(loop.kept).items()):
                loop.failed.add(i)
                loop.messages.append(f"op {i}: {problem}")
        else:
            from repro.obs import observed

            with observed() as observer:
                recorder.active = True
                loop = run_ops(workload, args.ops, recorder, probe=speed_probe)
                recorder.active = False
            counters = {
                c["name"]: c["value"]
                for c in observer.registry.snapshot()["counters"]
                if not c["labels"]
            }
            result["layers"] = recorder_module.layer_metrics(
                recorder.spans, counters, args.ops, recorder.absent, loop.scales
            )
            result["absent"] = recorder.absent
            result["missing"] = recorder.missing
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as handle:
                    json.dump(
                        {"workload": args.workload, "seed": args.seed,
                         "ops": args.ops, "absent": recorder.absent,
                         "missing": recorder.missing, "op_scales": loop.scales,
                         "fields": ["layer", "target", "start", "end",
                                    "parent", "op", "providers"],
                         "spans": recorder.spans},
                        handle,
                    )
        problem = workloads.check_inputs()
        if problem:  # the run timed other work than the committed inputs
            loop.failed.update(range(args.ops))
            loop.messages.insert(0, problem)
        for message in loop.messages[:20]:
            print(message, file=sys.stderr)
        result.update(
            attempted=args.ops,
            failed=len(loop.failed),
            correct=result["correct"] and not loop.failed,
            work_s=loop.work_s,
            wall_work_s=loop.wall_s,
            latencies_s=loop.latencies,
        )
        print(json.dumps(result))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    raise SystemExit(main())
