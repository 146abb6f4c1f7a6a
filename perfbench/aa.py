"""A/A check: two interleaved sets of runs of one commit, against the bounds.

::

    python3 perfbench/aa.py

For each workload, run *r* of set A (seed ``1000 + r``) and of set B
(seed ``2000 + r``) go back to back, alternating which set goes first,
for :data:`RUNS` runs per set.  Each run is one ``run.py --trace 0``
process with the ``run_seconds`` of ``BENCHMARK.json``.  For every
end-to-end metric the table gives each set's median and quartiles, the
spread ``(q3 - q1) / median`` next to a third of the metric's bound, and
how far set B's median is worse than set A's next to the bound.  The raw
results go to ``.perfbench_out/aa.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Runs per set: the ten seeds the acceptance rule takes quartiles over.
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse *b* is than *a*, as a share of *a* (< 0: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def report(workload: str, sets: dict[str, list[dict]], spec: dict) -> bool:
    """Print one workload's table; True when every check holds."""
    print(f"== {workload}: {len(sets['A'])} runs per set")
    print(f"  {'metric':<12} {'bound':>6} | {'A median [q1, q3]':>30} "
          f"{'spread':>7} | {'B median [q1, q3]':>30} {'spread':>7} | "
          f"{'B worse':>8}  ok")
    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        cells, spreads, medians = [], [], []
        for label in ("A", "B"):
            values = [r["metrics"][name]["value"] for r in sets[label]]
            median, q1, q3, spread = quartile_spread(values)
            cells.append(f"{median:>10.4g} [{q1:>8.4g}, {q3:>8.4g}] {spread:>7.2%}")
            spreads.append(spread)
            medians.append(median)
        shift = worse_by(medians[0], medians[1], metric["better"])
        ok = shift <= bound and max(spreads) <= bound / 3
        steady &= ok
        print(f"  {name:<12} {bound:>6.3f} | {cells[0]} | {cells[1]} | "
              f"{shift:>8.2%}  {'yes' if ok else 'NO'}")
    failed = sum(r["failed"] for s in sets.values() for r in s)
    correct = all(r["correct"] for s in sets.values() for r in s)
    print(f"  correct={correct} failed ops={failed}")
    return steady and correct


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for r in range(RUNS):
            order = ("A", "B") if r % 2 == 0 else ("B", "A")
            for label in order:
                seed = (1000 if label == "A" else 2000) + r
                sets[label].append(run_once(workload, seed, spec["run_seconds"]))
        raw[workload] = sets
        ok &= report(workload, sets, spec)
    out = ROOT / ".perfbench_out" / "aa.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw))
    print(f"raw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
