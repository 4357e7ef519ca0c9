"""Steadiness check: run each workload in two separate sets of seeds.

Each set is ``RUNS`` runs of ``run_seconds`` (from ``BENCHMARK.json``),
one seed per run, and the two sets use disjoint seeds.  For every
end-to-end metric, ``setup_s`` included, it prints each set's median,
each set's spread (distance between the first and third quartile, as a
share of the median) and the second median's drift from the first,
against the metric's bound.  Exit status 1 when a spread or the drift,
in either direction, exceeds its bound.  From the root of a checkout::

    python3 perfbench/steadiness.py                     # every workload
    python3 perfbench/steadiness.py --workloads grade   # some of them
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Runs per set; set ``s`` uses seeds ``SEED_STRIDE * s + 1 ...``.
RUNS = 10
SETS = 2
SEED_STRIDE = 1000


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed items")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str] = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    ok = True
    for workload in args.workloads:
        sets: List[Dict[str, List[float]]] = []
        for s in range(SETS):
            values: Dict[str, List[float]] = {}
            for r in range(RUNS):
                seed = SEED_STRIDE * s + r + 1
                for name, value in run_once(workload, seed, seconds).items():
                    values.setdefault(name, []).append(value)
            sets.append(values)
        print(f"\n{workload}: {SETS} sets x {RUNS} runs of {seconds} s")
        print(f"  {'metric':<18} {'bound':>6} {'median A':>12} {'spread A':>9}"
              f" {'median B':>12} {'spread B':>9} {'drift':>7}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = [statistics.median(v[name]) for v in sets]
            spreads = [spread(v[name]) for v in sets]
            drift = medians[1] / medians[0] - 1.0
            bad = abs(drift) > bound or max(spreads) > bound
            verdict = "FAIL" if bad else ("ok" if max(spreads) < bound / 3 else "ok (> bound/3)")
            ok = ok and not bad
            cells = "".join(f" {m:>12.4f} {sp:>9.4f}" for m, sp in zip(medians, spreads))
            print(f"  {name:<18} {bound:>6.2f}{cells} {drift:>+7.3f}  {verdict}")
            for label, v in zip("AB", sets):
                print(f"    {label}: " + " ".join(f"{x:.4g}" for x in v[name]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
