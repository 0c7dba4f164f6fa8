"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/stability.py --workloads grid-bots-2w --seeds 1 2 3 4 5
    python3 bench/stability.py --seeds 1 2 3 4 5 6 7 8 9 10 --json spread.json

Runs ``bench/run.py`` once per (workload, seed), exactly as BENCHMARK.json
states it, and prints per end-to-end metric the median of the per-run values
and their inter-quartile distance as a share of that median, next to the
metric's bound.  A benchmark is steady when every spread except that of
``setup_s`` stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--json", type=Path, help="also write every value here")
    args = parser.parse_args(argv)

    values: dict[str, dict[str, list[float]]] = {}
    failed = 0
    for workload in args.workloads:
        values[workload] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                failed += 1
                print(f"{workload} seed {seed}: failed\n{proc.stderr[-500:]}", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    print(f"{'workload':<16} {'metric':<12} {'median':>10} {'spread':>8} {'bound':>6}")
    for workload, metrics in values.items():
        for m in spec["end_to_end"]:
            vals = metrics[m["name"]]
            if vals:
                print(f"{workload:<16} {m['name']:<12} {statistics.median(vals):>10.4g} "
                      f"{quartile_spread(vals):>8.3f} {m['bound']:>6}")
    if args.json:
        args.json.write_text(json.dumps(values, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
