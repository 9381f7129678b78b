"""Compare two end-to-end reports metric by metric.

Usage::

    python benchmarks/e2e/compare.py A.json B.json

``A.json`` (the base, e.g. the parent commit) and ``B.json`` are
``run.py --trace 0 --out`` reports.  For every workload and end-to-end
metric this prints both medians, their ratio B/A, the regression bound
``BENCHMARK.json`` declares, and a verdict:

``unresolved``
    either side's spread across rounds — (q3 − q1) / median of the
    per-round values — is wider than the bound, so the runs cannot tell
    a change of that size from noise;
``worse`` / ``better``
    B differs from A by more than the bound in the metric's bad / good
    direction;
``within``
    otherwise.

Exits 1 when any row is ``worse``, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float:
    """Interquartile range over median (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(base: dict, new: dict, name: str, better: str, bound: float) -> tuple[str, float]:
    a = base["metrics"][name]["value"]
    b = new["metrics"][name]["value"]
    ratio = b / a
    rounds = (base["recorded"]["per_round"][name], new["recorded"]["per_round"][name])
    if any(spread(values) > bound for values in rounds):
        return "unresolved", ratio
    gain = ratio - 1.0 if better == "higher" else 1.0 - ratio
    if gain < -bound:
        return "worse", ratio
    if gain > bound:
        return "better", ratio
    return "within", ratio


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base, new = (json.loads(Path(path).read_text())["workloads"] for path in argv[1:])
    header = f"{'workload':<14} {'metric':<15} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6}  verdict"
    print(header)
    print("-" * len(header))
    worse = False
    for workload in base:
        if workload not in new:
            print(f"{workload:<14} missing from {argv[2]}")
            continue
        for metric in declared:
            name = metric["name"]
            outcome, ratio = verdict(base[workload], new[workload], name, metric["better"], metric["bound"])
            worse |= outcome == "worse"
            print(
                f"{workload:<14} {name:<15} {base[workload]['metrics'][name]['value']:>12.6g} "
                f"{new[workload]['metrics'][name]['value']:>12.6g} {ratio:>7.3f} "
                f"{metric['bound']:>6.2f}  {outcome}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
