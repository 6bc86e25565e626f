"""Compare two result files written by ``run.py`` (``.perfbench_results/``).

    python3 perfbench/compare.py BASE.json NEW.json

prints, per metric, both values and the change as a share of the base.
Results from machines with different CPU counts are not comparable: the
serving tiers' capacity and latency scale with cores, so such a pair is
reported as unmeasurable and the command exits 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List


def compare(base: dict, new: dict) -> List[str]:
    cpus = (base["provenance"]["nproc"], new["provenance"]["nproc"])
    if cpus[0] != cpus[1]:
        return [f"unmeasurable: nproc {cpus[0]} vs {cpus[1]}"]
    lines = []
    for name, metric in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            lines.append(f"{name}: missing in the new result")
            continue
        a, b = metric["value"], other["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        lines.append(f"{name}: {a:.6g} -> {b:.6g} {metric['unit']} ({change})")
    return lines


def main(argv: List[str]) -> int:
    base, new = (json.loads(Path(p).read_text()) for p in argv[:2])
    lines = compare(base, new)
    print("\n".join(lines))
    return 2 if lines[0].startswith("unmeasurable") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
