"""Pure arithmetic behind the benchmark's verdicts (no I/O, no timing).

Kept apart from the runners so the rules that turn measurements into
reported numbers -- the tail-percentile rule, the ladder verdict, span
self times, the oracle comparator -- are unit-tested on their own
(``python3 -m pytest perfbench/tests``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly past the nearest-rank ``p``-th percentile of ``n``."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> Optional[int]:
    """The highest reportable percentile for ``n`` samples, or ``None``.

    A percentile is reportable when at least :data:`MIN_BEYOND` samples
    lie beyond it; 200 samples support p95, 100 support p90, 40 support
    p75, and fewer than 20 support none (not even the median).
    """
    for p in TAIL_PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, the supported tail and the count of a timing sample.

    With too few samples for any tail, the tail is reported as the
    median and ``tail_p`` is 50 (the count says why).
    """
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "tail_p": p if p is not None else 50,
        "tail": percentile(values, p if p is not None else 50),
    }


def host_normalized(wall: Sequence[float], probes_ms: Sequence[float],
                    reference_ms: float) -> List[float]:
    """Wall times scaled to the speed of a quiet reference host.

    Operation ``i`` ran between probes ``i`` and ``i + 1``; its time (in
    any unit) is scaled by ``reference_ms`` over the mean of those two
    probes, so an operation that ran while the host was twice as slow
    counts half.
    """
    if len(probes_ms) != len(wall) + 1:
        raise ValueError(f"{len(wall)} operations need "
                         f"{len(wall) + 1} bracketing probes, "
                         f"got {len(probes_ms)}")
    return [t * reference_ms / ((probes_ms[i] + probes_ms[i + 1]) / 2)
            for i, t in enumerate(wall)]


# -- open-loop rungs and the ladder ----------------------------------------------

#: Latency limit on p95 for a rung to pass.
LATENCY_LIMIT_MS = 500.0
#: The fixed request-rate ladder (requests/s).
LADDER = (4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32)
#: A rung whose generator ran later than this (p95 send lag) is invalid.
MAX_LAG_MS = 50.0


@dataclass
class RungOutcome:
    """What one open-loop rung measured."""

    rate: float
    latencies_ms: List[float]
    failed: int
    lag_ms_p95: float
    backlog_end: int

    @property
    def valid(self) -> bool:
        return self.lag_ms_p95 <= MAX_LAG_MS

    @property
    def backlog_growing(self) -> bool:
        """More requests outstanding when sending ends than Little's law
        allows at the latency limit (rate x limit)."""
        return self.backlog_end > max(1.0, self.rate * LATENCY_LIMIT_MS / 1e3)

    @property
    def p95_ms(self) -> float:
        """p95 counting each failed request as missing the limit."""
        worst = [math.inf] * self.failed
        return percentile(list(self.latencies_ms) + worst, 95)

    @property
    def passes(self) -> bool:
        return (self.valid and not self.failed and not self.backlog_growing
                and self.p95_ms <= LATENCY_LIMIT_MS)


def max_passing_rate(outcomes: Iterable[RungOutcome]) -> float:
    """The highest ladder rate whose rung passed and every lower tested
    rung passed too (0.0 when the lowest tested rung fails)."""
    best = 0.0
    for outcome in sorted(outcomes, key=lambda o: o.rate):
        if not outcome.passes:
            break
        best = outcome.rate
    return best


def ladder_start(capacity_rps: float) -> int:
    """The highest ladder rung at or below a measured capacity."""
    below = [r for r in LADDER if r <= capacity_rps]
    return below[-1] if below else LADDER[0]


def next_rung(rate: float, up: bool) -> Optional[int]:
    """The neighbouring ladder rung, or ``None`` past either end."""
    if up:
        return next((r for r in LADDER if r > rate), None)
    return next((r for r in reversed(LADDER) if r < rate), None)


# -- spans --------------------------------------------------------------------------

def self_times(spans: Iterable[Sequence]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    A span is a sequence ``(id, name, start, end, parent_id, ...)``.

    Children may overlap one another (threads) and may outlive the parent;
    only the union of their intervals clipped to the parent counts.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[4]
        if parent is not None:
            children.setdefault(parent, []).append((span[2], span[3]))
    result: Dict[int, float] = {}
    for span in spans:
        sid, start, end = span[0], span[2], span[3]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


def self_time_by_name(spans: Iterable[Sequence]) -> Dict[str, float]:
    """Total self time per span name (same-name nesting counted once)."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span[1]] = totals.get(span[1], 0.0) + own[span[0]]
    return totals


def child_coverage(spans: Iterable[Sequence], root_name: str) -> List[float]:
    """For each ``root_name`` span, the share of it its children cover."""
    spans = list(spans)
    own = self_times(spans)
    return [
        1.0 - own[s[0]] / (s[3] - s[2])
        for s in spans if s[1] == root_name and s[3] > s[2]
    ]


# -- oracle comparison ---------------------------------------------------------------


def comparable(candidates: Iterable[int],
               fractions: Mapping[object, float]) -> Dict[str, object]:
    """A result in the wire's field layout: sorted candidate ids and the
    profile keyed by the taxid's string form."""
    return {
        "candidates": sorted(int(t) for t in candidates),
        "profile": {str(t): float(f) for t, f in
                    sorted(fractions.items(), key=lambda kv: int(kv[0]))},
    }


def mismatches(got: Mapping[str, object],
               expected: Mapping[str, object]) -> List[str]:
    """Field-by-field differences between a result and its oracle.

    Profiles must match exactly -- same taxids, bit-identical fractions.
    """
    problems = []
    if got.get("candidates") != expected.get("candidates"):
        problems.append(f"candidates {got.get('candidates')} != "
                        f"{expected.get('candidates')}")
    got_profile = got.get("profile") or {}
    want_profile = expected.get("profile") or {}
    for taxid in sorted(set(got_profile) | set(want_profile), key=str):
        a, b = got_profile.get(taxid), want_profile.get(taxid)
        if a != b:
            problems.append(f"profile[{taxid}] {a!r} != {b!r}")
    return problems
