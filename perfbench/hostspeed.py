"""How fast the host runs right now: a fixed interpreter-bound probe.

The benchmark runs on a shared host whose speed drifts: while neighbours
load the same physical cores, the same single-threaded ``analyze`` call
took up to twice as long, in episodes lasting seconds to minutes, with
thread CPU time equal to wall time (the slowdown is inside the core, not
time stolen from it).  No run can average that away.  So the gated
latencies are *host-normalised*: each timed operation is bracketed by
:func:`probe_ms` calls, and its wall time is scaled by
``REFERENCE_MS / probe`` (:func:`stats.host_normalized`) -- milliseconds
as on the reference host while it was quiet.  A change to the program
moves the normalised figure exactly as much as the raw one, because the
probe runs none of the program's code; the raw figures stay in the
provenance line.

The probe does what dominates the engine's Step 3: dictionary lookups of
integer k-mers and ``Counter`` votes, in pure Python.  Its inputs are
fixed, so every run on every host does the same work.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from typing import Iterable

#: The probe's time on the reference host (2 vCPUs of an Intel Xeon
#: at 2.0 GHz, Python 3.11) while the host was quiet.
REFERENCE_MS = 15.0

_TABLE = {(i * 2654435761) % (1 << 40): (i, i + 7) for i in range(30000)}
_KEYS = [(i * 2654435761) % (1 << 40) if i % 3 else i * 5 + 1
         for i in range(0, 60000, 2)]


def probe_ms() -> float:
    """Wall time of one fixed probe, in milliseconds."""
    start = time.perf_counter()
    votes: Counter = Counter()
    get = _TABLE.get
    for _ in range(2):
        for key in _KEYS:
            for location in get(key, ()):
                votes[location & 15] += 1
    return (time.perf_counter() - start) * 1e3


def probe_cpus_ms(cpus: Iterable[int]) -> float:
    """Mean probe time over ``cpus``, for work spread over processes
    pinned to them; a CPU the host does not have is skipped."""
    before = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            if cpu < (os.cpu_count() or 1):
                os.sched_setaffinity(0, {cpu})
                times.append(probe_ms())
    finally:
        os.sched_setaffinity(0, before)
    return sum(times) / len(times) if times else probe_ms()
