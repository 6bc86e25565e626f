"""Wire codec figures timed inside the benchmark process (traced runs).

Both codecs run over the workload's own frames: request parsing
(``wire.parse_request_line``) and the cluster's Step-2 result round trip
(``step2_result_record`` + ``encode`` + ``parse_step2_result``), each in
ms per MB of frame.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median
from typing import Dict, Sequence

from world import as_reads

from repro.megis import wire

#: Timed passes over the frames; the median pass is reported.
PASSES = 5


def _ms_per_mb(work, n_bytes: int) -> float:
    times = []
    for _ in range(PASSES):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return median(times) * 1e3 / (n_bytes / 1e6)


def wire_layers(index_path: Path, pool: Sequence[Sequence[str]]) -> Dict:
    from repro.megis.host import KmerBucketPartitioner
    from repro.megis.index import MegisIndex
    from repro.megis.session import AnalysisSession, MegisConfig

    frames = [wire.encode(wire.request_record(f"r{i}", seqs))
              for i, seqs in enumerate(pool)]

    def parse_all():
        for i, frame in enumerate(frames):
            wire.parse_request_line(frame, i)

    parse = _ms_per_mb(parse_all, sum(len(f) for f in frames))

    index = MegisIndex.open(index_path)
    partitioner = KmerBucketPartitioner(k=index.k, backend="numpy")
    queries = [partitioner.partition(as_reads(seqs)).merged_column()
               for seqs in pool]
    session = AnalysisSession(index, MegisConfig(backend="numpy", n_ssds=4))
    partials = session.step_two_partial(queries)
    size = len(wire.encode(wire.step2_result_record(0, 0, partials)))

    def roundtrip():
        encoded = wire.encode(wire.step2_result_record(0, 0, partials))
        wire.parse_step2_result(json.loads(encoded))

    return {
        "wire.parse_request_ms_per_mb": (parse, "ms/MB"),
        "wire.step2_roundtrip_ms_per_mb": (_ms_per_mb(roundtrip, size),
                                           "ms/MB"),
    }

