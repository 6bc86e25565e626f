"""The batch-mapping session process: one long-lived ``AnalysisSession``.

Run as ``python3 perfbench/session_worker.py JOB.json RESULT.json``.  The
job names the reference FASTA, where to save the index, the warm-up and
measured samples (read sequences only) and the measuring time.  The
process sets the index up ``setup_reps`` times (build, save, open, warm;
the last one serves), analyses the warm-up samples untimed, then runs a
closed loop -- one caller, the next sample right after the previous one
returns -- until the measuring time is spent.  With ``trace`` set, layer
spans are recorded on alternate samples so the untraced ones give the
tracing overhead.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from hostspeed import probe_ms  # noqa: E402
from spans import Recorder, install  # noqa: E402
from stats import comparable  # noqa: E402
from world import as_reads  # noqa: E402

from repro.megis.index import IndexBuilder, MegisIndex  # noqa: E402
from repro.megis.session import AnalysisSession, MegisConfig  # noqa: E402


def main(job_path: str, out_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    recorder = Recorder(enabled=False)
    if job["trace"]:
        install(recorder)
    fasta = Path(job["fasta"]).read_text()
    setup_s = []
    # Set-up and every sample are bracketed by host-speed probes (see
    # hostspeed.py).
    setup_probes = [probe_ms()]
    session = None
    for _ in range(job["setup_reps"]):
        if session is not None:
            session.close()
        start = time.perf_counter()
        index = IndexBuilder(k=job["k"]).build_from_fasta(fasta)
        index.save(job["index"])
        session = AnalysisSession(
            MegisIndex.open(job["index"]),
            MegisConfig(abundance_method="mapping"), backend="numpy",
        ).warm()
        setup_s.append(time.perf_counter() - start)
        setup_probes.append(probe_ms())

    for sequences in job["warmup"]:
        session.analyze(as_reads(sequences))
    warm_stats = {name: (s.hits, s.misses)
                  for name, s in session.cache_stats.items()}

    # Peak RSS through set-up and warm-up.  Each measured sample with a
    # new candidate set adds a merged index to the session's cache, so a
    # later reading would grow with the number of samples the host fits
    # into the run and with which candidate sets the seed draws.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = []
    probes = [probe_ms()]
    deadline = time.perf_counter() + job["seconds"]
    for i, sequences in enumerate(job["samples"]):
        if time.perf_counter() >= deadline:
            break
        reads = as_reads(sequences)
        traced = bool(job["trace"]) and i % 2 == 0
        recorder.enabled = traced
        root = recorder.begin("sample", request=i) if traced else None
        start = time.perf_counter()
        result = session.analyze(reads)
        elapsed = time.perf_counter() - start
        if root is not None:
            recorder.end(root)
        recorder.enabled = False
        probes.append(probe_ms())
        records.append({
            "ms": elapsed * 1e3,
            "traced": traced,
            "reads": len(reads),
            "result": comparable(result.candidates, result.profile.fractions),
            "query_kmers": result.query_kmers,
            "intersecting": len(result.intersecting_kmers),
            "db_kmers_streamed": result.timings.db_kmers_streamed,
        })
    if len(records) == len(job["samples"]):
        print("session worker: measuring time outlasted the prepared samples",
              file=sys.stderr)
    cache = {
        name: {"hits": s.hits - warm_stats[name][0],
               "misses": s.misses - warm_stats[name][1]}
        for name, s in session.cache_stats.items()
    }
    session.close()
    Path(out_path).write_text(json.dumps({
        "setup_s": setup_s,
        "setup_probes_ms": setup_probes,
        "samples": records,
        "probes_ms": probes[:len(records) + 1],
        "cache": cache,
        "peak_rss_mb": peak_rss_mb,
        "spans": recorder.spans,
        "counters": recorder.counters,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
