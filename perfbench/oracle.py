"""The correctness oracle: a serial ``python``-backend session.

Every result the program returns is compared field for field with what
the reference backend computes for the same reads on the same index file.
The oracle runs untimed, after the measurement, split over at most
``nproc`` (two here) worker processes.  Answers are cached on disk under
``.perfbench_cache/`` keyed by a hash of ``src/``, the abundance method
and the sample's reads, so a repeated seed skips the recomputation and an
edited program never reuses a stale answer.

Worker entry point: ``python3 perfbench/oracle.py METHOD INDEX IN OUT``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from servers import env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"


def src_digest() -> str:
    """Hash of every file under ``src/`` (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _key(src: str, method: str, sequences: Sequence[str]) -> str:
    digest = hashlib.sha256(f"{src}|{method}|".encode())
    for seq in sequences:
        digest.update(seq.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def expected(method: str, index_path: Path, samples: Sequence[Sequence[str]],
             workdir: Path, workers: int = 2) -> List[dict]:
    """Oracle results (wire layout) for each sample, cached across runs."""
    src = src_digest()
    keys = [_key(src, method, seqs) for seqs in samples]
    results: Dict[int, dict] = {}
    for i, key in enumerate(keys):
        path = CACHE / f"{key}.json"
        if path.exists():
            results[i] = json.loads(path.read_text())
    todo = [i for i in range(len(samples)) if i not in results]
    # A sample repeated within the run is computed once.
    unique: Dict[str, int] = {}
    for i in todo:
        unique.setdefault(keys[i], i)
    pending = list(unique.values())
    chunks = [pending[w::workers] for w in range(workers) if pending[w::workers]]
    procs = []
    try:
        for w, chunk in enumerate(chunks):
            inp = workdir / f"oracle_in_{w}.json"
            out = workdir / f"oracle_out_{w}.json"
            inp.write_text(json.dumps([samples[i] for i in chunk]))
            procs.append((chunk, out, subprocess.Popen(
                [sys.executable, str(HERE / "oracle.py"), method,
                 str(index_path), str(inp), str(out)],
                env=env())))
        for chunk, out, proc in procs:
            if proc.wait(timeout=170) != 0:
                raise RuntimeError(f"oracle worker exited {proc.returncode}")
            for i, result in zip(chunk, json.loads(out.read_text())):
                results[i] = result
    finally:
        for _, _, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    CACHE.mkdir(exist_ok=True)
    for i in pending:
        (CACHE / f"{keys[i]}.json").write_text(json.dumps(results[i]))
    for i in todo:
        results.setdefault(i, results[unique[keys[i]]])
    return [results[i] for i in range(len(samples))]


def _worker(method: str, index_path: str, inp: str, out: str) -> None:
    from stats import comparable
    from world import as_reads

    from repro.megis.index import MegisIndex
    from repro.megis.session import AnalysisSession, MegisConfig

    session = AnalysisSession(MegisIndex.open(index_path),
                              MegisConfig(abundance_method=method),
                              backend="python")
    answers = []
    for sequences in json.loads(Path(inp).read_text()):
        result = session.analyze(as_reads(sequences))
        answers.append(comparable(result.candidates, result.profile.fractions))
    Path(out).write_text(json.dumps(answers))


if __name__ == "__main__":
    _worker(*sys.argv[1:5])
