"""Spans and counters around the program's public layer calls.

:func:`install` wraps the callables each layer exposes -- from the
benchmark's side, leaving ``src/`` untouched -- so a traced run sees
where a sample's time goes.  Spans stay in memory (:class:`Recorder`) and
are written out once, at the end.  A recorder starts disabled so a
process can warm up, fork workers and serve an untraced phase first;
disabled wrappers only pay an attribute check.

Functions that modules import by name (``from x import f``) are replaced
in every importing module on the query path, so a call through either
name is seen.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Recorder:
    """In-memory spans ``(id, name, start, end, parent, request, attrs)``
    plus named counters; thread-safe, parent taken per thread."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def enable(self, *_: object) -> None:
        """Switch tracing on (also usable as a signal handler)."""
        self.enabled = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: Optional[object] = None) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        if request is None and stack:
            request = stack[-1][5]
        span = [next(self._ids), name, time.perf_counter(), None, parent,
                request, {}]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(
            {"spans": self.spans, "counters": self.counters}
        ))


def _spanned(recorder: Recorder, name: str, fn: Callable,
             attrs: Optional[Callable[[tuple, Any], Dict[str, float]]] = None
             ) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if attrs is not None:
            span[6].update(attrs(args, result))
        return result

    return wrapper


def _counted(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.enabled:
            recorder.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _streamed(timings_index: int) -> Callable[[tuple, Any], Dict[str, float]]:
    """Span attrs for a backend call: the PhaseTimings it was handed."""
    def attrs(args: tuple, _result: Any) -> Dict[str, float]:
        timings = args[timings_index] if len(args) > timings_index else None
        if timings is None or not hasattr(timings, "db_kmers_streamed"):
            return {}
        return {"db_kmers": timings.db_kmers_streamed}
    return attrs


def _wrap_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _wrap_function(modules: list, attr: str, wrapped: Callable) -> None:
    for module in modules:
        if hasattr(module, attr):
            setattr(module, attr, wrapped)


def install(recorder: Recorder) -> None:
    """Wrap every layer's public callables; call once per process."""
    from repro.backends.base import StepTwoBackend
    from repro.backends.numpy_backend import NumpyStepTwoBackend
    from repro.megis import abundance, host, session, wire
    from repro.megis.cluster.router import ClusterStepTwo
    from repro.sequences import kmers
    from repro.tools import mapping, metalign, statistical

    # Step 1: extract, bucket, sort, exclude.
    _wrap_method(host.KmerBucketPartitioner, "partition",
                 lambda fn: _spanned(recorder, "step1.partition", fn,
                                     lambda a, r: {"kmers": r.total_kmers()}))
    extract = _counted(recorder, "kmers.extract_calls", kmers.extract_kmers)
    _wrap_function([kmers, host, mapping], "extract_kmers", extract)

    # Step 2: intersection and KSS retrieval (timings follows n_channels).
    for cls in (StepTwoBackend, NumpyStepTwoBackend):
        for attr in ("intersect", "intersect_bucketed", "intersect_sharded",
                     "intersect_bucketed_multi", "intersect_sharded_multi"):
            _wrap_method(cls, attr, lambda fn: _spanned(
                recorder, "step2.intersect", fn, _streamed(4)))
        _wrap_method(cls, "retrieve", lambda fn: _spanned(
            recorder, "step2.retrieve", fn,
            lambda a, r: {"intersecting": len(a[2])}))

    # Step 3: candidates, unified index, mapping or statistics.
    for attr in ("accumulate_hits", "select_candidates"):
        wrapped = _spanned(recorder, "step3.candidates",
                           getattr(metalign, attr))
        _wrap_function([metalign, session], attr, wrapped)
    _wrap_method(mapping.SpeciesIndex, "build",
                 lambda fn: _spanned(recorder, "step3.species_index", fn))
    merge = _spanned(recorder, "step3.index_merge",
                     abundance.merge_species_indexes)
    _wrap_function([abundance, session], "merge_species_indexes", merge)
    _wrap_method(mapping.ReadMapper, "estimate_abundance",
                 lambda fn: _spanned(recorder, "step3.map", fn))
    _wrap_method(statistical.StatisticalAbundanceEstimator,
                 "estimate_from_retrieval",
                 lambda fn: _spanned(recorder, "step3.statistical", fn))

    # Cluster transport: scatter-gather and its retries.
    _wrap_method(ClusterStepTwo, "scatter", lambda fn: _spanned(
        recorder, "cluster.scatter", fn,
        lambda a, r: {"samples": len(r),
                      "intersecting": sum(len(i) for i, _ in r)}))
    _wrap_method(ClusterStepTwo, "_retry",
                 lambda fn: _counted(recorder, "cluster.retries", fn))

    encode = wire.encode

    @functools.wraps(encode)
    def counted_encode(record):
        frame = encode(record)
        if recorder.enabled and record.get("op") == "step2_result":
            recorder.count("cluster.step2_frames")
            recorder.count("cluster.step2_frame_bytes", len(frame))
        return frame

    wire.encode = counted_encode


def stage_layers(by_name: Dict[str, float], n: int, spans,
                 counters: Dict[str, float]) -> Dict:
    """Per-sample self times of the engine's layer spans."""
    def ms(name: str) -> float:
        return by_name.get(name, 0.0) * 1e3 / n

    query = sum(s[6].get("kmers", 0) for s in spans
                if s[1] == "step1.partition")
    return {
        "step1.partition_ms": (ms("step1.partition"), "ms/sample"),
        "step1.query_kmers": (query / n, "kmers/sample"),
        "kmers.extract_calls": (counters.get("kmers.extract_calls", 0) / n,
                                "calls/sample"),
        "step2.intersect_ms": (ms("step2.intersect"), "ms/sample"),
        "step2.retrieve_ms": (ms("step2.retrieve"), "ms/sample"),
        "step3.candidates_ms": (ms("step3.candidates"), "ms/sample"),
        "step3.species_index_ms": (ms("step3.species_index"), "ms/sample"),
        "step3.index_merge_ms": (ms("step3.index_merge"), "ms/sample"),
        "step3.map_ms": (ms("step3.map"), "ms/sample"),
        "step3.statistical_ms": (ms("step3.statistical"), "ms/sample"),
    }
