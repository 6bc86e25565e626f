"""Shard-per-process analysis execution (the process-pool serving tier).

The GIL caps what :class:`~repro.megis.service.AnalysisService` can get
out of threads: Step 1 (k-mer extraction) and mapping-based Step 3 are
pure-Python loops, so thread workers serialize exactly where the paper's
pipeline is busiest.  :class:`ProcessAnalysisRunner` moves those stages —
and the Step-2 shard kernels — into a :class:`ProcessExecutor` pool forked
*after* the session is warmed (and, for ``open(mmap=True)`` indexes, after
the CSR sections are memmapped), so every worker shares the parent's
engine state copy-on-write: zero per-worker index duplication, verifiable
through :meth:`probe_workers` against the database's column-build
counters.

The runner is the process placement of the one pipeline,
:meth:`~repro.megis.session.AnalysisSession.analyze_batch`, in two roles:

- *stage executor* — :meth:`map_stage` runs the session's per-sample
  Step-1 and Step-3 stages on any worker (the same methods the inline
  tiers call);
- *Step-2 placement* — :meth:`run` is shard-per-process (§6.1 mapped onto
  processes): the sorted database is cut into ``max(n_ssds, workers)``
  contiguous lexicographic ranges, each worker *owns* a contiguous group
  of shards for the session's lifetime (tasks are pinned with
  ``ProcessExecutor.submit_to``) and runs
  :func:`~repro.megis.multissd.shard_step_two` on each, streaming its
  shard group once per batch.  The parent concatenates the per-shard
  outputs in ascending range order with
  :func:`~repro.megis.multissd.gather`, so the output is bit-identical to
  the serial engines (the golden-fixture tests pin this).

Task functions are module-level (they cross the worker pipe by reference)
and reach the forked state through
:func:`~repro.megis.executors.worker_state`.

Crash semantics come from the pool: a worker that dies mid-task is
respawned (a fresh fork of the *current* parent, shards intact) and the
task retried once; a second death surfaces as
:class:`~repro.megis.executors.WorkerCrashed` from ``analyze_batch``,
which :class:`~repro.megis.service.AnalysisService` turns into a
structured per-request error without dropping queued samples.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.backends import BucketSlice, PhaseTimings
from repro.megis.executors import ProcessExecutor, worker_state
from repro.megis.multissd import (
    DatabaseShard,
    StepTwoOutput,
    gather,
    shard_step_two,
    warm_shards,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.megis.session import AnalysisSession


# -- module-level task functions (pickled by reference across the pipe) -------

def _task_stage(stage: str, args: Tuple[Any, ...]) -> Any:
    """One per-sample session stage (``_step_one`` / ``_step_three``)."""
    return getattr(worker_state().session, stage)(*args)


def _task_step2(
    shard_indexes: Sequence[int],
    sample_buckets: List[List[BucketSlice]],
) -> Tuple[List[List[StepTwoOutput]], PhaseTimings]:
    """Step 2 over this worker's shard group, batched across samples."""
    runner = worker_state()
    st = PhaseTimings(backend=runner.backend.name)
    outputs = [
        shard_step_two(
            runner.shards[index], sample_buckets, runner.backend,
            runner.channels, st,
        )
        for index in shard_indexes
    ]
    return outputs, st


def _task_probe() -> Dict[str, int]:
    """Counters read from *inside* a worker — the COW-sharing witness.

    If the fork duplicated (rather than COW-shared) the parent's warmed
    engine state, the worker's database would have to rebuild its
    columns and these counters would exceed the parent's snapshot.
    """
    runner = worker_state()
    database = runner.session.database
    return {
        "pid": os.getpid(),
        "column_builds": database.column_builds,
        "owner_column_builds": database.owner_column_builds,
        "shards": len(runner.shards),
    }


class ProcessAnalysisRunner:
    """Drive one session's analyses through a forked worker pool.

    Built by :meth:`AnalysisSession.warm` when the session's executor
    spec is ``processes``/``processes:N``; the constructor is the fork
    point — everything warmed before it (columns, KSS blocks, memmap
    sections, shard handles) is inherited copy-on-write by the workers.
    The runner itself is the pool's ``state`` object: it crosses into
    the children by fork inheritance, never by pickling.
    """

    def __init__(self, session: "AnalysisSession", workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.session = session
        self.workers = workers
        self.backend = session.backend
        self.channels = session._n_channels
        #: At least one shard per worker; honoring a larger configured
        #: SSD count keeps the modeled fan-out width.
        shard_count = max(session.config.n_ssds, workers)
        self.shards: List[DatabaseShard] = list(session.index.shards(shard_count))
        warm_shards(self.shards, self.backend)  # pre-fork: COW prerequisite
        #: Contiguous shard groups: worker *w* owns ``groups[w]``.  The
        #: groups partition ``range(shard_count)`` in ascending order, so
        #: iterating workers then shards yields ascending ranges — the
        #: precondition for ``RetrievalResult.concatenate``.
        self.groups: List[List[int]] = [
            list(range(
                shard_count * w // workers, shard_count * (w + 1) // workers
            ))
            for w in range(workers)
        ]
        self.pool = ProcessExecutor(workers, state=self)
        self.pool.start()  # <- the fork

    def after_fork(self) -> None:
        """Child-side repair, run first thing inside every forked worker.

        A respawn fork can happen while serving threads hold the session
        lock in the parent, so the child gets a fresh lock; nulling the
        runner hook makes any in-worker ``session.analyze`` take the
        plain serial path instead of recursing into the (parent-owned)
        pool.
        """
        session = self.session
        session._lock = threading.RLock()
        session._process_workers = None
        session._runner = None

    # -- serving ---------------------------------------------------------------

    def map_stage(
        self, stage: str, calls: Sequence[Tuple[Any, ...]]
    ) -> List[Any]:
        """Run a per-sample session stage once per call, on any worker.

        Thread-safe — :class:`AnalysisService` workers call this
        concurrently and the pool interleaves their tasks; each batch's
        results are assembled from its own futures only.
        """
        futures = [self.pool.submit(_task_stage, stage, args) for args in calls]
        return [future.result() for future in futures]

    def run(
        self,
        sample_buckets: Sequence[Sequence[BucketSlice]],
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoOutput]:
        """Step 2 per worker group, pinned to the shard owner; each worker
        streams its shard group once for the whole batch."""
        samples = [list(buckets) for buckets in sample_buckets]
        start = time.perf_counter()
        futures = [
            self.pool.submit_to(worker, _task_step2, group, samples)
            for worker, group in enumerate(self.groups) if group
        ]
        outcomes = [future.result() for future in futures]
        wall_ms = (time.perf_counter() - start) * 1e3
        if timings is not None:
            timings.step2_wall_ms += wall_ms
            for _, st in outcomes:
                timings.merge(st)
        return gather([outputs for group, _ in outcomes for outputs in group])

    # -- introspection / lifecycle ---------------------------------------------

    @property
    def respawns(self) -> int:
        return self.pool.respawns

    def probe_workers(self) -> List[Dict[str, int]]:
        """Each worker's in-process view of the shared engine counters."""
        futures = [
            self.pool.submit_to(worker, _task_probe)
            for worker in range(self.workers)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        self.pool.shutdown(wait=True)


__all__ = ["ProcessAnalysisRunner"]
