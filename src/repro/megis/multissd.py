"""Step 2 as one per-shard kernel behind pluggable placements (§4.3, §6.1).

Because MegIS's database and queries are both sorted, the database can be
*disjointly* split across SSDs by lexicographic range; each SSD runs Step 2
independently on its shard and the host concatenates the (still sorted)
per-shard results (§6.1, Fig 15).  A single SSD is the one-shard case of
the same split.

Every Step-2 placement runs the same two pieces:

- :func:`shard_step_two` — the kernel for one shard: the backend's batched
  ``intersect_sharded_multi`` stream over the shard's database range (each
  shard is read once for the whole sample batch, §4.7), then KSS taxID
  retrieval per sample against the shard's own prefix-aligned KSS range;
- :func:`gather` — concatenation of per-shard outputs in ascending shard
  order into exactly the single-SSD result.

A placement decides *where* the kernel runs; all of them implement
:class:`StepTwoPlacement`'s ``run(sample_buckets, timings)``:

- :class:`LocalStepTwo` (here) maps shards on an
  :class:`~repro.megis.executors.Executor` in this process;
- :class:`~repro.megis.procpool.ProcessAnalysisRunner` runs shard groups
  on pinned forked workers;
- :class:`~repro.megis.cluster.router.ClusterStepTwo` scatters to remote
  cluster nodes, each running :class:`LocalStepTwo` over its shard group.

Shard handles are built once — by :func:`build_shards` here, or ahead of
time by :class:`~repro.megis.index.MegisIndex` — and reused across every
query.  Shard databases are positional column slices of the parent
(sharing its ndarray cache as zero-copy views), and each shard carries its
own KSS range (:meth:`~repro.databases.kss.KssTables.slice_range`), so an
SSD's retrieval stream is bounded to its shard rather than a full KSS copy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple, Union

from repro.backends import (
    BucketSlice,
    PhaseTimings,
    RetrievalResult,
    StepTwoBackend,
    get_backend,
)
from repro.databases.kss import KssTables
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.executors import ExecutorSpec, get_executor

#: One sample's Step-2 output: its intersecting k-mers and their owners.
StepTwoOutput = Tuple[List[int], RetrievalResult]


@dataclass
class DatabaseShard:
    """One SSD's slice of the database: a lexicographic range.

    ``kss``, when set, is this shard's prefix-aligned KSS range — what the
    SSD streams during taxID retrieval instead of a whole-KSS copy.
    """

    index: int
    lo: int
    hi: int
    database: SortedKmerDatabase
    kss: Optional[KssTables] = None


def split_database(database: SortedKmerDatabase, n_shards: int) -> List[DatabaseShard]:
    """Split a sorted database into ``n_shards`` contiguous ranges.

    Boundaries are chosen at equal k-mer counts, so shards are balanced
    regardless of how k-mers cluster in the key space.  Each shard database
    is a positional :meth:`~repro.databases.sorted_db.SortedKmerDatabase.slice`
    — the k-mer and owner columns are sliced directly, with no per-element
    ``owners_of`` lookups — and shards stay contiguous even when the
    database has fewer k-mers than shards (the extras are empty ranges).
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    kmers = database.kmers
    space = 1 << (2 * database.k)
    shards: List[DatabaseShard] = []
    prev_hi = 0
    for i in range(n_shards):
        start = len(kmers) * i // n_shards
        stop = len(kmers) * (i + 1) // n_shards
        if i == n_shards - 1 or stop >= len(kmers):
            hi = space
        else:
            hi = kmers[stop]
        shards.append(
            DatabaseShard(
                index=i, lo=prev_hi, hi=hi, database=database.slice(start, stop)
            )
        )
        prev_hi = hi
    return shards


def shard_kss(kss: KssTables, shards: Sequence[DatabaseShard]) -> None:
    """Attach each shard's KSS range slice (ROADMAP: range-sharded KSS).

    Slicing is prefix-aligned and preserves every reachable row's full
    taxID set, so per-shard retrieval stays bit-identical to a single-SSD
    pass over the whole KSS; shards that already carry a slice keep it.
    """
    for shard in shards:
        if shard.kss is None:
            shard.kss = kss.slice_range(shard.lo, shard.hi)




def build_shards(
    database: SortedKmerDatabase, kss: KssTables, n_shards: int
) -> List[DatabaseShard]:
    """Shard handles with their KSS ranges attached.

    One shard reuses ``database`` and ``kss`` themselves — a full-range
    slice would only copy them.  More shards are equal-count column
    slices of the parent, whose ndarray column is built first so every
    shard shares it as a zero-copy view.
    """
    if n_shards == 1:
        space = 1 << (2 * database.k)
        return [DatabaseShard(index=0, lo=0, hi=space, database=database, kss=kss)]
    database.column()
    shards = split_database(database, n_shards)
    shard_kss(kss, shards)
    return shards


def warm_shards(shards: Sequence[DatabaseShard], backend: StepTwoBackend) -> None:
    """Materialize what the backend's kernels read from every shard.

    Columnar backends stream the database and KSS ndarray columns; the
    reference backend walks KSS row objects and the per-level
    covered-owner caches, which an empty retrieval touches.
    """
    for shard in shards:
        if backend.columnar:
            shard.database.column()
            shard.kss.columns()
        else:
            shard.kss.retrieve([])


def whole_range(query: Sequence[int], k: int) -> List[BucketSlice]:
    """One sorted query column as a single bucket spanning the key space."""
    return [(0, 1 << (2 * k), query)]


def shard_step_two(
    shard: DatabaseShard,
    sample_buckets: Sequence[Sequence[BucketSlice]],
    backend: StepTwoBackend,
    channels: int,
    timings: PhaseTimings,
) -> List[StepTwoOutput]:
    """Step 2 on one shard for a whole batch: stream once, retrieve per sample.

    The backend clips every sample's buckets to the shard's ``[lo, hi)``
    range and streams the shard's database slice once for all of them;
    retrieval then runs per sample against the shard's KSS range.
    """
    per_sample = backend.intersect_sharded_multi(
        [(shard.lo, shard.hi, shard.database)], sample_buckets, channels, timings
    )
    return [
        (partial, backend.retrieve(shard.kss, partial, timings))
        for partial in per_sample
    ]


def gather(per_shard: Sequence[Sequence[StepTwoOutput]]) -> List[StepTwoOutput]:
    """Concatenate per-shard outputs, given in ascending shard order.

    Shards cover ascending disjoint ranges, so each sample's intersecting
    k-mers and CSR owner columns concatenate into exactly the single-SSD
    result with no per-element host work.
    """
    n_samples = len(per_shard[0]) if per_shard else 0
    return [
        (
            [kmer for outputs in per_shard for kmer in outputs[s][0]],
            RetrievalResult.concatenate([outputs[s][1] for outputs in per_shard]),
        )
        for s in range(n_samples)
    ]


class StepTwoPlacement(Protocol):
    """Where Step 2 runs: one ``(intersecting, RetrievalResult)`` per sample."""

    def run(
        self,
        sample_buckets: Sequence[Sequence[BucketSlice]],
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoOutput]:
        ...


class LocalStepTwo:
    """The local placement: shards mapped on an executor in this process.

    Each shard is an independent SSD engine (§6.1).  With a
    :class:`~repro.megis.executors.ThreadedExecutor` the shards' kernels run
    concurrently; every task owns its :class:`~repro.backends.PhaseTimings`,
    merged in shard order afterwards, so results and counter totals are
    identical to the serial dispatch while ``step2_wall_ms`` records the
    overlapped wall-clock window.
    """

    def __init__(
        self,
        shards: Sequence[DatabaseShard],
        *,
        backend: Union[str, StepTwoBackend, None] = None,
        channels: int = 8,
        executor: ExecutorSpec = None,
    ):
        if not shards:
            raise ValueError("shards must be non-empty")
        if any(shard.kss is None for shard in shards):
            raise ValueError("every shard needs its KSS range (see build_shards)")
        self.shards = list(shards)
        self.channels = channels
        self._backend = get_backend(backend)
        self._executor = get_executor(executor)

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def executor_name(self) -> str:
        return self._executor.name

    @property
    def n_ssds(self) -> int:
        return len(self.shards)

    def run(
        self,
        sample_buckets: Sequence[Sequence[BucketSlice]],
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoOutput]:
        """Batched Step 2 over every shard; one output per sample."""
        samples = [list(buckets) for buckets in sample_buckets]

        def shard_task(shard: DatabaseShard):
            st = PhaseTimings(backend=self._backend.name)
            return shard_step_two(shard, samples, self._backend, self.channels, st), st

        start = time.perf_counter()
        outcomes = self._executor.map_ordered(shard_task, self.shards)
        wall_ms = (time.perf_counter() - start) * 1e3
        if timings is not None:
            timings.step2_wall_ms += wall_ms
            for _, st in outcomes:
                timings.merge(st)
        return gather([outputs for outputs, _ in outcomes])
