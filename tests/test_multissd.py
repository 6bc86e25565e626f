"""Tests for functional multi-SSD database partitioning (Fig 15's premise).

The range split lives in the Step-2 backends (``intersect_sharded_multi``)
and the local placement maps the per-shard kernel over the shards; these
tests pin the §6.1 claim — sharded Step 2 is bit-identical to single-SSD
Step 2 — across both backends, batched multi-sample mode, and the boundary
edge cases (empty shards, duplicated boundary k-mers, databases smaller
than the shard count).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import PhaseTimings, get_backend
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.host import KmerBucketPartitioner
from repro.megis.multissd import (
    LocalStepTwo,
    build_shards,
    split_database,
    whole_range,
)

BACKENDS = ("python", "numpy")


def sharded(database, kss, n_ssds, backend=None, **kwargs):
    """The local placement over ``n_ssds`` shards of ``database``."""
    return LocalStepTwo(build_shards(database, kss, n_ssds), backend=backend,
                        **kwargs)


def run_flat(step_two, query, timings=None):
    """Step 2 for one sorted query column spanning the key space."""
    k = step_two.shards[0].database.k
    [output] = step_two.run([whole_range(query, k)], timings)
    return output


class TestSplitDatabase:
    def test_shards_partition_the_database(self, sorted_db):
        shards = split_database(sorted_db, 4)
        combined = [x for s in shards for x in s.database.kmers]
        assert combined == sorted_db.kmers

    def test_ranges_are_contiguous_and_cover_space(self, sorted_db):
        shards = split_database(sorted_db, 3)
        assert shards[0].lo == 0
        assert shards[-1].hi == 1 << (2 * sorted_db.k)
        for a, b in zip(shards, shards[1:]):
            assert a.hi == b.lo

    def test_kmers_lie_in_their_range(self, sorted_db):
        for shard in split_database(sorted_db, 5):
            assert all(shard.lo <= x < shard.hi for x in shard.database.kmers)

    def test_balanced(self, sorted_db):
        shards = split_database(sorted_db, 4)
        sizes = [len(s.database) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_is_whole_db(self, sorted_db):
        shards = split_database(sorted_db, 1)
        assert len(shards) == 1
        assert shards[0].database.kmers == sorted_db.kmers

    def test_invalid_count(self, sorted_db):
        with pytest.raises(ValueError):
            split_database(sorted_db, 0)

    def test_owners_preserved(self, sorted_db):
        for shard in split_database(sorted_db, 3):
            for kmer in shard.database.kmers[:10]:
                assert shard.database.owners_of(kmer) == sorted_db.owners_of(kmer)

    def test_more_shards_than_kmers(self):
        database = SortedKmerDatabase(10, [5, 9], [frozenset({1}), frozenset({2})])
        shards = split_database(database, 5)
        assert [x for s in shards for x in s.database.kmers] == [5, 9]
        assert shards[0].lo == 0 and shards[-1].hi == 1 << 20
        for a, b in zip(shards, shards[1:]):
            assert a.hi == b.lo

    def test_empty_database(self):
        shards = split_database(SortedKmerDatabase(10, [], []), 3)
        assert all(len(s.database) == 0 for s in shards)
        assert shards[0].lo == 0 and shards[-1].hi == 1 << 20
        for a, b in zip(shards, shards[1:]):
            assert a.hi == b.lo

    def test_shards_share_parent_column(self, sorted_db):
        column = sorted_db.column()
        for shard in split_database(sorted_db, 4):
            shard_column = shard.database.column()
            assert shard_column.base is column or len(shard_column) == 0


class TestMultiSsdStepTwo:
    """Multi-SSD Step 2: the local placement over several shards."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_ssds", [1, 2, 4, 8])
    def test_sharded_equals_single(self, sorted_db, kss_tables, sample,
                                   backend, n_ssds):
        query = KmerBucketPartitioner(k=20, n_buckets=4).partition(
            sample.reads
        ).merged_sorted()
        intersecting = sorted_db.intersect(query)
        multi = run_flat(sharded(sorted_db, kss_tables, n_ssds, backend), query)
        assert multi[0] == intersecting
        assert multi[1] == kss_tables.retrieve(intersecting)

    def test_cross_backend_identical(self, sorted_db, kss_tables):
        query = sorted_db.kmers[::5]
        results = {
            backend: run_flat(sharded(sorted_db, kss_tables, 3, backend), query)
            for backend in BACKENDS
        }
        assert results["python"] == results["numpy"]

    def test_ndarray_query_accepted(self, sorted_db, kss_tables):
        query = sorted_db.kmers[::7]
        engine = sharded(sorted_db, kss_tables, 3, "numpy")
        from_list = run_flat(engine, query)
        from_column = run_flat(engine, np.asarray(query, dtype=np.uint64))
        assert from_list == from_column

    def test_duplicate_boundary_kmers(self, sorted_db, kss_tables):
        # A query repeating the exact shard-boundary k-mer must intersect it
        # exactly once, like the single-SSD register merge does.
        shards = split_database(sorted_db, 3)
        boundary = shards[1].lo
        query = sorted(sorted_db.kmers[::6] + [boundary, boundary])
        expected = sorted_db.intersect(sorted(set(query)))
        for backend in BACKENDS:
            multi = sharded(sorted_db, kss_tables, 3, backend)
            assert run_flat(multi, query)[0] == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_more_ssds_than_kmers(self, kss_tables, sorted_db, backend):
        small = SortedKmerDatabase(
            20, sorted_db.kmers[:3],
            [sorted_db.owners_of(x) for x in sorted_db.kmers[:3]],
        )
        query = sorted_db.kmers[:50:2]
        expected = small.intersect(query)
        multi = sharded(small, kss_tables, 8, backend)
        assert run_flat(multi, query)[0] == expected

    def test_empty_query(self, sorted_db, kss_tables):
        multi = sharded(sorted_db, kss_tables, 2)
        intersecting, retrieved = run_flat(multi, [])
        assert intersecting == []
        assert retrieved == {}

    def test_n_ssds_property(self, sorted_db, kss_tables):
        assert sharded(sorted_db, kss_tables, 4).n_ssds == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timings_threaded(self, sorted_db, kss_tables, backend):
        query = sorted_db.kmers[::4]
        multi = sharded(sorted_db, kss_tables, 3, backend, executor="threads:3")
        assert multi.backend_name == backend
        timings = PhaseTimings(backend=backend)
        intersecting, _ = run_flat(multi, query, timings)
        assert timings.db_kmers_streamed > 0
        assert timings.query_kmers_streamed > 0
        assert timings.intersect_ms > 0
        assert timings.retrieve_ms > 0
        assert timings.step2_wall_ms > 0
        assert sum(timings.channel_matches.values()) == len(intersecting)
        # The caller's timings accumulate across calls; the engine keeps none.
        streamed = timings.db_kmers_streamed
        run_flat(multi, query, timings)
        assert timings.db_kmers_streamed == 2 * streamed

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_result_invariant_in_shard_count(self, sorted_db, kss_tables, n):
        query = sorted_db.kmers[::9]
        expected = sorted_db.intersect(query)
        assert run_flat(sharded(sorted_db, kss_tables, n), query)[0] == expected


class TestMultiSsdBatchedMultiSample:
    def _samples(self, sample, backend):
        partitioner = KmerBucketPartitioner(k=20, n_buckets=6, backend=backend)
        return [
            [(b.lo, b.hi, b.kmers) for b in partitioner.partition(reads).buckets]
            for reads in (sample.reads[:150], sample.reads[150:300])
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_ssds", [1, 3])
    def test_batched_equals_single_ssd_batch(self, sorted_db, kss_tables,
                                             sample, backend, n_ssds):
        samples = self._samples(sample, backend)
        engine = get_backend(backend)
        single = [
            (partial, engine.retrieve(kss_tables, partial))
            for partial in engine.intersect_bucketed_multi(sorted_db, samples)
        ]
        multi = sharded(sorted_db, kss_tables, n_ssds, backend).run(samples)
        assert multi == single

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_streams_each_shard_once(self, sorted_db, kss_tables,
                                           sample, backend):
        samples = self._samples(sample, backend)
        timings = PhaseTimings()
        sharded(sorted_db, kss_tables, 3, backend).run(samples, timings)
        assert timings.samples_batched == 2
        # Each database k-mer streams at most once per batch regardless of
        # the batch width (shards are disjoint).
        assert timings.db_kmers_streamed <= len(sorted_db)

    def test_empty_batch(self, sorted_db, kss_tables):
        assert sharded(sorted_db, kss_tables, 2).run([]) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_sample_in_batch(self, sorted_db, kss_tables, sample, backend):
        samples = self._samples(sample, backend)
        space = 1 << 40
        samples.append([(0, space, [])])
        results = sharded(sorted_db, kss_tables, 3, backend).run(samples)
        assert results[-1][0] == []
        assert results[-1][1] == {}


class TestUint64BoundaryOverflow:
    """k = 32 puts the key-space bound (1 << 64) beyond the uint64 dtype;
    range edges must resolve positionally instead of overflowing the cast
    (NumPy 1.x would compare via float64 and drop the all-T k-mer)."""

    def test_bisect_column_beyond_dtype(self):
        from repro.backends.base import bisect_column

        column = np.array([1, 2**63, 2**64 - 1], dtype=np.uint64)
        assert bisect_column(column, 1 << 64) == 3
        assert bisect_column(column, 2**64 - 1) == 2
        assert bisect_column(column, 0) == 0

    def test_clip_buckets_keeps_top_kmer(self):
        from repro.backends.base import clip_buckets

        column = np.array([1, 2**63, 2**64 - 1], dtype=np.uint64)
        clipped = clip_buckets([(0, 1 << 64, column)], 2**63, 1 << 64)
        assert len(clipped) == 1
        lo, hi, kmers = clipped[0]
        assert (lo, hi) == (2**63, 1 << 64)
        assert [int(x) for x in kmers] == [2**63, 2**64 - 1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_k32_keeps_top_kmer(self, kss_tables, backend):
        k = 32
        kmers = [7, 2**40, 2**63, 2**64 - 1]
        database = SortedKmerDatabase(k, kmers, [frozenset({1})] * len(kmers))
        assert database.column().dtype == np.uint64
        query = kmers[:]
        multi = sharded(database, kss_tables, 3, backend)
        intersecting, _ = run_flat(multi, query)
        assert intersecting == kmers
        batched = multi.run([[(0, 1 << (2 * k), query)], [(0, 1 << (2 * k), query)]])
        assert [b[0] for b in batched] == [kmers, kmers]


class TestShardValidation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_misordered_shards_rejected(self, sorted_db, backend):
        shards = split_database(sorted_db, 3)
        triples = [(s.lo, s.hi, s.database) for s in reversed(shards)]
        with pytest.raises(ValueError):
            get_backend(backend).intersect_sharded_multi(
                triples, [whole_range(sorted_db.kmers[:10], 20)]
            )
        with pytest.raises(ValueError):
            get_backend(backend).intersect_sharded_multi(triples, [[]])
