"""Every serving tier reproduces the serial ``python``-backend oracle.

One pipeline (:meth:`AnalysisSession.analyze_batch`) runs on four tiers
that differ only in where Step 2 runs: inline serial, local shards on a
thread pool, pinned forked workers, and a 2-node cluster over localhost
TCP.  For batch widths 1 and 3, each tier's results must equal the serial
reference field for field — the science (intersections, sketch hits,
candidates, profile, merge statistics) and the Step-1 structural counters
— and every tier must fill the modeled §4.2.1 overlap pair.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.megis.cluster import (
    ClusterMap,
    ClusterNode,
    ClusterRouter,
    ClusterStepTwo,
    NodeEndpoint,
)
from repro.megis.index import MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig

N_SAMPLES = 3
TIERS = {
    "serial": {},
    "threads": {"executor": "threads:2", "n_ssds": 3},
    "processes": {"executor": "processes:2"},
    "cluster": {},
}


@pytest.fixture(scope="module")
def world(sorted_db, sketch_db, references, sample):
    index = MegisIndex(sorted_db, sketch_db, references)
    size = len(sample.reads) // N_SAMPLES
    samples = [
        sample.reads[i * size:(i + 1) * size] for i in range(N_SAMPLES)
    ]
    return index, samples


@pytest.fixture(scope="module")
def oracle(world):
    index, samples = world
    session = AnalysisSession(index, MegisConfig(backend="python"))
    return [session.analyze(reads) for reads in samples]


def run_batch(session, samples):
    if len(samples) == 1:
        return [session.analyze(samples[0])]
    return session.analyze_batch(samples)


def run_cluster(index, samples):
    """Two in-process nodes; the router's session scatters Step 2 to them."""
    cluster_map = ClusterMap.for_index(index, 2, 4)

    async def scenario():
        nodes = [
            ClusterNode(
                AnalysisSession(
                    index, MegisConfig(backend="numpy", n_ssds=4),
                    shard_range=cluster_map.group(node_id),
                ),
                node_id, cluster_map,
            )
            for node_id in range(cluster_map.n_nodes)
        ]
        endpoints = [
            NodeEndpoint(node_id, await node.start())
            for node_id, node in enumerate(nodes)
        ]
        try:
            session = AnalysisSession(
                index, MegisConfig(backend="numpy"),
                step_two=ClusterStepTwo(cluster_map, endpoints),
            )
            ClusterRouter(session)  # the router accepts this session as-is
            return await asyncio.get_running_loop().run_in_executor(
                None, run_batch, session.warm(), samples
            )
        finally:
            for node in nodes:
                await node.stop()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=120))


def run_tier(tier, index, samples):
    if tier == "cluster":
        return run_cluster(index, samples)
    config = MegisConfig(backend="numpy", **TIERS[tier])
    with AnalysisSession(index, config) as session:
        return run_batch(session, samples)


@pytest.mark.parametrize("width", [1, N_SAMPLES])
@pytest.mark.parametrize("tier", list(TIERS))
def test_tier_matches_serial_python_oracle(world, oracle, tier, width):
    index, samples = world
    results = run_tier(tier, index, samples[:width])
    assert len(results) == width
    for got, want in zip(results, oracle):
        assert want.candidates and want.profile.fractions
        assert got.intersecting_kmers == want.intersecting_kmers
        assert got.sketch_hits == want.sketch_hits
        assert got.candidates == want.candidates
        assert got.profile.fractions == want.profile.fractions
        assert got.merge_stats == want.merge_stats
        assert got.n_buckets == want.n_buckets
        assert got.spilled_bytes == want.spilled_bytes
        assert got.query_kmers == want.query_kmers
        assert got.transfer_batches == want.transfer_batches
        assert got.timings.samples_batched == width
        # The §4.2.1 bucket-pipeline model runs on every tier.
        assert got.timings.serialized_ms > 0
        assert got.timings.overlapped_ms > 0
