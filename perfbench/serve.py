"""serve-cluster: samples arriving as they are sequenced, served by a cluster.

``repro cluster`` routes over two ``repro node``s (``--nodes 2 --shards
4``, statistical Step 3), each its own process.  One generator process
sends 200-read samples of 3-8 random species over two TCP connections on
a seeded Poisson schedule.  Requests are drawn from a pool of distinct
samples so the oracle is computed once per pool entry.

After an untimed warm-up that sends every pool entry once, a run
measures, in order:

- idle latency: requests one at a time, two passes over the pool,
  each bracketed by host-speed probes on both CPUs (``hostspeed.py``);
- the heavy rate, open loop, for ``--seconds``;
- in traced runs only, a closed-loop capacity probe, which gives
  ``throughput.reads_per_s``, and the fixed ladder, from the rung just
  below the probed capacity and then down while rungs miss the latency
  limit.

Request counts are fixed, so every run reports its tails at the same
percentile.  The router is pinned to CPU 0, and both nodes and the
generator to CPU 1, so the scheduler's placement of the processes does
not change a run's speed.  The mapper is bypassed here, so a mapper
change predicts no change on this workload.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Optional, Sequence

import hostspeed
import oracle
import stats
import world
from loadgen import LoadGenerator, Phase
from servers import ServerSet, env, repro_command
from spans import stage_layers

READS_PER_REQUEST = 200
SPECIES = (3, 8)
#: Distinct samples, six of each size.  The idle tail is set by the
#: pool's costliest quarter: with 24 samples sent three times each, its
#: spread between seeds was 0.09; more distinct samples steady it.
POOL = 36
SETUP_REPS = 3
CONNECTIONS = 2
#: Idle requests, one at a time: two passes over the pool, so every
#: run sends the same mix; 72 support a p75 tail (18 beyond).
IDLE_N = 2 * POOL
#: Requests per second at the heavy rate, ~35 % of the cluster's
#: closed-loop capacity on 2 CPUs (~11 req/s); at 6-8 req/s the p95
#: already crossed the 500 ms limit on some seeds.
HEAVY_RPS = 4
#: Requests per ladder rung (the verdict is on p95), and rungs at most.
LADDER_N = 30
LADDER_RUNGS = 2
#: The router (the bottleneck) gets a CPU of its own; the nodes and the
#: generator share the other, so no run depends on where the scheduler
#: happens to place them.
ROUTER_CPU = 0
NODE_CPU = 1
#: Closed-loop capacity probe: requests in flight per connection, seconds.
CAPACITY_WINDOW = 4
CAPACITY_S = 3.0


def _start_servers(index: Path, servers: ServerSet,
                   spans_dir: Optional[Path]) -> None:
    def command(name: str, args: List[str]) -> List[str]:
        out = spans_dir / f"{name}.json" if spans_dir is not None else None
        return repro_command(args, out)

    common = ["--index", str(index), "--backend", "numpy",
              "--nodes", "2", "--shards", "4"]
    nodes = [servers.spawn(f"node{i}", command(f"node{i}", [
        "node", *common, "--node-id", str(i)]), cpu=NODE_CPU)
        for i in range(2)]
    addresses = [servers.await_address(node) for node in nodes]
    router = servers.spawn("router", command("router", [
        "cluster", *common, "--abundance", "statistical", "--workers", "2",
        *[arg for host, port in addresses
          for arg in ("--node", f"{host}:{port}")]]), cpu=ROUTER_CPU)
    servers.await_address(router)


def _probe() -> float:
    """Host speed where the cluster runs: both pinned CPUs."""
    return hostspeed.probe_cpus_ms((ROUTER_CPU, NODE_CPU))


@contextmanager
def _pinned(cpu: int):
    """Run the generator on ``cpu`` (when the host has it), then let the
    process float again for the oracle's workers."""
    before = os.sched_getaffinity(0)
    if cpu < (os.cpu_count() or 1):
        os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def _setup(fasta: Path, workdir: Path, servers: ServerSet,
           spans_dir: Optional[Path]) -> float:
    """References in -> every server announced its address (seconds)."""
    index = workdir / "world.megis"
    start = time.perf_counter()
    subprocess.run(repro_command(["index", "build", str(fasta), str(index),
                                  "--k", str(world.INDEX_K)], None),
                   check=True, env=env(), cwd=workdir,
                   stdout=subprocess.DEVNULL, timeout=120)
    _start_servers(index, servers, spans_dir)
    return time.perf_counter() - start


async def _drive(address, pool, seed: int, seconds: float, trace: bool,
                 servers: ServerSet) -> Dict:
    heavy_n = max(1, round(HEAVY_RPS * seconds))
    async with LoadGenerator(address, pool, seed, CONNECTIONS) as gen:
        phases: Dict[str, Phase] = {"warmup": await gen.warm_up(2)}
        if trace:
            phases["untraced"] = await gen.sequential("untraced", IDLE_N)
            servers.signal_all(signal.SIGUSR1)
        start = time.perf_counter()
        phases["idle"] = await gen.sequential("idle", IDLE_N, probe=_probe)
        phases["heavy"] = await gen.open_loop("heavy", HEAVY_RPS, heavy_n)
        outcomes = {HEAVY_RPS: phases["heavy"].outcome()}
        if not trace:
            # The capacity probe and the ladder feed only per-layer metrics.
            return {"phases": phases, "rungs": list(outcomes.values()),
                    "request_bytes": gen.request_bytes,
                    "result_bytes": gen.result_bytes,
                    "measured_s": time.perf_counter() - start}
        capacity = await gen.closed_loop("capacity", CAPACITY_S,
                                         CAPACITY_WINDOW)
        phases["capacity"] = capacity
        completed = sum(1 for r in capacity.replies if r.ok)
        rate = stats.ladder_start(completed / capacity.wall_s)
        for _ in range(LADDER_RUNGS):
            if rate is None or rate in outcomes:
                break
            phase = await gen.open_loop(f"rung{rate}", rate, LADDER_N)
            phases[phase.name] = phase
            outcomes[rate] = phase.outcome()
            if outcomes[rate].passes:
                break
            rate = stats.next_rung(rate, up=False)
        return {"phases": phases, "rungs": list(outcomes.values()),
                "request_bytes": gen.request_bytes,
                "result_bytes": gen.result_bytes,
                "measured_s": time.perf_counter() - start}


def run(seed: int, seconds: float, trace: bool, workdir: Path,
        inject_mismatch: bool = False) -> Dict:
    from repro.sequences.io import references_to_fasta

    clock = [time.perf_counter()]

    def lap() -> float:
        clock.append(time.perf_counter())
        return clock[-1] - clock[-2]

    refs = world.references(seed)
    fasta = workdir / "references.fasta"
    fasta.write_text(references_to_fasta(refs))
    source = world.SampleSource(refs, seed, stream=2)
    pool_samples = source.stratified(POOL, READS_PER_REQUEST, *SPECIES)
    pool = [s.sequences for s in pool_samples]
    spans_dir = workdir / "spans" if trace else None
    if spans_dir is not None:
        spans_dir.mkdir()

    harness_s = {"inputs": lap()}
    # Set-up is timed SETUP_REPS times (once when traced: setup_s is an
    # end-to-end metric); the last set of servers serves.
    reps = 1 if trace else SETUP_REPS
    setup_s = []
    setup_probes = [_probe()]
    for rep in range(reps):
        servers = ServerSet(workdir)
        try:
            setup_s.append(_setup(fasta, workdir, servers,
                                  spans_dir if rep == reps - 1 else None))
            setup_probes.append(_probe())
        except BaseException:
            servers.stop()
            raise
        if rep < reps - 1:
            servers.stop()
    harness_s["setup"] = lap()
    with servers, _pinned(NODE_CPU):
        address = servers.servers[-1].address
        driven = asyncio.run(_drive(address, pool, seed, seconds, trace,
                                    servers))
        peak_rss = servers.peak_rss_mb()
        harness_s["drive"] = lap()
    harness_s["drain"] = lap()
    phases: Dict[str, Phase] = driven["phases"]
    heavy_outcome = phases["heavy"].outcome()
    if not heavy_outcome.valid:
        raise RuntimeError(
            f"heavy rung invalid: the generator sent "
            f"{heavy_outcome.lag_ms_p95:.1f} ms late (p95), over the "
            f"{stats.MAX_LAG_MS} ms bound")

    replies = [r for p in phases.values() for r in p.replies]
    want = oracle.expected("statistical", workdir / "world.megis", pool,
                           workdir)
    harness_s["oracle"] = lap()
    errors, problems = [], []
    for reply in replies:
        if not reply.ok:
            errors.append(f"{reply.request_id}: {reply.frame}")
            continue
        got = stats.comparable(reply.frame["candidates"],
                               reply.frame["profile"])
        if inject_mismatch and not problems:
            got["candidates"] = got["candidates"][1:]
        for problem in stats.mismatches(got, want[reply.pool_index])[:1]:
            problems.append(f"{reply.request_id}: {problem}")

    ok = [r for r in replies if r.ok]
    accuracy = world.accuracy([pool_samples[r.pool_index] for r in ok],
                              [r.frame for r in ok])
    idle_raw = stats.summarize(_latencies(phases["idle"]))
    idle_replies = phases["idle"].replies
    normalized = stats.host_normalized(
        [r.latency_ms for r in idle_replies], phases["idle"].probes_ms,
        hostspeed.REFERENCE_MS)
    idle = stats.summarize(
        [ms for r, ms in zip(idle_replies, normalized) if r.ok])
    heavy = stats.summarize(heavy_outcome.latencies_ms)
    capacity = phases.get("capacity")
    reads_per_s = None
    if capacity is not None:
        reads_per_s = (sum(1 for r in capacity.replies if r.ok)
                       * READS_PER_REQUEST / capacity.wall_s)
    metrics = {
        "setup_s": (median(stats.host_normalized(
            setup_s, setup_probes, hostspeed.REFERENCE_MS)), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "norm_latency_p50_ms.idle": (idle["p50"], "ms"),
        "norm_latency_tail_ms.idle": (idle["tail"], "ms"),
        "species_f1": (accuracy["species_f1"], "fraction"),
        "abundance_l1": (accuracy["abundance_l1"], "fraction"),
    }
    layers = {}
    if trace:
        layers = _layers(phases, driven, spans_dir, workdir, pool, accuracy)
        layers["throughput.reads_per_s"] = (reads_per_s, "reads/s")
        layers["serve.heavy_p50_ms"] = (heavy["p50"], "ms")
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": len(replies),
        "failed": len(errors) + len(problems),
        "mismatches": (errors + problems)[:20],
        "provenance": {
            "heavy_rps": HEAVY_RPS,
            "requests": {"idle": idle["n"], "heavy": heavy["n"]},
            "tail_percentile": {"idle": idle["tail_p"],
                                "heavy": heavy["tail_p"]},
            "heavy_ms": {"p50": heavy["p50"], "tail": heavy["tail"]},
            "idle_wall_latency_ms": {"p50": idle_raw["p50"],
                                     "tail": idle_raw["tail"]},
            "idle_probe_ms_p50": median(phases["idle"].probes_ms),
            "reads_per_s": reads_per_s,
            "rungs": [{"rate": o.rate, "n": len(o.latencies_ms) + o.failed,
                       "p95_ms": round(o.p95_ms, 3),
                       "lag_ms_p95": round(o.lag_ms_p95, 3),
                       "backlog_end": o.backlog_end, "valid": o.valid,
                       "passes": o.passes} for o in driven["rungs"]],
            "max_rate_rps": stats.max_passing_rate(driven["rungs"]),
            "measured_s": round(driven["measured_s"], 3),
            "setup_reps_s": setup_s,
            "setup_probes_ms": setup_probes,
            "pool": POOL, "reads_per_request": READS_PER_REQUEST,
            "harness_s": harness_s,
        },
    }


def _frame_layers(phases: Dict[str, Phase], driven: Dict) -> Dict:
    heavy = [r.frame for r in phases["heavy"].replies if r.ok]
    errors = [str(r.frame.get("error", "")) for p in phases.values()
              for r in p.replies if not r.ok and r.frame is not None]
    waits = [f["queue_wait_ms"] for f in heavy]
    idle = [r for r in phases["idle"].replies if r.ok]
    return {
        "serve.queue_wait_ms.p50": (stats.percentile(waits, 50), "ms"),
        "serve.queue_wait_ms.p95": (stats.percentile(waits, 95), "ms"),
        "serve.service_ms.p50": (stats.percentile(
            [f["latency_ms"] - f["queue_wait_ms"] for f in heavy], 50), "ms"),
        "serve.batch_width.mean": (mean(f["samples_batched"] for f in heavy),
                                   "samples"),
        "serve.max_rate_rps": (stats.max_passing_rate(driven["rungs"]),
                               "req/s"),
        "serve.rejected": (sum(1 for e in errors if "admission" in e
                               or "rate_limited" in e), "count"),
        "serve.expired": (sum(1 for e in errors if "deadline" in e), "count"),
        "gateway.overhead_ms.p50": (stats.percentile(
            [r.rtt_ms - r.frame["latency_ms"] for r in idle], 50), "ms"),
        "wire.request_bytes": (mean(driven["request_bytes"]), "bytes"),
        "wire.result_bytes": (mean(driven["result_bytes"]), "bytes"),
        "loadgen.lag_ms.p95": (max(o.lag_ms_p95 for o in driven["rungs"]),
                               "ms"),
        "loadgen.backlog_end": (max(o.backlog_end for o in driven["rungs"]),
                                "count"),
    }


def _latencies(phase: Phase) -> List[float]:
    return [r.latency_ms for r in phase.replies if r.ok]


def _merged_spans(spans_dir: Path):
    """Every server's spans, ids made unique across processes."""
    spans, counters = [], {}
    for k, path in enumerate(sorted(spans_dir.glob("*.json"))):
        dump = json.loads(path.read_text())
        offset = (k + 1) * 10**9
        spans.extend([s[0] + offset, s[1], s[2], s[3],
                      s[4] + offset if s[4] is not None else None,
                      s[5], s[6]] for s in dump["spans"])
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return spans, counters


def _layers(phases, driven, spans_dir: Path, workdir: Path,
            pool: Sequence[Sequence[str]], accuracy: Dict) -> Dict:
    import micro

    spans, counters = _merged_spans(spans_dir)
    n_traced = sum(1 for name, p in phases.items()
                   if name not in ("untraced", "warmup")
                   for r in p.replies if r.ok)
    untraced = stats.percentile(_latencies(phases["untraced"]), 50)
    traced = stats.percentile(_latencies(phases["idle"]), 50)
    scatters = [s for s in spans if s[1] == "cluster.scatter"]
    query = sum(s[6].get("kmers", 0) for s in spans
                if s[1] == "step1.partition")
    intersecting = sum(s[6].get("intersecting", 0) for s in scatters)
    names = {s[0]: s[1] for s in spans}
    outer = [s for s in spans if s[1] == "step2.intersect"
             and names.get(s[4]) != "step2.intersect"]
    return {
        **_frame_layers(phases, driven),
        **micro.wire_layers(workdir / "world.megis", pool),
        **stage_layers(stats.self_time_by_name(spans), max(1, n_traced),
                       spans, counters),
        "step2.hit_ratio": (intersecting / query if query else 0.0,
                            "fraction"),
        "step2.db_kmers_streamed": (
            sum(s[6].get("db_kmers", 0) for s in outer) / max(1, n_traced),
            "kmers/sample"),
        "step3.candidate_precision": (accuracy["candidate_precision"],
                                      "fraction"),
        "step3.unified_cache_hit_ratio": (0.0, "fraction"),
        "step3.species_cache_hit_ratio": (0.0, "fraction"),
        "cluster.scatter_ms.p50": (stats.percentile(
            [(s[3] - s[2]) * 1e3 for s in scatters], 50), "ms"),
        "cluster.step2_frame_bytes": (
            counters.get("cluster.step2_frame_bytes", 0)
            / max(1, counters.get("cluster.step2_frames", 0)), "bytes"),
        "cluster.retries": (counters.get("cluster.retries", 0), "count"),
        "trace.overhead_frac": (traced / untraced - 1.0, "fraction"),
        "trace.step_coverage": (0.0, "fraction"),
    }
