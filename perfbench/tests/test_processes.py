"""The benchmark's process discipline and its red paths.

- a failed serve run leaves no gateway or pool worker behind;
- an oracle mismatch makes ``run.py`` report ``correct: false`` and exit 1;
- without the program's sources, ``run.py`` fails without a result line.

These start real servers and sessions, so they take a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from servers import ServerSet, env, repro_command  # noqa: E402


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def tiny_index(tmp_path):
    from repro.sequences.io import references_to_fasta
    from repro.workloads.cami import CamiDiversity, make_cami_sample

    refs = make_cami_sample(CamiDiversity.MEDIUM, n_reads=0, n_genera=2,
                            species_per_genus=2, genome_length=800,
                            seed=3).references
    fasta = tmp_path / "refs.fasta"
    fasta.write_text(references_to_fasta(refs))
    index = tmp_path / "tiny.megis"
    subprocess.run(repro_command(["index", "build", str(fasta), str(index)],
                                 None), check=True, env=env(),
                   stdout=subprocess.DEVNULL, timeout=120)
    return index


def test_failed_run_leaves_no_server_behind(tmp_path, tiny_index):
    import serve

    with pytest.raises(RuntimeError, match="run failed"):
        with ServerSet(tmp_path) as servers:
            serve._start_servers(tiny_index, servers, None)
            started = list(servers.servers)
            assert [s.name for s in started] == ["node0", "node1", "router"]
            raise RuntimeError("run failed")
    for server in started:
        assert server.proc.returncode is not None
        assert not _group_alive(server.pid)


def test_forked_pool_workers_are_reaped_with_their_server(tmp_path,
                                                          tiny_index):
    with ServerSet(tmp_path) as servers:
        gateway = servers.spawn("gateway", repro_command([
            "gateway", "--index", str(tiny_index), "--backend", "numpy",
            "--abundance", "statistical", "--executor", "processes:2"], None))
        servers.await_address(gateway)
    assert gateway.proc.returncode is not None
    assert not _group_alive(gateway.pid)


def test_server_that_dies_before_announcing_is_reaped(tmp_path):
    with ServerSet(tmp_path) as servers:
        broken = servers.spawn("gateway", repro_command(
            ["gateway", "--index", str(tmp_path / "missing.megis")], None))
        with pytest.raises(RuntimeError, match="exited before announcing"):
            servers.await_address(broken)
    assert broken.proc.returncode not in (None, 0)


def test_oracle_mismatch_turns_the_run_red():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "batch-mapping",
         "--seed", "5", "--seconds", "1", "--inject-mismatch"],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "FAILED sample 0" in proc.stderr


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-cluster",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_declared_metrics_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

