"""The benchmark's own smoke test.

Runs every workload at a tiny size, traced and untraced, and checks that
each metric named in BENCHMARK.json is emitted with its unit; then checks
that the correctness gate trips on deliberately corrupted output, and that
the benchmark refuses to run without the program's sources.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from dagmix import LatticeSpec, McmcConfig, build_lattice_nug, cli, run_chain  # noqa: E402
from dagmix.experiments import ObsScheme, SimConfig, generate_dataset  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        w["name"]: w["unit"] for w in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _chain():
    lattice = LatticeSpec(4, 4, "second")
    nug = build_lattice_nug(lattice)
    data = SimConfig(lattice=lattice, beta_true=0.3, eta=0.05, obs=ObsScheme("fixed", 4),
                     models=("amrf",), mcmc=McmcConfig())
    z_true, obs = generate_dataset(data, np.random.default_rng(5), nug)
    samples = run_chain(obs, nug, McmcConfig(iterations=60, burn_in=20, model="amrf", seed=1))
    return samples, z_true, len(nug.edges)


def _verdict(samples, z_true, n_edges):
    problems, accuracy = gate.check_samples(samples, beta_max=1.0, n_edges=n_edges,
                                            z_true=z_true, expected=40)
    return problems + gate.check_accuracy([accuracy], 0.6)


@pytest.mark.parametrize("corrupt", [
    lambda s: s.beta.__setitem__(0, 1.5),             # beta outside [0, beta_max]
    lambda s: s.beta.__setitem__(3, np.nan),          # non-finite draw
    lambda s: s.eta1.__setitem__(2, s.eta0[2] / 2),   # eta1 below eta0
    lambda s: s.z.__setitem__(slice(None), 1 - s.z),  # labels swapped
])
def test_gate_trips_on_corrupted_sample(corrupt):
    samples, z_true, n_edges = _chain()
    assert _verdict(samples, z_true, n_edges) == []
    corrupt(samples)
    assert _verdict(samples, z_true, n_edges) != []


def test_gate_trips_on_truncated_fit_output(tmp_path):
    nug = build_lattice_nug(LatticeSpec(4, 4, "first"))
    edges, ratings, out = tmp_path / "edges.csv", tmp_path / "ratings.csv", tmp_path / "s.jsonl"
    edges.write_text("".join(f"{i},{j}\n" for i, j in nug.edges))
    ratings.write_text("".join(f"{i},{i % 2}\n{i},{i % 2}\n" for i in range(nug.n)))
    assert cli.main(["fit", "--graph", str(edges), "--data", str(ratings), "--model", "amrf",
                     "--iters", "30", "--burnin", "10", "--out", str(out)]) == 0
    kw = dict(n=nug.n, iterations=30, burn_in=10, beta_max=1.0, n_edges=len(nug.edges),
              z_true=np.arange(nug.n) % 2)
    assert gate.check_fit_output(out, **kw)[0] == []
    lines = out.read_text().splitlines()
    out.write_text("\n".join(lines[1:]) + "\n")
    assert gate.check_fit_output(out, **kw)[0] != []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = run_bench("study-8x8", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
