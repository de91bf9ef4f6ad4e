"""The three benchmark workloads: set-up and one operation at a time.

Every workload builds its inputs from the run seed alone, drives dagmix
through a public entry point (``run_simulation_study``, ``run_chain`` or
``dagmix.cli.main``) and gates every chain with ``gate``.

Chains start at the true beta and move it with a 0.0002 proposal sd. The
exact-MRF exchange move draws one perfect sample at the proposed beta, and
near second-order criticality that draw's cost doubles with every 0.05 of
beta: with the default 0.05 sd, ms per iteration of one exact-mrf chain
ranged from 1.8 to 49 across datasets at 16x16. Holding beta near a fixed
value keeps every move's work (the MH and exchange ratios, the CFTP draw)
while making it independent of where the random walk happens to go.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dagmix import cli, experiments, graph, samplers
from dagmix.experiments import ObsScheme, SimConfig
from dagmix.graph import LatticeSpec
from dagmix.model import PriorSpec
from dagmix.samplers import ALL_MODELS, EXACT_MRF, Init, McmcConfig

import gate

OUT_DIR = Path(__file__).resolve().parent / "out"

BETA_SD = 0.0002
CFTP_CAP = 2**24
EXACT_BETA_MAX = 0.45  # criterion 9's truncation of the exact-MRF prior
CALIBRATION_S = 0.010  # what the calibration loop takes at the reference speed


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of interpreter and numpy work.

    The work imitates dagmix's kernels: a loop over neighbour lists with
    float arithmetic, like the z sweep and the priors, and small numpy calls
    on a padded neighbour matrix, like the CFTP sweep. It never changes, so
    its time tracks only how fast the machine runs this process.
    """
    nbrs = [[(i + d) % 64 for d in (1, 7, 8, 9)] for i in range(64)]
    z = [i % 2 for i in range(64)]
    mat = np.array(nbrs, dtype=np.intp)
    state = np.zeros(65)
    u = np.linspace(0.0, 1.0, 64)
    t0 = time.perf_counter()
    x = 0.0
    for _ in range(100):
        for i in range(64):
            n1 = 0
            for j in nbrs[i]:
                n1 += z[j]
            x += 0.3 * (2 * n1 - 4) - math.log1p(math.exp(-0.3 * n1))
        for _ in range(10):
            n1 = state[mat].sum(axis=1)
            state[:64] = u < 1.0 / (1.0 + np.exp(0.3 * (4.0 - 2.0 * n1)))
    return time.perf_counter() - t0


def calibrate(times=3) -> list:
    return [calibration_loop() for _ in range(times)]


def speed(calibration_times) -> float:
    """How fast the machine ran, relative to the reference speed.

    On a shared machine that speed drifts by a third within minutes;
    multiplying a wall time by the speed measured just before and just after
    it gives its time at the reference speed, which makes runs taken at
    different moments comparable.
    """
    return CALIBRATION_S / statistics.median(calibration_times)


def beta_max_for(model):
    return EXACT_BETA_MAX if model == EXACT_MRF else PriorSpec().beta_max


def derive_seed(seed, *key) -> int:
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


@dataclass
class Chain:
    """One operation: a chain, or one ``dagmix fit`` in the CLI workload."""

    model: str
    round: int
    seconds: float
    iterations: int
    error: str | None = None
    problems: list | None = None  # None until the gate has run
    accuracy: float | None = None
    output_bytes: int = 0
    speed: float | None = None  # machine speed around this operation

    @property
    def ok(self):
        return self.error is None and self.problems == []


@dataclass
class Task:
    """What one task returns: its chains and its own wall time.

    ``seconds`` excludes any calibration done inside the task. ``speed`` is
    set by the caller from calibrations around the task; it also applies to
    every chain that has no speed of its own.
    """

    chains: list
    seconds: float
    reps: int = 0  # replications inside the task (study calls only)
    speed: float | None = None

    def scaled_seconds(self):
        """Wall time at the reference speed: each chain scaled by its own
        speed, the rest of the task by the task's."""
        return self.seconds * self.speed + sum(
            c.seconds * (c.speed - self.speed) for c in self.chains)


def _op(tracer, kind, **meta):
    return tracer.op(kind, **meta) if tracer is not None else nullcontext()


def accuracy_floor(smoke):
    """Floor on a model's mean posterior-mean accuracy over a run's chains.

    A sampler that ignores the data scores 0.5 and a label-swapped one less;
    chains of these workloads mostly score 0.65 to 0.8. Smoke runs keep so
    few draws on so few units that no floor is applied.
    """
    return 0.0 if smoke else 0.55


class StudyWorkload:
    """run_simulation_study on the shape of criterion 9, two replications a call."""

    name = "study-8x8"
    models = ALL_MODELS
    schedule = (None,)  # every task is one study call over all models

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.floor = accuracy_floor(smoke)
        side, self.iterations, self.burn_in = (3, 8, 4) if smoke else (8, 200, 100)
        self.lattice = LatticeSpec(side, side, "second")
        self.n_edges = len(graph.build_lattice_nug(self.lattice).edges)
        self.template = McmcConfig(iterations=self.iterations, burn_in=self.burn_in,
                                   beta_proposal_sd=BETA_SD, cftp_step_cap=CFTP_CAP)
        self.reps = 2

    def run_task(self, k, tracer):
        config = SimConfig(
            lattice=self.lattice, beta_true=0.3, eta=0.2, obs=ObsScheme("fixed", 2),
            models=self.models, mcmc=self.template, replications=self.reps,
            seed=derive_seed(self.seed, k),
            priors_by_model=((EXACT_MRF, PriorSpec(beta_max=EXACT_BETA_MAX)),),
        )
        chains = []
        run_chain = experiments.run_chain
        accuracy = experiments.posterior_mean_accuracy

        calibration_s = 0.0

        # The study hides its chains, so hook the two names _replicate looks
        # up: run_chain to time each chain, posterior_mean_accuracy (called
        # right after with the same samples and z_true) to gate it. A study
        # call lasts seconds, over which the machine's speed moves, so each
        # chain is calibrated on its own; the calibration time is taken out
        # of the call's time.
        def timed_chain(obs, nug, cfg):
            nonlocal calibration_s
            chain = Chain(cfg.model, k, 0.0, cfg.iterations)
            chains.append(chain)
            t0 = time.perf_counter()
            before = calibrate(2)
            t1 = time.perf_counter()
            try:
                return run_chain(obs, nug, cfg)
            except Exception as exc:
                chain.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                t2 = time.perf_counter()
                chain.seconds = t2 - t1
                chain.speed = speed(before + calibrate(2))
                calibration_s += t1 - t0 + time.perf_counter() - t2

        def gated_accuracy(samples, z_true):
            chain = chains[-1]
            chain.problems, chain.accuracy = gate.check_samples(
                samples, beta_max=beta_max_for(chain.model), n_edges=self.n_edges,
                z_true=z_true, expected=self.iterations - self.burn_in)
            return accuracy(samples, z_true)

        experiments.run_chain = timed_chain
        experiments.posterior_mean_accuracy = gated_accuracy
        try:
            with _op(tracer, "study", reps=self.reps):
                t0 = time.perf_counter()
                cells = experiments.run_simulation_study([config], threads=1)
                seconds = time.perf_counter() - t0 - calibration_s
        finally:
            experiments.run_chain = run_chain
            experiments.posterior_mean_accuracy = accuracy
        # A failed dataset draw fails its replication's chains before they start.
        for cell in cells:
            started = sum(1 for c in chains if c.model == cell.model and c.error)
            for _, msg in cell.failures[started:]:
                chains.append(Chain(cell.model, k, 0.0, self.iterations, error=msg))
        return Task(chains, seconds, reps=self.reps)

    def close(self):
        pass


class FitWorkload:
    """run_chain for every model on one 16x16 second-order dataset, new seeds each round."""

    name = "fit-16x16"
    models = ALL_MODELS
    schedule = ALL_MODELS

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.floor = accuracy_floor(smoke)
        side, self.iterations, self.burn_in = (4, 8, 4) if smoke else (16, 100, 50)
        lattice = LatticeSpec(side, side, "second")
        self.nug = graph.build_lattice_nug(lattice)
        data = SimConfig(lattice=lattice, beta_true=0.3, eta=0.2, obs=ObsScheme("fixed", 2),
                         models=self.models, mcmc=McmcConfig(cftp_step_cap=CFTP_CAP))
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        self.z_true, self.obs = experiments.generate_dataset(data, rng, self.nug)

    def run_task(self, k, tracer):
        rnd, model = k // len(self.schedule), self.schedule[k % len(self.schedule)]
        beta_max = beta_max_for(model)
        config = McmcConfig(
            iterations=self.iterations, burn_in=self.burn_in, model=model,
            seed=derive_seed(self.seed, 1, k), beta_proposal_sd=BETA_SD,
            priors=PriorSpec(beta_max=beta_max), init=Init(beta=0.3),
            cftp_step_cap=CFTP_CAP,
        )
        chain = Chain(model, rnd, 0.0, self.iterations)
        samples = None
        with _op(tracer, "chain", model=model):
            t0 = time.perf_counter()
            try:
                samples = samplers.run_chain(self.obs, self.nug, config)
            except Exception as exc:
                chain.error = f"{type(exc).__name__}: {exc}"
            chain.seconds = time.perf_counter() - t0
        if samples is not None:
            chain.problems, chain.accuracy = gate.check_samples(
                samples, beta_max=beta_max, n_edges=len(self.nug.edges),
                z_true=self.z_true, expected=self.iterations - self.burn_in)
        return Task([chain], chain.seconds)

    def close(self):
        pass


class CliWorkload:
    """``dagmix fit`` through cli.main on an edge-list file and a ratings file."""

    name = "fit-32x32-cli"
    models = ALL_MODELS
    # The rooted model's fit is dominated by building 1024 rooted DAGs (about
    # 6 s); the others take about 1 s. Running the cheap fits twice per rooted
    # fit gives every model two or more fits spread over the measured window.
    schedule = ("mdgm-st", "mdgm-ao", "amrf", "exact-mrf") * 2 + ("mdgm-rooted",)
    beta_max = 1.2  # chains start at beta_max / 2 = beta_true

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.floor = accuracy_floor(smoke)
        side, self.iterations, self.burn_in = (5, 8, 4) if smoke else (32, 30, 10)
        lattice = LatticeSpec(side, side, "first")
        nug = graph.build_lattice_nug(lattice)
        self.n, self.n_edges = nug.n, len(nug.edges)
        data = SimConfig(lattice=lattice, beta_true=0.6, eta=0.2,
                         obs=ObsScheme("poisson", 1.0), models=self.models,
                         mcmc=McmcConfig(cftp_step_cap=CFTP_CAP))
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        self.z_true, obs = experiments.generate_dataset(data, rng, nug)
        self.dir = OUT_DIR / f"work-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.graph_path = self.dir / "edges.csv"
        self.data_path = self.dir / "ratings.csv"
        graph.save_nug(nug, self.graph_path)
        with open(self.data_path, "w", encoding="utf-8") as fh:
            for i, ys in enumerate(obs.y):
                fh.writelines(f"{i},{int(v)}\n" for v in ys)

    def run_task(self, k, tracer):
        rnd, model = k // len(self.schedule), self.schedule[k % len(self.schedule)]
        out = self.dir / f"fit-{model}.jsonl"
        argv = ["fit", "--graph", str(self.graph_path), "--data", str(self.data_path),
                "--model", model, "--iters", str(self.iterations),
                "--burnin", str(self.burn_in), "--beta-max", str(self.beta_max),
                "--beta-sd", str(BETA_SD), "--cftp-cap", str(CFTP_CAP),
                "--seed", str(derive_seed(self.seed, 1, k)), "--out", str(out)]
        chain = Chain(model, rnd, 0.0, self.iterations)
        with _op(tracer, "fit", model=model):
            t0 = time.perf_counter()
            code = cli.main(argv)
            chain.seconds = time.perf_counter() - t0
        if code != 0:
            chain.error = f"dagmix fit exited with code {code}"
        else:
            chain.problems, chain.accuracy = gate.check_fit_output(
                out, n=self.n, iterations=self.iterations, burn_in=self.burn_in,
                beta_max=self.beta_max, n_edges=self.n_edges, z_true=self.z_true)
            chain.output_bytes = sum(
                os.path.getsize(f"{out}{suffix}")
                for suffix in ("", ".zmean.csv", ".idmap.json", ".manifest.json"))
        return Task([chain], chain.seconds)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (StudyWorkload, FitWorkload, CliWorkload)}
