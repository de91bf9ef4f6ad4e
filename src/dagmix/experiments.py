"""Data generation, metrics, enumeration oracles, and the study harnesses.

The brute-force oracle enumerates every latent field on small graphs and
sums each mixture exactly (the spanning trees by the matrix-tree theorem,
the orientations by an order-sum over vertex subsets); sampler tests and
acceptance checks are validated against it, never the other way around.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .dags import rooted_dag
from .graph import (
    ORDER_SECOND,
    IntractableError,
    LatticeSpec,
    Nug,
    build_lattice_nug,
    count_acyclic_orientations,
    count_spanning_trees,
)
from .model import (
    NoiseParams,
    Observations,
    PriorSpec,
    _quiet_observations,
    _unit_logliks,
    pseudo_likelihood_log,
    suff_stat_T,
)
from .samplers import (
    ALL_MODELS,
    AMRF,
    EXACT_MRF,
    MDGM_AO,
    MDGM_ROOTED,
    MDGM_ST,
    Init,
    McmcConfig,
    PosteriorSamples,
    cftp_ising,
    run_chain,
)

# Stable small codes for deriving per-model RNG streams.
MODEL_CODES = {name: k for k, name in enumerate(ALL_MODELS)}

BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_LEVEL = 0.90  # bootstrap_ci's 5th to 95th percentile interval
ORACLE_MAX_N = 12  # exact_posterior_oracle enumerates 2^n fields
JOINT_ORACLE_MAX_N = 10  # joint_beta_oracle: 2^n fields at each grid point
JOINT_ORACLE_GRID = 801  # joint_beta_oracle's uniform beta grid size
PSEUDO_MASS_MAX_N = 16  # pseudo_prior_mass sums 2^n fields in Python


@dataclass(frozen=True)
class ObsScheme:
    """Ratings per unit: a fixed count m, or Poisson(lam) counts."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind == "fixed":
            if int(self.value) != self.value or self.value < 1:
                raise ValueError("fixed scheme needs an integer count >= 1")
        elif self.kind == "poisson":
            if self.value <= 0:
                raise ValueError("poisson scheme needs a positive rate")
        else:
            raise ValueError(f"unknown observation scheme {self.kind!r}")


@dataclass(frozen=True)
class SimConfig:
    """One cell of the simulation grid.

    The noise pair is parameterized by a single eta < 0.5 with
    eta0 = eta and eta1 = 1 - eta. The mcmc field is a template whose
    model, seed, and init are overridden per run.
    """

    lattice: LatticeSpec
    beta_true: float
    eta: float
    obs: ObsScheme
    models: tuple
    mcmc: McmcConfig
    replications: int = 100
    seed: int = 0
    # Optional per-model prior override, e.g. a tighter beta support for the
    # exact MRF whose perfect sampler is only practical below criticality.
    priors_by_model: tuple = ()

    def __post_init__(self):
        if not 0.0 <= self.beta_true < math.inf:
            raise ValueError("beta_true must be nonnegative and finite")
        if not (0.0 <= self.eta < 0.5):
            raise ValueError("eta must lie in [0, 0.5)")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        for m in self.models:
            if m not in ALL_MODELS:
                raise ValueError(f"unknown model {m!r}")

    @property
    def eta_pair(self):
        return (self.eta, 1.0 - self.eta)


@dataclass
class MetricsRecord:
    model: str
    posterior_mean_accuracy: float
    posterior_rmse_T: float
    elapsed: float


@dataclass(frozen=True)
class BootstrapCI:
    point: float
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.point <= self.hi):
            raise ValueError("CI bounds must bracket the point estimate")


def generate_dataset(config: SimConfig, rng, nug: Nug | None = None):
    """Draw (z_true, Observations): a perfect MRF field plus Bernoulli noise."""
    if nug is None:
        nug = build_lattice_nug(config.lattice)
    z_true = cftp_ising(nug, config.beta_true, rng, step_cap=config.mcmc.cftp_step_cap)
    if config.obs.kind == "fixed":
        m = np.full(nug.n, int(config.obs.value), dtype=np.int64)
    else:
        m = rng.poisson(config.obs.value, size=nug.n)
    eta0, eta1 = config.eta_pair
    p = np.where(z_true == 1, eta1, eta0)
    y_lists = [
        (rng.random(int(m[i])) < p[i]).astype(np.int64) if m[i] > 0 else []
        for i in range(nug.n)
    ]
    return z_true, _quiet_observations(y_lists, nug.n)


def posterior_mean_accuracy(samples: PosteriorSamples, z_true) -> float:
    """Mean over draws of the per-unit agreement rate with the truth."""
    zt = np.asarray(z_true, dtype=np.uint8)
    if samples.z.shape[1] != zt.shape[0]:
        raise ValueError("field length mismatch")
    return float((samples.z == zt).mean())


def posterior_rmse_T(samples: PosteriorSamples, z_true, nug: Nug) -> float:
    """Root mean square error of the recorded matching-pair statistic."""
    t_true = suff_stat_T(z_true, nug)
    return float(np.sqrt(np.mean((samples.T - t_true) ** 2)))


def bootstrap_ci(per_replication_stats, rng) -> BootstrapCI:
    """Resample-mean percentile interval at BOOTSTRAP_LEVEL from BOOTSTRAP_RESAMPLES resamples."""
    arr = np.asarray(per_replication_stats, dtype=np.float64)
    r = len(arr)
    if r < 2:
        raise ValueError("bootstrap needs at least two replications")
    means = arr[rng.integers(0, r, size=(BOOTSTRAP_RESAMPLES, r))].mean(axis=1)
    alpha = (1.0 - BOOTSTRAP_LEVEL) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    point = float(arr.mean())
    return BootstrapCI(point=point, lo=min(float(lo), point), hi=max(float(hi), point))


def _chain_seed(root_seed, *key):
    state = np.random.SeedSequence(root_seed, spawn_key=tuple(key)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _replicate(args):
    """One simulation replication: shared dataset, one chain per model, on the setting's Nug."""
    config, nug, setting_idx, rep_idx = args
    data_rng = np.random.default_rng(
        np.random.SeedSequence(config.seed, spawn_key=(setting_idx, rep_idx, 0))
    )
    try:
        z_true, obs = generate_dataset(config, data_rng, nug)
    except Exception as exc:  # a stalled dataset draw fails every model's cell
        msg = f"{type(exc).__name__}: {exc}"
        return setting_idx, rep_idx, {model: msg for model in config.models}
    eta0, eta1 = config.eta_pair
    prior_overrides = dict(config.priors_by_model)
    out = {}
    for model in config.models:
        seed = _chain_seed(config.seed, setting_idx, rep_idx, 1 + MODEL_CODES[model])
        priors = prior_overrides.get(model, config.mcmc.priors)
        init_beta = min(config.beta_true, priors.beta_max)
        chain_cfg = replace(
            config.mcmc,
            model=model,
            seed=seed,
            priors=priors,
            init=Init(beta=init_beta, eta=(eta0, eta1), z="random"),
        )
        t0 = time.perf_counter()
        try:
            samples = run_chain(obs, nug, chain_cfg)
        except Exception as exc:  # per-cell failures are recorded, not fatal
            out[model] = f"{type(exc).__name__}: {exc}"
            continue
        elapsed = time.perf_counter() - t0
        out[model] = MetricsRecord(
            model=model,
            posterior_mean_accuracy=posterior_mean_accuracy(samples, z_true),
            posterior_rmse_T=posterior_rmse_T(samples, z_true, nug),
            elapsed=elapsed,
        )
    return setting_idx, rep_idx, out


@dataclass
class StudyCell:
    setting_id: str
    model: str
    beta_true: float
    eta: float
    lam: float | None
    accuracy: BootstrapCI | None
    rmse_T: BootstrapCI | None
    elapsed_s: float
    replications: int
    failures: tuple = ()


def run_simulation_study(configs, threads=1) -> list:
    """Run every (setting, model) cell; returns one StudyCell per pair.

    Replications are independent chains with seeds derived from
    (setting index, replication index, model), so results do not depend on
    the worker count or scheduling order. Each setting's Nug is built once
    and shared by its replications, with what its chains cache on it.
    """
    nugs = [build_lattice_nug(cfg.lattice) for cfg in configs]
    tasks = [
        (cfg, nugs[si], si, ri)
        for si, cfg in enumerate(configs)
        for ri in range(cfg.replications)
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            raw = list(pool.map(_replicate, tasks, chunksize=1))
    else:
        raw = [_replicate(t) for t in tasks]
    metrics = {(si, ri): m for si, ri, m in raw}
    cells = []
    for si, cfg in enumerate(configs):
        lam = cfg.obs.value if cfg.obs.kind == "poisson" else None
        for model in cfg.models:
            accs, rmses, times, failures = [], [], [], []
            for ri in range(cfg.replications):
                rec = metrics[si, ri][model]
                if isinstance(rec, MetricsRecord):
                    accs.append(rec.posterior_mean_accuracy)
                    rmses.append(rec.posterior_rmse_T)
                    times.append(rec.elapsed)
                else:
                    failures.append((ri, rec))
            boot_rng = np.random.default_rng(
                np.random.SeedSequence(cfg.seed, spawn_key=(si, MODEL_CODES[model], 2))
            )
            if len(accs) == 0:
                acc_ci = rmse_ci = None
            elif len(accs) == 1:
                acc_ci = BootstrapCI(accs[0], accs[0], accs[0])
                rmse_ci = BootstrapCI(rmses[0], rmses[0], rmses[0])
            else:
                acc_ci = bootstrap_ci(accs, boot_rng)
                rmse_ci = bootstrap_ci(rmses, boot_rng)
            cells.append(StudyCell(
                setting_id=f"s{si}",
                model=model,
                beta_true=cfg.beta_true,
                eta=cfg.eta,
                lam=lam,
                accuracy=acc_ci,
                rmse_T=rmse_ci,
                elapsed_s=float(np.mean(times)) if times else float("nan"),
                replications=cfg.replications,
                failures=tuple(failures),
            ))
    return cells


STUDY_CSV_HEADER = ("setting_id,model,beta_true,eta,lambda,mean_accuracy,acc_lo,"
                    "acc_hi,mean_rmse_T,rmse_lo,rmse_hi,elapsed_s")


def study_to_csv(cells, fh):
    """Study output CSV; elapsed_s is wall time and varies across runs."""
    fh.write(STUDY_CSV_HEADER + "\n")
    for c in cells:
        lam = repr(float(c.lam)) if c.lam is not None else ""
        cis = [repr(v) for ci in (c.accuracy, c.rmse_T)
               for v in ((ci.point, ci.lo, ci.hi) if ci else (math.nan,) * 3)]
        fh.write(",".join([
            c.setting_id, c.model, repr(float(c.beta_true)), repr(float(c.eta)), lam,
            *cis, repr(round(c.elapsed_s, 3)),
        ]) + "\n")


@dataclass
class CrossValRecord:
    iteration: int
    model: str
    mae: float


def predict_rating_probability(samples: PosteriorSamples, units) -> np.ndarray:
    """Posterior mean probability of a rating of one at the given units.

    Each draw contributes eta1 where its latent value is one and eta0
    elsewhere; the result is a convex combination of the recorded noise
    rates, so it always lies inside their posterior range.
    """
    units = np.asarray(units, dtype=np.intp)
    zcol = samples.z[:, units].astype(np.float64)
    return (samples.eta1[:, None] * zcol + samples.eta0[:, None] * (1.0 - zcol)).mean(axis=0)


def cross_validate(obs: Observations, nug: Nug, holdout_count: int, iterations: int,
                   mcmc: McmcConfig, models, seed: int = 0) -> list:
    """Holdout evaluation of predicted rating probabilities.

    Each iteration withholds every rating of holdout_count randomly chosen
    rated units (the same partition for every model), refits, and scores
    the posterior mean of eta_{z_i} against the unit's observed rating
    mean by absolute error.
    """
    rated = np.flatnonzero(obs.m > 0)
    if holdout_count > len(rated):
        raise ValueError(
            f"cannot hold out {holdout_count} units; only {len(rated)} have ratings"
        )
    if holdout_count < 1:
        raise ValueError("holdout_count must be positive")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    records = []
    for t in range(iterations):
        part_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, 0)))
        held = np.sort(part_rng.choice(rated, size=holdout_count, replace=False))
        held_set = set(int(v) for v in held)
        y_train = [([] if i in held_set else obs.y[i]) for i in range(obs.n)]
        train = _quiet_observations(y_train, obs.n)
        observed_mean = obs.s[held] / obs.m[held]
        for model in models:
            cfg = replace(mcmc, model=model,
                          seed=_chain_seed(seed, t, 1 + MODEL_CODES[model]))
            samples = run_chain(train, nug, cfg)
            pred = predict_rating_probability(samples, held)
            mae = float(np.abs(pred - observed_mean).mean())
            records.append(CrossValRecord(iteration=t, model=model, mae=mae))
    return records


def crossval_to_csv(records, fh):
    fh.write("iteration,model,mae\n")
    for r in records:
        fh.write(f"{r.iteration},{r.model},{repr(r.mae)}\n")


# ---------------------------------------------------------------------------
# Brute-force enumeration oracles (small instances only)
# ---------------------------------------------------------------------------


def all_fields(n) -> np.ndarray:
    """All 2^n binary fields as a (2^n, n) uint8 matrix."""
    if n > 20:
        raise IntractableError(f"cannot enumerate 2^{n} fields")
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)


def _field_logliks(obs: Observations, eta: NoiseParams, fields) -> np.ndarray:
    ll1, ll0 = _unit_logliks(obs.m, obs.s, eta)
    return fields @ (ll1 - ll0) + ll0.sum()


def _log_prior_table(nug: Nug, fields, betas, model):
    """log p(z | beta) for every field (columns) at every beta (rows).

    Also returns the number of mixture components (None for the MRF priors).
    The MRF prior is beta * T(z) - log Z(beta); amrf shares the MRF's
    fixed-beta z posterior. The spanning-tree mixture is summed by the
    matrix-tree theorem: a tree scores 1/2 at its root and
    e^(beta * I(z_i = z_j)) / (1 + e^beta) on each edge, and the sum over
    all tau(G) trees of the edge-weight products is det L_w(z)*, a minor of
    the Laplacian with those weights, so log p(z | beta) = log det L_w(z)* -
    log tau(G) - log 2 - (n - 1) log(1 + e^beta). The orientation mixture is
    an order-sum over vertex subsets; the n rooted DAGs are summed one by
    one. Both score sites with _log_site, not the sampler's log_dgm_prior.
    """
    b = np.asarray(betas, dtype=np.float64)[:, None]
    if model in (EXACT_MRF, AMRF):
        bt = b * (fields[:, nug.edge_i] == fields[:, nug.edge_j]).sum(axis=1)
        return bt - logsumexp(bt, axis=1, keepdims=True), None
    if model == MDGM_ST:
        n_trees = count_spanning_trees(nug)
        return _log_spanning_tree_prior(nug, fields, b[:, 0], n_trees), n_trees
    ones = fields.astype(np.int64) @ (1 << np.arange(nug.n))  # each field's 1-sites as bits
    if model == MDGM_AO:
        block = max(1, (1 << 22) >> 2 * nug.n)  # betas per 2^22 floats of subset table
        rows = [_log_orientation_prior(nug, ones, b[k:k + block, :, None])
                for k in range(0, len(b), block)]
        return np.concatenate(rows), count_acyclic_orientations(nug, max_edges=len(nug.edges))
    if model != MDGM_ROOTED:
        raise ValueError(f"unknown model {model!r}")
    table = np.full((len(b), len(ones)), -np.inf)
    for r in range(nug.n):
        sites = enumerate(rooted_dag(nug, r).parents)
        log_p = sum((_log_site(b, ones, v, sum(1 << u for u in pa)) for v, pa in sites),
                    math.log(1.0 / nug.n))
        table = np.logaddexp(table, log_p)
    return table, nug.n


def _log_site(b, ones, v, parents):
    """log p(z_v | z_pa) at betas b, with fields and parent sets given as bitmasks."""
    n1 = np.bitwise_count(ones & parents)
    n0 = np.bitwise_count(parents) - n1
    return b * np.where(ones >> v & 1, n1, n0) - np.logaddexp(b * n0, b * n1)


def _log_orientation_prior(nug: Nug, ones, b):
    """mdgm-ao rows at betas b, shaped (k, 1, 1), by the order-sum over vertex subsets.

    An order gives v the parents N(v) & S, S the vertices placed before v.
    With F({}) = 1 and F(S + v) += F(S) p(z_v | z_(N(v) & S)), one subset
    size at a time, p(z | beta) = F(V) / n! (Koivisto and Sood, JMLR 2004).
    """
    n = nug.n
    nbrs = [sum(1 << u for u in nb) for nb in nug.neighbor_lists]
    subsets = np.arange(1 << n)
    sizes = np.bitwise_count(subsets)
    table = np.full((len(b), 1 << n, len(ones)), -np.inf)
    table[:, 0] = 0.0
    for k, v in itertools.product(range(n), range(n)):
        s = subsets[(sizes == k) & (subsets >> v & 1 == 0)]
        site = _log_site(b, ones, v, (nbrs[v] & s)[:, None])
        table[:, s | 1 << v] = np.logaddexp(table[:, s | 1 << v], table[:, s] + site)
    return table[:, -1] - math.lgamma(n + 1)


def _log_spanning_tree_prior(nug: Nug, fields, betas, n_trees):
    """The mdgm-st rows of _log_prior_table: one batched slogdet per beta.

    With B the signed edge-vertex incidence matrix less vertex 0's column,
    the minor of the weighted Laplacian is sum_e w_e B[e]^T B[e], so one
    matrix product builds it for every field.
    """
    n = nug.n
    incidence = (np.eye(n)[nug.edge_i] - np.eye(n)[nug.edge_j])[:, 1:]
    outer = np.einsum("ei,ej->eij", incidence, incidence).reshape(len(nug.edges), (n - 1) ** 2)
    match = fields[:, nug.edge_i] == fields[:, nug.edge_j]
    log_norm = math.log(2 * n_trees) + (n - 1) * np.logaddexp(0.0, betas)
    table = np.empty((len(betas), len(fields)))
    for k, beta in enumerate(betas):
        minors = (np.exp(beta * match) @ outer).reshape(len(fields), n - 1, n - 1)
        table[k] = np.linalg.slogdet(minors)[1] - log_norm[k]
    return table


@dataclass
class OracleResult:
    marginals: np.ndarray
    log_partition: float | None
    n_components: int | None


def exact_posterior_oracle(obs: Observations, nug: Nug, beta, eta: NoiseParams,
                           model) -> OracleResult:
    """Exact fixed-beta posterior marginals P(z_i = 1 | y) by full enumeration.

    The exact MRF and amrf share the same fixed-beta z-posterior (the
    pseudo-likelihood approximation only alters the beta update). The
    mixtures are summed exactly as in _log_prior_table; n_components is the
    number of spanning trees, rooted DAGs or acyclic orientations.
    """
    if nug.n > ORACLE_MAX_N:
        raise IntractableError(f"n={nug.n} exceeds the oracle cap {ORACLE_MAX_N}")
    fields = all_fields(nug.n)
    log_prior, n_components = _log_prior_table(nug, fields, [beta], model)
    log_w = _field_logliks(obs, eta, fields) + log_prior[0]
    w = np.exp(log_w - log_w.max())
    log_partition = None
    if n_components is None:
        # The all-zero field matches on every edge: log p = beta * |E| - log Z.
        log_partition = beta * len(nug.edges) - float(log_prior[0, 0])
    return OracleResult(
        marginals=(w @ fields) / w.sum(),
        log_partition=log_partition,
        n_components=n_components,
    )


def pseudo_prior_mass(nug: Nug, beta) -> float:
    """Sum over all fields of the exponentiated pseudo-likelihood.

    Equals 1 at beta = 0 and deviates from 1 for beta > 0; the
    pseudo-likelihood is not a probability distribution.
    """
    if nug.n > PSEUDO_MASS_MAX_N:
        raise IntractableError(f"n={nug.n} exceeds the enumeration cap {PSEUDO_MASS_MAX_N}")
    fields = all_fields(nug.n)
    return float(sum(math.exp(pseudo_likelihood_log(z, nug, beta)) for z in fields))


@dataclass
class BetaOracle:
    grid: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    z_marginals: np.ndarray

    def cdf_at(self, x):
        return np.interp(x, self.grid, self.cdf)


def joint_beta_oracle(obs: Observations, nug: Nug, eta: NoiseParams, model,
                      priors: PriorSpec) -> BetaOracle:
    """Quadrature oracle for chains with free beta and z at fixed eta.

    Returns the exact beta-posterior density/CDF on a uniform grid over the
    prior support and the beta-integrated latent marginals (trapezoid
    quadrature over the grid), for the exact MRF and the three mixtures.
    amrf has no joint target: its z sweep uses the MRF full conditionals and
    its beta move targets exp(pseudo-likelihood), and no joint distribution
    has both as its conditionals.
    """
    if model == AMRF:
        raise ValueError(f"{AMRF!r} has no joint (beta, z) target: its z and beta "
                         "moves use the MRF conditionals and the pseudo-likelihood")
    if nug.n > JOINT_ORACLE_MAX_N:
        raise IntractableError(f"n={nug.n} exceeds the oracle cap {JOINT_ORACLE_MAX_N}")
    fields = all_fields(nug.n)
    grid = np.linspace(0.0, priors.beta_max, JOINT_ORACLE_GRID)
    log_prior, _ = _log_prior_table(nug, fields, grid, model)
    log_w = _field_logliks(obs, eta, fields) + log_prior
    # Uniform beta prior: posterior density over beta is total mass, normalized.
    w = np.exp(log_w - log_w.max())
    density = w.sum(axis=1)
    norm = np.trapezoid(density, grid)
    pdf = density / norm
    cdf = np.concatenate([[0.0], np.cumsum(
        0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid)
    )])
    cdf = np.clip(cdf / cdf[-1], 0.0, 1.0)
    z_marginals = np.trapezoid(w @ fields, grid, axis=0) / norm
    return BetaOracle(grid=grid, pdf=pdf, cdf=cdf, z_marginals=z_marginals)


MAX_SWEEP_WIDTH = 20  # mrf_log_partition carries 2^w doubles of mass


def mrf_log_partition(spec: LatticeSpec, beta) -> float:
    """log Z(beta) = log sum_z exp(beta * T(z)) on a lattice of either order, exactly.

    The row-sweep transfer recursion (Bartolucci and Besag, Biometrika 2002;
    Reeves and Pettitt, Biometrika 2004) visits the cells row by row along
    the shorter side, carrying the mass of every value of the last w cells
    (w = short side, plus one at second order; bit d - 1 of a state is the
    cell d places back). Each cell multiplies in e^beta per match with its
    neighbours behind it, the oldest cell is summed out, and the mass is
    rescaled to 1. Past w = MAX_SWEEP_WIDTH it raises IntractableError before
    allocating; at the cap the factor tables per kind of cell need ~140 MB.
    """
    cols, rows = sorted((spec.rows, spec.cols))
    second = spec.order == ORDER_SECOND
    width = cols + second
    if width > MAX_SWEEP_WIDTH:
        raise IntractableError(f"sweep width {width} exceeds the cap {MAX_SWEEP_WIDTH}")
    state, half = np.arange(2**width, dtype=np.uint32), 2**(width - 1)
    mass = np.full(2**width, 0.5**width)  # the w cells before the first are free
    factors = {}  # per set of neighbour offsets: (new value, state) -> e^(beta * matches - shift)
    log_z = 0.0
    for r, c in itertools.product(range(rows), range(cols)):
        up = r > 0
        back = tuple(d for d, here in ((1, c > 0), (cols, up), (cols + 1, second and up and c > 0),
                                       (cols - 1, second and up and c < cols - 1)) if here)
        shift = max(beta, 0.0) * len(back)  # keeps every factor at most 1
        if back not in factors:
            ones = sum(((state >> (d - 1)) & 1 for d in back), np.zeros_like(state))
            factors[back] = np.exp(beta * np.stack((len(back) - ones, ones)) - shift)
        both = factors[back] * mass
        mass = np.empty((half, 2))  # the new cell is bit 0; the top bit is summed out
        np.add(both[:, :half], both[:, half:], out=mass.T)
        total = mass.sum()
        log_z += math.log(total) + shift
        mass = mass.ravel() / total
    return log_z


def total_variation(p, q) -> float:
    """TV distance between two probability vectors over the same support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return 0.5 * float(np.abs(p - q).sum())


def ks_distance(samples, oracle: BetaOracle) -> float:
    """Kolmogorov-Smirnov distance between draws and the oracle beta CDF."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(xs)
    f = oracle.cdf_at(xs)
    upper = np.abs(np.arange(1, n + 1) / n - f)
    lower = np.abs(np.arange(0, n) / n - f)
    return float(np.maximum(upper, lower).max())
