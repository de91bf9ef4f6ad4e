"""MCMC kernels and the chain driver for the five latent-field models.

Models: three DAG-mixture variants (spanning tree, rooted, acyclic
orientation), the pseudo-likelihood approximation (amrf), and the exact
MRF with exchange-algorithm beta updates backed by perfect sampling.

Per iteration: (1) graph update, (2) systematic z sweep, (3) beta update,
(4) noise update. Chains are deterministic functions of their seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .dags import (
    CLASS_ACYCLIC_ORIENTATION,
    CLASS_ROOTED,
    Dag,
    acyclic_orientation,
    posterior_spanning_tree,
    rooted_dag,
    uniform_spanning_tree,
)
from .graph import Nug, is_connected
from .model import (
    NoiseParams,
    Observations,
    PriorSpec,
    _as_ints,
    _balance_histogram,
    _child_tables,
    _log_site_product,
    _one_counts,
    _prob_one,
    _site_logit,
    _unit_logliks,
    eta_full_conditional_params,
    log_dgm_prior,
    pseudo_likelihood_log,  # noqa: F401  (unused here; perfbench/spans.py traces this name)
    suff_stat_T,
)

MDGM_ST = "mdgm-st"
MDGM_ROOTED = "mdgm-rooted"
MDGM_AO = "mdgm-ao"
AMRF = "amrf"
EXACT_MRF = "exact-mrf"

ALL_MODELS = (MDGM_ST, MDGM_ROOTED, MDGM_AO, AMRF, EXACT_MRF)
MDGM_MODELS = (MDGM_ST, MDGM_ROOTED, MDGM_AO)


class CoalescenceError(RuntimeError):
    """Perfect sampling hit the update cap before the chains coalesced."""


@dataclass
class Init:
    """Optional starting values; unset fields fall back to data-driven defaults.

    z may be an explicit 0/1 array or the string "random" for an
    independent fair-coin field.
    """

    beta: float | None = None
    eta: tuple | None = None
    z: object = None


@dataclass
class McmcConfig:
    iterations: int = 2000
    burn_in: int = 1000
    seed: int = 0
    model: str = MDGM_ST
    beta_proposal_sd: float = 0.05
    priors: PriorSpec = field(default_factory=PriorSpec)
    init: Init = field(default_factory=Init)
    cftp_step_cap: int = 2**20
    update_beta: bool = True
    update_eta: bool = True

    def __post_init__(self):
        if self.model not in ALL_MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {ALL_MODELS}")
        if not (0 <= self.burn_in < self.iterations):
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.beta_proposal_sd <= 0:
            raise ValueError("beta_proposal_sd must be positive")
        if self.cftp_step_cap <= 0:
            raise ValueError("cftp_step_cap must be positive")


@dataclass
class ChainState:
    z: np.ndarray
    dag: Dag | None
    beta: float
    eta: NoiseParams


class PosteriorSamples:
    """Post-burn-in draws plus acceptance bookkeeping for one chain.

    For mdgm-st, tree_edges is a (kept draws, n - 1, 2) array whose row k
    holds tree k's (child, parent) pairs in Dag.directed_edges() order.
    """

    def __init__(self, model, burn_in, iterations, beta, eta0, eta1, T, z,
                 tree_edges=None, acceptance=None, eta_stalls=0):
        self.model = model
        self.burn_in = burn_in
        self.iterations = iterations
        self.beta = np.asarray(beta, dtype=np.float64)
        self.eta0 = np.asarray(eta0, dtype=np.float64)
        self.eta1 = np.asarray(eta1, dtype=np.float64)
        self.T = np.asarray(T, dtype=np.int64)
        self.z = np.asarray(z, dtype=np.uint8)
        self.tree_edges = tree_edges
        self.acceptance = acceptance or {}
        self.eta_stalls = eta_stalls

    @property
    def record_count(self):
        return len(self.beta)

    def z_mean(self):
        """Posterior mean of the latent field per unit."""
        return self.z.mean(axis=0)

    def acceptance_rates(self):
        return {
            name: (acc / prop if prop else float("nan"))
            for name, (acc, prop) in self.acceptance.items()
        }

    def to_jsonl(self, fh):
        """Newline-delimited JSON records, then a trailing acceptance object."""
        for b in range(self.record_count):
            rec = {
                "iter": self.burn_in + b,
                "beta": float(self.beta[b]),
                "eta0": float(self.eta0[b]),
                "eta1": float(self.eta1[b]),
                "T": int(self.T[b]),
                "z": "".join("1" if v else "0" for v in self.z[b]),
            }
            if self.tree_edges is not None:
                rec["tree_edges"] = self.tree_edges[b].tolist()
            fh.write(json.dumps(rec) + "\n")
        fh.write(json.dumps({
            "acceptance": {k: [int(a), int(p)] for k, (a, p) in self.acceptance.items()},
            "eta_stalls": int(self.eta_stalls),
        }) + "\n")


def gibbs_update_z(z, nug: Nug, dag, beta, eta: NoiseParams, obs: Observations, rng, model):
    """One systematic sweep over the latent field, one uniform u_i per site.

    DAG-mixture models draw each site in ascending index from its
    DAG-posterior full conditional, z_i = 1 when u_i < P(z_i = 1 | rest).
    They keep every site's count of parents at one, n1, from one bincount
    at the start of the sweep, and when z_i flips they move n1 of each of
    i's children by one. The children come from Dag.flat_children(), so a
    site costs one read per child, and model._site_logit, the body of the
    public full conditionals, scores it.
    amrf and the exact MRF use the MRF full conditional times the unit
    likelihood, with log-odds beta * (2 n1_i - deg_i) + dll_i for n1_i
    neighbors at one and the unit's log-likelihood difference dll_i. They
    sweep class by class over Nug.color_classes(): sites in one class are
    not adjacent, so they are conditionally independent given the rest and
    a whole class updates at once, still a systematic scan. Their beta must
    be nonnegative: then the log-odds rise with n1_i, and z_i = 1 exactly
    when n1_i reaches the threshold #{k : beta * (2k - deg_i) + dll_i <=
    log u_i - log(1 - u_i)}. The heat-bath kernel shared with cftp_ising
    compares the counts against these thresholds, with no exp to overflow.
    """
    n = nug.n
    ll1, ll0 = _unit_logliks(obs.m, obs.s, eta)
    u = rng.random(n)
    if model in MDGM_MODELS:
        zz = _as_ints(z)
        dll = (ll1 - ll0).tolist()
        u = u.tolist()
        n1 = _one_counts(z, dag.edge_child, dag.edge_parent, n)
        in_degree, tables = dag.in_degree.tolist(), _child_tables(dag, beta)
        kids, offsets = dag.flat_children()
        for i, a, b, ui, dl in zip(range(n), offsets, offsets[1:], u, dll):
            ch = kids[a:b]
            logit = _site_logit(i, zz, n1, in_degree, ch, beta, tables) + dl
            zi = 1 if ui < _prob_one(logit) else 0
            if zi != zz[i]:
                zz[i] = zi
                step = 2 * zi - 1
                for k in ch:
                    n1[k] += step
        return np.array(zz, dtype=np.uint8)
    if beta < 0:
        raise ValueError("beta must be nonnegative (monotone regime)")
    classes, positions, order = nug.class_layout(1)
    width = int(nug.degrees.max(initial=0))
    count_type = np.min_scalar_type(width + 1)  # holds every count and threshold
    # beta * (2k - deg_i) + dll_i <= logit(u_i) is 2 beta k <= x_i. Counting k
    # past deg_i changes no update, since n1_i <= deg_i.
    x = special.logit(u) - (ll1 - ll0) + beta * nug.degrees
    thr = np.searchsorted(2.0 * beta * np.arange(width + 1), x[order], side="right")
    state = np.zeros(n + 1, dtype=np.uint8)  # the field in class order, then a zero pad slot
    state[positions[0]] = z
    _heat_bath_step(state, classes, thr.astype(count_type))
    return state[positions[0]]


def _heat_bath_step(state, classes, thr):
    """One heat-bath pass over the classes of a Nug.class_layout.

    state is the layout's uint8 state vector and thr its thresholds, laid
    out alike. A site takes value one when its count of neighbors at one
    reaches its threshold. Each class updates its own slice in place: one
    gather, one sum in thr's count type and one compare written through a
    boolean view.
    """
    out = state.view(np.bool_)
    for nbrs, span in classes:
        np.greater_equal(np.add.reduce(state.take(nbrs), 0, thr.dtype), thr[span], out[span])


def _draw_dag(nug: Nug, rng, class_tag, rooted_cache=None) -> Dag:
    """A draw from the class prior: a uniform root or a uniform permutation.

    rooted_cache, when given, is a per-root list whose None entries are
    built on first draw.
    """
    if class_tag == CLASS_ROOTED:
        root = int(rng.integers(nug.n))
        if rooted_cache is None:
            return rooted_dag(nug, root)
        if rooted_cache[root] is None:
            rooted_cache[root] = rooted_dag(nug, root)
        return rooted_cache[root]
    if class_tag == CLASS_ACYCLIC_ORIENTATION:
        return acyclic_orientation(nug, rng.permutation(nug.n))
    raise ValueError(f"MH DAG update is for rooted/orientation classes, not {class_tag!r}")


def mh_update_dag(z, nug: Nug, dag: Dag, beta, rng, class_tag, rooted_cache=None):
    """Independence MH move on the DAG, proposing from the class prior.

    Proposal and prior cancel (uniform root for the rooted class; uniform
    permutation for orientations), leaving the prior-likelihood ratio
    p(z|D*, beta) / p(z|D, beta). rooted_cache is as in _draw_dag.
    """
    proposal = _draw_dag(nug, rng, class_tag, rooted_cache)
    log_ratio = log_dgm_prior(z, proposal, beta) - log_dgm_prior(z, dag, beta)
    if log_ratio >= 0 or rng.random() < math.exp(log_ratio):
        return proposal, True
    return dag, False


def direct_update_st(z, nug: Nug, beta, rng) -> Dag:
    """Exact conditional draw of the spanning tree given (z, beta)."""
    return posterior_spanning_tree(nug, z, beta, rng)


def _balances(z, nug, dag, model):
    """Balance histogram of the beta MH target's latent-prior term (DAG prior or pseudo-likelihood)."""
    if model in MDGM_MODELS:
        return _balance_histogram(z, dag.edge_child, dag.edge_parent, dag.in_degree)
    if model == AMRF:
        return _balance_histogram(z, nug.arc_i, nug.arc_j, nug.degrees)
    raise ValueError(f"no random-walk beta update for model {model!r}")


def mh_update_beta(z, nug: Nug, dag, beta, rng, model, sd, priors: PriorSpec):
    """Gaussian random-walk move on beta; proposals off the prior support reject.

    The log ratio is log_dgm_prior (or pseudo_likelihood_log) at the proposal
    minus its value at beta, both scored from one balance histogram of z.
    """
    proposal = rng.normal(beta, sd)
    if not (0.0 <= proposal <= priors.beta_max):
        return beta, False
    hist, excess = _balances(z, nug, dag, model)
    log_ratio = _log_site_product(hist, excess, proposal) - _log_site_product(hist, excess, beta)
    if log_ratio >= 0 or rng.random() < math.exp(log_ratio):
        return proposal, True
    return beta, False


def exchange_update_beta_mrf(z, nug: Nug, beta, rng, sd, priors: PriorSpec,
                             step_cap=2**20):
    """Exchange-algorithm beta move for the exact MRF.

    Draws an auxiliary perfect sample z* at the proposed beta; the
    intractable normalizers cancel, leaving the log ratio
    (beta* - beta) * (T(z) - T(z*)).
    """
    proposal = rng.normal(beta, sd)
    if not (0.0 <= proposal <= priors.beta_max):
        return beta, False
    z_aux = cftp_ising(nug, proposal, rng, step_cap=step_cap)
    log_ratio = (proposal - beta) * (suff_stat_T(z, nug) - suff_stat_T(z_aux, nug))
    if log_ratio >= 0 or rng.random() < math.exp(log_ratio):
        return proposal, True
    return beta, False


def cftp_ising(nug: Nug, beta, rng, step_cap=2**20, validate=False):
    """Perfect draw from p(z) ~ exp(beta * T(z)) by coupling from the past.

    Monotone sandwich of the all-zeros and all-ones chains under shared
    single-site heat-bath updates; the two chains are stacked in one state
    vector (Nug.class_layout(2)). One uniform per (time step, vertex) is
    drawn and reused as the start time doubles backwards. A vertex of
    degree d with n1 neighbors at one takes value one when u < p1[d, n1],
    and p1 rises with n1, so each uniform is cached as the threshold
    #{k : p1[d, k] <= u} and the update becomes n1 >= threshold. Each
    doubling draws its new time steps as one block of uniforms, at most
    2**16 per generator call, and caches their thresholds in layout order,
    2n per step; the uniforms consumed are those of a step-at-a-time loop,
    up to the step where step_cap is passed. Within a time step, vertices
    are updated by independent color class (equivalent to a fixed
    systematic site order, but vectorizable), by the heat-bath kernel that
    the MRF z sweep also uses. Raises CoalescenceError when step_cap site
    updates pass without coalescence.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative (monotone regime)")
    n = nug.n
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    classes, positions, order = nug.class_layout(2)
    k = np.arange(nug.degrees.max() + 1, dtype=np.float64)
    deg = k[:, None]
    p1 = 1.0 / (1.0 + np.exp(beta * (deg - 2.0 * k)))
    p1[k > deg] = 2.0  # above the degree: never reached, never counted
    columns = p1[nug.degrees].T  # row k holds every vertex's p1 at count k
    count_type = np.min_scalar_type(len(k))  # holds every count and threshold
    chunk = max(1, 2**16 // n)  # rows of uniforms per generator call
    start = np.zeros(2 * n + 1, dtype=np.uint8)  # lower chain at zero, upper at one
    start[positions[1]] = 1
    blocks = []  # one (time steps, 2n) threshold block per doubling
    horizon = 1
    updates = 0
    while True:
        # The new steps -horizon .. -horizon // 2 - 1, earliest first, but
        # none that a step-at-a-time loop would not draw before passing step_cap.
        rows = min((horizon + 1) // 2, (step_cap - updates) // (2 * n) + 1)
        new = np.zeros((rows, n), dtype=count_type)
        for first in range(0, rows, chunk):
            u = rng.random((min(chunk, rows - first), n))
            part = new[first : first + len(u)]
            for column in columns:
                part += column <= u
        blocks.append(new[:, order])
        state = start.copy()
        for block in reversed(blocks):
            for thr in block:
                _heat_bath_step(state, classes, thr)
                # a step writes each site once, and the site keeps that value
                # to the step's end, so an order violation after any class
                # still shows here
                if validate and not (state[positions[0]] <= state[positions[1]]).all():
                    raise AssertionError("sandwich ordering violated")
                updates += 2 * n
                if updates > step_cap:
                    raise CoalescenceError(
                        f"no coalescence within {step_cap} site updates "
                        f"(beta={beta:.4g}, n={n}): reached horizon {horizon} after "
                        f"{updates} site updates; near-critical beta mixes too slowly"
                    )
        lo = state[positions[0]]
        if (lo == state[positions[1]]).all():
            return lo
        horizon *= 2


def _sample_truncated_beta(a, b, lo, hi, current, rng):
    """Beta(a, b) restricted to (lo, hi) by inverse CDF; rejection fallback.

    Returns (value, stalled). When the truncation mass underflows and
    rejection also fails, the current value is kept and stalled is True.
    """
    lo = max(lo, 0.0)
    hi = min(hi, 1.0)
    f_lo = float(special.betainc(a, b, lo))
    f_hi = float(special.betainc(a, b, hi))
    mass = f_hi - f_lo
    if mass > 1e-12:
        x = float(special.betaincinv(a, b, f_lo + rng.random() * mass))
        if lo < x < hi:
            return x, False
    for _ in range(1000):
        x = float(rng.beta(a, b))
        if lo < x < hi:
            return x, False
    return current, True


def gibbs_update_eta(obs: Observations, z, eta: NoiseParams, priors: PriorSpec, rng):
    """Draw eta1 then eta0 from their truncated Beta full conditionals.

    The eta1 > eta0 ordering is preserved by construction. Returns the new
    NoiseParams and the number of stalled components (0-2).
    """
    (a1, b1), (a0, b0) = eta_full_conditional_params(obs, z, priors)
    stalls = 0
    eta1, s = _sample_truncated_beta(a1, b1, eta.eta0, 1.0, eta.eta1, rng)
    stalls += s
    eta0, s = _sample_truncated_beta(a0, b0, 0.0, eta1, eta.eta0, rng)
    stalls += s
    return NoiseParams(eta0=eta0, eta1=eta1), stalls


def _initial_state(obs: Observations, nug: Nug, config: McmcConfig, rng,
                   class_tag, rooted_cache) -> ChainState:
    init = config.init
    if init.eta is not None:
        eta = NoiseParams(float(init.eta[0]), float(init.eta[1]))
    else:
        eta = NoiseParams(0.25, 0.75)
    beta = float(init.beta) if init.beta is not None else config.priors.beta_max / 2.0
    if not (0.0 <= beta <= config.priors.beta_max):
        raise ValueError("initial beta outside the prior support")
    if init.z is None:
        # Data-driven: units above the grand mean rating start at one.
        if obs.total > 0:
            grand = obs.s.sum() / obs.total
            with np.errstate(invalid="ignore", divide="ignore"):
                unit_mean = np.where(obs.m > 0, obs.s / np.maximum(obs.m, 1), 0.0)
            z = ((obs.m > 0) & (unit_mean > grand)).astype(np.uint8)
        else:
            z = np.zeros(nug.n, dtype=np.uint8)
    elif isinstance(init.z, str):
        if init.z != "random":
            raise ValueError(f"initial z must be a 0/1 array or 'random', got {init.z!r}")
        z = rng.integers(0, 2, size=nug.n).astype(np.uint8)
    else:
        z = np.asarray(init.z)
        if z.shape != (nug.n,):
            raise ValueError("initial z has the wrong length")
        if ((z != 0) & (z != 1)).any():
            raise ValueError("initial z must hold only 0 and 1")
        z = z.astype(np.uint8)
    if config.model == MDGM_ST:
        dag = uniform_spanning_tree(nug, rng)
    elif class_tag is not None:
        dag = _draw_dag(nug, rng, class_tag, rooted_cache)
    else:
        dag = None
    return ChainState(z=z, dag=dag, beta=beta, eta=eta)


def run_chain(obs: Observations, nug: Nug, config: McmcConfig) -> PosteriorSamples:
    """Run one MCMC chain and collect the post-burn-in draws.

    The per-iteration schedule is: graph update (mixture models only),
    systematic z sweep, beta update (random walk, or exchange for the exact
    MRF), then the truncated-Beta noise update. Deterministic given
    config.seed.
    """
    if obs.n != nug.n:
        raise ValueError(f"data cover {obs.n} units but the graph has {nug.n}")
    if nug.n == 0:
        raise ValueError("the NUG has no units")
    if not is_connected(nug):
        raise ValueError("the NUG must be connected")
    rng = np.random.default_rng(config.seed)
    model = config.model
    class_tag = {MDGM_ROOTED: CLASS_ROOTED, MDGM_AO: CLASS_ACYCLIC_ORIENTATION}.get(model)
    # A k-iteration chain draws at most k + 1 roots: build each on first use.
    rooted_cache = [None] * nug.n if model == MDGM_ROOTED else None
    state = _initial_state(obs, nug, config, rng, class_tag, rooted_cache)

    keep = config.iterations - config.burn_in
    rec_beta = np.empty(keep)
    rec_eta0 = np.empty(keep)
    rec_eta1 = np.empty(keep)
    rec_T = np.empty(keep, dtype=np.int64)
    rec_z = np.empty((keep, nug.n), dtype=np.uint8)
    rec_trees = None
    if model == MDGM_ST:
        rec_trees = np.empty((keep, nug.n - 1, 2), dtype=np.min_scalar_type(nug.n - 1))
    accept = {"beta": [0, 0]}
    if model in MDGM_MODELS:
        accept["dag"] = [0, 0]
    eta_stalls = 0

    for b in range(config.iterations):
        if model in MDGM_MODELS:
            if model == MDGM_ST:  # exact conditional draws: always accepted
                state.dag, ok = direct_update_st(state.z, nug, state.beta, rng), True
            else:
                state.dag, ok = mh_update_dag(
                    state.z, nug, state.dag, state.beta, rng, class_tag, rooted_cache
                )
            accept["dag"][0] += ok
            accept["dag"][1] += 1

        state.z = gibbs_update_z(
            state.z, nug, state.dag, state.beta, state.eta, obs, rng, model
        )

        if config.update_beta:
            if model == EXACT_MRF:
                state.beta, ok = exchange_update_beta_mrf(
                    state.z, nug, state.beta, rng,
                    config.beta_proposal_sd, config.priors, config.cftp_step_cap,
                )
            else:
                state.beta, ok = mh_update_beta(
                    state.z, nug, state.dag, state.beta, rng,
                    model, config.beta_proposal_sd, config.priors,
                )
            accept["beta"][0] += ok
            accept["beta"][1] += 1

        if config.update_eta:
            state.eta, stalls = gibbs_update_eta(obs, state.z, state.eta, config.priors, rng)
            eta_stalls += stalls

        if b >= config.burn_in:
            k = b - config.burn_in
            rec_beta[k] = state.beta
            rec_eta0[k] = state.eta.eta0
            rec_eta1[k] = state.eta.eta1
            rec_T[k] = suff_stat_T(state.z, nug)
            rec_z[k] = state.z
            if rec_trees is not None:
                rec_trees[k] = np.column_stack((state.dag.edge_child, state.dag.edge_parent))

    return PosteriorSamples(
        model=model,
        burn_in=config.burn_in,
        iterations=config.iterations,
        beta=rec_beta,
        eta0=rec_eta0,
        eta1=rec_eta1,
        T=rec_T,
        z=rec_z,
        tree_edges=rec_trees,
        acceptance={k: tuple(v) for k, v in accept.items()},
        eta_stalls=eta_stalls,
    )
