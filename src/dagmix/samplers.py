"""MCMC kernels and the chain driver for the five latent-field models.

Models: three DAG-mixture variants (spanning tree, rooted, acyclic
orientation), the pseudo-likelihood approximation (amrf), and the exact
MRF: exact-likelihood beta moves on narrow graphs, else exchange and CFTP.

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
    Dag,
    acyclic_orientation,
    posterior_spanning_tree,
    rooted_dag,
    uniform_spanning_tree,
)
from .graph import IntractableError, Nug, density_of_states, is_connected
from .model import (
    NoiseParams,
    Observations,
    PriorSpec,
    _balance_histogram,
    _log_site_product,
    _site_codes,
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


CFTP_STEP_CAP = 2**20  # default site-update cap for one perfect draw


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
    cftp_step_cap: int = CFTP_STEP_CAP
    update_beta: bool = True
    update_eta: bool = True

    def __post_init__(self):
        if self.model not in ALL_MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {ALL_MODELS}")
        if not (0 <= self.burn_in < self.iterations):
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if not 0 < self.beta_proposal_sd < math.inf:
            raise ValueError("beta_proposal_sd must be positive and finite")
        if self.cftp_step_cap <= 0:
            raise ValueError("cftp_step_cap must be positive")


class PosteriorSamples:
    """Post-burn-in draws plus acceptance bookkeeping for one chain.

    For mdgm-st, tree_edges is a (kept draws, n - 1, 2) array whose row k
    holds tree k's (child, parent) pairs in Dag.directed_edges() order.
    For exact-mrf past density_of_states' cap, cftp_horizons counts the
    chain's CFTP horizons over all iterations, burn-in included: entry k
    counts horizon 2**k, recorded where a draw coalesced, or H / 2 when it
    coalesced at its start H > 1 (see cftp_ising); otherwise it is None.
    """

    def __init__(self, model, burn_in, iterations, beta, eta0, eta1, T, z,
                 tree_edges=None, acceptance=None, eta_stalls=0, cftp_horizons=None):
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
        self.cftp_horizons = cftp_horizons

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
        """Newline-delimited JSON records, then a trailing acceptance object.

        With cftp_horizons set, the trailer also maps each recorded CFTP
        horizon to its count, as {"<horizon>": count}.
        """
        for b in range(self.record_count):
            rec = {
                "iter": self.burn_in + b,
                "beta": float(self.beta[b]),
                "eta0": float(self.eta0[b]),
                "eta1": float(self.eta1[b]),
                "T": int(self.T[b]),
                "z": (self.z[b] + 48).tobytes().decode(),  # 48 is ord("0")
            }
            line = json.dumps(rec)
            if self.tree_edges is not None:  # json.dumps's text, with no list per pair
                child, parent = self.tree_edges[b].T.tolist()
                pairs = ", ".join(map("[{}, {}]".format, child, parent))
                line = f'{line[:-1]}, "tree_edges": [{pairs}]}}'
            fh.write(line + "\n")
        trailer = {
            "acceptance": {k: [int(a), int(p)] for k, (a, p) in self.acceptance.items()},
            "eta_stalls": int(self.eta_stalls),
        }
        if self.cftp_horizons is not None:
            trailer["cftp_horizons"] = {
                str(1 << k): int(c) for k, c in enumerate(self.cftp_horizons) if c}
        fh.write(json.dumps(trailer) + "\n")


def gibbs_update_z(z, nug: Nug, dag, beta, eta: NoiseParams, obs: Observations, rng):
    """One systematic sweep over the latent field, one uniform u_i per site.

    Site i takes value one when its prior log-odds exceed x_i = logit(u_i) -
    dll_i, with dll_i the unit's log-likelihood difference: that is when u_i
    < P(z_i = 1 | rest). One numpy call computes every x_i, and no site
    needs an exp. Given a DAG (the mixture models), the sweep visits sites
    in ascending index, and model._site_logit, the body of the public full
    conditionals, gives the log-odds from per-sweep tables and one integer
    code per site (model._site_codes: z_i and its parents at one). When z_i
    flips, its code moves by step and each child's by 2. The children come
    from Dag.flat_children(), so a site costs one lookup and add per child.
    With dag None (amrf and the exact MRF) the log-odds are beta * (2 n1_i -
    deg_i) for n1_i neighbors at one. That sweep goes class by class over
    Nug.color_classes(): sites in one class are not adjacent, so they are
    conditionally independent given the rest and a whole class updates at
    once, still a systematic scan. Its beta must be nonnegative: then the
    log-odds rise with n1_i, and z_i = 1 exactly when n1_i reaches the
    threshold #{k : beta * (2k - deg_i) <= x_i}. The heat-bath kernel shared
    with cftp_ising compares the counts against these thresholds.
    """
    n = nug.n
    ll1, ll0 = _unit_logliks(obs.m, obs.s, eta)
    x = special.logit(rng.random(n)) - (ll1 - ll0)
    if dag is not None:
        codes, tables, step = _site_codes(z, dag.edge_child, dag.edge_parent, dag.in_degree, beta)
        kids, offsets = dag.flat_children()
        for i, a, b, xi in zip(range(n), offsets, offsets[1:], x.tolist()):
            ch = kids[a:b]
            zi = codes[i] >= step
            if (_site_logit(i, zi, codes, ch, tables) > xi) != zi:
                codes[i] += -step if zi else step
                move = 2 if zi else -2
                for k in ch:
                    codes[k] += move
        return (np.array(codes) >= step).view(np.uint8)
    if beta < 0:
        raise ValueError("beta must be nonnegative (monotone regime)")
    classes, positions, order = nug.class_layout(1)
    width = int(nug.degrees.max(initial=0))
    count_type = np.min_scalar_type(width + 1)  # holds every count and threshold
    # beta * (2k - deg_i) <= x_i is 2 beta k <= x_i + beta * deg_i. Counting k
    # past deg_i changes no update, since n1_i <= deg_i.
    x = x + beta * nug.degrees
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


def _dag_prior(nug: Nug, model):
    """The chain's draw from its DAG-class prior, as draw(rng); None for amrf and exact-mrf.

    mdgm-st draws a uniform spanning tree, mdgm-ao orients the NUG by a
    uniform vertex permutation and mdgm-rooted takes the DAG of a uniform
    root. The rooted draw keeps the chain's own per-root cache and builds a
    root's DAG on first use: a k-iteration chain draws at most k + 1 roots,
    while every root's DAG at 32x32 first order takes about 144 MB, so the
    cache is not kept on the Nug. Each draw looks up this module's builders
    when called, so a tracer or test that patches them sees every call.
    """
    if model == MDGM_ST:
        return lambda rng: uniform_spanning_tree(nug, rng)
    if model == MDGM_AO:
        return lambda rng: acyclic_orientation(nug, rng.permutation(nug.n))
    if model != MDGM_ROOTED:
        return None
    cache = [None] * nug.n

    def draw(rng):
        root = int(rng.integers(nug.n))
        if cache[root] is None:
            cache[root] = rooted_dag(nug, root)
        return cache[root]

    return draw


def mh_update_dag(z, dag: Dag, beta, rng, propose):
    """Independence MH move on the DAG, proposing propose(rng).

    propose is the chain's draw from its DAG-class prior (_dag_prior: a
    uniform root or a uniform permutation). Proposal and prior cancel,
    leaving the prior-likelihood ratio p(z|D*, beta) / p(z|D, beta).
    """
    proposal = propose(rng)
    log_ratio = log_dgm_prior(z, proposal, beta) - log_dgm_prior(z, dag, beta)
    if log_ratio >= 0 or rng.random() < math.exp(log_ratio):
        return proposal, True
    return dag, False


def direct_update_st(z, nug: Nug, beta, rng) -> Dag:
    """Exact conditional draw of the spanning tree given (z, beta)."""
    return posterior_spanning_tree(nug, z, beta, rng)


def mh_update_beta(z, nug: Nug, dag, beta, rng, sd, priors: PriorSpec, dos=None):
    """Gaussian random-walk move on beta; proposals off the prior support reject.

    The log ratio is log_dgm_prior at the proposal minus its value at beta,
    or pseudo_likelihood_log's when dag is None (amrf), both scored from one
    balance histogram of z over the DAG's parent arcs or the NUG's arcs.
    Given dos, the density of states (exact-mrf), the log density is beta T(z) - log Z(beta).
    """
    proposal = rng.normal(beta, sd)
    if not (0.0 <= proposal <= priors.beta_max):
        return beta, False
    if dos is not None:  # Z(b) e^(-b |E|) = sum_T dos[T] e^(b (T - |E|)) is in [1, 2^n]
        num, den = np.exp(np.outer((proposal, beta), np.arange(1 - len(dos), 1))) @ dos
        log_ratio = (proposal - beta) * (suff_stat_T(z, nug) + 1 - len(dos)) - math.log(num / den)
    else:
        arcs = (nug.arc_i, nug.arc_j, nug.degrees) if dag is None else (
            dag.edge_child, dag.edge_parent, dag.in_degree)
        hist, excess = _balance_histogram(z, *arcs)
        log_ratio = (_log_site_product(hist, excess, proposal)
                     - _log_site_product(hist, excess, beta))
    if log_ratio >= 0 or rng.random() < math.exp(log_ratio):
        return proposal, True
    return beta, False


def exchange_update_beta_mrf(z, nug: Nug, beta, rng, sd, priors: PriorSpec,
                             step_cap=CFTP_STEP_CAP, horizons=None):
    """Exchange-algorithm beta move for the exact MRF.

    Draws an auxiliary perfect sample z* at the proposed beta; the
    intractable normalizers cancel, leaving the log ratio
    (beta* - beta) * (T(z) - T(z*)). horizons is the chain's
    HorizonHistogram, passed on to cftp_ising: the draw starts at its
    start() and adds its own horizon to it. A proposal off the prior support draws no
    z* and leaves the histogram alone.
    """
    proposal = rng.normal(beta, sd)
    if not (0.0 <= proposal <= priors.beta_max):
        return beta, False
    z_aux = cftp_ising(nug, proposal, rng, step_cap=step_cap, horizons=horizons)
    log_ratio = (proposal - beta) * (suff_stat_T(z, nug) - suff_stat_T(z_aux, nug))
    if log_ratio >= 0 or rng.random() < math.exp(log_ratio):
        return proposal, True
    return beta, False


class HorizonHistogram:
    """CFTP coalescence horizons of a chain's exchange draws, per power of two.

    counts[k] counts the draws that recorded horizon 2**k over the whole
    chain. recent holds the same entries but forgets: once it sums past
    WINDOW, every entry halves (rounding down). Its lower median is the
    next draw's start, so the start follows beta as it drifts rather than
    staying near horizons recorded far back, such as during burn-in.
    """

    WINDOW = 16

    def __init__(self, counts=()):
        self.counts = list(counts)
        self.recent = list(counts)

    def start(self):
        """Lower median of the recent horizons; 1 when there are none."""
        total = sum(self.recent)
        seen = 0
        for k, count in enumerate(self.recent):
            seen += count
            if total and 2 * seen >= total:
                return 1 << k
        return 1

    def add(self, slot):
        """Record one draw's horizon 2**slot."""
        for hist in (self.counts, self.recent):
            hist.extend([0] * (slot + 1 - len(hist)))
            hist[slot] += 1
        if sum(self.recent) > self.WINDOW:
            self.recent = [c >> 1 for c in self.recent]


def cftp_ising(nug: Nug, beta, rng, step_cap=CFTP_STEP_CAP, horizons=None):
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

    horizons is the HorizonHistogram of earlier draws (run_chain keeps one
    per exact-MRF chain); None stands for an empty one, whose start is 1.
    The first start time is its start() H, and the first block holds all H
    steps. Propp and Wilson's argument allows any increasing start times
    chosen without the draw's own uniforms, so the draw is still exact.
    After coalescing, the draw adds its horizon to the histogram. A draw
    that coalesces at its first start H > 1 only shows that its horizon is
    at most H, and records H / 2, so the start can fall as well as rise.
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
    blocks = []  # one (time steps, 2n) threshold block per start time
    if horizons is None:
        horizons = HorizonHistogram()
    first = horizon = horizons.start()
    covered = 0  # steps -covered .. -1 hold cached thresholds
    updates = 0
    while True:
        # The new steps -horizon .. -covered - 1, earliest first, but none
        # that a step-at-a-time loop would not draw before passing step_cap.
        rows = min(horizon - covered, (step_cap - updates) // (2 * n) + 1)
        new = np.zeros((rows, n), dtype=count_type)
        for top in range(0, rows, chunk):
            u = rng.random((min(chunk, rows - top), n))
            part = new[top : top + len(u)]
            for column in columns:
                part += column <= u
        blocks.append(new[:, order])
        state = start.copy()
        for block in reversed(blocks):
            for thr in block:
                _heat_bath_step(state, classes, thr)
                updates += 2 * n
                if updates > step_cap:
                    raise CoalescenceError(
                        f"no coalescence within {step_cap} site updates "
                        f"(beta={beta:.4g}, n={n}): started at horizon {first}, "
                        f"reached horizon {horizon} after {updates} site updates; "
                        "near-critical beta mixes too slowly"
                    )
        lo = state[positions[0]]
        if (lo == state[positions[1]]).all():
            slot = horizon.bit_length() - 1
            # censored: the horizon is at most first
            horizons.add(slot - 1 if horizon == first > 1 else slot)
            return lo
        covered = horizon
        horizon *= 2


def _sample_truncated_beta(a, b, lo, hi, current, rng):
    """Beta(a, b) restricted to (lo, hi) by inverse CDF; rejection fallback.

    Returns (value, stalled). When the truncation mass underflows and
    rejection also fails, the current value is kept and stalled is True.
    """
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    # the regularized incomplete beta is exactly 0 at 0 and 1 at 1
    f_lo = float(special.betainc(a, b, lo)) if lo > 0.0 else 0.0
    f_hi = float(special.betainc(a, b, hi)) if hi < 1.0 else 1.0
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
    eta1, stalled1 = _sample_truncated_beta(a1, b1, eta.eta0, 1.0, eta.eta1, rng)
    eta0, stalled0 = _sample_truncated_beta(a0, b0, 0.0, eta1, eta.eta0, rng)
    return NoiseParams(eta0=eta0, eta1=eta1), stalled1 + stalled0


def _initial_state(obs: Observations, nug: Nug, config: McmcConfig, rng):
    """The chain's starting (z, beta, eta)."""
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
    return z, beta, eta


def run_chain(obs: Observations, nug: Nug, config: McmcConfig) -> PosteriorSamples:
    """Run one MCMC chain and collect the post-burn-in draws.

    The per-iteration schedule is: graph update (mixture models only),
    systematic z sweep, beta update (random walk, or exchange for the exact
    MRF past density_of_states' cap), then the truncated-Beta noise update.
    Deterministic given config.seed.
    """
    if obs.n != nug.n:
        raise ValueError(f"data cover {obs.n} units but the graph has {nug.n}")
    if nug.n == 0:
        raise ValueError("the NUG has no units")
    if not is_connected(nug):
        raise ValueError("the NUG must be connected")
    rng = np.random.default_rng(config.seed)
    model, sd = config.model, config.beta_proposal_sd
    z, beta, eta = _initial_state(obs, nug, config, rng)
    draw_dag = _dag_prior(nug, model)
    dag = None if draw_dag is None else draw_dag(rng)
    try:  # exact-mrf's beta move, chosen by the graph alone: exact likelihood, else exchange
        moves = model == EXACT_MRF and config.update_beta
        dos, horizons = (density_of_states(nug) if moves else None), None
    except IntractableError:
        dos, horizons = None, HorizonHistogram()

    keep = config.iterations - config.burn_in
    rec_beta, rec_eta0, rec_eta1 = np.empty((3, keep))
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
                dag, ok = direct_update_st(z, nug, beta, rng), True
            else:
                dag, ok = mh_update_dag(z, dag, beta, rng, draw_dag)
            accept["dag"][0] += ok
            accept["dag"][1] += 1

        z = gibbs_update_z(z, nug, dag, beta, eta, obs, rng)

        if config.update_beta:
            if horizons is None:
                beta, ok = mh_update_beta(z, nug, dag, beta, rng, sd, config.priors, dos)
            else:
                beta, ok = exchange_update_beta_mrf(z, nug, beta, rng, sd, config.priors,
                                                    config.cftp_step_cap, horizons)
            accept["beta"][0] += ok
            accept["beta"][1] += 1

        if config.update_eta:
            eta, stalls = gibbs_update_eta(obs, z, eta, config.priors, rng)
            eta_stalls += stalls

        if b >= config.burn_in:
            k = b - config.burn_in
            rec_beta[k], rec_eta0[k], rec_eta1[k] = beta, eta.eta0, eta.eta1
            rec_T[k] = suff_stat_T(z, nug)
            rec_z[k] = z
            if rec_trees is not None:
                rec_trees[k] = np.column_stack((dag.edge_child, dag.edge_parent))

    return PosteriorSamples(
        model=model, burn_in=config.burn_in, iterations=config.iterations, beta=rec_beta,
        eta0=rec_eta0, eta1=rec_eta1, T=rec_T, z=rec_z, tree_edges=rec_trees,
        acceptance={k: tuple(v) for k, v in accept.items()}, eta_stalls=eta_stalls,
        cftp_horizons=None if horizons is None else horizons.counts,
    )
