import io
import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import logsumexp

from dagmix import (
    CoalescenceError,
    Init,
    LatticeSpec,
    McmcConfig,
    NoiseParams,
    Nug,
    Observations,
    PriorSpec,
    acyclic_orientation,
    build_lattice_nug,
    cftp_ising,
    dgm_full_conditional_posterior,
    exchange_update_beta_mrf,
    gibbs_update_eta,
    gibbs_update_z,
    log_dgm_prior,
    mh_update_beta,
    mh_update_dag,
    mrf_full_conditional,
    mrf_log_unnorm,
    pseudo_likelihood_log,
    rooted_dag,
    run_chain,
    suff_stat_T,
    tree_dag,
    uniform_spanning_tree,
)
from dagmix import samplers
from dagmix.dags import CLASS_ACYCLIC_ORIENTATION, CLASS_ROOTED, Dag
from dagmix.experiments import (
    enumerate_orientation_mixture,
    exact_posterior_oracle,
    joint_beta_oracle,
    ks_distance,
)
from dagmix.samplers import (
    ALL_MODELS,
    AMRF,
    EXACT_MRF,
    MDGM_AO,
    MDGM_ROOTED,
    MDGM_ST,
    _sample_truncated_beta,
)
from conftest import all_fields, quiet_obs


@pytest.fixture
def lattice22():
    return build_lattice_nug(LatticeSpec(2, 2, "first"))


@pytest.fixture
def obs22():
    return Observations([[1, 1], [1, 0], [0, 0], []], n=4)


class TestGibbsZ:
    def test_likelihood_only_probability(self, lattice22):
        # beta=0, y_i=[1,1], eta=(0.2,0.8): P(z_i=1) = 0.64/0.68 = 16/17
        obs = Observations([[1, 1]] * 4, n=4)
        eta = NoiseParams(0.2, 0.8)
        dag = tree_dag(4, [(0, 1), (1, 3), (3, 2)], root=0)
        rng = np.random.default_rng(0)
        z = np.zeros(4, dtype=np.uint8)
        hits = np.zeros(4)
        sweeps = 20000
        for _ in range(sweeps):
            z = gibbs_update_z(z, lattice22, dag, 0.0, eta, obs, rng, MDGM_ST)
            hits += z
        assert np.abs(hits / sweeps - 16 / 17).max() < 0.01

    def test_no_data_flat(self, lattice22):
        obs = quiet_obs([[], [], [], []])
        eta = NoiseParams(0.2, 0.8)
        rng = np.random.default_rng(1)
        z = np.zeros(4, dtype=np.uint8)
        hits = np.zeros(4)
        sweeps = 20000
        for _ in range(sweeps):
            z = gibbs_update_z(z, lattice22, None, 0.0, eta, obs, rng, AMRF)
            hits += z
        assert np.abs(hits / sweeps - 0.5).max() < 0.015

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_sweep_thresholds_the_tested_full_conditionals(self, model):
        lattice = build_lattice_nug(LatticeSpec(3, 3, "second"))
        star = Nug(9, [(0, j) for j in range(1, 9)])
        obs = Observations([[1, 1], [0], [], [1, 0, 1], [0, 0], [1], [], [0, 1], [1, 1, 0]])
        eta = NoiseParams(0.2, 0.75)
        # on the star, the orientation makes the centre a child of in-degree 8,
        # which reads the widest child tables
        perms = {lattice: [4, 0, 8, 2, 6, 1, 3, 5, 7], star: [4, 8, 2, 6, 1, 3, 5, 7, 0]}
        for nug in (lattice, star):
            dag = {
                MDGM_ST: uniform_spanning_tree(nug, np.random.default_rng(3)),
                MDGM_ROOTED: rooted_dag(nug, 3),
                MDGM_AO: acyclic_orientation(nug, perms[nug]),
            }.get(model)
            # the sweep draws one uniform per site up front, so a twin generator
            # replays its uniforms. DAG models sweep in ascending index; the MRF
            # models sweep color class by color class, and replaying a class one
            # site at a time equals updating it at once, as no two of its sites
            # are neighbors.
            order = range(nug.n) if dag is not None else np.concatenate(nug.color_classes())
            for beta in (0.0, 0.7, 40.0):
                rng, twin = np.random.default_rng(21), np.random.default_rng(21)
                z = np.array([0, 1, 1, 0, 0, 1, 0, 1, 0], dtype=np.uint8)
                for _ in range(20):
                    swept = gibbs_update_z(z, nug, dag, beta, eta, obs, rng, model)
                    u = twin.random(nug.n)
                    by_hand = z.copy()
                    for i in order:
                        if dag is None:
                            p = mrf_full_conditional(i, by_hand, nug, beta)
                            l1 = math.prod(eta.eta1 if y else 1 - eta.eta1 for y in obs.y[i])
                            l0 = math.prod(eta.eta0 if y else 1 - eta.eta0 for y in obs.y[i])
                            p = p * l1 / (p * l1 + (1 - p) * l0)
                        else:
                            p = dgm_full_conditional_posterior(i, by_hand, dag, beta, eta, obs.y[i])
                        by_hand[i] = u[i] < p
                    assert swept.dtype == np.uint8
                    assert swept.tolist() == by_hand.tolist()
                    z = swept

    @pytest.mark.parametrize("model", [AMRF, EXACT_MRF])
    def test_mrf_sweep_rejects_negative_beta(self, model, lattice22, obs22):
        z = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError, match="nonnegative"):
            gibbs_update_z(z, lattice22, None, -0.1, NoiseParams(0.2, 0.8), obs22,
                           np.random.default_rng(0), model)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_thousand_agreeing_ratings_do_not_overflow(self, model):
        # unit 0's log-likelihood ratio is 1000 log(0.2 / 0.8) = -1386: e^1386 overflows a double
        nug = Nug(2, [(0, 1)])
        obs = Observations([[0] * 1000, [1]])
        eta = NoiseParams(0.2, 0.8)
        dag = {
            MDGM_ST: tree_dag(2, [(0, 1)], root=1),
            MDGM_ROOTED: rooted_dag(nug, 1),
            MDGM_AO: acyclic_orientation(nug, [1, 0]),
        }.get(model)
        rng = np.random.default_rng(5)
        z = np.ones(2, dtype=np.uint8)
        for _ in range(10):
            z = gibbs_update_z(z, nug, dag, 0.5, eta, obs, rng, model)
            assert z[0] == 0
        if dag is not None:
            assert 0.0 <= dgm_full_conditional_posterior(0, [1, 1], dag, 0.5, eta, obs.y[0]) < 1e-300

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_long_run_marginals_match_oracle(self, model, lattice22, obs22):
        eta = NoiseParams(0.2, 0.8)
        beta = 0.4
        oracle = exact_posterior_oracle(obs22, lattice22, beta, eta, model)
        cfg = McmcConfig(
            iterations=40000, burn_in=4000, seed=7, model=model,
            init=Init(beta=beta, eta=(0.2, 0.8), z="random"),
            update_beta=False, update_eta=False,
        )
        samples = run_chain(obs22, lattice22, cfg)
        assert np.abs(samples.z_mean() - oracle.marginals).max() < 0.01

    @pytest.mark.parametrize("model", [MDGM_ST, MDGM_ROOTED, AMRF, EXACT_MRF])
    def test_long_run_marginals_match_oracle_with_four_classes(self, model):
        # Past the 2x2 lattice above: 3x3 second order has 17745 spanning
        # trees, summed by the oracle's matrix-tree form, and four color
        # classes for the MRF sweep.
        nug = build_lattice_nug(LatticeSpec(3, 3, "second"))
        assert len(nug.color_classes()) == 4
        obs = Observations([[1, 1], [0], [], [1, 0, 1], [0, 0], [1], [], [0, 1], [1, 1, 0]])
        eta = NoiseParams(0.2, 0.8)
        beta = 0.4
        oracle = exact_posterior_oracle(obs, nug, beta, eta, model)
        cfg = McmcConfig(
            iterations=40000, burn_in=4000, seed=7, model=model,
            init=Init(beta=beta, eta=(0.2, 0.8), z="random"),
            update_beta=False, update_eta=False,
        )
        samples = run_chain(obs, nug, cfg)
        assert np.abs(samples.z_mean() - oracle.marginals).max() < 0.01


class TestMhDag:
    def test_flat_ratio_always_accepts(self, cycle4):
        rng = np.random.default_rng(2)
        dag = rooted_dag(cycle4, 0)
        for _ in range(100):
            dag, accepted = mh_update_dag([0, 1, 0, 1], cycle4, dag, 0.0, rng, CLASS_ROOTED)
            assert accepted

    def test_rooted_stationary_distribution(self, cycle4):
        z = [0, 0, 1, 1]
        beta = 0.8
        dags = [rooted_dag(cycle4, r) for r in range(4)]
        logw = np.array([log_dgm_prior(z, d, beta) for d in dags])
        target = np.exp(logw - logsumexp(logw))
        rng = np.random.default_rng(3)
        cache = dags
        dag = dags[0]
        counts = np.zeros(4)
        steps = 30000
        for _ in range(steps):
            dag, _ = mh_update_dag(z, cycle4, dag, beta, rng, CLASS_ROOTED, rooted_cache=cache)
            counts[dag.root] += 1
        tv = 0.5 * np.abs(counts / steps - target).sum()
        assert tv < 0.02

    def test_orientation_stationary_distribution(self, triangle):
        z = [0, 1, 1]
        beta = 0.9
        mixture = enumerate_orientation_mixture(triangle)
        keys = [frozenset(d.directed_edges()) for d, _ in mixture]
        logw = np.array([
            math.log(w) + log_dgm_prior(z, d, beta) for d, w in mixture
        ])
        target = np.exp(logw - logsumexp(logw))
        rng = np.random.default_rng(4)
        dag = mixture[0][0]
        counts = Counter()
        steps = 30000
        for _ in range(steps):
            dag, _ = mh_update_dag(z, triangle, dag, beta, rng, CLASS_ACYCLIC_ORIENTATION)
            counts[frozenset(dag.directed_edges())] += 1
        empirical = np.array([counts.get(k, 0) / steps for k in keys])
        tv = 0.5 * np.abs(empirical - target).sum()
        assert tv < 0.02

    def test_tied_proposal_accepted_without_a_uniform(self):
        # rooted DAGs with equal balance histograms have equal priors; the log
        # ratio must be exactly 0, so the move accepts without drawing
        nug = build_lattice_nug(LatticeSpec(8, 8, "second"))
        z = np.random.default_rng(40).integers(0, 2, size=nug.n).astype(np.uint8)
        dags = [rooted_dag(nug, r) for r in range(nug.n)]
        hists = [
            Counter(sum(1 if z[j] != z[i] else -1 for j in dag.parents[i]) for i in range(nug.n))
            for dag in dags
        ]
        ties = 0
        for a in range(nug.n):
            for b in range(nug.n):
                if a == b or hists[a] != hists[b]:
                    continue
                rng, twin = np.random.default_rng(a), np.random.default_rng(a)
                cache = [dags[b]] * nug.n
                got, accepted = mh_update_dag(z, nug, dags[a], 0.4, rng, CLASS_ROOTED, cache)
                twin.integers(nug.n)
                assert got is dags[b] and accepted
                assert rng.random() == twin.random()
                ties += 1
        assert ties > 0


def _grid_cdf(grid, log_density):
    dens = np.exp(log_density - log_density.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    return cdf / cdf[-1]


def _ks(samples, grid, cdf):
    xs = np.sort(samples)
    f = np.interp(xs, grid, cdf)
    n = len(xs)
    return float(np.maximum(
        np.abs(np.arange(1, n + 1) / n - f),
        np.abs(np.arange(0, n) / n - f),
    ).max())


class TestDirectSt:
    def test_exact_conditional_draw(self, cycle4=None):
        from dagmix import direct_update_st, is_compatible
        from dagmix.dags import CLASS_SPANNING_TREE
        from conftest import brute_force_spanning_trees, skeleton_key

        nug = Nug(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        z = [0, 0, 1, 1]
        beta = 0.7
        weights = {
            tree: math.exp(beta * sum(1 for (a, b) in tree if z[a] == z[b]))
            for tree in brute_force_spanning_trees(4, nug.edges)
        }
        total = sum(weights.values())
        rng = np.random.default_rng(21)
        counts = Counter()
        draws = 3 * 10**4
        for _ in range(draws):
            dag = direct_update_st(z, nug, beta, rng)
            assert dag.class_tag == CLASS_SPANNING_TREE
            assert is_compatible(dag, nug)
            counts[skeleton_key(dag)] += 1
        tv = 0.5 * sum(abs(counts.get(k, 0) / draws - w / total) for k, w in weights.items())
        assert tv < 0.02


class TestMhBeta:
    def test_out_of_support_rejected(self, lattice22):
        priors = PriorSpec(beta_max=0.2)
        dag = tree_dag(4, [(0, 1), (1, 3), (3, 2)], root=0)
        rng = np.random.default_rng(5)
        beta = 0.19
        for _ in range(500):
            beta, _ = mh_update_beta([0, 1, 1, 0], lattice22, dag, beta, rng, MDGM_ST,
                                     sd=2.0, priors=priors)
            assert 0.0 <= beta <= 0.2

    def test_stationary_matches_grid_posterior(self, lattice22):
        z = [0, 0, 1, 1]
        dag = tree_dag(4, [(0, 1), (1, 3), (3, 2)], root=0)
        priors = PriorSpec(beta_max=1.0)
        grid = np.linspace(0.0, 1.0, 801)
        log_density = np.array([log_dgm_prior(z, dag, b) for b in grid])
        cdf = _grid_cdf(grid, log_density)
        rng = np.random.default_rng(6)
        beta = 0.5
        draws = np.empty(10**5)
        for k in range(len(draws)):
            beta, _ = mh_update_beta(z, lattice22, dag, beta, rng, MDGM_ST,
                                     sd=0.3, priors=priors)
            draws[k] = beta
        assert _ks(draws[5000:], grid, cdf) < 0.02

    def test_stationary_amrf_target(self, lattice22):
        from dagmix import pseudo_likelihood_log

        z = [0, 0, 1, 1]
        priors = PriorSpec(beta_max=1.0)
        grid = np.linspace(0.0, 1.0, 801)
        log_density = np.array([pseudo_likelihood_log(z, lattice22, b) for b in grid])
        cdf = _grid_cdf(grid, log_density)
        rng = np.random.default_rng(7)
        beta = 0.5
        draws = np.empty(6 * 10**4)
        for k in range(len(draws)):
            beta, _ = mh_update_beta(z, lattice22, None, beta, rng, AMRF,
                                     sd=0.3, priors=priors)
            draws[k] = beta
        assert _ks(draws[5000:], grid, cdf) < 0.02


    @pytest.mark.parametrize("model", [MDGM_ST, AMRF])
    def test_log_ratio_is_difference_of_public_functions(self, model, monkeypatch):
        nug = build_lattice_nug(LatticeSpec(4, 4, "second"))
        setup = np.random.default_rng(41)
        z = setup.integers(0, 2, size=nug.n).astype(np.uint8)
        if model == MDGM_ST:
            dag = samplers.uniform_spanning_tree(nug, setup)
            density = lambda b: log_dgm_prior(z, dag, b)
        else:
            dag = None
            density = lambda b: pseudo_likelihood_log(z, nug, b)
        # the move scores both betas from one balance histogram of z, and its
        # floats equal those of the public functions
        histogram, calls = samplers._balance_histogram, []
        monkeypatch.setattr(samplers, "_balance_histogram", lambda *a: calls.append(1) or histogram(*a))
        priors = PriorSpec(beta_max=2.0)
        beta = 0.5
        for seed in range(200):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            calls.clear()
            got, accepted = mh_update_beta(z, nug, dag, beta, rng, model, sd=0.5, priors=priors)
            proposal = twin.normal(beta, 0.5)
            if 0.0 <= proposal <= priors.beta_max:
                assert len(calls) == 1
                log_ratio = density(proposal) - density(beta)
                expected = log_ratio >= 0 or twin.random() < math.exp(log_ratio)
            else:
                assert not calls
                expected = False
            assert (got, accepted) == ((proposal, True) if expected else (beta, False))
            assert rng.random() == twin.random()


class TestExchangeBeta:
    def test_log_ratio_identity(self, lattice22):
        # h-ratio collapses to (b* - b) * (T(z) - T(z*)) for any pair of fields
        rng = np.random.default_rng(8)
        for _ in range(20):
            z = rng.integers(0, 2, size=4)
            zs = rng.integers(0, 2, size=4)
            b0, b1 = rng.uniform(0, 1, size=2)
            direct = (
                mrf_log_unnorm(z, lattice22, b1) + mrf_log_unnorm(zs, lattice22, b0)
                - mrf_log_unnorm(z, lattice22, b0) - mrf_log_unnorm(zs, lattice22, b1)
            )
            collapsed = (b1 - b0) * (suff_stat_T(z, lattice22) - suff_stat_T(zs, lattice22))
            assert direct == pytest.approx(collapsed)

    def test_stationary_matches_enumerated_posterior(self):
        nug = build_lattice_nug(LatticeSpec(2, 3, "first"))
        z = [0, 0, 1, 1, 0, 1]
        t_z = suff_stat_T(z, nug)
        fields = all_fields(6)
        t_all = np.array([suff_stat_T(f, nug) for f in fields])
        priors = PriorSpec(beta_max=1.0)
        grid = np.linspace(0.0, 1.0, 801)
        log_density = np.array([b * t_z - logsumexp(b * t_all) for b in grid])
        cdf = _grid_cdf(grid, log_density)
        rng = np.random.default_rng(9)
        beta = 0.5
        draws = np.empty(5 * 10**4)
        for k in range(len(draws)):
            beta, _ = exchange_update_beta_mrf(z, nug, beta, rng, sd=0.3, priors=priors)
            draws[k] = beta
        assert _ks(draws[5000:], grid, cdf) < 0.02


def _reference_cftp(nug, beta, rng, step_cap=2**20, validate=False):
    """The plain heat-bath CFTP kernel, kept as a reference.

    Separate lower and upper chains, each with its own zero pad slot, and
    one exp per site update. cftp_ising must reproduce it draw for draw.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative (monotone regime)")
    n = nug.n
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    padded = []
    for cls in nug.color_classes():
        degs = np.array([nug.degree(v) for v in cls], dtype=np.float64)
        mat = np.full((len(cls), max(int(degs.max()), 1)), n, dtype=np.intp)
        for row, v in enumerate(cls):
            nb = nug.neighbor_lists[v]
            mat[row, : len(nb)] = nb
        padded.append((cls, mat, degs))
    uniforms = {}
    horizon = 1
    updates = 0
    while True:
        lo = np.zeros(n + 1)
        hi = np.ones(n + 1)
        hi[n] = 0.0
        for t in range(-horizon, 0):
            u = uniforms.get(t)
            if u is None:
                u = uniforms[t] = rng.random(n)
            for cls, mat, deg in padded:
                for state in (lo, hi):
                    n1 = state[mat].sum(axis=1)
                    p1 = 1.0 / (1.0 + np.exp(beta * (deg - 2.0 * n1)))
                    state[cls] = u[cls] < p1
                updates += 2 * len(cls)
                if validate and not (lo[:n] <= hi[:n]).all():
                    raise AssertionError("sandwich ordering violated")
            if updates > step_cap:
                raise CoalescenceError("no coalescence")
        if np.array_equal(lo[:n], hi[:n]):
            return lo[:n].astype(np.uint8)
        horizon *= 2


def _cftp_outcome(kernel, nug, beta, seed, **kwargs):
    """(draw, or None on CoalescenceError; the generator's next uniform)."""
    rng = np.random.default_rng(seed)
    try:
        z = kernel(nug, beta, rng, **kwargs)
    except CoalescenceError:
        z = None
    return z, rng.random()


_REFERENCE_GRAPHS = {
    "n=1": Nug(1, []),
    "edgeless": Nug(5, []),
    "star": Nug(6, [(0, k) for k in range(1, 6)]),
    "disconnected": Nug(7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]),
    "4x4-second": build_lattice_nug(LatticeSpec(4, 4, "second")),
    "5x7-first": build_lattice_nug(LatticeSpec(5, 7, "first")),
    "star-300": Nug(301, [(0, k) for k in range(1, 301)]),  # counts need uint16
}


class TestCftp:
    @pytest.mark.parametrize("name", sorted(_REFERENCE_GRAPHS))
    @pytest.mark.parametrize("validate", [False, True])
    def test_matches_reference_kernel(self, name, validate):
        nug = _REFERENCE_GRAPHS[name]
        for beta in (0.0, 0.1, 0.44, 0.9):
            for seed in range(5):
                for cap in (64, 2**14):
                    kw = dict(step_cap=cap, validate=validate)
                    want, want_next = _cftp_outcome(_reference_cftp, nug, beta, seed, **kw)
                    got, got_next = _cftp_outcome(cftp_ising, nug, beta, seed, **kw)
                    assert (want is None) == (got is None)
                    if want is not None:
                        assert got.dtype == np.uint8
                        np.testing.assert_array_equal(got, want)
                    assert got_next == want_next

    def test_beta_zero_is_fair_coin(self, lattice22):
        rng = np.random.default_rng(10)
        draws = np.array([cftp_ising(lattice22, 0.0, rng) for _ in range(6000)])
        assert np.abs(draws.mean(axis=0) - 0.5).max() < 0.03
        corr = np.corrcoef(draws.T)
        assert np.abs(corr - np.eye(4)).max() < 0.05

    def test_matches_enumeration_2x2(self, lattice22):
        beta = 0.5
        fields = all_fields(4)
        logw = np.array([beta * suff_stat_T(f, lattice22) for f in fields])
        target = np.exp(logw - logsumexp(logw))
        index = {f: k for k, f in enumerate(fields)}
        rng = np.random.default_rng(11)
        counts = np.zeros(len(fields))
        draws = 2 * 10**4
        for _ in range(draws):
            z = cftp_ising(lattice22, beta, rng)
            counts[index[tuple(int(v) for v in z)]] += 1
        tv = 0.5 * np.abs(counts / draws - target).sum()
        assert tv < 0.03

    def test_sandwich_monotonicity_validated(self):
        nug = build_lattice_nug(LatticeSpec(4, 4, "second"))
        rng = np.random.default_rng(12)
        for _ in range(20):
            cftp_ising(nug, 0.5, rng, validate=True)

    def test_mean_T_monotone_in_beta(self):
        nug = build_lattice_nug(LatticeSpec(8, 8, "first"))
        rng = np.random.default_rng(13)
        means = []
        for beta in (0.1, 0.2, 0.3):
            ts = [suff_stat_T(cftp_ising(nug, beta, rng), nug) for _ in range(300)]
            means.append(np.mean(ts))
        assert means[0] < means[1] < means[2]

    def test_step_cap_raises(self):
        nug = build_lattice_nug(LatticeSpec(8, 8, "second"))
        rng = np.random.default_rng(14)
        with pytest.raises(CoalescenceError, match="no coalescence"):
            cftp_ising(nug, 0.8, rng, step_cap=2000)

    def test_step_cap_error_names_horizon_and_updates(self):
        # 128 site updates per time step: horizons 1, 2, 4 and 8 spend 1920,
        # and the first step from horizon 16 passes the cap at 2048.
        nug = build_lattice_nug(LatticeSpec(8, 8, "second"))
        rng = np.random.default_rng(14)
        with pytest.raises(CoalescenceError,
                           match="reached horizon 16 after 2048 site updates"):
            cftp_ising(nug, 0.8, rng, step_cap=2000)

    def test_negative_beta_rejected(self, lattice22):
        with pytest.raises(ValueError):
            cftp_ising(lattice22, -0.1, np.random.default_rng(15))

    def test_deterministic_given_seed(self, lattice22):
        a = cftp_ising(lattice22, 0.4, np.random.default_rng(16))
        b = cftp_ising(lattice22, 0.4, np.random.default_rng(16))
        assert (a == b).all()


class TestGibbsEta:
    def test_ordering_always_preserved(self):
        rng = np.random.default_rng(17)
        obs = Observations([[1, 1, 0], [0, 0], [1]], n=3)
        priors = PriorSpec()
        eta = NoiseParams(0.3, 0.6)
        for _ in range(2000):
            eta, _ = gibbs_update_eta(obs, [1, 0, 1], eta, priors, rng)
            assert eta.eta1 > eta.eta0

    def test_no_data_uniform_triangle(self):
        # Stationary law is uniform on {0 < eta0 < eta1 < 1}, whose eta1
        # marginal has density 2*eta1, so P(eta1 > 0.5) = 1 - 0.25 = 0.75.
        grid = np.linspace(0.5, 1.0, 20001)
        oracle = np.trapezoid(2.0 * grid, grid)
        assert oracle == pytest.approx(0.75, abs=1e-6)
        rng = np.random.default_rng(18)
        obs = quiet_obs([[], []])
        priors = PriorSpec()
        eta = NoiseParams(0.25, 0.75)
        hits = 0
        updates = 10**5
        for _ in range(updates):
            eta, _ = gibbs_update_eta(obs, [0, 1], eta, priors, rng)
            hits += eta.eta1 > 0.5
        assert abs(hits / updates - oracle) < 0.01

    def test_overwhelming_data_concentrates(self):
        rng = np.random.default_rng(19)
        y1 = (rng.random(10**4) < 0.7).astype(int)
        y0 = (rng.random(10**4) < 0.3).astype(int)
        obs = Observations([list(y1), list(y0)], n=2)
        priors = PriorSpec()
        eta = NoiseParams(0.4, 0.6)
        draws = []
        for k in range(250):
            eta, _ = gibbs_update_eta(obs, [1, 0], eta, priors, rng)
            if k >= 50:
                draws.append((eta.eta0, eta.eta1))
        means = np.mean(draws, axis=0)
        assert abs(means[0] - y0.mean()) < 0.02
        assert abs(means[1] - y1.mean()) < 0.02

    def test_degenerate_truncation_stalls(self):
        rng = np.random.default_rng(20)
        value, stalled = _sample_truncated_beta(9000, 1000, 0.0, 0.01, 0.005, rng)
        assert stalled and value == 0.005


class TestRunChain:
    def test_single_record(self, lattice22, obs22):
        cfg = McmcConfig(iterations=11, burn_in=10, seed=1)
        samples = run_chain(obs22, lattice22, cfg)
        assert samples.record_count == 1

    def test_record_count(self, lattice22, obs22):
        cfg = McmcConfig(iterations=300, burn_in=120, seed=1)
        samples = run_chain(obs22, lattice22, cfg)
        assert samples.record_count == 180

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_deterministic_given_seed(self, model, lattice22, obs22):
        cfg = McmcConfig(iterations=120, burn_in=40, seed=99, model=model)
        a = run_chain(obs22, lattice22, cfg)
        b = run_chain(obs22, lattice22, cfg)
        assert (a.z == b.z).all()
        assert (a.beta == b.beta).all()
        assert (a.eta0 == b.eta0).all() and (a.eta1 == b.eta1).all()
        assert (a.T == b.T).all()
        assert a.acceptance == b.acceptance
        if model == MDGM_ST:
            assert np.array_equal(a.tree_edges, b.tree_edges)

    @pytest.mark.parametrize("model", [MDGM_ROOTED, MDGM_AO])
    def test_free_beta_chain_matches_joint_oracle(self, model, lattice22, obs22):
        # acceptance criterion 7's data, seed, iteration count and bounds
        priors = PriorSpec(beta_max=1.0)
        oracle = joint_beta_oracle(obs22, lattice22, NoiseParams(0.2, 0.8), model, priors)
        cfg = McmcConfig(
            iterations=10**5, burn_in=10**4, seed=11, model=model,
            beta_proposal_sd=0.25, priors=priors,
            init=Init(eta=(0.2, 0.8), z="random"),
            update_eta=False,
        )
        samples = run_chain(obs22, lattice22, cfg)
        assert np.abs(samples.z_mean() - oracle.z_marginals).max() < 0.01
        assert ks_distance(samples.beta, oracle) < 0.02

    def test_rooted_dags_built_on_first_use(self, monkeypatch):
        nug = build_lattice_nug(LatticeSpec(6, 6, "first"))
        roots = []

        def counting_rooted_dag(nug, root):
            roots.append(root)
            return rooted_dag(nug, root)

        monkeypatch.setattr(samplers, "rooted_dag", counting_rooted_dag)
        obs = quiet_obs([[1, 0]] * nug.n)
        run_chain(obs, nug, McmcConfig(iterations=5, burn_in=0, seed=3, model=MDGM_ROOTED))
        # the initial DAG plus at most one new root per iteration, each built once
        assert 1 <= len(roots) <= 6
        assert len(roots) == len(set(roots))

    def test_chain_dags_skip_boundary_validation(self, lattice22, obs22, monkeypatch):
        def forbidden(self):
            raise AssertionError("a sampler-made DAG was validated")

        monkeypatch.setattr(Dag, "_check_acyclic", forbidden)
        monkeypatch.setattr(Dag, "_check_class", forbidden)
        for model in (MDGM_ST, MDGM_ROOTED, MDGM_AO):
            run_chain(obs22, lattice22, McmcConfig(iterations=30, burn_in=10, seed=4, model=model))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_single_unit_graph(self, model):
        # one site of degree 0: its color class has a zero-width neighbor matrix
        nug = Nug(1, [])
        cfg = McmcConfig(iterations=60, burn_in=20, seed=3, model=model,
                         priors=PriorSpec(beta_max=0.45))
        samples = run_chain(Observations([[1, 0, 1]]), nug, cfg)
        assert samples.record_count == 40
        assert samples.z.shape == (40, 1) and set(samples.z.ravel().tolist()) <= {0, 1}
        assert (samples.T == 0).all()
        assert ((0.0 <= samples.beta) & (samples.beta <= 0.45)).all()

    def test_st_chain_runs_where_exp_beta_overflows(self):
        # the chain starts at beta_max / 2 = 750, past e^beta's overflow at 709.8
        nug = build_lattice_nug(LatticeSpec(4, 4, "second"))
        obs = Observations(np.random.default_rng(0).integers(0, 2, size=(nug.n, 2)).tolist())
        config = McmcConfig(iterations=20, burn_in=10, seed=3, model=MDGM_ST,
                            priors=PriorSpec(beta_max=1500.0))
        samples = run_chain(obs, nug, config)
        assert (samples.beta > 700).all() and np.isfinite(samples.eta1).all()
        assert samples.tree_edges.shape == (10, nug.n - 1, 2)

    def test_eta_constraint_in_every_record(self, lattice22, obs22):
        cfg = McmcConfig(iterations=500, burn_in=0, seed=2)
        samples = run_chain(obs22, lattice22, cfg)
        assert (samples.eta1 > samples.eta0).all()

    def test_st_skeletons_are_spanning_trees(self, lattice22, obs22):
        cfg = McmcConfig(iterations=200, burn_in=100, seed=3, model=MDGM_ST)
        samples = run_chain(obs22, lattice22, cfg)
        edge_set = set(lattice22.edges)
        for edges in samples.tree_edges:
            assert len(edges) == 3
            undirected = {(min(c, p), max(c, p)) for c, p in edges}
            assert len(undirected) == 3
            assert undirected <= edge_set
            # connectivity of 4 vertices with 3 distinct edges and no repeats
            reach = {0}
            frontier = True
            while frontier:
                frontier = False
                for a, b in undirected:
                    if (a in reach) ^ (b in reach):
                        reach |= {a, b}
                        frontier = True
            assert reach == {0, 1, 2, 3}

    def test_data_driven_initialization(self, lattice22, obs22):
        cfg = McmcConfig(iterations=30, burn_in=10, seed=4)
        samples = run_chain(obs22, lattice22, cfg)
        assert samples.record_count == 20

    def test_size_mismatch_rejected(self, lattice22):
        obs = Observations([[1, 1]], n=1)
        with pytest.raises(ValueError, match="units"):
            run_chain(obs, lattice22, McmcConfig(iterations=10, burn_in=1))

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_empty_graph_rejected(self, model):
        cfg = McmcConfig(iterations=10, burn_in=1, model=model)
        with pytest.raises(ValueError, match="no units"):
            run_chain(Observations([]), Nug(0, []), cfg)

    def test_initial_field_validated(self, lattice22, obs22):
        for z, what in (([2, 0, 1, 0], "only 0 and 1"), ([0.5, 0, 1, 0], "only 0 and 1"),
                        ("rand", "initial z must be")):
            cfg = McmcConfig(iterations=10, burn_in=1, init=Init(z=z))
            with pytest.raises(ValueError, match=what):
                run_chain(obs22, lattice22, cfg)
        cfg = McmcConfig(iterations=10, burn_in=1, init=Init(z=[True, 0, 1.0, 0]))
        assert run_chain(obs22, lattice22, cfg).record_count == 9

    def test_kept_trees_are_compact_rows(self):
        nug = build_lattice_nug(LatticeSpec(32, 32, "first"))
        obs = quiet_obs([[1, 0]] * nug.n)
        cfg = McmcConfig(iterations=6, burn_in=2, seed=8, model=MDGM_ST)
        samples = run_chain(obs, nug, cfg)
        trees = samples.tree_edges
        assert trees.shape == (4, nug.n - 1, 2) and trees.dtype == np.uint16
        assert trees.nbytes / 4 <= 4100
        buf = io.StringIO()
        samples.to_jsonl(buf)
        rows = [json.loads(line)["tree_edges"] for line in buf.getvalue().splitlines()[:-1]]
        assert rows == trees.tolist()
        edges = set(nug.edges)
        for tree in rows:
            children = [c for c, _ in tree]
            assert children == sorted(children) and len(set(children)) == nug.n - 1
            assert {(min(c, p), max(c, p)) for c, p in tree} <= edges

    def test_disconnected_rejected(self, obs22):
        nug = Nug(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            run_chain(obs22, nug, McmcConfig(iterations=10, burn_in=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            McmcConfig(model="nope")
        with pytest.raises(ValueError):
            McmcConfig(beta_proposal_sd=0.0)

    def test_jsonl_stream(self, lattice22, obs22):
        cfg = McmcConfig(iterations=25, burn_in=20, seed=5, model=MDGM_ST)
        samples = run_chain(obs22, lattice22, cfg)
        buf = io.StringIO()
        samples.to_jsonl(buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 6  # 5 records + acceptance trailer
        first = json.loads(lines[0])
        assert set(first) == {"iter", "beta", "eta0", "eta1", "T", "z", "tree_edges"}
        assert first["iter"] == 20
        assert len(first["z"]) == 4 and set(first["z"]) <= {"0", "1"}
        trailer = json.loads(lines[-1])
        assert "acceptance" in trailer and "eta_stalls" in trailer
        assert set(trailer["acceptance"]) == {"dag", "beta"}
