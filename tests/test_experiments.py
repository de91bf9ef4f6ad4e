import io
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp
from dagmix import (
    BootstrapCI,
    LatticeSpec,
    McmcConfig,
    NoiseParams,
    Nug,
    Observations,
    ObsScheme,
    PriorSpec,
    SimConfig,
    bootstrap_ci,
    build_lattice_nug,
    count_spanning_trees,
    cross_validate,
    exact_posterior_oracle,
    generate_dataset,
    joint_beta_oracle,
    mrf_log_partition,
    mrf_full_conditional,
    posterior_mean_accuracy,
    posterior_rmse_T,
    pseudo_prior_mass,
    run_simulation_study,
    suff_stat_T,
)
from dagmix import experiments
from dagmix.experiments import (
    CrossValRecord,
    IntractableError,
    crossval_to_csv,
    _log_prior_table,
    all_fields as field_matrix,
    ks_distance,
    predict_rating_probability,
    study_to_csv,
    total_variation,
)
from dagmix.samplers import ALL_MODELS, AMRF, EXACT_MRF, MDGM_AO, MDGM_ROOTED, MDGM_ST, PosteriorSamples
from conftest import (
    all_fields,
    brute_force_ao_log_prior,
    brute_force_spanning_trees,
    kac_ward_log_partition,
    quiet_obs,
    random_connected_nug,
)


def make_samples(z_rows, T=None, beta=None, eta0=None, eta1=None, model="amrf"):
    z = np.asarray(z_rows, dtype=np.uint8)
    k = len(z)
    return PosteriorSamples(
        model=model, burn_in=0, iterations=k,
        beta=beta if beta is not None else np.full(k, 0.3),
        eta0=eta0 if eta0 is not None else np.full(k, 0.2),
        eta1=eta1 if eta1 is not None else np.full(k, 0.8),
        T=T if T is not None else np.zeros(k, dtype=np.int64),
        z=z,
        acceptance={"beta": (k, k)},
    )


def small_sim_config(models=(MDGM_ST, AMRF), reps=2, eta=0.2, seed=11, iters=80, burn=40):
    return SimConfig(
        lattice=LatticeSpec(3, 3, "first"),
        beta_true=0.2,
        eta=eta,
        obs=ObsScheme("fixed", 2),
        replications=reps,
        models=models,
        mcmc=McmcConfig(iterations=iters, burn_in=burn),
        seed=seed,
    )


class TestGenerateDataset:
    def test_zero_noise_reproduces_field(self):
        cfg = small_sim_config(eta=0.0)
        rng = np.random.default_rng(0)
        z_true, obs = generate_dataset(cfg, rng)
        assert (obs.m == 2).all()
        for i, yi in enumerate(obs.y):
            assert (yi == z_true[i]).all()

    def test_fixed_scheme_counts(self):
        cfg = small_sim_config()
        rng = np.random.default_rng(1)
        _, obs = generate_dataset(cfg, rng)
        assert (obs.m == 2).all()

    def test_poisson_zero_rate(self):
        cfg = SimConfig(
            lattice=LatticeSpec(16, 16, "first"),
            beta_true=0.1, eta=0.1,
            obs=ObsScheme("poisson", 2.3),
            replications=1, models=(AMRF,),
            mcmc=McmcConfig(iterations=20, burn_in=10),
        )
        rng = np.random.default_rng(2)
        zeros, total = 0, 0
        for _ in range(100):
            _, obs = generate_dataset(cfg, rng)
            zeros += int((obs.m == 0).sum())
            total += obs.n
        assert abs(zeros / total - math.exp(-2.3)) < 0.02

    def test_noise_rates_match_eta(self):
        cfg = SimConfig(
            lattice=LatticeSpec(8, 8, "first"),
            beta_true=0.1, eta=0.2,
            obs=ObsScheme("fixed", 40),
            replications=1, models=(AMRF,),
            mcmc=McmcConfig(iterations=20, burn_in=10),
        )
        rng = np.random.default_rng(3)
        z_true, obs = generate_dataset(cfg, rng)
        ones = z_true == 1
        if ones.any():
            rate1 = obs.s[ones].sum() / obs.m[ones].sum()
            assert abs(rate1 - 0.8) < 0.04
        if (~ones).any():
            rate0 = obs.s[~ones].sum() / obs.m[~ones].sum()
            assert abs(rate0 - 0.2) < 0.04

    def test_obs_scheme_validation(self):
        with pytest.raises(ValueError):
            ObsScheme("fixed", 0)
        with pytest.raises(ValueError):
            ObsScheme("poisson", 0.0)
        with pytest.raises(ValueError):
            ObsScheme("weekly", 2)

    @pytest.mark.parametrize("beta", [-0.1, math.nan, math.inf])
    def test_beta_true_must_be_nonnegative_and_finite(self, beta):
        with pytest.raises(ValueError, match="beta_true"):
            replace(small_sim_config(), beta_true=beta)


class TestMetrics:
    def test_accuracy_perfect_and_complement(self):
        truth = [0, 1, 1, 0]
        assert posterior_mean_accuracy(make_samples([truth, truth]), truth) == 1.0
        comp = [1 - v for v in truth]
        assert posterior_mean_accuracy(make_samples([comp, comp]), truth) == 0.0

    def test_accuracy_two_draw_average(self):
        truth = [0, 1, 1, 0]
        a = [0, 1, 1, 1]  # 3/4 right
        b = [1, 0, 0, 0]  # 1/4 right
        assert posterior_mean_accuracy(make_samples([a, b]), truth) == pytest.approx(0.5)

    def test_rmse_zero_when_exact(self):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        z_true = [0, 0, 1, 1]
        t = suff_stat_T(z_true, nug)
        s = make_samples([z_true, z_true], T=np.array([t, t]))
        assert posterior_rmse_T(s, z_true, nug) == 0.0

    def test_rmse_symmetric_offsets(self):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        z_true = [0, 0, 1, 1]
        t = suff_stat_T(z_true, nug)
        s = make_samples([z_true, z_true], T=np.array([t + 2, t - 2]))
        assert posterior_rmse_T(s, z_true, nug) == pytest.approx(2.0)


class TestBootstrap:
    def test_constant_inputs_degenerate(self):
        rng = np.random.default_rng(4)
        ci = bootstrap_ci([0.4] * 10, rng)
        assert ci.lo == ci.point == ci.hi == pytest.approx(0.4)

    def test_contains_sample_mean(self):
        rng = np.random.default_rng(5)
        stats = rng.normal(0, 1, size=30)
        ci = bootstrap_ci(stats, rng)
        assert ci.lo <= stats.mean() <= ci.hi

    def test_widens_with_variance(self):
        rng = np.random.default_rng(6)
        narrow = bootstrap_ci(rng.normal(0, 0.1, size=40), np.random.default_rng(1))
        wide = bootstrap_ci(rng.normal(0, 2.0, size=40), np.random.default_rng(1))
        assert (wide.hi - wide.lo) > (narrow.hi - narrow.lo)

    def test_single_replication_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([0.5], np.random.default_rng(7))

    def test_coverage_meta_simulation(self):
        rng = np.random.default_rng(8)
        covered = 0
        trials = 200
        for _ in range(trials):
            stats = rng.normal(3.0, 1.0, size=25)
            ci = bootstrap_ci(stats, rng)
            covered += ci.lo <= 3.0 <= ci.hi
        assert covered / trials >= 0.85

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            BootstrapCI(point=0.5, lo=0.6, hi=0.7)


class TestSimulationStudy:
    def test_shapes_and_csv(self):
        cells = run_simulation_study([small_sim_config()])
        assert len(cells) == 2  # one per model
        assert all(c.replications == 2 and not c.failures for c in cells)
        buf = io.StringIO()
        study_to_csv(cells, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0].split(",") == [
            "setting_id", "model", "beta_true", "eta", "lambda", "mean_accuracy",
            "acc_lo", "acc_hi", "mean_rmse_T", "rmse_lo", "rmse_hi", "elapsed_s",
        ]
        assert len(lines) == 3
        # fixed-m scheme leaves the lambda column empty
        assert lines[1].split(",")[4] == ""

    def test_deterministic_given_seed(self):
        a = run_simulation_study([small_sim_config()])
        b = run_simulation_study([small_sim_config()])
        for ca, cb in zip(a, b):
            assert ca.accuracy == cb.accuracy
            assert ca.rmse_T == cb.rmse_T

    def test_thread_count_does_not_change_results(self):
        a = run_simulation_study([small_sim_config(reps=3)], threads=1)
        b = run_simulation_study([small_sim_config(reps=3)], threads=2)
        for ca, cb in zip(a, b):
            assert ca.accuracy == cb.accuracy
            assert ca.rmse_T == cb.rmse_T

    def test_each_setting_builds_its_nug_once(self, monkeypatch):
        built, chained = [], []
        real_build, real_run_chain = experiments.build_lattice_nug, experiments.run_chain

        def build(spec):
            built.append(real_build(spec))
            return built[-1]

        def run_chain(obs, nug, cfg):
            chained.append(nug)
            return real_run_chain(obs, nug, cfg)

        monkeypatch.setattr(experiments, "build_lattice_nug", build)
        monkeypatch.setattr(experiments, "run_chain", run_chain)
        run_simulation_study([small_sim_config(reps=3), small_sim_config(reps=2)])
        assert len(built) == 2
        assert [id(nug) for nug in chained] == [id(built[0])] * 6 + [id(built[1])] * 4

    def test_single_replication_degenerate_ci(self):
        cells = run_simulation_study([small_sim_config(reps=1)])
        for c in cells:
            assert c.accuracy.lo == c.accuracy.point == c.accuracy.hi

    def test_failures_recorded_not_fatal(self):
        # beta_true above the tiny CFTP cap stalls dataset generation
        cfg = SimConfig(
            lattice=LatticeSpec(6, 6, "second"),
            beta_true=0.44, eta=0.2,
            obs=ObsScheme("fixed", 2),
            replications=1,
            models=(AMRF,),
            mcmc=McmcConfig(iterations=40, burn_in=20, cftp_step_cap=200),
            seed=3,
        )
        cells = run_simulation_study([cfg, small_sim_config(reps=1)])
        assert any(c.failures for c in cells if c.setting_id == "s0")
        assert all(not c.failures for c in cells if c.setting_id == "s1")

    def test_csv_keeps_finished_cells_when_a_cell_fails(self, monkeypatch):
        def run_chain(obs, nug, config):
            if config.model == AMRF:
                raise RuntimeError("chain failed")
            return real_run_chain(obs, nug, config)

        real_run_chain = experiments.run_chain
        monkeypatch.setattr(experiments, "run_chain", run_chain)
        cells = run_simulation_study([small_sim_config()])
        buf = io.StringIO()
        study_to_csv(cells, buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        assert [r[1] for r in rows] == [MDGM_ST, AMRF]
        assert all(not math.isnan(float(v)) for v in rows[0][5:11])
        assert all(math.isnan(float(v)) for v in rows[1][5:12])


class TestCrossValidation:
    def _strong_obs(self, nug):
        # two spatial blocks, 30 deterministic ratings per unit
        cols = 4
        z = [1 if (i % cols) >= 2 else 0 for i in range(nug.n)]
        return z, Observations([[z[i]] * 30 for i in range(nug.n)], n=nug.n)

    def test_perfect_predictor_formula(self):
        # Noise-free limit: draws that recover the truth with eta -> (0, 1)
        # predict the observed rating mean exactly, so the MAE is zero.
        truth = [0, 1, 1, 0]
        k = 3
        samples = make_samples(
            [truth] * k,
            eta0=np.zeros(k), eta1=np.ones(k),
        )
        pred = predict_rating_probability(samples, [0, 1, 2, 3])
        assert np.array_equal(pred, truth)

    def test_predictions_stay_inside_noise_range(self):
        rng = np.random.default_rng(30)
        k = 50
        eta0 = rng.uniform(0.05, 0.3, size=k)
        eta1 = rng.uniform(0.6, 0.95, size=k)
        samples = make_samples(rng.integers(0, 2, size=(k, 4)), eta0=eta0, eta1=eta1)
        pred = predict_rating_probability(samples, [0, 1, 2, 3])
        assert (pred > eta0.min()).all() and (pred < eta1.max()).all()

    def test_strong_signal_cv(self):
        nug = build_lattice_nug(LatticeSpec(4, 4, "first"))
        _, obs = self._strong_obs(nug)
        records = cross_validate(
            obs, nug, holdout_count=2, iterations=2,
            mcmc=McmcConfig(iterations=400, burn_in=200),
            models=(MDGM_ST,), seed=21,
        )
        # Held-out units carry no ratings, so predictions are spatially
        # smoothed; strong data still beats the coin-flip error of 0.5.
        assert np.mean([r.mae for r in records]) < 0.4
        assert all(0.0 < r.mae < 1.0 for r in records)

    def test_mae_bounds(self):
        nug = build_lattice_nug(LatticeSpec(3, 3, "first"))
        rng = np.random.default_rng(9)
        obs = Observations([list(rng.integers(0, 2, size=4)) for _ in range(9)], n=9)
        records = cross_validate(
            obs, nug, holdout_count=2, iterations=2,
            mcmc=McmcConfig(iterations=120, burn_in=60),
            models=(MDGM_ST, AMRF), seed=22,
        )
        assert len(records) == 4
        assert all(0.0 < r.mae < 1.0 for r in records)

    def test_partitions_and_seeds_shared_across_model_lists(self):
        nug = build_lattice_nug(LatticeSpec(3, 3, "first"))
        rng = np.random.default_rng(10)
        obs = Observations([list(rng.integers(0, 2, size=4)) for _ in range(9)], n=9)
        mcmc = McmcConfig(iterations=120, burn_in=60)
        solo = cross_validate(obs, nug, 2, 2, mcmc, models=(AMRF,), seed=23)
        joint = cross_validate(obs, nug, 2, 2, mcmc, models=(MDGM_ST, AMRF), seed=23)
        solo_maes = [r.mae for r in solo]
        joint_maes = [r.mae for r in joint if r.model == AMRF]
        assert solo_maes == joint_maes

    def test_holdout_exceeding_rated_units(self):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        obs = quiet_obs([[1], [], [], []], n=4)
        with pytest.raises(ValueError, match="hold out"):
            cross_validate(obs, nug, 2, 1, McmcConfig(iterations=20, burn_in=10),
                           models=(AMRF,), seed=24)

    @pytest.mark.parametrize("iterations", [0, -2])
    def test_iterations_below_one_rejected(self, iterations):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        obs = quiet_obs([[1], [0], [], []], n=4)
        with pytest.raises(ValueError, match="iterations must be positive"):
            cross_validate(obs, nug, 1, iterations, McmcConfig(iterations=20, burn_in=10),
                           models=(AMRF,), seed=24)

    def test_csv_format(self):
        buf = io.StringIO()
        crossval_to_csv([CrossValRecord(0, "amrf", 0.25)], buf)
        assert buf.getvalue() == "iteration,model,mae\n0,amrf,0.25\n"


class TestOracle:
    def test_flat_case_all_models(self):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        obs = quiet_obs([[], [], [], []])
        eta = NoiseParams(0.2, 0.8)
        for model in ALL_MODELS:
            res = exact_posterior_oracle(obs, nug, 0.0, eta, model)
            assert np.allclose(res.marginals, 0.5, atol=1e-12)

    def test_mrf_partition_single_edge(self):
        nug = Nug(2, [(0, 1)])
        obs = quiet_obs([[], []])
        eta = NoiseParams(0.2, 0.8)
        for beta in (0.0, 0.4, 1.1):
            res = exact_posterior_oracle(obs, nug, beta, eta, EXACT_MRF)
            assert math.exp(res.log_partition) == pytest.approx(2 * math.exp(beta) + 2)

    def test_pseudo_mass_proposition(self):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        assert pseudo_prior_mass(nug, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert abs(pseudo_prior_mass(nug, 0.3) - 1.0) > 1e-3

    def test_size_cap(self):
        nug = build_lattice_nug(LatticeSpec(4, 4, "first"))
        obs = quiet_obs([[] for _ in range(16)])
        with pytest.raises(IntractableError):
            exact_posterior_oracle(obs, nug, 0.3, NoiseParams(0.2, 0.8), EXACT_MRF)

    def test_mrf_marginals_match_gibbs_stationary_solve(self):
        # Orthogonal check: the systematic-scan kernel built from the site
        # conditionals must have the enumerated posterior as its fixed point.
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        obs = Observations([[1, 1], [1, 0], [0, 0], []], n=4)
        eta = NoiseParams(0.2, 0.8)
        beta = 0.5
        fields = all_fields(4)
        index = {f: k for k, f in enumerate(fields)}
        kernel = np.eye(16)

        def site_matrix(i):
            mat = np.zeros((16, 16))
            for f in fields:
                base = list(f)
                probs = {}
                for v in (0, 1):
                    cand = list(base)
                    cand[i] = v
                    prior = mrf_full_conditional(i, base, nug, beta)
                    probs[v] = prior if v == 1 else 1 - prior
                # fold in the unit likelihood
                m, s = len(obs.y[i]), int(np.sum(obs.y[i]))
                w1 = probs[1] * (eta.eta1**s) * ((1 - eta.eta1) ** (m - s))
                w0 = probs[0] * (eta.eta0**s) * ((1 - eta.eta0) ** (m - s))
                for v, w in ((0, w0 / (w0 + w1)), (1, w1 / (w0 + w1))):
                    cand = list(base)
                    cand[i] = v
                    mat[index[f], index[tuple(cand)]] += w
            return mat

        for i in range(4):
            kernel = kernel @ site_matrix(i)
        evals, evecs = np.linalg.eig(kernel.T)
        stat = np.real(evecs[:, np.argmin(np.abs(evals - 1.0))])
        stat = stat / stat.sum()
        marginals = np.array([
            sum(stat[index[f]] for f in fields if f[i] == 1) for i in range(4)
        ])
        oracle = exact_posterior_oracle(obs, nug, beta, eta, EXACT_MRF)
        assert np.allclose(marginals, oracle.marginals, atol=1e-10)

    def test_mixture_component_counts(self, cycle4):
        obs = quiet_obs([[], [], [], []])
        eta = NoiseParams(0.2, 0.8)
        st = exact_posterior_oracle(obs, cycle4, 0.3, eta, MDGM_ST)
        rooted = exact_posterior_oracle(obs, cycle4, 0.3, eta, MDGM_ROOTED)
        ao = exact_posterior_oracle(obs, cycle4, 0.3, eta, MDGM_AO)
        assert st.n_components == 4
        assert rooted.n_components == 4
        assert ao.n_components == 14


class TestMrfLogPartition:
    @pytest.mark.parametrize("order", ["first", "second"])
    def test_matches_enumeration(self, order):
        # every lattice of at most 16 cells, each shape in both orientations
        for rows, cols in [(r, c) for r in range(1, 17) for c in range(1, 16 // r + 1)]:
            spec = LatticeSpec(rows, cols, order)
            nug = build_lattice_nug(spec)
            fields = (np.arange(2**nug.n)[:, None] >> np.arange(nug.n)) & 1
            t = (fields[:, nug.edge_i] == fields[:, nug.edge_j]).sum(axis=1)
            for beta in (0.0, 0.3, 0.9, 2.0):
                want = float(logsumexp(beta * t))
                got = mrf_log_partition(spec, beta)
                assert got == pytest.approx(want, rel=0, abs=1e-12), (spec, beta)

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_single_cell_and_chain(self, order):
        assert mrf_log_partition(LatticeSpec(1, 1, order), 0.7) == pytest.approx(math.log(2))
        # a path of 4 cells: Z = 2 (1 + e^beta)^3
        want = math.log(2) + 3 * math.log1p(math.exp(0.7))
        assert mrf_log_partition(LatticeSpec(1, 4, order), 0.7) == pytest.approx(want, abs=1e-12)
        assert mrf_log_partition(LatticeSpec(4, 1, order), 0.7) == pytest.approx(want, abs=1e-12)
        # e^beta overflows a double past beta 709, so no factor may exceed 1
        want = math.log(2) + 3 * 1000.0
        assert mrf_log_partition(LatticeSpec(1, 4, order), 1000.0) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("rows, cols, order", [(21, 21, "first"), (20, 20, "second"),
                                                   (40, 21, "first")])
    def test_width_cap_raises_before_allocating(self, rows, cols, order):
        tracemalloc.start()
        try:
            with pytest.raises(IntractableError, match="exceeds the cap 20"):
                mrf_log_partition(LatticeSpec(rows, cols, order), 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestKacWard:
    """The Kac-Ward reference in conftest, and the row sweep against it on
    first-order lattices too large to enumerate."""

    @pytest.mark.parametrize("rows, cols", [(2, 2), (3, 3), (3, 4), (4, 4)])
    def test_matches_enumeration(self, rows, cols):
        spec = LatticeSpec(rows, cols, "first")
        nug = build_lattice_nug(spec)
        fields = field_matrix(nug.n)
        ends = np.array(nug.edges)
        t = (fields[:, ends[:, 0]] == fields[:, ends[:, 1]]).sum(axis=1)
        for beta in (0.0, 0.3, 0.9, 2.0):
            want = float(logsumexp(beta * t))
            assert kac_ward_log_partition(spec, beta) == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("rows, cols", [(16, 16), (5, 20), (20, 7)])
    def test_sweep_matches_kac_ward(self, rows, cols):
        spec = LatticeSpec(rows, cols, "first")
        for beta in (0.3, 0.881, 1.5):
            want = kac_ward_log_partition(spec, beta)
            assert mrf_log_partition(spec, beta) == pytest.approx(want, rel=0, abs=1e-11)


def _spanning_tree_prior_by_enumeration(nug, fields, beta):
    """log p(z | beta) of mdgm-st as the mean, over every spanning tree, of the
    tree's prior: 1/2 at the root times e^(beta * match) / (1 + e^beta) per edge."""
    trees = brute_force_spanning_trees(nug.n, nug.edges)
    per_tree = []
    for tree in trees:
        i, j = np.array(sorted(tree), dtype=np.intp).reshape(-1, 2).T
        match = (fields[:, i] == fields[:, j]).sum(axis=1)
        per_tree.append(beta * match - len(tree) * np.logaddexp(0.0, beta) - math.log(2.0))
    return logsumexp(per_tree, axis=0) - math.log(len(trees))


_TREE_ORACLE_GRAPHS = {
    "n=1": Nug(1, []),
    "n=2": Nug(2, [(0, 1)]),
    "2x3-second": build_lattice_nug(LatticeSpec(2, 3, "second")),
    "random-6": random_connected_nug(np.random.default_rng(31), 6, 4),
    "random-8": random_connected_nug(np.random.default_rng(32), 8, 5),
}


@pytest.mark.parametrize(
    "name", ["path3", "triangle", "cycle4", "lattice33_first", *_TREE_ORACLE_GRAPHS]
)
def test_spanning_tree_rows_match_tree_enumeration(name, request):
    # the oracle sums the trees by the matrix-tree theorem; this sums them one by one
    if name in _TREE_ORACLE_GRAPHS:
        nug = _TREE_ORACLE_GRAPHS[name]
    else:
        nug = request.getfixturevalue(name)
    fields = field_matrix(nug.n)
    betas = [0.0, 0.4, 1.3]
    table, n_components = _log_prior_table(nug, fields, betas, MDGM_ST)
    assert n_components == count_spanning_trees(nug)
    for row, beta in zip(table, betas):
        np.testing.assert_allclose(
            row, _spanning_tree_prior_by_enumeration(nug, fields, beta), rtol=0, atol=1e-12
        )


_ORIENTATION_ORACLE_GRAPHS = {
    "n=1": Nug(1, []),
    "n=2": Nug(2, [(0, 1)]),
    "2x2-first": build_lattice_nug(LatticeSpec(2, 2, "first")),
    "2x2-second": build_lattice_nug(LatticeSpec(2, 2, "second")),
    "2x3-second": build_lattice_nug(LatticeSpec(2, 3, "second")),
    "1x7": build_lattice_nug(LatticeSpec(1, 7, "first")),
    "random-6": random_connected_nug(np.random.default_rng(31), 6, 4),
    "disconnected-5": Nug(5, [(0, 1), (2, 3), (3, 4), (2, 4)]),
}


@pytest.mark.parametrize("name", ["path3", "triangle", "cycle4", *_ORIENTATION_ORACLE_GRAPHS])
def test_orientation_rows_match_permutation_enumeration(name, request):
    # the oracle sums the orders by a dynamic program over vertex subsets;
    # this walks every permutation and sums the distinct orientations
    if name in _ORIENTATION_ORACLE_GRAPHS:
        nug = _ORIENTATION_ORACLE_GRAPHS[name]
    else:
        nug = request.getfixturevalue(name)
    fields = field_matrix(nug.n)
    betas = [0.0, 0.4, 1.3, 10.0]
    table, n_components = _log_prior_table(nug, fields, betas, MDGM_AO)
    for row, beta in zip(table, betas):
        want, n_orientations = brute_force_ao_log_prior(nug, fields, beta)
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
    assert n_components == n_orientations


class TestBetaOracle:
    def test_flat_data_properties(self):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        obs = quiet_obs([[], [], [], []])
        eta = NoiseParams(0.2, 0.8)
        for model in (EXACT_MRF, MDGM_ST, MDGM_ROOTED, MDGM_AO):
            oracle = joint_beta_oracle(obs, nug, eta, model, PriorSpec(beta_max=1.0))
            assert np.trapezoid(oracle.pdf, oracle.grid) == pytest.approx(1.0)
            assert (np.diff(oracle.cdf) >= -1e-12).all()
            assert np.allclose(oracle.z_marginals, 0.5, atol=1e-10)

    def test_unsupported_model(self):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        obs = quiet_obs([[], [], [], []])
        with pytest.raises(ValueError):
            joint_beta_oracle(obs, nug, NoiseParams(0.2, 0.8), AMRF, PriorSpec())


class TestDistances:
    def test_total_variation(self):
        assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_ks_distance_of_exact_samples(self):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        obs = quiet_obs([[], [], [], []])
        oracle = joint_beta_oracle(obs, nug, NoiseParams(0.2, 0.8), EXACT_MRF, PriorSpec())
        rng = np.random.default_rng(11)
        # inverse-CDF draws from the oracle itself should have tiny KS
        u = rng.random(20000)
        draws = np.interp(u, oracle.cdf, oracle.grid)
        assert ks_distance(draws, oracle) < 0.015
