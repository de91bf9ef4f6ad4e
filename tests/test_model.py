import math
import warnings

import numpy as np
import pytest

from dagmix import (
    Dag,
    LatticeSpec,
    NoiseParams,
    Nug,
    Observations,
    PriorSpec,
    acyclic_orientation,
    build_lattice_nug,
    dgm_full_conditional_posterior,
    dgm_full_conditional_prior,
    eta_full_conditional_params,
    load_observations,
    log_dgm_prior,
    log_likelihood,
    mrf_full_conditional,
    mrf_log_unnorm,
    parent_conditional,
    pseudo_likelihood_log,
    rooted_dag,
    suff_stat_T,
    tree_dag,
    uniform_spanning_tree,
)
from dagmix.model import _child_tables, _one_counts, _site_logit
from conftest import all_fields, quiet_obs, random_connected_nug


def random_dag(rng, n, density=0.4):
    """Random DAG via a random order with random earlier-vertex parents."""
    order = rng.permutation(n)
    parents = [[] for _ in range(n)]
    for pos in range(1, n):
        v = order[pos]
        for earlier in order[:pos]:
            if rng.random() < density:
                parents[v].append(int(earlier))
    return Dag(parents)


class TestObservations:
    def test_counts(self):
        obs = Observations([[1, 0, 1], [], [0]])
        assert obs.m.tolist() == [3, 0, 1]
        assert obs.s.tolist() == [2, 0, 0]
        assert obs.total == 4

    def test_values_validated(self):
        with pytest.raises(ValueError):
            Observations([[2]])

    def test_fractional_ratings_rejected_before_the_cast(self):
        for bad in ([[0.5, 1]], [[1], [1.0, np.nan]]):
            with pytest.raises(ValueError, match=f"unit {len(bad) - 1}: ratings must be 0 or 1"):
                Observations(bad)
        obs = quiet_obs([[True, False], [1.0]])
        assert obs.m.tolist() == [2, 1] and obs.s.tolist() == [1, 1]
        assert [a.dtype for a in obs.y] == [np.int64, np.int64]

    def test_matches_per_unit_reference(self):
        def reference(y_lists):
            ys = []
            for i, yi in enumerate(y_lists):
                arr = np.asarray(yi, dtype=np.int64)
                if arr.ndim != 1 and arr.size:
                    raise ValueError(f"unit {i}: ratings must be a flat sequence")
                arr = arr.reshape(-1)
                if arr.size and not np.isin(arr, (0, 1)).all():
                    raise ValueError(f"unit {i}: ratings must be 0 or 1")
                ys.append(arr)
            return ys, [len(a) for a in ys], [int(a.sum()) for a in ys]

        def outcome(build, y_lists):
            try:
                return build(y_lists)
            except ValueError as err:
                return str(err)

        rng = np.random.default_rng(31)
        for _ in range(300):
            y_lists = []
            for _ in range(int(rng.integers(0, 8))):
                unit = rng.integers(0, 2, size=int(rng.integers(0, 4)))
                kind = rng.integers(0, 4)
                y_lists.append((unit.tolist(), unit, [], np.zeros((0, 2), dtype=int))[kind])
            for bad in (np.ones((2, 2), dtype=int), [1, 2], [-1], [[0]]):
                if y_lists and rng.random() < 0.2:
                    y_lists[int(rng.integers(len(y_lists)))] = bad
            want = outcome(reference, y_lists)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got = outcome(Observations, y_lists)
            if isinstance(want, str):
                assert got == want
                continue
            assert [a.dtype for a in got.y] == [np.int64] * len(want[0])
            assert [a.tolist() for a in got.y] == [a.tolist() for a in want[0]]
            assert got.m.dtype == got.s.dtype == np.int64
            assert got.m.tolist() == want[1] and got.s.tolist() == want[2]

    def test_identifiability_warning(self):
        with pytest.warns(UserWarning, match="identifiable"):
            Observations([[1], [0]])

    def test_load_csv(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("# unit,value\n0,1\n0,0\n2,1\n")
        obs = load_observations(p, n=3)
        assert obs.m.tolist() == [2, 0, 1]
        assert obs.s.tolist() == [1, 0, 1]

    def test_load_csv_with_idmap(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("a,1\nb,0\n")
        obs = load_observations(p, n=2, id_to_index={"a": 0, "b": 1})
        assert obs.m.tolist() == [1, 1]
        with pytest.raises(ValueError, match="'c'"):
            p.write_text("c,1\n")
            load_observations(p, n=2, id_to_index={"a": 0, "b": 1})

    def test_load_csv_bad_value(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("0,7\n")
        with pytest.raises(ValueError, match="line 1"):
            load_observations(p, n=1)


class TestNoiseParams:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            NoiseParams(0.8, 0.2)
        with pytest.raises(ValueError):
            NoiseParams(0.5, 0.5)
        NoiseParams(0.2, 0.8)

    def test_support(self):
        with pytest.raises(ValueError):
            NoiseParams(0.0, 0.8)


class TestLogLikelihood:
    def test_no_ratings_is_zero(self):
        obs = quiet_obs([[], [], []])
        assert log_likelihood(obs, [0, 1, 0], NoiseParams(0.2, 0.8)) == 0.0

    def test_single_one(self):
        obs = quiet_obs([[1]])
        val = log_likelihood(obs, [1], NoiseParams(0.2, 0.8))
        assert val == pytest.approx(math.log(0.8))

    def test_two_ratings_at_zero_state(self):
        obs = Observations([[1, 0]])
        val = log_likelihood(obs, [0], NoiseParams(0.2, 0.8))
        assert val == pytest.approx(math.log(0.2 * 0.8))

    def test_matches_explicit_product(self):
        rng = np.random.default_rng(0)
        obs = Observations([list(rng.integers(0, 2, size=k)) for k in (3, 0, 5, 1)])
        eta = NoiseParams(0.3, 0.6)
        z = [1, 0, 0, 1]
        direct = 0.0
        for i, yi in enumerate(obs.y):
            p = eta.eta1 if z[i] == 1 else eta.eta0
            for y in yi:
                direct += math.log(p if y == 1 else 1 - p)
        assert log_likelihood(obs, z, eta) == pytest.approx(direct)


class TestParentConditional:
    def test_orphan_is_half(self):
        for beta in (0.0, 0.5, 3.0):
            assert parent_conditional(1, [], beta) == pytest.approx(0.5)

    def test_beta_zero_is_half(self):
        assert parent_conditional(0, [1], 0.0) == pytest.approx(0.5)

    def test_two_matching_parents(self):
        expected = math.exp(0.6) / (math.exp(0.6) + 1.0)
        assert parent_conditional(1, [1, 1], 0.3) == pytest.approx(expected)
        assert expected == pytest.approx(0.64566, abs=1e-5)

    def test_sums_to_one_over_zi(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            parents = list(rng.integers(0, 2, size=rng.integers(0, 5)))
            beta = float(rng.uniform(0, 2))
            s = parent_conditional(0, parents, beta) + parent_conditional(1, parents, beta)
            assert s == pytest.approx(1.0)


class TestLogDgmPrior:
    def test_edgeless(self):
        dag = Dag([[], [], [], []])
        assert log_dgm_prior([0, 1, 1, 0], dag, 0.7) == pytest.approx(4 * math.log(0.5))

    def test_spanning_tree_closed_form(self, lattice33_first):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dag = uniform_spanning_tree(lattice33_first, rng)
            z = list(rng.integers(0, 2, size=9))
            beta = float(rng.uniform(0, 1.5))
            matches = sum(1 for c, p in dag.directed_edges() if z[c] == z[p])
            expected = -math.log(2) - 8 * math.log(1 + math.exp(beta)) + beta * matches
            assert log_dgm_prior(z, dag, beta) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_normalizes_over_fields(self, beta):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(3, 9))
            dag = random_dag(rng, n)
            total = sum(
                math.exp(log_dgm_prior(z, dag, beta)) for z in all_fields(n)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_root_invariance_on_fixed_skeleton(self):
        rng = np.random.default_rng(4)
        nug = random_connected_nug(rng, 10)
        tree = uniform_spanning_tree(nug, rng)
        edges = [tuple(sorted(e)) for e in tree.directed_edges()]
        z = list(rng.integers(0, 2, size=10))
        vals = [
            log_dgm_prior(z, tree_dag(10, edges, root), 0.8) for root in range(10)
        ]
        assert max(vals) - min(vals) < 1e-12


class TestDgmFullConditionals:
    def test_edgeless_prior_is_half(self):
        dag = Dag([[], []])
        assert dgm_full_conditional_prior(0, [0, 1], dag, 1.3) == pytest.approx(0.5)

    def test_chain_example(self):
        dag = Dag([[], [0], [1]])
        p = dgm_full_conditional_prior(1, [1, 0, 1], dag, 1.0)
        assert p == pytest.approx(math.exp(2) / (math.exp(2) + 1))

    def test_matches_joint_ratio_on_random_dags(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            dag = random_dag(rng, 8)
            z = list(rng.integers(0, 2, size=8))
            beta = float(rng.uniform(0, 1.2))
            for i in range(8):
                z1, z0 = list(z), list(z)
                z1[i], z0[i] = 1, 0
                p1 = math.exp(log_dgm_prior(z1, dag, beta))
                p0 = math.exp(log_dgm_prior(z0, dag, beta))
                # the sampler's own fields are uint8 arrays
                for field in (z, np.array(z, dtype=np.uint8)):
                    assert dgm_full_conditional_prior(i, field, dag, beta) == pytest.approx(
                        p1 / (p0 + p1)
                    )

    def test_repeated_parent_counts_once(self):
        expected = math.exp(0.8) / (math.exp(0.8) + 1)  # 0.690
        assert dgm_full_conditional_prior(0, [0, 1], Dag([[], [0, 0]]), 0.8) == pytest.approx(expected)

    def test_posterior_reduces_to_prior_without_data(self):
        dag = Dag([[], [0], [1]])
        eta = NoiseParams(0.2, 0.8)
        prior = dgm_full_conditional_prior(1, [1, 0, 1], dag, 0.6)
        post = dgm_full_conditional_posterior(1, [1, 0, 1], dag, 0.6, eta, [])
        assert post == pytest.approx(prior)

    def test_posterior_flat_prior_is_likelihood(self):
        dag = Dag([[], [0], [1]])
        eta = NoiseParams(0.2, 0.8)
        post = dgm_full_conditional_posterior(1, [1, 0, 1], dag, 0.0, eta, [1])
        assert post == pytest.approx(0.8)

    def test_posterior_matches_enumeration_on_6_vertices(self):
        rng = np.random.default_rng(6)
        dag = random_dag(rng, 6)
        eta = NoiseParams(0.25, 0.7)
        obs = Observations([list(rng.integers(0, 2, size=k)) for k in (2, 0, 3, 1, 2, 2)])
        beta = 0.45
        z = list(rng.integers(0, 2, size=6))
        for i in range(6):
            z1, z0 = list(z), list(z)
            z1[i], z0[i] = 1, 0
            w1 = math.exp(log_dgm_prior(z1, dag, beta) + log_likelihood(obs, z1, eta))
            w0 = math.exp(log_dgm_prior(z0, dag, beta) + log_likelihood(obs, z0, eta))
            for field in (z, np.array(z, dtype=np.uint8)):
                got = dgm_full_conditional_posterior(i, field, dag, beta, eta, obs.y[i])
                assert got == pytest.approx(w1 / (w0 + w1))


# The per-site formulas the balance kernels replaced, kept as the reference.


def _ref_log_two_exp(a, b):
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _ref_site_log_conditional(z_i, n1, k, beta):
    n0 = k - n1
    match = n1 if z_i == 1 else n0
    return beta * match - _ref_log_two_exp(beta * n0, beta * n1)


def _ref_log_site_product(zz, sets, beta):
    out = 0.0
    for i, s in enumerate(sets):
        n1 = sum(zz[j] for j in s)
        out += _ref_site_log_conditional(zz[i], n1, len(s), beta)
    return out


def _ref_conditional_logit(i, zz, parents, children, beta):
    pa, ch = parents[i], children[i]
    n1 = sum(zz[j] for j in pa) + sum(zz[k] for k in ch)
    logit = beta * (2 * n1 - len(pa) - len(ch))
    for k in ch:
        s1 = sum(zz[j] for j in parents[k]) - zz[i]
        pk = len(parents[k])
        logit -= _ref_log_two_exp(beta * (pk - s1 - 1), beta * (s1 + 1))
        logit += _ref_log_two_exp(beta * (pk - s1), beta * s1)
    return logit


def _reference_cases():
    """(NUG, DAGs on it) pairs: random graphs and DAGs, lattices, a star, n=0 and n=1."""
    rng = np.random.default_rng(31)
    cases = []
    for spec in (LatticeSpec(4, 5, "first"), LatticeSpec(4, 4, "second")):
        nug = build_lattice_nug(spec)
        perm = rng.permutation(nug.n)
        cases.append((nug, [rooted_dag(nug, 0), rooted_dag(nug, 6), acyclic_orientation(nug, perm)]))
    star = Nug(9, [(0, j) for j in range(1, 9)])
    cases.append((star, [rooted_dag(star, 0), rooted_dag(star, 3), acyclic_orientation(star, range(9))]))
    for n in (7, 10):
        nug = random_connected_nug(rng, n, extra_edges=4)
        cases.append((nug, [random_dag(rng, n, density) for density in (0.3, 0.7)]))
    cases.append((Nug(5, []), [Dag([[]] * 5)]))
    cases.append((Nug(1, []), [Dag([[]])]))
    cases.append((Nug(0, []), [Dag([])]))
    return cases


class TestBalanceKernelsMatchSiteFormulas:
    BETAS = (0.0, 0.3, 2.0, 40.0)

    @staticmethod
    def fields(n, rng):
        for _ in range(3):
            z = rng.integers(0, 2, size=n)
            yield z.tolist(), z.tolist()
            yield z.tolist(), z.astype(np.uint8)
            yield z.tolist(), z.astype(bool)

    def test_log_densities(self):
        rng = np.random.default_rng(32)
        for nug, dags in _reference_cases():
            for zz, field in self.fields(nug.n, rng):
                for beta in self.BETAS:
                    expected = _ref_log_site_product(zz, nug.neighbor_lists, beta)
                    got = pseudo_likelihood_log(field, nug, beta)
                    assert got == pytest.approx(expected, rel=1e-9)
                    for dag in dags:
                        expected = _ref_log_site_product(zz, dag.parents, beta)
                        assert log_dgm_prior(field, dag, beta) == pytest.approx(expected, rel=1e-9)

    def test_conditional_logits(self):
        rng = np.random.default_rng(33)
        for nug, dags in _reference_cases():
            no_children = ((),) * nug.n
            for zz, field in self.fields(nug.n, rng):
                counts = _one_counts(field, nug.arc_i, nug.arc_j, nug.n)
                for beta in self.BETAS:
                    for i in range(nug.n):
                        ref = _ref_conditional_logit(i, zz, nug.neighbor_lists, no_children, beta)
                        got = _site_logit(i, zz, counts, nug.degrees.tolist(), (), beta, None)
                        assert got == pytest.approx(ref, rel=1e-9)
                        p = 1 / (1 + math.exp(-ref))
                        assert mrf_full_conditional(i, field, nug, beta) == pytest.approx(p, rel=1e-9)
                        for dag in dags:
                            n1 = _one_counts(field, dag.edge_child, dag.edge_parent, dag.n)
                            kids = dag.children[i]
                            tables = _child_tables(dag, beta)
                            ref = _ref_conditional_logit(i, zz, dag.parents, dag.children, beta)
                            got = _site_logit(i, zz, n1, dag.in_degree.tolist(), kids, beta, tables)
                            assert got == pytest.approx(ref, rel=1e-9)
                            p = 1 / (1 + math.exp(-ref))
                            got = dgm_full_conditional_prior(i, field, dag, beta)
                            assert got == pytest.approx(p, rel=1e-9)

    def test_parent_conditional(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            zp = rng.integers(0, 2, size=int(rng.integers(0, 9)))
            for z_i in (0, 1):
                for beta in self.BETAS:
                    expected = math.exp(_ref_site_log_conditional(z_i, int(zp.sum()), len(zp), beta))
                    for parents in (zp.tolist(), zp.astype(np.uint8), zp.astype(bool)):
                        got = parent_conditional(z_i, parents, beta)
                        assert got == pytest.approx(expected, rel=1e-9)


class TestSuffStat:
    def test_all_zero_16x16_second(self):
        nug = build_lattice_nug(LatticeSpec(16, 16, "second"))
        assert suff_stat_T([0] * 256, nug) == 930

    def test_checkerboard_3x3_first(self, lattice33_first):
        checker = [(r + c) % 2 for r in range(3) for c in range(3)]
        assert suff_stat_T(checker, lattice33_first) == 0

    def test_all_zero_3x3_second(self, lattice33_second):
        assert suff_stat_T([0] * 9, lattice33_second) == 20

    def test_global_flip_invariance(self, lattice33_second):
        rng = np.random.default_rng(7)
        for _ in range(10):
            z = list(rng.integers(0, 2, size=9))
            flipped = [1 - v for v in z]
            assert suff_stat_T(z, lattice33_second) == suff_stat_T(flipped, lattice33_second)

    def test_matches_edge_loop_for_lists_and_uint8(self, lattice33_second):
        rng = np.random.default_rng(8)
        for _ in range(10):
            z = rng.integers(0, 2, size=9)
            loop = sum(int(z[i]) == int(z[j]) for i, j in lattice33_second.edges)
            for field in (z.tolist(), z.astype(np.uint8)):
                assert suff_stat_T(field, lattice33_second) == loop

    def test_wrong_length_rejected(self, lattice33_second):
        with pytest.raises(ValueError, match="field length 8 does not match 9"):
            suff_stat_T([0] * 8, lattice33_second)


class TestMrfDensity:
    def test_beta_zero(self, lattice33_second):
        rng = np.random.default_rng(8)
        for _ in range(5):
            z = list(rng.integers(0, 2, size=9))
            assert mrf_log_unnorm(z, lattice33_second, 0.0) == 0.0

    def test_all_zero_value(self, lattice33_second):
        assert mrf_log_unnorm([0] * 9, lattice33_second, 0.3) == pytest.approx(6.0)

    def test_isolated_vertex_conditional(self):
        nug = Nug(2, [])
        assert mrf_full_conditional(0, [0, 1], nug, 0.9) == pytest.approx(0.5)

    def test_eight_matching_neighbors(self, lattice33_second):
        z = [1] * 9
        p = mrf_full_conditional(4, z, lattice33_second, 0.3)
        assert p == pytest.approx(math.exp(2.4) / (math.exp(2.4) + 1))
        assert p == pytest.approx(0.9168, abs=2e-4)

    def test_conditional_matches_enumeration_on_2x3(self):
        nug = build_lattice_nug(LatticeSpec(2, 3, "first"))
        beta = 0.4
        weights = {z: math.exp(beta * suff_stat_T(z, nug)) for z in all_fields(6)}
        for z in all_fields(6):
            for i in range(6):
                z1, z0 = list(z), list(z)
                z1[i], z0[i] = 1, 0
                expected = weights[tuple(z1)] / (weights[tuple(z0)] + weights[tuple(z1)])
                for field in (z, np.array(z, dtype=np.uint8)):
                    assert mrf_full_conditional(i, field, nug, beta) == pytest.approx(expected)


class TestPseudoLikelihood:
    def test_beta_zero_is_product_of_halves(self):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        assert pseudo_likelihood_log([0, 1, 1, 0], nug, 0.0) == pytest.approx(4 * math.log(0.5))
        total = sum(math.exp(pseudo_likelihood_log(z, nug, 0.0)) for z in all_fields(4))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_not_normalized_for_positive_beta(self):
        nug = build_lattice_nug(LatticeSpec(2, 2, "first"))
        total = sum(math.exp(pseudo_likelihood_log(z, nug, 0.3)) for z in all_fields(4))
        assert abs(total - 1.0) > 1e-3

    def test_global_flip_invariance(self, lattice33_first):
        rng = np.random.default_rng(9)
        for _ in range(10):
            z = list(rng.integers(0, 2, size=9))
            flipped = [1 - v for v in z]
            assert pseudo_likelihood_log(z, lattice33_first, 0.7) == pytest.approx(
                pseudo_likelihood_log(flipped, lattice33_first, 0.7)
            )


class TestEtaFullConditional:
    def test_no_observations(self):
        obs = quiet_obs([[], []])
        priors = PriorSpec()
        (a1, b1), (a0, b0) = eta_full_conditional_params(obs, [0, 1], priors)
        assert (a1, b1) == (1, 1) and (a0, b0) == (1, 1)

    def test_count_bookkeeping(self):
        # 10 ratings at z=1 units: 7 ones, 3 zeros
        obs = Observations([[1, 1, 1, 1], [1, 1, 1, 0], [0, 0]])
        priors = PriorSpec()
        (a1, b1), (a0, b0) = eta_full_conditional_params(obs, [1, 1, 1], priors)
        assert (a1, b1) == (8, 4)
        assert (a0, b0) == (1, 1)

    def test_single_observation_increments_one_shape(self):
        priors = PriorSpec()
        base = quiet_obs([[1], []], n=2)
        more = Observations([[1, 1], []], n=2)
        (a1, b1), (a0, b0) = eta_full_conditional_params(base, [1, 0], priors)
        (a1x, b1x), (a0x, b0x) = eta_full_conditional_params(more, [1, 0], priors)
        assert (a1x - a1, b1x - b1) == (1, 0)
        assert (a0x, b0x) == (a0, b0)


class TestGlobalFlipSymmetry:
    def test_priors_invariant_under_flip(self):
        rng = np.random.default_rng(10)
        nug = random_connected_nug(rng, 7)
        st = uniform_spanning_tree(nug, rng)
        ao = acyclic_orientation(nug, rng.permutation(7))
        ro = rooted_dag(nug, 2)
        for _ in range(5):
            z = list(rng.integers(0, 2, size=7))
            flipped = [1 - v for v in z]
            for dag in (st, ao, ro):
                assert log_dgm_prior(z, dag, 0.6) == pytest.approx(
                    log_dgm_prior(flipped, dag, 0.6)
                )
            assert mrf_log_unnorm(z, nug, 0.6) == pytest.approx(
                mrf_log_unnorm(flipped, nug, 0.6)
            )
