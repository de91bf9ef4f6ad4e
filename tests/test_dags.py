import itertools
import math
from collections import Counter

import numpy as np
import pytest

from dagmix import (
    Dag,
    DisconnectedGraphError,
    LatticeSpec,
    Nug,
    acyclic_orientation,
    build_lattice_nug,
    count_spanning_trees,
    dag_from_csv,
    dag_to_csv,
    is_compatible,
    markov_blanket,
    posterior_spanning_tree,
    rooted_dag,
    skeleton,
    tree_dag,
    uniform_spanning_tree,
)
from dagmix.dags import CLASS_ROOTED, CLASS_SPANNING_TREE, _wilson_tree
from conftest import brute_force_spanning_trees, random_connected_nug, skeleton_key


class TestDagType:
    def test_parent_child_consistency(self):
        dag = Dag([[], [0], [0, 1]])
        assert dag.children == ((1, 2), (2,), ())
        assert dag.num_edges() == 3
        assert dag.edge_child.tolist() == [1, 2, 2]
        assert dag.edge_parent.tolist() == [0, 0, 1]
        assert dag.in_degree.tolist() == [0, 1, 2]

    def test_repeated_parent_counts_once(self):
        dag = Dag([[], [0, 0]])
        assert dag.parents == ((), (0,))
        assert dag.children == ((1,), ())
        assert dag.num_edges() == 1
        assert dag.in_degree.tolist() == [0, 1]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag([[1], [2], [0]])
        # 1 <-> 2, with vertex 1's parent 0 listed twice
        with pytest.raises(ValueError, match="cycle"):
            Dag([[], [0, 0, 2], [1]])

    def test_spanning_tree_invariants_enforced(self):
        with pytest.raises(ValueError, match="exactly one parent"):
            Dag([[], [0], [0, 1]], class_tag=CLASS_SPANNING_TREE, root=0)
        # disconnected from the root: vertices 1 and 2 are each other's parent
        with pytest.raises(ValueError):
            Dag([[], [2], [1]], class_tag=CLASS_SPANNING_TREE, root=0)
        Dag([[], [0], [1]], class_tag=CLASS_SPANNING_TREE, root=0)

    def test_rooted_orphan_invariant(self):
        with pytest.raises(ValueError, match="orphan"):
            Dag([[], [], [0, 1]], class_tag=CLASS_ROOTED, root=0)


class TestCompatibility:
    def test_edgeless_always_compatible(self, cycle4):
        assert is_compatible(Dag([[], [], [], []]), cycle4)

    def test_chain_on_path(self, path3):
        assert is_compatible(Dag([[], [0], [1]]), path3)

    def test_skipping_edge_not_compatible(self, path3):
        assert not is_compatible(Dag([[], [], [0]]), path3)

    def test_dimension_mismatch(self, path3):
        with pytest.raises(ValueError, match="mismatch"):
            is_compatible(Dag([[], [0]]), path3)


class TestSkeleton:
    def test_chain(self, path3):
        sk = skeleton(Dag([[], [0], [1]]))
        assert sk.edges == path3.edges

    def test_edgeless(self):
        assert skeleton(Dag([[], []])).edges == ()

    def test_st_skeleton_is_spanning_tree(self, lattice33_first):
        rng = np.random.default_rng(0)
        trees = {frozenset(t) for t in brute_force_spanning_trees(9, lattice33_first.edges)}
        for _ in range(10):
            dag = uniform_spanning_tree(lattice33_first, rng)
            assert frozenset(skeleton(dag).edges) in trees


class TestRootedDag:
    def test_path_rooted_at_end(self, path3):
        dag = rooted_dag(path3, 0)
        assert dag.parents == ((), (0,), (1,))
        assert dag.root == 0

    def test_cycle4_manual_trace(self, cycle4):
        # labels from root 0 are (0, 1, 2, 1); no ties, no deletions
        dag = rooted_dag(cycle4, 0)
        assert dag.parents == ((), (0,), (1, 3), (0,))

    def test_3x3_second_order_center(self, lattice33_second):
        dag = rooted_dag(lattice33_second, 4)
        for side in (1, 3, 5, 7):
            assert dag.parents[side] == (4,)
        expected_corner_parents = {0: (1, 3, 4), 2: (1, 4, 5), 6: (3, 4, 7), 8: (4, 5, 7)}
        for corner, parents in expected_corner_parents.items():
            assert dag.parents[corner] == parents
        # all side-side (label tie) edges deleted: 8 left of 20
        assert dag.num_edges() == 16

    def test_single_orphan_and_reachability(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            nug = random_connected_nug(rng, 8)
            for root in range(nug.n):
                dag = rooted_dag(nug, root)
                orphans = [v for v in range(nug.n) if not dag.parents[v]]
                assert orphans == [root]
                assert is_compatible(dag, nug)
                reached = {root}
                stack = [root]
                while stack:
                    v = stack.pop()
                    for k in dag.children[v]:
                        if k not in reached:
                            reached.add(k)
                            stack.append(k)
                assert reached == set(range(nug.n))

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            rooted_dag(Nug(3, [(0, 1)]), 0)


class TestAcyclicOrientation:
    def test_path_identity_order(self, path3):
        assert acyclic_orientation(path3, [0, 1, 2]).parents == ((), (0,), (1,))

    def test_path_middle_first(self, path3):
        assert acyclic_orientation(path3, [1, 0, 2]).parents == ((1,), (), (1,))

    def test_triangle_parent_counts(self, triangle):
        for perm in itertools.permutations(range(3)):
            dag = acyclic_orientation(triangle, perm)
            sizes = sorted(len(p) for p in dag.parents)
            assert sizes == [0, 1, 2]

    def test_all_edges_retained(self, lattice33_second):
        rng = np.random.default_rng(2)
        for _ in range(5):
            dag = acyclic_orientation(lattice33_second, rng.permutation(9))
            assert dag.num_edges() == len(lattice33_second.edges)
            assert is_compatible(dag, lattice33_second)

    def test_invalid_permutation(self, path3):
        with pytest.raises(ValueError):
            acyclic_orientation(path3, [0, 0, 2])


class TestUniformSpanningTree:
    def test_tree_nug_returns_itself(self, path3):
        rng = np.random.default_rng(3)
        dag = uniform_spanning_tree(path3, rng)
        assert skeleton(dag).edges == path3.edges

    def test_single_vertex(self):
        rng = np.random.default_rng(4)
        dag = uniform_spanning_tree(Nug(1, []), rng)
        assert dag.n == 1 and dag.root == 0 and dag.num_edges() == 0

    def test_cycle4_frequencies(self, cycle4):
        rng = np.random.default_rng(5)
        counts = Counter()
        draws = 10**5
        for _ in range(draws):
            counts[skeleton_key(uniform_spanning_tree(cycle4, rng))] += 1
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c / draws - 0.25) < 0.01

    def test_cycle4_chi_square_uniform(self, cycle4):
        from scipy.stats import chi2

        rng = np.random.default_rng(15)
        draws = 10**5
        tallies = {"uniform": Counter(), "posterior_beta0": Counter()}
        for _ in range(draws):
            tallies["uniform"][skeleton_key(uniform_spanning_tree(cycle4, rng))] += 1
            tallies["posterior_beta0"][
                skeleton_key(posterior_spanning_tree(cycle4, [0, 1, 1, 0], 0.0, rng))
            ] += 1
        threshold = chi2.isf(1e-3, 3)
        for counts in tallies.values():
            expected = draws / 4
            stat = sum((c - expected) ** 2 / expected for c in counts.values())
            assert stat < threshold

    def test_constructor_invariants(self, lattice33_first):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dag = uniform_spanning_tree(lattice33_first, rng)
            assert dag.class_tag == CLASS_SPANNING_TREE
            assert is_compatible(dag, lattice33_first)
            assert dag.num_edges() == 8

    def test_disconnected_raises(self):
        rng = np.random.default_rng(7)
        with pytest.raises(DisconnectedGraphError):
            uniform_spanning_tree(Nug(3, [(0, 1)]), rng)


class TestPosteriorSpanningTree:
    def test_beta_zero_matches_uniform(self, cycle4):
        rng = np.random.default_rng(8)
        draws = 4 * 10**4
        counts = Counter()
        for _ in range(draws):
            counts[skeleton_key(posterior_spanning_tree(cycle4, [0, 1, 0, 1], 0.0, rng))] += 1
        for c in counts.values():
            assert abs(c / draws - 0.25) < 0.015

    def test_cycle4_enumerated_distribution(self, cycle4):
        z = (0, 0, 1, 1)
        beta = 0.5
        weights = {}
        for tree in brute_force_spanning_trees(4, cycle4.edges):
            weights[tree] = math.exp(beta * sum(1 for (a, b) in tree if z[a] == z[b]))
        total = sum(weights.values())
        target = {k: v / total for k, v in weights.items()}
        rng = np.random.default_rng(9)
        draws = 10**5
        counts = Counter()
        for _ in range(draws):
            counts[skeleton_key(posterior_spanning_tree(cycle4, z, beta, rng))] += 1
        tv = 0.5 * sum(abs(counts.get(k, 0) / draws - p) for k, p in target.items())
        assert tv < 0.01

    def test_constant_field_is_uniform(self, cycle4):
        rng = np.random.default_rng(10)
        draws = 4 * 10**4
        counts = Counter()
        for _ in range(draws):
            counts[skeleton_key(posterior_spanning_tree(cycle4, [0, 0, 0, 0], 1.2, rng))] += 1
        for c in counts.values():
            assert abs(c / draws - 0.25) < 0.015

    def test_walk_weights_match_loop_reference(self):
        nug = build_lattice_nug(LatticeSpec(4, 5, "second"))
        for seed in range(5):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            z = rng.integers(0, 2, size=nug.n).astype(np.uint8)
            twin.integers(0, 2, size=nug.n)
            beta = 0.2 + 0.3 * seed
            w_match = float(np.exp(beta))
            cum = []
            for v in range(nug.n):
                acc, row = 0.0, []
                for u in nug.neighbor_lists[v]:
                    acc += w_match if z[v] == z[u] else 1.0
                    row.append(acc)
                cum.append(row)
            got = posterior_spanning_tree(nug, z, beta, rng)
            ref = _wilson_tree(nug, twin, cum)
            assert (got.parents, got.root) == (ref.parents, ref.root)
            assert rng.random() == twin.random()

    def test_lattice_edge_marginals_match_kirchhoff(self):
        # P(e in T) = w_e R_eff(e) under the weighted tree law (Lyons & Peres,
        # ch. 4). 4.88 is the two-sided Bonferroni bound for a family-wise error
        # of 1e-3 over the 930 edges; it holds although the edge indicators are
        # dependent (they sum to n - 1).
        nug = build_lattice_nug(LatticeSpec(16, 16, "second"))
        n, i, j = nug.n, nug.edge_i, nug.edge_j
        rng = np.random.default_rng(0)
        z = rng.integers(0, 2, n)
        beta, draws = 0.7, 4000
        w = np.exp(beta * (z[i] == z[j]))
        adj = np.zeros((n, n))
        adj[i, j] = adj[j, i] = w
        green = np.linalg.pinv(np.diag(adj.sum(axis=1)) - adj)
        p = w * (green[i, i] + green[j, j] - 2 * green[i, j])
        assert len(p) == 930 and abs(p.sum() - (n - 1)) < 1e-9
        hits = np.zeros((n, n))
        for _ in range(draws):
            tree = posterior_spanning_tree(nug, z, beta, rng)
            c, a = tree.edge_child, tree.edge_parent
            hits[np.minimum(c, a), np.maximum(c, a)] += 1
        f = hits[i, j] / draws
        assert np.max(np.abs(f - p) / np.sqrt(p * (1 - p) / draws)) <= 4.88

    @staticmethod
    def same_value_components(nug, z):
        seen, count = set(), 0
        for v in range(nug.n):
            if v in seen:
                continue
            count += 1
            stack = [v]
            seen.add(v)
            while stack:
                u = stack.pop()
                for w in nug.neighbor_lists[u]:
                    if w not in seen and z[w] == z[u]:
                        seen.add(w)
                        stack.append(w)
        return count

    @pytest.mark.parametrize("spec", [LatticeSpec(8, 8, "second"), LatticeSpec(6, 7, "first")])
    def test_large_beta_joins_components_by_fewest_mismatched_edges(self, spec):
        # e^800 overflows a double; the tree law then keeps only the trees with
        # the fewest mismatched edges, c - 1 for c same-value components
        nug = build_lattice_nug(spec)
        rng = np.random.default_rng(12)
        for k in range(20):
            z = rng.integers(0, 2, size=nug.n) if k else np.zeros(nug.n, dtype=int)
            c = self.same_value_components(nug, z)
            for beta in (700.5, 800.0):
                tree = posterior_spanning_tree(nug, z.astype(np.uint8), beta, rng)
                edges = sorted(skeleton(tree).edges)
                assert len(edges) == nug.n - 1 and set(edges) <= set(nug.edges)
                assert count_spanning_trees(Nug(nug.n, edges)) == 1
                assert sum(z[a] != z[b] for a, b in edges) == c - 1
                assert tree.class_tag == CLASS_SPANNING_TREE and 0 <= tree.root < nug.n

    def test_large_beta_is_uniform_over_fewest_mismatch_trees(self):
        # 3x3 first order, zeros on the top-left square: 4 trees span the
        # zeros, 1 spans the ones, and 4 mismatched edges can join them
        nug = build_lattice_nug(LatticeSpec(3, 3, "first"))
        z = [0, 0, 1, 0, 0, 1, 1, 1, 1]
        trees = brute_force_spanning_trees(nug.n, nug.edges)
        cost = {t: sum(z[a] != z[b] for a, b in t) for t in trees}
        fewest = [t for t in trees if cost[t] == min(cost.values())]
        assert len(fewest) == 16
        rng = np.random.default_rng(13)
        draws = 8000
        counts = Counter(skeleton_key(posterior_spanning_tree(nug, z, 800.0, rng)) for _ in range(draws))
        assert set(counts) <= set(fewest)
        assert 0.5 * sum(abs(counts[t] / draws - 1 / 16) for t in fewest) < 0.04

    def test_nonfinite_beta_rejected(self, cycle4):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            posterior_spanning_tree(cycle4, [0, 1, 0, 1], float("inf"), rng)


class TestMarkovBlanket:
    def test_chain_middle(self):
        dag = Dag([[], [0], [1]])
        assert markov_blanket(dag, 1) == {0, 2}

    def test_collider_includes_coparent(self):
        # A -> B <- E with A=0, B=1, E=2
        dag = Dag([[], [0, 2], []])
        assert markov_blanket(dag, 0) == {1, 2}

    def test_rooted_center_blankets_equal_nug_neighbors(self, lattice33_second):
        dag = rooted_dag(lattice33_second, 4)
        for i in range(9):
            assert markov_blanket(dag, i) == set(lattice33_second.neighbors(i))

    @pytest.mark.parametrize("k", [3, 4])
    def test_rooted_blanket_equivalence_all_roots(self, k):
        nug = build_lattice_nug(LatticeSpec(k, k, "second"))
        for root in range(nug.n):
            dag = rooted_dag(nug, root)
            for i in range(nug.n):
                assert markov_blanket(dag, i) == set(nug.neighbors(i))


class TestSerialization:
    def test_roundtrip(self, tmp_path, lattice33_first):
        rng = np.random.default_rng(12)
        # the second input ends in an isolated vertex, which no edge names
        for dag in (uniform_spanning_tree(lattice33_first, rng), Dag([[], [0], []])):
            path = tmp_path / "dag.csv"
            dag_to_csv(dag, path)
            back = dag_from_csv(path)
            assert back.n == dag.n
            assert back.parents == dag.parents
            assert back.root == dag.root
            assert back.class_tag == dag.class_tag

    def test_out_of_range_edge_reports_line(self, tmp_path):
        path = tmp_path / "dag.csv"
        path.write_text("# root= class=general\n1,0\n3,1\n")
        with pytest.raises(ValueError, match="line 3"):
            dag_from_csv(path, n=3)
        path.write_text("# n=2\n1,0\n2,1\n")
        with pytest.raises(ValueError, match="line 3"):
            dag_from_csv(path)

    @pytest.mark.parametrize("text, match", [
        ("# n=3\n1,x\n", r"line 2: vertex index must be an integer, got 'x'"),
        ("# n=abc\n1,0\n", r"line 1: vertex count must be an integer, got 'abc'"),
        ("# class=general\n1,0\n# root=x\n", r"line 3: root must be an integer, got 'x'"),
    ])
    def test_non_integer_field_reports_line(self, tmp_path, text, match):
        path = tmp_path / "dag.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            dag_from_csv(path)

    def test_repeated_edge_line_counts_once(self, tmp_path):
        path = tmp_path / "dag.csv"
        path.write_text("1,0\n1,0\n")
        assert dag_from_csv(path).children == ((1,), ())
        path.write_text("1,0\n1,0\n1,2\n2,1\n")
        with pytest.raises(ValueError, match="cycle"):
            dag_from_csv(path)

    def test_header_written(self, tmp_path):
        dag = tree_dag(3, [(0, 1), (1, 2)], root=1)
        path = tmp_path / "dag.csv"
        dag_to_csv(dag, path)
        assert path.read_text().splitlines()[0] == "# root=1 class=spanning-tree"


def test_tree_dag_orients_away_from_root():
    dag = tree_dag(4, [(0, 1), (1, 2), (1, 3)], root=2)
    assert dag.parents == ((1,), (2,), (), (1,))
    assert dag.root == 2


def test_tree_dag_rejects_edge_sets_that_are_not_spanning_trees():
    with pytest.raises(ValueError):  # spans, with a cycle
        tree_dag(3, [(0, 1), (1, 2), (0, 2)], root=0)
    with pytest.raises(ValueError):  # a path that misses vertex 3
        tree_dag(4, [(0, 1), (1, 2)], root=0)
    with pytest.raises(ValueError):  # n - 1 edges: a triangle and an isolated vertex
        tree_dag(4, [(0, 1), (1, 2), (0, 2)], root=0)


def _builder_graph(name):
    if name == "lattice-4x5-second":
        return build_lattice_nug(LatticeSpec(4, 5, "second"))
    n, extra = (int(x) for x in name.split("-")[1:])
    return random_connected_nug(np.random.default_rng(n + 17 * extra), n, extra)


@pytest.mark.parametrize("graph", [
    "random-1-0", "random-2-0", "random-6-0", "random-6-4", "random-10-8", "random-13-20",
    "lattice-4x5-second",
])
def test_builder_output_passes_boundary_validation(graph):
    """Builders skip Dag()'s checks, so every output must pass them when re-entered."""
    nug = _builder_graph(graph)
    rng = np.random.default_rng(41)
    z = rng.integers(0, 2, size=nug.n)
    dags = [rooted_dag(nug, root) for root in range(nug.n)]
    for perm in (rng.permutation(nug.n) for _ in range(10)):
        dags.append(acyclic_orientation(nug, perm))
        rank = {v: k for k, v in enumerate(perm)}  # loop reference: parents come earlier in perm
        assert dags[-1].parents == tuple(
            tuple(j for j in nug.neighbors(i) if rank[j] < rank[i]) for i in range(nug.n)
        )
    trees = [uniform_spanning_tree(nug, rng) for _ in range(10)]
    trees += [posterior_spanning_tree(nug, z, beta, rng) for beta in (0.0, 0.6, 3.0) for _ in range(5)]
    dags += trees
    dags += [tree_dag(nug.n, skeleton(t).edges, (t.root + k) % nug.n) for k, t in enumerate(trees)]
    for dag in dags:
        again = Dag(dag.parents, dag.class_tag, dag.root)
        for name in ("edge_child", "edge_parent", "in_degree"):
            got, want = getattr(again, name), getattr(dag, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert again.children == dag.children
        assert is_compatible(dag, nug)
