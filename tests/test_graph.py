import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from dagmix import graph
from dagmix import (
    DisconnectedGraphError,
    GraphFormatError,
    IntractableError,
    LatticeSpec,
    Nug,
    build_lattice_nug,
    count_acyclic_orientations,
    count_spanning_trees,
    dag_from_csv,
    density_of_states,
    is_connected,
    laplacian,
    load_nug,
    load_observations,
    rooted_dag,
    save_nug,
    skeleton,
)
from dagmix.experiments import mrf_log_partition
from conftest import brute_force_ao_count, brute_force_spanning_trees, random_connected_nug


class TestLattice:
    def test_first_order_3x3(self, lattice33_first):
        assert len(lattice33_first.edges) == 12
        assert len(lattice33_first.neighbors(4)) == 4  # interior cell

    def test_second_order_3x3(self, lattice33_second):
        assert len(lattice33_second.edges) == 20
        assert len(lattice33_second.neighbors(4)) == 8

    def test_single_cell(self):
        nug = build_lattice_nug(LatticeSpec(1, 1, "first"))
        assert nug.n == 1 and len(nug.edges) == 0

    @pytest.mark.parametrize("k", [2, 3, 4, 16])
    def test_second_order_edge_count(self, k):
        nug = build_lattice_nug(LatticeSpec(k, k, "second"))
        assert len(nug.edges) == 2 * k * (k - 1) + 2 * (k - 1) ** 2

    def test_weights(self, lattice33_second):
        assert lattice33_second.weight(0, 1) == 1  # border contact
        assert lattice33_second.weight(0, 4) == 2  # corner contact

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            LatticeSpec(0, 3, "first")
        with pytest.raises(ValueError):
            LatticeSpec(3, 3, "third")

    def test_row_major_indexing(self):
        nug = build_lattice_nug(LatticeSpec(2, 3, "first"))
        # cell (1, 2) has index 5; its neighbors are (0,2)=2 and (1,1)=4
        assert nug.neighbors(5) == (2, 4)

    def test_matches_validated_double_loop(self):
        # reference: each cell's right, down and (second order) two lower diagonal neighbors
        for r in range(1, 6):
            for c in range(1, 6):
                for order in ("first", "second"):
                    weights = {}
                    for i in range(r):
                        for j in range(c):
                            steps = [(0, 1, 1), (1, 0, 1)]
                            if order == "second":
                                steps += [(1, 1, 2), (1, -1, 2)]
                            for di, dj, w in steps:
                                if i + di < r and 0 <= j + dj < c:
                                    a, b = i * c + j, (i + di) * c + j + dj
                                    weights[(min(a, b), max(a, b))] = w
                    want = Nug(r * c, list(weights), weights)
                    got = build_lattice_nug(LatticeSpec(r, c, order))
                    assert_same_graph(got, want)


def assert_same_graph(got, want):
    """Every form of two Nugs equal, with equal dtypes and Python-int views."""
    assert got.n == want.n and got.edges == want.edges
    assert list(got.weights.items()) == list(want.weights.items())
    assert got.neighbor_lists == want.neighbor_lists
    assert all(type(v) is int for e in got.edges for v in e)
    assert all(type(v) is int for nb in got.neighbor_lists for v in nb)
    for name in ("edge_i", "edge_j", "arc_i", "arc_j", "arc_w", "degrees"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.intp and np.array_equal(a, b), name
    assert np.array_equal(got.padded_neighbors(), want.padded_neighbors())
    assert got.weighted_neighbors() == tuple(
        tuple((u, want.weight(v, u)) for u in nb) for v, nb in enumerate(want.neighbor_lists))
    assert all(type(x) is int for nb in got.weighted_neighbors() for pair in nb for x in pair)


class TestNugInvariants:
    def test_association_matrix_symmetric_zero_diag(self, lattice33_second):
        a = lattice33_second.adjacency_matrix()
        assert (a == a.T).all()
        assert (np.diag(a) == 0).all()

    def test_construction_errors(self):
        with pytest.raises(ValueError, match="self-loop"):
            Nug(2, [(0, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            Nug(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="out of range"):
            Nug(2, [(0, 5)])

    def test_non_integer_vertex_rejected(self):
        # the intp cast would read 0.5 as vertex 0 and "2" as vertex 2
        for edges in ([(0.5, 1)], [(0, 1), (1, "2")], [(1, 2.25)]):
            with pytest.raises(ValueError, match="vertex index must be an integer"):
                Nug(3, edges)
        assert Nug(3, [(0.0, 1), (np.int64(2), True)]).edges == ((0, 1), (1, 2))

    def test_weight_errors(self):
        with pytest.raises(ValueError, match="missing edge"):
            Nug(3, [(0, 1)], {(1, 2): 1})
        with pytest.raises(ValueError, match="1 or 2"):
            Nug(3, [(0, 1)], {(1, 0): 3})
        with pytest.raises(ValueError, match="nonnegative"):
            Nug(-1, [])

    def test_array_input_gives_python_int_views(self):
        nug = Nug(4, np.array([[2, 3], [1, 0], [2, 1]]), {(np.int64(3), np.int64(2)): 2})
        assert nug.edges == ((0, 1), (1, 2), (2, 3))
        assert all(type(v) is int for e in nug.edges for v in e)
        assert nug.weights == {(0, 1): 1, (1, 2): 1, (2, 3): 2}
        assert all(type(w) is int for w in nug.weights.values())
        assert nug.neighbor_lists == ((1,), (0, 2), (1, 3), (2,))

    def test_library_builders_skip_the_checks(self, tmp_path, monkeypatch):
        nug = build_lattice_nug(LatticeSpec(4, 5, "second"))
        save_nug(nug, tmp_path / "g.csv")
        dag = rooted_dag(nug, 0)
        want = Nug(nug.n, list(zip(dag.edge_child.tolist(), dag.edge_parent.tolist())))

        def forbidden(self, *args):
            raise AssertionError("a library-made graph was validated")

        monkeypatch.setattr(Nug, "__init__", forbidden)
        assert_same_graph(load_nug(tmp_path / "g.csv"), nug)
        assert_same_graph(build_lattice_nug(LatticeSpec(4, 5, "second")), nug)
        assert_same_graph(skeleton(dag), want)

    def test_neighbor_lists_match_edges(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            nug = random_connected_nug(rng, 7)
            for i, j in nug.edges:
                assert j in nug.neighbors(i) and i in nug.neighbors(j)
            degree_total = sum(len(nug.neighbors(v)) for v in range(nug.n))
            assert degree_total == 2 * len(nug.edges)
            arcs = [(i, j) for i in range(nug.n) for j in nug.neighbors(i)]
            assert list(zip(nug.arc_i.tolist(), nug.arc_j.tolist())) == arcs
            assert nug.degrees.tolist() == [nug.degree(v) for v in range(nug.n)]
            width = max(nug.degrees)
            padded = [list(nug.neighbors(v)) + [nug.n] * (width - nug.degree(v)) for v in range(nug.n)]
            assert nug.padded_neighbors().tolist() == padded

    def test_color_classes_are_independent_sets(self, lattice33_second):
        classes = lattice33_second.color_classes()
        edge_set = set(lattice33_second.edges)
        assert sorted(v for cls in classes for v in cls) == list(range(9))
        for cls in classes:
            for a in cls:
                for b in cls:
                    assert (min(a, b), max(a, b)) not in edge_set or a == b


    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_class_layout_gathers_each_copys_neighbors(self, copies):
        rng = np.random.default_rng(copies)
        for nug in (random_connected_nug(rng, 9), Nug(1, []), Nug(4, []),
                    build_lattice_nug(LatticeSpec(3, 4, "second"))):
            n = nug.n
            pad = copies * n
            classes, positions, order = nug.class_layout(copies)
            assert positions.shape == (copies, n) and len(order) == pad
            owner = {int(p): (c, v) for c in range(copies) for v, p in enumerate(positions[c])}
            assert sorted(owner) == list(range(pad))  # each (copy, vertex) exactly once
            fields = rng.integers(0, 2, size=(copies, n))
            state = np.zeros(pad + 1, dtype=np.int64)
            for c in range(copies):
                state[positions[c]] = fields[c]
            assert state[pad] == 0
            end = 0
            for nbrs, span in classes:
                # contiguous slices that tile the state up to the pad slot
                assert span.start == end and span.step is None
                end = span.stop
                assert nbrs.flags.c_contiguous and nbrs.shape[1] == span.stop - span.start
                counts = state[nbrs].sum(axis=0)
                sites = [owner[p] for p in range(span.start, span.stop)]
                for (c, v), col, count in zip(sites, nbrs.T, counts):
                    deg = nug.degree(v)
                    assert [owner[int(p)] for p in col[:deg]] == [(c, u) for u in nug.neighbors(v)]
                    assert (col[deg:] == pad).all()
                    assert count == sum(fields[c][u] for u in nug.neighbors(v))
                    assert order[positions[c][v]] == v
                # the class's vertices in copy 0, then the same in each further copy
                cls = [v for c, v in sites if c == 0]
                assert sites == [(c, v) for c in range(copies) for v in cls]
            assert end == pad
            assert nug.class_layout(copies) is nug.class_layout(copies)


class TestLoadNug:
    def test_path_graph(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("0,1\n1,2\n")
        nug = load_nug(p)
        assert nug.n == 3 and nug.edges == ((0, 1), (1, 2))
        assert nug.weight(0, 1) == 1

    def test_comments_and_weights(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("# a comment\n0,1,2\n\n1,2\n")
        nug = load_nug(p)
        assert nug.weight(0, 1) == 2
        assert nug.weight(1, 2) == 1

    @pytest.mark.parametrize(
        "content,lineno,what",
        [
            ("0,0\n", 1, "self-loop"),
            ("0,1\n1,0\n", 2, "duplicate"),
            ("0,1\nnope\n", 2, "expected"),
            ("0,1\n1,a\n", 2, "integer"),
            ("0,1,3\n", 1, "weight"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, content, lineno, what):
        p = tmp_path / "g.csv"
        p.write_text(content)
        with pytest.raises(GraphFormatError, match=f"line {lineno}") as err:
            load_nug(p)
        assert what in str(err.value)

    def test_out_of_range_with_explicit_n(self, tmp_path):
        p = tmp_path / "g.csv"
        with pytest.raises(GraphFormatError, match="out of range"):
            p.write_text("-1,2\n")
            load_nug(p)
        with pytest.raises(GraphFormatError, match="line 3: vertex index out of range"):
            p.write_text("# n=3\n0,1\n1,3\n")
            load_nug(p)

    def test_negative_vertex_count(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("# comment\n# n=-1\n")
        with pytest.raises(GraphFormatError, match="line 2: vertex count must be nonnegative"):
            load_nug(p)

    def test_save_roundtrip(self, tmp_path, lattice33_second):
        p = tmp_path / "g.csv"
        # the second graph ends in isolated units that no edge names
        for nug in (lattice33_second, Nug(5, [(0, 1), (1, 2)])):
            save_nug(nug, p)
            back = load_nug(p)
            assert back.n == nug.n
            assert back.edges == nug.edges
            assert back.weights == nug.weights


LOADERS = {
    "nug": (load_nug, GraphFormatError),
    "dag": (dag_from_csv, ValueError),
    "obs": (lambda p: load_observations(p, 3), ValueError),
}


class TestLoaderErrors:
    """Each loader names the first bad line of its file, with its own error type."""

    @pytest.mark.parametrize("loader, text, lineno", [
        pytest.param("nug", "0,1\n1,x\n", 2, id="nug-non-integer"),
        pytest.param("dag", "# n=3\n1,0\nx,1\n", 3, id="dag-non-integer"),
        pytest.param("obs", "0,1\nx,1\n", 2, id="obs-non-integer"),
        pytest.param("nug", "0,1\n1,2,1,1\n", 2, id="nug-field-count"),
        pytest.param("dag", "# n=3\n1,0\n2,1,0\n", 3, id="dag-field-count"),
        pytest.param("obs", "0,1\n1\n", 2, id="obs-field-count"),
        pytest.param("nug", "0,1\n2,2\n", 2, id="nug-self-loop"),
        pytest.param("dag", "# n=2\n0,0\n", 2, id="dag-self-loop"),
        pytest.param("nug", "# n=3\n0,1\n1,3\n", 3, id="nug-out-of-range"),
        pytest.param("dag", "# n=3\n1,0\n1,3\n", 3, id="dag-out-of-range"),
        pytest.param("obs", "0,1\n3,1\n", 2, id="obs-out-of-range"),
        pytest.param("nug", "0,1\n1,2\n2,1\n", 3, id="nug-duplicate"),
        pytest.param("nug", "0,1\n1,2,3\n", 2, id="nug-weight-3"),
        pytest.param("obs", "0,1\n1,7\n", 2, id="obs-rating-7"),
    ])
    def test_malformed_line(self, tmp_path, loader, text, lineno):
        load, error = LOADERS[loader]
        path = tmp_path / "input.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^line {lineno}: ") as err:
            load(path)
        assert type(err.value) is error

    @pytest.mark.parametrize("loader, text", [
        pytest.param("nug", "0,1\n1,1\n\n# a comment\n1,x\n", id="nug"),
        pytest.param("dag", "# n=3\n2,2\n\n# a comment\n1,x\n", id="dag"),
    ])
    def test_rule_break_reported_before_a_later_parse_error(self, tmp_path, loader, text):
        load, error = LOADERS[loader]
        path = tmp_path / "input.csv"
        path.write_text(text)
        with pytest.raises(error, match=r"^line 2: .*self-loop"):
            load(path)


class TestLaplacian:
    def test_single_edge(self):
        nug = Nug(2, [(0, 1)])
        assert laplacian(nug).tolist() == [[1, -1], [-1, 1]]

    def test_cycle4(self, cycle4):
        lap = laplacian(cycle4)
        assert (np.diag(lap) == 2).all()
        for i, j in cycle4.edges:
            assert lap[i, j] == -1

    def test_row_sums_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            nug = random_connected_nug(rng, 8)
            assert (laplacian(nug).sum(axis=1) == 0).all()


class TestConnectivity:
    def test_path_connected(self, path3):
        assert is_connected(path3)

    def test_isolated_vertices(self):
        assert not is_connected(Nug(2, []))

    def test_16x16_second(self):
        assert is_connected(build_lattice_nug(LatticeSpec(16, 16, "second")))

    @pytest.mark.parametrize("edges, connected", [
        ([(0, 1), (1, 2), (2, 3)], True), ([(0, 1), (2, 3)], False),
    ])
    def test_search_runs_once_per_graph(self, edges, connected, monkeypatch):
        nug = Nug(4, edges)
        searches = []

        label_components = graph._component_minima

        def counting_labels(n, i, j):
            searches.append(n)
            return label_components(n, i, j)

        monkeypatch.setattr(graph, "_component_minima", counting_labels)
        assert [is_connected(nug) for _ in range(3)] == [connected] * 3
        assert len(searches) == 1


class TestSpanningTreeCount:
    def test_cycle4(self, cycle4):
        assert count_spanning_trees(cycle4) == 4

    def test_tree_has_one(self, path3):
        assert count_spanning_trees(path3) == 1

    def test_3x3_first_order_vs_bruteforce(self, lattice33_first):
        expected = len(brute_force_spanning_trees(9, lattice33_first.edges))
        assert expected == 192
        assert count_spanning_trees(lattice33_first) == 192

    def test_cofactor_invariance(self, lattice33_first):
        # every signed minor of the Laplacian is the count
        lap = laplacian(lattice33_first)
        for i in range(9):
            for j in range(9):
                minor = np.delete(np.delete(lap, i, axis=0), j, axis=1)
                assert (-1) ** (i + j) * graph._int_det_bareiss(minor) == 192
        # no minor above meets a zero pivot: these take Bareiss's row swap
        # first and mid-elimination, and its zero-column exit
        assert graph._int_det_bareiss([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2
        assert graph._int_det_bareiss([[1, 2, 3], [2, 4, 7], [1, 5, 2]]) == -3
        assert graph._int_det_bareiss([[0, 0], [0, 1]]) == 0

    def test_disconnected_is_an_error(self):
        with pytest.raises(DisconnectedGraphError):
            count_spanning_trees(Nug(4, [(0, 1), (2, 3)]))

    def test_matches_bruteforce_on_small_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            nug = random_connected_nug(rng, 6)
            assert count_spanning_trees(nug) == len(
                brute_force_spanning_trees(nug.n, nug.edges)
            )

    def test_big_lattice_is_exact_integer(self):
        # 8x8 grid-graph tree counts overflow 64-bit floats' integer range.
        nug = build_lattice_nug(LatticeSpec(8, 8, "first"))
        count = count_spanning_trees(nug)
        assert count > 2**62
        assert isinstance(count, int)


class TestAcyclicOrientationCount:
    def test_single_edge(self):
        assert count_acyclic_orientations(Nug(2, [(0, 1)])) == 2

    def test_triangle_vs_bruteforce(self, triangle):
        assert brute_force_ao_count(3, triangle.edges) == 6
        assert count_acyclic_orientations(triangle) == 6

    def test_cycle4_vs_bruteforce(self, cycle4):
        assert brute_force_ao_count(4, cycle4.edges) == 14
        assert count_acyclic_orientations(cycle4) == 14

    def test_matches_bruteforce_on_small_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            nug = random_connected_nug(rng, 6)
            assert count_acyclic_orientations(nug) == brute_force_ao_count(
                nug.n, nug.edges
            )

    def test_cap_raises(self, lattice33_second):
        with pytest.raises(IntractableError, match="intractable"):
            count_acyclic_orientations(lattice33_second, max_edges=10)

    def test_isolated_vertices_double_nothing(self):
        # chromatic factor x per isolated vertex must not change the count
        nug = Nug(4, [(0, 1)])
        assert count_acyclic_orientations(nug) == 2


class TestDensityOfStates:
    # Bounds set before the first run: exact equality where every count is
    # below 2^53, and 1e-12 relative where counts round.

    @staticmethod
    def enumerated(nug):
        fields = np.array(list(np.ndindex((2,) * nug.n)))
        matches = (fields[:, nug.edge_i] == fields[:, nug.edge_j]).sum(axis=1)
        return np.bincount(matches, minlength=len(nug.edges) + 1)

    def test_matches_enumeration_on_random_graphs(self):
        # any order of vertices, isolated vertices and several components included
        rng = np.random.default_rng(22)
        for _ in range(24):
            n = int(rng.integers(3, 13))
            p = rng.uniform(0.1, 0.7)
            nug = Nug(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
            counts = density_of_states(nug)
            assert np.array_equal(counts, self.enumerated(nug))
            assert counts.sum() == 2**n

    @pytest.mark.parametrize("spec", [LatticeSpec(1, 1), LatticeSpec(2, 3), LatticeSpec(3, 3),
                                      LatticeSpec(3, 4, "second")], ids=str)
    def test_matches_enumeration_on_small_lattices(self, spec):
        nug = build_lattice_nug(spec)
        assert np.array_equal(density_of_states(nug), self.enumerated(nug))

    def test_empty_graph_has_one_field(self):
        assert density_of_states(Nug(0, [])).tolist() == [1.0]

    @pytest.mark.parametrize("side", [6, 8, 9])
    def test_log_partition_matches_row_sweep(self, side):
        spec = LatticeSpec(side, side, "second")
        nug = build_lattice_nug(spec)
        counts = density_of_states(nug)
        assert math.fsum(counts) == pytest.approx(2.0**nug.n, rel=1e-12)
        t = np.flatnonzero(counts)
        for beta in (0.0, 0.2, 0.45, 0.8, 1.5):
            got = logsumexp(np.log(counts[t]) + beta * t)
            assert got == pytest.approx(mrf_log_partition(spec, beta), rel=1e-12)

    def test_path_counts_are_binomial(self):
        # the longest graph under the vertex cap: T mismatches are free, so N[T] = 2 C(n - 1, T)
        nug = Nug(1023, [(i, i + 1) for i in range(1022)])
        want = [2.0 * math.comb(1022, t) for t in range(1023)]
        assert density_of_states(nug) == pytest.approx(want, rel=1e-12)
        with pytest.raises(IntractableError, match="n=1024"):
            density_of_states(Nug(1024, [(i, i + 1) for i in range(1023)]))

    def test_cap_counts_peak_frontier_times_edges(self, monkeypatch):
        # 8x8 second order: frontier 10 with the vertex being placed, 210 edges
        nug = build_lattice_nug(LatticeSpec(8, 8, "second"))
        monkeypatch.setattr(graph, "DOS_MAX_ENTRIES", 2**10 * 211 - 1)
        with pytest.raises(IntractableError, match="peak frontier 10, 210 edges"):
            density_of_states(nug)
        monkeypatch.setattr(graph, "DOS_MAX_ENTRIES", 2**10 * 211)
        assert density_of_states(nug) is density_of_states(nug)  # built once, cached on the Nug

    def test_default_cap_takes_9x9_but_not_10x10(self):
        assert graph.DOS_MAX_ENTRIES == 2**20
        density_of_states(build_lattice_nug(LatticeSpec(9, 9, "second")))  # 559,104 entries
        with pytest.raises(IntractableError):
            density_of_states(build_lattice_nug(LatticeSpec(10, 10, "second")))  # 1.4M

    def test_over_the_cap_raises_before_allocating(self):
        nug = build_lattice_nug(LatticeSpec(16, 16, "second"))  # 2^18 x 931 entries
        tracemalloc.start()
        try:
            with pytest.raises(IntractableError, match="cap"):
                density_of_states(nug)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        assert nug._dos is None
