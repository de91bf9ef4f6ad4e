"""Shared fixtures and brute-force oracles.

The helpers here recompute everything from first principles (edge-subset
scans, orientation enumeration, exhaustive field sums) so the package code
is checked against independent implementations.
"""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.special import logsumexp

from dagmix import Nug, Observations, build_lattice_nug, LatticeSpec
from dagmix.dags import CLASS_ACYCLIC_ORIENTATION, Dag


def quiet_obs(y_lists, n=None):
    """Observations built without the identifiability warning (degenerate
    data is intentional in several tests)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Observations(y_lists, n=n)


# One line per acceptance criterion, echoed after the run so the summary
# survives pytest's output capture.
ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES, key=lambda s: int(s.split()[1].rstrip(":"))):
            terminalreporter.write_line(line)


def brute_force_spanning_trees(n, edges):
    """All spanning trees by scanning (n-1)-edge subsets; returns frozensets."""
    trees = []
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            trees.append(frozenset(subset))
    return trees


def brute_force_ao_count(n, edges):
    """Count acyclic orientations by trying all 2^m orientations."""
    count = 0
    for bits in itertools.product((0, 1), repeat=len(edges)):
        children = [[] for _ in range(n)]
        indeg = [0] * n
        for flip, (a, b) in zip(bits, edges):
            u, v = (a, b) if flip == 0 else (b, a)
            children[u].append(v)
            indeg[v] += 1
        stack = [v for v in range(n) if indeg[v] == 0]
        seen = 0
        while stack:
            u = stack.pop()
            seen += 1
            for v in children[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        if seen == n:
            count += 1
    return count


def brute_force_ao_mixture(nug):
    """Every acyclic orientation with its prior weight, by walking all n!
    vertex orders: an order gives each vertex its earlier neighbours as
    parents, and an orientation weighs the share of orders that give it.
    Sorted by the orientation's sorted (child, parent) pairs."""
    counts = Counter()
    for order in itertools.permutations(range(nug.n)):
        place = {v: k for k, v in enumerate(order)}
        counts[tuple(
            (v, u) for v in range(nug.n) for u in nug.neighbors(v) if place[u] < place[v]
        )] += 1
    total = math.factorial(nug.n)
    mixture = []
    for pairs, count in sorted(counts.items()):
        parents = [[u for c, u in pairs if c == v] for v in range(nug.n)]
        mixture.append((Dag(parents, CLASS_ACYCLIC_ORIENTATION), count / total))
    return mixture


def brute_force_ao_log_prior(nug, fields, beta):
    """log p(z | beta) of mdgm-ao for each row of fields, summed orientation
    by orientation over brute_force_ao_mixture. A site with n1 parents at 1
    and n0 at 0 scores e^(beta * n1) / (e^(beta * n0) + e^(beta * n1)) at 1
    and e^(beta * n0) / (same) at 0. Also returns the orientation count."""
    z = np.asarray(fields, dtype=np.int64)
    per_dag = []
    for dag, weight in brute_force_ao_mixture(nug):
        log_p = np.full(len(z), math.log(weight))
        for v, pa in enumerate(dag.parents):
            n1 = z[:, list(pa)].sum(axis=1)
            n0 = len(pa) - n1
            log_p += beta * np.where(z[:, v] == 1, n1, n0) - np.logaddexp(beta * n0, beta * n1)
        per_dag.append(log_p)
    return logsumexp(per_dag, axis=0), len(per_dag)


def kac_ward_log_partition(spec, beta):
    """log Z(beta) = log sum_z exp(beta * T(z)) on a first-order lattice, by
    the Kac-Ward determinant: an exact reference that shares no code with the
    row sweep and reaches lattices too large to enumerate.

    With s = 2z - 1, beta * T(z) = beta |E| / 2 + J sum_edges s_i s_j with
    J = beta / 2, an Ising model. Its high-temperature expansion gives
    Z = e^(beta |E| / 2) 2^n cosh(J)^|E| sum_F tanh(J)^|F| over the even
    subgraphs F, and for a planar straight-line drawing that sum is
    det(I - K)^(1/2) (Kac and Ward 1952; Cimasoni, J. Stat. Mech. 2010). K
    is indexed by directed edges: K[e, f] = tanh(J) e^(i theta / 2) when f
    leaves the head of e and is not e reversed, with theta the turning angle
    from e to f. Cell (r, c) is drawn at the point (c, r). The dense complex
    matrix takes 64 |E|^2 bytes, so keep to lattices of a few hundred cells.
    """
    assert spec.order == "first", "the Kac-Ward formula needs a planar drawing"
    nug = build_lattice_nug(spec)
    tail, head, degrees = nug.arc_i, nug.arc_j, nug.degrees
    angle = np.arctan2(head // spec.cols - tail // spec.cols, head % spec.cols - tail % spec.cols)
    # every pair (e, f) of arcs with f leaving the head of e, f in CSR order
    fan = degrees[head]
    e = np.repeat(np.arange(len(tail)), fan)
    f = (np.cumsum(degrees) - degrees)[head[e]] + np.arange(len(e)) - (np.cumsum(fan) - fan)[e]
    keep = head[f] != tail[e]
    e, f = e[keep], f[keep]
    turn = (angle[f] - angle[e] + np.pi) % (2 * np.pi) - np.pi
    j = 0.5 * beta
    k = np.zeros((len(tail), len(tail)), dtype=np.complex128)
    k[e, f] = math.tanh(j) * np.exp(0.5j * turn)
    log_det = np.linalg.slogdet(np.eye(len(tail)) - k)[1]
    m = len(nug.edges)
    log_cosh = float(np.logaddexp(j, -j)) - math.log(2.0)
    return beta * m / 2 + nug.n * math.log(2.0) + m * log_cosh + 0.5 * float(log_det)


def all_fields(n):
    return list(itertools.product((0, 1), repeat=n))


def random_connected_nug(rng, n, extra_edges=2):
    """Random spanning tree plus a few extra edges; always connected."""
    order = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        j = order[int(rng.integers(k))]
        i = order[k]
        edges.add((min(i, j), max(i, j)))
    possible = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    if possible and extra_edges:
        take = min(extra_edges, len(possible))
        for idx in rng.choice(len(possible), size=take, replace=False):
            edges.add(possible[int(idx)])
    return Nug(n, sorted(edges))


def skeleton_key(dag):
    """Canonical undirected edge set of a DAG, for distribution tallies."""
    return frozenset(
        (c, p) if c < p else (p, c) for c, p in dag.directed_edges()
    )


@pytest.fixture
def cycle4():
    return Nug(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def triangle():
    return Nug(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    return Nug(3, [(0, 1), (1, 2)])


@pytest.fixture
def lattice33_first():
    return build_lattice_nug(LatticeSpec(3, 3, "first"))


@pytest.fixture
def lattice33_second():
    return build_lattice_nug(LatticeSpec(3, 3, "second"))
