"""DAG classes compatible with a NUG: spanning trees, rooted DAGs, orientations.

A DAG is compatible with a NUG when every directed edge appears as an
undirected edge of the NUG. Three constructible classes are provided:

* spanning trees (minimal connected; sampled by loop-erased random walk),
* rooted DAGs (one per root; shortest-weighted-path orientation),
* acyclic orientations (all NUG edges oriented by a vertex permutation).
"""

from __future__ import annotations

import bisect
import heapq

import numpy as np

from .graph import DisconnectedGraphError, Nug, _split, _trusted_nug, is_connected

CLASS_SPANNING_TREE = "spanning-tree"
CLASS_ROOTED = "rooted"
CLASS_ACYCLIC_ORIENTATION = "acyclic-orientation"
CLASS_GENERAL = "general"

_CLASS_TAGS = (CLASS_SPANNING_TREE, CLASS_ROOTED, CLASS_ACYCLIC_ORIENTATION, CLASS_GENERAL)


class Dag:
    """Immutable directed acyclic graph stored as CSR parent arrays.

    The edge (child, parent) convention follows the factorization: vertex i
    is conditioned on its parents pi(i). edge_child and edge_parent list
    every (child, parent) pair sorted by child, then parent; in_degree[i] is
    the number of parents of i. flat_children() holds every vertex's
    children in one flat list plus offsets, all that the z sweep reads; the
    parents and children tuples are built on first use. Dag(parents, ...)
    takes outside input (a parent listed twice counts once) and verifies
    acyclicity and, for tagged classes, the class invariant (single-parent
    spanning tree, or single-orphan rooted DAG). The builders below make
    valid arrays and skip these checks.
    """

    __slots__ = ("n", "edge_child", "edge_parent", "in_degree", "class_tag", "root",
                 "_parents", "_children", "_flat_children")

    def __init__(self, parents, class_tag=CLASS_GENERAL, root=None):
        n = len(parents)
        if class_tag not in _CLASS_TAGS:
            raise ValueError(f"unknown DAG class tag: {class_tag!r}")
        pairs = sorted({(i, j) for i, pa in enumerate(parents) for j in pa})
        for i, j in pairs:
            if not (0 <= j < n) or j == i:
                raise ValueError(f"invalid parent {j} for vertex {i}")
        edge_child, edge_parent = np.array(pairs, dtype=np.intp).reshape(-1, 2).T.copy()
        self._set_arrays(n, edge_child, edge_parent, class_tag, root)
        self._check_acyclic()
        self._check_class()

    def _set_arrays(self, n, edge_child, edge_parent, class_tag, root):
        self.n = n
        self.edge_child = edge_child
        self.edge_parent = edge_parent
        self.in_degree = np.bincount(edge_child, minlength=n)
        self.class_tag = class_tag
        self.root = root
        self._parents = self._children = self._flat_children = None

    @property
    def parents(self):
        """parents[i]: the parents of vertex i, ascending."""
        if self._parents is None:
            self._parents = _split(self.edge_parent.tolist(), self.in_degree)
        return self._parents

    @property
    def children(self):
        """children[j]: the vertices with parent j, ascending."""
        if self._children is None:
            kids, offsets = self.flat_children()
            self._children = tuple(tuple(kids[a:b]) for a, b in zip(offsets, offsets[1:]))
        return self._children

    def flat_children(self):
        """(kids, offsets): the children of j are kids[offsets[j]:offsets[j + 1]], ascending.

        Both are lists of Python ints, built on first use by one stable argsort.
        """
        if self._flat_children is None:
            order = np.argsort(self.edge_parent, kind="stable")
            ends = np.cumsum(np.bincount(self.edge_parent, minlength=self.n))
            self._flat_children = (self.edge_child[order].tolist(), [0] + ends.tolist())
        return self._flat_children

    def _check_acyclic(self):
        indeg = self.in_degree.tolist()
        kids, offsets = self.flat_children()
        stack = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for k in kids[offsets[v]:offsets[v + 1]]:
                indeg[k] -= 1
                if indeg[k] == 0:
                    stack.append(k)
        if seen != self.n:
            raise ValueError("directed cycle detected")

    def _check_class(self):
        orphans = [v for v in range(self.n) if not self.parents[v]]
        if self.class_tag == CLASS_SPANNING_TREE:
            if self.root is None or orphans != [self.root]:
                raise ValueError("spanning tree must have exactly one orphan, the root")
            # With acyclicity, one parent per non-root vertex means every
            # parent path ends at the root: the skeleton is a spanning tree.
            if any(len(self.parents[v]) != 1 for v in range(self.n) if v != self.root):
                raise ValueError("spanning tree vertices must have exactly one parent")
        elif self.class_tag == CLASS_ROOTED:
            if self.root is None or orphans != [self.root]:
                raise ValueError("rooted DAG must have exactly one orphan, the root")

    def num_edges(self):
        return len(self.edge_parent)

    def directed_edges(self):
        """All (child, parent) pairs."""
        return list(zip(self.edge_child.tolist(), self.edge_parent.tolist()))

    def __repr__(self):
        return f"Dag(n={self.n}, edges={self.num_edges()}, class={self.class_tag!r})"


def _trusted_dag(n, edge_child, edge_parent, class_tag, root=None) -> Dag:
    """A Dag from CSR arrays that its builder made valid, without the checks of Dag()."""
    dag = Dag.__new__(Dag)
    dag._set_arrays(n, edge_child, edge_parent, class_tag, root)
    return dag


def is_compatible(dag: Dag, nug: Nug) -> bool:
    """True iff every directed edge of the DAG is an undirected NUG edge."""
    if dag.n != nug.n:
        raise ValueError(f"vertex count mismatch: dag has {dag.n}, nug has {nug.n}")
    return set(skeleton(dag).edges) <= set(nug.edges)


def skeleton(dag: Dag) -> Nug:
    """Undirected structure of the DAG; orientation dropped, weights 1."""
    c, p = dag.edge_child, dag.edge_parent
    return _trusted_nug(dag.n, np.minimum(c, p), np.maximum(c, p), np.ones_like(c))


def _orient_by_label(nug: Nug, label, class_tag, root=None) -> Dag:
    """Orient each NUG edge from its lower- to its higher-labelled end; equal labels drop it."""
    li, lj = label[nug.edge_i], label[nug.edge_j]
    keep = li != lj
    up = (li < lj)[keep]
    lo, hi = nug.edge_i[keep], nug.edge_j[keep]
    child, parent = np.where(up, hi, lo), np.where(up, lo, hi)
    order = np.lexsort((parent, child))
    return _trusted_dag(nug.n, child[order], parent[order], class_tag, root)


def _path_costs(nug: Nug, root: int) -> np.ndarray:
    """Minimum weighted path cost from the root to every vertex (Dijkstra)."""
    if not (0 <= root < nug.n):
        raise ValueError(f"root {root} out of range")
    inf = float("inf")
    label = [inf] * nug.n
    label[root] = 0
    heap = [(0, root)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > label[v]:
            continue
        for u in nug.neighbor_lists[v]:
            nd = d + nug.weight(v, u)
            if nd < label[u]:
                label[u] = nd
                heapq.heappush(heap, (nd, u))
    if inf in label:
        raise DisconnectedGraphError(f"not every vertex is reachable from root {root}")
    return np.array(label)


def rooted_dag(nug: Nug, root: int) -> Dag:
    """The unique root-oriented DAG for the given root vertex.

    Vertices are labeled with the minimum weighted path cost from the root
    (Dijkstra; ties in the queue broken by lower vertex index). Each NUG
    edge is oriented from the lower to the higher label; equal-label edges
    are deleted.
    """
    return _orient_by_label(nug, _path_costs(nug, root), CLASS_ROOTED, root)


def acyclic_orientation(nug: Nug, perm) -> Dag:
    """Orient every NUG edge from the earlier to the later vertex in perm."""
    order = np.asarray(perm)
    if order.shape != (nug.n,) or not np.array_equal(np.sort(order), np.arange(nug.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    rank = np.empty(nug.n, dtype=np.intp)
    rank[order] = np.arange(nug.n)
    return _orient_by_label(nug, rank, CLASS_ACYCLIC_ORIENTATION)


def tree_dag(n: int, tree_edges, root: int) -> Dag:
    """Orient an undirected spanning tree away from the given root; ValueError if it is not one."""
    tree = Nug(n, tree_edges)
    if len(tree.edges) != n - 1:
        raise ValueError(f"{len(tree.edges)} edges cannot form a spanning tree of {n} vertices")
    return _orient_by_label(tree, _path_costs(tree, root), CLASS_SPANNING_TREE, root)


def _uniforms(rng, size):
    """Uniforms drawn in blocks of size; cuts per-draw RNG overhead in walk loops.

    A memoryview yields each one as a Python float, converted only when
    the walk reaches it: float arithmetic is faster than on numpy scalars,
    and a short walk pays nothing for the rest of its block.
    """
    while True:
        yield from memoryview(rng.random(size))


def _wilson_tree(nug: Nug, rng, cum=None) -> Dag:
    """Loop-erased random-walk spanning tree draw.

    With cum None the walk is simple and the skeleton is uniform over all
    spanning trees. Otherwise cum[v] lists the cumulative edge weights over
    v's neighbors (row v of nug.padded_neighbors(), padding weighted 0, so
    cum[v][-1] is the total): the walk moves from v to neighbor u with
    probability proportional to the weight of (v, u), and the skeleton
    probability is proportional to the product of its edge weights. The
    root is uniform and edges point away from it; following the walk's
    successor pointers, each vertex's parent is its neighbor on the path
    toward the root. Unvisited vertices are processed in ascending index
    order, which does not affect the output distribution.
    """
    n = nug.n
    if not is_connected(nug):
        raise DisconnectedGraphError("spanning tree sampling requires a connected NUG")
    uniform = _uniforms(rng, min(65536, max(1024, 16 * n))).__next__
    root = int(uniform() * n)
    nbrs = nug.neighbor_lists
    parent = [-1] * n
    in_tree = bytearray(n)
    in_tree[root] = 1
    nxt = [0] * n
    for start in range(n):
        if in_tree[start]:
            continue
        v = start
        while not in_tree[v]:
            nb = nbrs[v]
            if cum is None:
                u = nb[int(uniform() * len(nb))]
            else:
                row = cum[v]
                u = nb[bisect.bisect_right(row, uniform() * row[-1])]
            nxt[v] = u
            v = u
        v = start
        while not in_tree[v]:
            in_tree[v] = 1
            parent[v] = nxt[v]
            v = nxt[v]
    parent = np.array(parent, dtype=np.intp)
    child = np.flatnonzero(parent >= 0)
    return _trusted_dag(n, child, parent[child], CLASS_SPANNING_TREE, root)


def uniform_spanning_tree(nug: Nug, rng) -> Dag:
    """Uniform spanning tree of the NUG, rooted uniformly at random."""
    return _wilson_tree(nug, rng)


def posterior_spanning_tree(nug: Nug, z, beta: float, rng) -> Dag:
    """Spanning tree with skeleton probability ~ prod exp(beta * I(z_i = z_j)).

    The walk transition from v to u is proportional to the single-parent
    weight exp(beta * I(z_v = z_u)); per-vertex normalizers are the constant
    1 + e^beta, so they cancel and the skeleton targets the edge-match
    product. The root carries no information and is uniform. Past beta =
    700, near where e^beta overflows, a tree with one more mismatched edge
    than the fewest possible weighs e^-700 or less against one with the
    fewest, so the draw is _fewest_mismatch_tree's.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    if beta > 700.0:
        return _fewest_mismatch_tree(nug, z, rng)
    nbrs = nug.padded_neighbors()
    zz = np.append(np.asarray(z), 0)  # the padding index n reads this extra slot
    weight = np.where(zz[nbrs] == zz[:-1, None], float(np.exp(beta)), 1.0)
    weight[nbrs == nug.n] = 0.0
    return _wilson_tree(nug, rng, np.cumsum(weight, axis=1).tolist())


def _component_minima(n, i, j):
    """The lowest vertex of each vertex's component in the graph with edges (i[e], j[e])."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[i], label[j])
        new = label.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _fewest_mismatch_tree(nug: Nug, z, rng) -> Dag:
    """A uniform draw among the spanning trees with the fewest edges joining unequal values.

    Such a tree spans each of the c same-value components with the
    component's own edges and joins the components by c - 1 mismatched
    edges; the parts are uniform and independent. One Wilson walk draws them
    all, on the matched edges, a vertex n + a tied to the lowest vertex of
    each component a, and a vertex per mismatched edge tied to the
    components of its two ends. That edge joins the tree when both of its
    ties are drawn, and each tree of the components arises from equally
    many draws. The root is uniform.
    """
    n, zz = nug.n, np.asarray(z)
    same = zz[nug.edge_i] == zz[nug.edge_j]
    i, j, mi, mj = nug.edge_i[same], nug.edge_j[same], nug.edge_i[~same], nug.edge_j[~same]
    lowest, label = np.unique(_component_minima(n, i, j), return_inverse=True)
    c = len(lowest)
    mid = np.arange(n + c, n + c + len(mi))
    ti = np.concatenate((i, lowest, n + label[mi], n + label[mj]))
    tj = np.concatenate((j, np.arange(n, n + c), mid, mid))
    walk = _wilson_tree(_trusted_nug(n + c + len(mi), ti, tj, np.ones_like(ti)), rng)
    ties = np.bincount(np.concatenate((walk.edge_child, walk.edge_parent)), minlength=n + c + len(mi))
    inner = (walk.edge_child < n) & (walk.edge_parent < n)
    edges = np.concatenate((np.column_stack((walk.edge_child, walk.edge_parent))[inner],
                            np.column_stack((mi, mj))[ties[n + c:] == 2]))
    return tree_dag(n, edges.tolist(), int(rng.integers(n)))


def markov_blanket(dag: Dag, i: int) -> set:
    """Parents, children, and co-parents of children of i (i excluded)."""
    if not (0 <= i < dag.n):
        raise ValueError(f"vertex {i} out of range")
    blanket = set(dag.parents[i]) | set(dag.children[i])
    for k in dag.children[i]:
        blanket.update(dag.parents[k])
    blanket.discard(i)
    return blanket


def dag_to_csv(dag: Dag, path) -> None:
    """Serialize as `child,parent` lines under `# root=.. class=..` and `# n=..` headers."""
    with open(path, "w", encoding="utf-8") as fh:
        root = dag.root if dag.root is not None else ""
        fh.write(f"# root={root} class={dag.class_tag}\n")
        fh.write(f"# n={dag.n}\n")
        for child, parent in dag.directed_edges():
            fh.write(f"{child},{parent}\n")


def _parse_int(text, lineno, what):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} must be an integer, got {text.strip()!r}") from None


def dag_from_csv(path, n=None) -> Dag:
    """Inverse of dag_to_csv.

    When n is omitted it is taken from the `# n=` header, else inferred from
    the edges. A non-integer field or an edge outside [0, n) raises
    ValueError with its line number.
    """
    root = None
    class_tag = CLASS_GENERAL
    header_n = None
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    key, _, value = token.partition("=")
                    if key == "root" and value:
                        root = _parse_int(value, lineno, "root")
                    elif key == "class" and value:
                        class_tag = value
                    elif key == "n" and value:
                        header_n = _parse_int(value, lineno, "vertex count")
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'child,parent'")
            child, parent = (_parse_int(p, lineno, "vertex index") for p in parts)
            pairs.append((lineno, child, parent))
    if n is None:
        n = header_n
    if n is None:
        n = 1 + max((max(c, p) for _, c, p in pairs), default=root if root is not None else -1)
    parents = [[] for _ in range(n)]
    for lineno, child, parent in pairs:
        if not (0 <= child < n and 0 <= parent < n):
            raise ValueError(f"line {lineno}: edge {child},{parent} out of range for n={n}")
        parents[child].append(parent)
    return Dag(parents, class_tag=class_tag, root=root)
