"""DAG classes compatible with a NUG: spanning trees, rooted DAGs, orientations.

A DAG is compatible with a NUG when every directed edge appears as an
undirected edge of the NUG. Three constructible classes are provided:

* spanning trees (minimal connected; sampled by loop-erased random walk),
* rooted DAGs (one per root; oriented by bucket-queue shortest path cost),
* acyclic orientations (all NUG edges oriented by a vertex permutation).
"""

from __future__ import annotations

import bisect
import functools
import itertools

import numpy as np

from .graph import (DisconnectedGraphError, Nug, _component_minima, _parse_int, _records, _split,
                    _trusted_nug, is_connected)

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
        orphans = np.flatnonzero(self.in_degree == 0).tolist()
        if self.class_tag == CLASS_SPANNING_TREE:
            if self.root is None or orphans != [self.root]:
                raise ValueError("spanning tree must have exactly one orphan, the root")
            # With acyclicity, one parent per non-root vertex means every
            # parent path ends at the root: the skeleton is a spanning tree.
            if self.in_degree.max() > 1:
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
    """Orient each NUG edge from its lower- to its higher-labelled end; equal labels drop it.

    One masked pass: an arc (i, j) whose head j has the lower label is the edge
    (child i, parent j), and the CSR arcs are sorted by i, then j: Dag order.
    """
    down = label[nug.arc_j] < label[nug.arc_i]
    return _trusted_dag(nug.n, nug.arc_i[down], nug.arc_j[down], class_tag, root)


def _path_costs(nug: Nug, root: int) -> np.ndarray:
    """Minimum weighted path cost from the root to every vertex, as integers.

    Dial's bucket queue: with weights 1 and 2, the open vertices sit in three
    rotating buckets at costs d, d + 1 and d + 2. A vertex is final when its
    bucket is popped; entries left behind by a later improvement are skipped.
    """
    if not (0 <= root < nug.n):
        raise ValueError(f"root {root} out of range")
    adj = nug.weighted_neighbors()
    far = 2 * nug.n  # above every path cost: at most n - 1 edges of weight 2
    label = [far] * nug.n
    label[root] = d = 0
    now, near, after = [root], [], []
    while now or near:
        for v in now:
            if label[v] == d:
                for u, w in adj[v]:
                    if d + w < label[u]:
                        label[u] = d + w
                        (near if w == 1 else after).append(u)
        now, near, after, d = near, after, [], d + 1
    if far in label:
        raise DisconnectedGraphError(f"not every vertex is reachable from root {root}")
    return np.array(label)


def _four_end_vertex(nug: Nug) -> int:
    """central_vertex's first guess, before its descent.

    Four _path_costs passes start from far-apart ends: the vertex farthest
    from vertex 0, then each time the one farthest from its nearest end so
    far (ties: largest total distance). The vertex with the smallest sum of
    squared costs to the ends wins, the lowest index on ties.
    """
    far, ends = _path_costs(nug, 0), []
    for _ in range(4):
        ends.append(_path_costs(nug, int(np.argmax(far))))
        far = np.min(ends, axis=0) * 8 * nug.n + np.sum(ends, axis=0)
    return int(np.argmin(np.square(ends).sum(axis=0)))


def central_vertex(nug: Nug) -> int:
    """A vertex near the middle of a connected graph, cached on the Nug.

    It starts at _four_end_vertex(nug), exact on lattices but not always on
    irregular graphs, and descends: while some neighbour has a strictly
    smaller total path cost to all vertices, it moves to the neighbour with
    the smallest (the lowest index on ties). Each vertex it weighs costs one
    _path_costs pass.
    """
    if nug._centre is None:
        total = functools.cache(lambda u: int(_path_costs(nug, u).sum()))
        v = _four_end_vertex(nug)
        while total(best := min(nug.neighbor_lists[v], key=total, default=v)) < total(v):
            v = best
        nug._centre = v
    return nug._centre


def rooted_dag(nug: Nug, root: int) -> Dag:
    """The unique root-oriented DAG for the given root vertex.

    Vertices are labelled by integer minimum path cost from the root (Dial's
    bucket-queue search); each NUG edge is oriented from the lower to the
    higher label, and equal-label edges are deleted.
    """
    return _orient_by_label(nug, _path_costs(nug, root), CLASS_ROOTED, root)


def acyclic_orientation(nug: Nug, perm) -> Dag:
    """Orient every NUG edge from the earlier to the later vertex in perm."""
    order = np.asarray(perm)
    rank = np.argsort(order)  # the inverse permutation, if order is one
    if order.shape != (nug.n,) or not np.array_equal(order[rank], np.arange(nug.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    return _orient_by_label(nug, rank, CLASS_ACYCLIC_ORIENTATION)


def tree_dag(n: int, tree_edges, root: int) -> Dag:
    """Orient an undirected spanning tree away from the given root; ValueError if it is not one."""
    tree = Nug(n, tree_edges)
    if len(tree.edges) != n - 1:
        raise ValueError(f"{len(tree.edges)} edges cannot form a spanning tree of {n} vertices")
    return _orient_by_label(tree, _path_costs(tree, root), CLASS_SPANNING_TREE, root)


# Walk steps per vertex that one tree draw may take. At beta <= 1 the longest
# of 1000 draws on each reference lattice took 26 per vertex (32x32 first order).
WALK_STEP_CAP = 4096


class WalkCapError(RuntimeError):
    """A spanning-tree draw took WALK_STEP_CAP walk steps per vertex without finishing."""


def _uniforms(rng, size, blocks):
    """Uniforms in at most the given number of blocks of size, then StopIteration.

    A memoryview yields each one as a Python float, converted only when
    the walk reaches it: float arithmetic is faster than on numpy scalars,
    and a short walk pays nothing for the rest of its block.
    """
    return itertools.chain.from_iterable(map(lambda _: memoryview(rng.random(size)), range(blocks)))


def _wilson_tree(nug: Nug, rng, cum) -> Dag:
    """Loop-erased random-walk spanning tree draw on a connected NUG (Wilson, 1996).

    cum[v] lists the cumulative edge weights over v's neighbors divided by
    their total (row v of nug.padded_neighbors(), padding weighted 0, so
    cum[v][-1] is 1): the walk moves from v to neighbor u with probability
    proportional to the weight of (v, u), and the skeleton probability is
    proportional to the product of its edge weights, uniform at unit
    weights. That law does not depend on the root, so every walk ends at
    central_vertex(nug), where walks are shortest, and edges point away
    from it: a vertex's parent is its successor on its loop-erased path.
    Unvisited vertices start walks in ascending index order, which does not
    affect the output distribution. Uniforms come in blocks of 4n, near
    what a draw uses; past WALK_STEP_CAP steps per vertex it raises WalkCapError.
    """
    n = nug.n
    root = central_vertex(nug)
    size, blocks = 4 * n, WALK_STEP_CAP // 4
    uniform = _uniforms(rng, size, blocks).__next__
    nbrs, step = nug.neighbor_lists, bisect.bisect_right
    nxt = [-1] * n
    in_tree = bytearray(n)
    in_tree[root] = 1
    try:
        for start in range(n):
            v = start
            while not in_tree[v]:
                nxt[v] = v = nbrs[v][step(cum[v], uniform())]
            v = start
            while not in_tree[v]:
                in_tree[v] = 1
                v = nxt[v]
    except StopIteration:
        raise WalkCapError(f"the tree draw took more than {blocks * size} walk steps") from None
    parent = np.array(nxt, dtype=np.intp)  # the root's entry stays -1
    child = np.flatnonzero(parent >= 0)
    return _trusted_dag(n, child, parent[child], CLASS_SPANNING_TREE, root)


def uniform_spanning_tree(nug: Nug, rng) -> Dag:
    """Uniform spanning tree of the NUG, rooted at central_vertex(nug).

    It is the unit-weight walk: posterior_spanning_tree at beta 0, whose
    weights e^0 and 1 are equal whatever the field.
    """
    return posterior_spanning_tree(nug, np.zeros(nug.n, dtype=np.uint8), 0.0, rng)


def posterior_spanning_tree(nug: Nug, z, beta: float, rng) -> Dag:
    """Spanning tree with skeleton probability ~ prod exp(beta * I(z_i = z_j)).

    The walk transition from v to u is proportional to the single-parent
    weight exp(beta * I(z_v = z_u)); per-vertex normalizers are the constant
    1 + e^beta, so they cancel and the skeleton targets the edge-match
    product. The root carries no information and is central_vertex(nug).
    A walk that leaves a same-value region takes about e^beta steps, so
    from beta of about 10 a draw can hit WALK_STEP_CAP and raise
    WalkCapError. Past beta = 700, near where e^beta overflows, a tree with
    one more mismatched edge than the fewest possible weighs e^-700 or less
    against one with the fewest, so the draw is _fewest_mismatch_tree's.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    if not is_connected(nug):
        raise DisconnectedGraphError("spanning tree sampling requires a connected NUG")
    if beta > 700.0:
        return _fewest_mismatch_tree(nug, z, rng)
    nbrs = nug.padded_neighbors()
    zz = np.append(np.asarray(z), 0)  # the padding index n reads this extra slot
    weight = np.where(zz[nbrs] == zz[:-1, None], float(np.exp(beta)), 1.0)
    weight[nbrs == nug.n] = 0.0
    cum = np.cumsum(weight, axis=1)
    return _wilson_tree(nug, rng, (cum / cum[:, -1:]).tolist())


def _fewest_mismatch_tree(nug: Nug, z, rng) -> Dag:
    """A uniform draw among the spanning trees with the fewest edges joining unequal values.

    Such a tree spans each of the c same-value components with the
    component's own edges and joins the components by c - 1 mismatched
    edges; the parts are uniform and independent. One Wilson walk draws them
    all, on the matched edges, a vertex n + a tied to the lowest vertex of
    each component a, and a vertex per mismatched edge tied to the
    components of its two ends. That edge joins the tree when both of its
    ties are drawn, and each tree of the components arises from equally
    many draws. The root is central_vertex(nug).
    """
    n, zz = nug.n, np.asarray(z)
    same = zz[nug.edge_i] == zz[nug.edge_j]
    i, j, mi, mj = nug.edge_i[same], nug.edge_j[same], nug.edge_i[~same], nug.edge_j[~same]
    lowest, label = np.unique(_component_minima(n, i, j), return_inverse=True)
    c = len(lowest)
    mid = np.arange(n + c, n + c + len(mi))
    ti = np.concatenate((i, lowest, n + label[mi], n + label[mj]))
    tj = np.concatenate((j, np.arange(n, n + c), mid, mid))
    tied = _trusted_nug(n + c + len(mi), ti, tj, np.ones_like(ti))
    # walked once, so central_vertex's descent would cost more passes than it saves steps
    tied._centre = _four_end_vertex(tied)
    walk = uniform_spanning_tree(tied, rng)
    ties = np.bincount(np.concatenate((walk.edge_child, walk.edge_parent)), minlength=n + c + len(mi))
    inner = (walk.edge_child < n) & (walk.edge_parent < n)
    joins = ties[n + c:] == 2
    a = np.concatenate((walk.edge_child[inner], mi[joins]))
    b = np.concatenate((walk.edge_parent[inner], mj[joins]))
    tree = _trusted_nug(n, np.minimum(a, b), np.maximum(a, b), np.ones_like(a))
    root = central_vertex(nug)
    return _orient_by_label(tree, _path_costs(tree, root), CLASS_SPANNING_TREE, root)


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


def dag_from_csv(path) -> Dag:
    """Inverse of dag_to_csv.

    The vertex count comes from the `# n=` header, else from the edges. A
    malformed line, a self-loop or an edge outside [0, n) raises ValueError
    naming the first bad line.
    """
    root, n, class_tag, pairs, bad = None, None, CLASS_GENERAL, [], None
    try:
        for lineno, rec in _records(path):
            if isinstance(rec, str):
                header = dict(token.partition("=")[::2] for token in rec.split())
                root = _parse_int(header["root"], lineno, "root") if header.get("root") else root
                n = _parse_int(header["n"], lineno, "vertex count", True) if header.get("n") else n
                class_tag = header.get("class") or class_tag
            elif len(rec) != 2:
                raise ValueError(f"line {lineno}: expected 'child,parent'")
            else:
                pairs.append((lineno, *(_parse_int(f, lineno, "vertex index") for f in rec)))
    except ValueError as exc:
        bad = exc  # raised below, unless an edge above it is out of range or a self-loop
    if n is None:
        n = 1 + max((max(c, p) for _, c, p in pairs), default=root if root is not None else -1)
    parents = [[] for _ in range(n)]
    for lineno, child, parent in pairs:
        if not (0 <= child < n and 0 <= parent < n) or child == parent:
            raise ValueError(f"line {lineno}: edge {child},{parent} outside [0, {n}) or a self-loop")
        parents[child].append(parent)
    if bad:
        raise bad
    return Dag(parents, class_tag=class_tag, root=root)
