"""DAG classes compatible with a NUG: spanning trees, rooted DAGs, orientations.

A DAG is compatible with a NUG when every directed edge appears as an
undirected edge of the NUG. Three constructible classes are provided:

* spanning trees (minimal connected; sampled by loop-erased random walk),
* rooted DAGs (one per root; shortest-weighted-path orientation),
* acyclic orientations (all NUG edges oriented by a vertex permutation).
"""

from __future__ import annotations

import heapq
from itertools import chain

import numpy as np

from .graph import DisconnectedGraphError, Nug, is_connected

CLASS_SPANNING_TREE = "spanning-tree"
CLASS_ROOTED = "rooted"
CLASS_ACYCLIC_ORIENTATION = "acyclic-orientation"
CLASS_GENERAL = "general"

_CLASS_TAGS = (CLASS_SPANNING_TREE, CLASS_ROOTED, CLASS_ACYCLIC_ORIENTATION, CLASS_GENERAL)


class Dag:
    """Immutable directed acyclic graph stored as parent and child lists.

    The edge (child, parent) convention follows the factorization: vertex i
    is conditioned on its parents pi(i). A parent listed twice counts once.
    The parents also come as CSR arrays: edge_child and edge_parent list
    every (child, parent) pair in directed_edges() order, and in_degree[i]
    is the number of parents of i. Construction verifies acyclicity and,
    for tagged classes, the class invariant (single-parent spanning tree,
    or single-orphan rooted DAG).
    """

    __slots__ = ("n", "parents", "children", "edge_child", "edge_parent", "in_degree",
                 "class_tag", "root")

    def __init__(self, parents, class_tag=CLASS_GENERAL, root=None):
        n = len(parents)
        if class_tag not in _CLASS_TAGS:
            raise ValueError(f"unknown DAG class tag: {class_tag!r}")
        pa_sets = tuple(tuple(sorted(set(pa))) for pa in parents)
        kids = [[] for _ in range(n)]
        for i, pa in enumerate(pa_sets):
            for j in pa:
                if not (0 <= j < n) or j == i:
                    raise ValueError(f"invalid parent {j} for vertex {i}")
                kids[j].append(i)
        self.n = n
        self.parents = pa_sets
        self.children = tuple(map(tuple, kids))  # ascending: built in vertex order
        self.in_degree = np.fromiter(map(len, pa_sets), dtype=np.intp, count=n)
        self.edge_child = np.repeat(np.arange(n), self.in_degree)
        self.edge_parent = np.fromiter(
            chain.from_iterable(pa_sets), dtype=np.intp, count=len(self.edge_child)
        )
        self.class_tag = class_tag
        self.root = root
        self._check_acyclic()
        self._check_class()

    def _check_acyclic(self):
        indeg = [len(pa) for pa in self.parents]
        stack = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for k in self.children[v]:
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
        return [(i, j) for i in range(self.n) for j in self.parents[i]]

    def __repr__(self):
        return f"Dag(n={self.n}, edges={self.num_edges()}, class={self.class_tag!r})"


def is_compatible(dag: Dag, nug: Nug) -> bool:
    """True iff every directed edge of the DAG is an undirected NUG edge."""
    if dag.n != nug.n:
        raise ValueError(f"vertex count mismatch: dag has {dag.n}, nug has {nug.n}")
    edge_set = set(nug.edges)
    for i, j in dag.directed_edges():
        if ((i, j) if i < j else (j, i)) not in edge_set:
            return False
    return True


def skeleton(dag: Dag) -> Nug:
    """Undirected structure of the DAG; orientation dropped, weights 1."""
    edges = {(i, j) if i < j else (j, i) for i, j in dag.directed_edges()}
    return Nug(dag.n, sorted(edges))


def rooted_dag(nug: Nug, root: int) -> Dag:
    """The unique root-oriented DAG for the given root vertex.

    Vertices are labeled with the minimum weighted path cost from the root
    (Dijkstra; ties in the queue broken by lower vertex index). Each NUG
    edge is oriented from the lower to the higher label; equal-label edges
    are deleted.
    """
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
        raise DisconnectedGraphError("rooted DAG requires a connected NUG")
    parents = [[] for _ in range(nug.n)]
    for i, j in nug.edges:
        if label[i] < label[j]:
            parents[j].append(i)
        elif label[j] < label[i]:
            parents[i].append(j)
        # equal labels: edge deleted
    return Dag(parents, class_tag=CLASS_ROOTED, root=root)


def acyclic_orientation(nug: Nug, perm) -> Dag:
    """Orient every NUG edge from the earlier to the later vertex in perm."""
    order = list(perm)
    if sorted(order) != list(range(nug.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    rank = [0] * nug.n
    for pos, v in enumerate(order):
        rank[v] = pos
    parents = [[] for _ in range(nug.n)]
    for i, j in nug.edges:
        if rank[i] < rank[j]:
            parents[j].append(i)
        else:
            parents[i].append(j)
    return Dag(parents, class_tag=CLASS_ACYCLIC_ORIENTATION)


def tree_dag(n: int, tree_edges, root: int) -> Dag:
    """Orient an undirected spanning tree away from the given root."""
    nbrs = [[] for _ in range(n)]
    for i, j in tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    parents = [[] for _ in range(n)]
    stack = [root]
    visited = [False] * n
    visited[root] = True
    while stack:
        v = stack.pop()
        for u in nbrs[v]:
            if not visited[u]:
                visited[u] = True
                parents[u].append(v)
                stack.append(u)
    if not all(visited):
        raise ValueError("tree edges do not span all vertices")
    return Dag(parents, class_tag=CLASS_SPANNING_TREE, root=root)


class _UniformBuffer:
    """Block-buffered uniforms; cuts per-draw RNG overhead in walk loops."""

    __slots__ = ("rng", "buf", "i", "size")

    def __init__(self, rng, size=65536):
        self.rng = rng
        self.size = size
        self.buf = rng.random(size)
        self.i = 0

    def next(self):
        i = self.i
        if i >= self.size:
            self.buf = self.rng.random(self.size)
            i = 0
        self.i = i + 1
        return self.buf[i]


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
    buf = _UniformBuffer(rng, min(65536, max(1024, 16 * n)))
    root = int(buf.next() * n)
    if n == 1:
        return Dag([[]], class_tag=CLASS_SPANNING_TREE, root=0)
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
                u = nb[int(buf.next() * len(nb))]
            else:
                row = cum[v]
                x = buf.next() * row[-1]
                k = 0
                while row[k] <= x:
                    k += 1
                u = nb[k]
            nxt[v] = u
            v = u
        v = start
        while not in_tree[v]:
            in_tree[v] = 1
            parent[v] = nxt[v]
            v = nxt[v]
    return Dag(
        [[parent[v]] if parent[v] >= 0 else [] for v in range(n)],
        class_tag=CLASS_SPANNING_TREE,
        root=root,
    )


def uniform_spanning_tree(nug: Nug, rng) -> Dag:
    """Uniform spanning tree of the NUG, rooted uniformly at random."""
    return _wilson_tree(nug, rng)


def posterior_spanning_tree(nug: Nug, z, beta: float, rng) -> Dag:
    """Spanning tree with skeleton probability ~ prod exp(beta * I(z_i = z_j)).

    The walk transition from v to u is proportional to the single-parent
    weight exp(beta * I(z_v = z_u)); per-vertex normalizers are the constant
    1 + e^beta, so they cancel and the skeleton targets the edge-match
    product. The root carries no information and is uniform.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    if beta == 0.0:
        return _wilson_tree(nug, rng)
    nbrs = nug.padded_neighbors()
    zz = np.append(np.asarray(z), 0)  # the padding index n reads this extra slot
    weight = np.where(zz[nbrs] == zz[:-1, None], float(np.exp(beta)), 1.0)
    weight[nbrs == nug.n] = 0.0
    return _wilson_tree(nug, rng, np.cumsum(weight, axis=1).tolist())


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
