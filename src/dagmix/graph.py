"""Undirected areal-unit graphs: lattice builders, edge-list I/O, exact counts.

A NUG (natural undirected graph) encodes spatial contiguity between areal
units. Vertices are dense 0-based indices; every edge carries a weight in
{1, 2} (1 = border contact, 2 = corner contact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided


class GraphFormatError(ValueError):
    """An edge-list file could not be parsed."""


class DisconnectedGraphError(ValueError):
    """The operation requires a connected graph."""


class IntractableError(RuntimeError):
    """An exact computation (a count, an enumeration, a sweep) would exceed its size cap."""


ORDER_FIRST = "first"
ORDER_SECOND = "second"


@dataclass(frozen=True)
class LatticeSpec:
    """Regular rows x cols lattice with a first- or second-order neighborhood."""

    rows: int
    cols: int
    order: str = ORDER_FIRST

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("lattice needs at least one row and one column")
        if self.order not in (ORDER_FIRST, ORDER_SECOND):
            raise ValueError(f"unknown neighborhood order: {self.order!r}")


class Nug:
    """Immutable undirected graph over n areal units.

    Edges are unordered pairs stored once as (i, j) with i < j; edge_i and
    edge_j hold their endpoints as index arrays. Neighbor lists are sorted,
    and arc_i, arc_j, arc_w list every neighbor pair in both directions in
    the same order with its weight (CSR: arc_i ascending, degrees[i] entries
    per vertex); edges, weights and neighbor_lists are Python-int views.
    Nug(n, edges, weights) checks outside input; the library's builders skip
    the checks. Instances are safe to share across chains; all further
    derived structure (coloring, padded and weighted neighbors, heat-bath
    layouts, connectivity) is cached lazily.
    """

    __slots__ = ("n", "edges", "edge_i", "edge_j", "weights", "neighbor_lists",
                 "arc_i", "arc_j", "arc_w", "degrees", "_color_classes", "_padded_neighbors",
                 "_weighted_neighbors", "_class_layouts", "_connected", "_centre", "_dos")

    def __init__(self, n, edges, weights=None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        ends = np.array(list(edges), dtype=object).reshape(-1, 2)  # as given, so that 0.5 fails
        for k in np.flatnonzero((ends != ends.astype(np.intp)).any(axis=1))[:1]:
            raise ValueError(f"vertex index must be an integer, got edge {tuple(ends[k])}")
        i, j = np.sort(ends.astype(np.intp), axis=1).T
        w = np.ones(len(i), dtype=object)  # each weight as given, so that "2" or 1.5 fails
        slot = dict(zip(zip(i.tolist(), j.tolist()), range(len(i))))
        for (a, b), wt in (weights or {}).items():
            k = slot.get((a, b) if a < b else (b, a))
            if k is None:
                raise ValueError(f"weight given for missing edge {(a, b)}")
            w[k] = wt
        if fault := _edge_fault(n, i, j, w):
            raise ValueError(fault[1])
        self._set_arrays(n, i, j, w.astype(np.intp))

    def _set_arrays(self, n, i, j, w):
        """Fill every form from edge arrays with i < j on each edge, in any order."""
        order = np.lexsort((j, i))
        i, j, w = i[order], j[order], w[order]
        tail, head = np.concatenate((i, j)), np.concatenate((j, i))
        arcs = np.lexsort((head, tail))
        self.n = n
        self.edge_i, self.edge_j = i, j
        self.arc_i, self.arc_j, self.arc_w = tail[arcs], head[arcs], np.concatenate((w, w))[arcs]
        self.degrees = np.bincount(self.arc_i, minlength=n)
        self.edges = tuple(zip(i.tolist(), j.tolist()))
        self.weights = dict(zip(self.edges, w.tolist()))
        self.neighbor_lists = _split(self.arc_j.tolist(), self.degrees)
        self._color_classes = self._padded_neighbors = self._weighted_neighbors = None
        self._class_layouts = {}
        self._connected = True if n <= 1 else None  # else set by is_connected
        self._centre = self._dos = None  # set by dags.central_vertex and density_of_states

    def neighbors(self, i):
        return self.neighbor_lists[i]

    def degree(self, i):
        return len(self.neighbor_lists[i])

    def weight(self, i, j):
        key = (i, j) if i < j else (j, i)
        return self.weights[key]

    def adjacency_matrix(self):
        """Symmetric 0/1 association matrix A(N) with zero diagonal."""
        a = np.zeros((self.n, self.n), dtype=np.int64)
        a[self.arc_i, self.arc_j] = 1
        return a

    def color_classes(self):
        """Greedy partition into independent vertex sets (ascending index).

        Within a class no two vertices are adjacent, so single-site updates
        of a whole class commute and can be applied simultaneously.
        """
        if self._color_classes is None:
            color = [-1] * self.n
            for v in range(self.n):
                used = {color[u] for u in self.neighbor_lists[v] if color[u] >= 0}
                c = 0
                while c in used:
                    c += 1
                color[v] = c
            k = max(color) + 1 if self.n else 0
            self._color_classes = tuple(
                np.array([v for v in range(self.n) if color[v] == c], dtype=np.intp)
                for c in range(k)
            )
        return self._color_classes

    def padded_neighbors(self):
        """(n, max degree) matrix whose row i lists i's neighbors, padded with index n."""
        if self._padded_neighbors is None:
            width = int(self.degrees.max(initial=0))
            mat = np.full((self.n, width), self.n, dtype=np.intp)
            starts = np.cumsum(self.degrees) - self.degrees
            mat[self.arc_i, np.arange(len(self.arc_i)) - starts[self.arc_i]] = self.arc_j
            self._padded_neighbors = mat
        return self._padded_neighbors

    def weighted_neighbors(self):
        """weighted_neighbors()[i]: i's (neighbor, edge weight) pairs of Python ints, ascending."""
        if self._weighted_neighbors is None:
            pairs = list(zip(self.arc_j.tolist(), self.arc_w.tolist()))
            self._weighted_neighbors = _split(pairs, self.degrees)
        return self._weighted_neighbors

    def class_layout(self, copies):
        """Positions for a class-by-class heat-bath pass over stacked copies of the field.

        The copies share one state vector of length copies * n + 1, laid out
        class by class: each color class's sites in copy 0, then the same
        sites in copy 1, and so on, then one zero pad slot shared by all. A
        class update therefore writes one contiguous slice. The z sweep uses
        one copy; CFTP stacks its lower and upper chains as two. Returns
        (classes, positions, order). Per color class, classes holds (neighbors,
        span): span is the class's slice of the state, and neighbors is a
        C-contiguous (width, span length) matrix whose column j lists the
        positions of the neighbors of the site at span.start + j in the same
        copy, padded with the pad slot. positions is a (copies, n) array
        holding the position of each copy's vertex v at [copy, v], and order
        its inverse: the vertex at each of the copies * n site positions.
        """
        layout = self._class_layouts.get(copies)
        if layout is None:
            n = self.n
            # one extra column maps the padding vertex n to the pad slot
            positions = np.full((copies, n + 1), copies * n, dtype=np.intp)
            spans, order = [], [np.zeros(0, dtype=np.intp)]
            start = 0
            for cls in self.color_classes():
                size = copies * len(cls)
                positions[:, cls] = np.arange(start, start + size).reshape(copies, -1)
                spans.append(slice(start, start + size))
                order.append(np.tile(cls, copies))
                start += size
            padded = self.padded_neighbors()
            classes = []
            for cls, span in zip(self.color_classes(), spans):
                width = int(self.degrees[cls].max(initial=0))
                mat = np.ascontiguousarray(padded[cls, :width].T)  # C order keeps the sums fast
                classes.append((np.concatenate([p[mat] for p in positions], axis=1), span))
            layout = (tuple(classes), positions[:, :n], np.concatenate(order))
            self._class_layouts[copies] = layout
        return layout

    def __repr__(self):
        return f"Nug(n={self.n}, edges={len(self.edges)})"


def _trusted_nug(n, i, j, w) -> Nug:
    """A Nug from edge arrays that its builder made valid, without the checks of Nug()."""
    nug = Nug.__new__(Nug)
    nug._set_arrays(n, i, j, w)
    return nug


def _edge_fault(n, i, j, w):
    """(k, why) for the first edge k (i[k] <= j[k], weight w[k]) that breaks a NUG rule, or None."""
    order = np.lexsort((j, i))  # stable: of a repeated pair, the first listing sorts first
    repeat = np.zeros(len(i), dtype=bool)
    repeat[order[1:]] = (np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)
    rules = {"self-loop at vertex {a}": i == j,
             "vertex index out of range in edge ({a},{b}) for n={n}": (i < 0) | (j >= n),
             "duplicate edge ({a}, {b})": repeat,
             "edge weight must be 1 or 2, got {w}": (w != 1) & (w != 2)}
    for k in np.flatnonzero(np.logical_or.reduce(list(rules.values())))[:1]:  # the first, if any
        why = next(why for why, rule in rules.items() if rule[k])
        return k, why.format(a=i[k], b=j[k], n=n, w=w[k])


def _split(flat, counts):
    """flat cut into consecutive tuples of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends))


def build_lattice_nug(spec: LatticeSpec) -> Nug:
    """NUG of a regular lattice; row-major cell indexing.

    First order connects edge-adjacent cells (weight 1); second order adds
    corner-adjacent cells (weight 2).
    """
    r, c = spec.rows, spec.cols
    grid = np.arange(r * c).reshape(r, c)
    ends = [(grid[:, :-1], grid[:, 1:]), (grid[:-1], grid[1:])]
    if spec.order == ORDER_SECOND:
        ends += [(grid[:-1, :-1], grid[1:, 1:]), (grid[:-1, 1:], grid[1:, :-1])]
    i, j = (np.concatenate([pair[k].ravel() for pair in ends]) for k in (0, 1))
    w = np.repeat([1, 1, 2, 2][:len(ends)], [a.size for a, _ in ends])
    return _trusted_nug(r * c, i, j, w)


def _records(path):
    """(lineno, record) per nonblank line: a `#` line's text, else its stripped comma fields."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for lineno, line in enumerate(map(str.strip, lines), start=1):
        if line[:1] == "#":
            yield lineno, line[1:]
        elif line:
            yield lineno, list(map(str.strip, line.split(",")))


def _parse_int(text, lineno, what, nonnegative=False, error=ValueError):
    """int(text), else an `error` naming the line and the field (also below 0 if nonnegative)."""
    try:
        value = int(text)
    except ValueError:
        raise error(f"line {lineno}: {what} must be an integer, got {text.strip()!r}") from None
    if nonnegative and value < 0:
        raise error(f"line {lineno}: {what} must be nonnegative")
    return value


def load_nug(path) -> Nug:
    """Read an edge list: one `i,j[,w]` line per edge, `#` comments ignored.

    Weights default to 1. The vertex count is taken from a `# n=<count>`
    header before the first edge (as written by save_nug), else inferred as
    max index + 1. Errors name the first bad line (1-based).
    """
    n, rows, malformed = None, [], False
    for lineno, rec in _records(path):
        if isinstance(rec, str):
            key, _, value = rec.partition("=")
            if n is None and not rows and key.strip() == "n":
                n = _parse_int(value, lineno, "vertex count", True, GraphFormatError)
            continue
        try:
            if len(rec) in (2, 3):
                rows += lineno, int(rec[0]), int(rec[1]), int(rec[2]) if len(rec) == 3 else 1
                continue
        except ValueError:
            pass
        malformed = True  # reported below, unless an edge above it breaks a rule
        break
    lines, a, b, w = np.array(rows, dtype=np.intp).reshape(-1, 4).T
    i, j = np.minimum(a, b), np.maximum(a, b)
    n = 1 + int(j.max(initial=-1)) if n is None else n
    if fault := _edge_fault(n, i, j, w):
        raise GraphFormatError(f"line {lines[fault[0]]}: {fault[1]}")
    if malformed:  # lineno and rec still hold the malformed line
        if len(rec) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: expected 'i,j[,w]', got {','.join(rec)!r}")
        for text, what in zip(rec, ("vertex index", "vertex index", "weight")):
            _parse_int(text, lineno, what, error=GraphFormatError)
    return _trusted_nug(n, i, j, w)


def save_nug(nug: Nug, path) -> None:
    """Write the edge list in the same `i,j,w` format accepted by load_nug."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={nug.n}\n")
        for i, j in nug.edges:
            fh.write(f"{i},{j},{nug.weights[(i, j)]}\n")


def laplacian(nug: Nug) -> np.ndarray:
    """Graph Laplacian W(N) - A(N) with W the (unweighted) degree matrix."""
    a = nug.adjacency_matrix()
    return np.diag(a.sum(axis=1)) - a


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


def is_connected(nug: Nug) -> bool:
    """Whether vertex 0 is the lowest vertex of every vertex's component, cached on the Nug."""
    if nug._connected is None:
        nug._connected = not _component_minima(nug.n, nug.edge_i, nug.edge_j).any()
    return nug._connected


def _int_det_bareiss(a) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def count_spanning_trees(nug: Nug) -> int:
    """Exact spanning-tree count: the (0, 0) cofactor of the Laplacian.

    Computed in arbitrary-precision integer arithmetic; a disconnected graph
    (count zero) raises DisconnectedGraphError rather than returning 0.
    """
    if not is_connected(nug):
        raise DisconnectedGraphError("graph is disconnected; spanning tree count is zero")
    if nug.n <= 1:
        return 1
    return _int_det_bareiss(laplacian(nug)[1:, 1:])


def count_acyclic_orientations(nug: Nug, max_edges: int = 24) -> int:
    """Exact acyclic-orientation count via the chromatic polynomial at -1.

    Deletion-contraction with memoization on (vertex set, edge set); graphs
    with more than max_edges edges raise IntractableError (sample
    orientations by random permutation instead of counting).
    """
    if len(nug.edges) > max_edges:
        raise IntractableError(
            f"{len(nug.edges)} edges exceeds the deletion-contraction cap "
            f"({max_edges}); counting is intractable here, sample orientations instead"
        )
    cache = {}

    def chi_at_minus_one(vertices, edges):
        if not edges:
            return (-1) ** len(vertices)
        key = (vertices, edges)
        val = cache.get(key)
        if val is not None:
            return val
        i, j = min(edges)
        deleted = edges - {(i, j)}
        contracted = set()
        for a, b in deleted:
            a2 = i if a == j else a
            b2 = i if b == j else b
            if a2 != b2:
                contracted.add((a2, b2) if a2 < b2 else (b2, a2))
        val = chi_at_minus_one(vertices, deleted) - chi_at_minus_one(
            vertices - {j}, frozenset(contracted)
        )
        cache[key] = val
        return val

    chi = chi_at_minus_one(frozenset(range(nug.n)), frozenset(nug.edges))
    return (-1) ** nug.n * chi


DOS_MAX_ENTRIES = 2**20  # density_of_states' cap: 2^(peak frontier) x (|E| + 1) counts


def density_of_states(nug: Nug) -> np.ndarray:
    """N[T], the number of 0/1 fields with T matching edges (T = 0..|E|), cached on the Nug.

    Bartolucci and Besag's transfer recursion (Biometrika 2002) places vertices
    in index order, counting over T per assignment of the frontier (placed
    vertices with an unplaced neighbour) relative to an anchor vertex, so that a
    field and its complement share a row. Each T reads T - (v's matches) through
    the strides of a view of the zero-padded previous table. Past DOS_MAX_ENTRIES
    (2^peak frontier, with the vertex being placed, times |E| + 1) or 1023
    vertices it raises IntractableError before allocating.
    """
    if nug._dos is not None:
        return nug._dos
    n, edges, last = nug.n, len(nug.edges), np.arange(nug.n)  # v is summed out at last[v]
    np.maximum.at(last, nug.edge_i, nug.edge_j)
    ending = np.bincount(last, minlength=n)  # vertices summed out at each step
    peak = int((np.arange(1, n + 1) - np.cumsum(ending) + ending).max(initial=0))  # with v
    if n > 1023 or (1 << peak) * (edges + 1) > DOS_MAX_ENTRIES:  # 2^1024 overflows a double
        raise IntractableError(f"n={n}, peak frontier {peak}, {edges} edges: over the table cap")
    lower = np.bincount(nug.edge_j, minlength=n)  # placed neighbours of each vertex
    pad = int(lower.max(initial=0))
    table, out = buf = np.empty((2, ((1 << peak) * (edges + 1 + 2 * pad) >> 1) + 3 * pad + 1))
    buf[:, :4 * pad + 1] = 0
    table[2 * pad] = 1.0  # nothing placed: one empty assignment, T = 0
    order, anchor, width, last = [], None, 1 + 2 * pad, last.tolist()  # the table's axes
    for v, nbrs in enumerate(nug.neighbor_lists):
        stride = {anchor: 0, v: 0} | {u: width << a for a, u in enumerate(order[::-1])}
        low, stay = set(nbrs[:lower[v]]), [u for u in order if last[u] != v]
        new = next((u for u in (anchor, v, *stay) if u is not None and last[u] != v), None)
        rest, v_axis = [u for u in stay if u != new], last[v] != v != new
        width += len(low)
        shape, half = (2,) * len(rest) + (width,), width << len(rest)
        out[pad:pad * 2 + half * (1 + v_axis)] = 0  # the next step reads pad entries past it
        split = [u for u in order if u not in rest]  # old axes with a fixed bit in each pass
        for x, *bits in np.ndindex((2,) * (1 + len(split))):  # x: v's bit
            bit = {anchor: 0, v: x, **dict.fromkeys(rest, 0), **dict(zip(split, bits))}
            dst = out[pad + half * x * v_axis:][:half].reshape(shape)
            steps = [stride[u] + (1 - 2 * x) * (u in low) for u in rest]  # T reads T - matches
            base = pad + sum(b * stride[u] - (b == x) * (u in low) for u, b in bit.items())
            if bit.get(new, 0):  # the new anchor's bit is 1: read the complement
                base, steps = base + sum(steps), [-s for s in steps]
            np.add(dst, as_strided(table[base:], shape, [8 * s for s in steps] + [8]), out=dst)
        table, out, order, anchor = out, table, [v] * v_axis + rest, new
    nug._dos = table[2 * pad:2 * pad + edges + 1].copy()
    return nug._dos
