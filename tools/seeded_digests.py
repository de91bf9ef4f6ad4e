"""Print one SHA-256 digest of a seeded chain's JSONL output per model.

Two checkouts whose samplers consume the same random numbers in the same
way print the same lines, so a claim that a change leaves seeded output
bit-identical is checked by running this script on both and comparing.

Run from the root of a checkout:

    python3 tools/seeded_digests.py

Each model fits the same data: the 6x6 second-order lattice, two ratings
per unit drawn with numpy's default_rng(0), 120 iterations with 60
burn-in and chain seed 7; exact-mrf truncates its beta prior at 0.45
and, the lattice being under density_of_states' cap, draws no CFTP sample.
The digest is the first 16 hex digits of the SHA-256 of to_jsonl.

A last line, `cftp <digest>`, covers perfect sampling alone: 100
cftp_ising draws and then the generator's next uniform, at 8x8 and 16x16
second order with beta 0.3 and at 32x32 first order with beta 0.6, each
setting from a fresh default_rng(7). Equal lines mean equal draws and equal
random-number consumption.

The line `graph <digest>` covers graph construction alone. For each of 8x8
and 16x16 second order and 32x32 first order it hashes four graphs:
build_lattice_nug, the same graph through save_nug and load_nug,
Nug(n, list(edges), dict(weights)), and skeleton(rooted_dag(nug, 0)). Each
graph contributes n, edges, the weights items and neighbor_lists, and the
dtype and bytes of edge_i, edge_j, arc_i, arc_j, degrees and
padded_neighbors().

The line `trees <digest>` covers spanning-tree draws alone. For each of
8x8 and 16x16 second order and 32x32 first order, from a fresh
default_rng(7), it hashes 100 uniform_spanning_tree draws, then 100
posterior_spanning_tree draws at beta 0.9 on the field drawn by
default_rng(0).integers(0, 2, n), then the generator's next uniform. Each
draw contributes the dtype and bytes of edge_child and edge_parent and its
root.

The line `limit <digest>` covers the beta > 700 tree draw alone. For each
of 8x8 second and 16x16 first order, from a fresh default_rng(7), it
hashes 50 posterior_spanning_tree draws at beta 800 on the field drawn by
default_rng(0).integers(0, 2, n), then the generator's next uniform. Each
draw contributes the dtype and bytes of edge_child and edge_parent, its
root and its class tag.

The line `rooted <digest>` covers rooted-DAG construction alone. For each
of 8x8 and 16x16 second order and 32x32 first order it hashes
rooted_dag(nug, r) for every root r in ascending order. Each DAG
contributes the dtype and bytes of edge_child and edge_parent and its root.

The line `orient <digest>` covers acyclic-orientation proposals alone. For
each of 8x8 and 16x16 second order, 32x32 first order and a seeded
irregular graph (100 vertices: a random tree plus 60 chords), from a fresh
default_rng(7), it hashes 50 orientation proposals of the sampler's DAG
move, then the generator's next uniform. Each proposal contributes the
dtype and bytes of edge_child, edge_parent and in_degree, and
flat_children().

The line `dos <digest>` covers the density of states alone: the bytes and
dtype of density_of_states for 3x3, 6x6 and 8x8 second order and for a
seeded 12-vertex random graph (each pair an edge with probability 0.3,
drawn by default_rng(7)). Above 2^53 the counts are rounded doubles, so
the line also pins the order of the sums.

The line `sweep <digest>` covers the DAG z sweep alone. On 16x16 second
order it takes a uniform spanning tree, the rooted DAG of root 37 and the
orientation by a uniform permutation, drawn in that order by
default_rng(0) after the starting field and two ratings per unit; on the
9-vertex star it takes the orientation of every edge into the centre,
which then has in-degree 8, with the star's field and ratings drawn by
default_rng(1). For each DAG at beta 0.3 and 1.5, from a fresh
default_rng(7), it hashes 40 gibbs_update_z sweeps with eta (0.25, 0.75)
from the starting field, then the generator's next uniform. Each sweep
contributes the dtype and bytes of its field.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dagmix import LatticeSpec, McmcConfig, Observations, PriorSpec, build_lattice_nug, run_chain  # noqa: E402
from dagmix.dags import (  # noqa: E402
    Dag,
    acyclic_orientation,
    posterior_spanning_tree,
    rooted_dag,
    skeleton,
    uniform_spanning_tree,
)
from dagmix.graph import Nug, density_of_states, load_nug, save_nug  # noqa: E402
from dagmix.model import NoiseParams  # noqa: E402
from dagmix.samplers import (  # noqa: E402
    ALL_MODELS,
    EXACT_MRF,
    MDGM_AO,
    _dag_prior,
    cftp_ising,
    gibbs_update_z,
)


def digests():
    """(model, digest) for each of the five models, in ALL_MODELS order."""
    nug = build_lattice_nug(LatticeSpec(6, 6, "second"))
    obs = Observations(np.random.default_rng(0).integers(0, 2, size=(nug.n, 2)).tolist())
    for model in ALL_MODELS:
        priors = PriorSpec(beta_max=0.45) if model == EXACT_MRF else PriorSpec()
        config = McmcConfig(iterations=120, burn_in=60, seed=7, model=model, priors=priors)
        buf = io.StringIO()
        run_chain(obs, nug, config).to_jsonl(buf)
        yield model, hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]


def cftp_digest():
    """Digest of the CFTP draws and each setting's next uniform."""
    h = hashlib.sha256()
    for spec, beta in ((LatticeSpec(8, 8, "second"), 0.3), (LatticeSpec(16, 16, "second"), 0.3),
                       (LatticeSpec(32, 32, "first"), 0.6)):
        nug = build_lattice_nug(spec)
        rng = np.random.default_rng(7)
        for _ in range(100):
            h.update(cftp_ising(nug, beta, rng).tobytes())
        h.update(repr(rng.random()).encode())
    return h.hexdigest()[:16]


def graph_digest():
    """Digest of every form of the lattice graphs and of the graphs derived from them."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.csv"
        for spec in (LatticeSpec(8, 8, "second"), LatticeSpec(16, 16, "second"),
                     LatticeSpec(32, 32, "first")):
            nug = build_lattice_nug(spec)
            save_nug(nug, path)
            for g in (nug, load_nug(path), Nug(nug.n, list(nug.edges), dict(nug.weights)),
                      skeleton(rooted_dag(nug, 0))):
                h.update(repr((g.n, g.edges, list(g.weights.items()), g.neighbor_lists)).encode())
                for a in (g.edge_i, g.edge_j, g.arc_i, g.arc_j, g.degrees, g.padded_neighbors()):
                    h.update(a.dtype.str.encode() + a.tobytes())
    return h.hexdigest()[:16]


def trees_digest():
    """Digest of uniform and posterior spanning-tree draws and each setting's next uniform."""
    h = hashlib.sha256()
    for spec in (LatticeSpec(8, 8, "second"), LatticeSpec(16, 16, "second"),
                 LatticeSpec(32, 32, "first")):
        nug = build_lattice_nug(spec)
        z = np.random.default_rng(0).integers(0, 2, nug.n)
        rng = np.random.default_rng(7)
        draws = [uniform_spanning_tree(nug, rng) for _ in range(100)]
        draws += [posterior_spanning_tree(nug, z, 0.9, rng) for _ in range(100)]
        for dag in draws:
            for a in (dag.edge_child, dag.edge_parent):
                h.update(a.dtype.str.encode() + a.tobytes())
            h.update(repr(dag.root).encode())
        h.update(repr(rng.random()).encode())
    return h.hexdigest()[:16]


def limit_digest():
    """Digest of posterior tree draws past beta 700 and each setting's next uniform."""
    h = hashlib.sha256()
    for spec in (LatticeSpec(8, 8, "second"), LatticeSpec(16, 16, "first")):
        nug = build_lattice_nug(spec)
        z = np.random.default_rng(0).integers(0, 2, nug.n)
        rng = np.random.default_rng(7)
        for _ in range(50):
            dag = posterior_spanning_tree(nug, z, 800.0, rng)
            for a in (dag.edge_child, dag.edge_parent):
                h.update(a.dtype.str.encode() + a.tobytes())
            h.update(repr((dag.root, dag.class_tag)).encode())
        h.update(repr(rng.random()).encode())
    return h.hexdigest()[:16]


def rooted_digest():
    """Digest of the rooted DAG of every root."""
    h = hashlib.sha256()
    for spec in (LatticeSpec(8, 8, "second"), LatticeSpec(16, 16, "second"),
                 LatticeSpec(32, 32, "first")):
        nug = build_lattice_nug(spec)
        for root in range(nug.n):
            dag = rooted_dag(nug, root)
            for a in (dag.edge_child, dag.edge_parent):
                h.update(a.dtype.str.encode() + a.tobytes())
            h.update(repr(dag.root).encode())
    return h.hexdigest()[:16]


def irregular_nug():
    """A seeded connected graph of 100 vertices: a random tree plus 60 chords."""
    rng = np.random.default_rng(11)
    order = rng.permutation(100).tolist()
    edges = {tuple(sorted((order[k], order[int(rng.integers(k))]))) for k in range(1, 100)}
    while len(edges) < 159:
        edges.add(tuple(sorted(rng.choice(100, 2, replace=False).tolist())))
    return Nug(100, sorted(edges))


def orient_digest():
    """Digest of acyclic-orientation proposals and each setting's next uniform."""
    h = hashlib.sha256()
    nugs = [build_lattice_nug(spec) for spec in (LatticeSpec(8, 8, "second"),
            LatticeSpec(16, 16, "second"), LatticeSpec(32, 32, "first"))]
    for nug in nugs + [irregular_nug()]:
        rng = np.random.default_rng(7)
        propose = _dag_prior(nug, MDGM_AO)
        for _ in range(50):
            dag = propose(rng)
            for a in (dag.edge_child, dag.edge_parent, dag.in_degree):
                h.update(a.dtype.str.encode() + a.tobytes())
            h.update(repr(dag.flat_children()).encode())
        h.update(repr(rng.random()).encode())
    return h.hexdigest()[:16]


def dos_digest():
    """Digest of the density of states of three lattices and a seeded random graph."""
    h = hashlib.sha256()
    rng = np.random.default_rng(7)
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12) if rng.random() < 0.3]
    nugs = [build_lattice_nug(LatticeSpec(k, k, "second")) for k in (3, 6, 8)]
    for nug in nugs + [Nug(12, edges)]:
        counts = density_of_states(nug)
        h.update(counts.dtype.str.encode() + counts.tobytes())
    return h.hexdigest()[:16]


def sweep_digest():
    """Digest of DAG z sweeps on three lattice DAGs and a star, and each setting's next uniform."""
    h = hashlib.sha256()
    nug = build_lattice_nug(LatticeSpec(16, 16, "second"))
    rng = np.random.default_rng(0)
    z = rng.integers(0, 2, nug.n)
    obs = Observations(rng.integers(0, 2, size=(nug.n, 2)).tolist())
    dags = [uniform_spanning_tree(nug, rng), rooted_dag(nug, 37),
            acyclic_orientation(nug, rng.permutation(nug.n))]
    settings = [(nug, z, obs, dag) for dag in dags]
    star = Nug(9, [(0, k) for k in range(1, 9)])
    rng = np.random.default_rng(1)
    settings.append((star, rng.integers(0, 2, 9), Observations(rng.integers(0, 2, (9, 2)).tolist()),
                     Dag([range(1, 9)] + [[]] * 8)))
    eta = NoiseParams(0.25, 0.75)
    for nug, z0, obs, dag in settings:
        for beta in (0.3, 1.5):
            rng = np.random.default_rng(7)
            z = z0
            for _ in range(40):
                z = gibbs_update_z(z, nug, dag, beta, eta, obs, rng)
                h.update(z.dtype.str.encode() + z.tobytes())
            h.update(repr(rng.random()).encode())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    for model, digest in digests():
        print(f"{model} {digest}")
    print(f"cftp {cftp_digest()}")
    print(f"graph {graph_digest()}")
    print(f"trees {trees_digest()}")
    print(f"limit {limit_digest()}")
    print(f"rooted {rooted_digest()}")
    print(f"orient {orient_digest()}")
    print(f"dos {dos_digest()}")
    print(f"sweep {sweep_digest()}")
