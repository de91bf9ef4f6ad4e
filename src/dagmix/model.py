"""Probability model: Bernoulli ratings, DAG-factorized and MRF priors.

Latent fields z are 0/1 sequences over the areal units. All density
evaluations are done in log space; the pairwise interaction is
exp(beta * I(z_i = z_j)) throughout.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dags import Dag
from .graph import Nug, _parse_int, _records


class Observations:
    """Ragged per-unit binary rating vectors.

    Unit i holds m_i ratings in {0, 1}; units may have none. Only the
    per-unit counts (m_i, s_i = sum of ratings) enter the likelihood, so
    both are precomputed.
    """

    __slots__ = ("n", "y", "m", "s")

    def __init__(self, y_lists, n=None):
        if n is None:
            n = len(y_lists)
        if len(y_lists) != n:
            raise ValueError(f"expected {n} units, got {len(y_lists)}")
        ys = []
        misshapen = None  # the first unit that is not a flat sequence
        for i, yi in enumerate(y_lists):
            arr = np.asarray(yi)
            if arr.ndim != 1 and arr.size:
                misshapen = i
                break
            ys.append(arr.reshape(-1))
        # one pass over every rating before the misshapen unit, if any
        m = np.fromiter(map(len, ys), dtype=np.int64, count=len(ys))
        ends = np.cumsum(m)
        flat = np.concatenate([np.zeros(0, dtype=np.int64)] + ys)
        bad = np.flatnonzero((flat != 0) & (flat != 1))  # before any cast reads 0.5 as 0
        if bad.size:
            raise ValueError(f"unit {np.searchsorted(ends, bad[0], side='right')}: "
                             "ratings must be 0 or 1")
        if misshapen is not None:
            raise ValueError(f"unit {misshapen}: ratings must be a flat sequence")
        totals = np.concatenate(([0], np.cumsum(flat, dtype=np.int64)))
        self.n = n
        self.y = [a.astype(np.int64, copy=False) for a in ys]
        self.m = m
        self.s = totals[ends] - totals[ends - m]
        if self.m.size and not (self.m > 1).any():
            warnings.warn(
                "no unit has more than one rating; noise parameters are "
                "not identifiable from these data",
                stacklevel=2,
            )

    @property
    def total(self):
        return int(self.m.sum())

    def __repr__(self):
        return f"Observations(n={self.n}, total={self.total})"


def load_observations(path, n, id_to_index=None) -> Observations:
    """Read a `unit_id,value` CSV; units absent from the file have m_i = 0.

    unit_id strings are mapped through id_to_index when given, otherwise
    they must be integer indices in [0, n).
    """
    rows = []
    for lineno, rec in _records(path):
        if isinstance(rec, str):
            continue
        if len(rec) != 2:
            raise ValueError(f"line {lineno}: expected 'unit_id,value'")
        uid, val = rec
        idx = _parse_int(uid, lineno, "unit id") if id_to_index is None else id_to_index.get(uid)
        if idx is None:
            raise ValueError(f"line {lineno}: unknown unit id {uid!r}")
        if not (0 <= idx < n):
            raise ValueError(f"line {lineno}: unit index {idx} out of range")
        if val not in ("0", "1"):
            raise ValueError(f"line {lineno}: rating must be 0 or 1, got {val!r}")
        rows += idx, int(val)
    units, ratings = np.array(rows, dtype=np.int64).reshape(-1, 2).T
    ends = np.cumsum(np.bincount(units, minlength=n)).tolist()
    flat = ratings[np.argsort(units, kind="stable")]  # each unit's ratings in file order, in turn
    return _quiet_observations([flat[a:b] for a, b in zip([0] + ends, ends)], n)


def _quiet_observations(y_lists, n) -> Observations:
    """Observations(y_lists, n=n) for data the library reads or makes, without the warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Observations(y_lists, n=n)


@dataclass(frozen=True)
class NoiseParams:
    """Bernoulli error rates; eta1 > eta0 is the label-identifying constraint."""

    eta0: float
    eta1: float

    def __post_init__(self):
        if not (0.0 < self.eta0 < 1.0 and 0.0 < self.eta1 < 1.0):
            raise ValueError("noise probabilities must lie in (0, 1)")
        if not self.eta1 > self.eta0:
            raise ValueError("eta1 must exceed eta0")


@dataclass(frozen=True)
class PriorSpec:
    """Beta priors for the noise rates and a uniform [0, beta_max] prior for beta."""

    eta0_beta_params: tuple = (1.0, 1.0)
    eta1_beta_params: tuple = (1.0, 1.0)
    beta_max: float = 1.0

    def __post_init__(self):
        for a, b in (self.eta0_beta_params, self.eta1_beta_params):
            if not (0 < a < math.inf and 0 < b < math.inf):
                raise ValueError("Beta shape parameters must be positive and finite")
        if not 0 < self.beta_max < math.inf:
            raise ValueError("beta_max must be positive and finite")


def _as_ints(z):
    """The field as a list of Python ints, so that uint8 input cannot wrap around."""
    return np.asarray(z, dtype=np.int64).tolist()


def _prob_one(logit):
    try:
        return 1.0 / (1.0 + math.exp(-logit))
    except OverflowError:  # logit below about -709, where 1 / (1 + e^-logit) is e^logit in doubles
        return math.exp(logit)


# Site i's log conditional given k conditioning sites is
#   beta * #matching - log(e^{beta * #at 0} + e^{beta * #at 1}) = -softplus(beta * d_i)
# with softplus(x) = log(1 + e^x) and the integer balance
# d_i = #mismatching - #matching in [-k, k]. Every prior term below is scored
# from these balances.


def _balance_histogram(z, site, cond, degree):
    """(hist, excess): hist[a] counts the sites with |balance| a; excess sums the positive balances.

    (site[e], cond[e]) pairs every site with each member of its conditioning
    set, and degree[i] is the size of site i's set. z may be a list or an
    int, uint8 or bool array.
    """
    zz = np.asarray(z)
    if len(zz) != len(degree):
        raise ValueError(f"field length {len(zz)} does not match {len(degree)} units")
    d = degree - 2 * np.bincount(site[zz[site] == zz[cond]], minlength=len(degree))
    return np.bincount(np.abs(d)), int(np.maximum(d, 0).sum())


def _log_site_product(hist, excess, beta):
    """Sum over sites of -softplus(beta * d_i), from _balance_histogram's output.

    softplus(x) = x + softplus(-x) turns the sum into beta * excess plus
    softplus(-beta * |d_i|) terms. Summed once with fsum, equal (hist,
    excess) pairs give exactly equal values, so tied DAGs have a log ratio
    of exactly 0.
    """
    sp = np.logaddexp(0.0, -beta * np.arange(len(hist)))
    return -math.fsum([beta * excess, *(hist * sp).tolist()])


def _site_codes(z, site, cond, degree, beta):
    """(codes, _child_tables(w, beta), step): one int code per site, in a list.

    (site[e], cond[e]) pairs sites with their sets as in _balance_histogram;
    w is the largest set size and step = 2 w + 1. Site i's code is c_i + w +
    step z_i, where c_i = degree[i] - 2 (members at one), in [-w, w].
    """
    zz = np.asarray(z)
    if len(zz) != len(degree):
        raise ValueError(f"field length {len(zz)} does not match {len(degree)} units")
    width = int(degree.max(initial=0))
    ones = zz != 0
    n1 = np.bincount(site[ones[cond]], minlength=len(degree))
    codes = (degree + np.where(ones, 3 * width + 1, width) - 2 * n1).tolist()
    return codes, _child_tables(width, beta), 2 * width + 1


@functools.cache
def _table_index(width):
    """(c, hi, lo): _child_tables's entries are v[hi] - v[lo], for v = [sp(c), beta c, 0]."""
    c = np.arange(-width, width + 1)
    d = np.stack((c, c + 2)) + width  # the place of d = c + 2 z_i in c, rows z_i = 0 and 1
    hi = np.vstack((np.tile(3 * width + 1 - c, 2), np.hstack((2 * width - d, d))))
    lo = np.vstack((np.full(4 * width + 2, -1), np.hstack((2 * width + 2 - d, d - 2))))
    return c, hi, lo


def _child_tables(width, beta):
    """[own, at0, at1]: site terms indexed by code, for the largest in-degree width.

    own[code] = -beta c is a site's own parent term. at0 and at1 hold a
    child's term for its parent at z_i = 0 and 1: with sp(d) = softplus(beta
    d) and d = c + 2 z_i, it is sp(d) - sp(d - 2) for z_k = 1 and sp(-d) -
    sp(2 - d) for z_k = 0. The entries no child reaches (d outside [2 -
    width, width]) hold wrapped-around values.
    """
    c, hi, lo = _table_index(width)
    bc = beta * c
    v = np.concatenate((np.logaddexp(0.0, bc), bc, (0.0,)))
    return (v[hi] - v[lo]).tolist()


def _site_logit(i, zi, codes, kids, tables):
    """log p(z_i=1 | rest) - log p(z_i=0 | rest) under prod_k p(z_k | z_{parents[k]}).

    zi is z_i, codes the field's _site_codes, kids lists i's children and
    tables is _child_tables's [own, at0, at1]. Site i's own normalizer does
    not depend on z_i, but each child's does. With no children this is the
    Ising full conditional over i's conditioning set.
    """
    logit = tables[0][codes[i]]
    g = tables[1 + zi]
    for k in kids:
        logit += g[codes[k]]
    return logit


def _dag_logit(i, z, dag: Dag, beta):
    """_site_logit at site i of the field z under the DAG prior, from scratch."""
    _check_vertex(i, dag.n)
    codes, tables, step = _site_codes(z, dag.edge_child, dag.edge_parent, dag.in_degree, beta)
    kids, offsets = dag.flat_children()
    return _site_logit(i, codes[i] >= step, codes, kids[offsets[i]:offsets[i + 1]], tables)


def _unit_logliks(m, s, eta: NoiseParams):
    """Log likelihood of m ratings with s ones under z_i = 1 and under z_i = 0.

    m and s may be scalars or per-unit arrays; a unit without ratings gives 0.
    """
    ll1 = s * math.log(eta.eta1) + (m - s) * math.log1p(-eta.eta1)
    ll0 = s * math.log(eta.eta0) + (m - s) * math.log1p(-eta.eta0)
    return ll1, ll0


def log_likelihood(obs: Observations, z, eta: NoiseParams) -> float:
    """Sum of the per-unit log masses that the z sweep uses; units without ratings contribute zero."""
    zz = np.asarray(z, dtype=np.int64)
    if zz.shape != (obs.n,):
        raise ValueError(f"field length {zz.shape} does not match {obs.n} units")
    ll1, ll0 = _unit_logliks(obs.m, obs.s, eta)
    return float(np.where(zz == 1, ll1, ll0).sum())


def parent_conditional(z_i, z_parents, beta: float) -> float:
    """Conditional probability of z_i given its parents' values.

    exp(beta * #matches) / [exp(beta * #parents at 0) + exp(beta * #parents
    at 1)] = 1 / (1 + e^{beta * d}) with the balance d = #mismatches -
    #matches; an empty parent set gives 1/2.
    """
    zi = int(z_i)
    d = sum(1 if v != zi else -1 for v in _as_ints(list(z_parents)))
    return math.exp(-float(np.logaddexp(0.0, beta * d)))


def log_dgm_prior(z, dag: Dag, beta: float) -> float:
    """Log of the DAG-factorized prior: sum of parent conditionals."""
    hist, excess = _balance_histogram(z, dag.edge_child, dag.edge_parent, dag.in_degree)
    return _log_site_product(hist, excess, beta)


def _check_vertex(i, n):
    if not (0 <= i < n):
        raise ValueError(f"vertex {i} out of range")


def dgm_full_conditional_prior(i, z, dag: Dag, beta: float) -> float:
    """P(z_i = 1 | z_-i) under the DAG prior.

    Numerator exp(beta * matches over parents and children of i); the
    normalizer is the product of the children's parent-sum denominators,
    which depend on z_i.
    """
    return _prob_one(_dag_logit(i, z, dag, beta))


def dgm_full_conditional_posterior(i, z, dag: Dag, beta: float, eta: NoiseParams, y_i) -> float:
    """P(z_i = 1 | z_-i, y_i): prior full conditional times the unit likelihood."""
    logit = _dag_logit(i, z, dag, beta)
    yi = np.asarray(y_i, dtype=np.int64).reshape(-1)
    ll1, ll0 = _unit_logliks(len(yi), int(yi.sum()), eta)
    return _prob_one(logit + (ll1 - ll0))


def suff_stat_T(z, nug: Nug) -> int:
    """Number of neighboring pairs with equal values."""
    zz = np.asarray(z)
    if len(zz) != nug.n:
        raise ValueError(f"field length {len(zz)} does not match {nug.n} units")
    return int(np.count_nonzero(zz[nug.edge_i] == zz[nug.edge_j]))


def mrf_log_unnorm(z, nug: Nug, beta: float) -> float:
    """Log of the unnormalized MRF density: beta * T(z)."""
    return beta * suff_stat_T(z, nug)


def mrf_full_conditional(i, z, nug: Nug, beta: float) -> float:
    """P(z_i = 1 | neighbors) for the pairwise-match MRF (Ising form).

    An isolated vertex has empty neighbor sums and probability 1/2.
    """
    _check_vertex(i, nug.n)
    codes, tables, _ = _site_codes(z, nug.arc_i, nug.arc_j, nug.degrees, beta)
    return _prob_one(_site_logit(i, 0, codes, (), tables))


def pseudo_likelihood_log(z, nug: Nug, beta: float) -> float:
    """Log pseudo-likelihood: sum of log MRF full conditionals at z.

    Not a valid log density for beta > 0; summing its exponential over all
    fields does not give one.
    """
    hist, excess = _balance_histogram(z, nug.arc_i, nug.arc_j, nug.degrees)
    return _log_site_product(hist, excess, beta)


def eta_full_conditional_params(obs: Observations, z, priors: PriorSpec):
    """Updated Beta parameters for the two noise-rate full conditionals.

    Returns ((a1, b1), (a0, b0)) for eta1 and eta0. Truncation bounds are
    applied at sampling time: eta1 is restricted to (eta0, 1) and eta0 to
    (0, eta1).
    """
    zz = np.asarray(z, dtype=np.int64)
    if zz.shape != (obs.n,):
        raise ValueError(f"field length {zz.shape} does not match {obs.n} units")
    s1, m1 = int(obs.s @ zz), int(obs.m @ zz)
    s0, m0 = int(obs.s.sum()) - s1, obs.total - m1
    f1, f0 = m1 - s1, m0 - s0
    (a1, b1), (a0, b0) = priors.eta1_beta_params, priors.eta0_beta_params
    return (a1 + s1, b1 + f1), (a0 + s0, b0 + f0)
