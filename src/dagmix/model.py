"""Probability model: Bernoulli ratings, DAG-factorized and MRF priors.

Latent fields z are 0/1 sequences over the areal units. All density
evaluations are done in log space; the pairwise interaction is
exp(beta * I(z_i = z_j)) throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dags import Dag
from .graph import Nug


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
    y_lists = [[] for _ in range(n)]
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'unit_id,value'")
            uid, val = parts
            if id_to_index is not None:
                if uid not in id_to_index:
                    raise ValueError(f"line {lineno}: unknown unit id {uid!r}")
                idx = id_to_index[uid]
            else:
                try:
                    idx = int(uid)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: unit id {uid!r} is not an integer and no id map was given"
                    ) from None
            if not (0 <= idx < n):
                raise ValueError(f"line {lineno}: unit index {idx} out of range")
            if val not in ("0", "1"):
                raise ValueError(f"line {lineno}: rating must be 0 or 1, got {val!r}")
            y_lists[idx].append(int(val))
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
            if a <= 0 or b <= 0:
                raise ValueError("Beta shape parameters must be positive")
        if self.beta_max <= 0:
            raise ValueError("beta_max must be positive")


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


def _one_counts(z, site, cond, n):
    """Per site, its number of conditioning-set members at one, as a list of ints.

    (site[e], cond[e]) pairs sites with their sets as in _balance_histogram.
    """
    zz = np.asarray(z)
    if len(zz) != n:
        raise ValueError(f"field length {len(zz)} does not match {n} units")
    return np.bincount(site[zz[cond] != 0], minlength=n).tolist()


def _child_tables(dag: Dag, beta):
    """(g0, g1): a child's logit term, indexed by its balance d, for z_k = 0 and z_k = 1.

    With sp(d) = softplus(beta * d), g1[d] = sp(d) - sp(d - 2) and g0[d] =
    sp(-d) - sp(2 - d). A negative d sits at the end of each list, where
    negative indexing reads it; the entries no child reaches (d = -w and
    1 - w for the largest in-degree w) hold wrapped-around values.
    """
    width = int(dag.in_degree.max(initial=0))
    ks = [*range(width + 1), *range(-width, 0)]
    sp = np.logaddexp(0.0, beta * np.array(ks)).tolist()
    m = len(sp)
    return [sp[-k] - sp[(2 - k) % m] for k in ks], [sp[k] - sp[(k - 2) % m] for k in ks]


def _site_logit(i, zz, n1, in_degree, kids, beta, tables):
    """log p(z_i=1 | rest) - log p(z_i=0 | rest) under prod_k p(z_k | z_{parents[k]}).

    zz is the field as ints, n1[k] the number of k's parents at one in it
    and in_degree[k] the number of k's parents; kids lists i's children and
    tables is _child_tables's pair (zz and tables are read only for
    children). Site i's own normalizer does not depend on z_i, but each
    child's does. With no children this is the Ising full conditional over
    i's conditioning set.
    """
    logit = beta * (2 * n1[i] - in_degree[i])
    if kids:
        g0, g1 = tables
        zi = zz[i]
        for k in kids:
            # child k's balance with z_i = 0 is d if z_k = 1 and -d if z_k = 0;
            # z_i = 1 adds a match (balance - 2) or a mismatch (balance + 2)
            d = in_degree[k] - 2 * (n1[k] - zi)
            logit += g1[d] if zz[k] else g0[d]
    return logit


def _dag_logit(i, z, dag: Dag, beta):
    """_site_logit at site i of the field z under the DAG prior, from scratch."""
    _check_vertex(i, dag.n)
    n1 = _one_counts(z, dag.edge_child, dag.edge_parent, dag.n)
    kids, offsets = dag.flat_children()
    return _site_logit(i, _as_ints(z), n1, dag.in_degree.tolist(),
                       kids[offsets[i]:offsets[i + 1]], beta, _child_tables(dag, beta))


def _unit_logliks(m, s, eta: NoiseParams):
    """Log likelihood of m ratings with s ones under z_i = 1 and under z_i = 0.

    m and s may be scalars or per-unit arrays; a unit without ratings gives 0.
    """
    ll1 = s * math.log(eta.eta1) + (m - s) * math.log1p(-eta.eta1)
    ll0 = s * math.log(eta.eta0) + (m - s) * math.log1p(-eta.eta0)
    return ll1, ll0


def log_likelihood(obs: Observations, z, eta: NoiseParams) -> float:
    """Sum of Bernoulli log masses; units without ratings contribute zero."""
    zz = np.asarray(z, dtype=np.int64)
    if zz.shape != (obs.n,):
        raise ValueError(f"field length {zz.shape} does not match {obs.n} units")
    s, m = obs.s, obs.m
    ones = zz == 1
    out = 0.0
    s1, f1 = int(s[ones].sum()), int((m[ones] - s[ones]).sum())
    s0, f0 = int(s[~ones].sum()), int((m[~ones] - s[~ones]).sum())
    if s1 or f1:
        out += s1 * math.log(eta.eta1) + f1 * math.log1p(-eta.eta1)
    if s0 or f0:
        out += s0 * math.log(eta.eta0) + f0 * math.log1p(-eta.eta0)
    return out


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
    n1 = _one_counts(z, nug.arc_i, nug.arc_j, nug.n)
    return _prob_one(_site_logit(i, None, n1, nug.degrees.tolist(), (), beta, None))


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
    ones = zz == 1
    s1 = int(obs.s[ones].sum())
    f1 = int((obs.m[ones] - obs.s[ones]).sum())
    s0 = int(obs.s[~ones].sum())
    f0 = int((obs.m[~ones] - obs.s[~ones]).sum())
    a1, b1 = priors.eta1_beta_params
    a0, b0 = priors.eta0_beta_params
    return (a1 + s1, b1 + f1), (a0 + s0, b0 + f0)
