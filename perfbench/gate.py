"""Correctness gate applied to every chain the benchmark runs.

A chain passes when all of its kept draws are finite, beta stays in
[0, beta_max], the noise rates satisfy 0 < eta0 < eta1 < 1, T lies in
[0, |E|] and z is binary. A CLI fit must also leave a JSON-lines file that
parses, holds ``iterations - burn_in`` draw records plus the acceptance
trailer, and a ``.zmean.csv`` with one row per unit. These checks return
``(problems, accuracy)``; an empty problem list is a pass.

The accuracy is the posterior-mean accuracy against the true field: the mean
over draws of the per-unit agreement, as
``dagmix.experiments.posterior_mean_accuracy`` defines it. Its floor applies
to the mean over one model's chains in a run (``check_accuracy``), because a
single chain that starts from a random field can stall with the noise rates
near each other and score near 0.5 while the sampler is correct. Of 830
``study-8x8`` chains, the lowest scored 0.51 and one in a hundred scored
below 0.58.
"""

from __future__ import annotations

import json

import numpy as np


def check_draws(beta, eta0, eta1, T, z, *, beta_max, n_edges, z_true,
                expected=None) -> tuple:
    problems = []
    beta, eta0, eta1 = (np.asarray(a, dtype=np.float64) for a in (beta, eta0, eta1))
    T = np.asarray(T, dtype=np.float64)
    z = np.asarray(z)
    if expected is not None and len(beta) != expected:
        problems.append(f"{len(beta)} draws kept, expected {expected}")
    if len(beta) == 0:
        return problems + ["no draws kept"], None
    for name, arr in (("beta", beta), ("eta0", eta0), ("eta1", eta1), ("T", T)):
        if not np.isfinite(arr).all():
            problems.append(f"non-finite {name}")
    if not ((beta >= 0.0) & (beta <= beta_max)).all():
        problems.append(f"beta outside [0, {beta_max}]: "
                        f"[{np.nanmin(beta):.4g}, {np.nanmax(beta):.4g}]")
    if not ((eta0 > 0.0) & (eta1 > eta0) & (eta1 < 1.0)).all():
        problems.append("noise rates violate 0 < eta0 < eta1 < 1")
    if not ((T >= 0) & (T <= n_edges)).all():
        problems.append(f"T outside [0, {n_edges}]")
    if z.ndim != 2 or z.shape[1] != len(z_true) or not np.isin(z, (0, 1)).all():
        return problems + [f"z draws of shape {z.shape} are not binary fields "
                           f"over {len(z_true)} units"], None
    return problems, float((z == np.asarray(z_true)[None, :]).mean())


def check_accuracy(accuracies, floor) -> list:
    """Problems if one model's chains average below the accuracy floor."""
    mean = sum(accuracies) / len(accuracies)
    if mean >= floor:
        return []
    return [f"mean posterior-mean accuracy {mean:.3f} over {len(accuracies)} chains "
            f"below floor {floor}"]


def check_samples(samples, **kw) -> tuple:
    return check_draws(samples.beta, samples.eta0, samples.eta1, samples.T, samples.z,
                       **kw)


def check_fit_output(out_path, *, n, iterations, burn_in, **kw) -> tuple:
    """Gate a ``dagmix fit`` run from the files it wrote."""
    try:
        with open(out_path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
    except (OSError, ValueError) as exc:
        return [f"JSON-lines output unreadable: {exc}"], None
    problems = []
    if not lines or "acceptance" not in lines[-1]:
        problems.append("JSON-lines output has no acceptance trailer")
    else:
        lines = lines[:-1]
    keep = iterations - burn_in
    if [r.get("iter") for r in lines] != list(range(burn_in, iterations)):
        problems.append(f"{len(lines)} draw records, expected iterations "
                        f"{burn_in}..{iterations - 1} ({keep} records)")
    try:
        z = np.array([[c == "1" for c in r["z"]] for r in lines], dtype=np.uint8)
        cols = [[r[k] for r in lines] for k in ("beta", "eta0", "eta1", "T")]
    except (KeyError, TypeError) as exc:
        return problems + [f"draw record malformed: {exc!r}"], None
    found, accuracy = check_draws(*cols, z.reshape(len(lines), -1), **kw)
    problems += found
    try:
        with open(str(out_path) + ".zmean.csv", "r", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
    except OSError as exc:
        return problems + [f"zmean output unreadable: {exc}"], accuracy
    if len(rows) != n:
        problems.append(f"zmean file has {len(rows)} rows, expected {n}")
    return problems, accuracy
