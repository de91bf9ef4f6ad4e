"""Command-line interface: simulate, fit, crossval, and count subcommands.

Every command is a pure function of its flags, config file, input files,
and seed; a manifest of the resolved configuration is written next to each
output so runs can be reproduced exactly. Exit codes: 0 success, 1 runtime
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress

from . import __version__
from .experiments import (
    ObsScheme,
    SimConfig,
    cross_validate,
    crossval_to_csv,
    run_simulation_study,
    study_to_csv,
)
from .graph import (
    LatticeSpec,
    Nug,
    build_lattice_nug,
    count_acyclic_orientations,
    count_spanning_trees,
    load_nug,
)
from .model import PriorSpec, load_observations
from .samplers import ALL_MODELS, CFTP_STEP_CAP, McmcConfig, run_chain


class UsageError(ValueError):
    """Invalid flag combination or value; exits with code 2."""


@contextmanager
def _output_file(path):
    """A text handle whose contents take the place of path only once complete.

    The text goes to a new temporary file in path's directory. When the
    block ends, the old file is unlinked and the temporary file renamed to
    path. If anything raises first, the temporary file is removed and the
    old output is left untouched, so an output is never torn. The trade-off:
    between the unlink and the rename, path briefly does not exist while
    the complete new file sits under its temporary name. os.replace would
    close that gap, but replacing a non-empty file costs as much as
    truncating it in place on some file systems, and an unlink does not.
    """
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        with suppress(FileNotFoundError):
            os.unlink(path)
        os.rename(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class IdMap:
    """Bijection between external unit-ID strings and dense 0-based indices."""

    def __init__(self, mapping):
        self.mapping = dict(mapping)
        if len(set(self.mapping.values())) != len(self.mapping):
            raise ValueError("id map is not a bijection")
        self.inverse = {v: k for k, v in self.mapping.items()}

    @classmethod
    def identity(cls, n):
        return cls({str(i): i for i in range(n)})

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls({str(k): int(v) for k, v in raw.items()})

    def to_json(self, path):
        with _output_file(path) as fh:
            json.dump(self.mapping, fh, indent=0, sort_keys=True)
            fh.write("\n")

    def name_of(self, index):
        return self.inverse.get(index, str(index))


def _add_lattice_args(p):
    p.add_argument("--rows", type=int, default=None, help="lattice rows")
    p.add_argument("--cols", type=int, default=None, help="lattice columns")
    p.add_argument("--order", choices=["first", "second"], default=None,
                   help="neighborhood order")


def _add_graph_args(p):
    p.add_argument("--graph", default=None, help="edge-list CSV (i,j[,w] lines)")
    _add_lattice_args(p)


def _chain_parser():
    """Flags shared by the MCMC commands; their defaults are McmcConfig's and PriorSpec's."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", default=None, help="JSON config file (flags override)")
    p.add_argument("--iters", type=int, default=McmcConfig.iterations, help="total MCMC iterations")
    p.add_argument("--burnin", type=int, default=McmcConfig.burn_in, help="discarded iterations")
    p.add_argument("--beta-max", type=float, default=PriorSpec.beta_max,
                   help="upper prior bound for beta")
    p.add_argument("--beta-sd", type=float, default=McmcConfig.beta_proposal_sd,
                   help="random-walk proposal sd")
    p.add_argument("--cftp-cap", type=int, default=CFTP_STEP_CAP,
                   help="site-update cap for perfect sampling")
    p.add_argument("--seed", type=int, default=McmcConfig.seed)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dagmix",
        description="Bayesian latent binary spatial fields with DAG-mixture priors.",
    )
    parser.add_argument("--version", action="version", version=f"dagmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    chain = [_chain_parser()]  # built per parser: set_defaults writes to its shared actions

    p = sub.add_parser("simulate", parents=chain, help="run the simulation study grid")
    _add_lattice_args(p)
    p.add_argument("--beta-grid", default=None, help="comma-separated true beta values")
    p.add_argument("--eta", type=float, default=None, help="noise level (eta0=eta, eta1=1-eta)")
    p.add_argument("--obs", default=None, help="observation scheme, fixed:M or poisson:LAMBDA")
    p.add_argument("--reps", type=int, default=None, help="replications per setting")
    p.add_argument("--models", default=None, help="comma-separated model list")
    p.add_argument("--threads", type=int, default=1, help="replication worker count")
    p.add_argument("--out", default=None, help="study CSV path")
    subparsers["simulate"] = p

    p = sub.add_parser("fit", parents=chain, help="fit one model to a ratings file")
    _add_graph_args(p)
    p.add_argument("--data", default=None, help="ratings CSV (unit_id,value)")
    p.add_argument("--model", default=None, help=f"one of {', '.join(ALL_MODELS)}")
    p.add_argument("--idmap", default=None, help="JSON map of unit-ID strings to indices")
    p.add_argument("--out", default=None, help="JSON-lines samples path")
    subparsers["fit"] = p

    p = sub.add_parser("crossval", parents=chain, help="holdout cross-validation over models")
    _add_graph_args(p)
    p.add_argument("--data", default=None)
    p.add_argument("--models", default=None, help="comma-separated model list")
    p.add_argument("--idmap", default=None)
    p.add_argument("--holdout", type=int, default=None, help="rated units withheld per iteration")
    p.add_argument("--iterations", type=int, default=None, help="cross-validation iterations")
    p.add_argument("--out", default=None, help="CSV path (iteration,model,mae)")
    subparsers["crossval"] = p

    p = sub.add_parser("count", help="exact combinatorial counts for a graph")
    _add_graph_args(p)
    p.add_argument("--what", choices=["trees", "orientations"], default=None)
    p.add_argument("--ao-cap", type=int, default=24,
                   help="edge cap for orientation counting")
    subparsers["count"] = p

    return parser, subparsers


def _require(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise UsageError(f"--{name} is required")


def _resolve_nug(args) -> Nug:
    has_lattice = args.rows is not None or args.cols is not None
    has_graph = getattr(args, "graph", None) is not None
    if has_graph and has_lattice:
        raise UsageError("give either --graph or --rows/--cols, not both")
    if has_graph:
        return load_nug(args.graph)
    if args.rows is None or args.cols is None:
        raise UsageError("give --graph, or both --rows and --cols")
    try:
        return build_lattice_nug(
            LatticeSpec(rows=args.rows, cols=args.cols, order=args.order or LatticeSpec.order))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_models(spec: str):
    models = tuple(m.strip() for m in spec.split(",") if m.strip())
    if not models:
        raise UsageError("empty model list")
    for m in models:
        if m not in ALL_MODELS:
            raise UsageError(f"unknown model {m!r}; expected one of {', '.join(ALL_MODELS)}")
    return models


def _parse_obs(spec: str) -> ObsScheme:
    kind, _, value = spec.partition(":")
    try:
        if kind == "fixed":
            return ObsScheme("fixed", int(value))
        if kind == "poisson":
            return ObsScheme("poisson", float(value))
    except ValueError:
        pass
    raise UsageError(f"bad --obs value {spec!r}; expected fixed:M or poisson:LAMBDA")


def _parse_beta_grid(spec: str):
    try:
        grid = tuple(float(s) for s in spec.split(",") if s.strip())
    except ValueError:
        raise UsageError(f"bad --beta-grid value {spec!r}") from None
    if not grid:
        raise UsageError("empty --beta-grid")
    return grid


def _chain_template(args, model=McmcConfig.model) -> McmcConfig:
    try:
        return McmcConfig(
            iterations=args.iters,
            burn_in=args.burnin,
            seed=args.seed,
            model=model,
            beta_proposal_sd=args.beta_sd,
            priors=PriorSpec(beta_max=args.beta_max),
            cftp_step_cap=args.cftp_cap,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write_manifest(out_path, args):
    manifest = {
        "tool": f"dagmix {__version__}",
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k != "command"
        },
    }
    with _output_file(str(out_path) + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args) -> int:
    _require(args, "rows", "cols", "beta-grid", "eta", "obs", "reps", "models", "out")
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    models = _parse_models(args.models)
    obs_scheme = _parse_obs(args.obs)
    template = _chain_template(args)
    try:
        lattice = LatticeSpec(rows=args.rows, cols=args.cols, order=args.order or LatticeSpec.order)
        configs = [
            SimConfig(
                lattice=lattice,
                beta_true=beta,
                eta=args.eta,
                obs=obs_scheme,
                replications=args.reps,
                models=models,
                mcmc=template,
                seed=args.seed,
            )
            for beta in _parse_beta_grid(args.beta_grid)
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    cells = run_simulation_study(configs, threads=args.threads)
    failures = [(c.setting_id, c.model, f) for c in cells for f in c.failures]
    for setting, model, (rep, msg) in failures:
        print(f"warning: {setting}/{model} replication {rep} failed: {msg}", file=sys.stderr)
    with _output_file(args.out) as fh:
        study_to_csv(cells, fh)
    _write_manifest(args.out, args)
    if all(c.accuracy is None for c in cells):
        print("error: every cell failed", file=sys.stderr)
        return 1
    return 0


def _load_data(args, nug: Nug):
    idmap = IdMap.from_json(args.idmap) if args.idmap else IdMap.identity(nug.n)
    if len(idmap.mapping) != nug.n:
        raise UsageError(
            f"id map covers {len(idmap.mapping)} units but the graph has {nug.n}"
        )
    if any(not 0 <= v < nug.n for v in idmap.mapping.values()):
        raise UsageError(f"id map indices must be exactly 0..{nug.n - 1}")
    obs = load_observations(args.data, nug.n, id_to_index=idmap.mapping)
    return obs, idmap


def cmd_fit(args) -> int:
    _require(args, "data", "model", "out")
    config = _chain_template(args, model=args.model)
    nug = _resolve_nug(args)
    obs, idmap = _load_data(args, nug)
    samples = run_chain(obs, nug, config)
    with _output_file(args.out) as fh:
        samples.to_jsonl(fh)
    zbar = samples.z_mean()
    with _output_file(str(args.out) + ".zmean.csv") as fh:
        fh.write("unit_id,posterior_mean_z\n")
        for i in range(nug.n):
            fh.write(f"{idmap.name_of(i)},{repr(float(zbar[i]))}\n")
    idmap.to_json(str(args.out) + ".idmap.json")
    _write_manifest(args.out, args)
    return 0


def cmd_crossval(args) -> int:
    _require(args, "data", "models", "holdout", "iterations", "out")
    for flag in ("holdout", "iterations"):
        if getattr(args, flag) < 1:
            raise UsageError(f"--{flag} must be at least 1, got {getattr(args, flag)}")
    models = _parse_models(args.models)
    nug = _resolve_nug(args)
    obs, idmap = _load_data(args, nug)
    template = _chain_template(args)
    records = cross_validate(
        obs, nug, holdout_count=args.holdout, iterations=args.iterations,
        mcmc=template, models=models, seed=args.seed,
    )
    with _output_file(args.out) as fh:
        crossval_to_csv(records, fh)
    idmap.to_json(str(args.out) + ".idmap.json")
    _write_manifest(args.out, args)
    return 0


def cmd_count(args) -> int:
    _require(args, "what")
    if args.ao_cap < 0:
        raise UsageError(f"--ao-cap must be at least 0, got {args.ao_cap}")
    nug = _resolve_nug(args)
    if args.what == "trees":
        print(count_spanning_trees(nug))
    else:
        print(count_acyclic_orientations(nug, max_edges=args.ao_cap))
    return 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "crossval": cmd_crossval,
    "count": cmd_count,
}


def _apply_config_file(subparsers, args):
    """Install the values of the file at args.config as its subcommand's defaults.

    Each value must be a JSON string or number, and is installed as text, so
    that the flag's type checks it as it would on the command line.
    """
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    valid = set(vars(args)) - {"command"}
    defaults = {}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in valid:
            raise UsageError(f"unknown config key {key!r} for command {args.command!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"config key {key!r} must be a string or a number, got {json.dumps(value)}")
        defaults[dest] = str(value)
    subparsers[args.command].set_defaults(**defaults)


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if getattr(args, "config", None) is not None:
                _apply_config_file(subparsers, args)
                args = parser.parse_args(argv)  # explicit flags override the file
        except SystemExit as exc:
            return int(exc.code or 0)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures exit 1 with a diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
