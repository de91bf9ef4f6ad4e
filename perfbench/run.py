"""dagmix benchmark: per-model ms per iteration on a study, a fit and a CLI workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-16x16 --seed 1 --seconds 30 --trace 0

The program under test is imported from ``src/`` next to this directory.
Every run prints a human-readable summary and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones. Each run appends a record to ``perfbench/out/runs.jsonl``; a
traced run also writes its spans to ``perfbench/out/trace-<workload>-<seed>.jsonl``.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread per workload process, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny graphs and chains, for the benchmark's own test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def import_dagmix():
    """Import dagmix from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dagmix
    if not Path(dagmix.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dagmix was imported from {dagmix.__file__}, not {src}")
    return dagmix


def setup_in_subprocess(args) -> tuple:
    """(set-up seconds, machine speed right after) from a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["setup_s"], result["speed"]


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def median(values):
    return statistics.median(values) if values else None


def end_to_end(wl, tasks, setups, scaled=True):
    """End-to-end metrics, with every time scaled to the reference speed.

    With scaled=False the same code gives the raw wall-clock metrics.
    """
    def at_ref(seconds, speed):
        return seconds * speed if scaled else seconds

    ops = [c for _, _, t in tasks for c in t.chains if c.ok]
    m = {"setup_s": median([at_ref(s, speed) for s, speed in setups])}
    for model in wl.models:
        m[f"ms_per_iter.{model}"] = median(
            [1000.0 * at_ref(c.seconds, c.speed) / c.iterations for c in ops
             if c.model == model])
    if wl.schedule == (None,):
        m["study_s_per_rep"] = median(
            [(t.scaled_seconds() if scaled else t.seconds) / t.reps for _, _, t in tasks])
    else:
        # A replication of a fit workload is one chain of every model.
        typical = [median([at_ref(c.seconds, c.speed) for c in ops if c.model == model])
                   for model in wl.models]
        m["study_s_per_rep"] = None if None in typical else sum(typical)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def per_layer(wl, tasks, tracer, spans):
    rec = spans.Recording(tracer.spans)
    m = spans.layer_metrics(rec)
    fits = [c for _, traced, t in tasks if traced for c in t.chains if c.output_bytes]
    m["cli.output_mb"] = (sum(c.output_bytes for c in fits) / len(fits) / 1e6) if fits else 0.0
    by_mode = {}
    for _, traced, t in tasks:
        for c in t.chains:
            if c.ok:
                by_mode.setdefault((traced, c.model), []).append(
                    1000.0 * c.seconds * c.speed / c.iterations)
    # Each model's traced over untraced median, then the median over models,
    # so that no single model's few operations decide the figure.
    ratios = [median(by_mode[(True, mdl)]) / median(by_mode[(False, mdl)])
              for mdl in wl.models if (True, mdl) in by_mode and (False, mdl) in by_mode]
    m["trace_overhead_pct"] = 100.0 * (median(ratios) - 1.0) if ratios else 0.0
    breakdown = {mdl: {"by_layer": rec.self_ms_per_iter(mdl, by=spans.LAYER),
                       "by_span": rec.self_ms_per_iter(mdl)} for mdl in wl.models}
    return m, breakdown


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        dagmix = import_dagmix()
    except ImportError as exc:
        print(f"error: cannot import dagmix from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import gate
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # the traced run records set-up spans as well
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setups = [(time.perf_counter() - t0, workloads.speed(workloads.calibrate()))]
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setups[0][0], "speed": setups[0][1]}))
        return 0

    try:
        if tracer is None:
            setups += [setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
        # A traced run alternates untraced and traced tasks, so that it can
        # state its own overhead. Schedules have odd length, so two passes
        # run every model in both modes.
        min_tasks = len(wl.schedule) * (2 if tracer is not None else 1)
        tasks = []
        gaps = []  # calibration times taken before each task and after the last
        start = time.perf_counter()
        k = 0
        while k < min_tasks or time.perf_counter() - start < args.seconds:
            gaps.append(workloads.calibrate())
            rnd = k // len(wl.schedule)
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install()
            try:
                tasks.append((rnd, traced, wl.run_task(k, tracer if traced else None)))
            finally:
                if traced:
                    tracer.uninstall()
            k += 1
        measured_s = time.perf_counter() - start
        gaps.append(workloads.calibrate())
    finally:
        wl.close()

    chains = [c for _, _, t in tasks for c in t.chains]
    for model in wl.models:
        gated = [c for c in chains if c.model == model and c.problems == []]
        problems = gate.check_accuracy([c.accuracy for c in gated], wl.floor) if gated else []
        for c in gated:
            c.problems += problems
    attempted = len(chains)
    failed = sum(1 for c in chains if not c.ok)
    unchecked = [c for c in chains if c.error is None and c.problems is None]
    correct = not unchecked and not any(c.problems for c in chains)

    # Each task's time is scaled by the machine speed measured just before
    # and just after it, unless a chain measured its own. The raw wall-clock
    # metrics stay in the run record.
    for (_, _, t), before, after in zip(tasks, gaps, gaps[1:]):
        t.speed = workloads.speed(before + after)
        for c in t.chains:
            c.speed = c.speed or t.speed
    run_speed = workloads.speed([x for g in gaps for x in g])
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    raw = breakdown = None
    if tracer is None:
        metrics = end_to_end(wl, tasks, setups)
        raw = end_to_end(wl, tasks, setups, scaled=False)
        wanted = spec["end_to_end"]
    else:
        metrics, breakdown = per_layer(wl, tasks, tracer, spans)
        wanted = spec["per_layer"]
        tracer.write(workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")

    names = [w["name"] for w in wanted]
    if set(names) != set(metrics):
        print(f"error: computed metrics {sorted(metrics)} do not match BENCHMARK.json "
              f"{sorted(names)}", file=sys.stderr)
        return 1
    missing = [k for k, v in metrics.items() if v is None]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"measured {measured_s:.1f} s  speed {run_speed:.3f} of reference  "
          f"dagmix {dagmix.__version__}")
    for c in [c for c in chains if not c.ok][:10]:
        print(f"  FAILED {c.model} round {c.round}: "
              f"{c.error or '; '.join(c.problems or ['correctness gate did not run'])}")
    for w in wanted:
        v = metrics[w["name"]]
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {w['name']:<40} {shown:>14} {w['unit']}")
    print(f"  operations attempted {attempted}, failed {failed}; "
          f"correctness gate {'passed' if correct else 'FAILED'}")
    if breakdown:
        print("  self time per iteration (ms) by layer, then the largest spans; each "
              "row sums to the traced chain time:")
        for model, parts in breakdown.items():
            layers = sorted(parts["by_layer"].items(), key=lambda kv: -kv[1])
            top = sorted(parts["by_span"].items(), key=lambda kv: -kv[1])[:4]
            print(f"    {model:<12} total {sum(parts['by_layer'].values()):8.3f}: "
                  + ", ".join(f"{k} {v:.3f}" for k, v in layers) + " | "
                  + ", ".join(f"{k} {v:.3f}" for k, v in top))

    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "measured_s": measured_s, "setup_s_and_speed": setups,
        "speed": run_speed, "calibration_s": gaps,
        "raw_metrics": raw,
        "attempted": attempted, "failed": failed, "correct": correct,
        "tasks": [{"round": rnd, "traced": traced, "seconds": t.seconds, "reps": t.reps,
                   "speed": t.speed, "chains": [vars(c) for c in t.chains]} for rnd, traced, t in tasks],
        "metrics": metrics, "self_ms_per_iter": breakdown,
    }
    with open(workloads.OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    if missing:
        print(f"error: no successful operation measured {missing}", file=sys.stderr)
        return 1
    units = {w["name"]: w["unit"] for w in wanted}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
