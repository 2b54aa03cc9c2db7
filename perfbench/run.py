"""Benchmark for hyperemb: planted-hypergraph workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Workloads (see ``workloads.py``):
hedge-citeseer, nodeclass-dblp, rank-catalog.

``--trace 0`` sets up the workload several times (median ``setup_s``), then
runs whole trials back to back for about ``--seconds`` seconds with no
tracing and reports the end-to-end metrics.  Its times are calibrated to
the host's speed: a fixed reference kernel (``hostclock.py``) is timed
between trials, and each trial's seconds are scaled by it; the raw seconds
are printed beside them.  ``--trace 1`` alternates
untraced and traced trials, reports the per-layer metrics of
``layers.py`` plus ``trace.overhead_s``, and repeats the traced trials in a
child process with min(2, nproc) BLAS threads (one untimed warm-up trial,
then the median of two).  A metric whose wrapped function or count hook no
longer fits the package is left out and listed as missing, never read as 0.
Human-readable lines go first;
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Every run's outputs are checked (finite losses, held-out AUC above chance,
HR@10 above both baselines, identical results on every trial of the run).
Quality numbers and exact counts are also stored per (workload, seed, BLAS
threads, source digest) under ``.perfbench_work/records`` and compared
exactly with any earlier run of the same key: the repeatability test.
"""

from __future__ import annotations

import argparse
import os
import sys

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Main runs pin OpenBLAS to one thread: on a 2-vCPU machine a second thread made
# trials slower and their run-to-run spread about twice as wide.
BLAS_THREADS_MAIN = 1
# set-up is repeated at least SETUP_REPEATS times and for at least SETUP_SECONDS:
# a single set-up of the small graphs takes about 0.1 s, short enough that
# scheduler noise on a shared machine moves a median of a few of them by 25%
SETUP_REPEATS = 7
SETUP_SECONDS = 6.0
MIN_TRIALS = 3  # the first trial of a process runs slow; a median of 3 sets it aside
MIN_TRACE_PAIRS = 2
MIN_EPOCH_SAMPLES_P90 = 100
PROTOCOL_EPOCHS = 200  # TrainConfig's default and the documented training protocol
UNCOVERED_MAX_SHARE = 0.01  # wrapped spans must cover all but 1% of a traced trial


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--blas-threads", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--thread-pass", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


ARGS = _parse(sys.argv[1:]) if __name__ == "__main__" else None
BLAS_THREADS = ARGS.blas_threads if ARGS and ARGS.blas_threads else BLAS_THREADS_MAIN
if __name__ == "__main__":
    # must happen before numpy loads OpenBLAS
    for _var in BLAS_ENV:
        os.environ[_var] = str(BLAS_THREADS)

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END = ("setup_s", "trial_s", "epoch_ms_p50", "peak_rss_mb")  # + the workload's quality
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _import_package():
    """Import hyperemb from this checkout's src/, never from an installed copy."""
    if not (SRC / "hyperemb" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'hyperemb'}")
    sys.path.insert(0, str(SRC))
    import hyperemb

    if Path(hyperemb.__file__).resolve().parent != (SRC / "hyperemb").resolve():
        raise SystemExit(f"perfbench: imported hyperemb from {hyperemb.__file__}, not {SRC}")
    return hyperemb


def _source_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else ref
    return ref


def environment(args, digest: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,  # seeds both the planted graph and every trial's TrainConfig
        "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_digest": digest,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Failed output checks of the whole run (beyond per-trial failures)."""

    def __init__(self):
        self.problems: list[str] = []

    def expect_equal(self, what: str, a, b) -> None:
        if a != b:
            self.problems.append(f"{what}: {a!r} != {b!r}")


def _check_record(checks: Checks, args, digest: str, values: dict) -> str:
    """Compare with, then extend, the stored values for this (workload, seed, threads, code)."""
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-threads{BLAS_THREADS}-{digest}.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    compared = sorted(set(stored) & set(values))
    for key in compared:
        checks.expect_equal(f"repeat of {key} (record {path.name})", stored[key], values[key])
    if not set(values) <= set(stored):
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**values, **stored}, sort_keys=True))
        tmp.replace(path)
    return f"compared {len(compared)} value(s) with an earlier run" if compared else "first run of this key"


def _setup(workload, run_dir: Path, seed: int, index: int):
    work = run_dir / f"setup{index}"
    start = time.perf_counter()
    ctx = workload.setup(work, seed)
    return ctx, time.perf_counter() - start


def _trial_dir(run_dir: Path, label) -> Path:
    return run_dir / f"trial-{label}"


def measure(args, workload, run_dir: Path, checks: Checks) -> tuple[dict, list, list[str]]:
    """Untraced run: setup_s, trial_s, epoch times, RSS and quality."""
    clock = HostClock(workload.reference)
    setups = []
    ctx = None
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        if ctx is not None:
            shutil.rmtree(ctx.data_dir.parent)
        ctx, seconds = _setup(workload, run_dir, args.seed, len(setups))
        setups.append(seconds)
    setup_factor = clock.mark()
    trials, factors = [], []
    start = time.perf_counter()
    while True:
        result = workload.trial(ctx, args.seed, _trial_dir(run_dir, len(trials)))
        factors.append(clock.mark())
        shutil.rmtree(_trial_dir(run_dir, len(trials)))
        trials.append(result)
        elapsed = time.perf_counter() - start
        if len(trials) >= MIN_TRIALS and elapsed + _median([t.seconds for t in trials]) > args.seconds:
            break
    ok = [t for t in trials if t.ok]
    ok_factors = [f for t, f in zip(trials, factors) if t.ok]
    for t in ok[1:]:
        checks.expect_equal(f"{workload.quality_name} across trials of one run", ok[0].quality, t.quality)
    epoch_ms = [ms * f for t, f in zip(ok, ok_factors) for ms in t.epoch_ms]
    raw_epoch_ms = [ms for t in ok for ms in t.epoch_ms]
    metrics = {
        "setup_s": (setup_factor * _median(setups), "s"),
        "trial_s": (_median([t.seconds * f for t, f in zip(ok, ok_factors)]), "s"),
        "epoch_ms_p50": (_median(epoch_ms), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        workload.quality_name: (ok[0].quality if ok else 0.0, "1"),
    }
    # the workloads run a few epochs where the package's protocol runs 200: show how
    # trial_s splits into per-trial work and the epoch loop, and what 200 epochs would cost
    fixed_s = _median([t.seconds - sum(t.epoch_ms) / 1000 for t in ok])
    epochs = len(ok[0].epoch_ms) if ok else 0
    projected_s = fixed_s + PROTOCOL_EPOCHS * _median(raw_epoch_ms) / 1000
    lines = [
        clock.summary(),
        f"setup_s {metrics['setup_s'][0]:.4f} s calibrated, {_median(setups):.4f} s raw "
        f"(median of {len(setups)}, raw quartiles "
        f"{' '.join(f'{q:.3f}' for q in statistics.quantiles(setups, n=4))})",
        f"trial_s {metrics['trial_s'][0]:.4f} s calibrated, {_median([t.seconds for t in ok]):.4f} s raw "
        f"(median of {len(ok)}; raw " + ", ".join(f"{t.seconds:.3f}" for t in trials) + ")",
        f"epoch_ms_p50 {metrics['epoch_ms_p50'][0]:.3f} ms calibrated, {_median(raw_epoch_ms):.3f} ms raw "
        f"({len(epoch_ms)} epoch samples)",
        (f"epoch_ms_p90 {_percentile(epoch_ms, 0.9):.3f} ms calibrated ({len(epoch_ms)} epoch samples)"
         if len(epoch_ms) >= MIN_EPOCH_SAMPLES_P90 else
         f"epoch_ms_p90 not reported ({len(epoch_ms)} epoch samples < {MIN_EPOCH_SAMPLES_P90})"),
        f"trial split (raw): {fixed_s:.3f} s outside the epoch loop + {epochs} epochs; at "
        f"{PROTOCOL_EPOCHS} epochs a trial would take about {projected_s:.1f} s",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB",
        f"{workload.quality_name} {metrics[workload.quality_name][0]!r} 1",
    ]
    if ok and ok[0].detail:
        lines.append("baselines " + json.dumps(ok[0].detail, sort_keys=True))
    return metrics, trials, lines


def _measured(tracer) -> list:
    """Layer metrics whose wrapped functions and count hooks all worked in this run."""
    return [m for m in layers.LAYER_METRICS
            if not any(name in tracer.missing for name in layers.source_names(m))]


def _layer_values(tracer, trial: str, setup_counts: dict) -> dict:
    summary = tracer.summary(trial)
    counts = tracer.counts.get(trial, {})
    out = {}
    for m in _measured(tracer):
        kind, key = m.source
        if kind in ("s", "self_s", "calls"):
            out[m.name] = summary.get(key, {}).get(kind, 0)
        elif kind == "count":
            out[m.name] = counts.get(key, setup_counts.get(key, 0))
        elif kind == "per_epoch":
            epochs = counts.get("model.training_forwards", 0)
            out[m.name] = counts.get(key, 0) / epochs if epochs else 0
        elif kind == "per_call_s":
            out[m.name] = _median(tracer.call_seconds(key))
    return out


def _traced_trial(tracer, workload, ctx, args, run_dir: Path, label: str):
    """One trial under the wrappers; returns it with the time no wrapped span covers
    and the smallest self time of a wrapped span."""
    tracer.trial = label
    tracer.install(layers.WRAPS)
    try:
        result = workload.trial(ctx, args.seed, _trial_dir(run_dir, label), lambda: tracer.span("trial"))
    finally:
        tracer.uninstall()
    shutil.rmtree(_trial_dir(run_dir, label))
    # the root span "trial" encloses the timer, so it is left out: its self time
    # is exactly the part of trial_s that none of the wrapped spans covers
    self_times = [row["self_s"] for name, row in tracer.summary(label).items() if name != "trial"]
    return result, result.seconds - sum(self_times), min(self_times, default=0.0)


def trace(args, workload, run_dir: Path, checks: Checks) -> tuple[dict, list, list[str], object]:
    """Traced run: per-layer metrics and tracing overhead."""
    tracer = Tracer()
    tracer.install(layers.WRAPS)
    try:
        ctx, _ = _setup(workload, run_dir, args.seed, 0)
    finally:
        tracer.uninstall()
    tracer.count("data.dataset_bytes", ctx.dataset_bytes)
    setup_counts = dict(tracer.counts["setup"])

    untraced, traced, uncovered = [], [], []
    start = time.perf_counter()
    while True:
        if args.thread_pass:
            # an untimed warm-up trial, since the first trial of a process runs slow
            order = ("u", "t") if not traced else ("t",)
        else:
            # pairs alternate their order (untraced first, then traced first) so that
            # warm-up and drift do not all land on one side of trace.overhead_s
            order = ("u", "t") if len(traced) % 2 == 0 else ("t", "u")
        for kind in order:
            if kind == "u":
                result = workload.trial(ctx, args.seed, _trial_dir(run_dir, f"u{len(untraced)}"))
                shutil.rmtree(_trial_dir(run_dir, f"u{len(untraced)}"))
                untraced.append(result)
                continue
            label = f"t{len(traced)}"
            result, gap, min_self = _traced_trial(tracer, workload, ctx, args, run_dir, label)
            traced.append((label, result))
            uncovered.append(gap)
            if min_self < -1e-6:
                checks.problems.append(f"span self time {min_self:.6f} s < 0 in {label}: spans overlap")
            if not 0 <= gap <= UNCOVERED_MAX_SHARE * result.seconds:
                checks.problems.append(f"wrapped spans leave {gap:.6f} s of the {result.seconds:.3f} s "
                                       f"trial {label} uncovered")
        elapsed = time.perf_counter() - start
        if len(traced) >= MIN_TRACE_PAIRS and (
                args.thread_pass or elapsed * (len(traced) + 1) / len(traced) > args.seconds):
            break

    trials = untraced + [r for _, r in traced]
    ok = [t for t in trials if t.ok]
    for t in ok[1:]:
        checks.expect_equal(f"{workload.quality_name} traced vs untraced", ok[0].quality, t.quality)
    per_trial = [_layer_values(tracer, label, setup_counts) for label, r in traced if r.ok]
    metrics = {}
    for m in _measured(tracer):
        values = [v[m.name] for v in per_trial]
        if m.unit != "s":
            for v in values[1:]:
                checks.expect_equal(f"{m.name} across traced trials", values[0], v)
        metrics[m.name] = (_median(values), m.unit)
    traced_s = _median([r.seconds for _, r in traced if r.ok])
    metrics["trace.trial_s"] = (traced_s, "s")
    if untraced:
        metrics["trace.overhead_s"] = (traced_s - _median([r.seconds for r in untraced if r.ok]), "s")
    metrics["trace.uncovered_s"] = (_median(uncovered), "s")
    missing = []
    for m in layers.LAYER_METRICS:
        if m.name not in metrics:
            why = "; ".join(tracer.missing[n] for n in layers.source_names(m) if n in tracer.missing)
            missing.append(f"{m.name} ({why})")
    lines = [
        f"traced trials {len(traced)}, untraced trials {len(untraced)}; wrapped spans' self times "
        f"sum to traced trial_s within {max(uncovered):.2e} s",
        "missing metrics, left out of the result: " + ("; ".join(missing) or "none"),
    ]
    return metrics, trials, lines, tracer


def _thread_pass(args) -> dict:
    """Repeat the traced trials in a child process with min(2, nproc) BLAS threads."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "1",
           "--blas-threads", str(min(2, _nproc())), "--thread-pass"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"thread pass failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(args) -> int:
    _import_package()
    from workloads import WORKLOADS  # imports hyperemb

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    digest = _source_digest()
    env = environment(args, digest)
    checks = Checks()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            metrics, trials, lines, tracer = trace(args, workload, run_dir, checks)
        else:
            metrics, trials, lines = measure(args, workload, run_dir, checks)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [t for t in trials if not t.ok]
    ok = [t for t in trials if t.ok]
    record = {workload.quality_name: repr(ok[0].quality)} if ok else {}
    if args.trace:
        record.update({m.name: metrics[m.name][0] for m in _measured(tracer) if m.unit != "s"
                       and m.source[0] in ("count", "calls", "per_epoch")})
    repeat = _check_record(checks, args, digest, record)

    if args.trace and not args.thread_pass:
        multi = _thread_pass(args)
        if not multi["correct"]:
            checks.problems.append("multi-threaded pass failed its checks")
        metrics["multi_thread.trial_s"] = (multi["metrics"]["trace.trial_s"]["value"], "s")
        for m in _measured(tracer):
            name = layers.multi_thread_name(m)
            if name and m.name in multi["metrics"]:
                metrics[name] = (multi["metrics"][m.name]["value"], m.unit)
        lines.append(f"multi-threaded pass ({min(2, _nproc())} BLAS threads): "
                     f"trial_s {metrics['multi_thread.trial_s'][0]:.4f} s")
    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        suffix = f"-threads{BLAS_THREADS}"
        dump = {"environment": env, **tracer.dump()}
        (traces / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(dump))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"blas_threads {BLAS_THREADS}: {len(trials)} trial(s), {len(failed)} failed")
    for line in lines:
        print(line)
    print(f"failure_rate {len(failed) / len(trials):.4f} 1 ({len(failed)}/{len(trials)})")
    for t in failed:
        print(f"failed trial: {t.error}")
    print(f"repeatability: {repeat}")
    for problem in checks.problems:
        print(f"check failed: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.thread_pass:
        expected = [m.name for m in _measured(tracer)] + ["trace.trial_s"]
    elif args.trace:
        # a metric whose source is missing was never put in ``metrics``: it is left
        # out of the result (and listed as missing) rather than reported as 0
        expected = [n for n, _, _ in layers.all_layer_metrics(args.workload) if n in metrics]
    else:
        expected = [*END_TO_END, workload.quality_name]
    if args.trace:
        moves = {m.name: m.moves for m in layers.LAYER_METRICS + layers.TRACE_METRICS}
        for name in expected:
            value, unit = metrics[name]
            print(f"{name} {value!r} {unit}" + (f"  [moves: {moves[name]}]" if name in moves else ""))
    result = {
        "correct": not failed and not checks.problems,
        "attempted": len(trials),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in expected
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(ARGS))
