"""drslab benchmark: three closed-loop workloads, timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; drslab is imported from ``src/``.  With
``--trace 0`` the run prints the end-to-end metrics, measured with tracing
off; with ``--trace 1`` it prints the per-layer metrics of a traced run.  The
last line of stdout is the result object; the line before it is the full
record (environment, sample counts, per-pass spreads, exact-count anchors),
which is also written to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads: with the default two threads a
# fresh process now and then stalls on the size-200 eigvalsh checks.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
SETUP_REPS = 9
PROBE_REPS = 5
PROBE_TIMEOUT_S = 60
MIN_TRACED_PASSES = 2
PEAK_PASSES = 2
# tracemalloc peaks of identical passes differ by a few KiB (interpreter
# free lists and numpy's small-buffer cache hand out memory it does not see
# as new; 3.5 KiB on a 158 KB peak was seen); every other anchor must repeat
# exactly.
PEAK_TOL_REL = 0.01
PEAK_TOL_BYTES = 16384


# ---------------------------------------------------------------- helpers


def fresh_import():
    """Import drslab from ``src/`` anew; numpy stays loaded."""
    for name in [n for n in sys.modules if n == "drslab" or n.startswith("drslab.")]:
        del sys.modules[name]
    dl = importlib.import_module("drslab")
    if Path(dl.__file__).resolve().parent != SRC / "drslab":
        raise SystemExit(f"drslab was imported from {dl.__file__}, not from {SRC}")
    return dl


def quantile(values, q):
    """The q-th 1/100 cut point of the values (values need not be sorted)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spread(values):
    """Per-pass spread: median, min, max and interquartile range over the median."""
    med = statistics.median(values)
    iqr = quantile(values, 75) - quantile(values, 25) if len(values) > 1 else 0.0
    return {
        "n": len(values),
        "median": med,
        "min": min(values),
        "max": max(values),
        "iqr_over_median": iqr / med if med else 0.0,
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def source_hash():
    """Hash of the program and benchmark sources; anchors are kept per hash."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def agrees(name, a, b):
    """Exact counts must be equal; peak allocation within the tolerance above."""
    if name == "peak_alloc_bytes":
        return abs(a - b) <= PEAK_TOL_REL * max(a, b) + PEAK_TOL_BYTES
    return a == b


def check_anchors(key, anchors, problems):
    """Compare exact counts with earlier runs of the same sources and seed."""
    path = OUT / f"anchors-{source_hash()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    earlier = stored.setdefault(key, {})
    for name, value in anchors.items():
        if name in earlier and not agrees(name, earlier[name], value):
            problems.append(f"anchor {name} is {value}, an earlier run had {earlier[name]}")
        earlier.setdefault(name, value)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))


def same_every_pass(name, values, problems):
    if any(v != values[0] for v in values):
        problems.append(f"{name} differs between passes: {values}")
    return values[0]


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- untraced


def peak_pass(ops):
    """Peak bytes allocated during one untimed pass, and that pass."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = workloads.run_pass(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


def measure(name, seed, seconds):
    build = workloads.WORKLOADS[name]

    def set_up():
        start = perf_counter()
        ops = build(fresh_import(), seed)
        return perf_counter() - start, ops

    first_setup, ops = set_up()
    setups = [first_setup]

    problems, errors = [], []
    untimed = [workloads.run_pass(ops)]  # warm-up: first-call allocations
    peaks = []
    for _ in range(PEAK_PASSES):
        peak, result = peak_pass(ops)
        peaks.append(peak)
        untimed.append(result)
    timed = []
    elapsed = 0.0
    cpus = sorted(os.sched_getaffinity(0))
    try:
        while elapsed < seconds or not timed:
            # Each CPU of the host slows by up to 1.7x in spells of a fraction
            # of a second, independently of the other; taking passes on every
            # CPU in turn gives each operation's best-of more spells to hit.
            os.sched_setaffinity(0, {cpus[len(timed) % len(cpus)]})
            result = workloads.run_pass(ops)
            timed.append(result)
            elapsed += result.wall_s
            # Set-ups are spread over the run, so that their median does not
            # hang on the host's speed in the first fraction of a second.
            if len(setups) < SETUP_REPS and elapsed >= seconds * len(setups) / SETUP_REPS:
                setups.append(set_up()[0])
    finally:
        os.sched_setaffinity(0, cpus)
    while len(setups) < SETUP_REPS:
        setups.append(set_up()[0])

    every = untimed + timed
    attempted = sum(r.ok + r.failed for r in every)
    failed = sum(r.failed for r in every)
    for r in every:
        errors.extend(r.errors)
    peak = statistics.median(peaks)
    if not all(agrees("peak_alloc_bytes", p, peak) for p in peaks):
        problems.append(f"peak_alloc_bytes differs between passes: {peaks}")
    counts = same_every_pass("counts", [r.counts for r in every], problems)
    anchors = {"peak_alloc_bytes": peak, **{f"pass.{k}": v for k, v in counts.items()}}
    check_anchors(f"{name}/{seed}", anchors, problems)

    # Co-tenant load on a shared host slows whole seconds of a run by up to
    # 1.7x, in CPU time as much as in wall time.  So, as timeit does, each
    # operation's latency is the best of its timed repetitions; the
    # percentiles are over the pass's distinct operations, and the rate is
    # a pass of best-case operations.  Raw per-pass and pooled figures, with
    # their sample counts, are in the record.
    best = [min(r.latencies_s[i] for r in timed) for i in range(len(ops))]
    timed_ok = sum(r.ok for r in timed) / sum(r.ok + r.failed for r in timed)
    latencies = [t for r in timed for t in r.latencies_s]
    wall = sum(r.wall_s for r in timed)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(timed_ok * len(ops) / sum(best), "ops/s"),
        "op_ms_p50": metric(1e3 * quantile(best, 50), "ms"),
        "op_ms_p90": metric(1e3 * quantile(best, 90), "ms"),
        "peak_alloc_mb": metric(peak / 1e6, "MB"),
        "ok_ratio": metric((attempted - failed) / attempted, "1"),
    }
    record = {
        "fail_ratio": failed / attempted,
        "distinct_ops": len(ops),
        "repetitions": len(timed),
        "latency_samples": len(latencies),
        "pooled": {
            "ops_per_s": sum(r.ok for r in timed) / wall,
            "op_ms_p50": 1e3 * quantile(latencies, 50),
            "op_ms_p90": 1e3 * quantile(latencies, 90),
            "timed_wall_s": wall,
        },
        "per_pass_spread": {
            "setup_s": spread(setups),
            "ops_per_s": spread([r.ok / r.wall_s for r in timed]),
            "op_ms_p50": spread([1e3 * quantile(r.latencies_s, 50) for r in timed]),
            "op_ms_p90": spread([1e3 * quantile(r.latencies_s, 90) for r in timed]),
        },
        "anchors": anchors,
    }
    return metrics, record, attempted, failed, problems, errors


# ---------------------------------------------------------------- traced


def wait_for(args, **popen_kwargs):
    """Run a child to completion and return its exit code.

    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms, which
    would round every launch time up to the next poll; a blocking wait with
    a kill timer keeps the timeout without that.
    """
    proc = subprocess.Popen(args, **popen_kwargs)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


def fresh_ms(code):
    """Median wall time in ms of a fresh ``python -c code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(PROBE_REPS):
        start = perf_counter()
        status = wait_for([sys.executable, "-c", code], env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(1e3 * (perf_counter() - start))
        if status != 0:
            raise RuntimeError(f"python -c {code!r} exited with {status}")
    return statistics.median(times)


def measure_traced(name, seed, seconds):
    build = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    setup_summaries = []
    for _ in range(SETUP_REPS):
        dl = fresh_import()
        tracer.install(construct=True)
        try:
            ops = build(dl, seed)
        finally:
            tracer.uninstall()
        setup_summaries.append(spans.summarize(tracer.take()))

    def tag(index):
        tracer.op_id = index

    every = [workloads.run_pass(ops)]  # warm-up, untraced
    probes = []
    plain, traced, summaries, last_spans = [], [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(traced) < MIN_TRACED_PASSES:
        result = workloads.run_pass(ops)
        plain.append(result.wall_s)
        every.append(result)
        tracer.install()
        try:
            result = workloads.run_pass(ops, on_op=tag)
        finally:
            tracer.uninstall()
        traced.append(result.wall_s)
        every.append(result)
        last_spans = tracer.take()
        summaries.append(spans.summarize(last_spans))

    # The CLI layers, timed as probes: a fresh interpreter, a fresh
    # ``import drslab``, and ``drslab.cli.main`` called in-process.
    interpreter_ms = fresh_ms("pass")
    import_ms = fresh_ms("import drslab") - interpreter_ms
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        cli_ops = workloads.cli_calls(dl, seed, workdir)
        cli_main_ms = []
        for _ in range(PROBE_REPS):
            tracer.install()
            try:
                probes.append(workloads.run_pass(cli_ops))
            finally:
                tracer.uninstall()
            cli_main_ms.append(spans.summarize(tracer.take())["busy_ms"]["cli.main"])

    problems, errors = [], []
    same_every_pass("layer counts", [spans.exact_counts(s) for s in summaries], problems)
    metrics = spans.layer_metrics(summaries, setup_summaries)
    metrics.update({
        "cli.interpreter_ms": metric(interpreter_ms, "ms"),
        "cli.import_ms": metric(import_ms, "ms"),
        "cli.main.busy_ms": metric(statistics.median(cli_main_ms), "ms"),
        "trace.overhead_ratio": metric(statistics.median(traced) / statistics.median(plain), "1"),
    })
    attempted = sum(r.ok + r.failed for r in every + probes)
    failed = sum(r.failed for r in every + probes)
    for r in every + probes:
        errors.extend(r.errors)
    counts = same_every_pass("counts", [r.counts for r in every], problems)
    anchors = {f"pass.{k}": v for k, v in counts.items()}
    anchors.update({f"trace.{k}": v for k, v in spans.exact_counts(summaries[0]).items()})
    check_anchors(f"{name}/{seed}", anchors, problems)
    record = {
        "fail_ratio": failed / attempted,
        "ops_per_pass": len(ops),
        "traced_passes": len(traced),
        "per_pass_spread": {"traced_s": spread(traced), "untraced_s": spread(plain)},
        "anchors": anchors,
    }
    spans_path = OUT / f"{name}-seed{seed}.spans.jsonl"
    with open(spans_path, "w") as fh:
        for span in last_spans:
            fh.write(json.dumps(span) + "\n")
    record["spans_file"] = spans_path.name
    return metrics, record, attempted, failed, problems, errors


# ---------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drslab" / "__init__.py").is_file():
        print(f"error: no drslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.trace:
        measured = measure_traced(args.workload, args.seed, args.seconds)
    else:
        measured = measure(args.workload, args.seed, args.seconds)
    metrics, record, attempted, failed, problems, errors = measured

    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "problems": problems,
        "errors": sorted(set(errors))[:20],
    })
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=1))
    for key, m in metrics.items():
        print(f"{args.workload:>16}  {key:<44} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
