"""ergolock benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload report_large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with nothing wrapped; ``--trace 1`` alternates traced and untraced ops and
reports the per-layer metrics. The last line of standard output is the
result as one JSON object; the lines before it print every metric with its
unit, the environment, and the computed array sizes. The full record (and,
for a traced run, every span as gzipped JSON lines) goes under
``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy is first imported here or in a set-up
# probe (which inherits it). With the default of one thread per core, the
# small LAPACK calls of ``verify_small`` keep a second core busy spinning,
# which on a shared host measures the neighbours more than ergolock.
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import measure
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"
MODULES = ("spectra", "bath", "weight", "ergotropy", "bounds", "config", "cli", "oracle", "verify")

SETUP_PROBES = 8
# Reference rounds timed in each set-up probe, just before its set-up.
SETUP_REFERENCE_ROUNDS = 3
WARMUP_SECONDS = 1.0
WARMUP_OPS = 2
CHILD_TIMEOUT_S = 170
# About the reference work's median time on the 2-core Xeon guest the bounds
# were set on; a normalised op time reads as if the machine ran at that speed.
REFERENCE_NOMINAL_MS = 13.0
FLOAT64_BYTES = 8


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ergolock source tree."""


def load_program() -> SimpleNamespace:
    """Import ergolock from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "ergolock" / "__init__.py").is_file():
        raise ProgramMissing(f"no ergolock package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("ergolock")
    if Path(package.__file__).resolve().parent != (src / "ergolock").resolve():
        raise ProgramMissing(f"ergolock was imported from {package.__file__}, not {src}")
    # ``ergolock.ergotropy`` is a re-exported function, not the submodule.
    return SimpleNamespace(**{m: importlib.import_module(f"ergolock.{m}") for m in MODULES})


def setup(workload: str, seed: int):
    """Import ergolock and build one workload's inputs."""
    return WORKLOADS[workload].prepare(load_program(), seed, json.loads(REFERENCE.read_text()))


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh process, as measured inside it, and the
    median time of the reference rounds run there just before it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    elapsed, reference = proc.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(reference)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment() -> dict:
    """nproc, CPU model, data cache sizes and versions, from read-only sources."""
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def computed_sizes(prepared) -> dict:
    return {
        "label": "computed",
        "joint_elements": prepared.joint_elements,
        "bytes_per_float64_array": prepared.joint_elements * FLOAT64_BYTES,
        "note": "L3 here is the host's shared cache; arrays are not sized to exceed it",
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: measure.LoopResult, probes: list[tuple[float, float]]):
    """The bounded metrics, the tail's rank, and the raw wall-clock figures.

    Times are scaled to the reference speed: multiplied by
    ``REFERENCE_NOMINAL_MS`` over the median time of a round of the
    reference work, run between the ops or, for set-up, in each probe's own
    process. The machine's drift moves both; a change to ergolock moves only
    the ops and the set-up.
    """
    reference_ms = statistics.median(loop.references) * 1e3
    scale = REFERENCE_NOMINAL_MS / reference_ms
    setup_s = [elapsed * REFERENCE_NOMINAL_MS / (ref * 1e3) for elapsed, ref in probes]
    latencies_ms = [x * 1e3 for x in loop.latencies]
    tail = measure.tail(latencies_ms)
    p50_ms = statistics.median(latencies_ms)
    metrics = {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "ops_per_s_norm": _metric(loop.ops_per_s / scale, "1/s"),
        "op_p50_ms_norm": _metric(p50_ms * scale, "ms"),
        "op_tail_ms_norm": _metric(tail.value * scale, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    raw = {
        "setup_s": _metric(statistics.median(elapsed for elapsed, _ in probes), "s"),
        "ops_per_s": _metric(loop.ops_per_s, "1/s"),
        "op_p50_ms": _metric(p50_ms, "ms"),
        "op_tail_ms": _metric(tail.value, "ms"),
        "reference_ms": _metric(reference_ms, "ms"),
        "scale": _metric(scale, "ratio"),
    }
    return metrics, tail, raw


def traced(prepared, seconds: float, first_index: int, tracer: tracing.Tracer):
    """Alternate untraced (even index) and traced (odd index) ops."""

    def run(i: int):
        if i % 2 == 0:
            return prepared.run(i)
        with tracer.op(i):
            return prepared.run(i)

    loop = measure.closed_loop(run, prepared.check, seconds, first_index)
    by_parity = {0: [], 1: []}
    for i, latency in zip(loop.indices, loop.latencies):
        by_parity[i % 2].append(latency)
    own = tracing.self_times(tracer.spans)
    metrics = {
        name: _metric(value, unit)
        for name, (value, unit) in tracing.layer_metrics(tracer, own, len(by_parity[1])).items()
    }
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(by_parity[1]) / statistics.median(by_parity[0]), "ratio"
    )
    metrics["trace.report_child_share"] = _metric(
        tracing.child_share(tracer.spans, own, "bounds.bound_report"), "ratio"
    )
    return loop, metrics


def write_spans(path: Path, spans: list[tracing.Span]) -> None:
    with gzip.open(path, "wt") as f:
        f.write(json.dumps(list(tracing.Span._fields)) + "\n")
        for s in spans:
            f.write(json.dumps(list(s)) + "\n")


def run_one(args) -> int:
    try:
        prepared = setup(args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Set-up is probed only in untraced runs, half before the timed phase
    # and half after it, so that one slow spell of the machine does not
    # set all of the probes.
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup_probes = [probe_setup(args.workload, args.seed) for _ in range(probes)]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    warm = measure.closed_loop(prepared.run, prepared.check, WARMUP_SECONDS, min_ops=WARMUP_OPS)
    first = warm.indices[-1] + 1
    tail = raw = None
    if tracer is None:
        loop = measure.closed_loop(prepared.run, prepared.check, args.seconds, first)
        setup_probes += [probe_setup(args.workload, args.seed) for _ in range(probes)]
        metrics, tail, raw = end_to_end(loop, setup_probes)
    else:
        try:
            loop, metrics = traced(prepared, args.seconds, first, tracer)
        finally:
            tracer.uninstall()

    correct = not warm.failed and not loop.failed
    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
        "environment": environment(),
        "computed_sizes": computed_sizes(prepared),
        "setup_probes_s": [elapsed for elapsed, _ in setup_probes],
        "setup_references_ms": [ref * 1e3 for _, ref in setup_probes],
        "warmup_ops": warm.attempted,
        "error_ratio": loop.error_ratio,
        "failures": warm.failures + loop.failures,
        "latencies_ms": [x * 1e3 for x in loop.latencies],
        "references_ms": [x * 1e3 for x in loop.references],
        "metrics": metrics,
    }
    if raw is not None:
        record["wall_clock"] = raw
        record["op_tail"] = {"percentile": tail.percentile, "samples": tail.samples,
                             "beyond": tail.beyond}
    if tracer is not None:
        record["warnings"] = tracer.warnings
        record["spans"] = len(tracer.spans)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        write_spans(RESULTS / f"{stem}.spans.jsonl.gz", tracer.spans)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"
          f"  (closed loop, 1 caller; {warm.attempted} warm-up ops)")
    print("environment " + json.dumps(record["environment"]))
    print("computed " + json.dumps(record["computed_sizes"]))
    for name, m in {**metrics, **(raw or {})}.items():
        extra = ""
        if name.startswith("op_tail_ms"):
            extra = f"  (p{tail.percentile:.1f} of {tail.samples} samples, {tail.beyond} beyond)"
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}{extra}")
    print(f"{'error_ratio':40s} {loop.error_ratio:14.6g} ratio  "
          f"({len(loop.failed)} failed / {loop.attempted} attempted)")
    for line in record["failures"] + record.get("warnings", []):
        print(f"warning: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": len(loop.failed), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process (so peak RSS is its own), one table."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ergolock benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        # numpy is imported before the clock starts: its import is fixed,
        # outside ergolock's control, larger than ergolock's own set-up, and
        # its wall time swings by more than half between quiet and busy
        # spells of a shared host, which would mask ergolock's set-up.
        import numpy  # noqa: F401

        references = []
        for _ in range(SETUP_REFERENCE_ROUNDS):
            start = time.perf_counter()
            measure.reference_work()
            references.append(time.perf_counter() - start)
        start = time.perf_counter()
        setup(args.workload, args.seed)
        print(time.perf_counter() - start, statistics.median(references))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
