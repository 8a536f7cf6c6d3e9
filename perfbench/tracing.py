"""Span tracing of ergolock's public calls, done from outside the package.

Each traced function is replaced, for the duration of a traced run, by a
wrapper at every module attribute that holds it: a caller that did
``from .spectra import product_pairs`` looks the function up in its own
module, so wrapping only ``ergolock.spectra.product_pairs`` would miss it.
Nothing under ``src/`` is changed; :meth:`Tracer.uninstall` restores every
attribute.

A span is (id, name, start, end, parent, op id, cpu time, size). Spans stay
in memory until the run ends. A span's self time is its duration minus the
part of its interval that its child spans cover (the union of the child
intervals, so concurrent children in a thread pool are not counted twice).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple


def _joint_elements(args, result) -> int:
    return int(result[0].size)


def _first_arg_elements(args, result) -> int:
    return int(getattr(args[0], "size", 0))


def _text_bytes(args, result) -> int:
    return len(result.encode())


# Per-layer statistics; each is reported per traced op.
STAT_UNITS = {
    "calls": "count/op",
    "self_ms": "ms/op",
    "elements": "count/op",
    "bytes": "B/op",
    "cpu_per_wall": "ratio",
}
TIMED = ("calls", "self_ms")


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` and dotted ``attr`` inside it.

    ``name`` is the span name and metric prefix, ``stats`` the per-layer
    metrics reported for it, and ``measure(args, result)`` the size (the
    ``elements`` or ``bytes`` stat) recorded with each span.
    """

    module: str
    attr: str
    name: str
    stats: tuple[str, ...] = TIMED
    measure: Callable[[tuple, Any], int] | None = None


TARGETS = (
    Target("bath", "bath_ensemble", "bath.bath_ensemble"),
    Target("weight", "control_marginal", "weight.control_marginal"),
    Target("spectra", "product_pairs", "spectra.product_pairs",
           (*TIMED, "elements"), _joint_elements),
    Target("spectra", "compensated_dot", "spectra.compensated_dot",
           (*TIMED, "elements"), _first_arg_elements),
    Target("spectra", "eigens", "spectra.eigens"),
    Target("spectra", "DensityOperator.__post_init__", "spectra.DensityOperator.init"),
    Target("ergotropy", "ergotropy_product", "ergotropy.ergotropy_product"),
    Target("bounds", "bound_report", "bounds.bound_report"),
    Target("bounds", "free_energy_bound", "bounds.free_energy_bound", ("self_ms",)),
    Target("config", "parse_config", "config.parse_config", ("self_ms",)),
    Target("cli", "run_sweep", "cli.run_sweep", ("self_ms", "cpu_per_wall")),
    Target("cli", "emit_csv", "cli.emit_csv", ("self_ms", "bytes"), _text_bytes),
    Target("oracle", "dense_joint", "oracle.dense_joint"),
    Target("oracle", "dense_ergotropy", "oracle.dense_ergotropy"),
    Target("oracle", "random_state", "oracle.random_state"),
    Target("oracle", "theorem1_work", "oracle.theorem1_work"),
    Target("oracle", "trial_seed", "oracle.trial_seed"),
    Target("verify", "run_verification", "verify.run_verification", ("self_ms",)),
)

OP_SPAN = "op"


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    cpu_ns: int
    size: int


def covered_ns(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of every span in ns: duration minus what its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {
        s.id: (s.end_ns - s.start_ns) - covered_ns(children[s.id], s.start_ns, s.end_ns)
        for s in spans
    }


class Tracer:
    """Installs span-recording wrappers on the functions in ``targets``.

    Recording happens only inside :meth:`op`, so one installed tracer can
    serve interleaved traced and untraced ops. Threads that a traced call
    starts (the sweep thread pool) have no span of their own open; their
    top-level spans are parented to the innermost span open in the thread
    that entered :meth:`op`.
    """

    def __init__(self, package: str = "ergolock", targets: tuple[Target, ...] = TARGETS):
        self.package = package
        self.targets = targets
        self.spans: list[Span] = []
        self.warnings: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] | None = None
        self._op_id: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, fn: Callable, measure, args, kwargs):
        if self._op_stack is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        done = False
        cpu0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            done = True
        finally:
            t1 = time.perf_counter_ns()
            cpu1 = time.process_time_ns()
            stack.pop()
            size = measure(args, result) if done and measure is not None else 0
            self.spans.append(Span(span_id, name, t0, t1, parent, self._op_id, cpu1 - cpu0, size))
        return result

    def _wrapper(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(target.name, fn, target.measure, args, kwargs)

        return wrapper

    def _warn(self, target: Target, why: str) -> None:
        self.warnings.append(f"{target.name}: {why}; reported with calls = 0")

    def install(self) -> None:
        """Wrap every target; a target that no longer exists only warns."""
        for target in self.targets:
            modname = f"{self.package}.{target.module}"
            try:
                # The package re-exports functions under some submodule names
                # (``ergolock.ergotropy`` is a function), so go through the
                # module registry rather than attribute access on the package.
                module = importlib.import_module(modname)
            except ImportError as exc:
                self._warn(target, f"module {modname} not importable ({exc})")
                continue
            owner: object = module
            *owner_path, leaf = target.attr.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self._warn(target, f"{modname}.{target.attr} does not exist")
                continue
            wrapper = self._wrapper(target, original)
            if owner_path:
                # A method: callers reach it through the one class object.
                self._patch(owner, leaf, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == self.package or name.startswith(self.package + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Record an ``op`` root span and every traced call inside it."""
        span_id = next(self._ids)
        stack = self._stack()
        stack.append(span_id)
        self._op_id, self._op_stack = op_id, stack
        cpu0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            cpu1 = time.process_time_ns()
            stack.pop()
            self._op_id = self._op_stack = None
            self.spans.append(Span(span_id, OP_SPAN, t0, t1, None, op_id, cpu1 - cpu0, 0))


def layer_metrics(tracer: Tracer, own: dict[int, int], ops: int) -> dict[str, tuple[float, str]]:
    """``{"<target>.<stat>": (value, unit)}`` per traced op for every target,
    given the :func:`self_times` of the tracer's spans.

    A target that was never called, or no longer exists, reads 0.
    """
    sums = {t.name: [0, 0, 0, 0, 0] for t in tracer.targets}
    for s in tracer.spans:
        acc = sums.get(s.name)
        if acc is None:
            continue
        acc[0] += 1
        acc[1] += own[s.id]
        acc[2] += s.size
        acc[3] += s.cpu_ns
        acc[4] += s.end_ns - s.start_ns
    per_op = max(ops, 1)
    out = {}
    for t in tracer.targets:
        calls, self_ns, size, cpu, wall = sums[t.name]
        values = {
            "calls": calls / per_op,
            "self_ms": self_ns / 1e6 / per_op,
            "elements": size / per_op,
            "bytes": size / per_op,
            "cpu_per_wall": cpu / wall if wall else 0.0,
        }
        for stat in t.stats:
            out[f"{t.name}.{stat}"] = (values[stat], STAT_UNITS[stat])
    return out


def child_share(spans: list[Span], own: dict[int, int], name: str) -> float:
    """Share of ``name``'s total time that its traced child spans cover.

    Every descendant of such a span is a traced target, so this is the sum
    of the descendants' self times over the span's total time.
    """
    total = sum(s.end_ns - s.start_ns for s in spans if s.name == name)
    if not total:
        return 0.0
    return 1.0 - sum(own[s.id] for s in spans if s.name == name) / total
