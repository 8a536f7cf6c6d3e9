"""Closed-loop timing and the statistics reported from it."""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# So the timed phase always runs at least this many ops.
MIN_OPS = TAIL_BEYOND + 1
# Failure messages kept in full; the rest are only counted.
KEPT_FAILURES = 5
# Iterations of one round of the reference work (about 13 ms).
REFERENCE_ITERATIONS = 150_000
# Before each op, reference rounds run until this share of the previous op's
# latency has passed (at least one round), so long ops get as many samples
# of the machine's speed per run as short ones.
REFERENCE_SHARE = 0.05


@dataclass(frozen=True)
class Tail:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values: list[float]) -> Tail:
    """Pick the sample at rank ``n - TAIL_BEYOND`` (1-based) of the sorted values.

    That sample is the ``(n - TAIL_BEYOND) / n`` empirical percentile and
    exactly ``TAIL_BEYOND`` samples sort after it. ``TAIL_BEYOND`` or fewer
    samples have no such percentile.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave none with {TAIL_BEYOND} beyond it")
    rank = n - TAIL_BEYOND
    return Tail(sorted(values)[rank - 1], 100.0 * rank / n, n, TAIL_BEYOND)


def reference_work() -> int:
    """Fixed pure-Python work that owes nothing to ergolock: its time tracks
    how fast the machine runs at the moment, not the program."""
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x += i * i
    return x


@dataclass
class LoopResult:
    """Latency of every op in order, its index, which ones failed, and the
    time of every round of reference work run between the ops."""

    latencies: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    indices: list[int] = field(default_factory=list)
    failed: set[int] = field(default_factory=set)
    failures: list[str] = field(default_factory=list)
    duration: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def error_ratio(self) -> float:
        return len(self.failed) / self.attempted if self.attempted else 0.0

    @property
    def ops_per_s(self) -> float:
        """Successful ops per second of the timed phase, not counting the
        reference work."""
        return (self.attempted - len(self.failed)) / (self.duration - sum(self.references))


def closed_loop(
    run: Callable[[int], Any],
    check: Callable[[int, Any], None],
    seconds: float,
    first_index: int = 0,
    min_ops: int = MIN_OPS,
) -> LoopResult:
    """One caller: start op ``i + 1`` only after op ``i`` has finished.

    Runs until ``seconds`` have passed and at least ``min_ops`` ops ran.
    An op fails if ``run`` raises or ``check`` rejects its output; the check
    is outside the timed interval. Every failure is counted, none stops the
    loop.
    """
    out = LoopResult()
    index = first_index
    latency = 0.0
    start = time.perf_counter()
    while True:
        error = None
        until = time.perf_counter() + REFERENCE_SHARE * latency
        while True:
            r0 = time.perf_counter()
            reference_work()
            t0 = time.perf_counter()
            out.references.append(t0 - r0)
            if t0 >= until:
                break
        try:
            output = run(index)
        except Exception:  # an op failure is a measurement, not a crash
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        latency = t1 - t0
        if error is None:
            try:
                check(index, output)
            except Exception:
                error = traceback.format_exc(limit=3)
        out.latencies.append(latency)
        out.indices.append(index)
        if error is not None:
            out.failed.add(index)
            if len(out.failures) < KEPT_FAILURES:
                out.failures.append(f"op {index}: {error}")
        index += 1
        out.duration = t1 - start
        if out.duration >= seconds and out.attempted >= min_ops:
            return out
