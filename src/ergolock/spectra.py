"""Classical spectra of states with diagonal Hamiltonians.

A state that is diagonal in a known energy basis is fully described by a
paired list of (probability, energy): a :class:`SpectralEnsemble`.
Passive energies need only the two joint multisets, each in ascending order.
In a thermal bath a configuration's probability depends on its energy alone,
so :func:`passive_energies` builds the bath's sorted energy levels once,
folding in one qubit gap at a time as a linear merge of two sorted runs. It
keys both joint streams by that one array and walks them in
rank-aligned, cache-sized windows: no joint-sized array is held. One planner
(``_stream``) cuts a fold and a walk alike at exact pivot ranks. Each piece
is a stable merge of sorted runs, done on the sums' int64 bit patterns
where none can be negative, -0.0 or NaN, and not at all for one such run.
A large fold is cut into one part per CPU in the process's affinity mask,
and a large walk into (window, state) cells shared out over those CPUs by
estimated cost, with the same result bit for bit. Small non-diagonal system
states are carried as dense matrices (:class:`DensityOperator`).

Units: hbar = k_B = 1, natural logarithm throughout.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left, bisect_right
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PROB_FLOOR = -1e-12
PROB_SUM_ATOL = 1e-10

# A passive-energy walk of more joint elements than this raises
# SizeCapError before anything is built.
DEFAULT_EXPANSION_CAP = 1 << 26

_SUM_BLOCK = 1 << 15

# A fold is written and sorted in value-range chunks of about this many
# elements, so a sort's merge buffer stays cache-sized.
_CHUNK = 1 << 17

# Below this many elements a fold, or this many products (ranks times
# states) a walk of more than _SUM_BLOCK ranks, runs as one part on the
# caller: on a 2-core Xeon guest, 2^18 is the smallest fold that two parts
# sort faster than one (crossover_fold_ms in BENCH_parallel_fold.json).
_PARALLEL_MIN = 1 << 18

# A stream of fewer values sorts as float64, as all of verify's do: there
# the int64 sort gains little, less than its sign check and view cost.
_KEYED_MIN = 1 << 12

# Relative cost per rank of a walk cell whose keys are one run (a write and
# its block sums) or a merge of several, from one-window timings at N = 22
# (window_ms in BENCH_int_keys.json). A window's energies cost what a cell
# of as many runs does, less the block sums.
_CELL_COST = (1, 4)

# Parts per large fold or walk: the CPUs this process may run on.
_PARTS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()


class SizeCapError(RuntimeError):
    """Raised when an expansion would exceed the configured element cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"expansion of {_count_text(size)} elements exceeds the cap of {cap}")
        self.size = size
        self.cap = cap


def _count_text(n: int) -> str:
    # Python refuses to format an int of more than 4,300 decimal digits, and
    # a bath of 10^5 qubits has a joint size of 30,103 digits.
    if n < 10**18:
        return str(n)
    log = math.log10(n)
    return f"about {10 ** (log - int(log)):.3g}e{int(log)}"


def _check_cap(sizes: Sequence[int]) -> None:
    size = 1
    for n in sizes:
        size *= int(n)
        if size > DEFAULT_EXPANSION_CAP:
            # Equal factor sizes are grouped into one power, so the exact
            # count of a 10^6-qubit bath costs one shift, not 10^6 big-int
            # products.
            counts = Counter(int(n) for n in sizes)
            raise SizeCapError(
                math.prod(n**k for n, k in counts.items()), DEFAULT_EXPANSION_CAP
            )


def _parts(size: int) -> int:
    return 1 if size < _PARALLEL_MIN else _PARTS


def _split(costs: list, parts: int) -> list:
    # Bounds of parts contiguous runs of items: part k takes items bounds[k]
    # to bounds[k + 1]. A bisection finds the least cap on a part's cost that
    # greedy filling meets, the least any split allows. Each inner bound then
    # sits nearest to k / parts of the total cost, moved only as far as it
    # must be for its part and the later parts to stay within the cap.
    sums, n = list(accumulate(costs, initial=0)), len(costs)

    def reach(start: int, cap: float, count: int) -> int:
        # The end of count parts of at most cap, filled greedily from start;
        # it never decreases as start or cap grows. A part costs the
        # difference of its prefix sums, as it is compared here.
        for _ in range(count):
            base = sums[start]
            start = bisect_right(sums, cap, start, key=lambda total: total - base) - 1
        return start

    low, cap = 0.0, sums[-1]
    while low < (guess := (low + cap) / 2) < cap:
        low, cap = (low, guess) if reach(0, guess, parts) == n else (guess, cap)
    bounds = [0]
    for k in range(1, parts):
        target = sums[-1] * k / parts
        j = bisect_left(sums, target)
        j -= target - sums[j - 1] < sums[j] - target
        start = bounds[-1]
        last = reach(start, cap, 1)
        first = start + bisect_left(
            range(start, last), True, key=lambda i: reach(i, cap, parts - k) == n
        )
        bounds.append(min(max(j, first), last))
    return [*bounds, n]


def _run_parts(task: Callable[[int, int], Any], parts: int) -> list:
    """``[task(k, parts) for k in range(parts)]``, with part 0 on the caller
    and the others on one shared thread pool, created on first use.

    The parts run numpy calls that release the GIL, so they overlap. Pool
    workers never submit to the pool, so a caller that is itself a thread of
    some other pool (a ``cli`` sweep) cannot deadlock it. Every part has
    finished when this returns or raises, and an exception of part 0 is
    raised in preference to one of the other parts'. numpy's floating-point
    error state is per thread, so the pool's parts run under the caller's.
    """
    global _executor
    if parts == 1:
        return [task(0, 1)]
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max_workers=_PARTS, thread_name_prefix="ergolock")
    errors = np.geterr()

    def pooled(k: int) -> Any:
        with np.errstate(**errors):
            return task(k, parts)

    futures = [_executor.submit(pooled, k) for k in range(1, parts)]
    try:
        first = task(0, parts)
    finally:
        wait(futures)
    return [first, *(future.result() for future in futures)]


def compensated_sum(values: np.ndarray) -> float:
    """Sum with compensated accumulation: exact fsum over pairwise block sums."""
    arr = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0.0
    if arr.size <= _SUM_BLOCK:
        return math.fsum(arr.tolist())
    partials = [float(arr[i : i + _SUM_BLOCK].sum()) for i in range(0, arr.size, _SUM_BLOCK)]
    return float(math.fsum(partials))


def compensated_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product accumulated with :func:`compensated_sum` (2^20+ term
    safe): ``compensated_sum(np.multiply(a, b))``."""
    return compensated_sum(np.multiply(a, b, dtype=np.float64))


def _block_sums(
    keys: np.ndarray, e: np.ndarray, rate: float, length: int, n: int, buffer: np.ndarray
) -> list:
    # compensated_sum's partials for the blocks of an n-term sum whose terms,
    # from a block boundary on, are exp(rate * keys) * e and then zeros up to
    # length, each block formed in the cache-sized buffer. Blocks past the
    # last key are left out, their partials being zero.
    partials = []
    for i in range(0, keys.size, _SUM_BLOCK):
        end, stop = min(i + _SUM_BLOCK, length), min(i + _SUM_BLOCK, keys.size)
        terms = buffer[: stop - i]
        np.exp(np.multiply(keys[i:stop], rate, out=terms), out=terms)
        np.multiply(terms, e[i:stop], out=terms)
        buffer[stop - i : end - i] = 0.0
        products = buffer[: end - i]
        partials.append(math.fsum(products.tolist()) if n <= _SUM_BLOCK else float(products.sum()))
    return partials


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DiagonalHamiltonian:
    """Energy levels of a Hamiltonian that is diagonal in the working basis.

    The stored order defines the basis index convention used everywhere
    downstream; levels are not sorted on construction.
    """

    energies: np.ndarray

    def __post_init__(self):
        energies = np.array(self.energies, dtype=np.float64, copy=True).ravel()
        if energies.size == 0:
            raise ValueError("Hamiltonian needs at least one energy level")
        if not np.all(np.isfinite(energies)):
            raise ValueError("Hamiltonian energies must be finite")
        object.__setattr__(self, "energies", _readonly(energies))

    @property
    def dim(self) -> int:
        return int(self.energies.size)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Dense Hermitian, unit-trace, positive-semidefinite matrix.

    Tolerances: entries finite, Hermiticity and trace to 1e-12, eigenvalues
    above -1e-10. Construction validates all of them, so a held instance is
    always a state. The ascending eigenvalues the validation computes are
    kept as ``eigenvalues`` (unclipped, read-only), so a state is
    diagonalised once, however often :func:`eigens` or the dense oracle
    reads it.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128, copy=True)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("density operator must be a square matrix")
        if not np.isfinite(entries).all():
            raise ValueError("density operator entries must be finite")
        herm_defect = float(np.abs(entries - entries.conj().T).max())
        if herm_defect > HERMITIAN_ATOL:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        trace_defect = abs(complex(entries.trace()) - 1.0)
        if trace_defect > TRACE_ATOL:
            raise ValueError(f"trace differs from 1 by {trace_defect:.3e}")
        eigenvalues = np.linalg.eigvalsh(entries)
        min_eig = float(eigenvalues[0])  # eigvalsh is ascending
        if min_eig < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})")
        object.__setattr__(self, "entries", _readonly(entries))
        object.__setattr__(self, "eigenvalues", _readonly(eigenvalues))

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    def diagonal(self) -> np.ndarray:
        return np.real(np.diagonal(self.entries)).copy()


@dataclass(frozen=True, eq=False)
class SpectralEnsemble:
    """Positionally paired (probability, energy) lists.

    The pairing probs[i] <-> energies[i] is meaningful as given; nothing is
    sorted implicitly.
    """

    probs: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64, copy=True).ravel()
        energies = np.array(self.energies, dtype=np.float64, copy=True).ravel()
        if probs.size != energies.size:
            raise ValueError("probs and energies must have the same length")
        if probs.size == 0:
            raise ValueError("ensemble must not be empty")
        if not np.all(np.isfinite(probs)) or not np.all(np.isfinite(energies)):
            raise ValueError("ensemble entries must be finite")
        if float(probs.min()) < PROB_FLOOR:
            raise ValueError(f"negative probability {probs.min():.3e}")
        total = compensated_sum(probs)
        if abs(total - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", _readonly(probs))
        object.__setattr__(self, "energies", _readonly(energies))

    @property
    def size(self) -> int:
        return int(self.probs.size)


def gibbs_ensemble(hamiltonian: DiagonalHamiltonian, beta: float) -> SpectralEnsemble:
    """Gibbs populations exp(-beta * E_i) / Z over the given levels.

    Energies are copied positionally; weights are evaluated with the minimum
    level shifted out to avoid overflow at large beta.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError("beta must be positive and finite")
    energies = hamiltonian.energies
    weights = np.exp(-beta * (energies - energies.min()))
    return SpectralEnsemble(weights / compensated_sum(weights), energies)


def average_energy(ensemble: SpectralEnsemble) -> float:
    """Mean energy: sum of probs[i] * energies[i]."""
    return compensated_dot(ensemble.probs, ensemble.energies)


def shannon_entropy(probs: np.ndarray) -> float:
    """Entropy -sum p ln p with the 0 ln 0 = 0 convention (natural log)."""
    p = np.asarray(probs, dtype=np.float64)
    if p.size and float(p.min()) < PROB_FLOOR:
        raise ValueError(f"negative probability {p.min():.3e}")
    positive = p[p > 0.0]
    if positive.size == 0:
        return 0.0
    return -compensated_sum(positive * np.log(positive))


def entropy(ensemble: SpectralEnsemble) -> float:
    """Entropy of the probability list; independent of the energies."""
    return shannon_entropy(ensemble.probs)


def _check_temperature(temperature: float) -> None:
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError("temperature must be positive and finite")


def free_energy(ensemble: SpectralEnsemble, temperature: float) -> float:
    """F = E - T*S at the given temperature."""
    _check_temperature(temperature)
    return average_energy(ensemble) - temperature * entropy(ensemble)


def state_free_energy(
    rho: DensityOperator, hamiltonian: DiagonalHamiltonian, temperature: float
) -> float:
    """F = Tr[H rho] - T*S(rho) of a system state under a diagonal Hamiltonian."""
    energy = compensated_dot(rho.diagonal(), hamiltonian.energies)
    return energy - temperature * shannon_entropy(eigens(rho))


def _log_partition(gaps: np.ndarray, temperature: float) -> float:
    # ln Z of a thermal qubit bath: the sum of ln(1 + exp(-g / T)) over its
    # gaps, each term positive, so the sum cancels nothing.
    return compensated_sum(np.log1p(np.exp(-gaps / temperature)))


def _bath_energies(gaps: np.ndarray) -> np.ndarray:
    # Ascending sums of every subset of the gaps: each gap g is folded into
    # the sorted sums s as the runs 0.0 + s and g + s. IEEE + is commutative,
    # so this equals np.sort of the bath's expanded energies bit for bit.
    # The last fold lands in the result, the one before it in a scratch
    # buffer of half the size, and so on back, so the chain allocates two
    # arrays.
    s = np.zeros(1)
    size = 1 << len(gaps)
    out, scratch = np.empty(size), np.empty(size // 2)
    if len(gaps) % 2 == 0:
        out, scratch = scratch, out
    for g in gaps:
        s = _fold(s, np.array([0.0, g]), out[: 2 * s.size])
        out, scratch = scratch, out
    return s


def passive_energies(
    eigenvalues: Sequence[np.ndarray],
    levels: np.ndarray,
    gaps: np.ndarray,
    temperature: float,
) -> list[float]:
    """Passive energy of each state, given by its non-negative eigenvalues,
    with the thermal bath of qubits of these ``gaps`` at ``temperature``,
    under the system ``levels`` plus the bath's energies.

    A joint probability ``lambda * exp(-E_x / T) / Z`` is ``exp(-key / T)``
    for the key ``E_x + T (ln Z - ln lambda)``, so the probabilities in
    descending order are the keys in ascending order. The bath's sorted
    energy array is built once, and no array of the joint size is built.
    The joint energies (the levels folded into it) and each state's keys
    (its nonzero eigenvalues' offsets folded into it) are read in rank
    windows of about ``_CHUNK`` ranks that start on ``_SUM_BLOCK``
    multiples. One cell is one state's dot over one window's ranks: its
    sorted keys (:func:`_window`) become probabilities ``exp(key * -1/T)``
    block by block, and the block partials are taken from their products
    with the window's sorted energies. Each part of :func:`_run_parts` takes
    a contiguous run of cells in window-major order, of about an equal share
    of their estimated cost (:func:`_cell_costs`), and sorts a window's
    energies once, at its first cell of that window with products. A walk of
    at most ``_SUM_BLOCK`` ranks, whose sums hold the GIL, runs as one part.
    Ranks past a state's nonzero products (a zero eigenvalue's) hold ``+0.0``
    products in their last block, and later blocks are left out. The value
    equals ``compensated_dot`` over the whole sorted arrays, the keys mapped
    the same way, bit for bit, however the cells are shared out: each
    state's partials are summed with ``math.fsum``. The keys, and energies
    of non-negative levels, are merged as int64 bit patterns. Every state's
    full joint size is checked against the cap before anything is built.
    """
    _check_cap([max(map(len, [levels, *eigenvalues])), *[2] * len(gaps)])
    # Every energy and T are scaled by the exact power of two that keeps T
    # within 2^+-900, so a key's T (ln Z - ln lambda) is finite and normal.
    exponent = math.frexp(temperature)[1]
    scale = math.ldexp(1.0, exponent - min(max(exponent, -900), 900))
    gaps = np.asarray(gaps, dtype=np.float64) / scale
    levels = np.asarray(levels, dtype=np.float64) / scale
    temperature /= scale
    width = _SUM_BLOCK * max(1, _CHUNK // _SUM_BLOCK)
    bath_energies = _bath_energies(gaps)
    energies = _stream(bath_energies, levels, width)
    log_z = _log_partition(gaps, temperature)
    states = []
    for values in eigenvalues:
        values = np.asarray(values, dtype=np.float64)
        offsets = temperature * (log_z - np.log(values[values != 0]))
        states.append(_stream(bath_energies, offsets, width))
    n = levels.size * bath_energies.size
    cells = -(-n // width) * len(states)
    # A walk of at most _SUM_BLOCK ranks sums each cell with math.fsum over
    # a Python list, which holds the GIL, so it runs as one part.
    parts = max(1, min(_parts(n * len(states) if n > _SUM_BLOCK else 0), cells))
    bounds = [0, cells] if parts == 1 else _split(_cell_costs(energies, states, width, n), parts)

    def part(k: int, parts: int) -> list:
        sums = [[] for _ in states]
        e_buffer = np.empty(energies.largest)
        k_buffer = np.empty(max((state.largest for state in states), default=0))
        block = np.empty(min(n, _SUM_BLOCK))
        sorted_window = None
        for cell in range(bounds[k], bounds[k + 1]):
            window, i = divmod(cell, len(states))
            lo, hi = window * width, min(n, (window + 1) * width)
            m = states[i].ranks[-1]
            if m > lo:
                if sorted_window != window:
                    e, sorted_window = _window(energies, lo, hi, e_buffer), window
                keys = _window(states[i], lo, min(hi, m), k_buffer)
                sums[i] += _block_sums(keys, e, -1.0 / temperature, hi - lo, n, block)
        return sums

    parts = _run_parts(part, parts)
    return [scale * math.fsum(chain.from_iterable(sums)) for sums in zip(*parts)]


def _cell_costs(energies: _Stream, states: list, width: int, n: int) -> list:
    # Estimated cost of each (window, state) cell in window-major order: its
    # products at _CELL_COST, plus the window's energies at the first cell
    # with products, where a part sorts them.
    costs = []
    for lo in range(0, n, width):
        hi = min(n, lo + width)
        energy = (hi - lo) * (_CELL_COST[len(energies.values) > 1] - 1)
        for state in states:
            products = max(0, min(hi, state.ranks[-1]) - lo)
            costs.append(products * _CELL_COST[len(state.values) > 1] + (energy if products else 0))
            energy = 0 if products else energy
    return costs


def _fold(s: np.ndarray, f: np.ndarray, out: np.ndarray) -> np.ndarray:
    # Sorted multiset of c + x over c in f and x in the sorted s, written
    # into out. Each run c + s is sorted, because x -> x + c is monotone in
    # IEEE-754, and a stable sort (timsort) merges a few such runs in linear
    # time. The fold is planned as the walk is, after Odeh et al., "Merge
    # Path", IPDPS Workshops 2012: pivots come from a strided sample, and
    # one bisection finds each pivot's exact rank in every run. Every 16th
    # pivot bounds a chunk of about _CHUNK values, at least one per part
    # where the values allow, and each chunk is written and sorted in its
    # own slice of out, so a merge buffer is at most about half a chunk.
    # Each part takes a contiguous run of chunks, as many as _split gives
    # it. All copies of a value (a -0.0 and a 0.0 included) fall in one
    # chunk, in the order one whole-array stable sort would meet them, so
    # the result is the same array bit for bit, however it is cut, and
    # whether it is sorted as floats or, where _stream finds no value below
    # +0.0, as int64 bit patterns.
    parts = _parts(out.size)
    stream = _stream(s, f, min(_CHUNK, -(-out.size // parts)))
    ranks = stream.ranks
    if len(ranks) == 2:
        return _write_chunk(stream, 0, 1, out)
    chunks = len(ranks) // 16
    parts = min(parts, chunks)
    bounds = _split([1] * chunks, parts)

    def part(k: int, parts: int) -> None:
        for c in range(bounds[k], bounds[k + 1]):
            a, b = 16 * c, 16 * c + 16
            _write_chunk(stream, a, b, out[ranks[a] : ranks[b]])

    _run_parts(part, parts)
    return out


class _Stream(NamedTuple):
    # The sums of values and the sorted s, planned for reads at any ranks.
    # Row j of edges holds each run's edge at pivot j (see _run_pieces), and
    # ranks[j] the count of sums below that pivot; the first and last
    # pivots stand for -inf and +inf. A window of width ranks sorts at most
    # largest values. A piece is sorted as key: int64 where no sum can be
    # negative, -0.0 or NaN and there are at least _KEYED_MIN, float64
    # elsewhere.
    s: np.ndarray
    values: list
    edges: list
    ranks: list
    largest: int
    key: type


def _stream(s: np.ndarray, f: np.ndarray, width: int) -> _Stream:
    # A fold of more than width values is cut by 16 pivots per width ranks,
    # read off a strided sample of about 16 values per pivot gap and at
    # least 2^11; _run_pieces places each pivot in every run exactly.
    # Where every value and s[0] is +0.0 or above and s holds no NaN, each
    # sum c + x is too (+0.0 + -0.0 is +0.0), and such doubles sort as their
    # bit patterns do, ties included: an int64 sort skips the NaN-aware
    # float compare and gives the same bits.
    size = f.size * s.size
    values = f.tolist()
    keyed = size >= _KEYED_MIN and not math.isnan(s[-1]) and all(
        x >= 0.0 and math.copysign(1.0, x) > 0.0 for x in [float(s[0]), *values]
    )
    key = np.int64 if keyed else np.float64
    if size <= width:
        return _Stream(s, values, [[0] * f.size, [s.size] * f.size], [0, size], size, key)
    count = 16 * -(-size // width)
    stride = max(1, size // max(16 * count, 1 << 11))
    sample = np.sort(np.add.outer(f, s[::stride]), axis=None)
    edges = _run_pieces(f, s, sample[sample.size * np.arange(1, count) // count])
    ranks = edges.sum(axis=1).tolist()
    # A window reaches back to a pivot less than one gap below it, and on
    # to one less than one gap above it.
    gap = max(b - a for a, b in zip(ranks, ranks[1:]))
    return _Stream(s, values, edges.tolist(), ranks, min(size, width + 2 * gap), key)


def _window(stream: _Stream, lo: int, hi: int, buffer: np.ndarray) -> np.ndarray:
    # The stream's sorted values at ranks lo to hi. Every value between the
    # last pivot at or below rank lo and the first at or above rank hi is
    # written into the buffer and sorted, and the ranks are sliced out of
    # it: the pivots' ranks are exact, so these are the values at those
    # ranks bit for bit.
    first, last = bisect_right(stream.ranks, lo) - 1, bisect_left(stream.ranks, hi)
    start = stream.ranks[first]
    out = _write_chunk(stream, first, last, buffer[: stream.ranks[last] - start])
    return out[lo - start : hi - start]


def _write_chunk(stream: _Stream, a: int, b: int, out: np.ndarray) -> np.ndarray:
    # Writes each run's piece between pivots a and b into out in run order
    # and sorts it stably as the stream's key, so ties keep the order one
    # whole-array stable sort would give them. One run's piece c + s[lo:hi]
    # is sorted already, as x -> x + c is monotone; on an int64 key, where
    # no sum is NaN, it is not sorted again.
    pos = 0
    for c, lo, hi in zip(stream.values, stream.edges[a], stream.edges[b]):
        np.add(c, stream.s[lo:hi], out=out[pos : pos + hi - lo])
        pos += hi - lo
    if stream.key is np.float64:
        out.sort(kind="stable")
    elif len(stream.values) > 1:
        out.view(np.int64).sort(kind="stable")
    return out


def _run_pieces(f: np.ndarray, s: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    # The edges, indexed [edge, run], that cut each run f[run] + s at the
    # pivots: row 0 is the run's start, then one row per pivot, then its
    # end. A cut is the first index whose value is >= the pivot, so an edge
    # counts the run's values below its pivot. One branch-free bisection
    # (Khuong and Morin, "Array layouts for comparison-based searching",
    # 2017) finds every run's cuts at once; it evaluates the sums at the
    # probed elements only, so no run is built.
    runs = f[:, None]
    base, n = np.zeros((f.size, pivots.size), dtype=np.intp), s.size
    while n > 1:
        half = n // 2
        probe = base + half
        base = np.where(runs + s[probe] < pivots, probe, base)
        n -= half
    cuts = base + (runs + s[base] < pivots)
    return np.pad(cuts, ((0, 0), (1, 1)), constant_values=(0, s.size)).T


def eigens(rho: DensityOperator) -> np.ndarray:
    """Eigenvalues of a density operator, descending, clipped to [0, 1].

    Reads the spectrum computed once at construction. Clipping absorbs at
    most 1e-10 of numerical slack; the clipped spectrum must still sum to 1
    within 1e-9.
    """
    values = rho.eigenvalues[::-1]
    if float(values.min()) < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {values.min():.3e} below tolerance")
    if float(values.max()) > 1.0 + 1e-10:
        raise ValueError(f"eigenvalue {values.max():.3e} above 1")
    clipped = np.clip(values, 0.0, 1.0)
    total = compensated_sum(clipped)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"eigenvalues sum to {total!r}, not 1")
    return clipped
