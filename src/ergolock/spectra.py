"""Classical spectra of states with diagonal Hamiltonians.

A state that is diagonal in a known energy basis is fully described by a
paired list of (probability, energy): a :class:`SpectralEnsemble`.
Passive energies need only the two joint multisets, each in ascending order.
In a thermal bath a configuration's probability depends on its energy alone,
so :func:`passive_energies` builds the bath's sorted energy levels once,
folding in three qubit gaps at a time as a merge of eight sorted runs. It
keys both joint streams by that one array and walks them in rank-aligned,
cache-sized windows: no joint-sized array is held past one sum block, and
a fold or walk within one is written whole and sorted in one call. One
planner (``_stream``) cuts a larger fold and walk alike at exact pivot
ranks. Each piece is a merge of sorted runs, done on the sums' int64 bit
patterns where none can be negative, -0.0 or NaN (by timsort for two runs,
numpy's default sort for more, and not at all for one), and by a stable
float sort elsewhere.
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

# Row i of _SUBSETS[k] marks the gaps of the i-th subset of a group of k,
# the group's first gap in the highest bit.
_SUBSETS = [np.arange(1 << k)[:, None] >> np.arange(k)[::-1] & 1 == 1 for k in range(4)]

# A fold is written and sorted in value-range chunks of about this many
# elements, so a sort's merge buffer stays cache-sized.
_CHUNK = 1 << 17

# Below this many elements a fold, or this many products (ranks times
# states) a walk of more than _SUM_BLOCK ranks, runs as one part on the
# caller: on a 2-core Xeon guest, 2^18 is the smallest fold that two parts
# sort faster than one (crossover_fold_ms in BENCH_parallel_fold.json).
_PARALLEL_MIN = 1 << 18

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
    """Raised when an expansion of ``dim << qubits`` elements would exceed
    the configured element cap. ``size`` is built only when read."""

    def __init__(self, dim: int, qubits: int, cap: int):
        count = _count_text(dim, qubits)
        super().__init__(f"expansion of {count} elements exceeds the cap of {cap}")
        self.dim, self.qubits, self.cap = dim, qubits, cap

    @property
    def size(self) -> int:
        return self.dim << self.qubits


def _count_text(dim: int, qubits: int) -> str:
    # Python refuses to format an int of more than 4,300 decimal digits, and
    # a bath of 10^5 qubits has a joint size of 30,103 digits.
    log = math.log10(dim) + qubits * math.log10(2)
    if log < 19 and (n := dim << qubits) < 10**18:
        return str(n)
    return f"about {10 ** (log - int(log)):.3g}e{int(log)}"


def _check_cap(dim: int, qubits: int, cap: int | None = None) -> None:
    """Raises :class:`SizeCapError` if ``dim << qubits`` elements exceed
    ``cap``, by default ``DEFAULT_EXPANSION_CAP`` as read at the call,
    without building the size past the cap's bit length."""
    cap = cap or DEFAULT_EXPANSION_CAP
    if dim and (qubits > cap.bit_length() or dim << qubits > cap):
        raise SizeCapError(dim, qubits, cap)


def _parts(size: int) -> int:
    return 1 if size < _PARALLEL_MIN else _PARTS


def _split(costs: list, parts: int) -> list:
    # Bounds of parts contiguous runs of items: part k takes items bounds[k]
    # to bounds[k + 1]. A bisection finds the least cap on a part's cost that
    # greedy filling meets, the least any split allows, and the parts are
    # filled greedily under it.
    sums, n = list(accumulate(costs, initial=0)), len(costs)

    def fill(cap: float) -> list:
        # Each part takes items from the end of the last while it stays
        # within cap; a part costs the difference of its prefix sums, as it
        # is compared here. The last bound never decreases as cap grows.
        bounds = [0]
        for _ in range(parts):
            base = sums[bounds[-1]]
            bounds.append(bisect_right(sums, cap, bounds[-1], key=lambda total: total - base) - 1)
        return bounds

    low, cap = 0.0, sums[-1]
    while low < (guess := (low + cap) / 2) < cap:
        low, cap = (low, guess) if fill(guess)[-1] == n else (guess, cap)
    return fill(cap)


def _run_parts(task: Callable[[int, int], Any], costs: list, size: int) -> list:
    """``task(first, stop)`` of each part, in order: the items of these
    ``costs`` in ``min(_parts(size), len(costs))`` contiguous runs whose
    largest costs the least any split allows (:func:`_split`), or in one.
    Part 0 runs on the caller, the others on one shared thread pool.

    The parts run numpy calls that release the GIL, so they overlap. Pool
    workers never submit to the pool, so a caller that is itself a thread of
    some other pool (a ``cli`` sweep) cannot deadlock it. Every part has
    finished when this returns or raises, and an exception of part 0 is
    raised in preference to one of the other parts'. numpy's floating-point
    error state is per thread, so the pool's parts run under the caller's.
    """
    global _executor
    parts = min(_parts(size), len(costs))
    if parts <= 1:
        return [task(0, len(costs))]
    bounds = _split(costs, parts)
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max_workers=_PARTS, thread_name_prefix="ergolock")
    errors = np.geterr()

    def pooled(first: int, stop: int) -> Any:
        with np.errstate(**errors):
            return task(first, stop)

    futures = [_executor.submit(pooled, *run) for run in zip(bounds[1:-1], bounds[2:])]
    try:
        first = task(bounds[0], bounds[1])
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
    blocks = range(0, arr.size, _SUM_BLOCK)
    return math.fsum(_partial(arr[i : i + _SUM_BLOCK], arr.size) for i in blocks)


def _partial(terms: np.ndarray, n: int) -> float:
    # One block's partial of an n-term compensated sum: exact where the sum
    # is one block, pairwise otherwise.
    return math.fsum(terms.tolist()) if n <= _SUM_BLOCK else float(terms.sum())


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
        partials.append(_partial(buffer[: end - i], n))
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
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
            raise ValueError("density operator must be a non-empty square matrix")
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
    # Ascending sums of every subset of the gaps, folded three gaps at a time:
    # a group's 2^3 runs (fewer for a first group of one or two) add each of
    # its subsets to the sorted sums s, a gap or +0.0 per addend in gap order,
    # so every sum is added as ((0.0 + g_1) + ...) + g_N, or +0.0 in place of
    # an absent gap, as a chain of one-gap folds adds it. IEEE + is
    # commutative, so this equals np.sort of the bath's expanded energies bit
    # for bit. The last fold lands in the result, the one before it in a
    # scratch buffer of an eighth of the size, and so on back, so the chain
    # allocates two arrays.
    n = len(gaps)
    bounds = [0, *range(n % 3 or 3, n + 1, 3)]
    s, out, scratch = np.zeros(1), np.empty(1 << n), np.empty((1 << n) >> 3)
    if len(bounds) % 2:
        out, scratch = scratch, out
    for a, b in zip(bounds, bounds[1:]):
        rows = np.where(_SUBSETS[b - a], gaps[a:b], 0.0)
        s = _fold(s, rows, out[: rows.shape[0] * s.size])
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
    energy array is built once. A walk of at most ``_SUM_BLOCK`` joint ranks,
    as every one ``verify`` makes, sorts the joint energies and each state's
    keys whole (:func:`_sorted_sums`) and sums its one block. A larger walk
    builds no array of the joint size: the joint energies (the levels folded
    into the bath's array) and each state's keys (its nonzero eigenvalues'
    offsets folded into it) are read in rank windows of about ``_CHUNK``
    ranks that start on ``_SUM_BLOCK`` multiples. One cell is one state's dot
    over one window's ranks: its sorted keys (:func:`_window`) become
    probabilities ``exp(key * -1/T)`` block by block, and the block partials
    are taken from their products with the window's sorted energies. Each
    part of :func:`_run_parts` takes a contiguous run of cells in
    window-major order, of at most an equal share of their estimated cost
    (:func:`_cell_costs`) plus one cell's, and sorts a window's energies
    once, at its first cell of that window with products. Ranks past a
    state's nonzero products (a zero eigenvalue's) hold ``+0.0`` products
    in their last block, and later blocks are left out. On either path the
    value equals ``compensated_dot`` over the whole sorted arrays, the keys
    mapped the same way, bit for bit, however the cells are shared out: each
    state's partials (:func:`_block_sums`) are summed with ``math.fsum``.
    The planned walk merges the keys, and energies of non-negative levels,
    as int64 bit patterns. Every state's full joint size is checked against
    the cap before anything is built.
    """
    _check_cap(max(map(len, [levels, *eigenvalues])), len(gaps))
    # Every energy and T are scaled by the exact power of two that keeps T
    # within 2^+-900, so a key's T (ln Z - ln lambda) is finite and normal.
    exponent = math.frexp(temperature)[1]
    scale = math.ldexp(1.0, exponent - min(max(exponent, -900), 900))
    gaps = np.asarray(gaps, dtype=np.float64) / scale
    levels = np.asarray(levels, dtype=np.float64) / scale
    temperature /= scale
    bath_energies = _bath_energies(gaps)
    log_z = _log_partition(gaps, temperature)
    offsets = []
    for values in eigenvalues:
        values = np.asarray(values, dtype=np.float64)
        offsets.append(temperature * (log_z - np.log(values[values != 0])))
    n = levels.size * bath_energies.size
    if n <= _SUM_BLOCK:
        e, block, passive = _sorted_sums(bath_energies, levels, np.empty(n)), np.empty(n), []
        for f in offsets:
            keys = _sorted_sums(bath_energies, f, np.empty(f.size * bath_energies.size))
            passive.append(scale * math.fsum(_block_sums(keys, e, -1.0 / temperature, n, n, block)))
        return passive
    width = _SUM_BLOCK * max(1, _CHUNK // _SUM_BLOCK)
    energies = _stream(bath_energies, levels, width)
    states = [_stream(bath_energies, f, width) for f in offsets]

    def part(first: int, stop: int) -> list:
        sums = [[] for _ in states]
        e_buffer = np.empty(energies.largest)
        k_buffer = np.empty(max((state.largest for state in states), default=0))
        block = np.empty(min(n, _SUM_BLOCK))
        sorted_window = None
        for cell in range(first, stop):
            window, i = divmod(cell, len(states))
            lo, hi = window * width, min(n, (window + 1) * width)
            m = states[i].ranks[-1]
            if m > lo:
                if sorted_window != window:
                    e, sorted_window = _window(energies, lo, hi, e_buffer), window
                keys = _window(states[i], lo, min(hi, m), k_buffer)
                sums[i] += _block_sums(keys, e, -1.0 / temperature, hi - lo, n, block)
        return sums

    parts = _run_parts(part, _cell_costs(energies, states, width, n), n * len(states))
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
    # Sorted multiset of the runs' sums over the sorted s, written into out:
    # ((a + x) + b) + c for each row (a, b, c) of f, or a + x for each value
    # a of a one-dimensional f (see _add_runs). Each run is sorted, because
    # x -> x + c is monotone in IEEE-754, and a sort merges them (see
    # _write_chunk). The fold is planned as the walk is, after Odeh et al.,
    # "Merge Path", IPDPS Workshops 2012: pivots come from a strided sample,
    # and one bisection finds each pivot's exact rank in every run. Every
    # 16th pivot (or the last, for a one-window stream) bounds a chunk of
    # about _CHUNK values, at least one per part where the
    # values allow, and each chunk is written and sorted in its own slice of
    # out, so a sort's buffer is at most about half a chunk. _run_parts
    # shares the chunks out, one unit of cost each. All copies of a value (a
    # -0.0 and a 0.0 included) fall in one chunk, in the order one
    # whole-array stable sort would meet them, so the result is the same
    # array bit for bit, however it is cut, and whether it is sorted as
    # floats or, where _stream finds no value below +0.0, as int64 bit
    # patterns. A fold of at most one sum block that the plan would write as
    # one chunk on one part is _sorted_sums instead.
    if out.size <= min(_SUM_BLOCK, _CHUNK) and _parts(out.size) == 1:
        return _sorted_sums(s, f, out)
    stream = _stream(s, f, min(_CHUNK, -(-out.size // _parts(out.size))))
    ranks, last = stream.ranks, len(stream.ranks) - 1

    def part(first: int, stop: int) -> None:
        for c in range(first, stop):
            a, b = 16 * c, min(16 * c + 16, last)
            _write_chunk(stream, a, b, out[ranks[a] : ranks[b]])

    _run_parts(part, [1] * -(-last // 16), out.size)
    return out


def _add_runs(f: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # Each run's sums over x, indexed [run, x's last axis]: for each row
    # (a, b, c) of f, ((a + x) + b) + c, added left to right as a chain of
    # one-value folds adds them, and a + x for each value a of a
    # one-dimensional f.
    f = f.reshape(len(f), -1)
    out = np.add(f[:, :1], x, out=out)
    for j in range(1, f.shape[1]):
        np.add(out, f[:, j : j + 1], out=out)
    return out


def _sorted_sums(s: np.ndarray, f: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The runs' sorted sums over s, written whole into out and stably sorted
    # as floats: the bits of one planned chunk. The runs are written in the
    # plan's order, so the sort meets ties as a chunk's does, and where the
    # plan sorts int64 bit patterns (no sum below +0.0 and no NaN), two sums
    # compare equal only when their bits are equal.
    _add_runs(f, s, out.reshape(len(f), s.size))
    out.sort(kind="stable")
    return out


class _Stream(NamedTuple):
    # The runs' sums over the sorted s, planned for reads at any ranks. Each
    # run is the tuple of addends that _write_chunk applies in turn. Row j
    # of edges holds each run's edge at pivot j (see _run_pieces), and
    # ranks[j] the count of sums below that pivot; the first and last
    # pivots stand for -inf and +inf. A window of width ranks sorts at most
    # largest values. A piece is sorted as key: int64 where no sum can be
    # negative, -0.0 or NaN, float64 elsewhere.
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
    # Where every addend and s[0] is +0.0 or above and s holds no NaN, each
    # sum is too (+0.0 + -0.0 is +0.0), and such doubles sort as their bit
    # patterns do, ties included: an int64 sort skips the NaN-aware float
    # compare and gives the same bits.
    f = f.reshape(len(f), -1)
    size, values = len(f) * s.size, list(map(tuple, f.tolist()))
    addends = [float(s[0]), *chain.from_iterable(values)]
    clear = all(x >= 0.0 and math.copysign(1.0, x) > 0.0 for x in addends)
    key = np.int64 if clear and not math.isnan(s[-1]) else np.float64
    if size <= width:
        return _Stream(s, values, [[0] * len(f), [s.size] * len(f)], [0, size], size, key)
    count = 16 * -(-size // width)
    stride = max(1, size // max(16 * count, 1 << 11))
    sample = np.sort(_add_runs(f, s[::stride]), axis=None)
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
    # and sorts it as the stream's key. One run's piece, its addends added
    # in turn to s[lo:hi], is sorted already, as x -> x + c is monotone; on
    # an int64 key, where no sum is NaN, it is not sorted again. Float
    # pieces are sorted stably, so ties keep the order one whole-array
    # stable sort would give them, and so are two runs, which timsort merges
    # in linear time. Equal int64 keys have equal bits, so a piece of more
    # runs takes numpy's default sort (introsort, vectorised where the CPU
    # allows): a many-level walk is level at three runs and faster from
    # five (many_level_walk_ms in BENCH_grouped_bath.json).
    pos = 0
    for run, lo, hi in zip(stream.values, stream.edges[a], stream.edges[b]):
        piece = out[pos : pos + hi - lo]
        np.add(run[0], stream.s[lo:hi], out=piece)
        for c in run[1:]:
            np.add(piece, c, out=piece)
        pos += hi - lo
    keyed, runs = stream.key is np.int64, len(stream.values)
    if not keyed or runs > 1:
        out.view(stream.key).sort(kind=None if keyed and runs > 2 else "stable")
    return out


def _run_pieces(f: np.ndarray, s: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    # The edges, indexed [edge, run], that cut each run of f over s (see
    # _add_runs) at the pivots: row 0 is the run's start, then one row per
    # pivot, then its end. A cut is the first index whose value is >= the
    # pivot, so an edge counts the run's values below its pivot. One
    # branch-free bisection (Khuong and Morin, "Array layouts for
    # comparison-based searching", 2017) finds every run's cuts at once; it
    # evaluates the sums at the probed elements only, so no run is built.
    base, n = np.zeros((len(f), pivots.size), dtype=np.intp), s.size
    while n > 1:
        half = n // 2
        probe = base + half
        base = np.where(_add_runs(f, s[probe]) < pivots, probe, base)
        n -= half
    cuts = base + (_add_runs(f, s[base]) < pivots)
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
