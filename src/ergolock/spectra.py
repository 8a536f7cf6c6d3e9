"""Classical spectra of states with diagonal Hamiltonians.

A state that is diagonal in a known energy basis is fully described by a
paired list of (probability, energy): a :class:`SpectralEnsemble`. Product
states of many such factors are kept factorized (:class:`FactorizedEnsemble`).
Passive energies need only the two joint multisets, each in ascending order,
and :func:`sorted_joint` builds those directly: it combines one factor at a
time into an already sorted array, so every step is a linear merge of sorted
runs rather than a full sort. :func:`passive_energies` builds the bath's
arrays once and streams each state's joint probabilities into the dot in
cache-sized chunks, so no joint probability array is held. A large fold, and
a large :func:`compensated_dot`, is cut into one part per CPU in the
process's affinity mask, with the same result bit for bit. :func:`expand`
keeps the lexicographic joint order for the dense oracle. Small non-diagonal
system states are carried as dense matrices (:class:`DensityOperator`).

Units: hbar = k_B = 1, natural logarithm throughout.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate, chain, groupby
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
PROB_FLOOR = -1e-12
PROB_SUM_ATOL = 1e-10
FACTOR_SUM_ATOL = 1e-9

# Flat (prob, energy) arrays are capped here; beyond it callers must stream.
DEFAULT_EXPANSION_CAP = 1 << 26

_SUM_BLOCK = 1 << 15

# A fold is written and sorted in value-range chunks of about this many
# elements, so a sort's merge buffer stays cache-sized.
_CHUNK = 1 << 17

# Below this many elements a fold or a dot runs as one part on the caller:
# on a 2-core Xeon guest, 2^18 is the smallest fold that two parts sort
# faster than one (crossover_fold_ms in BENCH_parallel_fold.json).
_PARALLEL_MIN = 1 << 18

# Parts per large fold or dot: the CPUs this process may run on.
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


def _check_cap(sizes: Sequence[int], cap: int) -> None:
    size = 1
    for n in sizes:
        size *= int(n)
        if size > cap:
            # Equal factor sizes are grouped into one power, so the exact
            # count of a 10^6-qubit bath costs one shift, not 10^6 big-int
            # products.
            counts = Counter(int(n) for n in sizes)
            raise SizeCapError(math.prod(n**k for n, k in counts.items()), cap)


def _parts(size: int) -> int:
    return 1 if size < _PARALLEL_MIN else _PARTS


def _share(count: int, k: int, parts: int) -> range:
    # Part k's contiguous share of count items.
    return range(count * k // parts, count * (k + 1) // parts)


def _run_parts(task: Callable[[int, int], Any], parts: int) -> list:
    """``[task(k, parts) for k in range(parts)]``, with part 0 on the caller
    and the others on one shared thread pool, created on first use.

    The parts run numpy calls that release the GIL, so they overlap. Pool
    workers never submit to the pool, so a caller that is itself a thread of
    some other pool (a ``cli`` sweep) cannot deadlock it. Every part has
    finished when this returns or raises.
    """
    global _executor
    if parts == 1:
        return [task(0, 1)]
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max_workers=_PARTS, thread_name_prefix="ergolock")
    futures = [_executor.submit(task, k, parts) for k in range(1, parts)]
    try:
        first = task(0, parts)
    finally:
        rest = [future.result() for future in futures]
    return [first, *rest]


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
    """Dot product accumulated with :func:`compensated_sum` (2^20+ term safe).

    Past one block, the products are formed one ``_SUM_BLOCK`` at a time in
    a block buffer and summed there, so no product array of the full size
    is allocated. The blocks are split into contiguous spans, one per part
    (see :func:`_run_parts`). Each block partial is the same pairwise sum
    of the same products that :func:`compensated_sum` takes, and the
    partials reach ``fsum`` in block order, so the value equals
    ``compensated_sum(np.multiply(a, b))`` bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size <= _SUM_BLOCK:
        return compensated_sum(np.multiply(a, b))
    a, b = a.reshape(-1), np.asarray(b, dtype=np.float64).reshape(-1)
    blocks = -(-a.size // _SUM_BLOCK)

    def span(k: int, parts: int) -> list:
        share = _share(blocks, k, parts)
        lo, hi = (min(a.size, i * _SUM_BLOCK) for i in (share.start, share.stop))
        return _block_sums([(a[lo:hi], b[lo:hi])], lo, a.size)

    return _fsum_blocks(_run_parts(span, _parts(a.size)), a.size)


def _block_sum(products: np.ndarray, n: int) -> float:
    # compensated_sum's partial for one block of an n-term sum.
    return math.fsum(products.tolist()) if n <= _SUM_BLOCK else float(products.sum())


def _block_sums(pairs: Iterable[tuple[np.ndarray, np.ndarray]], rank: int, n: int) -> list:
    # (block index, partial) for each block of an n-term dot whose products
    # a * b arrive in rank order from ``rank`` on, one (a, b) pair at a time.
    # They are formed in one block buffer, so a block that straddles two
    # pairs is completed there. A block cut by the first or the last rank
    # given keeps its products in place of a partial, for _fsum_blocks.
    buffer, start, items = np.empty(min(n, _SUM_BLOCK)), rank, []
    for a, b in pairs:
        i = 0
        while i < a.size:
            j = i + min(a.size - i, _SUM_BLOCK - rank % _SUM_BLOCK)
            np.multiply(a[i:j], b[i:j], out=buffer[rank - start : rank - start + j - i])
            rank, i = rank + j - i, j
            if rank % _SUM_BLOCK == 0 or rank == n:
                products = buffer[: rank - start]
                whole = start % _SUM_BLOCK == 0
                value = _block_sum(products, n) if whole else products.copy()
                items.append((start // _SUM_BLOCK, value))
                start = rank
    if rank > start:
        items.append((start // _SUM_BLOCK, buffer[: rank - start]))
    return items


def _fsum_blocks(parts: list[list], n: int) -> float:
    # fsum of the block partials of every part, given in rank order. The
    # pieces of a block cut by part ends are joined; ranks past the last
    # piece hold zero products (a zero eigenvalue's, never folded).
    partials = []
    for block, items in groupby(chain.from_iterable(parts), key=itemgetter(0)):
        values = [value for _, value in items]
        if not isinstance(values[0], float):
            zeros = min(_SUM_BLOCK, n - block * _SUM_BLOCK) - sum(v.size for v in values)
            values = [_block_sum(np.concatenate([*values, np.zeros(zeros)]), n)]
        partials.append(values[0])
    return math.fsum(partials)


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
    kept, so a state is diagonalised once, however often :func:`eigens`
    reads it.
    """

    entries: np.ndarray
    _eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128, copy=True)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("density operator must be a square matrix")
        if not np.all(np.isfinite(entries)):
            raise ValueError("density operator entries must be finite")
        herm_defect = float(np.max(np.abs(entries - entries.conj().T)))
        if herm_defect > HERMITIAN_ATOL:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        trace_defect = abs(complex(np.trace(entries)) - 1.0)
        if trace_defect > TRACE_ATOL:
            raise ValueError(f"trace differs from 1 by {trace_defect:.3e}")
        eigenvalues = np.linalg.eigvalsh(entries)
        min_eig = float(eigenvalues.min())
        if min_eig < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {min_eig:.3e})")
        object.__setattr__(self, "entries", _readonly(entries))
        object.__setattr__(self, "_eigenvalues", _readonly(eigenvalues))

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


@dataclass(frozen=True, eq=False)
class FactorizedEnsemble:
    """Tensor product of local ensembles, kept unexpanded.

    An empty factor list is the trivial scalar ensemble (one outcome with
    probability 1 and energy 0).
    """

    factors: tuple[SpectralEnsemble, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        for f in factors:
            if not isinstance(f, SpectralEnsemble):
                raise TypeError("factors must be SpectralEnsemble instances")
        # Expanded probability total equals the product of per-factor totals.
        total = 1.0
        for f in factors:
            total *= compensated_sum(f.probs)
        if abs(total - 1.0) > FACTOR_SUM_ATOL:
            raise ValueError(f"expanded probabilities would sum to {total!r}, not 1")
        object.__setattr__(self, "factors", factors)

    @property
    def size(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.size
        return n


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


def _as_factors(value: SpectralEnsemble | FactorizedEnsemble) -> tuple[SpectralEnsemble, ...]:
    if isinstance(value, FactorizedEnsemble):
        return value.factors
    if isinstance(value, SpectralEnsemble):
        return (value,)
    raise TypeError(f"expected an ensemble, got {type(value).__name__}")


def tensor(
    a: SpectralEnsemble | FactorizedEnsemble,
    b: SpectralEnsemble | FactorizedEnsemble,
) -> FactorizedEnsemble:
    """Tensor product as factor-list concatenation; no expansion happens here."""
    return FactorizedEnsemble(_as_factors(a) + _as_factors(b))


def sorted_joint(
    seed: np.ndarray,
    factors: Sequence[np.ndarray],
    combine: np.ufunc,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> np.ndarray:
    """Ascending array of ``combine`` over every choice of one value from
    the 1-D ``seed`` and one from each 1-D float64 factor: ``np.multiply``
    gives the joint probabilities, ``np.add`` the joint energies.

    The seed is sorted, then each factor is folded into the sorted array
    ``s``: for each factor value ``c`` the run ``combine(c, s)`` is sorted,
    because ``x -> x + c`` is monotone in IEEE-754 and so is ``x -> x * c``
    (non-increasing for ``c < 0``), and a stable sort (timsort) merges a few
    such runs in linear time. IEEE ``*`` and ``+`` are commutative, so the
    values form the same multiset as the lexicographic expansion that
    :func:`expand` builds with the seed as its first factor, and the result
    equals ``np.sort`` of that array element for element (only the order of
    a -0.0 and a 0.0, which compare equal, may differ). A result larger than
    ``cap`` raises :class:`SizeCapError` before anything is allocated.

    A fold of more than ``_CHUNK`` elements is cut into value-range chunks
    of about that size, after Odeh et al., "Merge Path", IPDPS Workshops
    2012. Pivots come from a strided sample; each run is cut at the pivots
    by bisection, and each chunk's pieces of the runs are written into its
    own slice of the output, which is sorted there, so a merge buffer is at
    most about half a chunk. A fold of ``_PARALLEL_MIN`` elements or more
    gives each part (see :func:`_run_parts`) a contiguous run of chunks.
    All copies of a value (a -0.0 and a 0.0 included) fall in one chunk, in
    the order one whole-array stable sort would meet them, so the result is
    the same array bit for bit, however it is cut.
    """
    _check_cap([len(seed), *map(len, factors)], cap)
    s = np.sort(np.asarray(seed, dtype=np.float64))
    for f in factors:
        s = _fold(s, np.asarray(f, dtype=np.float64), combine)
    return s


def passive_energies(
    eigenvalues: Sequence[np.ndarray],
    levels: np.ndarray,
    bath: FactorizedEnsemble,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> list[float]:
    """Passive energy of each state, given by its non-negative eigenvalues,
    with the bath, under the system ``levels`` plus the bath's energies.

    The bath's sorted energy and probability arrays are built once. The
    joint energies are one fold of the levels into the first; they are held
    whole. Each state's joint probabilities, one fold of its eigenvalues
    into the second, are streamed into the dot in chunks
    (:func:`_passive_dot`) and never held. A product is
    ``lambda * (b_1 * ... * b_N)``, a joint energy ``h + (e_1 + ... + e_N)``.
    Every state's full joint size is checked against ``cap`` before
    anything is built.
    """
    _check_cap([max(map(len, [levels, *eigenvalues])), *(f.size for f in bath.factors)], cap)
    energies = _fold(
        sorted_joint(np.zeros(1), [f.energies for f in bath.factors], np.add, cap),
        np.asarray(levels, dtype=np.float64),
        np.add,
    )
    probs = sorted_joint(np.ones(1), [f.probs for f in bath.factors], np.multiply, cap)
    return [_passive_dot(probs, np.asarray(v, dtype=np.float64), energies) for v in eigenvalues]


def _passive_dot(t: np.ndarray, values: np.ndarray, energies: np.ndarray) -> float:
    # compensated_dot(_fold(t, values, np.multiply)[::-1], energies) bit for
    # bit, for a non-negative ascending t and non-negative values, without
    # building the fold. Each part of _run_parts takes a contiguous run of
    # chunks, highest values first; each chunk is written and sorted in one
    # reused buffer and paired, reversed, with its rank slice of energies.
    # Zero values are not folded: their products, all zero, take the last
    # ranks, which _fsum_blocks keeps in the block layout.
    folded = values[values != 0]
    m = folded.size * t.size
    parts = _parts(m)
    pieces, offsets = _chunks(t, folded, np.multiply, parts)

    def part(k: int, parts: int) -> list:
        chunks = _share(len(pieces), k, parts)[::-1]
        bounds = [(offsets[c], offsets[c + 1]) for c in chunks]
        buffer = np.empty(max(hi - lo for lo, hi in bounds))
        pairs = (
            (
                _write_chunk(np.multiply, t, pieces[c], buffer[: hi - lo])[::-1],
                energies[m - hi : m - lo],
            )
            for c, (lo, hi) in zip(chunks, bounds)
        )
        return _block_sums(pairs, m - bounds[0][1], energies.size)

    return _fsum_blocks(_run_parts(part, parts)[::-1], energies.size)


def _fold(s: np.ndarray, f: np.ndarray, combine: np.ufunc) -> np.ndarray:
    # Sorted multiset of combine(c, x) over c in f and x in the sorted s,
    # each chunk sorted in its own slice of the output.
    out = np.empty(f.size * s.size)
    parts = _parts(out.size)
    pieces, offsets = _chunks(s, f, combine, parts)

    def part(k: int, parts: int) -> None:
        for c in _share(len(pieces), k, parts):
            _write_chunk(combine, s, pieces[c], out[offsets[c] : offsets[c + 1]])

    _run_parts(part, parts)
    return out


def _chunks(
    s: np.ndarray, f: np.ndarray, combine: np.ufunc, parts: int
) -> tuple[list[list[tuple[float, int, int]]], list[int]]:
    # Cuts the fold of f into the sorted s into value-range chunks of about
    # _CHUNK elements, at least one per part: pieces[c] lists the (value, lo,
    # hi) run pieces combine(value, s[lo:hi]) of chunk c in run order, and
    # offsets[c] is where chunk c starts in the sorted fold. All copies of a
    # value fall in one chunk, so a tie group larger than a chunk is kept
    # whole.
    size = f.size * s.size
    count = max(parts, -(-size // _CHUNK))
    if count == 1:
        return [[(c, 0, s.size) for c in f.tolist()]], [0, size]
    # About 16 sample values per chunk, and at least 2^11.
    stride = max(1, size // max(16 * count, 1 << 11))
    sample = np.sort(combine.outer(f, s[::stride]), axis=None)
    pivots = sample[[sample.size * k // count for k in range(1, count)]]
    lo, hi = _run_pieces(combine, f, s, pivots)
    values = f.tolist()
    pieces = [
        [(c, a, b) for c, a, b in zip(values, los, his) if b > a]
        for los, his in zip(lo.tolist(), hi.tolist())
    ]
    return pieces, list(accumulate([0, *(hi - lo).sum(axis=1).tolist()]))


def _write_chunk(
    combine: np.ufunc, s: np.ndarray, pieces: list[tuple[float, int, int]], out: np.ndarray
) -> np.ndarray:
    # Writes a chunk's run pieces into out in run order and sorts it stably,
    # so ties keep the order one whole-array stable sort would give them.
    pos = 0
    for c, lo, hi in pieces:
        combine(c, s[lo:hi], out=out[pos : pos + hi - lo])
        pos += hi - lo
    out.sort(kind="stable")
    return out


def _run_pieces(
    combine: np.ufunc, f: np.ndarray, s: np.ndarray, pivots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # (lo, hi), each indexed [part, run]: the slice of s whose values in the
    # run combine(f[run], s) fall below the first pivot, between each two, or
    # from the last one up. A cut is the first index whose value is >= the
    # pivot in an ascending run, < the pivot in a descending one. One
    # branch-free bisection (Khuong and Morin, "Array layouts for
    # comparison-based searching", 2017) finds every run's cuts at once; it
    # evaluates combine at the probed elements only, so no run is built.
    runs = f[:, None]
    ascending = combine(runs, s[0]) <= combine(runs, s[-1])

    def before_cut(i: np.ndarray) -> np.ndarray:
        return (combine(runs, s[i]) < pivots) == ascending

    base, n = np.zeros((f.size, pivots.size), dtype=np.intp), s.size
    while n > 1:
        half = n // 2
        probe = base + half
        base = np.where(before_cut(probe), probe, base)
        n -= half
    cuts = base + before_cut(base)
    # An ascending run's pieces run from 0 up through the cuts, a descending
    # run's from s.size down, so each piece lies between two adjacent edges.
    edges = np.hstack([np.where(ascending, 0, s.size), cuts, np.where(ascending, s.size, 0)])
    first, last = edges[:, :-1], edges[:, 1:]
    return np.minimum(first, last).T, np.maximum(first, last).T


def expand(
    factorized: FactorizedEnsemble, cap: int = DEFAULT_EXPANSION_CAP
) -> SpectralEnsemble:
    """Expand a factorized ensemble into one flat SpectralEnsemble.

    Output order is lexicographic over factor indices (first factor slowest),
    matching the Kronecker-product basis convention of the dense oracle, so
    outputs are byte-reproducible: probabilities multiply and energies add
    over all index combinations. Zero-probability entries are kept. A result
    larger than ``cap`` raises :class:`SizeCapError` instead of allocating.
    """
    _check_cap([f.size for f in factorized.factors], cap)
    probs, energies = np.ones(1), np.zeros(1)
    for f in factorized.factors:
        probs = np.multiply.outer(probs, f.probs).ravel()
        energies = np.add.outer(energies, f.energies).ravel()
    return SpectralEnsemble(probs, energies)


def eigens(rho: DensityOperator) -> np.ndarray:
    """Eigenvalues of a density operator, descending, clipped to [0, 1].

    Reads the spectrum computed once at construction. Clipping absorbs at
    most 1e-10 of numerical slack; the clipped spectrum must still sum to 1
    within 1e-9.
    """
    values = rho._eigenvalues[::-1]
    if float(values.min()) < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {values.min():.3e} below tolerance")
    if float(values.max()) > 1.0 + 1e-10:
        raise ValueError(f"eigenvalue {values.max():.3e} above 1")
    clipped = np.clip(values, 0.0, 1.0)
    total = compensated_sum(clipped)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"eigenvalues sum to {total!r}, not 1")
    return clipped
