"""Classical spectra of states with diagonal Hamiltonians.

A state that is diagonal in a known energy basis is fully described by a
paired list of (probability, energy): a :class:`SpectralEnsemble`. Product
states of many such factors are kept factorized (:class:`FactorizedEnsemble`).
Passive energies need only the two joint multisets, each in ascending order,
and :func:`sorted_joint` builds those directly: it combines one factor at a
time into an already sorted array, so every step is a linear merge of sorted
runs rather than a full sort. :func:`sorted_joints` builds the factors'
array once and folds each of several seeds into it. A large fold, and a large
:func:`compensated_dot`, is cut into one part per CPU in the process's
affinity mask, with the same result bit for bit. :func:`expand` keeps the
lexicographic joint order for the dense oracle. Small non-diagonal system
states are carried as dense matrices (:class:`DensityOperator`).

Units: hbar = k_B = 1, natural logarithm throughout.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Iterator, Sequence

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
    starts = range(0, a.size, _SUM_BLOCK)

    def span(k: int, parts: int) -> list[float]:
        buffer = np.empty(_SUM_BLOCK)
        partials = []
        for i in starts[k * len(starts) // parts : (k + 1) * len(starts) // parts]:
            j = min(i + _SUM_BLOCK, a.size)
            partials.append(float(np.multiply(a[i:j], b[i:j], out=buffer[: j - i]).sum()))
        return partials

    spans = _run_parts(span, _parts(a.size))
    return float(math.fsum(p for partials in spans for p in partials))


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

    A fold of ``_PARALLEL_MIN`` elements or more is cut into one value range
    per part (see :func:`_run_parts`), after Odeh et al., "Merge Path",
    IPDPS Workshops 2012. Pivots come from a strided sample; each run is
    cut at the pivots by bisection, and each part writes its pieces of the
    runs into its own slice of the output and sorts that slice. All copies
    of a value (a -0.0 and a 0.0 included) fall in one range, in the order
    one whole-array stable sort would meet them, so the result is the same
    array bit for bit, whatever the number of parts.
    """
    _check_cap([len(seed), *map(len, factors)], cap)
    s = np.sort(np.asarray(seed, dtype=np.float64))
    for f in factors:
        s = _fold(s, np.asarray(f, dtype=np.float64), combine)
    return s


def sorted_joints(
    seeds: Sequence[np.ndarray],
    factors: Sequence[np.ndarray],
    combine: np.ufunc,
    cap: int = DEFAULT_EXPANSION_CAP,
) -> Iterator[np.ndarray]:
    """The ascending joint array of each seed with the same factors, in seed
    order, as :func:`sorted_joint` defines it.

    The factors alone are combined once, into a sorted array ``t`` that
    starts from ``combine``'s identity, and each result is one fold of its
    seed's ``d`` values into ``t``. That fold merges ``d`` runs, about
    ``n * log2(d)`` work for ``n`` elements, where a chain of
    :func:`sorted_joint` costs about ``2n`` per seed: the shared ``t`` pays
    for small ``d`` or many seeds, and a many-level seed costs more (a
    400-level seed on 10 qubits about 1.4 times as much). The values form
    the multiset of ``combine(c, t_j)``, so a product is
    ``c * (b_1 * ... * b_N)`` and not ``((c * b_1) * ...) * b_N``: the last
    ulp can differ from :func:`sorted_joint`. Every seed's full joint size
    is checked against ``cap`` before anything is built. The results are
    built one per step of the returned iterator, so a caller that drops
    each before taking the next holds one at a time.
    """
    _check_cap([max(map(len, seeds), default=1), *map(len, factors)], cap)
    t = sorted_joint(np.array([combine.identity], dtype=np.float64), factors, combine, cap)
    return (_fold(t, np.asarray(seed, dtype=np.float64), combine) for seed in seeds)


def _fold(s: np.ndarray, f: np.ndarray, combine: np.ufunc) -> np.ndarray:
    # Sorted multiset of combine(c, x) over c in f and x in the sorted s.
    # pieces[k][r] is the (lo, hi) slice of s whose run r part k holds, and
    # offsets[k] is where part k starts in out.
    out = np.empty(f.size * s.size)
    parts = _parts(out.size)
    if parts == 1:
        pieces, offsets = [[(0, s.size)] * f.size], [0, out.size]
    else:
        # About 2^11 sample values, however many runs there are.
        sample = np.sort(combine.outer(f, s[:: max(1, out.size >> 11)]), axis=None)
        pivots = sample[[sample.size * k // parts for k in range(1, parts)]]
        lo, hi = _run_pieces(combine, f, s, pivots)
        pieces = [list(zip(*bounds)) for bounds in zip(lo.tolist(), hi.tolist())]
        offsets = list(accumulate([0, *(hi - lo).sum(axis=1).tolist()]))
    values = f.tolist()

    def part(k: int, parts: int) -> None:
        pos = offsets[k]
        for c, (lo, hi) in zip(values, pieces[k]):
            combine(c, s[lo:hi], out=out[pos : pos + hi - lo])
            pos += hi - lo
        out[offsets[k] : offsets[k + 1]].sort(kind="stable")

    _run_parts(part, parts)
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
