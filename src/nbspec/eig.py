"""Dense eigensolvers, the scalar quadratic-root kernel, and spectrum matching."""

from __future__ import annotations

import cmath
import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, TextIO, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "Spectrum",
    "EigenSolveError",
    "NotSymmetricError",
    "eigs_symmetric",
    "eigs_general",
    "quadratic_roots",
    "match_spectra",
    "single_blas_thread",
]


class EigenSolveError(RuntimeError):
    """Eigensolver failed to converge."""


class NotSymmetricError(ValueError):
    """Matrix handed to the symmetric solver is not symmetric."""


@dataclass(frozen=True)
class Spectrum:
    """A multiset of eigenvalues.

    ``values`` is a complex array; for a symmetric source all entries are
    real.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        self.values.setflags(write=False)

    def __len__(self):
        return self.values.size

    def write_csv(self, fh: TextIO):
        fh.write("re,im\n")
        for z in sorted(self.values, key=lambda z: (z.real, z.imag)):
            fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def eigs_symmetric(m: np.ndarray, with_vectors: bool = False):
    """Spectrum of a symmetric real matrix, values ascending.

    Symmetry is enforced to 1e-12 relative.  With ``with_vectors`` returns
    (Spectrum, eigenvector matrix) with columns matching the sorted values.
    """
    m = _check_square(m)
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > 1e-12 * scale:
        raise NotSymmetricError("matrix is not symmetric within 1e-12 relative")
    if with_vectors:
        w, v = np.linalg.eigh(m)
        return Spectrum(w), v
    return Spectrum(np.linalg.eigh(m)[0])


def eigs_general(m: np.ndarray) -> Spectrum:
    """Full complex spectrum of a general real square matrix.

    Backed by the LAPACK dense path (balancing, Hessenberg reduction,
    implicitly shifted QR).  A trace-consistency check guards against silent
    breakage: sum of eigenvalues must match the trace to 1e-6 relative.
    """
    m = _check_square(m)
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # QR iteration cap exceeded
        raise EigenSolveError(f"eigensolver did not converge: {exc}") from exc
    tr = np.trace(m)
    ref = max(np.abs(tr), np.abs(w).sum(), 1.0)
    if abs(w.sum() - tr) > 1e-6 * ref:
        raise EigenSolveError(
            f"trace consistency violated: sum(eigs)={w.sum()!r} trace={tr!r}"
        )
    return Spectrum(w)


@functools.lru_cache(maxsize=None)
def _openblas_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS mapped into the process.

    numpy and scipy each bundle their own copy; both are loaded once this
    module is imported.  Empty where ``/proc/self/maps`` does not exist or no
    loaded OpenBLAS exports the symbol (OpenBLAS < 0.3.27, another BLAS).
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    # a library is mapped several times (text, data, ...); keep the first
    paths = dict.fromkeys(
        f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()
    )
    setters = []
    for path in paths:
        try:
            fn = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        fn.argtypes = [ctypes.c_int]
        fn.restype = ctypes.c_int
        setters.append(fn)
    return tuple(setters)


_blas_threads_lock = threading.RLock()


@contextmanager
def single_blas_thread() -> Iterator[bool]:
    """Run the block with every loaded OpenBLAS limited to one thread.

    Yields whether any library could be limited.  The thread count is
    process-wide, not per calling thread: despite its name,
    ``openblas_set_num_threads_local`` sets the global count and returns the
    previous one.  That count is restored on exit, and the lock keeps
    overlapping blocks from restoring each other's setting.
    """
    with _blas_threads_lock:
        setters = _openblas_setters()
        previous = [set_threads(1) for set_threads in setters]
        try:
            yield bool(setters)
        finally:
            for set_threads, count in zip(setters, previous):
                set_threads(count)


def quadratic_roots(a, x) -> Tuple[complex, complex]:
    """The two roots of z^2 - a z - x = 0.

    Real discriminant a^2 + 4x >= 0: roots are returned descending by real
    part, computed with the cancellation-free variant (larger-magnitude root
    from the formula, the other from the product identity root1*root2 = -x).
    Negative discriminant: the conjugate pair, imaginary-positive first.
    """
    a = complex(a)
    x = complex(x)
    disc = a * a + 4.0 * x
    if disc.imag == 0.0 and a.imag == 0.0 and x.imag == 0.0:
        d = disc.real
        if d >= 0.0:
            s = np.sqrt(d)
            if a.real >= 0.0:
                big = (a.real + s) / 2.0
            else:
                big = (a.real - s) / 2.0
            if big == 0.0:  # a = x = 0
                return (0j, 0j)
            other = -x.real / big
            r1, r2 = (big, other) if big >= other else (other, big)
            return (complex(r1), complex(r2))
        s = np.sqrt(-d) / 2.0
        return (complex(a.real / 2.0, s), complex(a.real / 2.0, -s))
    # complex coefficients: direct formula with sign-stable branch
    sq = cmath.sqrt(disc)
    if (a.conjugate() * sq).real < 0:
        sq = -sq
    big = (a + sq) / 2.0
    if big == 0:
        return (0j, 0j)
    other = -x / big
    if (big.imag, big.real) >= (other.imag, other.real):
        return (big, other)
    return (other, big)


def _greedy_match(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances of a greedy nearest-neighbor matching between equal-size multisets."""
    order = np.lexsort((a.imag, a.real))
    remaining = np.lexsort((b.imag, b.real)).tolist()
    dists = np.empty(a.size)
    for pos, ia in enumerate(order):
        gaps = np.abs(b[remaining] - a[ia])
        k = int(gaps.argmin())
        dists[pos] = gaps[k]
        remaining.pop(k)
    return dists


def match_spectra(s0, s1, tolerance: float = 1e-8) -> Tuple[bool, float]:
    """Multiset-match two spectra; returns (within tolerance, worst matched gap).

    Greedy nearest-neighbor after sorting by (real, imag); falls back to the
    optimal assignment only when the greedy match misses the tolerance.
    """
    a = s0.values if isinstance(s0, Spectrum) else np.asarray(s0, dtype=complex)
    b = s1.values if isinstance(s1, Spectrum) else np.asarray(s1, dtype=complex)
    if a.size != b.size:
        raise ValueError(f"spectra sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return True, 0.0
    worst = float(_greedy_match(a, b).max())
    if worst <= tolerance:
        return True, worst
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    return worst <= tolerance, worst
