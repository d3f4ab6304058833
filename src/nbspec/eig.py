"""Dense eigensolvers, the vectorized quadratic-root kernel, and spectrum matching."""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from typing import Iterator, Tuple

import numpy as np

__all__ = [
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


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _symmetric(m: np.ndarray) -> bool:
    """Whether max |m - m^T| <= 1e-12 max |m|; a zero or empty matrix is symmetric.

    One n x n temporary: the difference, made absolute in place.
    """
    gap = m - m.T
    np.abs(gap, out=gap)
    return bool(gap.max(initial=0.0) <= 1e-12 * max(m.max(initial=0.0), -m.min(initial=0.0)))


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values``, made read-only: every spectrum, and the Bethe Hessian, is returned that way."""
    values.setflags(write=False)
    return values


def eigs_symmetric(m: np.ndarray, with_vectors: bool = False):
    """Eigenvalues of a symmetric real matrix: a read-only float64 array, ascending.

    Symmetry is enforced to 1e-12 relative (``_symmetric``).  With
    ``with_vectors`` returns (values, eigenvector matrix) with columns
    matching the sorted values.
    """
    m = _check_square(m)
    if not _symmetric(m):
        raise NotSymmetricError("matrix is not symmetric within 1e-12 relative")
    if with_vectors:
        w, v = np.linalg.eigh(m)
        return _read_only(w), v
    return _read_only(np.linalg.eigvalsh(m))


def eigs_general(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a general real square matrix: a read-only complex128 array.

    Complex even when every eigenvalue is real.  Backed by the LAPACK dense
    path (balancing, Hessenberg reduction, implicitly shifted QR).  Two
    checks guard against silent breakage, each raising ``EigenSolveError``:
    every eigenvalue must be finite, and their sum must match the trace to
    1e-6 relative, a test that a NaN on either side fails.
    """
    m = _check_square(m)
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # QR iteration cap exceeded
        raise EigenSolveError(f"eigensolver did not converge: {exc}") from exc
    if not np.isfinite(w).all():
        raise EigenSolveError("eigensolver returned a non-finite eigenvalue")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test below
        tr = np.trace(m)
        total = w.sum()
        ref = max(np.abs(tr), np.abs(w).sum(), 1.0)
        if not abs(total - tr) <= 1e-6 * ref:
            raise EigenSolveError(f"trace consistency violated: sum(eigs)={total!r} trace={tr!r}")
    return _read_only(w.astype(complex, copy=False))


@functools.cache
def _openblas_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS mapped at the first call.

    nbspec runs LAPACK only through numpy, and ``import numpy`` maps numpy's
    OpenBLAS before the first ``single_blas_thread`` block, so
    ``/proc/self/maps`` is read once per process.  A copy mapped later
    (scipy's, say) is not limited.  Empty where ``/proc/self/maps`` does not
    exist or no mapped OpenBLAS exports the symbol (OpenBLAS < 0.3.27,
    another BLAS).
    """
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    setters = []
    # a library is mapped several times (text, data, ...); keep the first
    for path in dict.fromkeys(
        f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()
    ):
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
    """Run the block with numpy's OpenBLAS limited to one thread.

    Every OpenBLAS mapped at the first block is limited (``_openblas_setters``).
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


def quadratic_roots(a, x) -> Tuple[np.ndarray, np.ndarray]:
    """The two roots (r1, r2) of z^2 - a z - x = 0, elementwise over real arrays.

    ``a`` and ``x`` broadcast against each other; each root comes back as a
    complex array of the broadcast shape (a complex scalar for scalar input).
    Real discriminant a^2 + 4x >= 0: r1 >= r2, computed with the
    cancellation-free variant (larger-magnitude root from the formula, the
    other from the product identity r1 r2 = -x).  Negative discriminant: the
    conjugate pair, imaginary-positive first.  a = x = 0 gives (0, 0).
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    disc = a * a + 4.0 * x
    real = disc >= 0.0
    s = np.sqrt(np.abs(disc))
    big = np.where(a >= 0.0, (a + s) / 2.0, (a - s) / 2.0)
    zero = big == 0.0  # a = x = 0
    other = np.where(zero, 0.0, -x / np.where(zero, 1.0, big))
    r1 = np.where(real, np.maximum(big, other), a / 2.0).astype(complex)
    r2 = np.where(real, np.minimum(big, other), a / 2.0).astype(complex)
    r1.imag = np.where(real, 0.0, s / 2.0)
    r2.imag = np.where(real, 0.0, -s / 2.0)
    return r1[()], r2[()]


def match_spectra(s0, s1, tolerance: float = 1e-8) -> Tuple[bool, float]:
    """Multiset-match two arrays of eigenvalues; returns (within tolerance, worst matched gap).

    Greedy nearest neighbor, taking the values of ``s0`` in (real, imag)
    order.  ``True`` proves that a matching within ``tolerance`` exists.  On
    ``False`` the gap is the greedy matching's worst, which an optimal
    assignment may undercut.
    """
    a = np.asarray(s0, dtype=complex)
    b = np.asarray(s1, dtype=complex)
    if a.size != b.size:
        raise ValueError(f"spectra sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return True, 0.0
    remaining = np.lexsort((b.imag, b.real)).tolist()
    dists = np.empty(a.size)
    for pos, ia in enumerate(np.lexsort((a.imag, a.real))):
        gaps = np.abs(b[remaining] - a[ia])
        k = int(gaps.argmin())
        dists[pos] = gaps[k]
        remaining.pop(k)
    worst = float(dists.max())  # NaN if any value is NaN, and then not within tolerance
    return worst <= tolerance, worst
