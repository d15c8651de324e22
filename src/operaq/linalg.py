"""Dense complex linear algebra primitives.

Conventions fixed here and used everywhere else:
  * vectorization is column-stacking, vec(|i><j|) = e_j (x) e_i;
  * inner products are linear in the first argument and conjugate-linear
    in the second, <x, y> = sum_i x_i conj(y_i);
  * numerical rank cutoffs default to 1e-9 relative to the largest
    singular value;
  * tensor factors are permuted by reshaping to one axis per factor and
    transposing the axes, never by a permutation matrix or an index
    gather; moving an operator map between its action matrix and its Choi
    matrix is such a transpose (channels.choi_of and
    channels.channel_multimap);
  * no joint superoperator is kron'd whole: channel products and
    applications contract the Choi matrix (channels), and terms, circuits
    and composites are contracted wire by wire (operad).
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as npl

from .errors import DimensionMismatchError

RANK_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise ValueError("vector entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def vec(m) -> np.ndarray:
    """Column-stacking vectorization; vec(|i><j|) = e_j (x) e_i."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v, rows: int, cols: int | None = None) -> np.ndarray:
    v = as_vector(v)
    if cols is None:
        cols = v.size // rows
    if rows * cols != v.size:
        raise DimensionMismatchError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def inner(x, y) -> complex:
    """<x, y>, linear in x and conjugate-linear in y."""
    return complex(np.dot(as_vector(x), as_vector(y).conj()))


def kron(a, b) -> np.ndarray:
    return np.kron(as_matrix(a), as_matrix(b))


def kron_all(mats) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def kron_vectors(vectors) -> np.ndarray:
    out = np.ones(1, dtype=complex)
    for v in vectors:
        out = np.kron(out, as_vector(v))
    return out


def matrix_unit(d: int, k: int, l: int) -> np.ndarray:
    e = np.zeros((d, d), dtype=complex)
    e[k, l] = 1.0
    return e


def basis_vector(d: int, i: int) -> np.ndarray:
    e = np.zeros(d, dtype=complex)
    e[i] = 1.0
    return e


def partial_trace(m, dims, traced_factor: int) -> np.ndarray:
    """Trace out one tensor factor of an operator on (x)_i C^{d_i}."""
    m = as_matrix(m)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimensionMismatchError(
            f"matrix side {m.shape[0]} does not match profile product {total}"
        )
    n = len(dims)
    if not 0 <= traced_factor < n:
        raise DimensionMismatchError(f"traced factor {traced_factor} out of range")
    t = m.reshape(dims + dims)
    t = np.trace(t, axis1=traced_factor, axis2=n + traced_factor)
    keep = total // dims[traced_factor]
    return t.reshape(keep, keep)


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.sum(npl.svd(as_matrix(m), compute_uv=False)))


def frobenius(m) -> float:
    return float(npl.norm(np.asarray(m)))


def op_norm(m) -> float:
    """Largest singular value."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(npl.svd(m, compute_uv=False)[0])
