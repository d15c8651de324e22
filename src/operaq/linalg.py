"""Dense complex linear algebra primitives.

Conventions fixed here and used everywhere else:
  * vectorization is column-stacking, vec(|i><j|) = e_j (x) e_i;
  * inner products are linear in the first argument and conjugate-linear
    in the second, <x, y> = sum_i x_i conj(y_i);
  * numerical rank cutoffs default to 1e-9 relative to the largest
    singular value;
  * factor permutations are index arrays, never dense matrices: a
    permutation P is held as src with (P x)[i] = x[src[i]], so P @ A is
    A[src] and A @ P is A[:, np.argsort(src)].  The dense builders
    factor_permutation and mingle are kept only where the explicit matrix
    is wanted (test oracles, demos); no computation multiplies by one.
"""

from __future__ import annotations

import warnings

import numpy as np
import numpy.linalg as npl

from .errors import DimensionMismatchError, SingularMatrixError

RANK_TOL = 1e-9
HERMITICITY_WARN = 1e-8


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


def matrix_units(d: int):
    """Yield (k, l, E_kl) over the standard basis of M_d."""
    for k in range(d):
        for l in range(d):
            yield k, l, matrix_unit(d, k, l)


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


def hermitianize(m, warn_tol: float = HERMITICITY_WARN) -> np.ndarray:
    m = as_matrix(m)
    asym = npl.norm(m - dagger(m))
    if asym > warn_tol * max(1.0, npl.norm(m)):
        warnings.warn(f"symmetrizing matrix with hermiticity defect {asym:.3e}")
    return (m + dagger(m)) / 2


def solve_linear(a, b, least_squares: bool = False) -> np.ndarray:
    """Solve a x = b exactly (square a) or in least squares."""
    a = as_matrix(a)
    b = as_vector(b)
    if a.shape[0] != b.size:
        raise DimensionMismatchError("right-hand side length does not match")
    if least_squares:
        x, _, _, _ = npl.lstsq(a, b, rcond=None)
        return x
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("exact mode needs a square matrix")
    svals = npl.svd(a, compute_uv=False)
    if svals[-1] < 1e-12 * svals[0]:
        raise SingularMatrixError(
            f"smallest singular value {svals[-1]:.3e} below 1e-12 of largest {svals[0]:.3e}"
        )
    return npl.solve(a, b)


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


def factor_permutation_index(dims, perm) -> np.ndarray:
    """Index array src of the factor permutation P, (P x)[i] = x[src[i]],
    where P(x_1 (x) ... (x) x_n) has old factor perm[k] at new position k."""
    dims = [int(d) for d in dims]
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(len(dims))):
        raise DimensionMismatchError("not a permutation of the factors")
    return np.arange(int(np.prod(dims))).reshape(dims).transpose(perm).ravel()


def superop_permutation_index(dims, perm) -> np.ndarray:
    """Index array of kron(P, P), the vec-side map rho -> P rho P^T of the
    factor permutation P."""
    src = factor_permutation_index(dims, perm)
    return (src[:, None] * src.size + src[None, :]).ravel()


def mingle_index(dims) -> np.ndarray:
    """Index array of the permutation sending vec(A_1) (x) ... (x) vec(A_n)
    to vec(A_1 (x) ... (x) A_n).

    The source index interleaves per-factor (column, row) axes; the target
    groups all column axes before all row axes.
    """
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    inter_shape = [d for d in dims for _ in range(2)]  # (col_i, row_i) per factor
    axes = list(range(0, 2 * len(dims), 2)) + list(range(1, 2 * len(dims), 2))
    return np.arange(total * total).reshape(inter_shape).transpose(axes).ravel()


def _permutation_matrix(src: np.ndarray) -> np.ndarray:
    p = np.zeros((src.size, src.size))
    p[np.arange(src.size), src] = 1.0
    return p


def factor_permutation(dims, perm) -> np.ndarray:
    """Dense matrix of factor_permutation_index, for explicit-matrix use."""
    return _permutation_matrix(factor_permutation_index(dims, perm))


def mingle(dims) -> np.ndarray:
    """Dense matrix of mingle_index, for explicit-matrix use."""
    return _permutation_matrix(mingle_index(dims))


def superop_kron(superops, dims_in, dims_out) -> np.ndarray:
    """Joint vec-side matrix of a tensor product of operator maps.

    superops[i] sends vec(M_{dims_in[i]}) to vec(M_{dims_out[i]}); the result
    acts on vec of the joint operator space M_{prod dims_in}.  It equals
    mingle(dims_out) @ kron_all(superops) @ mingle(dims_in).T.
    """
    return kron_all(superops)[np.ix_(mingle_index(dims_out), mingle_index(dims_in))]
