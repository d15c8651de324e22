"""Bounded multilinear maps on finite-dimensional complex spaces.

A map (H_1, ..., H_n) -> K is stored as its matrix on the Kronecker basis,
shape (dim K) x (d_1 * ... * d_n).  Dual vectors are represented by primal
vectors through the Riesz pairing <x, y> = sum_i x_i conj(y_i): the
functional with Riesz vector v acts as x -> <x, v>.  The conjugate-linear
twist of that identification is applied when an adjoint is built or
evaluated, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import numpy.linalg as npl

from . import linalg
from .errors import DimensionMismatchError, IllPosedFeedbackError


@dataclass(frozen=True)
class MultilinearVectorMap:
    input_dims: tuple[int, ...]
    output_dim: int
    matrix: np.ndarray
    field: str = "complex"  # "real" | "complex"

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        expected = (self.output_dim, int(np.prod(self.input_dims)) if self.input_dims else 1)
        if m.shape != expected:
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match profile {expected}"
            )
        if self.field not in ("real", "complex"):
            raise ValueError(f"unknown scalar field {self.field!r}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))

    @property
    def arity(self) -> int:
        return len(self.input_dims)

    def as_tensor(self) -> np.ndarray:
        """Matrix reshaped to axes (output, in_1, ..., in_n)."""
        return self.matrix.reshape((self.output_dim,) + self.input_dims)


def from_function(fn, input_dims, output_dim) -> MultilinearVectorMap:
    """Build the matrix of a multilinear map by sweeping basis tuples."""
    input_dims = tuple(int(d) for d in input_dims)
    cols = int(np.prod(input_dims)) if input_dims else 1
    mat = np.zeros((output_dim, cols), dtype=complex)
    if not input_dims:
        mat[:, 0] = linalg.as_vector(fn())
        return MultilinearVectorMap(input_dims, output_dim, mat)
    for c, multi in enumerate(np.ndindex(*input_dims)):
        args = [linalg.basis_vector(d, i) for d, i in zip(input_dims, multi)]
        mat[:, c] = linalg.as_vector(fn(*args))
    return MultilinearVectorMap(input_dims, output_dim, mat)


def apply(phi: MultilinearVectorMap, inputs) -> np.ndarray:
    inputs = list(inputs)
    if len(inputs) != phi.arity:
        raise DimensionMismatchError(f"expected {phi.arity} inputs, got {len(inputs)}")
    for v, d in zip(inputs, phi.input_dims):
        if linalg.as_vector(v).size != d:
            raise DimensionMismatchError("input length does not match profile")
    return phi.matrix @ linalg.kron_vectors(inputs)


def functional_value(riesz_vector, x) -> complex:
    """Value at x of the functional with the given Riesz vector."""
    return linalg.inner(x, riesz_vector)


def adjoint(phi: MultilinearVectorMap) -> MultilinearVectorMap:
    """The dagger adjoint, with dual slots carried as Riesz vectors.

    Inputs of the result: the output functional slot (dim m) followed by
    the first n-1 original slots; output: the last original slot.  The
    stored matrix satisfies

        riesz(Phi^dag(f, g_1..g_{n-1})) = G (w_f (x) conj(u_1) (x) ...)

    so parameter-slot Riesz vectors enter conjugated; use adjoint_apply for
    evaluation on general complex data.
    """
    n = phi.arity
    if n == 0:
        raise DimensionMismatchError("adjoint needs at least one input slot")
    f_t = phi.as_tensor()
    g_t = np.conj(np.moveaxis(f_t, -1, 0))
    out_dim = phi.input_dims[-1]
    in_dims = (phi.output_dim,) + phi.input_dims[:-1]
    g = g_t.reshape(out_dim, -1)
    return MultilinearVectorMap(in_dims, out_dim, g, phi.field)


def adjoint_apply(phi_adj: MultilinearVectorMap, functional_riesz, parameter_riesz) -> np.ndarray:
    """Evaluate an adjoint on Riesz data, applying the conjugate twist to
    the parameter slots."""
    args = [functional_riesz] + [np.conj(linalg.as_vector(u)) for u in parameter_riesz]
    return apply(phi_adj, args)


def double_adjoint_residual(phi: MultilinearVectorMap) -> float:
    """Entrywise max distance between (Phi^dag)^dag and Phi after the
    canonical slot realignment."""
    n = phi.arity
    second = adjoint(adjoint(phi))
    h_t = second.as_tensor()
    # second has axes (d_{n-1}; d_n, m, d_1, ..., d_{n-2}); realign to
    # (m; d_1, ..., d_n)
    axes = list(range(2, n + 1)) + [0, 1]
    realigned = h_t.transpose(axes)
    target = phi.as_tensor()
    return float(np.max(np.abs(realigned - target))) if target.size else 0.0


def compose(psi: MultilinearVectorMap, parts) -> MultilinearVectorMap:
    """Psi o (Phi_1, ..., Phi_m): feed each part a contiguous block of the
    combined input slots."""
    parts = list(parts)
    if len(parts) != psi.arity:
        raise DimensionMismatchError(f"psi has arity {psi.arity}, got {len(parts)} parts")
    for p, d in zip(parts, psi.input_dims):
        if p.output_dim != d:
            raise DimensionMismatchError("part output does not match psi input slot")
    block = reduce(np.kron, [p.matrix for p in parts], np.eye(1, dtype=complex))
    in_dims = tuple(d for p in parts for d in p.input_dims)
    field = "complex" if any(p.field == "complex" for p in [psi] + parts) else "real"
    return MultilinearVectorMap(in_dims, psi.output_dim, psi.matrix @ block, field)


def contravariant_residual(psi: MultilinearVectorMap, parts) -> float:
    """Max entry of |LHS - RHS| in the adjoint-of-composite identity.

    LHS is the matrix of [Psi o (Phi_1, ..., Phi_k)]^dag.  RHS routes the
    functional through Psi^dag first and Phi_k^dag second:

        Phi_k^dag (Psi^dag (I_m (x) conj Phi_1 (x) ... (x) conj Phi_{k-1}) (x) I)

    The leading parts enter conjugated because they sit in parameter slots,
    whose Riesz vectors the adjoint matrices take conjugated.
    """
    parts = list(parts)
    theta_adj = adjoint(compose(psi, parts)).matrix
    last = parts[-1]
    lead = reduce(np.kron, [np.conj(p.matrix) for p in parts[:-1]], np.eye(psi.output_dim))
    routed = np.kron(adjoint(psi).matrix @ lead, np.eye(int(np.prod(last.input_dims[:-1]))))
    return float(np.max(np.abs(theta_adj - adjoint(last).matrix @ routed), initial=0.0))


@dataclass(frozen=True)
class FeedbackProblem:
    """A linear interconnection T: U (+) X -> Y (+) X with the trailing
    direct summand fed back into itself."""

    map: MultilinearVectorMap
    input_split: tuple[int, int]  # (dim U, dim X)
    output_split: tuple[int, int]  # (dim Y, dim X)

    def __post_init__(self):
        if self.map.arity != 1:
            raise DimensionMismatchError("feedback operates on a linear (1-slot) map")
        if sum(self.input_split) != self.map.input_dims[0]:
            raise DimensionMismatchError("input split does not sum to the map's input dim")
        if sum(self.output_split) != self.map.output_dim:
            raise DimensionMismatchError("output split does not sum to the map's output dim")
        if self.input_split[1] != self.output_split[1]:
            raise DimensionMismatchError("loop summand dims differ between input and output")

    def blocks(self):
        u, x = self.input_split
        y, _ = self.output_split
        m = self.map.matrix
        a = m[:y, :u]
        b = m[:y, u:]
        c = m[y:, :u]
        d = m[y:, u:]
        return a, b, c, d

    @property
    def loop_operator(self) -> np.ndarray:
        return self.blocks()[3]

    @property
    def loop_gain(self) -> float:
        return linalg.op_norm(self.loop_operator)

    @property
    def well_posed(self) -> bool:
        d = self.loop_operator
        i_minus = np.eye(d.shape[0], dtype=complex) - d
        if i_minus.size == 0:
            return True
        return bool(npl.svd(i_minus, compute_uv=False)[-1] >= 1e-10)


def feedback_solve(problem: FeedbackProblem) -> MultilinearVectorMap:
    """Close the loop: the unique xi with xi = C u + D xi gives the
    external map u -> A u + B xi = (A + B (I - D)^{-1} C) u."""
    a, b, c, d = problem.blocks()
    i_minus = np.eye(d.shape[0], dtype=complex) - d
    if i_minus.size:
        smallest = npl.svd(i_minus, compute_uv=False)[-1]
        if smallest < 1e-10:
            raise IllPosedFeedbackError(
                f"I - L has smallest singular value {smallest:.3e}; no unique loop solution"
            )
        closed = a + b @ npl.solve(i_minus, c)
    else:
        closed = a
    u = problem.input_split[0]
    y = problem.output_split[0]
    return MultilinearVectorMap((u,), y, closed, problem.map.field)


def feedback_picard(problem: FeedbackProblem, steps: int = 200) -> MultilinearVectorMap:
    """Picard iteration xi_{k+1} = C u + D xi_k, as an independent check of
    the direct solve for contractive loops."""
    a, b, c, d = problem.blocks()
    xi = np.zeros_like(c)
    for _ in range(steps):
        xi = c + d @ xi
    closed = a + b @ xi
    u = problem.input_split[0]
    y = problem.output_split[0]
    return MultilinearVectorMap((u,), y, closed, problem.map.field)
