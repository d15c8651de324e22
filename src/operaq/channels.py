"""Completely positive maps: Choi matrices, Kraus sets, Stinespring
dilations, minimal dilations with intertwiners, the Kraus-tensor
decomposition and the n-adjoint.

Superoperators act on column-stacked vectorizations throughout, so the
matrix unit E_kl of M_d has vec index l*d + k.  There is one Choi layout,
the channel Choi C = sum_ij E_ij (x) Phi(E_ij) with factors (input,
output), and two maps between it and an operator map's action matrix:
choi_of groups a map's slots into one input space, and channel_multimap
splits the input space back into slots of given dimensions.  Both are one
reshape and one axis transpose; a slot permutation is one too.

Every map here is built in closed form, as a reshape, a contraction or a
Kraus sum.  multimap_from_function is the entry point for a map given as a
callable; it sweeps matrix-unit tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import numpy.linalg as npl

from . import linalg, multilinear as ml
from .errors import (
    DimensionMismatchError,
    InconsistentDilationsError,
    NotCompletelyPositiveError,
)


# ---------------------------------------------------------------------------
# multilinear maps on operator slots


@dataclass(frozen=True)
class OperatorMultiMap:
    """Multilinear map M_{d_1} x ... x M_{d_n} -> M_m, stored as its matrix
    on vectorized slots, shape m^2 x prod(d_i^2)."""

    input_operator_dims: tuple[int, ...]
    output_operator_dim: int
    action_matrix: np.ndarray

    def __post_init__(self):
        ins, out = list(self.input_operator_dims), self.output_operator_dim
        if any(d < 1 for d in ins + [out]):
            raise DimensionMismatchError(f"operator dims {ins} -> {out} must be at least 1")
        a = linalg.as_matrix(self.action_matrix)
        cols = int(np.prod([d * d for d in self.input_operator_dims])) if self.input_operator_dims else 1
        if a.shape != (self.output_operator_dim**2, cols):
            raise DimensionMismatchError(
                f"action matrix shape {a.shape} does not match operator profile"
            )
        object.__setattr__(self, "action_matrix", a)
        object.__setattr__(
            self, "input_operator_dims", tuple(int(d) for d in self.input_operator_dims)
        )

    @property
    def arity(self) -> int:
        return len(self.input_operator_dims)


def multimap_from_function(fn, input_dims, output_dim) -> OperatorMultiMap:
    """Matrix of an operator-valued multilinear map from a callable on
    matrix arguments, by sweeping matrix-unit tuples."""
    input_dims = tuple(int(d) for d in input_dims)
    sq = [d * d for d in input_dims]
    cols = int(np.prod(sq)) if sq else 1
    a = np.zeros((output_dim**2, cols), dtype=complex)
    if not input_dims:
        a[:, 0] = linalg.vec(fn())
        return OperatorMultiMap(input_dims, output_dim, a)
    for flat, multi in enumerate(np.ndindex(*sq)):
        mats = [
            linalg.unvec(linalg.basis_vector(d * d, c), d) for d, c in zip(input_dims, multi)
        ]
        a[:, flat] = linalg.vec(fn(*mats))
    return OperatorMultiMap(input_dims, output_dim, a)


def apply_ops(mm: OperatorMultiMap, mats) -> np.ndarray:
    mats = [linalg.as_matrix(x) for x in mats]
    if len(mats) != mm.arity:
        raise DimensionMismatchError(f"expected {mm.arity} operator inputs, got {len(mats)}")
    for x, d in zip(mats, mm.input_operator_dims):
        if x.shape != (d, d):
            raise DimensionMismatchError(f"input shape {x.shape} does not match slot dim {d}")
    col = linalg.kron_vectors([linalg.vec(x) for x in mats])
    return linalg.unvec(mm.action_matrix @ col, mm.output_operator_dim)


def identity_multimap(d: int) -> OperatorMultiMap:
    return OperatorMultiMap((d,), d, np.eye(d * d, dtype=complex))


def transpose_multimap(d: int) -> OperatorMultiMap:
    # vec(X^T) swaps the (column, row) axes of vec(X)
    swap = np.eye(d * d).reshape(d, d, d * d).transpose(1, 0, 2)
    return OperatorMultiMap((d,), d, swap.reshape(d * d, d * d))


# ---------------------------------------------------------------------------
# channels and Choi matrices


@dataclass(frozen=True)
class QuantumChannel:
    in_dim: int
    out_dim: int
    choi: np.ndarray

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise DimensionMismatchError(
                f"channel dims {self.in_dim} -> {self.out_dim} must be at least 1"
            )
        c = linalg.as_matrix(self.choi)
        side = self.in_dim * self.out_dim
        if c.shape != (side, side):
            raise DimensionMismatchError(f"Choi side {c.shape} does not match dims")
        object.__setattr__(self, "choi", c)


@dataclass(frozen=True)
class KrausSet:
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(linalg.as_matrix(k) for k in self.operators)
        if not ops:
            raise DimensionMismatchError("a Kraus set needs at least one operator")
        if len({k.shape for k in ops}) != 1:
            raise DimensionMismatchError("Kraus operators must share one shape")
        object.__setattr__(self, "operators", ops)

    @property
    def out_dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def in_dim(self) -> int:
        return self.operators[0].shape[1]


def kraus_to_superop(ks: KrausSet) -> np.ndarray:
    # vec(K X K^dag) = (conj(K) (x) K) vec(X)
    return sum(linalg.kron(np.conj(k), k) for k in ks.operators)


def choi_of(source) -> QuantumChannel:
    """Channel Choi matrix C = sum_ij E_ij (x) Phi(E_ij) of a Kraus set, or
    of an operator map with its slots grouped into one input space.

    Split into (column, row) axes per factor, the action has axes
    (out col, out row, col_1, row_1, ..., col_n, row_n); C has rows
    (row_1, ..., row_n, out row) and columns (col_1, ..., col_n, out col),
    so it is one transpose of the action."""
    if isinstance(source, KrausSet):
        action, dims, m = kraus_to_superop(source), (source.in_dim,), source.out_dim
    elif isinstance(source, OperatorMultiMap):
        action, dims, m = source.action_matrix, source.input_operator_dims, source.output_operator_dim
    else:
        raise TypeError(f"cannot build a Choi matrix from {type(source).__name__}")
    din = int(np.prod(dims))
    t = action.reshape([m, m] + [d for d in dims for _ in "cr"])
    order = list(range(3, t.ndim, 2)) + [1] + list(range(2, t.ndim, 2)) + [0]
    return QuantumChannel(din, m, t.transpose(order).reshape(din * m, din * m))


def channel_multimap(ch: QuantumChannel, input_dims=None) -> OperatorMultiMap:
    """The operator map of a channel, its input space read as slots of the
    given dims (default one slot); the inverse of choi_of."""
    dims = (ch.in_dim,) if input_dims is None else tuple(int(d) for d in input_dims)
    if any(d < 1 for d in dims) or int(np.prod(dims)) != ch.in_dim:
        raise DimensionMismatchError(
            f"slot dims {dims} do not split the channel's input dimension {ch.in_dim}"
        )
    n, m = len(dims), ch.out_dim
    t = ch.choi.reshape(dims + (m,) + dims + (m,))
    order = [2 * n + 1, n] + [a for i in range(n) for a in (n + 1 + i, i)]
    return OperatorMultiMap(dims, m, t.transpose(order).reshape(m * m, ch.in_dim**2))


def channel_apply(ch: QuantumChannel, rho) -> np.ndarray:
    """Phi(rho)[a, b] = sum_ij rho[i, j] C[(i, a), (j, b)], contracted on a
    view of the Choi matrix."""
    d, m = ch.in_dim, ch.out_dim
    rho = linalg.unvec(linalg.vec(rho), d, d)
    return linalg.as_matrix(np.einsum("ij,iajb->ab", rho, ch.choi.reshape(d, m, d, m)))


def _choi_eigenvalues(choi) -> np.ndarray:
    """Ascending spectrum of the Hermitian part of a Choi matrix, or of each
    matrix of a stack, no vectors."""
    return npl.eigvalsh((choi + np.swapaxes(choi, -1, -2).conj()) / 2)


def choi_min_eigenvalue(ch: QuantumChannel) -> float:
    return float(_choi_eigenvalues(ch.choi)[0])


def is_cp(ch: QuantumChannel) -> bool:
    return choi_min_eigenvalue(ch) >= -1e-10


def tp_defect(ch: QuantumChannel) -> float:
    """Largest entry of |Tr_out(C) - I|."""
    marginal = linalg.partial_trace(ch.choi, (ch.in_dim, ch.out_dim), 1)
    return float(np.max(np.abs(marginal - np.eye(ch.in_dim))))


def is_tp(ch: QuantumChannel) -> bool:
    return tp_defect(ch) <= 1e-10


def _ginibre_state(rng, d: int) -> np.ndarray:
    """vec of W^dag W / tr(W^dag W) for a complex Ginibre W."""
    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    state = linalg.dagger(w) @ w
    return linalg.vec(state / np.trace(state))


def mcp_check(mm: OperatorMultiMap, tol: float = 1e-10) -> dict:
    """Slotwise complete-positivity scan: freeze the other slots at
    deterministic extreme states and at five Ginibre-random states drawn
    from seed 0, and certify each slot map X -> Phi(.., X, ..) through its
    Choi spectrum.

    Deterministic tuples, every tuple of the maximally mixed state and the
    basis projectors with the last slot varying fastest, catch slot-wise
    sign flips that interior random states can average away.  A slot has
    prod_j (d_j + 1) + 5 cases over the other slots j (a one-slot map one);
    its maps are the action tensor contracted with the stacked states, and
    one stacked eigvalsh reads their Choi minima.
    """
    rng = np.random.default_rng(0)
    dims, m, n = mm.input_operator_dims, mm.output_operator_dim, mm.arity
    tensor = mm.action_matrix.reshape((m * m,) + tuple(d * d for d in dims))
    violations, cases = [], 0
    for slot, d in enumerate(dims):
        others = [i for i in range(n) if i != slot]
        # from the last other slot down, each tensordot appends its tuple
        # axis; vec(E_kk) in M_e is the unit vector at k*(e + 1)
        fixed = tensor
        for i in reversed(others):
            e = dims[i]
            pool = np.vstack([np.eye(e).reshape(1, -1) / e, np.eye(e * e)[:: e + 1]])
            fixed = np.tensordot(fixed, pool, axes=([1 + i], [1]))
        maps = [fixed.transpose(list(range(fixed.ndim - 1, 1, -1)) + [0, 1]).reshape(-1, m * m, d * d)]
        pool_names = (["maximally-mixed"] + [f"projector-{k}" for k in range(dims[i])] for i in others)
        labels = list(itertools.product(*pool_names))
        if others:
            drawn = [[_ginibre_state(rng, dims[i]) for i in others] for _ in range(5)]
            operands = [tensor, list(range(n + 1))]
            for i, states in zip(others, zip(*drawn)):
                operands += [np.array(states), [n + 1, 1 + i]]
            maps.append(np.einsum(*operands, [n + 1, 0, 1 + slot], optimize=True))
            labels += [(f"ginibre-{t}",) * len(others) for t in range(5)]
        # choi_of of each: (out col, out row, col, row) -> (row, out row; col, out col)
        chois = np.concatenate(maps).reshape(-1, m, m, d, d).transpose(0, 4, 2, 3, 1)
        lows = _choi_eigenvalues(chois.reshape(-1, d * m, d * m))[:, 0]
        cases += len(lows)
        violations += [
            {"slot": slot, "states": list(label), "min_eigenvalue": float(low)}
            for label, low in zip(labels, lows)
            if low < -tol
        ]
    return {"passed": not violations, "cases": cases, "violations": violations}


def _kraus_cut(vals) -> float:
    """The magnitude below which an eigenvalue of an ascending Choi
    spectrum counts as zero: 1e-10 * max(1, largest)."""
    return 1e-10 * max(1.0, float(vals[-1]))


def _choi_spectrum(ch: QuantumChannel):
    """One eigh of the Choi matrix's Hermitian part, for a CP check and the
    Kraus operators alike: the ascending spectrum, and sqrt(lam) w for each
    eigenvalue above _kraus_cut."""
    herm = (ch.choi + linalg.dagger(ch.choi)) / 2
    vals, vecs = npl.eigh(herm)
    cut = _kraus_cut(vals)
    d, m = ch.in_dim, ch.out_dim
    ops = [np.sqrt(lam) * w.reshape(d, m).T for lam, w in zip(vals, vecs.T) if lam > cut]
    if not ops:
        ops.append(np.zeros((m, d), dtype=complex))
    return vals, KrausSet(tuple(ops))


def kraus_from_choi(ch: QuantumChannel) -> KrausSet:
    vals, ks = _choi_spectrum(ch)
    if vals[0] < -_kraus_cut(vals):
        raise NotCompletelyPositiveError(
            f"Choi matrix has eigenvalue {vals[0]:.3e}", min_eigenvalue=float(vals[0])
        )
    return ks


def kraus_rank(ch: QuantumChannel) -> int:
    vals = _choi_eigenvalues(ch.choi)
    return int(np.sum(vals > _kraus_cut(vals)))


# ---------------------------------------------------------------------------
# dilations


@dataclass(frozen=True)
class ChannelDilation:
    """State-picture dilation rho -> Tr_env(V rho V^dag) with V mapping the
    input space into output (x) environment."""

    env_dim: int
    isometry: np.ndarray

    def __post_init__(self):
        v = linalg.as_matrix(self.isometry)
        if v.shape[0] % self.env_dim:
            raise DimensionMismatchError("isometry rows are not a multiple of env_dim")
        object.__setattr__(self, "isometry", v)

    @property
    def in_dim(self) -> int:
        return self.isometry.shape[1]

    @property
    def out_dim(self) -> int:
        return self.isometry.shape[0] // self.env_dim


def stinespring_from_kraus(ks: KrausSet) -> ChannelDilation:
    r = len(ks.operators)
    v = sum(
        linalg.kron(k, linalg.basis_vector(r, a).reshape(r, 1)) for a, k in enumerate(ks.operators)
    )
    return ChannelDilation(r, v)


def channel_from_dilation(cd: ChannelDilation) -> QuantumChannel:
    # Kraus operators K_e = (I (x) <e|) V
    v = cd.isometry.reshape(cd.out_dim, cd.env_dim, cd.in_dim)
    return choi_of(KrausSet(tuple(v[:, e, :] for e in range(cd.env_dim))))


@dataclass(frozen=True)
class StarRepresentation:
    """Unital *-representation of M_d on a carrier space, tabulated on
    matrix units: images has shape (d, d, carrier, carrier)."""

    algebra_dim: int
    carrier_dim: int
    images: np.ndarray

    def __post_init__(self):
        im = np.asarray(self.images, dtype=complex)
        d, c = self.algebra_dim, self.carrier_dim
        if im.shape != (d, d, c, c):
            raise DimensionMismatchError(f"images shape {im.shape} != {(d, d, c, c)}")
        object.__setattr__(self, "images", im)


def rep_apply(rep: StarRepresentation, a) -> np.ndarray:
    a = linalg.as_matrix(a)
    if a.shape != (rep.algebra_dim,) * 2:
        raise DimensionMismatchError("element does not match the represented algebra")
    return np.einsum("kl,klxy->xy", a, rep.images)


def factor_representation(d: int, multiplicity: int, left_dim: int = 1, right_dim: int = 1) -> StarRepresentation:
    """a -> I_left (x) (a (x) I_mult) (x) I_right on the full carrier."""
    carrier = left_dim * d * multiplicity * right_dim
    # units[k, l] = E_kl, and kron on 4-d arrays acts on the trailing axes
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)
    images = np.kron(np.kron(np.eye(left_dim, dtype=complex), units), np.eye(multiplicity * right_dim))
    return StarRepresentation(d, carrier, images)


@dataclass(frozen=True)
class MultilinearDilation:
    """Phi(a_1, ..., a_n) = V^dag pi_1(a_1) ... pi_n(a_n) V with commuting
    carrier-wide representations; V maps the source space into the carrier.

    factor_dims records the tensor factorization of the carrier when one is
    known; compressed (minimal) dilations carry None.
    """

    reps: tuple[StarRepresentation, ...]
    isometry: np.ndarray
    factor_dims: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        v = linalg.as_matrix(self.isometry)
        reps = tuple(self.reps)
        for rep in reps:
            if rep.carrier_dim != v.shape[0]:
                raise DimensionMismatchError("representation carrier != isometry target")
        if self.factor_dims is not None:
            if int(np.prod(self.factor_dims)) != v.shape[0]:
                raise DimensionMismatchError("factor dims do not multiply to the carrier dim")
            object.__setattr__(self, "factor_dims", tuple(int(x) for x in self.factor_dims))
        object.__setattr__(self, "isometry", v)
        object.__setattr__(self, "reps", reps)

    @property
    def carrier_dim(self) -> int:
        return self.isometry.shape[0]

    @property
    def source_dim(self) -> int:
        return self.isometry.shape[1]

    @property
    def algebra_dims(self) -> tuple[int, ...]:
        return tuple(rep.algebra_dim for rep in self.reps)


def dilation_reconstruct(dil: MultilinearDilation, inputs) -> np.ndarray:
    inputs = list(inputs)
    if len(inputs) != len(dil.reps):
        raise DimensionMismatchError("one input per representation required")
    acc = dil.isometry
    for rep, a in zip(reversed(dil.reps), reversed(inputs)):
        acc = rep_apply(rep, a) @ acc
    return linalg.dagger(dil.isometry) @ acc


def _unit_chain(reps, start: np.ndarray) -> np.ndarray:
    """pi_1(E_1) ... pi_n(E_n) @ start for every matrix-unit tuple, shape
    (d_1^2, ..., d_n^2, carrier, cols); axis j runs over the vec index
    l*d_j + k of E_kl."""
    acc = start
    for rep in reversed(reps):
        d, c = rep.algebra_dim, rep.carrier_dim
        units = rep.images.transpose(1, 0, 2, 3).reshape((d * d,) + (1,) * (acc.ndim - 2) + (c, c))
        acc = units @ acc
    return acc


def dilation_multimap(dil: MultilinearDilation) -> OperatorMultiMap:
    m = dil.source_dim
    values = linalg.dagger(dil.isometry) @ _unit_chain(dil.reps, dil.isometry)
    # vec of each m x m value is its transpose read row-major
    action = np.swapaxes(values, -1, -2).reshape(-1, m * m).T
    return OperatorMultiMap(dil.algebra_dims, m, action)


def heisenberg_dilation(ks: KrausSet) -> MultilinearDilation:
    """Observable-picture dilation of a -> sum K^dag a K built on the same
    isometry as the state-picture Stinespring construction."""
    r = len(ks.operators)
    v = stinespring_from_kraus(ks).isometry
    rep = factor_representation(ks.out_dim, r)
    return MultilinearDilation((rep,), v, (ks.out_dim * r,))


def pad_dilation(dil: MultilinearDilation, extra_dim: int) -> MultilinearDilation:
    """Attach an unused environment factor of the given dimension."""
    e0 = linalg.basis_vector(extra_dim, 0).reshape(extra_dim, 1)
    v = linalg.kron(dil.isometry, e0)
    pad = np.eye(extra_dim)
    reps = tuple(
        StarRepresentation(r.algebra_dim, r.carrier_dim * extra_dim, np.kron(r.images, pad)) for r in dil.reps
    )
    return MultilinearDilation(reps, v, None)


def _generator_matrix(dil: MultilinearDilation) -> np.ndarray:
    """Columns (pi_1(E) ... pi_n(E)) V e_s over all matrix-unit tuples and
    source basis vectors, tuple-major and source-minor."""
    return np.moveaxis(_unit_chain(dil.reps, dil.isometry), -2, 0).reshape(dil.carrier_dim, -1)


def minimal_dilation(dil: MultilinearDilation) -> MultilinearDilation:
    """Compress onto the span of all (pi_1(E)...pi_n(E)) V e_s.

    The span is invariant under every pi_j(E_kl) because matrix units
    multiply back into matrix units, so compression preserves the star
    structure and the reconstruction identity.  The span lies on the
    carrier coordinates the generators touch.  When it fills them, those
    coordinate vectors are its basis, so an already minimal dilation comes
    back unchanged and a padded one loses exactly its padding; otherwise
    the basis is the leading left singular vectors of the generator
    matrix on them.  The rank is cut at linalg.RANK_TOL relative to the
    largest singular value.
    """
    gens = _generator_matrix(dil)
    support = np.flatnonzero(np.any(gens != 0, axis=1))
    u, s, _ = npl.svd(gens[support], full_matrices=False)
    rank = int(np.sum(s > linalg.RANK_TOL * s.max(initial=0.0)))
    if rank == support.size:
        u = np.eye(rank)
    b = np.zeros((dil.carrier_dim, rank), dtype=complex)
    b[support] = u[:, :rank]
    bh = linalg.dagger(b)
    reps = tuple(
        StarRepresentation(rep.algebra_dim, rank, bh @ rep.images @ b) for rep in dil.reps
    )
    return MultilinearDilation(reps, bh @ dil.isometry, None)


def intertwiner(d_min: MultilinearDilation, d_other: MultilinearDilation):
    """The unique map U with U (pi_min(a)) V_min h = (pi_other(a)) V_other h
    on the cyclic generators of the minimal carrier.

    Returns (U, report).  U is an isometry on the minimal carrier; it is
    unitary exactly when d_other is minimal too.  Dilations whose maps
    differ by more than 1e-8 in some entry are inconsistent.
    """
    if d_min.algebra_dims != d_other.algebra_dims or d_min.source_dim != d_other.source_dim:
        raise DimensionMismatchError("dilations have different profiles")
    a_map = dilation_multimap(d_min).action_matrix
    b_map = dilation_multimap(d_other).action_matrix
    agreement = float(np.max(np.abs(a_map - b_map)))
    if agreement > 1e-8:
        raise InconsistentDilationsError(
            f"dilations reconstruct different maps (max deviation {agreement:.3e})"
        )
    g_min = _generator_matrix(d_min)
    g_oth = _generator_matrix(d_other)
    u = npl.lstsq(g_min.T, g_oth.T, rcond=None)[0].T
    uh = linalg.dagger(u)
    report = {
        "generator_residual": float(np.max(np.abs(u @ g_min - g_oth))),
        "isometry_defect": linalg.op_norm(uh @ u - np.eye(u.shape[1])),
        "co_isometry_defect": linalg.op_norm(u @ uh - np.eye(u.shape[0])),
        "maps_isometry_residual": float(np.max(np.abs(u @ d_min.isometry - d_other.isometry))),
        "intertwining_residual": max(
            float(np.max(np.abs(u @ rm.images - ro.images @ u)))
            for rm, ro in zip(d_min.reps, d_other.reps)
        ),
        "reconstruction_agreement": agreement,
    }
    return u, report


# ---------------------------------------------------------------------------
# tensor decomposition and the n-adjoint


@dataclass(frozen=True)
class KrausTensorDecomposition:
    """Phi(x_1..x_n) = sum_alpha outer(T_alpha(x_1..x_{n-1}), L_alpha(x_n)).

    t[alpha] (shape m x prod_{j<n} d_j^2) and l[alpha] (m x d_n^2) act on
    vectorized slots: T_alpha returns the column V^dag (prod_{j<n}
    pi_j(x_j)) e_alpha and L_alpha the row content e_alpha^dag pi_n(x_n) V.
    """

    t: np.ndarray
    l: np.ndarray
    input_operator_dims: tuple[int, ...]


def kraus_tensor_decompose(dil: MultilinearDilation) -> KrausTensorDecomposition:
    m, c = dil.source_dim, dil.carrier_dim
    # t[alpha, :, u] = V^dag (prod_{j<n} pi_j(units_u)) e_alpha
    t = (linalg.dagger(dil.isometry) @ _unit_chain(dil.reps[:-1], np.eye(c))).reshape(-1, m, c)
    # l[alpha, :, x] = e_alpha^dag pi_n(unit_x) V
    l = _unit_chain(dil.reps[-1:], dil.isometry)
    return KrausTensorDecomposition(t.transpose(2, 1, 0), l.transpose(1, 2, 0), dil.algebra_dims)


def decomposition_apply(decomp: KrausTensorDecomposition, mats) -> np.ndarray:
    mats = [linalg.as_matrix(x) for x in mats]
    dims = decomp.input_operator_dims
    if len(mats) != len(dims):
        raise DimensionMismatchError("wrong number of inputs for the decomposition")
    for x, d in zip(mats, dims):
        if x.shape != (d, d):
            raise DimensionMismatchError(f"input shape {x.shape} does not match slot dim {d}")
    lead = linalg.kron_vectors([linalg.vec(x) for x in mats[:-1]])
    return np.einsum("za,zb->ab", decomp.t @ lead, decomp.l @ linalg.vec(mats[-1]))


def n_adjoint(mm: OperatorMultiMap) -> OperatorMultiMap:
    """The dagger adjoint of the map on vectorized slots.  tr(A^dag B) is
    the pairing of vec A and vec B, so it takes (G, F_1, ..., F_{n-1}) to
    the HS Riesz matrix of tr(G^dag Phi(F_1, ..., F_{n-1}, .)); the
    parameter slots enter conjugated, so evaluate through n_adjoint_apply.
    """
    dims = mm.input_operator_dims
    m = mm.output_operator_dim
    vector_map = ml.MultilinearVectorMap(tuple(d * d for d in dims), m * m, mm.action_matrix)
    return OperatorMultiMap((m,) + dims[:-1], dims[-1], ml.adjoint(vector_map).matrix)


def n_adjoint_apply(adj: OperatorMultiMap, g_riesz, f_riesz) -> np.ndarray:
    args = [g_riesz] + [np.conj(linalg.as_matrix(f)) for f in f_riesz]
    return apply_ops(adj, args)


def n_adjoint_pairing_residual(
    decomp: KrausTensorDecomposition, adj: OperatorMultiMap, trials: int = 20, seed: int = 0
) -> float:
    """Max deviation in g(Phi(F..., X)) = <X, Y>_HS over random complex
    data, Phi read off the Kraus-tensor factors and Y off the adjoint."""
    rng = np.random.default_rng(seed)
    dims = decomp.input_operator_dims
    m = decomp.t.shape[1]
    worst = 0.0

    def rnd(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    for _ in range(trials):
        g = rnd(m)
        fs = [rnd(d) for d in dims[:-1]]
        x = rnd(dims[-1])
        direct = np.trace(linalg.dagger(g) @ decomposition_apply(decomp, fs + [x]))
        y = n_adjoint_apply(adj, g, fs)
        worst = max(worst, abs(direct - np.trace(linalg.dagger(y) @ x)))
    return worst


def zigzag_check(dil: MultilinearDilation) -> dict:
    """Unit/counit coherence for the dilation isometry: both Z-shaped
    composites reduce to V^dag V = I numerically."""
    v = dil.isometry
    vh = linalg.dagger(v)
    gram_defect = linalg.op_norm(vh @ v - np.eye(dil.source_dim))
    zigzag = linalg.op_norm(vh @ v @ vh - vh)
    return {
        "isometry_defect": gram_defect,
        "zigzag_defect": zigzag,
        "isometric": bool(gram_defect <= 1e-9),
    }


# ---------------------------------------------------------------------------
# channel comparison and products


def channel_distance_bound(a: QuantumChannel, b: QuantumChannel) -> float:
    if (a.in_dim, a.out_dim) != (b.in_dim, b.out_dim):
        raise DimensionMismatchError("channels have different shapes")
    return linalg.trace_norm(a.choi - b.choi)


def channel_kron(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """C[(i k, p q), (j l, r s)] = C_a[(i, p), (j, r)] C_b[(k, q), (l, s)],
    the outer product written straight into the product's layout."""
    (d1, m1), (d2, m2) = (a.in_dim, a.out_dim), (b.in_dim, b.out_dim)
    out = np.empty((d1, d2, m1, m2) * 2, dtype=complex)
    np.multiply(
        a.choi.reshape(d1, 1, m1, 1, d1, 1, m1, 1),
        b.choi.reshape(1, d2, 1, m2, 1, d2, 1, m2),
        out=out,
    )
    side = d1 * d2 * m1 * m2
    return QuantumChannel(d1 * d2, m1 * m2, out.reshape(side, side))


def identity_channel(d: int) -> QuantumChannel:
    return choi_of(identity_multimap(d))


def depolarizing_channel(d: int, p: float) -> QuantumChannel:
    """rho -> (1 - p) rho + p tr(rho) I/d, whose superoperator is
    (1 - p) I + (p/d) vec(I) vec(I)^T."""
    vec_eye = linalg.vec(np.eye(d))
    s = (1 - p) * np.eye(d * d) + (p / d) * np.outer(vec_eye, vec_eye)
    return choi_of(OperatorMultiMap((d,), d, s))
