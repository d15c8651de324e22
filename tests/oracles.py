"""Constructions the library no longer uses, kept as test oracles."""

import numpy as np

from operaq import channels as ch
from operaq import linalg
from operaq import multilinear as ml


def factor_permutation_index(dims, perm) -> np.ndarray:
    """Index array src of the factor permutation P, (P x)[i] = x[src[i]],
    where P(x_1 (x) ... (x) x_n) has old factor perm[k] at new position k."""
    dims = [int(d) for d in dims]
    perm = [int(p) for p in perm]
    assert sorted(perm) == list(range(len(dims)))
    return np.arange(int(np.prod(dims))).reshape(dims).transpose(perm).ravel()


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


def permutation_matrix(src: np.ndarray) -> np.ndarray:
    p = np.zeros((src.size, src.size))
    p[np.arange(src.size), src] = 1.0
    return p


def factor_permutation(dims, perm) -> np.ndarray:
    """Dense matrix of factor_permutation_index."""
    return permutation_matrix(factor_permutation_index(dims, perm))


def mingle(dims) -> np.ndarray:
    """Dense matrix of mingle_index."""
    return permutation_matrix(mingle_index(dims))


def superop_to_choi(s: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    d, m = in_dim, out_dim
    return s.reshape(m, m, d, d).transpose(3, 1, 2, 0).reshape(d * m, d * m)


def choi_to_superop(choi: np.ndarray, in_dim: int, out_dim: int) -> np.ndarray:
    d, m = in_dim, out_dim
    return choi.reshape(d, m, d, m).transpose(3, 1, 2, 0).reshape(m * m, d * d)


def superop_of(chan) -> np.ndarray:
    """The vec-side matrix of a channel, acting on vec of its input space."""
    return choi_to_superop(chan.choi, chan.in_dim, chan.out_dim)


def grouped_channel(mm):
    """Choi matrix of a multimap with its slots grouped: the action times the
    dense mingle, read as a superoperator on the product space."""
    dims = mm.input_operator_dims
    din = int(np.prod(dims)) if dims else 1
    s = mm.action_matrix @ mingle(dims).T
    return ch.QuantumChannel(din, mm.output_operator_dim, superop_to_choi(s, din, mm.output_operator_dim))


def sigma_multimap(mm, perm):
    """Slot permutation by the dense factor permutation of the vec slots."""
    new_dims = [0] * mm.arity
    for pos, target in enumerate(perm):
        new_dims[target] = mm.input_operator_dims[pos]
    p = factor_permutation(tuple(nd * nd for nd in new_dims), perm)
    return ch.OperatorMultiMap(tuple(new_dims), mm.output_operator_dim, mm.action_matrix @ p)


def multilinear_choi(mm) -> np.ndarray:
    """Choi matrix of a multimap with the output factor first, factors
    (output, input_1, ..., input_n): the action matrix split into (column,
    row) axes per factor, with its row axes moved in front."""
    dims = mm.input_operator_dims
    m = mm.output_operator_dim
    side = m * int(np.prod(dims))
    t = mm.action_matrix.reshape([m, m] + [d for d in dims for _ in range(2)])
    rows = list(range(1, t.ndim, 2))
    cols = list(range(0, t.ndim, 2))
    return t.transpose(rows + cols).reshape(side, side)


def superop_kron(superops, dims_in, dims_out):
    """Joint vec-side matrix of a tensor product of operator maps.

    superops[i] sends vec(M_{dims_in[i]}) to vec(M_{dims_out[i]}); the result
    acts on vec of the joint operator space M_{prod dims_in}.  It equals
    mingle(dims_out) @ kron_all(superops) @ mingle(dims_in).T.
    """
    gather = np.ix_(mingle_index(dims_out), mingle_index(dims_in))
    return linalg.kron_all(superops)[gather]


def factor_representation(d, multiplicity, left_dim=1, right_dim=1):
    """a -> I_left (x) (a (x) I_mult) (x) I_right, one matrix unit at a time."""
    carrier = left_dim * d * multiplicity * right_dim
    images = np.zeros((d, d, carrier, carrier), dtype=complex)
    il = np.eye(left_dim, dtype=complex)
    im = np.eye(multiplicity, dtype=complex)
    ir = np.eye(right_dim, dtype=complex)
    for k, l, e in linalg.matrix_units(d):
        images[k, l] = linalg.kron_all([il, e, im, ir])
    return ch.StarRepresentation(d, carrier, images)


def pad_dilation(dil, extra_dim):
    """An unused environment factor attached one matrix unit at a time."""
    e0 = linalg.basis_vector(extra_dim, 0).reshape(extra_dim, 1)
    v = linalg.kron(dil.isometry, e0)
    reps = []
    for rep in dil.reps:
        d, c = rep.algebra_dim, rep.carrier_dim
        images = np.zeros((d, d, c * extra_dim, c * extra_dim), dtype=complex)
        for k in range(d):
            for l in range(d):
                images[k, l] = linalg.kron(rep.images[k, l], np.eye(extra_dim))
        reps.append(ch.StarRepresentation(d, c * extra_dim, images))
    return ch.MultilinearDilation(tuple(reps), v, None)


def decomposition_apply(decomp, mats):
    """Phi(x_1..x_n) as the sum over alpha of outer(T_alpha(lead), L_alpha(tail)),
    one Kraus-tensor index at a time."""
    lead = linalg.kron_vectors([linalg.vec(x) for x in mats[:-1]])
    tail = linalg.vec(mats[-1])
    m = decomp.t.shape[1]
    out = np.zeros((m, m), dtype=complex)
    for t_alpha, l_alpha in zip(decomp.t, decomp.l):
        out += np.outer(t_alpha @ lead, l_alpha @ tail)
    return out


def n_adjoint(decomp):
    """The n-adjoint assembled from the Kraus-tensor factors: at G = E_ab,
    whose vec index is b*m + a, and lead units u the Riesz matrix has vec
    conj(sum_alpha T_alpha[a, u] L_alpha[b, :])."""
    dims = decomp.input_operator_dims
    m = decomp.t.shape[1]
    action = np.einsum("zau,zbx->xbau", decomp.t, decomp.l).reshape(dims[-1] ** 2, -1)
    return ch.OperatorMultiMap((m,) + dims[:-1], dims[-1], np.conj(action))


def contravariant_residual(psi, parts) -> float:
    """The adjoint-of-composite identity swept over basis tuples: LHS
    evaluates [Psi o (Phi_...)]^dag directly, RHS routes the functional
    through Psi^dag first and the last part's adjoint second, with the
    leading parts evaluated on the parameter block."""
    parts = list(parts)
    theta_adj = ml.adjoint(ml.compose(psi, parts))
    psi_adj = ml.adjoint(psi)
    last = parts[-1]
    last_adj = ml.adjoint(last)

    m_out = psi.output_dim
    lead_blocks = [p.input_dims for p in parts[:-1]]
    last_lead = last.input_dims[:-1]
    eval_dim = last.input_dims[-1]

    flat_dims = [d for block in lead_blocks for d in block] + list(last_lead)
    worst = 0.0
    for i0 in range(m_out):
        w = linalg.basis_vector(m_out, i0)
        for multi in np.ndindex(*flat_dims) if flat_dims else [()]:
            gs = [linalg.basis_vector(d, i) for d, i in zip(flat_dims, multi)]
            y_adj = ml.adjoint_apply(theta_adj, w, gs)
            pos = 0
            ys = []
            for p, block in zip(parts[:-1], lead_blocks):
                ys.append(ml.apply(p, gs[pos : pos + len(block)]))
                pos += len(block)
            beta = ml.adjoint_apply(psi_adj, w, ys)
            r = ml.adjoint_apply(last_adj, beta, gs[pos:])
            for t in range(eval_dim):
                x = linalg.basis_vector(eval_dim, t)
                lhs = ml.functional_value(y_adj, x)
                rhs = ml.functional_value(r, x)
                worst = max(worst, abs(lhs - rhs))
    return worst


def intertwining_residual(u, d_min, d_other) -> float:
    """max |U pi_min(E_kl) - pi_other(E_kl) U| one matrix unit at a time."""
    return max(
        float(np.max(np.abs(u @ rm.images[k, l] - ro.images[k, l] @ u)))
        for rm, ro in zip(d_min.reps, d_other.reps)
        for k in range(rm.algebra_dim)
        for l in range(rm.algebra_dim)
    )
