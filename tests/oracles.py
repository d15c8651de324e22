"""Constructions the library no longer uses, kept as test oracles."""

import itertools

import numpy as np

from operaq import channels as ch
from operaq import ideals, linalg, operad, sampling
from operaq import multilinear as ml


def matrix_units(d: int):
    """Yield (k, l, E_kl) over the standard basis of M_d."""
    for k in range(d):
        for l in range(d):
            yield k, l, linalg.matrix_unit(d, k, l)


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
    for k, l, e in matrix_units(d):
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


def layer_assignment(c) -> list:
    """Layer of each box of a circuit: one more than the latest layer among
    the wires it reads, input wires being layer 0."""
    layer = {w: 0 for w in range(c.n_in)}
    box_layer = [None] * len(c.boxes)
    pending = set(range(len(c.boxes)))
    while pending:
        progressed = False
        for k in sorted(pending):
            b = c.boxes[k]
            if all(w in layer for w in b.in_wires):
                lv = 1 + max((layer[w] for w in b.in_wires), default=0)
                box_layer[k] = lv
                layer[c.n_in + k] = lv
                pending.discard(k)
                progressed = True
        assert progressed, "circuit wiring is cyclic"
    return box_layer


def layered_circuit_map(interp, c, in_dims):
    """A circuit's value by the layer-sorted contraction with grouped
    columns: a one-slot map on the joint input space.  The running tensor
    has a (column, row) axis pair per output wire, then one per open wire;
    it starts as the identity, and each box, latest layer first, swaps its
    wire's pair for its inputs' pairs by one matrix product."""
    in_dims = tuple(int(d) for d in in_dims)
    box_layer = layer_assignment(c)
    dim = dict(enumerate(in_dims))
    boxes = []
    for k in sorted(range(len(c.boxes)), key=box_layer.__getitem__):
        mm = interp.action(c.boxes[k].symbol)
        dim[c.n_in + k] = mm.output_operator_dim
        boxes.append((c.n_in + k, c.boxes[k].in_wires, mm))
    k = len(c.out_wires)
    pairs = [dim[w] for w in c.out_wires for _ in "cr"]
    side = int(np.prod(pairs))
    t = np.eye(side, dtype=complex).reshape(pairs * 2)
    live = list(c.out_wires)
    for w, ins, mm in boxes[::-1]:
        at = 2 * (k + live.index(w))
        rest = [i for i in range(t.ndim) if i not in (at, at + 1)]
        shape = [t.shape[i] for i in rest] + [d for d in mm.input_operator_dims for _ in "cr"]
        flat = t.transpose(rest + [at, at + 1]).reshape(-1, mm.action_matrix.shape[0])
        t = (flat @ mm.action_matrix).reshape(shape)
        live.remove(w)
        live += ins
    ends = (range(0, 2 * k, 2), [2 * (k + live.index(w)) for w in range(c.n_in)])
    order = [a + r for axes in ends for r in (0, 1) for a in axes]
    din = int(np.prod(in_dims))
    dout = int(np.prod([dim[w] for w in c.out_wires]))
    return ch.OperatorMultiMap((din,), dout, t.transpose(order).reshape(side, -1))


def partial_evaluation(mm, slot, states) -> np.ndarray:
    """Fix every slot except `slot` at the given states; returns the
    resulting superoperator, shape m^2 x d_slot^2."""
    dims = mm.input_operator_dims
    tensor = mm.action_matrix.reshape((mm.output_operator_dim**2,) + tuple(d * d for d in dims))
    others = [i for i in range(mm.arity) if i != slot]
    # contract from the highest axis down so earlier axis numbers stay valid
    for axis_owner, state in sorted(zip(others, states), key=lambda p: -p[0]):
        tensor = np.tensordot(tensor, linalg.vec(state), axes=([1 + axis_owner], [0]))
    return tensor.reshape(mm.output_operator_dim**2, dims[slot] ** 2)


def mcp_check(mm, tol=1e-10) -> dict:
    """The slotwise CP scan one case at a time: each frozen tuple's partial
    evaluation becomes a one-slot map whose Choi spectrum is read alone."""
    rng = np.random.default_rng(0)
    dims = mm.input_operator_dims
    violations = []
    cases = 0
    for slot in range(mm.arity):
        others = [i for i in range(mm.arity) if i != slot]
        pools = [
            [("maximally-mixed", np.eye(dims[i], dtype=complex) / dims[i])]
            + [(f"projector-{k}", linalg.matrix_unit(dims[i], k, k)) for k in range(dims[i])]
            for i in others
        ]
        tuples = [[]]
        if others:
            tuples = [
                [pools[i][c] for i, c in enumerate(combo)]
                for combo in np.ndindex(*[len(p) for p in pools])
            ]
            for t in range(5):
                drawn = []
                for i in others:
                    d = dims[i]
                    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    state = linalg.dagger(w) @ w
                    drawn.append((f"ginibre-{t}", state / np.trace(state)))
                tuples.append(drawn)
        for labelled in tuples:
            s_mat = partial_evaluation(mm, slot, [s for _, s in labelled])
            sub = ch.OperatorMultiMap((dims[slot],), mm.output_operator_dim, s_mat)
            low = ch.choi_min_eigenvalue(ch.choi_of(sub))
            cases += 1
            if low < -tol:
                violations.append(
                    {"slot": slot, "states": [name for name, _ in labelled], "min_eigenvalue": low}
                )
    return {"passed": not violations, "cases": cases, "violations": violations}


def broadcast_frame(d):
    """The cloning frame as a list of projectors, one outer product each."""
    eye = np.eye(d, dtype=complex)
    pairs = list(itertools.combinations(range(d), 2))
    vectors = list(eye)
    vectors += [(eye[i] + eye[j]) / np.sqrt(2) for i, j in pairs]
    vectors += [(eye[i] + 1j * eye[j]) / np.sqrt(2) for i, j in pairs]
    v1 = np.arange(1, d + 1).astype(complex)
    vectors.append(v1 / np.linalg.norm(v1))
    w = np.exp(2j * np.pi / (d + 1))
    vectors.append(w ** np.arange(d) / np.linalg.norm(w ** np.arange(d)))
    return [np.outer(v, v.conj()) for v in vectors]


def _clone_residual(mm, p) -> float:
    return float(linalg.frobenius(ch.apply_ops(mm, [p]) - np.kron(p, p)))


def max_frame_residual(mm) -> float:
    """The cloning predicate's evidence, one frame state at a time."""
    worst = 0.0
    for p in ideals.broadcast_frame(mm.input_operator_dims[0]):
        worst = max(worst, _clone_residual(mm, p))
    return worst


def clone_witness(mm, trials, seed):
    """clone_pattern_match's witness one state at a time: the first frame or
    sampled pure state whose clone residual exceeds 1e-8, or None."""
    d = mm.input_operator_dims[0]
    rng = np.random.default_rng(seed)
    cases = [(f"frame[{k}]", p) for k, p in enumerate(ideals.broadcast_frame(d))]
    for k in range(trials):
        psi = sampling.random_pure(rng, d)
        cases.append((f"random[{k}]", np.outer(psi, psi.conj())))
    for label, p in cases:
        r = _clone_residual(mm, p)
        if r > 1e-8:
            return {"state": label, "residual": r}
    return None


def _corolla(sym):
    return operad.Apply(sym, tuple(operad.Leaf(i) for i in range(sym.arity)))


def _assigned(interp):
    return [interp.operad[name] for name in sorted(interp.assign)]


def _ginibre_args(rng, n, d):
    return tuple(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n))


def sampled_homomorphism_check(f, interp_a, interp_b, trials=50, seed=0, tol=1e-10):
    """The sampled homomorphism test: f(eval_A([t; a])) against
    eval_B([t; f(a)]) on random decorated terms, even trials a corolla of
    an assigned symbol and odd trials a deeper term."""
    rng = np.random.default_rng(seed)
    d_a, d_b = interp_a.carrier(), interp_b.carrier()
    symbols = _assigned(interp_a)
    worst, witness = 0.0, None
    for trial in range(trials):
        if trial % 2 == 0:
            term = _corolla(symbols[int(rng.integers(len(symbols)))])
        else:
            term = operad.random_term(rng, symbols)
        args = _ginibre_args(rng, operad.arity(term), d_a)
        lhs = ch.apply_ops(f, [operad.evaluate(interp_a, term, args, d_a)])
        rhs = operad.evaluate(interp_b, term, tuple(ch.apply_ops(f, [a]) for a in args), d_b)
        r = float(linalg.frobenius(lhs - rhs))
        worst = max(worst, r)
        if witness is None and r > tol:
            witness = {"term": term, "args": args, "residual": r}
    return {"passed": worst <= tol, "max_residual": worst, "witness": witness}


def sampled_operational_equivalence(phi_a, phi_b, interp, term_trials=25, seed=0, tol=1e-10):
    """The sampled equivalence test: every assigned symbol of arity at most
    two swept over matrix-unit decorations, then random terms (a bare leaf
    among them now and then) with Ginibre decorations, each value pushed
    through both channels."""
    d = interp.carrier()
    units = [e for _, _, e in matrix_units(d)]
    worst, witness = 0.0, None

    def run(term, arg_tuples):
        nonlocal worst, witness
        for args in arg_tuples:
            v = operad.evaluate(interp, term, args, d)
            r = float(linalg.frobenius(ch.channel_apply(phi_a, v) - ch.channel_apply(phi_b, v)))
            worst = max(worst, r)
            if witness is None and r > tol:
                witness = {"term": term, "args": list(args), "residual": r}

    pool = _assigned(interp)
    for sym in pool:
        if sym.arity <= 2:
            run(_corolla(sym), itertools.product(units, repeat=sym.arity))
    rng = np.random.default_rng(seed)
    for _ in range(term_trials):
        term = operad.random_term(rng, pool)
        run(term, [_ginibre_args(rng, operad.arity(term), d)])
    return {"equivalent": worst <= tol, "max_residual": worst, "witness": witness}
