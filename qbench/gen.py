"""Input artifacts for the benchmark, built from the workload seed with
plain numpy.

Nothing here imports operaq: channels come from QR isometries, then Kraus
operators, then Choi matrices, and every artifact is written in the
documented "operaq/1" JSON layout by the small encoders below.  A change to
the program therefore cannot change what it is measured on.

Conventions (the README's): matrices are row-major lists of [re, im]
pairs; vec() stacks columns; a channel's Choi matrix is
C = sum_ij E_ij (x) Phi(E_ij) with factors (input, output); an operator
multimap's action acts on the Kronecker product of the slot vecs.
"""

from __future__ import annotations

import json
import os

import numpy as np

# ---------------------------------------------------------------------------
# encoders


def enc_matrix(m) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    r, c = m.shape
    pairs = np.stack([m.real.ravel(), m.imag.ravel()], axis=-1)
    return {"rows": int(r), "cols": int(c), "data": pairs.tolist()}


def enc_tensor(t) -> dict:
    t = np.asarray(t, dtype=complex)
    pairs = np.stack([t.real.ravel(), t.imag.ravel()], axis=-1)
    return {"shape": [int(s) for s in t.shape], "data": pairs.tolist()}


def enc_choi_channel(choi, din, dout) -> dict:
    return {"in_dim": din, "out_dim": dout, "repr": "choi", "data": enc_matrix(choi)}


def enc_kraus_channel(ops) -> dict:
    m, d = ops[0].shape
    return {"in_dim": d, "out_dim": m, "repr": "kraus", "data": [enc_matrix(k) for k in ops]}


def enc_multimap(dims, out, action) -> dict:
    return {"input_dims": list(dims), "output_dim": out, "action": enc_matrix(action)}


def enc_dilation(images_list, v, factor_dims) -> dict:
    reps = []
    for im in images_list:
        d, c = im.shape[0], im.shape[2]
        reps.append({"algebra_dim": d, "carrier_dim": c, "images": enc_tensor(im)})
    return {
        "reps": reps,
        "isometry": enc_matrix(v),
        "factor_dims": None if factor_dims is None else list(factor_dims),
    }


def enc_spec(symbols) -> dict:
    """symbols: (name, arity) or (name, arity, signature, formal)."""
    gens = []
    for s in symbols:
        entry = {"name": s[0], "arity": s[1], "formal": bool(s[3]) if len(s) > 3 else False}
        if len(s) > 2 and s[2] is not None:
            entry["signature"] = [list(s[2][0]), s[2][1]]
        gens.append(entry)
    return {"generators": gens}


def enc_interp(symbols, assign, carrier) -> dict:
    """assign: name -> (input dims, output dim, action matrix)."""
    return {
        "operad": enc_spec(symbols),
        "assign": {name: enc_multimap(*a) for name, a in assign.items()},
        "carrier_dim": carrier,
    }


def write_json(obj, path) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return path


# ---------------------------------------------------------------------------
# linear algebra of the fixtures


def ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def isometry(rng, rows, cols):
    q, r = np.linalg.qr(ginibre(rng, rows, cols))
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def unitary(rng, d):
    return isometry(rng, d, d)


def kraus_ops(rng, din, dout, rank):
    """rank Kraus operators (dout x din) cut from one QR isometry."""
    if dout * rank < din:
        raise ValueError("a trace-preserving Kraus set needs dout * rank >= din")
    v = isometry(rng, dout * rank, din)
    return [v[a * dout : (a + 1) * dout, :] for a in range(rank)]


def choi(ops):
    """C[(i, o), (j, p)] = sum_k K_k[o, i] conj(K_k[p, j])."""
    cols = np.stack([k.T.reshape(-1) for k in ops], axis=1)
    return cols @ cols.conj().T


def superop(ops):
    """Action on column-stacked vecs: vec(K X K^dag) = (conj(K) (x) K) vec(X)."""
    return sum(np.kron(k.conj(), k) for k in ops)


def grouped_action(ops, dims):
    """Action matrix of (a_1, .., a_n) -> Phi(a_1 (x) .. (x) a_n) for a
    channel Phi on the product space given by its Kraus operators."""
    dims = [int(d) for d in dims]
    n = len(dims)
    m = ops[0].shape[0]
    k = np.stack(ops).reshape([len(ops), m] + dims)
    t = np.einsum(k, [0, 1] + list(range(2, 2 + n)), k.conj(), [0, 2 + n] + list(range(3 + n, 3 + 2 * n)),
                  [1, 2 + n] + [ax for j in range(n) for ax in (2 + j, 3 + n + j)])
    # t axes: (o, p, i_1, j_1, ..., i_n, j_n); vec order is (column, row)
    axes = [1, 0] + [ax for j in range(n) for ax in (3 + 2 * j, 2 + 2 * j)]
    return t.transpose(axes).reshape(m * m, -1)


def transpose_action(d):
    p = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            p[j + i * d, i + j * d] = 1.0
    return p


def ptrace_second_action(d):
    """Action of X -> Tr_2 X on M_d (x) M_d, as a 1-slot map of dim d*d."""
    eye = np.eye(d)
    ops = [np.kron(eye, e.reshape(1, d)) for e in eye]
    return superop(ops)


def mix_action(d):
    """(a, b) -> (tr(b) a + tr(a) b) / 2."""
    va = np.eye(d * d)
    tr = np.eye(d).reshape(-1, order="F")
    return 0.5 * (np.kron(va, tr[None, :]) + np.kron(tr[None, :], va))


def matrix_units(d):
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1.0
            yield k, l, e


def heisenberg_dilation(ops):
    """V = sum_a K_a (x) e_a, with M_out acting as a (x) I_r."""
    r = len(ops)
    m, d = ops[0].shape
    v = np.zeros((m * r, d), dtype=complex)
    for a, k in enumerate(ops):
        v[a::r, :] = k
    images = np.zeros((m, m, m * r, m * r), dtype=complex)
    for k, l, e in matrix_units(m):
        images[k, l] = np.kron(e, np.eye(r))
    return [images], v, [m * r]


def pad_dilation(images_list, v, extra):
    e0 = np.zeros((extra, 1))
    e0[0, 0] = 1.0
    v_pad = np.kron(v, e0)
    padded = []
    for im in images_list:
        d, c = im.shape[0], im.shape[2]
        out = np.zeros((d, d, c * extra, c * extra), dtype=complex)
        for k in range(d):
            for l in range(d):
                out[k, l] = np.kron(im[k, l], np.eye(extra))
        padded.append(out)
    return padded, v_pad, None


def rotate_carrier(images_list, v, w):
    """The same dilation in another carrier basis: pi(a) -> W pi(a) W^dag,
    V -> W V.  Every entry becomes dense."""
    wh = w.conj().T
    return [w @ im @ wh for im in images_list], w @ v


def separable_dilation(rng, algebra_dims, mults, source_dim):
    factors = [d * r for d, r in zip(algebra_dims, mults)]
    carrier = int(np.prod(factors))
    images_list = []
    for j, (d, r) in enumerate(zip(algebra_dims, mults)):
        left = int(np.prod(factors[:j]))
        right = int(np.prod(factors[j + 1 :]))
        im = np.zeros((d, d, carrier, carrier), dtype=complex)
        for k, l, e in matrix_units(d):
            im[k, l] = np.kron(np.kron(np.eye(left), np.kron(e, np.eye(r))), np.eye(right))
        images_list.append(im)
    return images_list, isometry(rng, carrier, source_dim), factors


# ---------------------------------------------------------------------------
# per-workload fixture sets


class Fixtures(dict):
    """Artifact paths and the arrays they were written from."""

    def __init__(self, workdir):
        super().__init__()
        self.workdir = workdir

    def put(self, name, obj, **data):
        path = write_json(obj, os.path.join(self.workdir, name + ".json"))
        self[name] = {"path": path, **data}
        return path


def comb_term(kind, n, labels):
    """Binary tree with n leaves: left comb, right comb or balanced."""

    def build(lo, hi):
        if hi - lo == 1:
            return {"slot": int(labels[lo])}
        if kind == "left":
            mid = hi - 1
        elif kind == "right":
            mid = lo + 1
        else:
            mid = (lo + hi) // 2
        return {"op": "f", "args": [build(lo, mid), build(mid, hi)]}

    return build(0, n)


def dilation_fixtures(rng, fx: Fixtures):
    d8 = kraus_ops(rng, 8, 8, 4)
    fx.put("ch8_choi", enc_choi_channel(choi(d8), 8, 8), kraus=d8)
    # high Kraus rank: the minimal dilation keeps 56 of 64 possible carrier dimensions
    f8 = kraus_ops(rng, 8, 8, 7)
    fx.put("ch8_rank7", enc_choi_channel(choi(f8), 8, 8), kraus=f8)
    e8 = kraus_ops(rng, 8, 8, 3)
    fx.put("ch8_kraus", enc_kraus_channel(e8), kraus=e8)
    t8 = transpose_action(8)
    fx.put("transpose8", enc_multimap((8,), 8, t8), action=t8, out=8, dims=(8,))
    nan = choi(kraus_ops(rng, 2, 2, 2))
    nan[0, 1] = np.nan
    fx.put("nan_choi", enc_choi_channel(nan, 2, 2))

    d6 = kraus_ops(rng, 6, 6, 3)
    ims, v, _ = heisenberg_dilation(d6)
    pims, pv, _ = pad_dilation(ims, v, 3)
    fx.put("dil6_padded", enc_dilation(pims, pv, None), kraus=d6)
    fx.put("dil6_min", enc_dilation(ims, v, [6 * 3]), kraus=d6, v=v)
    u = unitary(rng, 3)
    remixed = [sum(u[b, a] * d6[a] for a in range(3)) for b in range(3)]
    rims, rv, _ = heisenberg_dilation(remixed)
    oims, ov, _ = pad_dilation(rims, rv, 2)
    fx.put("dil6_other", enc_dilation(oims, ov, None), images=oims, v=ov)

    # padded, then turned by a random carrier unitary: dense entries make
    # an 11.6 MB artifact out of 64 images of side 64
    z8 = kraus_ops(rng, 8, 8, 4)
    ims, v, _ = heisenberg_dilation(z8)
    zims, zv, _ = pad_dilation(ims, v, 2)
    zims, zv = rotate_carrier(zims, zv, unitary(rng, zv.shape[0]))
    fx.put("dil8_padded", enc_dilation(zims, zv, None), v=zv)

    for name, dims, mults, src in (("sep222", (2, 2, 2), (1, 1, 1), 3), ("sep33", (3, 3), (1, 2), 4)):
        ims, v, factors = separable_dilation(rng, dims, mults, src)
        fx.put(name, enc_dilation(ims, v, factors), images=ims, v=v)

    dims, out = (4, 3, 5), 6
    mat = ginibre(rng, out, int(np.prod(dims)))
    fx.put("mlmap", {"input_dims": list(dims), "output_dim": out, "matrix": enc_matrix(mat),
                     "field": "complex"}, matrix=mat, dims=dims)
    u_, x_, y_ = 5, 6, 4
    fm = ginibre(rng, y_ + x_, u_ + x_)
    block = fm[y_:, u_:]
    fm[y_:, u_:] = block * (0.6 / np.linalg.norm(block, 2))
    fx.put("feedback", {"map": {"input_dims": [u_ + x_], "output_dim": y_ + x_,
                                "matrix": enc_matrix(fm), "field": "complex"},
                        "input_split": [u_, x_], "output_split": [y_, x_]},
           matrix=fm, split=(u_, x_, y_))


def random_interp(rng, binary: bool, d: int = 2):
    """Interpretation with id, two random unary channels and, when binary,
    a bilinear map from a random channel on the product space."""
    syms = [("id", 1), ("g", 1), ("h", 1)]
    g = kraus_ops(rng, d, d, 2)
    h = kraus_ops(rng, d, d, 3)
    assign = {
        "id": ((d,), d, np.eye(d * d, dtype=complex)),
        "g": ((d,), d, superop(g)),
        "h": ((d,), d, superop(h)),
    }
    if binary:
        syms.append(("f", 2))
        assign["f"] = ((d, d), d, grouped_action(kraus_ops(rng, d * d, d, 3), (d, d)))
    return syms, assign


def conjugated(assign, w):
    """The interpretation transported along x -> W x W^dag."""
    s = np.kron(w.conj(), w)
    sh = s.conj().T
    out = {}
    for name, (dims, m, a) in assign.items():
        out[name] = (dims, m, s @ a @ _kron_all([sh] * len(dims)))
    return out


def _kron_all(mats):
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def algebra_fixtures(rng, fx: Fixtures):
    fx.put("spec", enc_spec([("a", 1), ("b", 2), ("c", 3)]))
    syms, assign = random_interp(rng, binary=True)
    fx.put("interp_bin", enc_interp(syms, assign, 2), assign=assign)

    usyms, uassign = random_interp(rng, binary=False, d=3)
    fx.put("interp_un", enc_interp(usyms, uassign, 3), assign=uassign)
    w = unitary(rng, 3)
    wassign = conjugated(uassign, w)
    fx.put("interp_un_w", enc_interp(usyms, wassign, 3), assign=wassign)
    fx.put("conj_w", enc_multimap((3,), 3, np.kron(w.conj(), w)), action=np.kron(w.conj(), w))

    a = kraus_ops(rng, 3, 3, 3)
    fx.put("opq_a", enc_choi_channel(choi(a), 3, 3), kraus=a)
    u = unitary(rng, 3)
    remixed = [sum(u[b, k] * a[k] for k in range(3)) for b in range(3)]
    fx.put("opq_a_remixed", enc_kraus_channel(remixed), kraus=remixed)
    b = kraus_ops(rng, 3, 3, 3)
    fx.put("opq_b", enc_choi_channel(choi(b), 3, 3), kraus=b)

    for kind in ("left", "right", "balanced"):
        labels = rng.permutation(6)
        term = comb_term(kind, 6, labels)
        fx.put(f"term6_{kind}", term, term=term)

    for d, r in ((4, 4), (5, 3)):
        ks = kraus_ops(rng, d, d, r)
        fx.put(f"circ{d}", enc_choi_channel(choi(ks), d, d), kraus=ks)

    dk = 6
    ksyms, kassign = random_interp(rng, binary=False, d=dk)
    fx.put("interp_k", enc_interp(ksyms, kassign, dk))
    for name in ("kron_a", "kron_b"):
        ks = kraus_ops(rng, dk, dk, 2)
        fx.put(name, enc_choi_channel(choi(ks), dk, dk), kraus=ks)


def nogo_fixtures(rng, fx: Fixtures):
    fx.put("ideal", {"name": "non-isometric-ops", "predicate": "non-isometric",
                     "members": [], "non_members": []})
    for d, name in ((2, "pool2"), (3, "pool3")):
        pool, kinds = [], []
        for r in (2, 3, 2, 4):
            pool.append(enc_choi_channel(choi(kraus_ops(rng, d, d, r)), d, d))
            kinds.append("channel")
        pool.append(enc_kraus_channel([unitary(rng, d)]))
        kinds.append("unitary")
        pool.append(enc_multimap((d * d,), d, ptrace_second_action(d)))
        kinds.append("partial-trace")
        pool.append(enc_multimap((d, d), d, grouped_action(kraus_ops(rng, d * d, d, 3), (d, d))))
        kinds.append("bilinear")
        if d == 2:
            pool.append(enc_multimap((d, d), d, mix_action(d)))
            kinds.append("mix")
        fx.put(name, {"pool": pool}, kinds=kinds)

    member = kraus_ops(rng, 3, 3, 2)
    fx.put("member", enc_choi_channel(choi(member), 3, 3), kraus=member)
    u3 = unitary(rng, 3)
    fx.put("non_member", enc_kraus_channel([u3]), kraus=[u3])

    syms, assign = random_interp(rng, binary=True)
    syms = syms + [("u", 1)]
    assign["u"] = ((2,), 2, superop([unitary(rng, 2)]))
    fx.put("q_interp", enc_interp(syms, assign, 2), assign=assign)
    bottoms = [(f"bottom[{n}x2->2]", n, ((2,) * n, 2), True) for n in (1, 2, 3)]
    fx.put("q_interp_bottom", enc_interp(syms + bottoms, assign, 2))
    labels = rng.permutation(3)
    term = {"op": "u", "args": [{"op": "f", "args": [
        {"op": "h", "args": [{"slot": int(labels[0])}]},
        {"op": "f", "args": [{"slot": int(labels[1])}, {"op": "u", "args": [{"slot": int(labels[2])}]}]},
    ]}]}
    fx.put("q_term", term, term=term)

    # a linear would-be cloner: append a fixed ancilla, then scramble
    w = unitary(rng, 4)
    clone_action = superop([w @ np.kron(np.eye(2), np.eye(2)[:, :1])])
    fx.put("clone_interp", enc_interp([("pair", 1, ((2,), 4))], {"pair": ((2,), 4, clone_action)}, None),
           action=clone_action)
    fx.put("clone_term", {"op": "pair", "args": [{"slot": 0}]})

    bil = grouped_action(kraus_ops(rng, 9, 3, 4), (3, 3))
    fx.put("bilinear3", enc_multimap((3, 3), 3, bil), action=bil, out=3, dims=(3, 3))


GENERATORS = {
    "dilation": dilation_fixtures,
    "algebra": algebra_fixtures,
    "nogo": nogo_fixtures,
}


def generate(workload: str, seed: int, workdir: str) -> Fixtures:
    index = sorted(GENERATORS).index(workload)
    rng = np.random.default_rng([seed, index])
    fx = Fixtures(workdir)
    GENERATORS[workload](rng, fx)
    return fx
