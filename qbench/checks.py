"""Output checks, one per operation, computed apart from operaq.

Every check reads the report as plain JSON and recomputes what the report
claims from the arrays the fixtures were generated from (gen.py), with
numpy only: eigenvalues and partial traces for CP/TP verdicts, Kraus sums
for reconstructions, a recursive tree contraction for term evaluation, a
projector formula for the broadcast residual, and so on.  A check returns
None when the report is right and a one-line reason when it is not.
"""

from __future__ import annotations

import zlib

import numpy as np

TIGHT = 1e-9


class Mismatch(Exception):
    pass


def need(cond, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


# ---------------------------------------------------------------------------
# decoding and small linear algebra, independent of operaq


def dec_matrix(obj) -> np.ndarray:
    a = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (a[:, 0] + 1j * a[:, 1]).reshape(obj["rows"], obj["cols"])


def dec_tensor(obj) -> np.ndarray:
    a = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (a[:, 0] + 1j * a[:, 1]).reshape(obj["shape"])


def vec(x) -> np.ndarray:
    return np.asarray(x).reshape(-1, order="F")


def unvec(v, d) -> np.ndarray:
    return np.asarray(v).reshape(d, -1, order="F")


def apply_action(action, out_dim, mats) -> np.ndarray:
    col = np.ones(1, dtype=complex)
    for m in mats:
        col = np.kron(col, vec(m))
    return unvec(action @ col, out_dim)


def kraus_apply(ops, x) -> np.ndarray:
    return sum(k @ x @ k.conj().T for k in ops)


def choi_by_definition(apply, d) -> np.ndarray:
    """C = sum_ij E_ij (x) Phi(E_ij), factors (input, output)."""
    blocks = []
    for i in range(d):
        row = []
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            row.append(apply(e))
        blocks.append(row)
    return np.block(blocks)


def kraus_choi(ops) -> np.ndarray:
    return choi_by_definition(lambda e: kraus_apply(ops, e), ops[0].shape[1])


def rank(m, rel=1e-10) -> int:
    vals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return int(np.sum(vals > rel * max(1.0, vals[-1])))


def op_norm(m) -> float:
    return float(np.linalg.norm(m, 2))


def rng_for(op) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(op.name.encode()))


def rand_matrix(rng, d) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def close(a, b, tol, what) -> None:
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0
    scale = max(1.0, float(np.max(np.abs(b))) if np.size(b) else 1.0)
    need(err <= tol * scale, f"{what}: off by {err:.3e}")


def fixture(fx, op, k=0) -> dict:
    return fx[op.inputs[k]]


def result(rep) -> dict:
    need("result" in rep, f"no result in report: {rep.get('error')}")
    return rep["result"]


# ---------------------------------------------------------------------------
# channels side


def cp_verdict(op, code, rep, fx):
    f = fixture(fx, op)
    c = kraus_choi(f["kraus"]) if "kraus" in f else multimap_choi(f["action"], f["out"], f["dims"])
    low = float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])
    r = result(rep)
    cp = low >= -1e-10
    need(r["cp"] is cp, f"cp verdict {r['cp']}, min eigenvalue is {low:.3e}")
    need(abs(r["min_eigenvalue"] - low) <= 1e-8, f"min eigenvalue {r['min_eigenvalue']} != {low}")
    if len(f.get("dims", ())) >= 2:
        need(r["slotwise"]["passed"] is cp and r["slotwise"]["cases"] > 0, "slotwise scan")
    need(code == (0 if cp else 1), f"exit {code} for cp={cp}")


def tp_verdict(op, code, rep, fx):
    ops = fixture(fx, op)["kraus"]
    defect = float(np.max(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(ops[0].shape[1]))))
    r = result(rep)
    need(r["tp"] is (defect <= 1e-10), f"tp verdict {r['tp']}, defect {defect:.3e}")
    need(abs(r["defect"] - defect) <= 1e-9, f"defect {r['defect']} != {defect}")
    need(code == (0 if defect <= 1e-10 else 1), f"exit {code}")


def kraus_report(op, code, rep, fx):
    ops = fixture(fx, op)["kraus"]
    r = result(rep)
    got = [dec_matrix(m) for m in r["channel"]["data"]]
    need(r["channel"]["repr"] == "kraus", "channel is not in Kraus form")
    close(sum(k.conj().T @ k for k in got), np.eye(ops[0].shape[1]), TIGHT, "sum K^dag K - I")
    close(kraus_choi(got), kraus_choi(ops), TIGHT, "Choi of the reported Kraus set")
    need(r["kraus_rank"] == len(got) == rank(kraus_choi(ops)), f"kraus rank {r['kraus_rank']}")


def choi_report(op, code, rep, fx):
    ops = fixture(fx, op)["kraus"]
    r = result(rep)
    need(r["channel"]["repr"] == "choi", "channel is not in Choi form")
    close(dec_matrix(r["channel"]["data"]), kraus_choi(ops), TIGHT, "Choi matrix")


def dilate_report(op, code, rep, fx):
    ops = fixture(fx, op)["kraus"]
    r = result(rep)
    v = dec_matrix(r["dilation"]["isometry"])
    env = r["dilation"]["env_dim"]
    m, d = ops[0].shape
    close(v.conj().T @ v, np.eye(d), TIGHT, "V^dag V - I")
    # rows of V are (output, environment); each environment level is a Kraus operator
    got = [v[e::env, :] for e in range(env)]
    close(kraus_choi(got), kraus_choi(ops), TIGHT, "channel of the reported isometry")
    need(env == r["env_dim"] == rank(kraus_choi(ops)), f"env_dim {env}")
    need(r["reconstruction_error"] <= TIGHT, "reconstruction error")


def minimal_report(op, code, rep, fx):
    ops = fixture(fx, op)["kraus"]
    r = result(rep)
    m = ops[0].shape[0]
    want = m * rank(kraus_choi(ops))
    need(r["carrier_dim"] == want, f"carrier_dim {r['carrier_dim']} != out_dim * rank = {want}")
    dil = r["dilation"]
    v = dec_matrix(dil["isometry"])
    images = dec_tensor(dil["reps"][0]["images"])
    need(v.shape[0] == want and images.shape[2] == want, "compressed carrier has the wrong size")
    close(v.conj().T @ v, np.eye(v.shape[1]), TIGHT, "V^dag V - I")
    rng = rng_for(op)
    for _ in range(3):
        a = rand_matrix(rng, m)
        got = v.conj().T @ np.einsum("kl,klxy->xy", a, images) @ v
        close(got, sum(k.conj().T @ a @ k for k in ops), 1e-8, "compressed dilation map")


def intertwine_report(op, code, rep, fx):
    v_min = fixture(fx, op, 0)["v"]
    v_oth = fixture(fx, op, 1)["v"]
    r = result(rep)
    u = dec_matrix(r["intertwiner"])
    need(u.shape == (v_oth.shape[0], v_min.shape[0]), f"intertwiner shape {u.shape}")
    close(u @ v_min, v_oth, 1e-8, "U V_min - V_other")
    close(u.conj().T @ u, np.eye(u.shape[1]), 1e-8, "U^dag U - I")
    need(max(r["generator_residual"], r["intertwining_residual"]) <= 1e-8, "residuals")


def zigzag_report(op, code, rep, fx):
    v = fixture(fx, op)["v"]
    defect = op_norm(v.conj().T @ v - np.eye(v.shape[1]))
    r = result(rep)
    need(r["isometric"] is True, "isometric flag")
    need(abs(r["isometry_defect"] - defect) <= TIGHT, f"isometry defect {r['isometry_defect']}")
    need(r["zigzag_defect"] <= TIGHT, f"zigzag defect {r['zigzag_defect']}")


def nadjoint_report(op, code, rep, fx):
    f = fixture(fx, op)
    images, v = f["images"], f["v"]
    dims = [im.shape[0] for im in images]
    m = v.shape[1]
    r = result(rep)
    adj = r["adjoint"]
    need(adj["input_dims"] == [m] + dims[:-1] and adj["output_dim"] == dims[-1], "adjoint profile")
    action = dec_matrix(adj["action"])
    rng = rng_for(op)
    for _ in range(5):
        g = rand_matrix(rng, m)
        fs = [rand_matrix(rng, d) for d in dims[:-1]]
        x = rand_matrix(rng, dims[-1])
        acc = v
        for im, a in zip(reversed(images), reversed(fs + [x])):
            acc = np.einsum("kl,klxy->xy", a, im) @ acc
        direct = np.trace(g.conj().T @ (v.conj().T @ acc))
        y = apply_action(action, dims[-1], [g] + [fm.conj() for fm in fs])
        paired = np.trace(y.conj().T @ x)
        need(abs(direct - paired) <= 1e-8 * max(1.0, abs(direct)), "n-adjoint pairing identity")
    need(r["pairing_residual"] <= 1e-8, "pairing residual")


def adjoint_report(op, code, rep, fx):
    f = fixture(fx, op)
    mat, dims = f["matrix"], f["dims"]
    out = mat.shape[0]
    r = result(rep)
    adj = r["adjoint"]
    need(adj["input_dims"] == [out] + list(dims[:-1]) and adj["output_dim"] == dims[-1], "profile")
    g = dec_matrix(adj["matrix"])
    rng = rng_for(op)
    for _ in range(5):
        fv = rng.standard_normal(out) + 1j * rng.standard_normal(out)
        us = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        col = np.ones(1, dtype=complex)
        for u in us:
            col = np.kron(col, u)
        lhs = np.vdot(fv, mat @ col)  # <Phi(u_1..u_n), f>
        arg = fv
        for u in us[:-1]:
            arg = np.kron(arg, u.conj())
        rhs = np.vdot(g @ arg, us[-1])  # <x_n, Phi^dag(f, u_1..u_{n-1})>
        need(abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), "adjoint pairing identity")
    need(r["double_adjoint_residual"] <= 1e-12, "double adjoint residual")


def feedback_report(op, code, rep, fx):
    f = fixture(fx, op)
    m = f["matrix"]
    u, x, y = f["split"]
    a, b, c, d = m[:y, :u], m[:y, u:], m[y:, :u], m[y:, u:]
    want = a + b @ np.linalg.solve(np.eye(x) - d, c)
    r = result(rep)
    close(dec_matrix(r["closed_map"]["matrix"]), want, 1e-10, "closed loop map")
    need(abs(r["loop_gain"] - op_norm(d)) <= 1e-10, "loop gain")
    need(r["well_posed"] is True and r["picard_deviation"] <= 1e-8, "well posed / picard")


def error_report(op, code, rep, fx):
    need(isinstance(rep.get("error"), str) and rep["error"], "no error message in the report")


# ---------------------------------------------------------------------------
# algebra side


def law_report(op, code, rep, fx):
    r = result(rep)
    need(r["passed"] is True, "law suite did not pass")
    need(r["trials"] == dict(op.tols)["trials"], "trial count")
    if "violations" in r:
        need(r["violations"] == [] and r["checks"] > 0, "violations")
    else:
        need(r["unit_max_deviation"] == 0.0, "unit law")
        need(r["multiplication_max_residual"] <= 1e-10, "multiplication law")


def monad_law_report(op, code, rep, fx):
    r = result(rep)
    trials = dict(op.tols)["trials"]
    need(r["passed"] is True and r["violations"] == [], "monad laws violated")
    need(r["checks"] == 3 * trials, f"{r['checks']} checks for {trials} trials, expected 3 each")


def _kron_all(mats):
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def homcheck_report(op, code, rep, fx):
    s_f = fixture(fx, op, 0)["action"]
    alg_a = fixture(fx, op, 1)["assign"]
    alg_b = fixture(fx, op, 2)["assign"]
    # f is a homomorphism iff it commutes with every symbol's action
    comm = max(
        float(np.linalg.norm(s_f @ alg_a[name][2] - alg_b[name][2] @ _kron_all([s_f] * len(dims))))
        for name, (dims, _, _) in alg_a.items()
    )
    hom = comm <= 1e-8
    r = result(rep)
    need(r["passed"] is hom, f"homcheck verdict {r['passed']}, commutator {comm:.3e}")
    need((r["witness"] is None) is hom, "witness presence")
    if not hom:
        need(r["witness"]["residual"] > r["tol"], "witness residual")
    need(code == (0 if hom else 1), f"exit {code}")


def opequiv_report(op, code, rep, fx):
    ca = kraus_choi(fixture(fx, op, 0)["kraus"])
    cb = kraus_choi(fixture(fx, op, 1)["kraus"])
    diff = float(np.linalg.norm(ca - cb))
    same = diff <= 1e-8
    r = result(rep)
    need(r["equivalent"] is same, f"opequiv verdict {r['equivalent']}, Choi difference {diff:.3e}")
    need((r["witness"] is None) is same, "witness presence")
    need(code == (0 if same else 1), f"exit {code}")


def _contract(node, assign, decorations):
    if "slot" in node:
        return decorations[node["slot"]]
    dims, out, action = assign[node["op"]]
    kids = [_contract(c, assign, decorations) for c in node["args"]]
    return apply_action(action, out, kids)


def term_eval_report(op, code, rep, fx):
    assign = fixture(fx, op, 0)["assign"]
    term = fixture(fx, op, 1)["term"]
    r = result(rep)
    mm = r["multimap"]
    n = len(mm["input_dims"])
    action = dec_matrix(mm["action"])
    rng = rng_for(op)
    for _ in range(3):
        xs = [rand_matrix(rng, d) for d in mm["input_dims"]]
        want = _contract(term, assign, xs)
        close(apply_action(action, mm["output_dim"], xs), want, 1e-9, "term value")
    need(n == 6, f"arity {n}")


def circuit_report(op, code, rep, fx):
    ops = fixture(fx, op)["kraus"]
    r = result(rep)
    names = [b["op"] for b in r["circuit"]["boxes"]]
    need(names == ["prep_env", "joint_unitary", "trace_env"], f"boxes {names}")
    boxes = {k: (b["output_dim"], dec_matrix(b["action"])) for k, b in r["boxes"].items()}
    anc, prep_action = boxes["prep_env"]
    prep = unvec(prep_action[:, 0], anc)
    big, joint = boxes["joint_unitary"]
    m, trace = boxes["trace_env"]

    def realized(x):
        return apply_action(trace, m, [apply_action(joint, big, [x, prep])])

    d = ops[0].shape[1]
    close(choi_by_definition(realized, d), kraus_choi(ops), 1e-9, "composed circuit channel")
    need(r["reconstruction_error"] <= 1e-9, "reconstruction error")


def monoidal_report(op, code, rep, fx):
    r = result(rep)
    need(r["passed"] is True and r["max_residual"] <= 1e-10, "monoidal compatibility")
    need(r["trials"] == dict(op.tols)["trials"], "trial count")


# ---------------------------------------------------------------------------
# no-go side


def closure_report(op, code, rep, fx):
    # everything in the pools but the unitary has more than one Kraus operator
    has_member = any(k != "unitary" for k in fixture(fx, op, 1)["kinds"])
    r = result(rep)
    trials = dict(op.tols)["trials"]
    need(bool(r.get("vacuous", False)) is not has_member, "vacuous verdict")
    need(r["passed"] is True and r["violations"] == [], "closure violated")
    need(r["checks"] + r["skipped"] == trials and r["checks"] > 0, "check count")
    need("sampled" in r["note"], "sampling note")


def _frame(d):
    """Basis states, then real and imaginary two-level superpositions,
    then two dense vectors: the README's deterministic pure-state frame."""
    vs = list(np.eye(d, dtype=complex))
    for phase in (1.0, 1.0j):
        for i in range(d):
            for j in range(i + 1, d):
                e = np.zeros(d, dtype=complex)
                e[i], e[j] = 1.0, phase
                vs.append(e / np.sqrt(2))
    v1 = np.arange(1, d + 1).astype(complex)
    v2 = np.exp(2j * np.pi / (d + 1)) ** np.arange(d)
    vs += [v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)]
    return [np.outer(v, v.conj()) for v in vs]


def _ptrace_superops(d):
    eye = np.eye(d)
    t_first = sum(np.kron(k.conj(), k) for k in (np.kron(e.reshape(1, d), eye) for e in eye))
    t_second = sum(np.kron(k.conj(), k) for k in (np.kron(eye, e.reshape(1, d)) for e in eye))
    return t_first, t_second


def broadcast_residuals(d):
    """min over linear L of || G L P - Z ||_F, where P stacks vec of the
    frame states, G = [I; T_1; T_2] and Z = [vec(P (x) P); P; P], from the
    range projector of G and the row-space projector of P.  Returns the full
    residual and the marginal-only one (G = [T_1; T_2])."""
    states = _frame(d)
    p = np.stack([vec(s) for s in states], axis=1)
    y = np.stack([vec(np.kron(s, s)) for s in states], axis=1)
    t1, t2 = _ptrace_superops(d)
    row_proj = np.linalg.pinv(p) @ p
    out = []
    for g, z in (
        (np.vstack([np.eye(d ** 4), t1, t2]), np.vstack([y, p, p])),
        (np.vstack([t1, t2]), np.vstack([p, p])),
    ):
        col_proj = g @ np.linalg.pinv(g)
        out.append(float(np.linalg.norm(z - col_proj @ z @ row_proj)))
    return out


PINNED_D2 = 0.46924720288128363


def broadcast_report(op, code, rep, fx):
    d = dict(op.tols)["d"]
    full, marginal = broadcast_residuals(d)
    r = result(rep)
    need(r["d"] == d, "dimension")
    need(r["min_residual"] > 1e-6, "min residual is not bounded away from zero")
    need(abs(r["min_residual"] - full) <= 1e-8 * max(1.0, full), f"residual {r['min_residual']} != {full}")
    need(r["marginal_only_residual"] <= 1e-8 and marginal <= 1e-8, "marginal-only system infeasible")
    if d == 2:
        need(abs(r["min_residual"] - PINNED_D2) <= 1e-9, "pinned d=2 residual")


def member_report(op, code, rep, fx):
    ops = fixture(fx, op, 1)["kraus"]
    k = rank(kraus_choi(ops))
    iso = k == 1 and op_norm(ops[0].conj().T @ ops[0] - np.eye(ops[0].shape[1])) <= 1e-9
    member = not iso
    r = result(rep)
    need(r["member"] is member, f"member verdict {r['member']} for Kraus rank {k}")
    need(r["evidence"]["kraus_rank"] == k, f"kraus rank {r['evidence']['kraus_rank']} != {k}")
    need(code == (0 if member else 1), f"exit {code}")


def _slots(node):
    if "slot" in node:
        return [node["slot"]]
    return [s for c in node["args"] for s in _slots(c)]


def multimap_choi(action, out, dims) -> np.ndarray:
    """Choi matrix of the channel a multimap induces on the product space:
    sum_ij E_ij (x) Phi(units of E_ij), product indices row-major."""
    dims = list(dims)
    big = int(np.prod(dims))
    blocks = []
    for i in range(big):
        row = []
        for j in range(big):
            units = []
            for d, a, b in zip(dims, np.unravel_index(i, dims), np.unravel_index(j, dims)):
                u = np.zeros((d, d), dtype=complex)
                u[a, b] = 1.0
                units.append(u)
            row.append(apply_action(action, out, units))
        blocks.append(row)
    return np.block(blocks)


def _has_member(node, assign) -> bool:
    """Does the subtree hold a generator of the non-isometric ideal?  Every
    generator here is trace preserving, so more than one Kraus operator is
    membership."""
    if "slot" in node:
        return False
    dims, out, action = assign[node["op"]]
    return rank(multimap_choi(action, out, dims)) > 1 or any(
        _has_member(c, assign) for c in node["args"]
    )


def quotient_report(op, code, rep, fx):
    assign = fixture(fx, op, 0)["assign"]
    term = fixture(fx, op, 2)["term"]
    slots = sorted(_slots(term))
    r = result(rep)
    if _has_member(term, assign):
        want = {"op": f"bottom[{len(slots)}x2->2]", "args": [{"slot": s} for s in slots]}
    else:
        want = term
    need(r["term"] == want, f"quotient {r['term']} != {want}")
    need(r["collapsed"] is (want is not term), "collapsed flag")


def quotient_again_report(op, code, rep, fx, first=None):
    r = result(rep)
    need(first is not None, "no first quotient to compare with")
    need(r["term"] == first["term"], f"quotient is not idempotent: {r['term']} != {first['term']}")
    need(r["collapsed"] is first["collapsed"], "collapsed flag changed")


def clone_report(op, code, rep, fx):
    action = fixture(fx, op, 0)["action"]
    r = result(rep)
    need(r["matches"] is False and r["uninterpretable"] is False, "a linear map cloned pure states")
    w = r["witness"]
    need(w is not None and w["residual"] > 1e-8, "no-cloning witness")
    if w["state"].startswith("frame["):
        p = _frame(2)[int(w["state"][6:-1])]
        res = float(np.linalg.norm(apply_action(action, 4, [p]) - np.kron(p, p)))
        need(abs(res - w["residual"]) <= 1e-9, f"witness residual {w['residual']} != {res}")


def run_check(op, code, report, fx, previous=None) -> str | None:
    """Check the exit code against the operation list, then run the
    operation's check.  previous maps op names to their parsed results from
    the same round, for a check that compares two operations."""
    if code != op.expect:
        return f"exit {code}, the operation list expects {op.expect}"
    fn = globals()[op.check]
    try:
        if op.check == "quotient_again_report":
            first = None if previous is None else previous.get(op.inputs[2][1:])
            fn(op, code, report, fx, first)
        else:
            fn(op, code, report, fx)
    except Mismatch as e:
        return str(e)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return f"malformed report: {type(e).__name__}: {e}"
    return None
