"""Ideals of quantum operations, quotient terms, and no-go witnesses.

Membership is predicate or certificate based and closure is verified by
sampling compositions, never proved; every report says so.  Quotient terms
are ordinary terms in which collapsed subtrees appear as per-signature
formal "bottom" symbols, so the whole operad toolbox keeps working on them.
The broadcast witness solves the pure-state constraint system for a linear
broadcaster, cloning value rows included, by its Kronecker structure and
reports the least squares residual; a residual bounded away from zero is
the numerical content of the no-go statement at that dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import numpy.linalg as npl

from . import channels, linalg, operad, sampling
from .errors import (
    DimensionMismatchError,
    NonLinearGeneratorError,
    NotCompletelyPositiveError,
    UnassignedSymbolError,
)

PREDICATES = ("non-isometric", "certificate-list", "evaluates-to-cloning-context")

SAMPLING_NOTE = (
    "sampled contexts only; membership beyond the sampled compositions is not decided"
)


@dataclass(frozen=True)
class IdealSpec:
    """A named membership rule for CP operations.

    members / non_members hold explicit operations (channels or operator
    multimaps) and only matter for the certificate-list predicate."""

    name: str
    predicate: str
    members: tuple = ()
    non_members: tuple = ()

    def __post_init__(self):
        if self.predicate not in PREDICATES:
            raise ValueError(
                f"unknown predicate {self.predicate!r}; supported: {PREDICATES}"
            )
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "non_members", tuple(self.non_members))


@dataclass(frozen=True)
class FormalGenerator:
    """A syntax-only generator: a name and a dimension.  Never
    interpretable."""

    name: str
    dim: int


def clone_generator(d: int, name: Optional[str] = None) -> FormalGenerator:
    return FormalGenerator(name or f"Clone_{d}", d)


def _as_multimap(op) -> channels.OperatorMultiMap:
    if isinstance(op, channels.OperatorMultiMap):
        return op
    if isinstance(op, channels.QuantumChannel):
        return channels.channel_multimap(op)
    if isinstance(op, channels.KrausSet):
        return channels.channel_multimap(channels.choi_of(op))
    raise TypeError(f"cannot test membership of {type(op).__name__}")


def _same_operation(a: channels.OperatorMultiMap, b) -> bool:
    b = _as_multimap(b)
    if (
        a.input_operator_dims != b.input_operator_dims
        or a.output_operator_dim != b.output_operator_dim
    ):
        return False
    return bool(np.max(np.abs(a.action_matrix - b.action_matrix)) <= 1e-10)


def is_member(spec: IdealSpec, op) -> dict:
    """Predicate verdict with evidence; the domain is CP operations.

    CP and the Kraus rank (the number of Choi eigenvalues above
    1e-10 * max(1, largest), the cut of channels.kraus_rank) come from one
    eigenvalue-only spectrum; only a rank of at most one takes the
    eigenvectors, for the isometry defect, and a defect above 1e-9 makes
    the map a member."""
    mm = _as_multimap(op)
    chan = channels.choi_of(mm)
    vals = channels._choi_eigenvalues(chan)
    bad = float(vals[0])
    if bad < -1e-10:
        raise NotCompletelyPositiveError(
            "membership predicates are defined on completely positive maps",
            min_eigenvalue=bad,
        )
    if spec.predicate == "non-isometric":
        rank = int(np.sum(vals > channels._kraus_cut(vals)))
        defect = None
        if rank <= 1:
            # the dominant Kraus operator, the zero operator for the zero map
            k = channels._choi_spectrum(chan)[1].operators[-1]
            defect = float(
                linalg.op_norm(linalg.dagger(k) @ k - np.eye(chan.in_dim))
            )
        member = rank > 1 or defect > 1e-9
        return {
            "member": member,
            "evidence": {"kraus_rank": rank, "isometry_defect": defect},
        }
    if spec.predicate == "certificate-list":
        for entry in spec.members:
            if _same_operation(mm, entry):
                return {"member": True, "evidence": {"matched": "members"}}
        for entry in spec.non_members:
            if _same_operation(mm, entry):
                return {"member": False, "evidence": {"matched": "non_members"}}
        return {"member": False, "evidence": {"matched": None}}
    # evaluates-to-cloning-context
    if mm.arity != 1 or mm.output_operator_dim != mm.input_operator_dims[0] ** 2:
        return {
            "member": False,
            "evidence": {"reason": "signature is not (d; d x d)"},
        }
    d = mm.input_operator_dims[0]
    worst = 0.0
    for p in broadcast_frame(d):
        out = channels.apply_ops(mm, [p])
        worst = max(worst, float(linalg.frobenius(out - np.kron(p, p))))
    return {
        "member": worst <= 1e-8,
        "evidence": {"max_frame_residual": worst},
    }


def sigma_multimap(mm: channels.OperatorMultiMap, perm) -> channels.OperatorMultiMap:
    """Slot permutation: the returned map sends (x_0, ..., x_{n-1}) to
    mm(x_{perm[0]}, ..., x_{perm[n-1]})."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(mm.arity)):
        raise DimensionMismatchError(f"{perm} is not a permutation of {mm.arity} slots")
    inv = [int(p) for p in np.argsort(perm)]  # slot j of the result is slot inv[j] of mm
    t = mm.action_matrix.reshape((-1,) + tuple(d * d for d in mm.input_operator_dims))
    action = t.transpose([0] + [1 + p for p in inv]).reshape(mm.action_matrix.shape)
    new_dims = tuple(mm.input_operator_dims[p] for p in inv)
    return channels.OperatorMultiMap(new_dims, mm.output_operator_dim, action)


def _pick(rng, items, out_dim):
    """Index of a pool entry drawn uniformly among those with output out_dim."""
    pool = [i for i, x in enumerate(items) if x.output_operator_dim == out_dim]
    if not pool:
        return None
    return pool[int(rng.integers(len(pool)))]


def _context(items, key) -> channels.OperatorMultiMap:
    """The composite a closure context key names: ("sigma", member, perm)
    for the symmetric action, (base, parts) for a composition, all pool
    indices."""
    if key[0] == "sigma":
        return sigma_multimap(items[key[1]], key[2])
    base, parts = key
    return operad._compose_multimaps(items[base], [items[p] for p in parts])


def closure_check(spec: IdealSpec, pool, trials: int = 1000, seed: int = 0) -> dict:
    """Sample the three closure clauses and verify every composite is still
    a member: outer composition (a member applied to ambient arguments),
    pre-composition (a member plugged into an ambient operation), and the
    symmetric action on the member's slots.

    Contexts are drawn from the finite pool, so many trials repeat one.
    Each trial is counted in checks and gets its own violation entry, but
    each distinct context is composed and tested once per call."""
    items = [_as_multimap(x) for x in pool]
    members = [i for i, x in enumerate(items) if is_member(spec, x)["member"]]
    if not members:
        return {
            "trials": 0,
            "checks": 0,
            "skipped": 0,
            "violations": [],
            "passed": True,
            "vacuous": True,
            "note": SAMPLING_NOTE,
        }
    rng = np.random.default_rng(seed)
    clauses = ("outer-composition", "pre-composition", "symmetric-action")
    checks = 0
    skipped = 0
    violations = []
    verdicts = {}
    for trial in range(trials):
        clause = clauses[trial % 3]
        fi = members[int(rng.integers(len(members)))]
        f = items[fi]
        key = None
        # every draw is made even once a part is missing, so the stream
        # does not depend on which contexts turn out to be composable
        if clause == "outer-composition":
            parts = tuple(_pick(rng, items, din) for din in f.input_operator_dims)
            if None not in parts:
                key = (fi, parts)
        elif clause == "pre-composition":
            hi = int(rng.integers(len(items)))
            h = items[hi]
            slots = [
                k for k, din in enumerate(h.input_operator_dims)
                if din == f.output_operator_dim
            ]
            if slots:
                slot = slots[int(rng.integers(len(slots)))]
                parts = tuple(
                    fi if k == slot else _pick(rng, items, din)
                    for k, din in enumerate(h.input_operator_dims)
                )
                if None not in parts:
                    key = (hi, parts)
        else:
            # arity one leaves only the identity permutation, which still
            # re-asserts membership of the member itself
            key = ("sigma", fi, tuple(int(p) for p in rng.permutation(f.arity)))
        if key is None:
            skipped += 1
            continue
        checks += 1
        if key not in verdicts:
            verdicts[key] = is_member(spec, _context(items, key))
        verdict = verdicts[key]
        if not verdict["member"]:
            violations.append(
                {"trial": trial, "clause": clause, "evidence": dict(verdict["evidence"])}
            )
    return {
        "trials": trials,
        "checks": checks,
        "skipped": skipped,
        "violations": violations,
        "passed": not violations,
        "vacuous": False,
        "note": SAMPLING_NOTE,
    }


# ---------------------------------------------------------------------------
# quotient terms


def bottom_symbol(num_slots: int, d: int, out_dim: Optional[int] = None) -> operad.OperadSymbol:
    """The distinguished collapsed class for one hom signature.

    Slots are always carrier inputs of dimension d; the output dimension can
    differ (a collapsed subtree headed by a formal pure-state generator
    outputs d*d)."""
    out = d if out_dim is None else out_dim
    return operad.OperadSymbol(
        f"bottom[{num_slots}x{d}->{out}]",
        num_slots,
        ((d,) * num_slots, out),
        formal=True,
    )


def is_bottom_symbol(sym: operad.OperadSymbol) -> bool:
    return sym.name.startswith("bottom[")


def contains_bottom(t) -> bool:
    t = operad.canonical_form(t)

    def walk(node):
        if isinstance(node, operad.Leaf):
            return False
        if is_bottom_symbol(node.symbol):
            return True
        return any(walk(c) for c in node.children)

    return walk(t)


def _relabel(t, mapping):
    if isinstance(t, operad.Leaf):
        return operad.Leaf(mapping[t.slot])
    return operad.Apply(t.symbol, tuple(_relabel(c, mapping) for c in t.children))


def _bottom_apply(labels, d: int, out_dim: Optional[int] = None):
    labels = sorted(labels)
    return operad.Apply(
        bottom_symbol(len(labels), d, out_dim), tuple(operad.Leaf(l) for l in labels)
    )


def _node_out_dim(node: operad.Apply, interp: operad.Interpretation, leaf_dim: int) -> int:
    name = node.symbol.name
    if not node.symbol.formal and name in interp.assign:
        return interp.assign[name].output_operator_dim
    if node.symbol.signature is not None:
        return node.symbol.signature[1]
    return leaf_dim


def quotient(t, spec: IdealSpec, interp: operad.Interpretation, leaf_dim: Optional[int] = None):
    """Collapse every subtree recognized in the ideal to the bottom class of
    its signature, bottom-up; composing through a collapsed child collapses
    the parent.  Formal generators collapse outright.  The result is again
    an operad term and the collapse is idempotent."""
    if leaf_dim is None:
        leaf_dim = interp.carrier()
    t = operad.canonical_form(t)
    operad.validate_term(t)

    def walk(node):
        if isinstance(node, operad.Leaf):
            return node, False
        labels = operad.leaf_labels(node)
        out_dim = _node_out_dim(node, interp, leaf_dim)
        if is_bottom_symbol(node.symbol) or node.symbol.formal:
            return _bottom_apply(labels, leaf_dim, out_dim), True
        kids = [walk(c) for c in node.children]
        rebuilt = operad.Apply(node.symbol, tuple(k for k, _ in kids))
        if any(flag for _, flag in kids):
            return _bottom_apply(labels, leaf_dim, out_dim), True
        mapping = {lab: i for i, lab in enumerate(sorted(labels))}
        try:
            # the rebuilt root is an application, so expected dims flow from
            # its head symbol; asserting leaf_dim at the root would wrongly
            # reject product-valued heads
            mm = operad.interpret(interp, _relabel(rebuilt, mapping))
        except UnassignedSymbolError as e:
            raise UnassignedSymbolError(f"membership undecidable: {e}") from e
        if is_member(spec, mm)["member"]:
            return _bottom_apply(labels, leaf_dim, mm.output_operator_dim), True
        return rebuilt, False

    out, _ = walk(t)
    return out


def adjoin_formal(spec: operad.OperadSpec, gen: FormalGenerator) -> operad.OperadSpec:
    """Extend an operad with a syntax-only generator of signature (d; d*d).

    The extension is purely term-level; interpreting any term containing
    the generator raises the non-linear-generator error."""
    sym = operad.OperadSymbol(gen.name, 1, ((gen.dim,), gen.dim * gen.dim), formal=True)
    return operad.OperadSpec(spec.symbols + (sym,))


# ---------------------------------------------------------------------------
# no-go witnesses


def broadcast_frame(d: int):
    """Deterministic spanning family of pure-state projectors: the basis
    states, real and imaginary two-level superpositions, and two dense
    vectors with distinct phase profiles."""
    eye = np.eye(d, dtype=complex)
    pairs = list(itertools.combinations(range(d), 2))
    vectors = list(eye)
    vectors += [(eye[i] + eye[j]) / np.sqrt(2) for i, j in pairs]
    vectors += [(eye[i] + 1j * eye[j]) / np.sqrt(2) for i, j in pairs]
    v1 = np.arange(1, d + 1).astype(complex)
    vectors.append(v1 / npl.norm(v1))
    w = np.exp(2j * np.pi / (d + 1))
    v2 = w ** np.arange(d)
    vectors.append(v2 / npl.norm(v2))
    return [np.outer(v, v.conj()) for v in vectors]


def _ptrace_superops(d: int):
    """Superoperators of the partial traces over the first and the second
    factor of C^d (x) C^d, as Kraus sums over <i| (x) I and I (x) <i|."""
    eye = np.eye(d)
    t1 = channels.KrausSet(tuple(np.kron(eye[i : i + 1], eye) for i in range(d)))
    t2 = channels.KrausSet(tuple(np.kron(eye, eye[i : i + 1]) for i in range(d)))
    return channels.kraus_to_superop(t1), channels.kraus_to_superop(t2)


def _broadcast_system(states):
    """F = [vec P_1 ... vec P_k] and B with columns [vec(P_j (x) P_j); vec P_j;
    vec P_j], the targets of P_j's value and marginal rows."""
    f = np.stack([linalg.vec(p) for p in states], axis=1)
    values = np.stack([linalg.vec(np.kron(p, p)) for p in states], axis=1)
    return f, np.vstack([values, f, f])


def cloning_mixture_gap(rho_1, rho_2, alpha: float = 0.5):
    """Pointwise nonlinearity of the cloning specification on a mixture:
    clone(mix) minus the mixed clones, and the cross-term expression it
    equals (alpha * beta times it)."""
    rho_1 = linalg.as_matrix(rho_1)
    rho_2 = linalg.as_matrix(rho_2)
    beta = 1.0 - alpha
    mixed = alpha * rho_1 + beta * rho_2
    gap = (
        np.kron(mixed, mixed)
        - alpha * np.kron(rho_1, rho_1)
        - beta * np.kron(rho_2, rho_2)
    )
    expr = (
        np.kron(rho_1, rho_2)
        + np.kron(rho_2, rho_1)
        - np.kron(rho_1, rho_1)
        - np.kron(rho_2, rho_2)
    )
    return gap, expr


def broadcast_witness(d: int, state_sample: int = 10, seed: int = 0) -> dict:
    """Best linear broadcaster in least squares, and how far it still is
    from the specification.

    The system constrains a linear L : M_d -> M_d (x) M_d on a deterministic
    frame of pure states: the value rows L(P) = P (x) P and both marginal
    rows Tr_k(L(P)) = P.  The fit uses the frame only, so the minimum is
    seed independent; the sampled random pure states are held out and only
    validate the fitted map.  The marginal-only subsystem is also solved on
    its own: it is exactly feasible (a linear, non-positive broadcaster
    exists), which is why the value rows are part of the witness.

    P contributes the rows vec(P)^T (x) G, G = [I; T] with T = [T_1; T_2]
    the partial-trace superoperators, so up to row order the system is
    (F^T (x) G) vec(L) = vec(B) (F, B from `_broadcast_system`).  As
    pinv(A (x) C) = pinv(A) (x) pinv(C), its min-norm least-squares solution
    is L = pinv(G) B pinv(F), residual ||G L F - B||_F, and the system is
    never built.  G has full column rank: pinv(G) = (I + T^H T)^-1 G^H.
    The marginal-only fit takes T's SVD pseudo-inverse instead."""
    if d < 2:
        raise ValueError(
            "broadcasting is trivially linear in dimension one; the witness needs d >= 2"
        )
    frame = broadcast_frame(d)
    n = d ** 4
    t = np.vstack(_ptrace_superops(d))
    th = linalg.dagger(t)
    f, b = _broadcast_system(frame)
    pinv_f = npl.pinv(f)
    best = npl.solve(np.eye(n) + th @ t, b[:n] + th @ b[n:]) @ pinv_f

    def residual(f, b):
        lf = best @ f
        return float(npl.norm(np.vstack([lf, t @ lf]) - b))

    min_residual = residual(f, b)
    marginal_only = float(npl.norm(t @ (npl.pinv(t) @ b[n:] @ pinv_f) @ f - b[n:]))
    rng = np.random.default_rng(seed)
    validation = 0.0
    if state_sample:
        psis = [sampling.random_pure(rng, d) for _ in range(state_sample)]
        validation = residual(*_broadcast_system([np.outer(v, v.conj()) for v in psis]))
    rho_1 = linalg.matrix_unit(d, 0, 0)
    rho_2 = linalg.matrix_unit(d, 1, 1)
    gap, expr = cloning_mixture_gap(rho_1, rho_2)
    fitted_gap = linalg.unvec(
        best @ linalg.vec(0.5 * rho_1 + 0.5 * rho_2)
        - 0.5 * best @ linalg.vec(rho_1)
        - 0.5 * best @ linalg.vec(rho_2),
        d * d,
    )
    return {
        "d": d,
        "min_residual": min_residual,
        "marginal_only_residual": marginal_only,
        "validation_residual": validation,
        "frame_size": len(frame),
        "state_sample": int(state_sample),
        "best_linear_map": best,
        "mixture_gap_trace_norm": float(linalg.trace_norm(gap)),
        "mixture_expr_frobenius": float(linalg.frobenius(expr)),
        "fitted_map_mixture_gap": float(linalg.frobenius(fitted_gap)),
        "note": (
            "a minimum residual bounded away from zero certifies that no "
            "linear map satisfies the broadcast specification at this dimension"
        ),
    }


def clone_pattern_match(t, interp: operad.Interpretation, trials: int = 20, seed: int = 0) -> dict:
    """Does the interpreted term agree with the cloning specification
    rho -> rho (x) rho on pure states, within 1e-8?  Checked on the
    deterministic frame plus sampled random pure states; the first mismatch
    is the witness.  Terms containing formal generators are reported as
    uninterpretable.  d is read off the interpreted term's input slot, so a
    bare leaf, which has no dimension of its own, is refused."""
    try:
        mm = operad.interpret(interp, t)
    except NonLinearGeneratorError as e:
        return {
            "matches": False,
            "uninterpretable": True,
            "reason": str(e),
            "witness": None,
        }
    if mm.arity != 1:
        raise DimensionMismatchError(
            f"clone matching needs a one-slot term, got arity {mm.arity}"
        )
    d = mm.input_operator_dims[0]
    if mm.output_operator_dim != d * d:
        raise DimensionMismatchError(
            f"clone matching needs signature ({d}; {d*d}), got "
            f"{mm.input_operator_dims} -> {mm.output_operator_dim}"
        )
    rng = np.random.default_rng(seed)
    cases = [(f"frame[{k}]", p) for k, p in enumerate(broadcast_frame(d))]
    for k in range(trials):
        psi = sampling.random_pure(rng, d)
        cases.append((f"random[{k}]", np.outer(psi, psi.conj())))
    for label, p in cases:
        r = float(linalg.frobenius(channels.apply_ops(mm, [p]) - np.kron(p, p)))
        if r > 1e-8:
            return {
                "matches": False,
                "uninterpretable": False,
                "witness": {"state": label, "residual": r},
            }
    return {"matches": True, "uninterpretable": False, "witness": None}


def ideal_inclusion_check(inner: IdealSpec, outer: IdealSpec, pool) -> dict:
    """Every pool operation recognized by the inner ideal must be recognized
    by the outer one."""
    checked = 0
    inner_members = 0
    violations = []
    for idx, item in enumerate(pool):
        checked += 1
        vi = is_member(inner, item)
        if not vi["member"]:
            continue
        inner_members += 1
        vo = is_member(outer, item)
        if not vo["member"]:
            violations.append(
                {
                    "index": idx,
                    "inner_evidence": vi["evidence"],
                    "outer_evidence": vo["evidence"],
                }
            )
    return {
        "checked": checked,
        "inner_members": inner_members,
        "violations": violations,
        "passed": not violations,
        "note": SAMPLING_NOTE,
    }
