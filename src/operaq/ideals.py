"""Ideals of quantum operations, quotient terms, and no-go witnesses.

Membership is predicate or certificate based and closure is verified by
sampling compositions, never proved; every report says so.  Quotient terms
are ordinary terms in which collapsed subtrees appear as per-signature
formal "bottom" symbols, so the whole operad toolbox keeps working on them.
The broadcast witness assembles the pure-state constraint system for a
linear broadcaster, including the cloning value rows, and reports the least
squares residual; a residual bounded away from zero is the numerical
content of the no-go statement at that dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

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
    """A syntax-only generator: a name, a dimension, and the pointwise
    behavior it is meant to have on pure states.  Never interpretable."""

    name: str
    dim: int
    specification: Optional[Callable] = None


def clone_generator(d: int, name: Optional[str] = None) -> FormalGenerator:
    return FormalGenerator(
        name or f"Clone_{d}", d, lambda p: np.kron(p, p)
    )


def _as_multimap(op) -> channels.OperatorMultiMap:
    if isinstance(op, channels.OperatorMultiMap):
        return op
    if isinstance(op, channels.QuantumChannel):
        return channels.channel_multimap(op)
    if isinstance(op, channels.KrausSet):
        return channels.channel_multimap(channels.choi_of(op))
    raise TypeError(f"cannot test membership of {type(op).__name__}")


def grouped_channel(mm: channels.OperatorMultiMap) -> channels.QuantumChannel:
    """The channel on the tensor product space that a multimap induces by
    grouping its slots."""
    din = int(np.prod(mm.input_operator_dims)) if mm.input_operator_dims else 1
    s = mm.action_matrix[:, linalg.mingle_index(mm.input_operator_dims)]
    return channels.QuantumChannel(
        din, mm.output_operator_dim, channels.superop_to_choi(s, din, mm.output_operator_dim)
    )


def _same_operation(a: channels.OperatorMultiMap, b, tol: float = 1e-10) -> bool:
    b = _as_multimap(b)
    if (
        a.input_operator_dims != b.input_operator_dims
        or a.output_operator_dim != b.output_operator_dim
    ):
        return False
    return bool(np.max(np.abs(a.action_matrix - b.action_matrix)) <= tol)


def is_member(spec: IdealSpec, op, tol: float = 1e-9) -> dict:
    """Predicate verdict with evidence; the domain is CP operations."""
    mm = _as_multimap(op)
    chan = grouped_channel(mm)
    bad = channels.choi_min_eigenvalue(chan)
    if bad < -1e-10:
        raise NotCompletelyPositiveError(
            "membership predicates are defined on completely positive maps",
            min_eigenvalue=bad,
        )
    if spec.predicate == "non-isometric":
        ks = channels.kraus_from_choi(chan)
        rank = len(ks.operators)
        defect = None
        if rank == 1:
            k = ks.operators[0]
            defect = float(
                linalg.op_norm(linalg.dagger(k) @ k - np.eye(chan.in_dim))
            )
        member = rank > 1 or defect > tol
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
    new_dims = [0] * mm.arity
    for pos, target in enumerate(perm):
        new_dims[target] = mm.input_operator_dims[pos]
    src = linalg.factor_permutation_index(tuple(nd * nd for nd in new_dims), perm)
    return channels.OperatorMultiMap(
        tuple(new_dims), mm.output_operator_dim, mm.action_matrix[:, np.argsort(src)]
    )


def _pick(rng, items, out_dim):
    pool = [x for x in items if x.output_operator_dim == out_dim]
    if not pool:
        return None
    return pool[int(rng.integers(len(pool)))]


def closure_check(spec: IdealSpec, pool, trials: int = 1000, seed: int = 0) -> dict:
    """Sample the three closure clauses and verify every composite is still
    a member: outer composition (a member applied to ambient arguments),
    pre-composition (a member plugged into an ambient operation), and the
    symmetric action on the member's slots."""
    items = [_as_multimap(x) for x in pool]
    members = [x for x in items if is_member(spec, x)["member"]]
    if not members:
        return {
            "trials": 0,
            "checks": 0,
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
    for trial in range(trials):
        clause = clauses[trial % 3]
        f = members[int(rng.integers(len(members)))]
        comp = None
        if clause == "outer-composition":
            parts = [_pick(rng, items, din) for din in f.input_operator_dims]
            if all(p is not None for p in parts):
                comp = operad._compose_multimaps(f, parts)
        elif clause == "pre-composition":
            h = items[int(rng.integers(len(items)))]
            slots = [
                k for k, din in enumerate(h.input_operator_dims)
                if din == f.output_operator_dim
            ]
            if slots:
                slot = slots[int(rng.integers(len(slots)))]
                parts = [
                    f if k == slot else _pick(rng, items, din)
                    for k, din in enumerate(h.input_operator_dims)
                ]
                if all(p is not None for p in parts):
                    comp = operad._compose_multimaps(h, parts)
        else:
            # arity one leaves only the identity permutation, which still
            # re-asserts membership of the member itself
            comp = sigma_multimap(f, rng.permutation(f.arity))
        if comp is None:
            skipped += 1
            continue
        checks += 1
        verdict = is_member(spec, comp)
        if not verdict["member"]:
            violations.append(
                {"trial": trial, "clause": clause, "evidence": verdict["evidence"]}
            )
    return {
        "trials": trials,
        "checks": checks,
        "skipped": skipped,
        "violations": violations,
        "passed": not violations,
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


def quotient_gamma(f, parts, d: int, out_dim: Optional[int] = None):
    """Composition of quotient terms: graft as usual, then collapse if any
    bottom class is involved anywhere."""
    out = operad.gamma(f, parts)
    if contains_bottom(out):
        return _bottom_apply(operad.leaf_labels(out), d, out_dim)
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
    vectors = []
    for i in range(d):
        e = np.zeros(d, dtype=complex)
        e[i] = 1.0
        vectors.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros(d, dtype=complex)
            e[i] = 1.0
            e[j] = 1.0
            vectors.append(e / np.sqrt(2))
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros(d, dtype=complex)
            e[i] = 1.0
            e[j] = 1.0j
            vectors.append(e / np.sqrt(2))
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


def _witness_rows(states, d: int):
    t1, t2 = _ptrace_superops(d)
    big = d ** 4
    eye_big = np.eye(big, dtype=complex)
    rows = []
    rhs = []
    for p in states:
        vp = linalg.vec(p)
        # value rows L(P) = P (x) P, then both marginal rows Tr_k(L(P)) = P
        rows.append(np.kron(vp.reshape(1, -1), eye_big))
        rhs.append(linalg.vec(np.kron(p, p)))
        rows.append(np.kron(vp.reshape(1, -1), t1))
        rhs.append(vp)
        rows.append(np.kron(vp.reshape(1, -1), t2))
        rhs.append(vp)
    return np.vstack(rows), np.concatenate(rhs)


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
    exists), which is why the value rows are part of the witness."""
    if d < 2:
        raise ValueError(
            "broadcasting is trivially linear in dimension one; the witness needs d >= 2"
        )
    frame = broadcast_frame(d)
    a, b = _witness_rows(frame, d)
    x, *_ = npl.lstsq(a, b, rcond=None)
    min_residual = float(npl.norm(a @ x - b))
    best = x.reshape((d ** 4, d * d), order="F")
    # marginal rows alone: drop each state's leading d^4 value rows
    block = d ** 4 + 2 * d * d
    keep = np.concatenate(
        [np.arange(k * block + d ** 4, (k + 1) * block) for k in range(len(frame))]
    )
    xm, *_ = npl.lstsq(a[keep], b[keep], rcond=None)
    marginal_only = float(npl.norm(a[keep] @ xm - b[keep]))
    rng = np.random.default_rng(seed)
    validation = 0.0
    if state_sample:
        held_out = []
        for _ in range(state_sample):
            psi = sampling.random_pure(rng, d)
            held_out.append(np.outer(psi, psi.conj()))
        av, bv = _witness_rows(held_out, d)
        validation = float(npl.norm(av @ x - bv))
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


def clone_pattern_match(
    t,
    interp: operad.Interpretation,
    d: Optional[int] = None,
    trials: int = 20,
    seed: int = 0,
    tol: float = 1e-8,
) -> dict:
    """Does the interpreted term agree with the cloning specification
    rho -> rho (x) rho on pure states?  Checked on the deterministic frame
    plus sampled random pure states; the first mismatch is the witness.
    Terms containing formal generators are reported as uninterpretable.
    When d is omitted it is read off the interpreted term's input slot."""
    try:
        root_dim = (
            d
            if d is not None and isinstance(operad.canonical_form(t), operad.Leaf)
            else None
        )
        mm = operad.interpret(interp, t, leaf_dim=root_dim)
    except NonLinearGeneratorError as e:
        return {
            "matches": False,
            "uninterpretable": True,
            "reason": str(e),
            "witness": None,
        }
    if d is None:
        if mm.arity != 1:
            raise DimensionMismatchError(
                f"clone matching needs a one-slot term, got arity {mm.arity}"
            )
        d = mm.input_operator_dims[0]
    if mm.input_operator_dims != (d,) or mm.output_operator_dim != d * d:
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
        if r > tol:
            return {
                "matches": False,
                "uninterpretable": False,
                "witness": {"state": label, "residual": r},
            }
    return {"matches": True, "uninterpretable": False, "witness": None}


def ideal_inclusion_check(
    inner: IdealSpec, outer: IdealSpec, pool, trials: Optional[int] = None
) -> dict:
    """Every pool operation recognized by the inner ideal must be recognized
    by the outer one."""
    checked = 0
    inner_members = 0
    violations = []
    for idx, item in enumerate(pool):
        if trials is not None and checked >= trials:
            break
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
