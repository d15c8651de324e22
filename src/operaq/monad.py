"""Formal linear combinations of decorated terms, and their evaluation.

An element is a finite sum  sum_k c_k [t_k; v_1, ..., v_n]  where t_k is a
term over the operad symbols and the v_i decorate its slots, either with
carrier matrices or with nested elements.  Generators are kept in a
symmetric-orbit canonical form: leaves relabelled to tree order with the
decorations permuted alongside, so equal orbits collide structurally and
merge.  unit and mu make this a monad.  An algebra is an interpretation of
the symbols, with evaluation as its structure map; a channel's
representation is that value pushed through the channel, which is what
operational equivalence compares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import numpy.linalg as npl

from . import channels, linalg, operad
from .errors import DimensionMismatchError, UnassignedSymbolError

MERGE_TOL = 1e-12


def _term_key(t) -> str:
    if isinstance(t, operad.Leaf):
        return f"?{t.slot}"
    inner = ",".join(_term_key(c) for c in t.children)
    return f"{t.symbol.name}/{t.symbol.arity}({inner})"


def _as_arg(v):
    if isinstance(v, MonadElement):
        return v
    a = np.array(v, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            "slot decorations must be square matrices or nested elements"
        )
    return a


def _args_match(a, b, tol: float) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, MonadElement) != isinstance(y, MonadElement):
            return False
        if isinstance(x, MonadElement):
            if not elements_equal(x, y, tol):
                return False
        elif x.shape != y.shape or (x.size and np.max(np.abs(x - y)) > tol):
            return False
    return True


@dataclass(frozen=True, eq=False)
class MonadElement:
    """A formal combination of generators (coefficient, term, decorations).

    Construction canonicalizes each generator (leaves renumbered to tree
    order, decorations permuted to follow) and merges like generators,
    comparing base slots entrywise within 1e-12.  Zero coefficients drop."""

    terms: tuple

    def __post_init__(self):
        cleaned = []
        for coeff, term, args in self.terms:
            # labels are read off the canonical form; sigma_act canonicalizes
            labels = operad.validate_term(term)
            if len(args) != len(labels):
                raise DimensionMismatchError(
                    f"term of arity {len(labels)} decorated with {len(args)} values"
                )
            sigma = [0] * len(labels)
            for pos, lab in enumerate(labels):
                sigma[lab] = pos
            term = operad.sigma_act(tuple(sigma), term)
            ordered = tuple(_as_arg(args[lab]) for lab in labels)
            cleaned.append((complex(coeff), term, ordered))
        cleaned.sort(key=lambda item: _term_key(item[1]))
        merged: list = []
        for coeff, term, args in cleaned:
            for i, (c0, t0, a0) in enumerate(merged):
                if t0 == term and _args_match(a0, args, MERGE_TOL):
                    merged[i] = (c0 + coeff, t0, a0)
                    break
            else:
                merged.append((coeff, term, args))
        object.__setattr__(
            self, "terms", tuple(g for g in merged if abs(g[0]) > 1e-14)
        )


def elements_equal(a: MonadElement, b: MonadElement, tol: float = 1e-12) -> bool:
    # coefficients are products along flattenings and can grow large, so
    # they are compared relative to their magnitude; decorations stay O(1)
    # and are matched entrywise
    remaining = list(b.terms)
    for coeff, term, args in a.terms:
        for i, (c2, t2, a2) in enumerate(remaining):
            scale = max(1.0, abs(coeff), abs(c2))
            if t2 == term and abs(c2 - coeff) <= tol * scale and _args_match(a2, args, tol):
                del remaining[i]
                break
        else:
            return False
    return not remaining


def unit(v) -> MonadElement:
    """v as a one-slot generator over the operadic unit."""
    return MonadElement(((1.0, operad.unit_term(), (v,)),))


def mu(x: MonadElement) -> MonadElement:
    """Flatten one nesting level by grafting inner terms into outer slots.

    Every slot of every generator must hold a nested element; coefficients
    multiply through the expansion and decorations concatenate in slot
    order."""
    out = []
    for coeff, term, args in x.terms:
        if not all(isinstance(a, MonadElement) for a in args):
            raise DimensionMismatchError(
                "mu flattens one nesting level; every slot must hold an element"
            )
        for combo in itertools.product(*(a.terms for a in args)):
            c = coeff
            for inner_c, _, _ in combo:
                c = c * inner_c
            grafted = operad.gamma(term, [t for _, t, _ in combo])
            joined = tuple(itertools.chain.from_iterable(a for _, _, a in combo))
            out.append((c, grafted, joined))
    return MonadElement(tuple(out))


def t_map(f: Callable, x: MonadElement) -> MonadElement:
    """Apply f to every slot decoration, keeping symbols and coefficients."""
    return MonadElement(
        tuple((c, t, tuple(f(a) for a in args)) for c, t, args in x.terms)
    )


def random_element(
    rng,
    symbols,
    dim: int = 2,
    depth: int = 1,
    max_terms: int = 3,
    term_depth: Optional[int] = None,
) -> MonadElement:
    """Random formal combination; depth > 1 nests elements in the slots.

    Nested levels stay single-generator so flattening a deep element grows
    linearly; the bilinear expansion of mu is exercised by the outer level.
    term_depth overrides the depth of the drawn terms (3 at depth one, else
    2); flattened arities multiply through nesting."""
    terms = []
    for _ in range(1 + int(rng.integers(max_terms))):
        td = term_depth if term_depth is not None else (3 if depth == 1 else 2)
        t = operad.random_term(rng, symbols, max_depth=td)
        n = operad.arity(t)
        if depth > 1:
            args = tuple(
                random_element(rng, symbols, dim, depth - 1, 1, term_depth)
                for _ in range(n)
            )
        else:
            args = tuple(
                rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                for _ in range(n)
            )
        terms.append((complex(rng.normal(), rng.normal()), t, args))
    return MonadElement(tuple(terms))


def monad_law_suite(symbols, trials: int = 100, seed: int = 0, dim: int = 2) -> dict:
    """Check both unit laws and associativity on random elements.

    Unit laws compare mu(unit(x)) and mu(t_map(unit, x)) against x;
    associativity flattens a depth-three element both ways.  Comparison is
    structural, base slots matched entrywise within 1e-12."""
    if isinstance(symbols, operad.OperadSpec):
        symbols = list(symbols.symbols)
    rng = np.random.default_rng(seed)
    checks = 0
    violations = []
    for trial in range(trials):
        x = random_element(rng, symbols, dim=dim)
        deep = random_element(rng, symbols, dim=dim, depth=3, max_terms=2)
        cases = (
            ("unit-outer", mu(unit(x)), x),
            ("unit-inner", mu(t_map(unit, x)), x),
            ("associativity", mu(t_map(mu, deep)), mu(mu(deep))),
        )
        for law, got, want in cases:
            checks += 1
            if not elements_equal(got, want):
                violations.append({"law": law, "trial": trial})
    return {
        "trials": trials,
        "checks": checks,
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# algebras


def algebra_eval(interp: operad.Interpretation, x: MonadElement) -> np.ndarray:
    """sum of coeff * I(t)(v_1, ..., v_n) over the generators of x."""
    d = interp.carrier()
    total = np.zeros((d, d), dtype=complex)
    for coeff, term, args in x.terms:
        if any(isinstance(a, MonadElement) for a in args):
            raise DimensionMismatchError(
                "nested element in a base slot; flatten with mu before evaluating"
            )
        total += coeff * operad.evaluate(interp, term, args, d)
    return total


def _corolla(sym: operad.OperadSymbol):
    """The one-node term sym(0, ..., n-1)."""
    return operad.Apply(sym, tuple(operad.Leaf(i) for i in range(sym.arity)))


def algebra_law_suite(
    interp: operad.Interpretation, trials: int = 25, seed: int = 0, tol: float = 1e-10
) -> dict:
    """Check the algebra laws of an interpretation on random inputs: the
    unit law eval(unit(v)) = v exactly, and the multiplication law
    eval(mu(x)) = eval(t_map(eval, x)) within tol on depth-two elements."""
    symbols = _assigned_symbols(interp)
    d = interp.carrier()
    rng = np.random.default_rng(seed)
    unit_worst = 0.0
    mult_worst = 0.0
    for _ in range(trials):
        v = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        unit_worst = max(unit_worst, float(np.max(np.abs(algebra_eval(interp, unit(v)) - v))))
        x = random_element(rng, symbols, dim=d, depth=2, term_depth=1)
        lhs = algebra_eval(interp, mu(x))
        rhs = algebra_eval(interp, t_map(lambda el: algebra_eval(interp, el), x))
        mult_worst = max(mult_worst, float(linalg.frobenius(lhs - rhs)))
    return {
        "unit_max_deviation": unit_worst,
        "multiplication_max_residual": mult_worst,
        "trials": trials,
        "passed": bool(unit_worst == 0.0 and mult_worst <= tol),
    }


def _assigned_symbols(interp: operad.Interpretation):
    return [interp.operad[name] for name in sorted(interp.assign)]


def _endomap(interp: operad.Interpretation, sym: operad.OperadSymbol, d: int) -> np.ndarray:
    """The action matrix of sym, refused unless it takes sym.arity copies of
    M_d to M_d."""
    mm = interp.action(sym.name)
    if mm.input_operator_dims != (d,) * sym.arity or mm.output_operator_dim != d:
        raise DimensionMismatchError(
            f"the action of {sym.name} takes dims {list(mm.input_operator_dims)} to "
            f"{mm.output_operator_dim}, not {sym.arity} copies of the carrier dim {d} to it"
        )
    return mm.action_matrix


def homomorphism_check(
    f: channels.OperatorMultiMap,
    interp_a: operad.Interpretation,
    interp_b: operad.Interpretation,
    tol: float = 1e-10,
) -> dict:
    """Decide whether the one-slot map f is an algebra homomorphism from A
    to B: f(eval_A([t; a])) = eval_B([t; f(a)]) for every decorated term.

    By the recursion of operad.evaluate this holds for every term once it
    holds for every assigned symbol s, that is S_f A_s = B_s (S_f (x) ...
    (x) S_f), one tensordot per slot.  A column of the difference is the
    square on the corolla of s decorated with matrix units; the witness is
    the worst column over all symbols, and max_residual its norm."""
    d_a, d_b = interp_a.carrier(), interp_b.carrier()
    if f.input_operator_dims != (d_a,) or f.output_operator_dim != d_b:
        m = f.output_operator_dim
        raise DimensionMismatchError(
            f"the map under test takes {f.input_operator_dims * 2} to {(m, m)} values, "
            f"but the homomorphism square needs {(d_a, d_a)} to {(d_b, d_b)}"
        )
    symbols = _assigned_symbols(interp_a)
    if not symbols:
        raise UnassignedSymbolError("the source interpretation assigns no symbols")
    s_f = f.action_matrix
    worst, at = -1.0, None
    for sym in symbols:
        rhs = _endomap(interp_b, sym, d_b).reshape((d_b * d_b,) * (1 + sym.arity))
        for _ in range(sym.arity):
            rhs = np.tensordot(rhs, s_f, axes=(1, 0))
        diff = s_f @ _endomap(interp_a, sym, d_a) - rhs.reshape(d_b * d_b, -1)
        cols = npl.norm(diff, axis=0)
        c = int(np.argmax(cols))
        if cols[c] > worst:
            worst, at = float(cols[c]), (sym, c)
    witness = None
    if worst > tol:
        # slot index q is vec(E_kl) with q = l d + k
        sym, c = at
        slots = np.unravel_index(c, (d_a * d_a,) * sym.arity)
        args = [linalg.matrix_unit(d_a, int(q) % d_a, int(q) // d_a) for q in slots]
        witness = {"term": _corolla(sym), "args": args, "residual": worst}
    return {"passed": worst <= tol, "max_residual": worst, "tol": tol, "witness": witness}


def operational_equivalence(
    phi_a: channels.QuantumChannel,
    phi_b: channels.QuantumChannel,
    interp: operad.Interpretation,
    tol: float = 1e-10,
) -> dict:
    """Decide whether two channels agree on the value of every decorated
    term of the interpretation, the unit term included.

    The unit term's values are all of M_d, so equivalence is equality of
    the channels, compared matrix unit by matrix unit on the Choi
    difference; the witness is the unit term on the worst matrix unit.
    range_residual is ||(S_a - S_b) Q_V|| in the operator norm, on the span
    V of the values of symbol-rooted terms: the sum of the ranges of the
    actions A_s, read off one eigh of sum_s A_s A_s^dag (eigenvalues above
    1e-9 of the largest)."""
    if (phi_a.in_dim, phi_a.out_dim) != (phi_b.in_dim, phi_b.out_dim):
        raise DimensionMismatchError("channels being compared must share dimensions")
    d, m = interp.carrier(), phi_a.out_dim
    if phi_a.in_dim != d:
        raise DimensionMismatchError(
            f"channel input dim {phi_a.in_dim} does not match the carrier dim {d}"
        )
    # diff[i, a, j, b] = (Phi_a - Phi_b)(E_ij)[a, b]
    diff = (phi_a.choi - phi_b.choi).reshape(d, m, d, m)
    units = npl.norm(diff, axis=(1, 3))
    i, j = divmod(int(np.argmax(units)), d)
    worst = float(units[i, j])
    actions = [_endomap(interp, sym, d) for sym in _assigned_symbols(interp)]
    w, u = npl.eigh(sum((a @ a.conj().T for a in actions), np.zeros((d * d, d * d))))
    basis = u[:, w > linalg.RANK_TOL * w[-1]].reshape(d, d, -1)  # [col, row, k]
    on_range = np.einsum("jik,iajb->kab", basis, diff).reshape(basis.shape[2], -1)
    witness = None
    if worst > tol:
        witness = {"term": operad.unit_term(), "args": [linalg.matrix_unit(d, i, j)], "residual": worst}
    return {
        "equivalent": worst <= tol,
        "max_residual": worst,
        "range_residual": linalg.op_norm(on_range),
        "tol": tol,
        "witness": witness,
    }


# ---------------------------------------------------------------------------
# circuit realization


def stinespring_circuit(phi: channels.QuantumChannel):
    """Realize a channel as a three stage circuit: prepare an ancilla in a
    pure state, conjugate by a unitary completion of the dilation isometry,
    trace out the environment.

    The ancilla dimension is the smallest one letting in_dim * anc split as
    out_dim * env with env at least the Kraus rank.  Returns the circuit
    term and a dict of box actions; box_interpretation wraps the latter for
    interpret_circuit."""
    ks = channels.kraus_from_choi(phi)
    if not channels.is_tp(phi):
        raise ValueError("the circuit construction needs a trace preserving channel")
    n, m, r = phi.in_dim, phi.out_dim, len(ks.operators)
    anc = 1
    while (n * anc) % m != 0 or (n * anc) // m < r:
        anc += 1
    big = n * anc
    env = big // m
    # the dilation isometry, its environment padded from r to env levels
    v = channels.stinespring_isometry(ks).reshape(m, r, n)
    v_pad = np.pad(v, ((0, 0), (0, env - r), (0, 0))).reshape(big, n)
    # complete the isometry columns to a unitary: the input state sits on
    # ancilla level 0, so column i*anc carries V e_i, and the trailing left
    # singular vectors of V span the complement of its range
    u = np.zeros((big, big), dtype=complex)
    u[:, ::anc] = v_pad
    u[:, np.arange(big) % anc != 0] = npl.svd(v_pad)[0][:, n:]
    trace_env = channels.KrausSet(
        tuple(np.kron(np.eye(m), np.eye(env)[e : e + 1]) for e in range(env))
    )
    boxes = {
        "prep_env": channels.OperatorMultiMap(
            (), anc, linalg.vec(linalg.matrix_unit(anc, 0, 0)).reshape(-1, 1)
        ),
        "joint_unitary": channels.channel_multimap(channels.KrausSet((u,)), (n, anc)),
        "trace_env": channels.OperatorMultiMap((big,), m, channels.kraus_to_superop(trace_env)),
    }
    circuit = operad.CircuitTerm(
        1,
        (
            operad.CircuitBox("prep_env", ()),
            operad.CircuitBox("joint_unitary", (0, 1)),
            operad.CircuitBox("trace_env", (2,)),
        ),
        (3,),
    )
    return circuit, boxes


def box_interpretation(boxes: dict) -> operad.Interpretation:
    """Wrap circuit box actions as an interpretation of a one-off operad."""
    symbols = tuple(
        operad.OperadSymbol(
            name, mm.arity, (mm.input_operator_dims, mm.output_operator_dim)
        )
        for name, mm in sorted(boxes.items())
    )
    return operad.Interpretation(operad.OperadSpec(symbols), dict(boxes))


def circuit_channel(circuit: operad.CircuitTerm, boxes: dict, in_dims) -> channels.QuantumChannel:
    """Interpret a circuit with directly given box actions, as a channel
    between the product spaces of its input and output wires."""
    if isinstance(in_dims, int):
        in_dims = (in_dims,)
    return channels.choi_of(operad.interpret_circuit(box_interpretation(boxes), circuit, in_dims))


def monoidal_compat_check(
    phi_1: channels.QuantumChannel,
    phi_2: channels.QuantumChannel,
    interp,
    trials: int = 20,
    seed: int = 0,
) -> dict:
    """Compare the product-channel representation against the product of the
    representations on product generators, within 1e-10.

    Slot convention for the interleaving: all slots of the first factor
    precede those of the second.  Each trial evaluates a decorated term, a
    corolla on even trials and a deeper term on odd ones, separately in
    both carriers and checks that the kron of the values, pushed through
    channel_kron, matches the kron of the pushed values."""
    if isinstance(interp, operad.Interpretation):
        i_1 = i_2 = interp
    else:
        i_1, i_2 = interp
    d_1, d_2 = i_1.carrier(), i_2.carrier()
    if phi_1.in_dim != d_1 or phi_2.in_dim != d_2:
        raise DimensionMismatchError(
            "channel inputs must match the interpretation carriers"
        )
    names = sorted(set(i_1.assign) & set(i_2.assign))
    if not names:
        raise UnassignedSymbolError("the interpretations share no assigned symbols")
    product = channels.channel_kron(phi_1, phi_2)
    rng = np.random.default_rng(seed)
    pool = [i_1.operad[nm] for nm in names]
    worst = 0.0
    for trial in range(trials):
        if trial % 2 == 0:
            term = _corolla(pool[int(rng.integers(len(pool)))])
        else:
            term = operad.random_term(rng, pool)
        n = operad.arity(term)
        a = [rng.normal(size=(d_1, d_1)) + 1j * rng.normal(size=(d_1, d_1)) for _ in range(n)]
        b = [rng.normal(size=(d_2, d_2)) + 1j * rng.normal(size=(d_2, d_2)) for _ in range(n)]
        y_1 = operad.evaluate(i_1, term, a, d_1)
        y_2 = operad.evaluate(i_2, term, b, d_2)
        lhs = channels.channel_apply(product, linalg.kron(y_1, y_2))
        rhs = linalg.kron(
            channels.channel_apply(phi_1, y_1), channels.channel_apply(phi_2, y_2)
        )
        worst = max(worst, float(linalg.frobenius(lhs - rhs)))
    tol = 1e-10
    return {
        "passed": worst <= tol,
        "max_residual": worst,
        "trials": trials,
        "tol": tol,
        "strength": "first factor slots precede second factor slots",
    }
