"""Formal linear combinations of decorated terms, and their evaluation.

An element is a finite sum  sum_k c_k [t_k; v_1, ..., v_n]  where t_k is a
term over the operad symbols and the v_i decorate its slots, either with
carrier matrices or with nested elements.  Generators are kept in a
symmetric-orbit canonical form: leaves relabelled to tree order with the
decorations permuted alongside, so equal orbits collide structurally and
merge.  unit and mu make this a monad; interpreting the symbols turns
evaluation into an algebra structure map, and composing with a channel
afterward gives the representation maps used for operational equivalence
and circuit realization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import numpy.linalg as npl

from . import channels, linalg, operad
from .errors import (
    DimensionMismatchError,
    NotCompletelyPositiveError,
    UnassignedSymbolError,
)

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


def element_add(a: MonadElement, b: MonadElement) -> MonadElement:
    return MonadElement(a.terms + b.terms)


def element_scale(c, a: MonadElement) -> MonadElement:
    return MonadElement(tuple((c * c0, t, args) for c0, t, args in a.terms))


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
    Pass a small term_depth when the element will be evaluated: flattened
    arities multiply through nesting, and interpretation is exponential in
    the arity."""
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


@dataclass(frozen=True)
class AlgebraMap:
    """Evaluation data over a fixed carrier: an interpretation of the
    symbols, plus an optional map applied after each term.  Plain algebras
    (post None) satisfy the unit and multiplication laws; representation
    maps trade the unit law for the attached channel."""

    interpretation: operad.Interpretation
    carrier_dim: int
    post: Optional[Callable[[np.ndarray], np.ndarray]] = None
    post_dim: Optional[int] = None

    @property
    def output_dim(self) -> int:
        return self.carrier_dim if self.post_dim is None else self.post_dim


def algebra_from_interpretation(interp: operad.Interpretation) -> AlgebraMap:
    return AlgebraMap(interp, interp.carrier())


def algebra_eval(alg: AlgebraMap, x: MonadElement) -> np.ndarray:
    """sum of coeff * post(I(t)(v_1, ..., v_n)) over the generators of x."""
    d = alg.output_dim
    total = np.zeros((d, d), dtype=complex)
    for coeff, term, args in x.terms:
        if any(isinstance(a, MonadElement) for a in args):
            raise DimensionMismatchError(
                "nested element in a base slot; flatten with mu before evaluating"
            )
        mm = operad.interpret(alg.interpretation, term, leaf_dim=alg.carrier_dim)
        val = channels.apply_ops(mm, list(args))
        if alg.post is not None:
            val = alg.post(val)
        total += coeff * val
    return total


def cptp_family(alg: AlgebraMap, symbol) -> channels.OperatorMultiMap:
    """The multilinear map (a_1, ..., a_n) -> eval([s; a_1, ..., a_n])."""
    sym = symbol if isinstance(symbol, operad.OperadSymbol) else alg.interpretation.operad[symbol]
    term = operad.Apply(sym, tuple(operad.Leaf(i) for i in range(sym.arity)))

    def fn(*mats):
        return algebra_eval(alg, MonadElement(((1.0, term, tuple(mats)),)))

    return channels.multimap_from_function(
        fn, (alg.carrier_dim,) * sym.arity, alg.output_dim
    )


def _assigned_symbols(interp: operad.Interpretation):
    return [interp.operad[name] for name in sorted(interp.assign)]


def homomorphism_check(
    f: Callable,
    alg_a: AlgebraMap,
    alg_b: AlgebraMap,
    trials: int = 50,
    seed: int = 0,
    out_map: Optional[Callable] = None,
    tol: float = 1e-10,
) -> dict:
    """Test out_map(eval_A([t; a])) = eval_B([t; f(a)]) on random generators.

    out_map defaults to f, the plain homomorphism square; pass a different
    map for an intertwining pair acting separately on inputs and outputs.
    Even trials use single-symbol generators, odd trials deeper terms."""
    rng = np.random.default_rng(seed)
    if out_map is None:
        out_map = f
    symbols = _assigned_symbols(alg_a.interpretation)
    if not symbols:
        raise UnassignedSymbolError("the source interpretation assigns no symbols")
    d = alg_a.carrier_dim
    worst = 0.0
    witness = None
    for trial in range(trials):
        if trial % 2 == 0:
            sym = symbols[int(rng.integers(len(symbols)))]
            term = operad.Apply(sym, tuple(operad.Leaf(i) for i in range(sym.arity)))
        else:
            term = operad.random_term(rng, symbols)
        n = operad.arity(term)
        args = tuple(
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n)
        )
        lhs = out_map(algebra_eval(alg_a, MonadElement(((1.0, term, args),))))
        rhs = algebra_eval(
            alg_b, MonadElement(((1.0, term, tuple(f(a) for a in args)),))
        )
        r = float(linalg.frobenius(lhs - rhs))
        worst = max(worst, r)
        if witness is None and r > tol:
            witness = {"term": term, "args": args, "residual": r}
    return {
        "passed": worst <= tol,
        "max_residual": worst,
        "trials": trials,
        "tol": tol,
        "witness": witness,
    }


def representation_of(
    phi: channels.QuantumChannel, interp: operad.Interpretation
) -> AlgebraMap:
    """Structure map attached to a channel: evaluate the decorated term over
    the interpretation, then push the value through the channel.

    Composing with anything other than the identity gives up the unit law
    on purpose; what remains is exactly the evaluation data compared by
    operational_equivalence."""
    d = interp.carrier()
    if phi.in_dim != d:
        raise DimensionMismatchError(
            f"channel input dim {phi.in_dim} does not match the carrier dim {d}"
        )
    return AlgebraMap(
        interp,
        d,
        post=lambda m: channels.channel_apply(phi, m),
        post_dim=phi.out_dim,
    )


def operational_equivalence(
    phi_a: channels.QuantumChannel,
    phi_b: channels.QuantumChannel,
    interp: operad.Interpretation,
    term_trials: int = 25,
    seed: int = 0,
    tol: float = 1e-10,
) -> dict:
    """Decide whether two channels evaluate identically over all decorated
    terms of the interpretation, up to the implemented sweep.

    The deterministic part sweeps every assigned symbol of arity at most two
    over matrix-unit decorations; the random part draws deeper terms with
    Ginibre decorations.  Agreement everywhere is equivalence relative to
    this sweep; the first disagreement is returned as a witness."""
    if (phi_a.in_dim, phi_a.out_dim) != (phi_b.in_dim, phi_b.out_dim):
        raise DimensionMismatchError("channels being compared must share dimensions")
    alg_a = representation_of(phi_a, interp)
    alg_b = representation_of(phi_b, interp)
    d = alg_a.carrier_dim
    units = [e for _, _, e in linalg.matrix_units(d)]
    worst = 0.0
    witness = None
    sweep_cases = 0

    def evaluator(alg, term):
        mm = operad.interpret(alg.interpretation, term, leaf_dim=d)

        def ev(args):
            val = channels.apply_ops(mm, list(args))
            return alg.post(val) if alg.post is not None else val

        return ev

    def run(term, arg_tuples):
        nonlocal worst, witness, sweep_cases
        ev_a = evaluator(alg_a, term)
        ev_b = evaluator(alg_b, term)
        for args in arg_tuples:
            sweep_cases += 1
            r = float(linalg.frobenius(ev_a(args) - ev_b(args)))
            worst = max(worst, r)
            if witness is None and r > tol:
                witness = {"term": term, "args": list(args), "residual": r}

    for sym in _assigned_symbols(interp):
        if sym.arity > 2:
            continue
        term = operad.Apply(sym, tuple(operad.Leaf(i) for i in range(sym.arity)))
        run(term, itertools.product(units, repeat=sym.arity))
    rng = np.random.default_rng(seed)
    pool = _assigned_symbols(interp)
    random_cases = 0
    for _ in range(term_trials):
        term = operad.random_term(rng, pool)
        n = operad.arity(term)
        args = tuple(
            rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n)
        )
        run(term, [args])
        random_cases += 1
    return {
        "equivalent": worst <= tol,
        "max_residual": worst,
        "tol": tol,
        "sweep_cases": sweep_cases - random_cases,
        "random_trials": random_cases,
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
    bad = channels.choi_min_eigenvalue(phi)
    if bad < -1e-10:
        raise NotCompletelyPositiveError(
            "only completely positive maps admit a dilation circuit",
            min_eigenvalue=bad,
        )
    if not channels.is_tp(phi):
        raise ValueError("the circuit construction needs a trace preserving channel")
    ks = channels.kraus_from_choi(phi)
    n, m, r = phi.in_dim, phi.out_dim, len(ks.operators)
    anc = 1
    while (n * anc) % m != 0 or (n * anc) // m < r:
        anc += 1
    big = n * anc
    env = big // m
    v_pad = np.zeros((big, n), dtype=complex)
    for a in range(m):
        for alpha in range(r):
            v_pad[a * env + alpha, :] = ks.operators[alpha][a, :]
    # complete the isometry columns to a unitary: the input state sits on
    # ancilla level 0, so column i*anc carries V e_i, and the trailing left
    # singular vectors of V span the complement of its range
    u = np.zeros((big, big), dtype=complex)
    u[:, ::anc] = v_pad
    u[:, np.arange(big) % anc != 0] = npl.svd(v_pad)[0][:, n:]
    joint = channels.kraus_to_superop(channels.KrausSet((u,)))
    trace_env = channels.KrausSet(
        tuple(np.kron(np.eye(m), np.eye(env)[e : e + 1]) for e in range(env))
    )
    boxes = {
        "prep_env": channels.OperatorMultiMap(
            (), anc, linalg.vec(linalg.matrix_unit(anc, 0, 0)).reshape(-1, 1)
        ),
        "joint_unitary": channels.OperatorMultiMap(
            (n, anc), big, joint[:, np.argsort(linalg.mingle_index((n, anc)))]
        ),
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
    """Interpret a circuit with directly given box actions and package the
    grouped superoperator as a channel between the product spaces."""
    if isinstance(in_dims, int):
        in_dims = (in_dims,)
    wm = operad.interpret_circuit(box_interpretation(boxes), circuit, tuple(in_dims))
    din = int(np.prod(wm.dims_in)) if wm.dims_in else 1
    dout = int(np.prod(wm.dims_out)) if wm.dims_out else 1
    return channels.QuantumChannel(din, dout, channels.superop_to_choi(wm.superop, din, dout))


def monoidal_compat_check(
    phi_1: channels.QuantumChannel,
    phi_2: channels.QuantumChannel,
    interp,
    trials: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
) -> dict:
    """Compare the product-channel representation against the product of the
    representations on product generators.

    Slot convention for the interleaving: all slots of the first factor
    precede those of the second.  Each trial evaluates a decorated term
    separately in both carriers and checks that the kron of the values,
    pushed through channel_kron, matches the kron of the pushed values."""
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
            sym = pool[int(rng.integers(len(pool)))]
            term = operad.Apply(sym, tuple(operad.Leaf(i) for i in range(sym.arity)))
        else:
            term = operad.random_term(rng, pool)
        n = operad.arity(term)
        a = [rng.normal(size=(d_1, d_1)) + 1j * rng.normal(size=(d_1, d_1)) for _ in range(n)]
        b = [rng.normal(size=(d_2, d_2)) + 1j * rng.normal(size=(d_2, d_2)) for _ in range(n)]
        y_1 = channels.apply_ops(operad.interpret(i_1, term, leaf_dim=d_1), a)
        y_2 = channels.apply_ops(operad.interpret(i_2, term, leaf_dim=d_2), b)
        lhs = channels.channel_apply(product, linalg.kron(y_1, y_2))
        rhs = linalg.kron(
            channels.channel_apply(phi_1, y_1), channels.channel_apply(phi_2, y_2)
        )
        worst = max(worst, float(linalg.frobenius(lhs - rhs)))
    return {
        "passed": worst <= tol,
        "max_residual": worst,
        "trials": trials,
        "tol": tol,
        "strength": "first factor slots precede second factor slots",
    }
