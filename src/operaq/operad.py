"""Free symmetric operad terms and the free symmetric monoidal circuit
category, with interpretation into operator multimaps.

Terms are leaf-labeled trees: a term of arity n has n leaves whose slot
labels form a permutation of 0..n-1, leaf j consuming the j-th input.
Permutation nodes are a lazy spelling of the symmetric action; canonical
forms contain none.  Circuits are wire networks whose boxes are listed in
firing order, built from generators and identity wires by sequential and
parallel composition; their value is an operator map with one slot per
input wire and the output wires grouped into one operator, so circuits
that differ only in the order of independent boxes, as the two sides of
the interchange law do, have the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import channels, linalg
from .errors import (
    DimensionMismatchError,
    NonLinearGeneratorError,
    UnassignedSymbolError,
)


@dataclass(frozen=True)
class OperadSymbol:
    name: str
    arity: int
    signature: Optional[tuple[tuple[int, ...], int]] = None
    formal: bool = False  # adjoined, deliberately uninterpretable

    def __post_init__(self):
        if self.arity < 0:
            raise DimensionMismatchError("arity must be non-negative")
        if self.signature is not None:
            ins, out = self.signature
            if len(ins) != self.arity:
                raise DimensionMismatchError(
                    f"signature of {self.name} lists {len(ins)} inputs for arity {self.arity}"
                )
            object.__setattr__(self, "signature", (tuple(int(d) for d in ins), int(out)))


@dataclass(frozen=True)
class OperadSpec:
    symbols: tuple[OperadSymbol, ...]

    def __post_init__(self):
        symbols = tuple(self.symbols)
        names = [s.name for s in symbols]
        if len(set(names)) != len(names):
            raise DimensionMismatchError("symbol names must be unique")
        object.__setattr__(self, "symbols", symbols)

    def __getitem__(self, name: str) -> OperadSymbol:
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(s.name == name for s in self.symbols)


@dataclass(frozen=True)
class Leaf:
    slot: int


@dataclass(frozen=True)
class Apply:
    symbol: OperadSymbol
    children: tuple["OperadTerm", ...]

    def __post_init__(self):
        children = tuple(self.children)
        if len(children) != self.symbol.arity:
            raise DimensionMismatchError(
                f"{self.symbol.name} has arity {self.symbol.arity}, got {len(children)} children"
            )
        object.__setattr__(self, "children", children)


@dataclass(frozen=True)
class Permuted:
    perm: tuple[int, ...]
    sub: "OperadTerm"

    def __post_init__(self):
        perm = tuple(int(p) for p in self.perm)
        if sorted(perm) != list(range(len(perm))):
            raise DimensionMismatchError(f"{perm} is not a permutation")
        object.__setattr__(self, "perm", perm)


OperadTerm = Union[Leaf, Apply, Permuted]


def unit_term() -> OperadTerm:
    """The operadic unit: the bare 1-slot tree."""
    return Leaf(0)


def arity(t: OperadTerm) -> int:
    if isinstance(t, Leaf):
        return 1
    if isinstance(t, Apply):
        return sum(arity(c) for c in t.children)
    if isinstance(t, Permuted):
        n = arity(t.sub)
        if len(t.perm) != n:
            raise DimensionMismatchError("permutation size does not match subterm arity")
        return n
    raise TypeError(f"not an operad term: {t!r}")


def _labels(t: OperadTerm) -> list[int]:
    """Leaf labels of a term already in canonical form, read left to right."""
    if isinstance(t, Leaf):
        return [t.slot]
    return [lab for c in t.children for lab in _labels(c)]


def leaf_labels(t: OperadTerm) -> list[int]:
    """Leaf labels of the canonical form, read left to right."""
    return _labels(canonical_form(t))


def _check_labels(labels: list[int]) -> list[int]:
    if sorted(labels) != list(range(len(labels))):
        raise DimensionMismatchError(f"leaf labels {labels} are not a permutation of slots")
    return labels


def validate_term(t: OperadTerm) -> list[int]:
    """Raise unless the leaf labels are a permutation of the slots; return
    the labels, as leaf_labels does."""
    return _check_labels(leaf_labels(t))


def canonical_form(t: OperadTerm) -> OperadTerm:
    """Eliminate every Permuted node by composing its relabeling into the
    leaves."""

    # subtrees that come out unchanged are returned as the same object, so
    # an already canonical term is walked but not rebuilt
    def push(node, relab):
        if isinstance(node, Leaf):
            slot = relab.get(node.slot, node.slot)
            return node if slot == node.slot else Leaf(slot)
        if isinstance(node, Apply):
            children = tuple(push(c, relab) for c in node.children)
            if all(new is old for new, old in zip(children, node.children)):
                return node
            return Apply(node.symbol, children)
        if isinstance(node, Permuted):
            inner = {j: relab.get(p, p) for j, p in enumerate(node.perm)}
            return push(node.sub, inner)
        raise TypeError(f"not an operad term: {node!r}")

    return push(t, {})


def terms_equal(a: OperadTerm, b: OperadTerm) -> bool:
    return canonical_form(a) == canonical_form(b)


def sigma_act(perm, t: OperadTerm) -> OperadTerm:
    perm = tuple(int(p) for p in perm)
    if len(perm) != arity(t):
        raise DimensionMismatchError("permutation size does not match term arity")
    return canonical_form(Permuted(perm, t))


def _shift(t: OperadTerm, offset: int) -> OperadTerm:
    if isinstance(t, Leaf):
        return Leaf(t.slot + offset)
    return Apply(t.symbol, tuple(_shift(c, offset) for c in t.children))


def gamma(f: OperadTerm, parts) -> OperadTerm:
    """Operadic composition: graft parts[k] into the leaf of f labeled k,
    shifting part labels by the arity offsets of the earlier parts."""
    f = canonical_form(f)
    parts = [canonical_form(p) for p in parts]
    f_labels = _labels(f)
    if len(parts) != len(f_labels):
        raise DimensionMismatchError(f"term has arity {len(f_labels)}, got {len(parts)} parts")
    _check_labels(f_labels)
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + len(_check_labels(_labels(p))))

    def graft(node):
        if isinstance(node, Leaf):
            return _shift(parts[node.slot], offsets[node.slot])
        return Apply(node.symbol, tuple(graft(c) for c in node.children))

    return graft(f)


def block_permutation(sigma, arities) -> tuple[int, ...]:
    """The permutation beta with beta(o'_j + i) = o_{sigma(j)} + i, where o
    are offsets of `arities` and o' the offsets after reordering by sigma;
    this is the leaf-level shadow of permuting composition blocks."""
    sigma = tuple(int(s) for s in sigma)
    arities = [int(n) for n in arities]
    offsets = np.concatenate([[0], np.cumsum(arities)])[:-1]
    beta = [0] * sum(arities)
    at = 0
    for j in range(len(sigma)):
        k = sigma[j]
        for i in range(arities[k]):
            beta[at + i] = int(offsets[k]) + i
        at += arities[k]
    return tuple(beta)


def random_term(rng, symbols, max_depth: int = 3) -> OperadTerm:
    """Random canonical term over the symbol pool, with shuffled slot
    labels."""
    pool = [s for s in symbols if s.arity > 0]
    nullary = [s for s in symbols if s.arity == 0]

    def grow(depth):
        if not pool or depth >= max_depth or rng.random() < 0.3:
            return Leaf(0)
        choices = pool + (nullary if depth > 0 else [])
        sym = choices[rng.integers(len(choices))]
        return Apply(sym, tuple(grow(depth + 1) for _ in range(sym.arity)))

    skeleton = grow(0)

    labels = iter(rng.permutation(arity(skeleton)))

    def relabel(node):
        if isinstance(node, Leaf):
            return Leaf(int(next(labels)))
        return Apply(node.symbol, tuple(relabel(c) for c in node.children))

    return relabel(skeleton)


def operad_axiom_suite(symbols, trials: int = 100, seed: int = 0) -> dict:
    """Structural law checks on random terms: unit, associativity,
    symmetric-action composition, and the composition equivariance law."""
    rng = np.random.default_rng(seed)
    symbols = list(symbols)
    violations = []
    checks = 0

    def expect(name, ok):
        nonlocal checks
        checks += 1
        if not ok:
            violations.append(name)

    for trial in range(trials):
        f = random_term(rng, symbols)
        m = arity(f)
        expect("unit-left", terms_equal(gamma(unit_term(), [f]), f))
        expect("unit-right", terms_equal(gamma(f, [unit_term()] * m), f))

        sigma = tuple(int(i) for i in rng.permutation(m)) if m else ()
        tau = tuple(int(i) for i in rng.permutation(m)) if m else ()
        if m:
            composed = tuple(sigma[tau[j]] for j in range(m))
            expect(
                "sigma-compose",
                terms_equal(sigma_act(sigma, sigma_act(tau, f)), sigma_act(composed, f)),
            )

        parts = [random_term(rng, symbols, max_depth=2) for _ in range(m)]
        arities = [arity(p) for p in parts]
        total = sum(arities)
        composite = gamma(f, parts)
        expect("gamma-arity", arity(composite) == total)

        if m:
            lhs = gamma(sigma_act(sigma, f), parts)
            beta = block_permutation(sigma, arities)
            rhs = sigma_act(beta, gamma(f, [parts[sigma[j]] for j in range(m)]))
            expect("equivariance", terms_equal(lhs, rhs))

        subparts = [random_term(rng, symbols, max_depth=1) for _ in range(total)]
        offsets = np.concatenate([[0], np.cumsum(arities)])[:-1]
        nested = gamma(
            f,
            [
                gamma(parts[k], subparts[int(offsets[k]) : int(offsets[k]) + arities[k]])
                for k in range(m)
            ],
        )
        flat = gamma(composite, subparts)
        expect("associativity", terms_equal(nested, flat))

    return {"trials": trials, "checks": checks, "violations": violations, "passed": not violations}


# ---------------------------------------------------------------------------
# interpretation of terms


@dataclass(frozen=True)
class Interpretation:
    operad: OperadSpec
    assign: dict
    carrier_dim: Optional[int] = None

    def __post_init__(self):
        normalized = {}
        for name, value in self.assign.items():
            if name not in self.operad:
                raise UnassignedSymbolError(f"{name} is not a symbol of the operad")
            sym = self.operad[name]
            if sym.formal:
                raise NonLinearGeneratorError(f"{name} is a formal generator and has no action")
            value = channels.channel_multimap(value)
            if value.arity != sym.arity:
                raise DimensionMismatchError(
                    f"{name} has arity {sym.arity} but its action takes {value.arity} inputs"
                )
            if sym.signature is not None:
                ins, out = sym.signature
                if value.input_operator_dims != ins or value.output_operator_dim != out:
                    raise DimensionMismatchError(f"action for {name} violates its signature")
            if self.carrier_dim is not None:
                dims = set(value.input_operator_dims) | {value.output_operator_dim}
                if dims - {self.carrier_dim}:
                    raise DimensionMismatchError(
                        f"action for {name} leaves the declared carrier dimension"
                    )
            normalized[name] = value
        if "id" in normalized:
            mm = normalized["id"]
            d = mm.output_operator_dim
            if mm.input_operator_dims != (d,) or not np.allclose(
                mm.action_matrix, np.eye(d * d), atol=1e-12
            ):
                raise DimensionMismatchError("the id symbol must act as the identity")
        object.__setattr__(self, "assign", normalized)

    def action(self, name: str) -> channels.OperatorMultiMap:
        sym = self.operad[name]
        if sym.formal:
            raise NonLinearGeneratorError(
                f"{name} was adjoined formally; no linear action exists"
            )
        if name not in self.assign:
            raise UnassignedSymbolError(f"no action assigned for symbol {name}")
        return self.assign[name]

    def carrier(self) -> int:
        """The carrier dimension: the declared one, else the output dimension
        of the id action, else that of the first assigned action."""
        if self.carrier_dim is not None:
            return self.carrier_dim
        if "id" in self.assign:
            return self.assign["id"].output_operator_dim
        for mm in self.assign.values():
            return mm.output_operator_dim
        raise DimensionMismatchError(
            "cannot infer a carrier dimension from an empty interpretation"
        )


def _contract(boxes, out_wires, in_wires, dim) -> np.ndarray:
    """Matrix of a wire network of operator maps, contracted back from the
    outputs.  boxes are (wire, in_wires, multimap) triples, each listed
    after the box that consumes its wire.  The running tensor has a
    (column, row) axis pair per output wire, then one per open wire; it
    starts as the identity, and each box swaps its wire's pair for its
    inputs' pairs by one matrix product.  Rows come out grouped (the vec of
    the joint output operator) and columns slotwise, one input wire after
    another.  numpy caps arrays at 64 axes, so more than about 31 open
    slots raise ValueError."""
    k = len(out_wires)
    pairs = [dim[w] for w in out_wires for _ in "cr"]
    side = int(np.prod(pairs))
    t = np.eye(side, dtype=complex).reshape(pairs * 2)
    live = list(out_wires)
    for w, ins, mm in boxes:
        at = 2 * (k + live.index(w))
        rest = [i for i in range(t.ndim) if i not in (at, at + 1)]
        shape = [t.shape[i] for i in rest] + [d for d in mm.input_operator_dims for _ in "cr"]
        flat = t.transpose(rest + [at, at + 1]).reshape(-1, mm.action_matrix.shape[0])
        t = (flat @ mm.action_matrix).reshape(shape)
        live.remove(w)
        live += ins
    order = [a + r for r in (0, 1) for a in range(0, 2 * k, 2)]
    order += [2 * (k + live.index(w)) + r for w in in_wires for r in (0, 1)]
    return t.transpose(order).reshape(side, -1)


def _compose_multimaps(base, children) -> channels.OperatorMultiMap:
    """base with children[k] in its slot k: one base box over its parts."""
    n = len(children)
    boxes, dims = [(0, range(1, n + 1), base)], [base.output_operator_dim]
    dims += [c.output_operator_dim for c in children]
    for w, c in enumerate(children, 1):
        boxes.append((w, range(len(dims), len(dims) + c.arity), c))
        dims += c.input_operator_dims
    matrix = _contract(boxes, [0], range(n + 1, len(dims)), dims)
    return channels.OperatorMultiMap(tuple(dims[n + 1 :]), dims[0], matrix)


def interpret(interp: Interpretation, t: OperadTerm, leaf_dim: Optional[int] = None) -> channels.OperatorMultiMap:
    """Evaluate a term to its operator multimap, slots ordered by leaf
    label: every node is a box, and the leaf labeled k is input wire k."""
    t = canonical_form(t)
    n = len(validate_term(t))
    boxes, dims, leaf_wire = [], [], [0] * n

    def walk(node, expected_dim):
        w = len(dims)
        dims.append(expected_dim)
        if isinstance(node, Leaf):
            if expected_dim is None:
                raise DimensionMismatchError(
                    "a bare leaf needs an explicit dimension (leaf_dim)"
                )
            leaf_wire[node.slot] = w
            return w
        base = interp.action(node.symbol.name)
        if expected_dim is not None and base.output_operator_dim != expected_dim:
            raise DimensionMismatchError(
                f"{node.symbol.name} outputs dim {base.output_operator_dim}, expected {expected_dim}"
            )
        dims[w] = base.output_operator_dim
        ins = []
        boxes.append((w, ins, base))
        ins += [walk(c, d) for c, d in zip(node.children, base.input_operator_dims)]
        return w

    walk(t, leaf_dim)
    return channels.OperatorMultiMap(
        tuple(dims[w] for w in leaf_wire),
        dims[0],
        _contract(boxes, [0], leaf_wire, dims),
    )


def evaluate(interp: Interpretation, t: OperadTerm, args, dim: int) -> np.ndarray:
    """The term decorated with args[k] at the leaf labeled k, evaluated by
    structural recursion: each node applies its action to its children's
    values, and no multimap is built.  The value must be dim x dim; a bare
    leaf's decoration is checked by nothing else."""
    t = canonical_form(t)
    n = len(validate_term(t))
    if n != len(args):
        raise DimensionMismatchError(f"term of arity {n} decorated with {len(args)} values")

    def walk(node):
        if isinstance(node, Leaf):
            return args[node.slot]
        return channels.apply_ops(interp.action(node.symbol.name), [walk(c) for c in node.children])

    value = linalg.as_matrix(walk(t))
    if value.shape != (dim, dim):
        raise DimensionMismatchError(f"the term's value has shape {value.shape}, expected side {dim}")
    return value


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class CircuitBox:
    symbol: str
    in_wires: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "in_wires", tuple(int(w) for w in self.in_wires))


@dataclass(frozen=True)
class CircuitTerm:
    """Wires 0..n_in-1 are the inputs; box k produces wire n_in + k and
    reads only earlier wires, so the boxes are listed in firing order.
    Every wire is consumed exactly once, by a box or by the output row."""

    n_in: int
    boxes: tuple[CircuitBox, ...]
    out_wires: tuple[int, ...]

    def __post_init__(self):
        boxes = tuple(self.boxes)
        outs = tuple(int(w) for w in self.out_wires)
        wires = set(range(self.n_in + len(boxes)))
        used = list(outs) + [w for b in boxes for w in b.in_wires]
        if any(w not in wires for w in used):
            raise DimensionMismatchError("circuit references a wire that no box produces")
        if sorted(used) != sorted(wires):
            raise DimensionMismatchError("every wire must be consumed exactly once")
        for k, b in enumerate(boxes):
            if any(w >= self.n_in + k for w in b.in_wires):
                raise DimensionMismatchError(
                    f"box {k} ({b.symbol}) reads a wire made by itself or a later box; "
                    "boxes are listed in firing order"
                )
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "out_wires", outs)

    @property
    def n_out(self) -> int:
        return len(self.out_wires)


def identity_circuit(n: int) -> CircuitTerm:
    return CircuitTerm(n, (), tuple(range(n)))


def generator_circuit(symbol: str, arity: int) -> CircuitTerm:
    return CircuitTerm(arity, (CircuitBox(symbol, tuple(range(arity))),), (arity,))


def circuit_compose(second: CircuitTerm, first: CircuitTerm) -> CircuitTerm:
    """second after first."""
    if second.n_in != first.n_out:
        raise DimensionMismatchError(
            f"cannot compose: {first.n_out} outputs into {second.n_in} inputs"
        )
    base = first.n_in + len(first.boxes)

    def remap(w):
        return first.out_wires[w] if w < second.n_in else base + (w - second.n_in)

    boxes = first.boxes + tuple(
        CircuitBox(b.symbol, tuple(remap(w) for w in b.in_wires)) for b in second.boxes
    )
    return CircuitTerm(first.n_in, boxes, tuple(remap(w) for w in second.out_wires))


def circuit_parallel(a: CircuitTerm, b: CircuitTerm) -> CircuitTerm:
    n = a.n_in + b.n_in

    def remap_a(w):
        return w if w < a.n_in else n + (w - a.n_in)

    def remap_b(w):
        return a.n_in + w if w < b.n_in else n + len(a.boxes) + (w - b.n_in)

    boxes = tuple(CircuitBox(x.symbol, tuple(remap_a(w) for w in x.in_wires)) for x in a.boxes)
    boxes += tuple(CircuitBox(x.symbol, tuple(remap_b(w) for w in x.in_wires)) for x in b.boxes)
    outs = tuple(remap_a(w) for w in a.out_wires) + tuple(remap_b(w) for w in b.out_wires)
    return CircuitTerm(n, boxes, outs)


def interpret_circuit(interp: Interpretation, c: CircuitTerm, in_dims) -> channels.OperatorMultiMap:
    """The circuit's operator map, one slot per input wire and the output
    wires grouped into one operator: its boxes, latest firing first,
    contracted back from the output wires."""
    in_dims = tuple(int(d) for d in in_dims)
    if len(in_dims) != c.n_in:
        raise DimensionMismatchError("one dimension per input wire required")
    dim = list(in_dims)
    boxes = []
    for k, b in enumerate(c.boxes):
        mm = interp.action(b.symbol)
        if mm.arity != len(b.in_wires):
            raise DimensionMismatchError(f"box {b.symbol} wired with wrong arity")
        for w, d in zip(b.in_wires, mm.input_operator_dims):
            if dim[w] != d:
                raise DimensionMismatchError(
                    f"wire dim {dim[w]} does not match {b.symbol} slot dim {d}"
                )
        dim.append(mm.output_operator_dim)
        boxes.append((c.n_in + k, b.in_wires, mm))
    out = int(np.prod([dim[w] for w in c.out_wires]))
    return channels.OperatorMultiMap(
        in_dims, out, _contract(boxes[::-1], c.out_wires, range(c.n_in), dim)
    )
