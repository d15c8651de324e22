"""The wire-network contraction behind interpret, interpret_circuit and
_compose_multimaps, checked against the kron-and-gather constructions it
replaced, which live on here as oracles, and against the layer-sorted
circuit contraction with grouped columns (oracles.layered_circuit_map)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from operaq import channels as ch
from operaq import ideals, linalg, operad as op
from operaq import sampling
from operaq.errors import DimensionMismatchError
from oracles import (
    choi_to_superop,
    factor_permutation_index,
    layer_assignment,
    layered_circuit_map,
    mingle_index,
    superop_kron,
)

# ---------------------------------------------------------------------------
# oracles: the constructions before the contraction


def old_compose_multimaps(base, children):
    block = linalg.kron_all([c.action_matrix for c in children]) if children else np.eye(1)
    dims = tuple(d for c in children for d in c.input_operator_dims)
    return ch.OperatorMultiMap(dims, base.output_operator_dim, base.action_matrix @ block)


def old_interpret(interp, t, leaf_dim=None):
    t = op.canonical_form(t)
    op.validate_term(t)

    def walk(node, expected_dim):
        if isinstance(node, op.Leaf):
            if expected_dim is None:
                raise DimensionMismatchError("a bare leaf needs an explicit dimension (leaf_dim)")
            return ch.identity_multimap(expected_dim), [node.slot]
        base = interp.action(node.symbol.name)
        if expected_dim is not None and base.output_operator_dim != expected_dim:
            raise DimensionMismatchError("output dim mismatch")
        mms, labels = [], []
        for child, d in zip(node.children, base.input_operator_dims):
            mm, lab = walk(child, d)
            mms.append(mm)
            labels.extend(lab)
        return old_compose_multimaps(base, mms), labels

    mm, labels = walk(t, leaf_dim)
    if not labels:
        return mm
    dims_by_label = [0] * len(labels)
    for pos, lab in enumerate(labels):
        dims_by_label[lab] = mm.input_operator_dims[pos]
    src = factor_permutation_index(tuple(d * d for d in dims_by_label), labels)
    return ch.OperatorMultiMap(
        tuple(dims_by_label), mm.output_operator_dim, mm.action_matrix[:, np.argsort(src)]
    )


def superop_permutation_index(dims, perm):
    src = factor_permutation_index(dims, perm)
    return (src[:, None] * src.size + src[None, :]).ravel()


def old_interpret_circuit(interp, c, in_dims):
    """The circuit's value as a one-slot map on the joint input space."""
    in_dims = tuple(int(d) for d in in_dims)
    box_layer = layer_assignment(c)
    dim = {w: in_dims[w] for w in range(c.n_in)}
    live = list(range(c.n_in))
    total = np.eye(int(np.prod([d * d for d in in_dims])), dtype=complex)
    for lv in sorted(set(box_layer)) if box_layer else []:
        members = [k for k, l in enumerate(box_layer) if l == lv]
        with_inputs = sorted(
            (k for k in members if c.boxes[k].in_wires),
            key=lambda k: min(live.index(w) for w in c.boxes[k].in_wires),
        )
        nullary = sorted(
            (k for k in members if not c.boxes[k].in_wires),
            key=lambda k: (c.boxes[k].symbol, k),
        )
        actions = {}
        for k in members:
            mm = interp.action(c.boxes[k].symbol)
            dim[c.n_in + k] = mm.output_operator_dim
            actions[k] = mm
        new_order = [w for k in with_inputs for w in c.boxes[k].in_wires]
        passthrough = [w for w in live if w not in set(new_order)]
        perm = tuple(live.index(w) for w in new_order + passthrough)
        p_src = superop_permutation_index(tuple(dim[w] for w in live), perm)
        superops = [
            actions[k].action_matrix[:, mingle_index(actions[k].input_operator_dims)]
            for k in with_inputs
        ]
        superops += [np.eye(dim[w] ** 2, dtype=complex) for w in passthrough]
        superops += [actions[k].action_matrix for k in nullary]
        block_in = [int(np.prod(actions[k].input_operator_dims)) for k in with_inputs]
        block_in += [dim[w] for w in passthrough] + [1] * len(nullary)
        block_out = [actions[k].output_operator_dim for k in with_inputs]
        block_out += [dim[w] for w in passthrough]
        block_out += [actions[k].output_operator_dim for k in nullary]
        total = superop_kron(superops, tuple(block_in), tuple(block_out)) @ total[p_src]
        live = [c.n_in + k for k in with_inputs] + passthrough + [c.n_in + k for k in nullary]
    perm = tuple(live.index(w) for w in c.out_wires)
    final = superop_permutation_index(tuple(dim[w] for w in live), perm)
    dout = int(np.prod([dim[w] for w in c.out_wires]))
    return ch.OperatorMultiMap((int(np.prod(in_dims)),), dout, total[final])


# ---------------------------------------------------------------------------
# random networks

DIMS = st.integers(1, 3)
SEEDS = st.integers(0, 2**31 - 1)


def random_multimap(rng, ins, out):
    cols = int(np.prod([d * d for d in ins]))
    return ch.OperatorMultiMap(tuple(ins), out, sampling.ginibre(rng, out * out, cols))


def draw_term(data, max_depth=3):
    """A random term with nullary, unary and binary symbols, each with its
    own signature of dims 1-3 and a Ginibre action; returns the
    interpretation, the term and the root dim."""
    rng = np.random.default_rng(data.draw(SEEDS))
    symbols, assign, leaf_dims = [], {}, []

    def grow(depth, d):
        if depth == max_depth or data.draw(st.integers(0, 3)) == 0:
            leaf_dims.append(d)
            return op.Leaf(len(leaf_dims) - 1)
        ins = tuple(data.draw(DIMS) for _ in range(data.draw(st.integers(0, 2))))
        sym = op.OperadSymbol(f"s{len(symbols)}", len(ins), (ins, d))
        symbols.append(sym)
        assign[sym.name] = random_multimap(rng, ins, d)
        return op.Apply(sym, tuple(grow(depth + 1, k) for k in ins))

    root_dim = data.draw(DIMS)
    skeleton = grow(0, root_dim)
    assume(np.prod([d * d for d in leaf_dims]) <= 6561)
    labels = data.draw(st.permutations(range(len(leaf_dims))))

    def relabel(node):
        if isinstance(node, op.Leaf):
            return op.Leaf(labels[node.slot])
        return op.Apply(node.symbol, tuple(relabel(c) for c in node.children))

    return op.Interpretation(op.OperadSpec(tuple(symbols)), assign), relabel(skeleton), root_dim


def draw_circuit(data):
    """A random circuit: 0-3 input wires, 0-4 boxes of arity 0-2 on
    whatever wires are still open, listed in firing order, and the open
    wires permuted onto the outputs."""
    rng = np.random.default_rng(data.draw(SEEDS))
    n_in = data.draw(st.integers(0, 3))
    dims = [data.draw(DIMS) for _ in range(n_in)]
    open_wires = list(range(n_in))
    boxes = []  # box j makes wire n_in + j
    assign, symbols = {}, []
    for j in range(data.draw(st.integers(0, 4))):
        k = data.draw(st.integers(0, min(2, len(open_wires))))
        ins = data.draw(st.permutations(open_wires))[:k]
        open_wires = [w for w in open_wires if w not in ins] + [n_in + j]
        out = data.draw(DIMS)
        dims.append(out)
        name = f"b{j}"
        sym = op.OperadSymbol(name, k, (tuple(dims[w] for w in ins), out))
        symbols.append(sym)
        assign[name] = random_multimap(rng, sym.signature[0], out)
        boxes.append(op.CircuitBox(name, tuple(ins)))
    assume(np.prod([d * d for d in dims]) <= 2048)
    circuit = op.CircuitTerm(n_in, tuple(boxes), tuple(data.draw(st.permutations(open_wires))))
    interp = op.Interpretation(op.OperadSpec(tuple(symbols)), assign)
    return interp, circuit, tuple(dims[:n_in])


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interpret_matches_kron_oracle(data):
    interp, term, root_dim = draw_term(data)
    leaf_dim = root_dim if isinstance(term, op.Leaf) else None
    got = op.interpret(interp, term, leaf_dim=leaf_dim)
    want = old_interpret(interp, term, leaf_dim=leaf_dim)
    assert got.input_operator_dims == want.input_operator_dims
    assert got.output_operator_dim == want.output_operator_dim
    assert np.allclose(got.action_matrix, want.action_matrix, rtol=0, atol=1e-10)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interpret_circuit_matches_layer_oracle(data):
    interp, circuit, in_dims = draw_circuit(data)
    got = op.interpret_circuit(interp, circuit, in_dims)
    want = old_interpret_circuit(interp, circuit, in_dims)
    assert got.input_operator_dims == in_dims
    assert got.output_operator_dim == want.output_operator_dim
    assert np.allclose(ch.choi_of(got).choi, ch.choi_of(want).choi, rtol=0, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_circuit_choi_matches_the_layer_sorted_contraction(data):
    # the same matrix products as the layer-sorted contraction; where the
    # sort keeps the firing order they run in the same order and agree
    # bitwise, and where it moves an independent box they differ in
    # round-off only
    interp, circuit, in_dims = draw_circuit(data)
    got = ch.choi_of(op.interpret_circuit(interp, circuit, in_dims))
    want = ch.choi_of(layered_circuit_map(interp, circuit, in_dims))
    assert (got.in_dim, got.out_dim) == (want.in_dim, want.out_dim)
    layers = layer_assignment(circuit)
    if layers == sorted(layers):
        assert np.array_equal(got.choi, want.choi)
    else:
        assert np.allclose(got.choi, want.choi, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_multimaps_matches_kron_oracle(data):
    rng = np.random.default_rng(data.draw(SEEDS))
    slots = [data.draw(DIMS) for _ in range(data.draw(st.integers(0, 3)))]
    base = random_multimap(rng, slots, data.draw(DIMS))
    children = [
        random_multimap(rng, [data.draw(DIMS) for _ in range(data.draw(st.integers(0, 2)))], d)
        for d in slots
    ]
    assume(np.prod([d * d for c in children for d in c.input_operator_dims]) <= 6561)
    got = op._compose_multimaps(base, children)
    want = old_compose_multimaps(base, children)
    assert got.input_operator_dims == want.input_operator_dims
    assert np.allclose(got.action_matrix, want.action_matrix, rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grouped_channel_matches_mingle_gather(data):
    rng = np.random.default_rng(data.draw(SEEDS))
    slots = [data.draw(DIMS) for _ in range(data.draw(st.integers(0, 3)))]
    mm = random_multimap(rng, slots, data.draw(DIMS))
    din = int(np.prod(slots))
    want = mm.action_matrix[:, mingle_index(slots)]
    got = ch.choi_of(mm)
    assert np.array_equal(choi_to_superop(got.choi, din, mm.output_operator_dim), want)


# ---------------------------------------------------------------------------
# edge cases


def unary_interp(rng, d):
    spec = op.OperadSpec(tuple(op.OperadSymbol(f"u{i}", 1, ((d,), d)) for i in range(3)))
    return op.Interpretation(spec, {s.name: random_multimap(rng, (d,), d) for s in spec.symbols})


def test_bare_leaf_and_nullary_root():
    rng = np.random.default_rng(3)
    prep = op.OperadSymbol("prep", 0)
    interp = op.Interpretation(op.OperadSpec((prep,)), {"prep": random_multimap(rng, (), 3)})
    leaf = op.interpret(interp, op.Leaf(0), leaf_dim=3)
    assert leaf.input_operator_dims == (3,)
    assert np.array_equal(leaf.action_matrix, np.eye(9))
    root = op.interpret(interp, op.Apply(prep, ()))
    assert root.input_operator_dims == ()
    assert np.array_equal(root.action_matrix, interp.action("prep").action_matrix)


def test_empty_and_zero_input_circuits():
    rng = np.random.default_rng(4)
    prep = op.OperadSymbol("prep", 0, ((), 2))
    interp = op.Interpretation(op.OperadSpec((prep,)), {"prep": random_multimap(rng, (), 2)})
    empty = op.interpret_circuit(interp, op.identity_circuit(0), ())
    assert empty.action_matrix.shape == (1, 1) and empty.action_matrix[0, 0] == 1
    made = op.interpret_circuit(interp, op.generator_circuit("prep", 0), ())
    assert (made.input_operator_dims, made.output_operator_dim) == ((), 2)
    assert np.array_equal(made.action_matrix, interp.action("prep").action_matrix)


def test_three_wire_unary_layers_match_per_wire_chains():
    # each wire's chain of three unary boxes, multiplied out, then krons of
    # the chains regrouped: an oracle that never multiplies a joint matrix
    d = 3
    rng = np.random.default_rng(5)
    interp = unary_interp(rng, d)
    layer = op.identity_circuit(0)
    for name in ("u0", "u1", "u2"):
        layer = op.circuit_parallel(layer, op.generator_circuit(name, 1))
    circuit = op.circuit_compose(layer, op.circuit_compose(layer, layer))
    got = ch.choi_of(op.interpret_circuit(interp, circuit, (d,) * 3)).choi
    chains = [np.linalg.matrix_power(interp.action(f"u{i}").action_matrix, 3) for i in range(3)]
    want = superop_kron(chains, (d,) * 3, (d,) * 3)
    assert np.allclose(got, ch.choi_of(ch.OperatorMultiMap((d**3,), d**3, want)).choi,
                       rtol=0, atol=1e-10)
    assert np.allclose(got, ch.choi_of(old_interpret_circuit(interp, circuit, (d,) * 3)).choi,
                       rtol=0, atol=1e-10)


def test_contraction_builds_no_kron_or_gather(monkeypatch):
    rng = np.random.default_rng(6)
    f = op.OperadSymbol("f", 2, ((2, 2), 2))
    g = op.OperadSymbol("g", 1, ((2,), 2))
    prep = op.OperadSymbol("prep", 0, ((), 2))
    interp = op.Interpretation(
        op.OperadSpec((f, g, prep)),
        {
            "f": random_multimap(rng, (2, 2), 2),
            "g": random_multimap(rng, (2,), 2),
            "prep": random_multimap(rng, (), 2),
        },
    )
    term = op.Apply(f, (op.Apply(g, (op.Leaf(2),)), op.Apply(f, (op.Leaf(0), op.Leaf(1)))))
    circuit = op.circuit_compose(
        op.generator_circuit("f", 2),
        op.circuit_parallel(op.generator_circuit("g", 1), op.generator_circuit("prep", 0)),
    )
    joint = ch.channel_multimap(sampling.random_channel(rng, 4, 2), (2, 2))
    pool = [ch.channel_multimap(sampling.random_cptp(rng, 2, 2)) for _ in range(3)]
    pool.append(joint)
    want = (
        old_interpret(interp, term),
        old_interpret_circuit(interp, circuit, (2,)),
        ideals.closure_check(ideals.IdealSpec("noniso", "non-isometric"), pool, 60, 2),
    )

    def banned(*args, **kwargs):
        raise AssertionError("dense kron or gather on a contraction path")

    assert not hasattr(linalg, "mingle_index")
    monkeypatch.setattr(linalg, "kron_all", banned)
    got_term = op.interpret(interp, term)
    got_circuit = op.interpret_circuit(interp, circuit, (2,))
    report = ideals.closure_check(ideals.IdealSpec("noniso", "non-isometric"), pool, 60, 2)
    assert np.allclose(got_term.action_matrix, want[0].action_matrix, rtol=0, atol=1e-10)
    assert np.allclose(ch.choi_of(got_circuit).choi, ch.choi_of(want[1]).choi, rtol=0, atol=1e-10)
    assert report == want[2] and report["checks"] > 0


def test_circuit_dimension_and_cycle_errors_survive():
    rng = np.random.default_rng(7)
    interp = unary_interp(rng, 2)
    with pytest.raises(DimensionMismatchError, match="slot dim"):
        op.interpret_circuit(interp, op.generator_circuit("u0", 1), (3,))
    with pytest.raises(DimensionMismatchError, match="firing order"):
        op.CircuitTerm(0, (op.CircuitBox("u0", (1,)), op.CircuitBox("u1", (0,))), ())


def test_out_of_order_or_cyclic_boxes_are_refused_when_built():
    # two boxes reading each other's wires are refused by the test above
    box = op.CircuitBox
    backwards = (box("u1", (2,)), box("u0", (0,)))  # box 0 reads wire 2, made by box 1
    self_loop = (box("u0", (1,)),)  # box 0 reads wire 1, its own
    for boxes, outs in [(backwards, (1,)), (self_loop, (0,))]:
        with pytest.raises(DimensionMismatchError, match="firing order"):
            op.CircuitTerm(1, boxes, outs)
    # the backwards network listed in firing order is accepted
    assert op.CircuitTerm(1, (box("u0", (0,)), box("u1", (1,))), (2,)).n_out == 1
