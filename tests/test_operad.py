import numpy as np
import pytest

from operaq import channels as ch
from operaq import linalg, operad as op
from operaq import sampling
from operaq.errors import (
    DimensionMismatchError,
    NonLinearGeneratorError,
    UnassignedSymbolError,
)

F = op.OperadSymbol("f", 2)
G = op.OperadSymbol("g", 1)
H = op.OperadSymbol("h", 3)
PREP = op.OperadSymbol("prep", 0)
SYMBOLS = [F, G, H]


def test_arity_and_labels():
    t = op.Apply(F, (op.Apply(G, (op.Leaf(1),)), op.Leaf(0)))
    assert op.arity(t) == 2
    assert op.leaf_labels(t) == [1, 0]
    op.validate_term(t)


def test_canonical_form_eliminates_permuted():
    t = op.Apply(F, (op.Leaf(0), op.Leaf(1)))
    rot = op.Permuted((1, 0), t)
    canon = op.canonical_form(rot)
    assert canon == op.Apply(F, (op.Leaf(1), op.Leaf(0)))
    assert op.terms_equal(op.sigma_act((1, 0), rot), t)


def test_sigma_act_identity_and_inverse():
    rng = np.random.default_rng(0)
    t = op.random_term(rng, SYMBOLS)
    n = op.arity(t)
    ident = tuple(range(n))
    assert op.sigma_act(ident, t) == op.canonical_form(t)
    sigma = tuple(int(i) for i in rng.permutation(n))
    inv = tuple(np.argsort(sigma))
    assert op.terms_equal(op.sigma_act(inv, op.sigma_act(sigma, t)), t)


def test_gamma_unit_laws():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = op.random_term(rng, SYMBOLS)
        assert op.terms_equal(op.gamma(op.unit_term(), [t]), t)
        assert op.terms_equal(op.gamma(t, [op.unit_term()] * op.arity(t)), t)


def test_gamma_arity_mismatch():
    with pytest.raises(DimensionMismatchError):
        op.gamma(op.Apply(F, (op.Leaf(0), op.Leaf(1))), [op.unit_term()])


def test_gamma_grafts_by_label():
    # f(leaf1, leaf0) with parts [g(leaf0), leaf0]: label 0 takes the g term
    f = op.Apply(F, (op.Leaf(1), op.Leaf(0)))
    parts = [op.Apply(G, (op.Leaf(0),)), op.unit_term()]
    out = op.gamma(f, parts)
    assert out == op.Apply(F, (op.Leaf(1), op.Apply(G, (op.Leaf(0),))))


def test_operad_axiom_suite_clean():
    report = op.operad_axiom_suite(SYMBOLS + [PREP], trials=200, seed=3)
    assert report["passed"]
    assert report["violations"] == []
    assert report["checks"] > 5 * 200


def qubit_interpretation(rng, extra=()):
    spec = op.OperadSpec(tuple(SYMBOLS) + (op.OperadSymbol("id", 1), op.OperadSymbol("prep", 0)) + tuple(extra))
    assign = {
        # the bilinear map (a, b) -> f(a (x) b) of a channel on the product space
        "f": ch.channel_multimap(sampling.random_channel(rng, 4, 2), (2, 2)),
        "g": ch.channel_multimap(sampling.random_channel(rng, 2, 2)),
        "id": ch.identity_multimap(2),
        "prep": ch.multimap_from_function(lambda: sampling.random_density(rng, 2), (), 2),
    }
    return op.Interpretation(spec, assign)


def test_interpret_orders_slots_by_label():
    rng = np.random.default_rng(4)
    interp = qubit_interpretation(rng)
    t = op.Apply(F, (op.Apply(G, (op.Leaf(1),)), op.Leaf(0)))
    mm = op.interpret(interp, t)
    assert mm.input_operator_dims == (2, 2)
    x0, x1 = sampling.ginibre(rng, 2, 2), sampling.ginibre(rng, 2, 2)
    g_out = ch.apply_ops(interp.action("g"), [x1])
    expected = ch.apply_ops(interp.action("f"), [g_out, x0])
    assert np.allclose(ch.apply_ops(mm, [x0, x1]), expected, atol=1e-11)


def contract(interp, node, xs):
    if isinstance(node, op.Leaf):
        return xs[node.slot]
    args = [contract(interp, child, xs) for child in node.children]
    return ch.apply_ops(interp.action(node.symbol.name), args)


def test_interpret_arity_eight_left_comb():
    rng = np.random.default_rng(12)
    interp = qubit_interpretation(rng)
    labels = [int(i) for i in rng.permutation(8)]
    t = op.Leaf(labels[0])
    for lab in labels[1:]:
        t = op.Apply(F, (t, op.Leaf(lab)))
    mm = op.interpret(interp, t)
    assert mm.input_operator_dims == (2,) * 8
    for _ in range(3):
        xs = [sampling.ginibre(rng, 2, 2) for _ in range(8)]
        want = contract(interp, t, xs)
        assert np.max(np.abs(ch.apply_ops(mm, xs) - want)) <= 1e-10


def test_interpret_respects_gamma():
    rng = np.random.default_rng(5)
    interp = qubit_interpretation(rng)
    f = op.Apply(F, (op.Leaf(0), op.Leaf(1)))
    parts = [op.Apply(G, (op.Leaf(0),)), op.Apply(F, (op.Leaf(0), op.Leaf(1)))]
    whole = op.interpret(interp, op.gamma(f, parts))
    xs = [sampling.ginibre(rng, 2, 2) for _ in range(3)]
    inner1 = ch.apply_ops(interp.action("g"), [xs[0]])
    inner2 = ch.apply_ops(interp.action("f"), [xs[1], xs[2]])
    expected = ch.apply_ops(interp.action("f"), [inner1, inner2])
    assert np.allclose(ch.apply_ops(whole, xs), expected, atol=1e-11)


def test_interpret_bare_leaf_needs_dim():
    rng = np.random.default_rng(6)
    interp = qubit_interpretation(rng)
    with pytest.raises(DimensionMismatchError):
        op.interpret(interp, op.unit_term())
    mm = op.interpret(interp, op.unit_term(), leaf_dim=2)
    assert np.allclose(mm.action_matrix, np.eye(4))


def test_interpret_unassigned_and_formal():
    rng = np.random.default_rng(7)
    interp = qubit_interpretation(rng, extra=(op.OperadSymbol("mystery", 1), op.OperadSymbol("ghost", 1, formal=True)))
    with pytest.raises(UnassignedSymbolError):
        op.interpret(interp, op.Apply(op.OperadSymbol("mystery", 1), (op.Leaf(0),)))
    with pytest.raises(NonLinearGeneratorError):
        op.interpret(interp, op.Apply(op.OperadSymbol("ghost", 1, formal=True), (op.Leaf(0),)))


def test_interpretation_rejects_wrong_id():
    spec = op.OperadSpec((op.OperadSymbol("id", 1),))
    bad = ch.multimap_from_function(lambda x: 2 * x, (2,), 2)
    with pytest.raises(DimensionMismatchError):
        op.Interpretation(spec, {"id": bad})


def unary_interpretation(rng):
    """Unary a on M_2 and b on M_3, so a box on the wrong wire cannot fit."""
    spec = op.OperadSpec((op.OperadSymbol("a", 1), op.OperadSymbol("b", 1)))
    assign = {
        "a": ch.channel_multimap(sampling.random_channel(rng, 2, 2)),
        "b": ch.channel_multimap(sampling.random_channel(rng, 3, 3)),
    }
    return op.Interpretation(spec, assign)


def same_value(interp, c_1, c_2, in_dims):
    m_1 = op.interpret_circuit(interp, c_1, in_dims)
    m_2 = op.interpret_circuit(interp, c_2, in_dims)
    assert m_1.output_operator_dim == m_2.output_operator_dim
    return np.allclose(m_1.action_matrix, m_2.action_matrix, rtol=0, atol=1e-12)


def test_circuit_interchange_law():
    interp = unary_interpretation(np.random.default_rng(13))
    f = op.generator_circuit("a", 1)
    g = op.generator_circuit("b", 1)
    wire = op.identity_circuit(1)
    left = op.circuit_compose(op.circuit_parallel(wire, g), op.circuit_parallel(f, wire))
    right = op.circuit_compose(op.circuit_parallel(f, wire), op.circuit_parallel(wire, g))
    both = op.circuit_parallel(f, g)
    assert same_value(interp, left, right, (2, 3))
    assert same_value(interp, left, both, (2, 3))


def test_circuit_interchange_with_depth_mismatch():
    interp = unary_interpretation(np.random.default_rng(14))
    deep = op.circuit_compose(op.generator_circuit("b", 1), op.generator_circuit("b", 1))
    shallow = op.generator_circuit("a", 1)
    wire = op.identity_circuit(1)
    a = op.circuit_compose(op.circuit_parallel(wire, shallow), op.circuit_parallel(deep, wire))
    b = op.circuit_parallel(deep, shallow)
    assert same_value(interp, a, b, (3, 2))


def test_circuit_identity_compose_neutral():
    interp = qubit_interpretation(np.random.default_rng(15))
    f = op.generator_circuit("f", 2)
    assert same_value(interp, op.circuit_compose(op.identity_circuit(1), f), f, (2, 2))
    assert same_value(interp, op.circuit_compose(f, op.identity_circuit(2)), f, (2, 2))


def test_circuit_consumes_each_wire_once():
    with pytest.raises(DimensionMismatchError):
        op.CircuitTerm(1, (op.CircuitBox("f", (0, 0)),), (1,))
    with pytest.raises(DimensionMismatchError):
        op.CircuitTerm(1, (), (0, 0))


def test_interpret_circuit_single_box():
    rng = np.random.default_rng(8)
    interp = qubit_interpretation(rng)
    mm = op.interpret_circuit(interp, op.generator_circuit("f", 2), (2, 2))
    xs = [sampling.ginibre(rng, 2, 2) for _ in range(2)]
    got = ch.apply_ops(mm, xs)
    expected = ch.apply_ops(interp.action("f"), xs)
    assert np.allclose(got, expected, atol=1e-11)


def test_interpret_circuit_matches_parallel_composition():
    rng = np.random.default_rng(9)
    interp = qubit_interpretation(rng)
    circuit = op.circuit_compose(
        op.generator_circuit("f", 2),
        op.circuit_parallel(op.generator_circuit("g", 1), op.identity_circuit(1)),
    )
    mm = op.interpret_circuit(interp, circuit, (2, 2))
    xs = [sampling.ginibre(rng, 2, 2) for _ in range(2)]
    inner = ch.apply_ops(interp.action("g"), [xs[0]])
    expected = ch.apply_ops(interp.action("f"), [inner, xs[1]])
    got = ch.apply_ops(mm, xs)
    assert np.allclose(got, expected, atol=1e-11)


def test_interpret_circuit_equal_forms_agree():
    rng = np.random.default_rng(10)
    interp = qubit_interpretation(rng)
    f = op.generator_circuit("f", 2)
    g = op.generator_circuit("g", 1)
    wire = op.identity_circuit(1)
    a = op.circuit_compose(f, op.circuit_compose(op.circuit_parallel(g, wire), op.circuit_parallel(wire, g)))
    b = op.circuit_compose(f, op.circuit_parallel(g, g))
    assert same_value(interp, a, b, (2, 2))


def test_interpret_circuit_wire_swap():
    rng = np.random.default_rng(11)
    interp = qubit_interpretation(rng)
    swap = op.CircuitTerm(2, (), (1, 0))
    mm = op.interpret_circuit(interp, swap, (2, 3))
    x = sampling.ginibre(rng, 2, 2)
    y = sampling.ginibre(rng, 3, 3)
    assert (mm.input_operator_dims, mm.output_operator_dim) == ((2, 3), 6)
    assert np.allclose(ch.apply_ops(mm, [x, y]), linalg.kron(y, x), atol=1e-12)


def test_interpret_circuit_nullary_prep():
    rng = np.random.default_rng(12)
    interp = qubit_interpretation(rng)
    prep = op.generator_circuit("prep", 0)
    circuit = op.circuit_compose(
        op.generator_circuit("f", 2), op.circuit_parallel(op.identity_circuit(1), prep)
    )
    mm = op.interpret_circuit(interp, circuit, (2,))
    rho = sampling.random_density(rng, 2)
    prepared = ch.apply_ops(interp.action("prep"), [])
    expected = ch.apply_ops(interp.action("f"), [rho, prepared])
    got = ch.apply_ops(mm, [rho])
    assert np.allclose(got, expected, atol=1e-11)
