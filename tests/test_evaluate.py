"""operad.evaluate, the structural evaluator of decorated terms, checked
against interpret followed by apply_ops; and the monad layer's use of it
in place of per-term multimaps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from operaq import channels as ch
from operaq import monad, operad as op
from operaq import sampling
from operaq.errors import DimensionMismatchError

from test_contraction import SEEDS, draw_term, random_multimap
from test_monad import cp_interpretation


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_evaluate_matches_interpret_then_apply(data):
    drawn, term, root_dim = draw_term(data)
    # actions of operator norm one and decorations of Frobenius norm one
    # keep every value in the unit ball, where an absolute 1e-10 means something
    interp = op.Interpretation(drawn.operad, {
        name: ch.OperatorMultiMap(mm.input_operator_dims, mm.output_operator_dim,
                                  mm.action_matrix / np.linalg.norm(mm.action_matrix, 2))
        for name, mm in drawn.assign.items()
    })
    n = op.arity(term)
    for _ in range(data.draw(st.integers(0, 2))):
        term = op.Permuted(tuple(data.draw(st.permutations(range(n)))), term)
    mm = op.interpret(interp, term, leaf_dim=root_dim)
    rng = np.random.default_rng(data.draw(SEEDS))
    args = [sampling.ginibre(rng, d, d) for d in mm.input_operator_dims]
    args = [a / np.linalg.norm(a) for a in args]
    got = op.evaluate(interp, term, args, root_dim)
    assert got.shape == (mm.output_operator_dim,) * 2
    assert np.allclose(got, ch.apply_ops(mm, args), rtol=0, atol=1e-10)


def test_evaluate_arity_eight_comb_at_carrier_three():
    # the interpreted comb would be a 9 x 9^8 matrix (6.2 GB); its value is
    # the binary action chained down the spine
    rng = np.random.default_rng(30)
    f = op.OperadSymbol("f", 2)
    interp = op.Interpretation(op.OperadSpec((f,)), {"f": random_multimap(rng, (3, 3), 3)}, 3)
    labels = [int(i) for i in rng.permutation(8)]
    t = op.Leaf(labels[0])
    for lab in labels[1:]:
        t = op.Apply(f, (t, op.Leaf(lab)))
    xs = [sampling.ginibre(rng, 3, 3) for _ in range(8)]
    want = xs[labels[0]]
    for lab in labels[1:]:
        want = ch.apply_ops(interp.action("f"), [want, xs[lab]])
    assert np.array_equal(op.evaluate(interp, t, xs, 3), want)


def test_monad_evaluation_builds_no_multimap(monkeypatch):
    rng = np.random.default_rng(31)
    interp = cp_interpretation(rng)
    phi = sampling.random_channel(rng, 2, 3)
    x = monad.mu(monad.random_element(rng, interp.operad.symbols, dim=2, depth=2, term_depth=2))
    want = monad.algebra_eval(interp, x)

    def banned(*args, **kwargs):
        raise AssertionError("a multimap was built for a decorated term")

    monkeypatch.setattr(op, "interpret", banned)
    monkeypatch.setattr(op, "_contract", banned)
    assert np.array_equal(monad.algebra_eval(interp, x), want)
    assert monad.algebra_law_suite(interp, trials=4, seed=1)["passed"]
    assert monad.homomorphism_check(ch.identity_multimap(2), interp, interp)["passed"]
    assert monad.operational_equivalence(phi, phi, interp)["equivalent"]
    assert monad.monoidal_compat_check(phi, phi, interp, trials=4, seed=4)["passed"]


def test_wrong_size_decoration_is_a_dimension_error():
    rng = np.random.default_rng(32)
    interp = cp_interpretation(rng)
    g = interp.operad["g"]
    for d in (1, 3):
        wrong = np.eye(d, dtype=complex)
        # a bare-leaf root hands back its decoration unless the size is checked
        with pytest.raises(DimensionMismatchError):
            monad.algebra_eval(interp, monad.unit(wrong))
        with pytest.raises(DimensionMismatchError):
            monad.algebra_eval(interp, monad.MonadElement(((1.0, op.Apply(g, (op.Leaf(0),)), (wrong,)),)))
        # a map of the carrier onto M_d, its image refused by the square
        onto = ch.OperatorMultiMap((2,), d, np.ones((d * d, 4)))
        with pytest.raises(DimensionMismatchError, match=rf"\(2, 2\) to \({d}, {d}\)"):
            monad.homomorphism_check(onto, interp, interp)


def test_root_off_the_carrier_is_a_dimension_error():
    rng = np.random.default_rng(33)
    prep = op.OperadSymbol("prep", 0)
    spec = op.OperadSpec((op.OperadSymbol("id", 1), prep))
    interp = op.Interpretation(
        spec, {"id": ch.identity_multimap(2), "prep": random_multimap(rng, (), 3)}
    )
    with pytest.raises(DimensionMismatchError, match="expected side 2"):
        monad.algebra_eval(interp, monad.MonadElement(((1.0, op.Apply(prep, ()), ()),)))
