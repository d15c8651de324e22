import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from operaq import channels as ch
from operaq import ideals, linalg, operad, sampling
from operaq.errors import SingularMatrixError


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(linalg.unvec(linalg.vec(a), 3, 4), a)


def test_vec_is_column_stacking():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(linalg.vec(a), [1, 3, 2, 4])


def test_vec_intertwines_left_right_multiplication():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    x = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    lhs = linalg.vec(a @ x @ b)
    rhs = linalg.kron(b.T, a) @ linalg.vec(x)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_inner_is_linear_in_first_argument():
    x = np.array([1 + 2j, 3])
    y = np.array([1j, 1.0])
    assert linalg.inner(x, y) == pytest.approx((1 + 2j) * (-1j) + 3)
    assert linalg.inner(2j * x, y) == pytest.approx(2j * linalg.inner(x, y))
    assert linalg.inner(x, 2j * y) == pytest.approx(-2j * linalg.inner(x, y))


def test_partial_trace_of_kron_factors():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ab = linalg.kron(a, b)
    assert np.allclose(linalg.partial_trace(ab, (2, 3), 1), a * np.trace(b), atol=1e-12)
    assert np.allclose(linalg.partial_trace(ab, (2, 3), 0), b * np.trace(a), atol=1e-12)


def test_partial_trace_three_factors():
    rng = np.random.default_rng(3)
    ms = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (2, 2, 3)]
    big = linalg.kron_all(ms)
    got = linalg.partial_trace(linalg.partial_trace(big, (2, 2, 3), 2), (2, 2), 0)
    assert np.allclose(got, ms[1] * np.trace(ms[0]) * np.trace(ms[2]), atol=1e-11)


def test_hermitianize_warns_on_asymmetry():
    with pytest.warns(UserWarning):
        linalg.hermitianize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    sym = linalg.hermitianize(np.array([[1.0, 1e-12j], [-1e-12j, 2.0]]))
    assert np.allclose(sym, sym.conj().T)


def test_solve_linear_exact_and_singular():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = linalg.solve_linear(a, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])
    with pytest.raises(SingularMatrixError):
        linalg.solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


def test_solve_linear_least_squares():
    a = np.array([[1.0], [1.0]])
    x = linalg.solve_linear(a, np.array([0.0, 2.0]), least_squares=True)
    assert np.allclose(x, [1.0])


def test_trace_norm_and_op_norm():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    assert linalg.trace_norm(u) == pytest.approx(2.0)
    assert linalg.op_norm(u) == pytest.approx(1.0)
    assert linalg.trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)


def test_factor_permutation_permutes_kron_vectors():
    rng = np.random.default_rng(6)
    dims = (2, 3, 2)
    xs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
    perm = (2, 0, 1)
    p = linalg.factor_permutation(dims, perm)
    lhs = p @ linalg.kron_vectors(xs)
    rhs = linalg.kron_vectors([xs[i] for i in perm])
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_mingle_groups_vectorizations():
    rng = np.random.default_rng(7)
    dims = (2, 3)
    ms = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims]
    m = linalg.mingle(dims)
    lhs = m @ linalg.kron_vectors([linalg.vec(x) for x in ms])
    assert np.allclose(lhs, linalg.vec(linalg.kron_all(ms)), atol=1e-12)


def test_superop_kron_acts_factorwise():
    rng = np.random.default_rng(8)
    dims = (2, 3)
    sup = []
    mats = []
    for d in dims:
        k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append(k)
        sup.append(linalg.kron(np.conj(k), k))  # vec(K X K^dag)
    joint = linalg.superop_kron(sup, dims, dims)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    big_k = linalg.kron_all(mats)
    assert np.allclose(
        linalg.unvec(joint @ linalg.vec(x), 6, 6), big_k @ x @ big_k.conj().T, atol=1e-11
    )


def draw_dims(data):
    n = data.draw(st.integers(1, 3))
    return tuple(data.draw(st.integers(1, 3)) for _ in range(n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_factor_permutation_gathers_match_dense_oracle(data):
    dims = draw_dims(data)
    perm = tuple(data.draw(st.permutations(range(len(dims)))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    p = linalg.factor_permutation(dims, perm)
    src = linalg.factor_permutation_index(dims, perm)
    a = sampling.ginibre(rng, p.shape[0], p.shape[0])
    assert np.allclose(a[src], p @ a, rtol=0, atol=1e-12)
    assert np.allclose(a[:, np.argsort(src)], a @ p, rtol=0, atol=1e-12)
    ksrc = linalg.superop_permutation_index(dims, perm)
    b = sampling.ginibre(rng, p.size, 3)
    assert np.allclose(b[ksrc], np.kron(p, p) @ b, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mingle_gathers_match_dense_oracle(data):
    dims = draw_dims(data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    m = linalg.mingle(dims)
    src = linalg.mingle_index(dims)
    a = sampling.ginibre(rng, 3, m.shape[0])
    assert np.allclose(a[:, src], a @ m.T, rtol=0, atol=1e-12)
    assert np.allclose(a.T[src], m @ a.T, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_superop_kron_matches_dense_mingle_formula(data):
    dims_in = draw_dims(data)
    dims_out = tuple(data.draw(st.integers(1, 3)) for _ in dims_in)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    sup = [sampling.ginibre(rng, o * o, d * d) for d, o in zip(dims_in, dims_out)]
    dense = linalg.mingle(dims_out) @ linalg.kron_all(sup) @ linalg.mingle(dims_in).T
    got = linalg.superop_kron(sup, dims_in, dims_out)
    assert np.allclose(got, dense, rtol=0, atol=1e-12)


def test_library_paths_build_no_dense_permutation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense permutation matrix built on a library path")

    monkeypatch.setattr(linalg, "factor_permutation", refuse)
    monkeypatch.setattr(linalg, "mingle", refuse)
    rng = np.random.default_rng(9)
    f = operad.OperadSymbol("f", 2)
    g = operad.OperadSymbol("g", 1)
    spec = operad.OperadSpec((f, g))
    pair = ch.OperatorMultiMap((2, 2), 2, sampling.ginibre(rng, 4, 16))
    interp = operad.Interpretation(
        spec, {"f": pair, "g": ch.channel_multimap(sampling.random_channel(rng, 2, 2))}
    )
    t = operad.Apply(f, (operad.Apply(g, (operad.Leaf(1),)), operad.Leaf(0)))
    assert operad.interpret(interp, t).input_operator_dims == (2, 2)
    circ = operad.CircuitTerm(
        2, (operad.CircuitBox("g", (1,)), operad.CircuitBox("f", (2, 0))), (3,)
    )
    assert operad.interpret_circuit(interp, circ, (2, 2)).superop.shape == (4, 16)
    assert ideals.grouped_channel(pair).in_dim == 4
    assert ideals.sigma_multimap(pair, (1, 0)).input_operator_dims == (2, 2)
    a, b = sampling.random_channel(rng, 2, 3), sampling.random_channel(rng, 3, 2)
    assert ch.channel_kron(a, b).choi.shape == (36, 36)
