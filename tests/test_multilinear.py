import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from operaq import linalg, multilinear as ml
from operaq.errors import DimensionMismatchError, IllPosedFeedbackError
import oracles


def random_map(rng, input_dims, output_dim, field="complex"):
    shape = (output_dim, int(np.prod(input_dims)))
    m = rng.standard_normal(shape)
    if field == "complex":
        m = m + 1j * rng.standard_normal(shape)
    return ml.MultilinearVectorMap(tuple(input_dims), output_dim, m.astype(complex), field)


def random_vec(rng, d, field="complex"):
    v = rng.standard_normal(d)
    if field == "complex":
        v = v + 1j * rng.standard_normal(d)
    return v.astype(complex)


def test_apply_matches_tensor_contraction():
    rng = np.random.default_rng(7)
    phi = random_map(rng, (2, 3), 4)
    xs = [random_vec(rng, 2), random_vec(rng, 3)]
    direct = np.einsum("kab,a,b->k", phi.as_tensor(), xs[0], xs[1])
    assert np.allclose(ml.apply(phi, xs), direct, atol=1e-13)


def test_adjoint_defining_identity():
    # <Phi(u..., x), w> == <x, riesz(Phi^dag(w^, u...))> on random data
    rng = np.random.default_rng(11)
    for dims, out in [((3,), 2), ((2, 3), 2), ((2, 2, 3), 4)]:
        phi = random_map(rng, dims, out)
        adj = ml.adjoint(phi)
        assert adj.input_dims == (out,) + dims[:-1]
        assert adj.output_dim == dims[-1]
        for _ in range(5):
            us = [random_vec(rng, d) for d in dims[:-1]]
            x = random_vec(rng, dims[-1])
            w = random_vec(rng, out)
            lhs = linalg.inner(ml.apply(phi, us + [x]), w)
            y = ml.adjoint_apply(adj, w, us)
            assert abs(lhs - ml.functional_value(y, x)) < 1e-10


def test_double_adjoint_is_identity_after_realignment():
    rng = np.random.default_rng(3)
    for dims, out in [((2,), 2), ((4,), 3), ((2, 3), 2), ((3, 2, 2), 3)]:
        phi = random_map(rng, dims, out)
        assert ml.double_adjoint_residual(phi) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_double_adjoint_involution_property(data):
    arity = data.draw(st.integers(1, 3))
    dims = tuple(data.draw(st.integers(1, 4)) for _ in range(arity))
    out = data.draw(st.integers(1, 4))
    field = data.draw(st.sampled_from(["real", "complex"]))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    phi = random_map(rng, dims, out, field)
    assert ml.double_adjoint_residual(phi) <= 1e-12


def test_compose_feeds_contiguous_blocks():
    rng = np.random.default_rng(5)
    psi = random_map(rng, (2, 3), 4)
    p1 = random_map(rng, (2, 2), 2)
    p2 = random_map(rng, (3,), 3)
    theta = ml.compose(psi, [p1, p2])
    assert theta.input_dims == (2, 2, 3)
    xs = [random_vec(rng, d) for d in theta.input_dims]
    via_parts = ml.apply(psi, [ml.apply(p1, xs[:2]), ml.apply(p2, xs[2:])])
    assert np.allclose(ml.apply(theta, xs), via_parts, atol=1e-12)


def test_compose_arity_mismatch_raises():
    rng = np.random.default_rng(0)
    psi = random_map(rng, (2, 2), 2)
    with pytest.raises(DimensionMismatchError):
        ml.compose(psi, [random_map(rng, (2,), 2)])


def test_compose_norm_submultiplicative():
    rng = np.random.default_rng(13)
    for _ in range(10):
        psi = random_map(rng, (2, 3), 3)
        parts = [random_map(rng, (2, 2), 2), random_map(rng, (3, 2), 3)]
        bound = linalg.op_norm(psi.matrix) * np.prod([linalg.op_norm(p.matrix) for p in parts])
        assert linalg.op_norm(ml.compose(psi, parts).matrix) <= bound + 1e-9


def test_contravariant_identity_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(10):
        psi = random_map(rng, (2, 2), 2)
        parts = [random_map(rng, (2, 2), 2), random_map(rng, (2, 2), 2)]
        assert ml.contravariant_residual(psi, parts) < 1e-12


def test_contravariant_identity_mixed_arities():
    rng = np.random.default_rng(19)
    psi = random_map(rng, (3, 2), 2)
    parts = [random_map(rng, (2,), 3), random_map(rng, (2, 2, 2), 2)]
    assert ml.contravariant_residual(psi, parts) < 1e-12


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_contravariant_residual_matches_the_basis_sweep(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    field = data.draw(st.sampled_from(["real", "complex"]))
    k = data.draw(st.integers(1, 3))
    mids = tuple(data.draw(st.integers(1, 3)) for _ in range(k))
    psi = random_map(rng, mids, data.draw(st.integers(1, 3)), field)
    parts = []
    for mid in mids:
        block = tuple(data.draw(st.integers(1, 3)) for _ in range(data.draw(st.integers(1, 2))))
        parts.append(random_map(rng, block, mid, field))
    closed = ml.contravariant_residual(psi, parts)
    assert closed <= 1e-12
    assert abs(closed - oracles.contravariant_residual(psi, parts)) <= 1e-12


def test_feedback_scalar_example():
    # y = xi, xi = u + 0.5 xi  =>  closed loop u -> 2u
    t = ml.MultilinearVectorMap((2,), 2, np.array([[0.0, 1.0], [1.0, 0.5]], dtype=complex))
    problem = ml.FeedbackProblem(t, (1, 1), (1, 1))
    closed = ml.feedback_solve(problem)
    assert np.allclose(closed.matrix, [[2.0]], atol=1e-12)
    assert problem.loop_gain == pytest.approx(0.5)
    assert problem.well_posed


def test_feedback_matches_picard_iteration():
    rng = np.random.default_rng(23)
    for _ in range(20):
        u, x, y = 2, 3, 2
        m = rng.standard_normal((y + x, u + x)) + 1j * rng.standard_normal((y + x, u + x))
        d = m[y:, u:]
        # rescale the loop block to a strict contraction
        m[y:, u:] = d * (0.8 / max(linalg.op_norm(d), 1e-12))
        t = ml.MultilinearVectorMap((u + x,), y + x, m)
        problem = ml.FeedbackProblem(t, (u, x), (y, x))
        direct = ml.feedback_solve(problem)
        iterated = ml.feedback_picard(problem, steps=200)
        assert linalg.op_norm(direct.matrix - iterated.matrix) < 1e-8


def test_feedback_ill_posed_raises():
    m = np.zeros((3, 3), dtype=complex)
    m[1:, 1:] = np.eye(2)  # loop operator is the identity, I - L singular
    t = ml.MultilinearVectorMap((3,), 3, m)
    problem = ml.FeedbackProblem(t, (1, 2), (1, 2))
    assert not problem.well_posed
    with pytest.raises(IllPosedFeedbackError):
        ml.feedback_solve(problem)


def test_feedback_split_validation():
    t = ml.MultilinearVectorMap((3,), 3, np.eye(3, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        ml.FeedbackProblem(t, (1, 1), (1, 2))
    with pytest.raises(DimensionMismatchError):
        ml.FeedbackProblem(t, (2, 1), (1, 2))
