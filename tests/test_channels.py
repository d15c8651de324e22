import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from operaq import channels as ch
from operaq import ideals, linalg, monad, sampling
from operaq import multilinear as ml
from operaq import operad as op
from operaq.errors import (
    DimensionMismatchError,
    InconsistentDilationsError,
    NotCompletelyPositiveError,
)
import oracles
from oracles import superop_kron


def representation_defects(rep):
    """Largest entrywise failures of E_kl E_pq = [l == p] E_kq, E_kl^dag =
    E_lk and sum_k E_kk = I on the tabulated images."""
    d = rep.algebra_dim
    im = rep.images
    mult = 0.0
    for k in range(d):
        for l in range(d):
            for p in range(d):
                for q in range(d):
                    target = im[k, q] if l == p else np.zeros_like(im[0, 0])
                    mult = max(mult, float(np.max(np.abs(im[k, l] @ im[p, q] - target))))
    star = max(
        float(np.max(np.abs(linalg.dagger(im[k, l]) - im[l, k]))) for k in range(d) for l in range(d)
    )
    unit = float(np.max(np.abs(sum(im[k, k] for k in range(d)) - np.eye(rep.carrier_dim))))
    return {"multiplicativity": mult, "star": star, "unitality": unit}


def bell_projector(d):
    omega = sum(linalg.kron_vectors([linalg.basis_vector(d, i)] * 2) for i in range(d))
    return np.outer(omega, omega.conj())


def test_choi_of_identity():
    q = ch.identity_channel(2)
    assert np.allclose(q.choi, bell_projector(2), atol=1e-12)
    assert np.linalg.matrix_rank(q.choi) == 1
    assert np.trace(q.choi) == pytest.approx(2.0)
    assert ch.is_cp(q) and ch.is_tp(q)


def test_choi_of_completely_depolarizing():
    q = ch.depolarizing_channel(2, 1.0)
    assert np.allclose(q.choi, np.eye(4) / 2, atol=1e-12)
    assert ch.is_cp(q) and ch.is_tp(q)


def test_transpose_choi_is_swap():
    q = ch.choi_of(ch.transpose_multimap(2))
    swap = oracles.factor_permutation((2, 2), (1, 0))
    assert np.allclose(q.choi, swap, atol=1e-12)
    assert sorted(np.linalg.eigvalsh(q.choi)) == pytest.approx([-1, 1, 1, 1])
    assert not ch.is_cp(q)
    assert ch.choi_min_eigenvalue(q) == pytest.approx(-1.0)


def test_is_tp_rejects_scaling():
    q = ch.choi_of(ch.multimap_from_function(lambda x: 2 * x, (2,), 2))
    assert not ch.is_tp(q)


def test_choi_superop_roundtrip():
    rng = np.random.default_rng(0)
    s = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    c = ch.choi_of(ch.OperatorMultiMap((2,), 3, s))
    assert np.array_equal(c.choi, oracles.superop_to_choi(s, 2, 3))
    assert np.array_equal(ch.channel_multimap(c).action_matrix, s)


def draw_multimap(data, rng):
    """A random operator map on 0-3 slots of dims 1-3, output dim 1-3."""
    dims = tuple(data.draw(st.integers(1, 3)) for _ in range(data.draw(st.integers(0, 3))))
    m = data.draw(st.integers(1, 3))
    cols = int(np.prod([d * d for d in dims]))
    return ch.OperatorMultiMap(dims, m, sampling.ginibre(rng, m * m, cols))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_choi_of_a_kraus_set_equals_the_superop_construction_bitwise(data):
    # multimaps are checked against the dense mingle in test_ideals.py
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    d, m, r = (data.draw(st.integers(1, 3)) for _ in range(3))
    ks = sampling.random_cptp(rng, d, m, r)
    want = oracles.superop_to_choi(ch.kraus_to_superop(ks), d, m)
    assert np.array_equal(ch.choi_of(ks).choi, want)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_channel_multimap_inverts_choi_of_bitwise(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    mm = draw_multimap(data, rng)
    chan = ch.choi_of(mm)
    back = ch.channel_multimap(chan, mm.input_operator_dims)
    assert (back.input_operator_dims, back.output_operator_dim) == (
        mm.input_operator_dims,
        mm.output_operator_dim,
    )
    assert np.array_equal(back.action_matrix, mm.action_matrix)
    # by default the input is one slot: the superoperator on the product space
    joint = ch.channel_multimap(chan)
    assert joint.input_operator_dims == (chan.in_dim,)
    assert np.array_equal(joint.action_matrix, oracles.superop_of(chan))
    assert np.array_equal(ch.choi_of(joint).choi, chan.choi)


def test_channel_multimap_refuses_dims_that_do_not_split_the_input():
    phi = ch.identity_channel(6)
    for dims in ((2, 2), (4,), (12,), (), (6, 0), (-2, -3)):
        with pytest.raises(DimensionMismatchError, match="split"):
            ch.channel_multimap(phi, dims)
    assert ch.channel_multimap(phi, (3, 2)).input_operator_dims == (3, 2)
    assert ch.channel_multimap(ch.QuantumChannel(1, 2, np.eye(2)), ()).arity == 0


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 5))
def test_transpose_multimap_is_the_dense_swap(d):
    swap = oracles.factor_permutation((d, d), (1, 0))
    assert np.array_equal(ch.transpose_multimap(d).action_matrix, swap)


def test_channel_apply_matches_kraus():
    rng = np.random.default_rng(1)
    ks = sampling.random_cptp(rng, 3, 2)
    q = ch.choi_of(ks)
    rho = sampling.random_density(rng, 3)
    want = sum(k @ rho @ k.conj().T for k in ks.operators)
    assert np.allclose(ch.channel_apply(q, rho), want, atol=1e-11)
    assert np.trace(ch.channel_apply(q, rho)) == pytest.approx(1.0)


def test_kraus_from_choi_identity():
    ks = ch.kraus_from_choi(ch.identity_channel(3))
    assert len(ks.operators) == 1
    k = ks.operators[0]
    assert np.allclose(k @ linalg.dagger(k), np.eye(3), atol=1e-12)


def test_kraus_from_choi_rejects_transpose():
    with pytest.raises(NotCompletelyPositiveError):
        ch.kraus_from_choi(ch.choi_of(ch.transpose_multimap(2)))


def test_kraus_roundtrip_and_rank():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d, m, r = rng.integers(2, 5), rng.integers(2, 5), int(rng.integers(1, 4))
        q = sampling.random_channel(rng, int(d), int(m), r)
        ks = ch.kraus_from_choi(q)
        assert len(ks.operators) == ch.kraus_rank(q)
        back = ch.choi_of(ks)
        assert np.max(np.abs(back.choi - q.choi)) < 1e-9
        tp_defect = sum(linalg.dagger(k) @ k for k in ks.operators) - np.eye(int(d))
        assert np.max(np.abs(tp_defect)) < 1e-9


def test_stinespring_reconstruction():
    rng = np.random.default_rng(3)
    q = sampling.random_channel(rng, 3, 2, 3)
    ks = ch.kraus_from_choi(q)
    v = ch.stinespring_isometry(ks)
    assert linalg.op_norm(linalg.dagger(v) @ v - np.eye(3)) < 1e-9
    assert ch.channel_distance_bound(oracles.isometry_channel(v, len(ks.operators)), q) < 1e-9
    # the builder dilates the Heisenberg dual of the channel on that isometry
    assert np.array_equal(ch.heisenberg_dilation(q).isometry, v)


def test_stinespring_identity_is_trivial_embedding():
    dil = ch.heisenberg_dilation(ch.KrausSet((np.eye(2, dtype=complex),)))
    # one Kraus operator: an environment of one level
    assert dil.carrier_dim == 2 and dil.factor_dims == (2,)
    assert np.allclose(dil.isometry, np.eye(2), atol=1e-12)


def test_multilinear_choi_bridges_to_channel_choi():
    # the Choi matrix of a multilinear map is choi_of with its slots grouped;
    # the output-first layout is the same matrix with its factors swapped
    rng = np.random.default_rng(4)
    ks = sampling.random_cptp(rng, 2, 3)
    mm = ch.channel_multimap(ch.choi_of(ks))
    assert np.array_equal(ch.choi_of(mm).choi, ch.choi_of(ks).choi)
    p = oracles.factor_permutation((2, 3), (1, 0))
    assert np.allclose(oracles.multilinear_choi(mm), p @ ch.choi_of(ks).choi @ p.T, atol=1e-11)


def test_multilinear_choi_product_map():
    rng = np.random.default_rng(5)
    lam = sampling.random_channel(rng, 2, 2)
    lam_mm = ch.channel_multimap(lam)

    def product(b, a):
        return ch.apply_ops(lam_mm, [a]) * np.trace(b)

    mm = ch.multimap_from_function(product, (3, 2), 2)
    grouped = ch.choi_of(mm)
    assert (grouped.in_dim, grouped.out_dim) == (6, 2)
    assert np.allclose(grouped.choi, linalg.kron(np.eye(3), lam.choi), atol=1e-11)
    # joint positivity of the product of CP slot maps
    assert ch.is_cp(grouped)


def test_multilinear_choi_linearity():
    rng = np.random.default_rng(6)
    a = ch.channel_multimap(sampling.random_channel(rng, 4, 2), (2, 2))
    b = ch.channel_multimap(sampling.random_channel(rng, 4, 2), (2, 2))
    s = ch.OperatorMultiMap((2, 2), 2, a.action_matrix + b.action_matrix)
    assert np.allclose(
        ch.choi_of(s).choi, ch.choi_of(a).choi + ch.choi_of(b).choi, rtol=0, atol=1e-12
    )


def test_mcp_check_passes_product_of_cp_maps():
    rng = np.random.default_rng(7)
    lam = ch.channel_multimap(sampling.random_channel(rng, 2, 2))
    mm = ch.multimap_from_function(
        lambda a, b: ch.apply_ops(lam, [a]) * np.trace(b), (2, 2), 2
    )
    report = ch.mcp_check(mm)
    assert report["passed"]
    # per slot: the maximally mixed state, two projectors, five Ginibre states
    assert report["cases"] == 2 * (3 + 5)


def test_mcp_check_flags_hidden_transpose():
    mm = ch.multimap_from_function(lambda a, b: np.trace(a) * b.T, (2, 2), 2)
    report = ch.mcp_check(mm)
    assert not report["passed"]
    assert any(v["slot"] == 1 for v in report["violations"])
    assert min(v["min_eigenvalue"] for v in report["violations"]) < -1e-6


def test_mcp_check_reduces_to_is_cp_for_one_slot():
    rng = np.random.default_rng(8)
    good = ch.channel_multimap(sampling.random_channel(rng, 2, 2))
    assert ch.mcp_check(good)["passed"]
    assert not ch.mcp_check(ch.transpose_multimap(2))["passed"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda dims: np.prod(dims) <= 12),
    st.integers(1, 3),
    st.sampled_from(("cp", "transposed", "ginibre")),
    st.integers(0, 2**32 - 1),
)
def test_mcp_check_matches_the_per_case_oracle(dims, m, kind, seed):
    rng = np.random.default_rng(seed)
    din = int(np.prod(dims))
    if kind == "ginibre":
        action = sampling.ginibre(rng, m * m, din * din)
    else:
        action = ch.channel_multimap(sampling.random_channel(rng, din, m), tuple(dims)).action_matrix
        if kind == "transposed":
            # one slot's input transposed first: swap its (column, row) axes
            j = int(rng.integers(len(dims)))
            t = action.reshape([m * m] + [d for d in dims for _ in "cr"])
            action = np.swapaxes(t, 1 + 2 * j, 2 + 2 * j).reshape(m * m, -1)
    mm = ch.OperatorMultiMap(tuple(dims), m, action)
    got, want = ch.mcp_check(mm), oracles.mcp_check(mm)
    assert (got["passed"], got["cases"]) == (want["passed"], want["cases"])
    # per slot: every tuple of extreme states of the other slots, and five Ginibre tuples
    others = [[d + 1 for k, d in enumerate(dims) if k != j] for j in range(len(dims))]
    assert got["cases"] == sum(int(np.prod(o)) + 5 if o else 1 for o in others)
    assert [(v["slot"], v["states"]) for v in got["violations"]] == [
        (v["slot"], v["states"]) for v in want["violations"]
    ]
    for g, w in zip(got["violations"], want["violations"]):
        assert abs(g["min_eigenvalue"] - w["min_eigenvalue"]) <= 1e-9 * max(1.0, abs(w["min_eigenvalue"]))


def test_factor_representation_is_star_homomorphism():
    rep = ch.factor_representation(2, 3, left_dim=2, right_dim=1)
    defects = representation_defects(rep)
    assert max(defects.values()) == 0.0


def test_dilation_reconstruct_identity_inputs():
    rng = np.random.default_rng(9)
    dil = sampling.random_separable_dilation(rng, (2, 2), 3, (2, 1))
    got = ch.apply_ops(ch.dilation_multimap(dil), [np.eye(2), np.eye(2)])
    assert np.allclose(got, np.eye(3), atol=1e-10)


def test_heisenberg_dilation_matches_kraus_adjoint():
    rng = np.random.default_rng(10)
    ks = sampling.random_cptp(rng, 3, 2, 2)
    mm = ch.dilation_multimap(ch.heisenberg_dilation(ks))
    for _ in range(5):
        a = sampling.random_hermitian(rng, 2)
        expected = sum(linalg.dagger(k) @ a @ k for k in ks.operators)
        assert np.allclose(ch.apply_ops(mm, [a]), expected, atol=1e-11)


def test_minimal_dilation_keeps_minimal_dimension():
    rng = np.random.default_rng(11)
    q = sampling.random_channel(rng, 2, 2, 2)
    dil = ch.heisenberg_dilation(ch.kraus_from_choi(q))
    m = ch.minimal_dilation(dil)
    assert m.carrier_dim == dil.carrier_dim == 2 * ch.kraus_rank(q)
    assert m.factor_dims is None


def test_minimal_dilation_strips_padding():
    rng = np.random.default_rng(12)
    q = sampling.random_channel(rng, 2, 2, 2)
    dil = ch.heisenberg_dilation(ch.kraus_from_choi(q))
    padded = ch.pad_dilation(dil, 3)
    assert padded.carrier_dim == 3 * dil.carrier_dim
    recovered = ch.minimal_dilation(padded)
    assert recovered.carrier_dim == dil.carrier_dim
    again = ch.minimal_dilation(recovered)
    assert again.carrier_dim == recovered.carrier_dim
    a = ch.dilation_multimap(recovered).action_matrix
    b = ch.dilation_multimap(dil).action_matrix
    assert np.max(np.abs(a - b)) < 1e-8


def test_minimal_dilation_preserves_star_structure():
    rng = np.random.default_rng(13)
    dil = sampling.random_separable_dilation(rng, (2, 3), 4, (2, 1))
    m = ch.minimal_dilation(ch.pad_dilation(dil, 2))
    for rep in m.reps:
        defects = representation_defects(rep)
        assert defects["multiplicativity"] < 1e-9
        assert defects["star"] < 1e-9
        assert defects["unitality"] < 1e-9


def test_minimal_dilation_keeps_the_coordinates_it_fills():
    rng = np.random.default_rng(25)
    dil = ch.heisenberg_dilation(sampling.random_cptp(rng, 3, 2, 2))
    for source in (dil, ch.pad_dilation(dil, 3)):
        small = ch.minimal_dilation(source)
        assert np.array_equal(small.isometry, dil.isometry)
        assert np.array_equal(small.reps[0].images, dil.reps[0].images)


def test_intertwiner_identity_case():
    rng = np.random.default_rng(14)
    dil = ch.minimal_dilation(ch.heisenberg_dilation(sampling.random_cptp(rng, 2, 2, 2)))
    u, report = ch.intertwiner(dil, dil)
    assert np.allclose(u, np.eye(dil.carrier_dim), atol=1e-8)
    assert report["isometry_defect"] < 1e-8


def test_intertwiner_recovers_carrier_unitary():
    rng = np.random.default_rng(15)
    dil = ch.minimal_dilation(ch.heisenberg_dilation(sampling.random_cptp(rng, 2, 2, 2)))
    w = sampling.random_unitary(rng, dil.carrier_dim)
    rotated = ch.MultilinearDilation(
        tuple(
            ch.StarRepresentation(
                r.algebra_dim, r.carrier_dim, np.einsum("xc,klcd,dy->klxy", w, r.images, linalg.dagger(w))
            )
            for r in dil.reps
        ),
        w @ dil.isometry,
    )
    u, report = ch.intertwiner(dil, rotated)
    assert np.max(np.abs(u - w)) < 1e-8
    assert report["isometry_defect"] < 1e-8
    assert report["co_isometry_defect"] < 1e-8
    assert report["intertwining_residual"] < 1e-8
    assert report["maps_isometry_residual"] < 1e-8


def test_intertwiner_with_padded_is_proper_isometry():
    rng = np.random.default_rng(16)
    dil = ch.minimal_dilation(ch.heisenberg_dilation(sampling.random_cptp(rng, 2, 2, 2)))
    padded = ch.pad_dilation(dil, 2)
    u, report = ch.intertwiner(dil, padded)
    assert report["isometry_defect"] < 1e-8
    assert report["co_isometry_defect"] > 0.5


def test_intertwiner_rejects_different_maps():
    rng = np.random.default_rng(17)
    a = ch.minimal_dilation(ch.heisenberg_dilation(sampling.random_cptp(rng, 2, 2, 2)))
    b = ch.minimal_dilation(ch.heisenberg_dilation(sampling.random_cptp(rng, 2, 2, 2)))
    with pytest.raises(InconsistentDilationsError):
        ch.intertwiner(a, b)


def test_kraus_tensor_decompose_reconstructs():
    rng = np.random.default_rng(18)
    dil = ch.minimal_dilation(sampling.random_separable_dilation(rng, (2, 2), 3, (1, 2)))
    decomp = ch.kraus_tensor_decompose(dil)
    assert decomp.t.shape == decomp.l.shape == (dil.carrier_dim, 3, 4)
    mm = ch.dilation_multimap(dil)
    for _ in range(5):
        mats = [sampling.ginibre(rng, 2, 2), sampling.ginibre(rng, 2, 2)]
        direct = ch.apply_ops(mm, mats)
        assert np.max(np.abs(oracles.decomposition_apply(decomp, mats) - direct)) < 1e-8


def test_n_adjoint_of_identity_channel():
    dil = ch.minimal_dilation(ch.heisenberg_dilation(ch.KrausSet((np.eye(2, dtype=complex),))))
    adj = ch.n_adjoint(ch.dilation_multimap(dil))
    assert adj.input_operator_dims == (2,)
    assert np.allclose(adj.action_matrix, np.eye(4), atol=1e-10)


def test_n_adjoint_pairing_identity():
    rng = np.random.default_rng(19)
    for _ in range(5):
        dil = ch.minimal_dilation(sampling.random_separable_dilation(rng, (2, 2), 2, (2, 1)))
        decomp = ch.kraus_tensor_decompose(dil)
        adj = ch.n_adjoint(ch.dilation_multimap(dil))
        assert ch.n_adjoint_pairing_residual(decomp, adj) <= 1e-12


def test_zigzag_check():
    rng = np.random.default_rng(20)
    dil = ch.minimal_dilation(ch.heisenberg_dilation(sampling.random_cptp(rng, 2, 2, 2)))
    report = ch.zigzag_check(dil)
    assert report["isometric"]
    assert report["zigzag_defect"] < 1e-9

    scaled = ch.MultilinearDilation(dil.reps, 1.5 * dil.isometry)
    bad = ch.zigzag_check(scaled)
    assert not bad["isometric"]
    assert bad["isometry_defect"] == pytest.approx(abs(1 - 1.5**2), rel=1e-9)


def test_channel_distance_bound():
    q = ch.identity_channel(2)
    assert ch.channel_distance_bound(q, q) == pytest.approx(0.0, abs=1e-12)
    # Choi difference of identity vs complete depolarizing has spectrum
    # {3/2, -1/2, -1/2, -1/2}
    assert ch.channel_distance_bound(q, ch.depolarizing_channel(2, 1.0)) == pytest.approx(3.0)


def test_channel_distance_monotone_under_padding():
    rng = np.random.default_rng(22)
    a = sampling.random_channel(rng, 2, 2)
    b = sampling.random_channel(rng, 2, 2)
    base = ch.channel_distance_bound(a, b)
    wire = ch.identity_channel(2)
    padded = ch.channel_distance_bound(ch.channel_kron(a, wire), ch.channel_kron(b, wire))
    assert padded >= base - 1e-9


def test_channel_kron_acts_factorwise():
    rng = np.random.default_rng(23)
    a = sampling.random_channel(rng, 2, 3)
    b = sampling.random_channel(rng, 2, 2)
    joint = ch.channel_kron(a, b)
    r1 = sampling.random_density(rng, 2)
    r2 = sampling.random_density(rng, 2)
    lhs = ch.channel_apply(joint, linalg.kron(r1, r2))
    rhs = linalg.kron(ch.channel_apply(a, r1), ch.channel_apply(b, r2))
    assert np.allclose(lhs, rhs, atol=1e-11)


# the superoperator constructions channel_kron and channel_apply replaced


def old_channel_kron(a, b):
    s = superop_kron(
        [oracles.superop_of(a), oracles.superop_of(b)], (a.in_dim, b.in_dim), (a.out_dim, b.out_dim)
    )
    d, m = a.in_dim * b.in_dim, a.out_dim * b.out_dim
    return ch.QuantumChannel(d, m, oracles.superop_to_choi(s, d, m))


def old_channel_apply(phi, rho):
    return linalg.unvec(oracles.superop_of(phi) @ linalg.vec(rho), phi.out_dim)


def draw_channel(data, rng):
    d, m, r = (data.draw(st.integers(1, 3)) for _ in range(3))
    return sampling.random_channel(rng, d, m, kraus_rank=r)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_channel_kron_equals_the_superop_construction_bitwise(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    a, b = draw_channel(data, rng), draw_channel(data, rng)
    got, want = ch.channel_kron(a, b), old_channel_kron(a, b)
    assert (got.in_dim, got.out_dim) == (want.in_dim, want.out_dim)
    assert np.array_equal(got.choi, want.choi)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_channel_apply_matches_the_superop_construction(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    phi = draw_channel(data, rng)
    if data.draw(st.booleans()):
        phi = ch.channel_kron(phi, draw_channel(data, rng))
    rho = sampling.ginibre(rng, phi.in_dim, phi.in_dim)
    got = ch.channel_apply(phi, rho)
    tol = 1e-12 * linalg.frobenius(phi.choi) * linalg.frobenius(rho)
    assert got.shape == (phi.out_dim, phi.out_dim)
    assert np.allclose(got, old_channel_apply(phi, rho), rtol=0, atol=tol)


def test_products_and_applications_build_no_superoperator(monkeypatch):
    rng = np.random.default_rng(24)
    f, g = op.OperadSymbol("f", 2), op.OperadSymbol("g", 1)
    interp = op.Interpretation(
        op.OperadSpec((f, g)),
        {
            "f": ch.OperatorMultiMap((2, 2), 2, sampling.ginibre(rng, 4, 16)),
            "g": ch.channel_multimap(sampling.random_channel(rng, 2, 2)),
        },
        carrier_dim=2,
    )
    phi_a, phi_b = sampling.random_channel(rng, 2, 3), sampling.random_channel(rng, 2, 2)
    term = op.Apply(f, (op.Apply(g, (op.Leaf(0),)), op.Leaf(1)))
    elem = monad.MonadElement(((1.0, term, (sampling.ginibre(rng, 2, 2),) * 2),))

    def refuse(*args, **kwargs):
        raise AssertionError("superoperator built on a Choi-side path")

    for gone in ("superop_to_choi", "choi_to_superop", "superop_of", "multilinear_choi"):
        assert not hasattr(ch, gone)
    monkeypatch.setattr(ch, "channel_multimap", refuse)
    assert ch.channel_kron(phi_a, phi_b).choi.shape == (24, 24)
    assert ch.channel_apply(phi_a, np.eye(2)).shape == (3, 3)
    assert monad.monoidal_compat_check(phi_a, phi_b, interp, trials=4, seed=1)["trials"] == 4
    assert "equivalent" in monad.operational_equivalence(phi_b, phi_b, interp)
    assert ch.channel_apply(phi_a, monad.algebra_eval(interp, elem)).shape == (3, 3)


def test_channel_kron_allocates_about_one_product_choi_matrix():
    rng = np.random.default_rng(25)
    a, b = sampling.random_channel(rng, 4, 4), sampling.random_channel(rng, 4, 4)
    tracemalloc.start()
    try:
        product = ch.channel_kron(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the product itself, the finiteness mask its constructor checks and the
    # ufunc's fixed-size buffer; a superoperator copy would double it
    assert peak <= 1.1 * product.choi.nbytes + 2**19


def test_channel_apply_refuses_a_state_of_the_wrong_size():
    phi = ch.identity_channel(2)
    for rho in (np.eye(3), np.ones(3), np.ones((1, 5))):
        with pytest.raises(ValueError):
            ch.channel_apply(phi, rho)
    # as before, any array with d*d entries is read column-stacked
    flat = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(ch.channel_apply(phi, flat), linalg.unvec(flat, 2))


def test_non_finite_choi_matrices_and_images_are_refused():
    bad = ch.identity_channel(2).choi.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ch.QuantumChannel(2, 2, bad)
    huge = ch.QuantumChannel(2, 2, 1e308 * ch.identity_channel(2).choi)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            ch.channel_apply(huge, 10 * np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            ch.channel_apply(ch.identity_channel(2), np.array([[np.inf, 0], [0, 1]]))
        with pytest.raises(ValueError, match="finite"):
            ch.channel_kron(huge, huge)


def rotated(dil, w):
    """The same dilation seen through the carrier unitary w."""
    reps = tuple(
        ch.StarRepresentation(r.algebra_dim, r.carrier_dim, w @ r.images @ linalg.dagger(w))
        for r in dil.reps
    )
    return ch.MultilinearDilation(reps, w @ dil.isometry)


def draw_dilation(data, rng):
    """Separable dilation on 1-3 slots with d <= 3, turned by a random
    carrier unitary so that its representations are dense."""
    n = data.draw(st.integers(1, 3))
    dims = tuple(data.draw(st.integers(1, 3)) for _ in range(n))
    mult = tuple(data.draw(st.integers(1, 2 if n < 3 else 1)) for _ in range(n))
    carrier = int(np.prod([d * r for d, r in zip(dims, mult)]))
    source = data.draw(st.integers(1, min(carrier, 3)))
    dil = sampling.random_separable_dilation(rng, dims, source, mult)
    return rotated(dil, sampling.random_unitary(rng, carrier))


def unit_matrices(dims, multi):
    return [linalg.unvec(linalg.basis_vector(d * d, c), d) for d, c in zip(dims, multi)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dilation_closed_forms_match_callable_sweeps(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dil = draw_dilation(data, rng)
    dims, m, c = dil.algebra_dims, dil.source_dim, dil.carrier_dim
    vh = linalg.dagger(dil.isometry)

    sweep = ch.multimap_from_function(lambda *mats: oracles.dilation_reconstruct(dil, mats), dims, m)
    assert np.allclose(ch.dilation_multimap(dil).action_matrix, sweep.action_matrix, rtol=0, atol=1e-10)

    decomp = ch.kraus_tensor_decompose(dil)
    assert decomp.t.shape[0] == decomp.l.shape[0] == c
    for alpha in range(c):
        e_a = linalg.basis_vector(c, alpha)

        def t_fn(*vecs):
            acc = e_a
            for rep, v in zip(reversed(dil.reps[:-1]), reversed(vecs)):
                acc = oracles.rep_apply(rep, linalg.unvec(v, rep.algebra_dim)) @ acc
            return vh @ acc

        def l_fn(v):
            return e_a @ oracles.rep_apply(dil.reps[-1], linalg.unvec(v, dims[-1])) @ dil.isometry

        t_old = ml.from_function(t_fn, tuple(d * d for d in dims[:-1]), m)
        l_old = ml.from_function(l_fn, (dims[-1] ** 2,), m)
        assert np.allclose(decomp.t[alpha], t_old.matrix, rtol=0, atol=1e-10)
        assert np.allclose(decomp.l[alpha], l_old.matrix, rtol=0, atol=1e-10)

    def adjoint_fn(g, *fs):
        lead = linalg.kron_vectors([linalg.vec(x) for x in fs])
        vals = sum(
            (linalg.dagger(g) @ (t_alpha @ lead)) @ l_alpha for t_alpha, l_alpha in zip(decomp.t, decomp.l)
        )
        return np.conj(linalg.unvec(vals, dims[-1]))

    adj_old = ch.multimap_from_function(adjoint_fn, (m,) + dims[:-1], dims[-1])
    adj = ch.n_adjoint(ch.dilation_multimap(dil))
    assert adj.input_operator_dims == adj_old.input_operator_dims
    assert np.allclose(adj.action_matrix, adj_old.action_matrix, rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_n_adjoint_and_decomposition_match_the_kraus_index_oracles(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dil = draw_dilation(data, rng)
    decomp = ch.kraus_tensor_decompose(dil)
    adj = ch.n_adjoint(ch.dilation_multimap(dil))
    old = oracles.n_adjoint(decomp)
    assert adj.input_operator_dims == old.input_operator_dims
    assert adj.output_operator_dim == old.output_operator_dim
    assert np.allclose(adj.action_matrix, old.action_matrix, rtol=0, atol=1e-12)
    mats = [sampling.ginibre(rng, d, d) for d in dil.algebra_dims]
    assert np.allclose(
        ch.apply_ops(ch.dilation_multimap(dil), mats), oracles.decomposition_apply(decomp, mats), rtol=0, atol=1e-12
    )
    assert ch.n_adjoint_pairing_residual(decomp, adj) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pairing_residual_finds_every_violation_the_sampled_loop_finds(data):
    """One adjoint entry moved by `size`: the exact residual reads the move
    itself, and wherever the sampled pairing loop sees a violation the exact
    residual sees one too."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dil = draw_dilation(data, rng)
    decomp = ch.kraus_tensor_decompose(dil)
    adj = ch.n_adjoint(ch.dilation_multimap(dil))
    size = data.draw(st.sampled_from((0.0, 1e-6, 1e-3, 1.0)))
    action = adj.action_matrix.copy()
    row = data.draw(st.integers(0, action.shape[0] - 1))
    col = data.draw(st.integers(0, action.shape[1] - 1))
    action[row, col] += size * np.exp(2j * np.pi * rng.random())
    moved = ch.OperatorMultiMap(adj.input_operator_dims, adj.output_operator_dim, action)
    exact = ch.n_adjoint_pairing_residual(decomp, moved)
    sampled = oracles.sampled_pairing_residual(decomp, moved, data.draw(st.integers(1, 5)), rng.integers(2**31))
    assert exact == pytest.approx(size, rel=1e-3, abs=1e-12)
    if sampled > 1e-8:
        assert exact > 1e-8
    if size >= 1e-3:
        assert sampled > 1e-8


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_intertwining_residual_equals_the_unit_loop(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dil = draw_dilation(data, rng)
    padded = ch.pad_dilation(dil, data.draw(st.integers(1, 2)))
    other = rotated(padded, sampling.random_unitary(rng, padded.carrier_dim))
    small = ch.minimal_dilation(dil)
    u, report = ch.intertwiner(small, other)
    assert report["intertwining_residual"] == oracles.intertwining_residual(u, small, other)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_minimal_carrier_is_generator_rank(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dil = draw_dilation(data, rng)
    padded = ch.pad_dilation(dil, data.draw(st.integers(1, 3)))
    padded = rotated(padded, sampling.random_unitary(rng, padded.carrier_dim))
    # generator columns pi_1(E) ... pi_n(E) V e_s, tuple-major and source-minor
    sq = [d * d for d in padded.algebra_dims]
    cols = []
    for multi in np.ndindex(*sq):
        acc = padded.isometry
        for rep, unit in reversed(list(zip(padded.reps, unit_matrices(padded.algebra_dims, multi)))):
            acc = oracles.rep_apply(rep, unit) @ acc
        cols.extend(acc.T)
    gens = np.column_stack(cols)
    assert np.allclose(ch._generator_matrix(padded), gens, rtol=0, atol=1e-10)
    small = ch.minimal_dilation(padded)
    assert small.carrier_dim == np.linalg.matrix_rank(gens)
    assert np.allclose(
        ch.dilation_multimap(small).action_matrix,
        ch.dilation_multimap(dil).action_matrix,
        rtol=0,
        atol=1e-10,
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_multilinear_choi_matches_unit_sweep(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dims = tuple(data.draw(st.integers(1, 3)) for _ in range(data.draw(st.integers(0, 3))))
    m = data.draw(st.integers(1, 3))
    cols = int(np.prod([d * d for d in dims]))
    mm = ch.OperatorMultiMap(dims, m, sampling.ginibre(rng, m * m, cols))
    side = m * int(np.prod(dims))
    total = np.zeros((side, side), dtype=complex)
    for multi in np.ndindex(*[d * d for d in dims]):
        units = unit_matrices(dims, multi)
        total += linalg.kron_all(units + [ch.apply_ops(mm, units)])
    assert np.allclose(ch.choi_of(mm).choi, total, rtol=0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_one_slot_closed_forms_match_callable_sweeps(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    d = data.draw(st.integers(1, 3))
    p = data.draw(st.floats(0.0, 1.0))

    def dep(rho):
        return (1 - p) * rho + p * np.trace(rho) * np.eye(d) / d

    old_dep = ch.choi_of(ch.multimap_from_function(dep, (d,), d))
    assert np.allclose(ch.depolarizing_channel(d, p).choi, old_dep.choi, rtol=0, atol=1e-10)
    old_t = ch.multimap_from_function(lambda x: x.T, (d,), d)
    assert np.allclose(ch.transpose_multimap(d).action_matrix, old_t.action_matrix, rtol=0, atol=1e-10)

    out = data.draw(st.integers(1, 3))
    ks = sampling.random_cptp(rng, d, out, data.draw(st.integers(1, 3)))
    v = ch.stinespring_isometry(ks)
    old_ch = oracles.isometry_channel(v, len(ks.operators))
    assert np.allclose(ch.choi_of(ks).choi, old_ch.choi, rtol=0, atol=1e-10)
    dual = ch.multimap_from_function(lambda a: sum(linalg.dagger(k) @ a @ k for k in ks.operators), (out,), d)
    dil = ch.heisenberg_dilation(ks)
    assert np.allclose(ch.dilation_multimap(dil).action_matrix, dual.action_matrix, rtol=0, atol=1e-10)


def test_closed_forms_sweep_no_callable(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a library path swept a callable over basis tuples")

    monkeypatch.setattr(ch, "multimap_from_function", refuse)
    monkeypatch.setattr(ml, "from_function", refuse)
    rng = np.random.default_rng(24)
    dil = sampling.random_separable_dilation(rng, (2, 2, 2), 3, (1, 2, 1))
    assert ch.dilation_multimap(dil).input_operator_dims == (2, 2, 2)
    assert ch.kraus_tensor_decompose(dil).t.shape == (16, 3, 16)
    assert ch.n_adjoint(ch.dilation_multimap(dil)).input_operator_dims == (3, 2, 2)
    small = ch.minimal_dilation(ch.pad_dilation(dil, 2))
    assert ch.intertwiner(small, dil)[1]["isometry_defect"] < 1e-8
    assert ch.choi_of(ch.dilation_multimap(dil)).choi.shape == (24, 24)
    ks = sampling.random_cptp(rng, 2, 3, 2)
    assert ch.heisenberg_dilation(ks).algebra_dims == (3,)
    assert ch.heisenberg_dilation(ch.dilation_multimap(dil)).algebra_dims == (2, 2, 2)
    assert ch.transpose_multimap(3).input_operator_dims == (3,)
    assert ch.is_tp(ch.depolarizing_channel(3, 0.4))
    assert ideals._ptrace_superops(2)[0].shape == (4, 16)
    circuit, boxes = monad.stinespring_circuit(sampling.random_channel(rng, 2, 2, 2))
    assert sorted(boxes) == ["joint_unitary", "prep_env", "trace_env"]
    assert ideals.broadcast_witness(2)["d"] == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_factor_representation_equals_the_unit_loop_bitwise(d, mult, left, right):
    got = ch.factor_representation(d, mult, left_dim=left, right_dim=right)
    want = oracles.factor_representation(d, mult, left_dim=left, right_dim=right)
    assert (got.algebra_dim, got.carrier_dim) == (want.algebra_dim, want.carrier_dim)
    assert np.array_equal(got.images, want.images)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pad_dilation_equals_the_unit_loop_bitwise(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dil = draw_dilation(data, rng)
    extra = data.draw(st.integers(1, 3))
    got, want = ch.pad_dilation(dil, extra), oracles.pad_dilation(dil, extra)
    assert np.array_equal(got.isometry, want.isometry)
    assert got.factor_dims is want.factor_dims is None
    assert len(got.reps) == len(want.reps)
    for a, b in zip(got.reps, want.reps):
        assert (a.algebra_dim, a.carrier_dim) == (b.algebra_dim, b.carrier_dim)
        assert np.array_equal(a.images, b.images)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_cp_map_is_rebuilt_from_its_dilation(data):
    """Stinespring's theorem on operator maps of arity 1-3: a CP map is
    dilated as itself on a minimal carrier of prod_j d_j * rank levels, and
    a channel or Kraus set keeps the old kron-sum construction of its
    Heisenberg dual."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dims = tuple(data.draw(st.integers(1, 3)) for _ in range(data.draw(st.integers(1, 3))))
    m, r = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    din = int(np.prod(dims))
    # scaled so that the Choi matrix has unit trace and 1e-12 is tight
    gs = [sampling.ginibre(rng, m, din) for _ in range(r)]
    norm = np.sqrt(sum(np.vdot(g, g).real for g in gs))
    ks = ch.KrausSet(tuple(g / norm for g in gs))
    mm = ch.channel_multimap(ch.choi_of(ks), dims)
    dil = ch.heisenberg_dilation(mm)
    assert (dil.algebra_dims, dil.source_dim) == (dims, m)
    assert np.allclose(ch.dilation_multimap(dil).action_matrix, mm.action_matrix, rtol=0, atol=1e-12)
    gram = linalg.dagger(dil.isometry) @ dil.isometry
    assert np.allclose(gram, ch.apply_ops(mm, [np.eye(d) for d in dims]), rtol=0, atol=1e-12)
    rank = ch.kraus_rank(ch.choi_of(mm))
    assert dil.carrier_dim == ch.minimal_dilation(dil).carrier_dim == din * rank

    for source in (ks, ch.choi_of(ks)):
        dual = ch.heisenberg_dilation(source)
        old = source if isinstance(source, ch.KrausSet) else ch.kraus_from_choi(source)
        assert np.array_equal(dual.isometry, oracles.kron_sum_isometry(old))
        (rep,) = dual.reps
        assert np.array_equal(rep.images, oracles.factor_representation(m, len(old.operators)).images)
