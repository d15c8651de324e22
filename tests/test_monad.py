import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from operaq import channels as ch
from operaq import ideals, linalg, monad, operad as op
from operaq import sampling
from operaq.errors import DimensionMismatchError, NotCompletelyPositiveError

F = op.OperadSymbol("f", 2)
G = op.OperadSymbol("g", 1)
SYMBOLS = [F, G]


def bilinear_from_channel(channel):
    # (a, b) -> Phi(a (x) b) out of a channel on the product space
    mm = ch.channel_multimap(channel)
    d = int(np.sqrt(channel.in_dim))
    return ch.OperatorMultiMap((d, d), channel.out_dim, mm.action_matrix @ linalg.mingle((d, d)))


def cp_interpretation(rng):
    spec = op.OperadSpec((F, G, op.OperadSymbol("id", 1)))
    assign = {
        "f": bilinear_from_channel(sampling.random_channel(rng, 4, 2)),
        "g": ch.channel_multimap(sampling.random_channel(rng, 2, 2)),
        "id": ch.identity_multimap(2),
    }
    return op.Interpretation(spec, assign, carrier_dim=2)


def rand_mat(rng, d=2):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def test_generator_orbit_canonicalization():
    rng = np.random.default_rng(0)
    v0, v1 = rand_mat(rng), rand_mat(rng)
    # f applied to (slot1, slot0) with decorations (v0, v1) is the same
    # generator as f applied to (slot0, slot1) with decorations (v1, v0)
    a = monad.MonadElement(((1.0, op.Apply(F, (op.Leaf(1), op.Leaf(0))), (v0, v1)),))
    b = monad.MonadElement(((1.0, op.Apply(F, (op.Leaf(0), op.Leaf(1))), (v1, v0)),))
    assert monad.elements_equal(a, b)
    assert len(monad.element_add(a, b).terms) == 1
    assert monad.element_add(a, b).terms[0][0] == pytest.approx(2.0)


def test_cancellation_drops_generators():
    rng = np.random.default_rng(1)
    x = monad.unit(rand_mat(rng))
    zero = monad.element_add(x, monad.element_scale(-1.0, x))
    assert zero.terms == ()


def test_unit_shape():
    v = np.eye(2)
    e = monad.unit(v)
    assert len(e.terms) == 1
    coeff, term, args = e.terms[0]
    assert coeff == 1.0 and term == op.unit_term()
    assert np.allclose(args[0], v)


def test_mu_grafts_and_concatenates():
    rng = np.random.default_rng(2)
    v1, v2, v3 = (rand_mat(rng) for _ in range(3))
    inner1 = monad.MonadElement(((2.0, op.Apply(G, (op.Leaf(0),)), (v1,)),))
    inner2 = monad.MonadElement(((3.0, op.Apply(F, (op.Leaf(0), op.Leaf(1))), (v2, v3)),))
    outer = monad.MonadElement(
        ((1.0, op.Apply(F, (op.Leaf(0), op.Leaf(1))), (inner1, inner2)),)
    )
    flat = monad.mu(outer)
    want_term = op.Apply(
        F, (op.Apply(G, (op.Leaf(0),)), op.Apply(F, (op.Leaf(1), op.Leaf(2))))
    )
    want = monad.MonadElement(((6.0, want_term, (v1, v2, v3)),))
    assert monad.elements_equal(flat, want)


def test_mu_expands_bilinearly_across_slots():
    rng = np.random.default_rng(23)
    mats = [rand_mat(rng) for _ in range(4)]
    g_of = lambda v: (1.0, op.Apply(G, (op.Leaf(0),)), (v,))
    inner1 = monad.MonadElement((g_of(mats[0]), (2.0,) + g_of(mats[1])[1:]))
    inner2 = monad.MonadElement((g_of(mats[2]), (3.0,) + g_of(mats[3])[1:]))
    outer = monad.MonadElement(
        ((1.0, op.Apply(F, (op.Leaf(0), op.Leaf(1))), (inner1, inner2)),)
    )
    flat = monad.mu(outer)
    assert len(flat.terms) == 4
    coeffs = sorted(abs(c) for c, _, _ in flat.terms)
    assert coeffs == pytest.approx([1.0, 2.0, 3.0, 6.0])


def test_mu_needs_nested_elements():
    bad = monad.unit(np.eye(2))
    with pytest.raises(DimensionMismatchError):
        monad.mu(bad)


def test_t_map_functorial():
    rng = np.random.default_rng(3)
    x = monad.random_element(rng, SYMBOLS)
    f = rand_mat(rng)
    g = rand_mat(rng)
    lhs = monad.t_map(lambda a: f @ a, monad.t_map(lambda a: g @ a, x))
    rhs = monad.t_map(lambda a: (f @ g) @ a, x)
    assert monad.elements_equal(lhs, rhs)
    v = rand_mat(rng)
    assert monad.elements_equal(
        monad.t_map(lambda a: f @ a, monad.unit(v)), monad.unit(f @ v)
    )


def test_monad_law_suite_clean():
    report = monad.monad_law_suite(SYMBOLS, trials=100, seed=4)
    assert report["passed"]
    assert report["violations"] == []
    assert report["checks"] == 300


def test_monad_law_suite_detects_broken_mu(monkeypatch):
    real_mu = monad.mu
    monkeypatch.setattr(monad, "mu", lambda x: monad.element_scale(2.0, real_mu(x)))
    report = monad.monad_law_suite(SYMBOLS, trials=5, seed=5)
    assert not report["passed"]
    assert any(v["law"] == "unit-outer" for v in report["violations"])


def test_algebra_unit_law_exact():
    rng = np.random.default_rng(6)
    alg = monad.algebra_from_interpretation(cp_interpretation(rng))
    for _ in range(5):
        a = rand_mat(rng)
        got = monad.algebra_eval(alg, monad.unit(a))
        assert np.array_equal(got, a.astype(complex))


def test_algebra_multiplication_law():
    rng = np.random.default_rng(7)
    alg = monad.algebra_from_interpretation(cp_interpretation(rng))
    for _ in range(10):
        nested = monad.random_element(rng, SYMBOLS, depth=2, term_depth=1)
        lhs = monad.algebra_eval(alg, monad.mu(nested))
        rhs = monad.algebra_eval(
            alg, monad.t_map(lambda e: monad.algebra_eval(alg, e), nested)
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_algebra_eval_depolarizing_point():
    spec = op.OperadSpec((op.OperadSymbol("s", 1),))
    interp = op.Interpretation(spec, {"s": ch.depolarizing_channel(2, 1.0)}, carrier_dim=2)
    alg = monad.algebra_from_interpretation(interp)
    e11 = linalg.matrix_unit(2, 0, 0)
    elem = monad.MonadElement(((1.0, op.Apply(spec["s"], (op.Leaf(0),)), (e11,)),))
    assert np.allclose(monad.algebra_eval(alg, elem), np.eye(2) / 2, atol=1e-12)


def test_algebra_eval_rejects_nested():
    rng = np.random.default_rng(8)
    alg = monad.algebra_from_interpretation(cp_interpretation(rng))
    nested = monad.t_map(monad.unit, monad.unit(rand_mat(rng)))
    with pytest.raises(DimensionMismatchError):
        monad.algebra_eval(alg, nested)


def test_cptp_family_id_and_unitary():
    rng = np.random.default_rng(9)
    u = sampling.random_unitary(rng, 2)
    conj = ch.multimap_from_function(lambda x: u @ x @ u.conj().T, (2,), 2)
    spec = op.OperadSpec((op.OperadSymbol("id", 1), op.OperadSymbol("u", 1)))
    alg = monad.algebra_from_interpretation(
        op.Interpretation(spec, {"id": ch.identity_multimap(2), "u": conj}, carrier_dim=2)
    )
    fam_id = monad.cptp_family(alg, "id")
    assert np.allclose(fam_id.action_matrix, np.eye(4), atol=1e-12)
    fam_u = monad.cptp_family(alg, "u")
    for _, _, e in linalg.matrix_units(2):
        assert np.allclose(ch.apply_ops(fam_u, [e]), u @ e @ u.conj().T, atol=1e-12)


def test_cptp_family_matches_interpretation():
    rng = np.random.default_rng(10)
    interp = cp_interpretation(rng)
    alg = monad.algebra_from_interpretation(interp)
    fam = monad.cptp_family(alg, "f")
    assert np.allclose(fam.action_matrix, interp.action("f").action_matrix, atol=1e-12)


def test_homomorphism_identity_passes():
    rng = np.random.default_rng(11)
    alg = monad.algebra_from_interpretation(cp_interpretation(rng))
    report = monad.homomorphism_check(lambda a: a, alg, alg, trials=20, seed=1)
    assert report["passed"]
    assert report["witness"] is None


def test_homomorphism_commuting_conjugation():
    rng = np.random.default_rng(12)
    d1 = np.diag(np.exp(1j * rng.normal(size=2)))
    d2 = np.diag(np.exp(1j * rng.normal(size=2)))
    conj1 = ch.multimap_from_function(lambda x: d1 @ x @ d1.conj().T, (2,), 2)
    spec = op.OperadSpec((op.OperadSymbol("v", 1), op.OperadSymbol("id", 1)))
    alg = monad.algebra_from_interpretation(
        op.Interpretation(spec, {"v": conj1, "id": ch.identity_multimap(2)}, carrier_dim=2)
    )
    report = monad.homomorphism_check(lambda x: d2 @ x @ d2.conj().T, alg, alg, trials=20, seed=2)
    assert report["passed"]


def test_homomorphism_transpose_fails_with_witness():
    # transpose commutes with conjugation by any real orthogonal, so the
    # gate needs genuinely complex entries to separate
    rng = np.random.default_rng(13)
    u = sampling.random_unitary(rng, 2)
    gate = ch.multimap_from_function(lambda x: u @ x @ u.conj().T, (2,), 2)
    spec = op.OperadSpec((op.OperadSymbol("w", 1), op.OperadSymbol("id", 1)))
    alg = monad.algebra_from_interpretation(
        op.Interpretation(spec, {"w": gate, "id": ch.identity_multimap(2)}, carrier_dim=2)
    )
    report = monad.homomorphism_check(lambda x: x.T, alg, alg, trials=20, seed=3)
    assert not report["passed"]
    assert report["witness"] is not None
    assert report["witness"]["residual"] > 1e-10


def test_homomorphism_out_map_pair():
    rng = np.random.default_rng(14)
    interp = cp_interpretation(rng)
    phi = sampling.random_channel(rng, 2, 3)
    plain = monad.algebra_from_interpretation(interp)
    rep = monad.representation_of(phi, interp)
    report = monad.homomorphism_check(
        lambda a: a,
        plain,
        rep,
        trials=20,
        seed=4,
        out_map=lambda m: ch.channel_apply(phi, m),
    )
    assert report["passed"]


def test_representation_dim_check():
    rng = np.random.default_rng(15)
    interp = cp_interpretation(rng)
    with pytest.raises(DimensionMismatchError):
        monad.representation_of(sampling.random_channel(rng, 3, 3), interp)


def test_operational_equivalence_same_channel():
    rng = np.random.default_rng(16)
    interp = cp_interpretation(rng)
    phi = sampling.random_channel(rng, 2, 2)
    verdict = monad.operational_equivalence(phi, phi, interp, term_trials=10, seed=5)
    assert verdict["equivalent"]
    assert verdict["witness"] is None
    assert verdict["sweep_cases"] > 0


def test_operational_equivalence_kraus_reshuffle():
    rng = np.random.default_rng(17)
    interp = cp_interpretation(rng)
    phi = sampling.random_channel(rng, 2, 2, kraus_rank=3)
    ks = ch.kraus_from_choi(phi)
    r = len(ks.operators)
    u = sampling.random_unitary(rng, r)
    remixed = [sum(u[b, a] * ks.operators[a] for a in range(r)) for b in range(r)]
    phi_b = ch.choi_of(ch.KrausSet(tuple(remixed)))
    verdict = monad.operational_equivalence(phi, phi_b, interp, term_trials=10, seed=6)
    assert verdict["equivalent"]


def test_operational_equivalence_separates():
    rng = np.random.default_rng(18)
    interp = cp_interpretation(rng)
    ident = ch.identity_channel(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    flip = ch.choi_of(ch.KrausSet((x,)))
    verdict = monad.operational_equivalence(ident, flip, interp, term_trials=5, seed=7)
    assert not verdict["equivalent"]
    assert verdict["witness"] is not None
    assert verdict["witness"]["residual"] > 1e-10


def test_stinespring_circuit_identity_trivial():
    circuit, boxes = monad.stinespring_circuit(ch.identity_channel(3))
    assert boxes["prep_env"].output_operator_dim == 1
    assert boxes["joint_unitary"].output_operator_dim == 3
    realized = monad.circuit_channel(circuit, boxes, 3)
    assert ch.channel_distance_bound(realized, ch.identity_channel(3)) <= 1e-9


def test_stinespring_circuit_depolarizing():
    phi = ch.depolarizing_channel(2, 0.75)
    circuit, boxes = monad.stinespring_circuit(phi)
    assert boxes["prep_env"].output_operator_dim == 4
    realized = monad.circuit_channel(circuit, boxes, 2)
    assert ch.channel_distance_bound(realized, phi) <= 1e-9


def test_stinespring_circuit_random_roundtrip():
    rng = np.random.default_rng(19)
    for in_dim, out_dim in [(2, 2), (3, 3), (3, 2), (2, 3)]:
        phi = sampling.random_channel(rng, in_dim, out_dim)
        circuit, boxes = monad.stinespring_circuit(phi)
        realized = monad.circuit_channel(circuit, boxes, in_dim)
        assert ch.channel_distance_bound(realized, phi) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_stinespring_circuit_boxes_match_callable_sweeps(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    phi = sampling.random_channel(rng, n, m, data.draw(st.integers(1, 3)))
    circuit, boxes = monad.stinespring_circuit(phi)
    anc = boxes["prep_env"].output_operator_dim
    big = n * anc
    env = big // m
    # the joint box is X -> u X u^dag, so its single Kraus operator is u up to a phase
    u = ch.kraus_from_choi(ideals.grouped_channel(boxes["joint_unitary"])).operators[0]
    assert np.allclose(u.conj().T @ u, np.eye(big), rtol=0, atol=1e-10)
    e00 = linalg.matrix_unit(anc, 0, 0)
    old = {
        "prep_env": ch.multimap_from_function(lambda: e00, (), anc),
        "joint_unitary": ch.multimap_from_function(
            lambda a, b: u @ linalg.kron(a, b) @ linalg.dagger(u), (n, anc), big
        ),
        "trace_env": ch.multimap_from_function(
            lambda x: linalg.partial_trace(x, (m, env), 1), (big,), m
        ),
    }
    for name, mm in old.items():
        assert boxes[name].input_operator_dims == mm.input_operator_dims
        assert np.allclose(boxes[name].action_matrix, mm.action_matrix, rtol=0, atol=1e-10)
    realized = monad.circuit_channel(circuit, boxes, n)
    assert ch.channel_distance_bound(realized, phi) <= 1e-9


def test_stinespring_circuit_rejects_bad_maps():
    t = ch.transpose_multimap(2)
    with pytest.raises(NotCompletelyPositiveError):
        monad.stinespring_circuit(ch.choi_of(t))
    halved = ch.QuantumChannel(2, 2, ch.identity_channel(2).choi / 2)
    with pytest.raises(ValueError):
        monad.stinespring_circuit(halved)


def test_monoidal_compat_identities_exact():
    rng = np.random.default_rng(20)
    interp = cp_interpretation(rng)
    report = monad.monoidal_compat_check(
        ch.identity_channel(2), ch.identity_channel(2), interp, trials=6, seed=8
    )
    assert report["passed"]
    assert report["max_residual"] <= 1e-12


def test_monoidal_compat_unitary_pair():
    rng = np.random.default_rng(21)
    interp = cp_interpretation(rng)
    chans = []
    for _ in range(2):
        u = sampling.random_unitary(rng, 2)
        chans.append(ch.choi_of(ch.KrausSet((u,))))
    report = monad.monoidal_compat_check(chans[0], chans[1], interp, trials=8, seed=9)
    assert report["passed"]
    assert report["max_residual"] <= 1e-12


def test_monoidal_compat_random_cptp():
    rng = np.random.default_rng(22)
    i1 = cp_interpretation(rng)
    i2 = cp_interpretation(rng)
    phi1 = sampling.random_channel(rng, 2, 2)
    phi2 = sampling.random_channel(rng, 2, 2)
    report = monad.monoidal_compat_check(phi1, phi2, (i1, i2), trials=12, seed=10)
    assert report["passed"]
    assert report["max_residual"] <= 1e-10
