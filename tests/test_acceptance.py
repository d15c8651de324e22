"""Acceptance gate: one test per headline guarantee, at its documented
tolerance.  Run with -v to get one pass or fail line for each.

Every random draw is seeded, so a failure here is reproducible as is.
"""

import time

import numpy as np
import pytest

from operaq import channels as ch
from operaq import ideals, linalg, monad, multilinear as ml, operad as op
from operaq import sampling
from operaq.errors import IllPosedFeedbackError

from oracles import matrix_units

# least-squares residual of the dimension-two broadcast frame system,
# recomputed independently from the pinv normal equations before the
# solver below existed
NORMAL_EQUATIONS_RESIDUAL = 0.46924720288128363


def random_multilinear(rng, input_dims, output_dim, field):
    shape = (output_dim, int(np.prod(input_dims)))
    m = rng.standard_normal(shape)
    if field == "complex":
        m = m + 1j * rng.standard_normal(shape)
    return ml.MultilinearVectorMap(tuple(input_dims), output_dim, m.astype(complex), field)


def qubit_interpretation(rng, extra_unary=False):
    syms = [op.OperadSymbol("id", 1), op.OperadSymbol("g", 1), op.OperadSymbol("f", 2)]
    assign = {
        "id": ch.identity_multimap(2),
        "g": ch.channel_multimap(sampling.random_channel(rng, 2, 2)),
        "f": ch.channel_multimap(sampling.random_channel(rng, 4, 2), (2, 2)),
    }
    if extra_unary:
        syms.append(op.OperadSymbol("h", 1))
        assign["h"] = ch.channel_multimap(sampling.random_channel(rng, 2, 2))
    return op.Interpretation(op.OperadSpec(tuple(syms)), assign, carrier_dim=2)


def remixed_kraus(rng, ks):
    # same channel, different presentation: mix the operators unitarily
    r = len(ks.operators)
    u = sampling.random_unitary(rng, r)
    return ch.KrausSet(
        tuple(sum(u[b, a] * ks.operators[a] for a in range(r)) for b in range(r))
    )


def test_01_double_adjoint_involution_on_200_random_maps():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(200):
        arity = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(arity))
        out = int(rng.integers(1, 5))
        field = "real" if i % 2 else "complex"
        phi = random_multilinear(rng, dims, out, field)
        worst = max(worst, ml.double_adjoint_residual(phi))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_02_componentwise_product_worked_example():
    # componentwise product on R^2: genuinely bilinear, handled in full by
    # the package; the double adjoint returns it exactly
    prod2 = ml.from_function(lambda x, y: np.array([x[0] * y[0], x[1] * y[1]]), (2, 2), 2)
    prod2 = ml.MultilinearVectorMap((2, 2), 2, prod2.matrix, "real")
    assert ml.double_adjoint_residual(prod2) <= 1e-14

    # hand-checkable composite: sum and difference feed the product map;
    # the front maps are linear in the pair (not bilinear), so their steps
    # are plain arithmetic on the fixed data
    u = np.array([1.0, 1.0])
    v = np.array([0.0, 1.0])
    w = np.array([1.0, 0.0])
    z = np.array([1.0, 1.0])
    f = np.array([1.0, 0.0])

    lower = w - z
    assert np.max(np.abs(lower - np.array([0.0, -1.0]))) <= 1e-14
    upper = u + v
    assert np.max(np.abs(upper - np.array([1.0, 2.0]))) <= 1e-14
    outer = ml.apply(prod2, [upper, lower])
    assert np.max(np.abs(outer - np.array([0.0, -2.0]))) <= 1e-14
    rhs = ml.functional_value(f, outer)
    assert abs(rhs) <= 1e-14

    # the adjoint route gives the same number: f(prod2(upper, lower))
    # pairs lower against the Riesz vector of prod2^dag(f, upper)
    y_riesz = ml.adjoint_apply(ml.adjoint(prod2), f, [upper])
    lhs = ml.functional_value(y_riesz, lower)
    assert abs(lhs) <= 1e-14
    assert abs(lhs - rhs) <= 1e-14

    # the adjoint-of-composite identity itself, on genuinely bilinear parts
    rng = np.random.default_rng(22)
    parts = [random_multilinear(rng, (2, 2), 2, "real") for _ in range(2)]
    assert ml.contravariant_residual(prod2, parts) <= 1e-12


def test_03_transpose_not_cp_kraus_channels_cp():
    t = ch.choi_of(ch.transpose_multimap(2))
    assert abs(ch.choi_min_eigenvalue(t) + 1.0) <= 1e-10
    assert not ch.is_cp(t)

    rng = np.random.default_rng(303)
    for _ in range(40):
        din = int(rng.integers(2, 5))
        dout = int(rng.integers(2, 5))
        phi = ch.choi_of(sampling.random_cptp(rng, din, dout))
        assert ch.is_cp(phi)
    # single-operator and subnormalized sets are CP as well
    assert ch.is_cp(ch.choi_of(ch.KrausSet((sampling.random_isometry(rng, 4, 2),))))
    assert ch.is_cp(ch.choi_of(ch.KrausSet((0.5 * np.eye(3, dtype=complex),))))


def test_04_choi_kraus_dilation_roundtrip_100_channels():
    rng = np.random.default_rng(404)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        din = int(rng.integers(2, 5))
        dout = int(rng.integers(2, 5))
        phi = sampling.random_channel(rng, din, dout)
        ks = ch.kraus_from_choi(phi)
        back = ch.channel_from_dilation(ch.stinespring_from_kraus(ks))
        worst = max(worst, float(np.max(np.abs(back.choi - phi.choi))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_05_minimal_dilation_dimension_and_unitary_intertwiner():
    rng = np.random.default_rng(505)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        ks = sampling.random_cptp(rng, d, d, kraus_rank=2)
        dil = ch.minimal_dilation(ch.heisenberg_dilation(ks))

        padded = ch.pad_dilation(dil, int(rng.integers(2, 4)))
        assert ch.minimal_dilation(padded).carrier_dim == dil.carrier_dim

        other = ch.minimal_dilation(ch.heisenberg_dilation(remixed_kraus(rng, ks)))
        u, report = ch.intertwiner(dil, other)
        eye = np.eye(u.shape[1])
        assert linalg.op_norm(linalg.dagger(u) @ u - eye) <= 1e-8
        assert linalg.op_norm(u @ linalg.dagger(u) - np.eye(u.shape[0])) <= 1e-8
        assert report["intertwining_residual"] <= 1e-8
        assert report["maps_isometry_residual"] <= 1e-8


def test_06_separable_decomposition_pairing_and_zigzag():
    rng = np.random.default_rng(606)
    for i in range(25):
        isometric = i % 2 == 0
        dil = sampling.random_separable_dilation(rng, (2, 2), 3, (2, 1))
        if not isometric:
            # co-scale the embedding: a separable dilation that is not isometric
            dil = ch.MultilinearDilation(
                dil.reps, dil.isometry * (0.5 + rng.random()), dil.factor_dims
            )
        decomp = ch.kraus_tensor_decompose(dil)
        worst = 0.0
        for _, _, e1 in matrix_units(2):
            for _, _, e2 in matrix_units(2):
                direct = ch.dilation_reconstruct(dil, [e1, e2])
                via = ch.decomposition_apply(decomp, [e1, e2])
                worst = max(worst, float(np.max(np.abs(via - direct))))
        assert worst <= 1e-8

        adj = ch.n_adjoint(ch.dilation_multimap(dil))
        assert ch.n_adjoint_pairing_residual(decomp, adj, trials=10, seed=i) <= 1e-8

        if isometric:
            z = ch.zigzag_check(dil)
            assert z["isometric"]
            assert z["zigzag_defect"] <= 1e-9


def test_07_operad_and_monad_laws_500_trials_each():
    syms = [op.OperadSymbol("a", 1), op.OperadSymbol("b", 2), op.OperadSymbol("c", 3)]
    t0 = time.monotonic()
    structural = op.operad_axiom_suite(syms, trials=500, seed=77)
    laws = monad.monad_law_suite(syms, trials=500, seed=78)
    elapsed = time.monotonic() - t0
    assert structural["passed"]
    assert structural["violations"] == []
    assert laws["passed"]
    assert laws["violations"] == []
    assert elapsed < 5.0


def test_08_algebra_unit_exact_and_multiplication_tight():
    rng = np.random.default_rng(808)
    for k in range(10):
        interp = qubit_interpretation(rng, extra_unary=bool(k % 2))
        symbols = [interp.operad[name] for name in sorted(interp.assign)]
        unit_worst = 0.0
        mult_worst = 0.0
        for _ in range(100):
            v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            unit_val = monad.algebra_eval(interp, monad.unit(v))
            unit_worst = max(unit_worst, float(np.max(np.abs(unit_val - v))))
            x = monad.random_element(rng, symbols, dim=2, depth=2, term_depth=1)
            lhs = monad.algebra_eval(interp, monad.mu(x))
            rhs = monad.algebra_eval(
                interp, monad.t_map(lambda el: monad.algebra_eval(interp, el), x)
            )
            mult_worst = max(mult_worst, float(linalg.frobenius(lhs - rhs)))
        assert unit_worst == 0.0
        assert mult_worst <= 1e-10


def test_09_circuit_realization_reproduces_channel():
    rng = np.random.default_rng(909)
    for _ in range(25):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        phi = sampling.random_channel(rng, din, dout)
        circuit, boxes = monad.stinespring_circuit(phi)
        realized = monad.circuit_channel(circuit, boxes, din)
        assert ch.channel_distance_bound(realized, phi) <= 1e-9


def test_10_operational_equivalence_and_separation():
    rng = np.random.default_rng(1010)
    interp = qubit_interpretation(rng)

    for _ in range(5):
        phi = sampling.random_channel(rng, 2, 2, kraus_rank=3)
        phi_b = ch.choi_of(remixed_kraus(rng, ch.kraus_from_choi(phi)))
        verdict = monad.operational_equivalence(phi, phi_b, interp)
        assert verdict["equivalent"]
        assert verdict["range_residual"] <= verdict["tol"]

    pairs = 0
    while pairs < 20:
        a = sampling.random_channel(rng, 2, 2)
        b = sampling.random_channel(rng, 2, 2)
        if linalg.trace_norm(a.choi - b.choi) < 0.1:
            continue
        verdict = monad.operational_equivalence(a, b, interp)
        assert not verdict["equivalent"]
        assert verdict["witness"] is not None
        assert verdict["witness"]["residual"] > verdict["tol"]
        pairs += 1


def test_11_ideal_closure_1000_trials_and_inclusion_chain():
    rng = np.random.default_rng(1111)
    noniso = ideals.IdealSpec("non-isometric-ops", "non-isometric")
    pool = [sampling.random_cptp(rng, 2, 2) for _ in range(8)]
    pool.append(ch.choi_of(ch.KrausSet((sampling.random_unitary(rng, 2),))))
    pool.append(ch.depolarizing_channel(2, 0.5))
    pool.append(
        ch.multimap_from_function(lambda x: linalg.partial_trace(x, (2, 2), 1), (4,), 2)
    )
    pool.append(
        ch.multimap_from_function(
            lambda a, b: 0.5 * (np.trace(b) * a + np.trace(a) * b), (2, 2), 2
        )
    )
    report = ideals.closure_check(noniso, pool, trials=1000, seed=11)
    assert report["passed"]
    assert report["violations"] == []
    assert report["checks"] >= 900

    # curated chain: every certified-unclonable operation also sits in the
    # larger unbroadcastable list
    clone_certs = (ch.depolarizing_channel(2, 0.5), ch.depolarizing_channel(2, 0.75))
    broadcast_certs = clone_certs + (
        ch.depolarizing_channel(2, 1.0),
        ch.multimap_from_function(lambda x: linalg.partial_trace(x, (2, 2), 0), (4,), 2),
    )
    inner = ideals.IdealSpec("no-clone-certificates", "certificate-list", members=clone_certs)
    outer = ideals.IdealSpec(
        "no-broadcast-certificates", "certificate-list", members=broadcast_certs
    )
    chain = ideals.ideal_inclusion_check(inner, outer, pool + list(broadcast_certs))
    assert chain["passed"]
    assert chain["inner_members"] >= 2


def test_12_broadcast_witness_seed_stable_and_matches_oracle():
    reports = [ideals.broadcast_witness(2, seed=s) for s in range(5)]
    base = reports[0]["min_residual"]
    assert base > 1e-3
    for r in reports[1:]:
        assert abs(r["min_residual"] - base) <= 1e-6
    assert abs(base - NORMAL_EQUATIONS_RESIDUAL) <= 1e-6

    # the mixture gap of the cloning specification is exactly the cross
    # term expression scaled by alpha beta, and its norm clears the bound
    rho_1 = linalg.matrix_unit(2, 0, 0)
    rho_2 = linalg.matrix_unit(2, 1, 1)
    gap, expr = ideals.cloning_mixture_gap(rho_1, rho_2)
    assert np.array_equal(gap, 0.25 * expr)
    assert linalg.trace_norm(gap) > 0.25 * linalg.frobenius(expr)
    r0 = reports[0]
    assert r0["mixture_gap_trace_norm"] > 0.25 * r0["mixture_expr_frobenius"]


def test_13_feedback_direct_vs_picard_and_ill_posed():
    rng = np.random.default_rng(1313)
    for _ in range(50):
        u = int(rng.integers(1, 4))
        x = int(rng.integers(1, 4))
        y = int(rng.integers(1, 4))
        m = rng.standard_normal((y + x, u + x)) + 1j * rng.standard_normal((y + x, u + x))
        d = m[y:, u:]
        # rescale the loop block to a strict contraction
        m[y:, u:] = d * (0.8 / max(linalg.op_norm(d), 1e-12))
        problem = ml.FeedbackProblem(
            ml.MultilinearVectorMap((u + x,), y + x, m), (u, x), (y, x)
        )
        direct = ml.feedback_solve(problem)
        iterated = ml.feedback_picard(problem, steps=200)
        assert linalg.op_norm(direct.matrix - iterated.matrix) <= 1e-8

    bad = np.zeros((3, 3), dtype=complex)
    bad[1:, 1:] = np.eye(2)  # loop operator is the identity, I - L singular
    ill = ml.FeedbackProblem(ml.MultilinearVectorMap((3,), 3, bad), (1, 2), (1, 2))
    assert not ill.well_posed
    with pytest.raises(IllPosedFeedbackError):
        ml.feedback_solve(ill)
