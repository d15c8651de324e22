import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from operaq import channels as ch
from operaq import ideals, linalg, operad, sampling
from operaq.errors import (
    DimensionMismatchError,
    NotCompletelyPositiveError,
    UnassignedSymbolError,
)

NON_ISO = ideals.IdealSpec("noniso", "non-isometric")


def unitary_channel(u):
    d = u.shape[0]
    return ch.choi_of(ch.KrausSet((u,)))


def trace_out_second(d):
    return ch.multimap_from_function(
        lambda x: linalg.partial_trace(x, (d, d), 1), (d * d,), d
    )


def test_ideal_spec_rejects_unknown_predicate():
    with pytest.raises(ValueError):
        ideals.IdealSpec("bad", "always")


def test_depolarizing_is_non_isometric_member():
    v = ideals.is_member(NON_ISO, ch.depolarizing_channel(2, 0.5))
    assert v["member"]
    assert v["evidence"]["kraus_rank"] == 4
    assert v["evidence"]["isometry_defect"] is None


def test_unitary_is_not_a_member():
    rng = np.random.default_rng(3)
    v = ideals.is_member(NON_ISO, unitary_channel(sampling.random_unitary(rng, 3)))
    assert not v["member"]
    assert v["evidence"]["kraus_rank"] == 1
    assert v["evidence"]["isometry_defect"] < 1e-9


def test_partial_trace_is_a_member():
    v = ideals.is_member(NON_ISO, trace_out_second(2))
    assert v["member"]
    assert v["evidence"]["kraus_rank"] == 2


def test_scaled_identity_is_rank_one_but_not_isometric():
    mm = ch.OperatorMultiMap((2,), 2, 0.5 * np.eye(4))
    v = ideals.is_member(NON_ISO, mm)
    assert v["member"]
    assert v["evidence"]["kraus_rank"] == 1
    assert v["evidence"]["isometry_defect"] == pytest.approx(0.5, abs=1e-12)


def test_membership_rejects_non_cp_input():
    with pytest.raises(NotCompletelyPositiveError):
        ideals.is_member(NON_ISO, ch.transpose_multimap(2))


def test_membership_of_bilinear_map_goes_through_grouping():
    # (a, b) -> Tr(b) a is CP as a map on the product space and not isometric
    mm = ch.multimap_from_function(lambda a, b: np.trace(b) * a, (2, 2), 2)
    v = ideals.is_member(NON_ISO, mm)
    assert v["member"]
    assert v["evidence"]["kraus_rank"] == 2


def test_certificate_list_matches_by_value():
    dep = ch.depolarizing_channel(2, 0.3)
    spec = ideals.IdealSpec(
        "cert", "certificate-list", members=(dep,), non_members=(ch.identity_channel(2),)
    )
    assert ideals.is_member(spec, ch.depolarizing_channel(2, 0.3))["member"]
    inid = ideals.is_member(spec, ch.identity_channel(2))
    assert not inid["member"]
    assert inid["evidence"]["matched"] == "non_members"
    other = ideals.is_member(spec, ch.depolarizing_channel(2, 0.4))
    assert not other["member"]
    assert other["evidence"]["matched"] is None


def test_cloning_context_predicate_rejects_every_channel():
    spec = ideals.IdealSpec("clone", "evaluates-to-cloning-context")
    prep = np.zeros((4, 4), dtype=complex)
    prep[0, 0] = 1.0
    candidate = ch.multimap_from_function(lambda x: np.kron(x, prep[:2, :2]), (2,), 4)
    v = ideals.is_member(spec, candidate)
    assert not v["member"]
    assert v["evidence"]["max_frame_residual"] > 0.1
    wrong_shape = ideals.is_member(spec, ch.identity_channel(2))
    assert not wrong_shape["member"]
    assert "signature" in wrong_shape["evidence"]["reason"]


def test_sigma_multimap_permutes_slots_pointwise():
    rng = np.random.default_rng(7)
    mm = ch.multimap_from_function(
        lambda a, b: a @ np.eye(3, 2).T.conj() @ b @ np.eye(3, 2), (2, 3), 2
    )
    swapped = ideals.sigma_multimap(mm, (1, 0))
    assert swapped.input_operator_dims == (3, 2)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = ch.apply_ops(swapped, [y, x])
    rhs = ch.apply_ops(mm, [x, y])
    assert linalg.frobenius(lhs - rhs) < 1e-12


def random_multimap(data):
    arity = data.draw(st.integers(1, 3))
    dims = tuple(data.draw(st.integers(1, 3)) for _ in range(arity))
    out = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    cols = int(np.prod([d * d for d in dims]))
    return ch.OperatorMultiMap(dims, out, sampling.ginibre(rng, out * out, cols))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_grouped_channel_matches_dense_mingle(data):
    mm = random_multimap(data)
    din = int(np.prod(mm.input_operator_dims))
    s = mm.action_matrix @ linalg.mingle(mm.input_operator_dims).T
    dense = ch.superop_to_choi(s, din, mm.output_operator_dim)
    got = ideals.grouped_channel(mm)
    assert (got.in_dim, got.out_dim) == (din, mm.output_operator_dim)
    assert np.allclose(got.choi, dense, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sigma_multimap_matches_dense_permutation(data):
    mm = random_multimap(data)
    perm = tuple(data.draw(st.permutations(range(mm.arity))))
    new_dims = [0] * mm.arity
    for pos, target in enumerate(perm):
        new_dims[target] = mm.input_operator_dims[pos]
    p = linalg.factor_permutation(tuple(nd * nd for nd in new_dims), perm)
    got = ideals.sigma_multimap(mm, perm)
    assert got.input_operator_dims == tuple(new_dims)
    assert np.allclose(got.action_matrix, mm.action_matrix @ p, rtol=0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 4))
def test_ptrace_superops_match_callable_sweeps(d):
    t1, t2 = ideals._ptrace_superops(d)
    first = ch.multimap_from_function(lambda x: linalg.partial_trace(x, (d, d), 0), (d * d,), d)
    assert np.allclose(t1, first.action_matrix, rtol=0, atol=1e-10)
    assert np.allclose(t2, trace_out_second(d).action_matrix, rtol=0, atol=1e-10)


def test_closure_holds_on_random_cptp_pool():
    rng = np.random.default_rng(11)
    pool = [sampling.random_cptp(rng, 2, 2) for _ in range(6)]
    pool.append(unitary_channel(sampling.random_unitary(rng, 2)))
    pool.append(ch.multimap_from_function(lambda a, b: 0.5 * (np.trace(b) * a + np.trace(a) * b), (2, 2), 2))
    report = ideals.closure_check(NON_ISO, pool, trials=300, seed=5)
    assert report["passed"]
    assert report["checks"] >= 290
    assert report["violations"] == []
    assert "sampled" in report["note"]


def test_closure_vacuous_without_members():
    rng = np.random.default_rng(2)
    pool = [unitary_channel(sampling.random_unitary(rng, 2)) for _ in range(3)]
    report = ideals.closure_check(NON_ISO, pool, trials=50)
    assert report["passed"]
    assert report["vacuous"]
    assert report["checks"] == 0


def test_closure_detects_certificate_lists_that_are_not_ideals():
    rng = np.random.default_rng(9)
    dep = ch.depolarizing_channel(2, 0.5)
    spec = ideals.IdealSpec("only-dep", "certificate-list", members=(dep,))
    pool = [dep, unitary_channel(sampling.random_unitary(rng, 2))]
    report = ideals.closure_check(spec, pool, trials=60, seed=1)
    assert not report["passed"]
    assert report["violations"]
    first = report["violations"][0]
    assert first["clause"] in ("outer-composition", "pre-composition")


def qubit_interp(extra=()):
    rng = np.random.default_rng(21)
    dep = operad.OperadSymbol("dep", 1)
    u = operad.OperadSymbol("u", 1)
    ident = operad.OperadSymbol("id", 1)
    spec = operad.OperadSpec((dep, u, ident) + tuple(extra))
    assign = {
        "dep": ch.depolarizing_channel(2, 0.5),
        "u": unitary_channel(sampling.random_unitary(rng, 2)),
        "id": ch.identity_channel(2),
    }
    return operad.Interpretation(spec, assign, carrier_dim=2)


def test_quotient_collapses_ideal_subterms():
    interp = qubit_interp()
    dep = interp.operad["dep"]
    u = interp.operad["u"]
    t = operad.Apply(u, (operad.Apply(dep, (operad.Leaf(0),)),))
    q = ideals.quotient(t, NON_ISO, interp)
    assert isinstance(q, operad.Apply)
    assert ideals.is_bottom_symbol(q.symbol)
    assert q.symbol.arity == 1
    assert q.children == (operad.Leaf(0),)


def test_quotient_keeps_isometric_terms():
    interp = qubit_interp()
    u = interp.operad["u"]
    t = operad.Apply(u, (operad.Apply(u, (operad.Leaf(0),)),))
    q = ideals.quotient(t, NON_ISO, interp)
    assert operad.terms_equal(q, t)


def test_quotient_is_idempotent():
    interp = qubit_interp()
    dep = interp.operad["dep"]
    u = interp.operad["u"]
    t = operad.Apply(u, (operad.Apply(dep, (operad.Leaf(0),)),))
    q1 = ideals.quotient(t, NON_ISO, interp)
    q2 = ideals.quotient(q1, NON_ISO, interp)
    assert operad.terms_equal(q1, q2)


def test_quotient_undecidable_without_assignment():
    interp = qubit_interp(extra=(operad.OperadSymbol("mystery", 1),))
    t = operad.Apply(interp.operad["mystery"], (operad.Leaf(0),))
    with pytest.raises(UnassignedSymbolError, match="undecidable"):
        ideals.quotient(t, NON_ISO, interp)


def test_quotient_gamma_absorbs_bottom():
    interp = qubit_interp()
    u = interp.operad["u"]
    keep = operad.Apply(u, (operad.Leaf(0),))
    bot = ideals._bottom_apply([0], 2)
    out = ideals.quotient_gamma(keep, [bot], 2)
    assert ideals.is_bottom_symbol(out.symbol)
    plain = ideals.quotient_gamma(keep, [keep], 2)
    assert not ideals.contains_bottom(plain)


def test_formal_clone_collapses_with_product_signature():
    gen = ideals.clone_generator(2)
    interp0 = qubit_interp()
    bigger = ideals.adjoin_formal(interp0.operad, gen)
    interp = operad.Interpretation(bigger, dict(interp0.assign))
    t = operad.Apply(bigger[gen.name], (operad.Leaf(0),))
    q = ideals.quotient(t, NON_ISO, interp, leaf_dim=2)
    assert ideals.is_bottom_symbol(q.symbol)
    assert q.symbol.signature == ((2,), 4)


def test_adjoin_formal_rejects_name_collisions():
    interp = qubit_interp()
    with pytest.raises(DimensionMismatchError):
        ideals.adjoin_formal(interp.operad, ideals.FormalGenerator("dep", 2))


def test_adjoined_generator_is_uninterpretable():
    from operaq.errors import NonLinearGeneratorError

    gen = ideals.clone_generator(2)
    interp0 = qubit_interp()
    bigger = ideals.adjoin_formal(interp0.operad, gen)
    interp = operad.Interpretation(bigger, dict(interp0.assign))
    t = operad.Apply(bigger[gen.name], (operad.Leaf(0),))
    with pytest.raises(NonLinearGeneratorError):
        operad.interpret(interp, t, leaf_dim=2)


ORACLE_RESIDUAL = 0.46924720288128363


def test_broadcast_witness_qubit_value():
    report = ideals.broadcast_witness(2, state_sample=8, seed=4)
    assert report["min_residual"] == pytest.approx(ORACLE_RESIDUAL, abs=1e-9)
    assert report["marginal_only_residual"] < 1e-8
    assert report["validation_residual"] > 0.05
    assert report["best_linear_map"].shape == (16, 4)
    assert report["frame_size"] == 6


def test_broadcast_witness_seed_independent_minimum():
    values = {
        ideals.broadcast_witness(2, state_sample=5, seed=s)["min_residual"]
        for s in (0, 1, 2)
    }
    assert max(values) - min(values) < 1e-12


def test_broadcast_witness_mixture_gap():
    report = ideals.broadcast_witness(2, state_sample=0)
    assert report["mixture_gap_trace_norm"] == pytest.approx(1.0, abs=1e-12)
    assert report["mixture_gap_trace_norm"] > 0.25 * report["mixture_expr_frobenius"]
    assert report["fitted_map_mixture_gap"] < 1e-10


def test_broadcast_witness_rejects_dimension_one():
    with pytest.raises(ValueError):
        ideals.broadcast_witness(1)


def test_cloning_mixture_gap_scales_with_weights():
    rho_1 = linalg.matrix_unit(3, 0, 0)
    rho_2 = linalg.matrix_unit(3, 2, 2)
    gap, expr = ideals.cloning_mixture_gap(rho_1, rho_2, alpha=0.25)
    assert linalg.frobenius(gap - 0.25 * 0.75 * expr) < 1e-14


def test_clone_pattern_rejects_every_interpreted_term():
    interp = qubit_interp(extra=(operad.OperadSymbol("pair", 1, ((2,), 4)),))
    prep = np.zeros((2, 2), dtype=complex)
    prep[0, 0] = 1.0
    assign = dict(interp.assign)
    assign["pair"] = ch.multimap_from_function(lambda x: np.kron(x, prep), (2,), 4)
    interp = operad.Interpretation(interp.operad, assign)
    t = operad.Apply(interp.operad["pair"], (operad.Leaf(0),))
    report = ideals.clone_pattern_match(t, interp, 2, trials=5, seed=0)
    assert not report["matches"]
    assert not report["uninterpretable"]
    assert report["witness"]["residual"] > 0.1


def test_clone_pattern_flags_formal_terms_as_uninterpretable():
    gen = ideals.clone_generator(2)
    interp0 = qubit_interp()
    bigger = ideals.adjoin_formal(interp0.operad, gen)
    interp = operad.Interpretation(bigger, dict(interp0.assign))
    t = operad.Apply(bigger[gen.name], (operad.Leaf(0),))
    report = ideals.clone_pattern_match(t, interp, 2)
    assert report["uninterpretable"]
    assert not report["matches"]


def test_clone_pattern_needs_square_output():
    interp = qubit_interp()
    t = operad.Apply(interp.operad["dep"], (operad.Leaf(0),))
    with pytest.raises(DimensionMismatchError):
        ideals.clone_pattern_match(t, interp, 2)


def test_inclusion_certificates_sit_inside_non_isometric():
    rng = np.random.default_rng(13)
    members = tuple(sampling.random_cptp(rng, 2, 2, kraus_rank=3) for _ in range(3))
    inner = ideals.IdealSpec("cert", "certificate-list", members=members)
    pool = list(members) + [unitary_channel(sampling.random_unitary(rng, 2))]
    report = ideals.ideal_inclusion_check(inner, NON_ISO, pool)
    assert report["passed"]
    assert report["inner_members"] == 3
    assert report["checked"] == 4


def test_inclusion_failure_produces_witness():
    rng = np.random.default_rng(17)
    u = unitary_channel(sampling.random_unitary(rng, 2))
    inner = ideals.IdealSpec("cert", "certificate-list", members=(u,))
    report = ideals.ideal_inclusion_check(inner, NON_ISO, [u])
    assert not report["passed"]
    assert report["violations"][0]["index"] == 0
