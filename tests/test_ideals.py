import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from operaq import channels as ch
from operaq import ideals, linalg, operad, sampling
import oracles
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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.sampled_from((0.0, 1e-9, 1e-7, 0.3)), st.integers(0, 2 ** 32 - 1))
def test_membership_rank_and_defect_follow_the_relative_cut(d, eps, seed):
    # a unitary channel plus a small admixture of a random one puts Choi
    # eigenvalues on either side of the 1e-10 relative Kraus cut
    rng = np.random.default_rng(seed)
    u = ch.choi_of(ch.KrausSet((sampling.random_unitary(rng, d),))).choi
    noise = sampling.random_channel(rng, d, d).choi
    chan = ch.QuantumChannel(d, d, (1 - eps) * u + eps * noise)
    vals = np.linalg.eigvalsh((chan.choi + linalg.dagger(chan.choi)) / 2)
    rank = int(np.sum(vals > 1e-10 * max(1.0, vals[-1])))
    v = ideals.is_member(NON_ISO, chan)
    assert v["evidence"]["kraus_rank"] == rank
    assert v["member"] == (rank > 1)
    if rank == 1:
        k = ch.kraus_from_choi(chan).operators[0]
        assert v["evidence"]["isometry_defect"] == pytest.approx(
            linalg.op_norm(linalg.dagger(k) @ k - np.eye(d)), abs=1e-12
        )


def _count_spectra(monkeypatch):
    """Patch eigh and eigvalsh to record the side of every matrix they see."""
    calls = {"eigh": [], "eigvalsh": []}
    for name, calls_of in calls.items():
        solve = getattr(np.linalg, name)

        def counted(a, *args, solve=solve, calls_of=calls_of, **kwargs):
            calls_of.append(a.shape)
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(ch.npl, name, counted)
    return calls


def test_membership_of_a_rank_four_map_takes_one_eigenvalue_only_spectrum(monkeypatch):
    calls = _count_spectra(monkeypatch)
    v = ideals.is_member(NON_ISO, ch.depolarizing_channel(2, 0.5))
    assert v["evidence"]["kraus_rank"] == 4
    assert calls == {"eigh": [], "eigvalsh": [(4, 4)]}


def test_membership_of_a_unitary_takes_eigenvectors_once(monkeypatch):
    u = unitary_channel(sampling.random_unitary(np.random.default_rng(4), 3))
    calls = _count_spectra(monkeypatch)
    v = ideals.is_member(NON_ISO, u)
    assert v["evidence"]["kraus_rank"] == 1
    assert calls == {"eigh": [(9, 9)], "eigvalsh": [(9, 9)]}


def test_zero_map_has_kraus_rank_zero_and_is_a_member():
    zero = ch.OperatorMultiMap((2,), 3, np.zeros((9, 4)))
    v = ideals.is_member(NON_ISO, zero)
    assert v == {"member": True, "evidence": {"kraus_rank": 0, "isometry_defect": 1.0}}
    assert ch.kraus_rank(ch.choi_of(zero)) == 0


# ---------------------------------------------------------------------------
# oracles: grouping by a gather of the contraction's columns, membership from one full eigh


def oracle_grouped_channel(mm):
    din = int(np.prod(mm.input_operator_dims)) if mm.input_operator_dims else 1
    slots = range(1, mm.arity + 1)
    s = operad._contract([(0, slots, mm)], [0], slots, [mm.output_operator_dim])
    s = s[:, oracles.mingle_index(mm.input_operator_dims)]
    return ch.QuantumChannel(
        din, mm.output_operator_dim, oracles.superop_to_choi(s, din, mm.output_operator_dim)
    )


def oracle_is_member(spec, op, tol=1e-9):
    mm = ideals._as_multimap(op)
    chan = oracle_grouped_channel(mm)
    vals, ks = ch._choi_spectrum(chan)
    bad = float(vals[0])
    if bad < -1e-10:
        raise NotCompletelyPositiveError("not CP", min_eigenvalue=bad)
    if spec.predicate == "non-isometric":
        ops = ks.operators
        if not np.any(ops[0]):
            ops = ()  # the zero operator padding an empty Kraus set
        defect = None
        if len(ops) <= 1:
            k = ks.operators[0]
            defect = float(linalg.op_norm(linalg.dagger(k) @ k - np.eye(chan.in_dim)))
        member = len(ops) > 1 or defect > tol
        return {"member": member, "evidence": {"kraus_rank": len(ops), "isometry_defect": defect}}
    if spec.predicate == "certificate-list":
        for entry in spec.members:
            if ideals._same_operation(mm, entry):
                return {"member": True, "evidence": {"matched": "members"}}
        for entry in spec.non_members:
            if ideals._same_operation(mm, entry):
                return {"member": False, "evidence": {"matched": "non_members"}}
        return {"member": False, "evidence": {"matched": None}}
    if mm.arity != 1 or mm.output_operator_dim != mm.input_operator_dims[0] ** 2:
        return {"member": False, "evidence": {"reason": "signature is not (d; d x d)"}}
    worst = oracles.max_frame_residual(mm)
    return {"member": worst <= 1e-8, "evidence": {"max_frame_residual": worst}}


SLOT_DIMS = st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
    lambda dims: np.prod(dims) <= 9
)


@st.composite
def cp_operations(draw):
    """CP channels and multimaps of Kraus rank 1-4 on dims 1-3, and
    isometries with a random channel mixed in at weight 0, 1e-9, 1e-7 or 0.3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dims = draw(SLOT_DIMS)
    din = int(np.prod(dims))
    out = draw(st.sampled_from((1, 2, 3, din * din if len(dims) == 1 else 3)))
    if draw(st.booleans()):
        chan = sampling.random_channel(rng, din, out, kraus_rank=draw(st.integers(1, 4)))
    else:
        out = max(out, din)
        v = sampling.random_isometry(rng, out, din)
        eps = draw(st.sampled_from((0.0, 1e-9, 1e-7, 0.3)))
        noise = sampling.random_channel(rng, din, out).choi
        chan = ch.QuantumChannel(din, out, (1 - eps) * ch.choi_of(ch.KrausSet((v,))).choi + eps * noise)
    return chan if draw(st.booleans()) else ch.channel_multimap(chan, tuple(dims))


def membership_specs(op, other):
    cert = ideals.IdealSpec("cert", "certificate-list", members=(other,), non_members=(op,))
    return (NON_ISO, cert, ideals.IdealSpec("clone", "evaluates-to-cloning-context"))


@settings(max_examples=150, deadline=None)
@given(cp_operations(), cp_operations())
def test_is_member_matches_the_eigh_oracle(op, other):
    for spec in membership_specs(op, other):
        want = oracle_is_member(spec, op)
        if oracle_is_member(NON_ISO, op)["evidence"]["kraus_rank"] > 1:
            # above rank one neither the contraction nor eigenvectors are needed
            with mock.patch.object(operad, "_contract", side_effect=AssertionError), \
                    mock.patch.object(ch.npl, "eigh", side_effect=AssertionError):
                got = ideals.is_member(spec, op)
        else:
            got = ideals.is_member(spec, op)
        if "max_frame_residual" in want["evidence"]:
            # one product over the stacked frame rounds apart from state by state
            g, w = got["evidence"].pop("max_frame_residual"), want["evidence"].pop("max_frame_residual")
            assert abs(g - w) <= 1e-9 * max(1.0, w)
        assert got == want


@settings(max_examples=40, deadline=None)
@given(SLOT_DIMS, st.integers(1, 3), st.integers(0, 2**31 - 1), st.booleans())
def test_non_cp_input_is_refused_like_the_oracle(dims, out, seed, grouped):
    rng = np.random.default_rng(seed)
    din = int(np.prod(dims))
    choi = sampling.random_density(rng, din * out)
    v = sampling.random_pure(rng, din * out)
    chan = ch.QuantumChannel(din, out, choi - 2 * np.outer(v, v.conj()))
    op = chan if grouped else ch.channel_multimap(chan, tuple(dims))
    for member in (oracle_is_member, ideals.is_member):
        with pytest.raises(NotCompletelyPositiveError):
            member(NON_ISO, op)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=4), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_grouped_channel_equals_the_contraction_bitwise(dims, out, seed):
    rng = np.random.default_rng(seed)
    cols = int(np.prod([d * d for d in dims])) if dims else 1
    mm = ch.OperatorMultiMap(tuple(dims), out, sampling.ginibre(rng, out * out, cols))
    got, want = ch.choi_of(mm), oracle_grouped_channel(mm)
    assert (got.in_dim, got.out_dim) == (want.in_dim, want.out_dim)
    assert np.array_equal(got.choi, want.choi)


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
    arity = data.draw(st.integers(0, 3))
    dims = tuple(data.draw(st.integers(1, 3)) for _ in range(arity))
    out = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    cols = int(np.prod([d * d for d in dims]))
    return ch.OperatorMultiMap(dims, out, sampling.ginibre(rng, out * out, cols))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_grouped_channel_matches_dense_mingle(data):
    mm = random_multimap(data)
    got, want = ch.choi_of(mm), oracles.grouped_channel(mm)
    assert (got.in_dim, got.out_dim) == (want.in_dim, want.out_dim)
    assert np.array_equal(got.choi, want.choi)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sigma_multimap_matches_dense_permutation(data):
    mm = random_multimap(data)
    for perm in itertools.permutations(range(mm.arity)):
        got, want = ideals.sigma_multimap(mm, perm), oracles.sigma_multimap(mm, perm)
        assert got.input_operator_dims == want.input_operator_dims
        assert np.array_equal(got.action_matrix, want.action_matrix)


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
    assert report["vacuous"] is False
    assert report["checks"] >= 290
    assert report["checks"] + report["skipped"] == 300
    assert report["violations"] == []
    assert "sampled" in report["note"]


def test_closure_vacuous_without_members():
    rng = np.random.default_rng(2)
    pool = [unitary_channel(sampling.random_unitary(rng, 2)) for _ in range(3)]
    report = ideals.closure_check(NON_ISO, pool, trials=50)
    assert report["passed"]
    assert report["vacuous"]
    assert report["checks"] == report["skipped"] == 0
    pool.append(ch.depolarizing_channel(2, 0.5))
    assert set(ideals.closure_check(NON_ISO, pool, trials=50)) == set(report)


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


def oracle_closure_check(spec, pool, trials, seed):
    """The per-trial closure loop: every sampled context composed and
    tested afresh."""

    def pick(rng, items, out_dim):
        choices = [x for x in items if x.output_operator_dim == out_dim]
        if not choices:
            return None
        return choices[int(rng.integers(len(choices)))]

    items = [ideals._as_multimap(x) for x in pool]
    members = [x for x in items if ideals.is_member(spec, x)["member"]]
    if not members:
        return {
            "trials": 0, "checks": 0, "skipped": 0, "violations": [], "passed": True,
            "vacuous": True, "note": ideals.SAMPLING_NOTE,
        }
    rng = np.random.default_rng(seed)
    clauses = ("outer-composition", "pre-composition", "symmetric-action")
    checks = skipped = 0
    violations = []
    for trial in range(trials):
        clause = clauses[trial % 3]
        f = members[int(rng.integers(len(members)))]
        comp = None
        if clause == "outer-composition":
            parts = [pick(rng, items, din) for din in f.input_operator_dims]
            if all(p is not None for p in parts):
                comp = operad._compose_multimaps(f, parts)
        elif clause == "pre-composition":
            h = items[int(rng.integers(len(items)))]
            slots = [
                k for k, din in enumerate(h.input_operator_dims)
                if din == f.output_operator_dim
            ]
            if slots:
                slot = slots[int(rng.integers(len(slots)))]
                parts = [
                    f if k == slot else pick(rng, items, din)
                    for k, din in enumerate(h.input_operator_dims)
                ]
                if all(p is not None for p in parts):
                    comp = operad._compose_multimaps(h, parts)
        else:
            comp = ideals.sigma_multimap(f, rng.permutation(f.arity))
        if comp is None:
            skipped += 1
            continue
        checks += 1
        verdict = ideals.is_member(spec, comp)
        if not verdict["member"]:
            violations.append(
                {"trial": trial, "clause": clause, "evidence": verdict["evidence"]}
            )
    return {
        "trials": trials, "checks": checks, "skipped": skipped, "violations": violations,
        "passed": not violations, "vacuous": False, "note": ideals.SAMPLING_NOTE,
    }


def bilinear_cp(rng, d1, d2, out):
    """(a, b) -> Phi(a (x) b) for a random channel Phi."""
    phi = sampling.random_channel(rng, d1 * d2, out)
    return ch.multimap_from_function(
        lambda a, b: ch.channel_apply(phi, np.kron(a, b)), (d1, d2), out
    )


@st.composite
def closure_pools(draw):
    """A CP pool with duplicates, non-members (unitaries, isometries) and
    entries whose output feeds no slot, plus a spec over it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dim, small = st.sampled_from((2, 1, 3)), st.sampled_from((2, 1))
    kinds = st.one_of(
        st.tuples(st.just("chan"), dim, dim, st.integers(2, 3)),
        st.tuples(st.just("unitary"), st.integers(2, 3)),
        st.tuples(st.just("bilinear"), small, small, small),
    )
    pool = []
    for kind in draw(st.lists(kinds, min_size=2, max_size=4)):
        if kind[0] == "chan":
            pool.append(sampling.random_channel(rng, kind[1], kind[2], kraus_rank=kind[3]))
        elif kind[0] == "unitary":
            pool.append(unitary_channel(sampling.random_unitary(rng, kind[1])))
        else:
            pool.append(bilinear_cp(rng, *kind[1:]))
    pool += [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))]
    which = draw(st.sampled_from(("noniso", "cert", "clone")))
    if which == "noniso":
        spec = NON_ISO
    elif which == "clone":
        spec = ideals.IdealSpec("clone", "evaluates-to-cloning-context")
    else:
        flags = draw(st.lists(st.sampled_from((1, 0, 2)), min_size=len(pool), max_size=len(pool)))
        spec = ideals.IdealSpec(
            "cert", "certificate-list",
            members=tuple(p for p, f in zip(pool, flags) if f == 1),
            non_members=tuple(p for p, f in zip(pool, flags) if f == 2),
        )
    return spec, pool


@settings(max_examples=40, deadline=None)
@given(closure_pools(), st.integers(0, 60), st.integers(0, 2**32 - 1))
def test_closure_check_matches_per_trial_oracle(spec_pool, trials, seed):
    spec, pool = spec_pool
    assert ideals.closure_check(spec, pool, trials, seed) == oracle_closure_check(
        spec, pool, trials, seed
    )


def _counting_is_member(monkeypatch):
    """Patch is_member to record every operation it is asked about."""
    seen = []
    is_member = ideals.is_member

    def counted(spec, op, *args, **kwargs):
        mm = ideals._as_multimap(op)
        seen.append((mm.input_operator_dims, mm.output_operator_dim, mm.action_matrix.tobytes()))
        return is_member(spec, op, *args, **kwargs)

    monkeypatch.setattr(ideals, "is_member", counted)
    return seen


def test_closure_check_tests_each_distinct_context_once(monkeypatch):
    rng = np.random.default_rng(31)
    pool = [sampling.random_channel(rng, 2, 2) for _ in range(3)]
    pool += [bilinear_cp(rng, 2, 2, 2), unitary_channel(sampling.random_unitary(rng, 2))]
    seen = _counting_is_member(monkeypatch)
    want = oracle_closure_check(NON_ISO, pool, 300, 3)
    # generic maps: distinct contexts give distinct composites
    distinct = len(set(seen[len(pool):]))
    assert distinct < want["checks"]
    seen.clear()
    assert ideals.closure_check(NON_ISO, pool, 300, 3) == want
    assert len(seen) == len(pool) + distinct


def test_closure_check_repeats_violations_of_a_repeated_context(monkeypatch):
    rng = np.random.default_rng(9)
    dep = ch.depolarizing_channel(2, 0.5)
    spec = ideals.IdealSpec("only-dep", "certificate-list", members=(dep,))
    pool = [dep, unitary_channel(sampling.random_unitary(rng, 2))]
    want = oracle_closure_check(spec, pool, 60, 1)
    seen = _counting_is_member(monkeypatch)
    report = ideals.closure_check(spec, pool, trials=60, seed=1)
    assert report == want
    assert len(report["violations"]) > len(seen) - len(pool)


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


def _witness_rows(states, d):
    """The broadcast system written out: for each state P the rows
    vec(P)^T (x) I, vec(P)^T (x) T_1 and vec(P)^T (x) T_2, with targets
    vec(P (x) P), vec P and vec P."""
    t1, t2 = ideals._ptrace_superops(d)
    eye_big = np.eye(d ** 4, dtype=complex)
    rows, rhs = [], []
    for p in states:
        vp = linalg.vec(p).reshape(1, -1)
        for g, target in ((eye_big, np.kron(p, p)), (t1, p), (t2, p)):
            rows.append(np.kron(vp, g))
            rhs.append(linalg.vec(target))
    return np.vstack(rows), np.concatenate(rhs)


@functools.cache
def _oracle_fit(d):
    """Dense least squares over the whole stacked system, and over its
    marginal rows alone: (best map, min residual, marginal-only residual)."""
    a, b = _witness_rows(ideals.broadcast_frame(d), d)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    block = d ** 4 + 2 * d * d
    keep = np.concatenate(
        [np.arange(k * block + d ** 4, (k + 1) * block) for k in range(b.size // block)]
    )
    xm, *_ = np.linalg.lstsq(a[keep], b[keep], rcond=None)
    best = x.reshape((d ** 4, d * d), order="F")
    return best, float(np.linalg.norm(a @ x - b)), float(np.linalg.norm(a[keep] @ xm - b[keep]))


def oracle_broadcast_witness(d, state_sample, seed):
    best, min_residual, marginal_only = _oracle_fit(d)
    rng = np.random.default_rng(seed)
    validation = 0.0
    if state_sample:
        held_out = []
        for _ in range(state_sample):
            psi = sampling.random_pure(rng, d)
            held_out.append(np.outer(psi, psi.conj()))
        av, bv = _witness_rows(held_out, d)
        validation = float(np.linalg.norm(av @ linalg.vec(best) - bv))
    rho_1 = linalg.matrix_unit(d, 0, 0)
    rho_2 = linalg.matrix_unit(d, 1, 1)
    gap, expr = ideals.cloning_mixture_gap(rho_1, rho_2)
    fitted_gap = (
        best @ linalg.vec(0.5 * rho_1 + 0.5 * rho_2)
        - 0.5 * best @ linalg.vec(rho_1)
        - 0.5 * best @ linalg.vec(rho_2)
    )
    return {
        "d": d,
        "min_residual": min_residual,
        "marginal_only_residual": marginal_only,
        "validation_residual": validation,
        "frame_size": len(ideals.broadcast_frame(d)),
        "state_sample": state_sample,
        "best_linear_map": best,
        "mixture_gap_trace_norm": float(linalg.trace_norm(gap)),
        "mixture_expr_frobenius": float(linalg.frobenius(expr)),
        "fitted_map_mixture_gap": float(np.linalg.norm(fitted_gap)),
    }


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
def test_broadcast_witness_matches_dense_lstsq_oracle(d, state_sample, seed):
    report = ideals.broadcast_witness(d, state_sample=state_sample, seed=seed)
    oracle = oracle_broadcast_witness(d, state_sample, seed)
    assert set(report) == set(oracle) | {"note"}
    for key, want in oracle.items():
        got = report[key]
        if key == "best_linear_map":
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0, atol=1e-10)
        elif isinstance(want, float):
            # the round-off sized entries (marginal-only residual, fitted
            # mixture gap) sit near 1e-15, where only an absolute floor holds
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12), key
        else:
            assert got == want, key


def _frame_system(d):
    """G = [I; T_1; T_2], F = [vec P_k] and B = [vec(P_k (x) P_k); vec P_k; vec P_k]
    for the broadcast frame, built state by state."""
    t1, t2 = ideals._ptrace_superops(d)
    g = np.vstack([np.eye(d ** 4), t1, t2])
    frame = ideals.broadcast_frame(d)
    f = np.column_stack([linalg.vec(p) for p in frame])
    b = np.column_stack(
        [np.concatenate([linalg.vec(np.kron(p, p)), linalg.vec(p), linalg.vec(p)]) for p in frame]
    )
    return g, f, b


@pytest.mark.parametrize("d", [4, 5])
def test_broadcast_witness_is_least_squares_optimal_beyond_the_oracle(d):
    report = ideals.broadcast_witness(d, state_sample=2, seed=d)
    g, f, b = _frame_system(d)
    x = report["best_linear_map"]
    r = g @ x @ f - b
    # normal equations of (F^T (x) G) vec(X) = vec(B): G^H R F^H = 0
    assert np.max(np.abs(linalg.dagger(g) @ r @ linalg.dagger(f))) <= 1e-9
    assert report["min_residual"] == pytest.approx(float(np.linalg.norm(r)), rel=1e-10)
    assert report["min_residual"] > 1e-6
    assert report["marginal_only_residual"] <= 1e-8
    assert report["frame_size"] == f.shape[1]


def test_broadcast_witness_never_calls_lstsq(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("broadcast_witness solved a dense stacked system")

    monkeypatch.setattr(ideals.npl, "lstsq", refuse)
    report = ideals.broadcast_witness(3)
    assert report["min_residual"] > 1e-6


def test_cloning_mixture_gap_scales_with_weights():
    rho_1 = linalg.matrix_unit(3, 0, 0)
    rho_2 = linalg.matrix_unit(3, 2, 2)
    gap, expr = ideals.cloning_mixture_gap(rho_1, rho_2)
    assert linalg.frobenius(gap - 0.5 * 0.5 * expr) < 1e-14
    # an unequal mixture, built inline, has the same cross terms scaled by alpha * beta
    alpha, beta = 0.25, 0.75
    mixed = alpha * rho_1 + beta * rho_2
    skewed = np.kron(mixed, mixed) - alpha * np.kron(rho_1, rho_1) - beta * np.kron(rho_2, rho_2)
    assert linalg.frobenius(skewed - alpha * beta * expr) < 1e-14


def test_clone_pattern_rejects_every_interpreted_term():
    interp = qubit_interp(extra=(operad.OperadSymbol("pair", 1, ((2,), 4)),))
    prep = np.zeros((2, 2), dtype=complex)
    prep[0, 0] = 1.0
    assign = dict(interp.assign)
    assign["pair"] = ch.multimap_from_function(lambda x: np.kron(x, prep), (2,), 4)
    interp = operad.Interpretation(interp.operad, assign)
    t = operad.Apply(interp.operad["pair"], (operad.Leaf(0),))
    report = ideals.clone_pattern_match(t, interp, trials=5, seed=0)
    assert not report["matches"]
    assert not report["uninterpretable"]
    assert report["witness"]["residual"] > 0.1


@st.composite
def would_be_cloners(draw):
    """(d; d*d) maps, d 1-3: the basis copier, which clones the basis states
    (every state at d = 1), and x -> x (x) |0><0|, which clones |0> only,
    each mixed with a random channel at weight 0, 1e-10, 1e-6 or 0.3; or a
    Ginibre action, which is not CP."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("copier", "ancilla", "ginibre")))
    if kind == "ginibre":
        return ch.OperatorMultiMap((d,), d * d, sampling.ginibre(rng, d**4, d * d))
    eye = np.eye(d)
    if kind == "copier":
        ks = ch.KrausSet(tuple(np.outer(np.kron(eye[i], eye[i]), eye[i]) for i in range(d)))
    else:
        ks = ch.KrausSet((np.kron(eye, eye[:, :1]),))
    eps = draw(st.sampled_from((0.0, 1e-10, 1e-6, 0.3)))
    choi = (1 - eps) * ch.choi_of(ks).choi + eps * sampling.random_channel(rng, d, d * d).choi
    return ch.channel_multimap(ch.QuantumChannel(d, d * d, choi))


@settings(max_examples=80, deadline=None)
@given(would_be_cloners(), st.integers(0, 25), st.integers(0, 2**32 - 1), st.booleans())
def test_cloning_checks_match_the_per_state_oracles(mm, trials, seed, first_state_only):
    def close(got, want):
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))

    spec = operad.OperadSpec((operad.OperadSymbol("f", 1),))
    interp = operad.Interpretation(spec, {"f": mm})
    t = operad.Apply(spec["f"], (operad.Leaf(0),))
    frame = ideals.broadcast_frame
    # a frame cut to its first state lets sampled states carry the witness
    cut = (lambda d: frame(d)[:1]) if first_state_only else frame
    with mock.patch.object(ideals, "broadcast_frame", cut):
        got = ideals.clone_pattern_match(t, interp, trials=trials, seed=seed)
        want = oracles.clone_witness(mm, trials, seed)
    assert got["matches"] == (want is None) and not got["uninterpretable"]
    if want is not None:
        assert got["witness"]["state"] == want["state"]
        assert close(got["witness"]["residual"], want["residual"])
    if ch.is_cp(ch.choi_of(mm)):
        verdict = ideals.is_member(ideals.IdealSpec("clone", "evaluates-to-cloning-context"), mm)
        worst = oracles.max_frame_residual(mm)
        assert verdict["member"] == (worst <= 1e-8)
        assert close(verdict["evidence"]["max_frame_residual"], worst)


def test_broadcast_frame_is_one_stack_of_pure_state_projectors():
    for d in (1, 2, 3, 4):
        frame = ideals.broadcast_frame(d)
        assert frame.shape == (d * d + 2, d, d)
        assert np.array_equal(frame, np.array(oracles.broadcast_frame(d)))
        assert np.allclose(frame @ frame, frame, atol=1e-12)
        assert np.allclose(np.trace(frame, axis1=1, axis2=2), 1.0, atol=1e-12)


def test_clone_pattern_flags_formal_terms_as_uninterpretable():
    gen = ideals.clone_generator(2)
    interp0 = qubit_interp()
    bigger = ideals.adjoin_formal(interp0.operad, gen)
    interp = operad.Interpretation(bigger, dict(interp0.assign))
    t = operad.Apply(bigger[gen.name], (operad.Leaf(0),))
    report = ideals.clone_pattern_match(t, interp)
    assert report["uninterpretable"]
    assert not report["matches"]


def test_clone_pattern_needs_square_output():
    interp = qubit_interp()
    t = operad.Apply(interp.operad["dep"], (operad.Leaf(0),))
    with pytest.raises(DimensionMismatchError):
        ideals.clone_pattern_match(t, interp)


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
