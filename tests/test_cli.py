import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from operaq import channels as ch
import operaq
from operaq import cli, ideals, io, linalg, monad, multilinear, operad, sampling


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(io.canonical_json(obj), encoding="utf-8")
    return str(path)


def invoke(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli.main(list(argv) + ["--out", str(out)])
    return code, json.loads(out.read_text())


def qubit_interp_obj():
    rng = np.random.default_rng(5)
    spec = operad.OperadSpec(
        (
            operad.OperadSymbol("dep", 1),
            operad.OperadSymbol("u", 1),
            operad.OperadSymbol("mix", 2),
        )
    )
    u = sampling.random_unitary(rng, 2)
    interp = operad.Interpretation(
        spec,
        {
            "dep": ch.depolarizing_channel(2, 0.5),
            "u": ch.choi_of(ch.KrausSet((u,))),
            "mix": ch.multimap_from_function(
                lambda a, b: 0.5 * (np.trace(b) * a + np.trace(a) * b), (2, 2), 2
            ),
        },
        carrier_dim=2,
    )
    return io.encode_interpretation(interp)


def test_check_cp_identity_passes(tmp_path):
    path = write(tmp_path, "id.json", io.encode_channel(ch.identity_channel(2)))
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", path)
    assert code == 0
    assert rep["schema"] == "operaq/1"
    assert rep["result"]["cp"] is True
    assert rep["passed"] is True


def test_check_cp_transpose_fails_with_eigenvalue(tmp_path):
    path = write(tmp_path, "t.json", io.encode_multimap(ch.transpose_multimap(2)))
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", path)
    assert code == 1
    assert rep["result"]["min_eigenvalue"] == pytest.approx(-1.0, abs=1e-10)


def test_check_cp_bilinear_includes_slotwise_scan(tmp_path):
    mm = ch.multimap_from_function(lambda a, b: np.trace(b) * a, (2, 2), 2)
    path = write(tmp_path, "mm.json", io.encode_multimap(mm))
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", path)
    assert code == 0
    assert rep["result"]["slotwise"]["passed"] is True


def test_check_cp_decodes_its_input_once(tmp_path, monkeypatch):
    mm = ch.multimap_from_function(lambda a, b: np.trace(b) * a, (2, 2), 2)
    path = write(tmp_path, "mm.json", io.encode_multimap(mm))
    decode, decoded = io.decode_operation, []

    def counting(obj, ctx="operation"):
        decoded.append(ctx)
        return decode(obj, ctx)

    monkeypatch.setattr(io, "decode_operation", counting)
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", path)
    assert code == 0 and rep["result"]["slotwise"]["passed"] is True
    assert decoded == [path]


def test_check_tp_catches_subnormalized_map(tmp_path):
    mm = ch.OperatorMultiMap((2,), 2, 0.5 * np.eye(4))
    path = write(tmp_path, "half.json", io.encode_multimap(mm))
    code, rep = invoke(tmp_path, "--command", "check-tp", "--in", path)
    assert code == 1
    assert rep["result"]["defect"] == pytest.approx(0.5, abs=1e-12)
    assert rep["result"]["defect"] == ch.tp_defect(ch.choi_of(mm))


def test_choi_and_kraus_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    phi = sampling.random_channel(rng, 2, 3)
    path = write(tmp_path, "phi.json", io.encode_channel(phi, "kraus"))
    code, rep = invoke(tmp_path, "--command", "choi", "--in", path)
    assert code == 0
    back = io.decode_channel(rep["result"]["channel"])
    assert linalg.frobenius(back.choi - phi.choi) < 1e-10

    code, rep = invoke(tmp_path, "--command", "kraus", "--in", path)
    assert code == 0
    assert rep["result"]["kraus_rank"] == ch.kraus_rank(phi)
    back = io.decode_channel(rep["result"]["channel"])
    assert linalg.frobenius(back.choi - phi.choi) < 1e-10


def test_kraus_of_the_zero_channel_has_rank_zero(tmp_path, monkeypatch):
    zero = ch.QuantumChannel(2, 2, np.zeros((4, 4)))
    path = write(tmp_path, "zero.json", io.encode_channel(zero))
    spectra = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(ch.npl, "eigh", lambda a: spectra.append(a.shape) or eigh(a))
    code, rep = invoke(tmp_path, "--command", "kraus", "--in", path)
    assert code == 0
    assert rep["result"]["kraus_rank"] == 0 == ch.kraus_rank(zero)
    assert spectra == [(4, 4)]
    back = io.decode_channel(rep["result"]["channel"])
    assert np.array_equal(back.choi, zero.choi)


def test_dilate_reconstructs(tmp_path):
    rng = np.random.default_rng(9)
    phi = sampling.random_channel(rng, 3, 2)
    path = write(tmp_path, "phi.json", io.encode_channel(phi))
    code, rep = invoke(tmp_path, "--command", "dilate", "--in", path)
    assert code == 0
    assert rep["result"]["reconstruction_error"] < 1e-9
    assert rep["result"]["env_dim"] >= 1


def test_minimal_compresses_padded_dilation(tmp_path):
    rng = np.random.default_rng(11)
    phi = sampling.random_channel(rng, 2, 2)
    dil = ch.heisenberg_dilation(ch.kraus_from_choi(phi))
    padded = ch.pad_dilation(ch.minimal_dilation(dil), 3)
    path = write(tmp_path, "dil.json", io.encode_multilinear_dilation(padded))
    code, rep = invoke(tmp_path, "--command", "minimal", "--in", path)
    assert code == 0
    assert rep["result"]["carrier_dim"] < rep["result"]["original_carrier_dim"]


def test_intertwine_between_minimal_dilations(tmp_path):
    rng = np.random.default_rng(13)
    phi = sampling.random_channel(rng, 2, 2, kraus_rank=2)
    ks = ch.kraus_from_choi(phi)
    d_1 = ch.minimal_dilation(ch.heisenberg_dilation(ks))
    u = sampling.random_unitary(rng, 2)
    remixed = tuple(
        sum(u[a, b] * ks.operators[b] for b in range(2)) for a in range(2)
    )
    d_2 = ch.minimal_dilation(ch.heisenberg_dilation(ch.KrausSet(remixed)))
    p_1 = write(tmp_path, "d1.json", io.encode_multilinear_dilation(d_1))
    p_2 = write(tmp_path, "d2.json", io.encode_multilinear_dilation(d_2))
    code, rep = invoke(tmp_path, "--command", "intertwine", "--in", p_1, "--in", p_2)
    assert code == 0
    assert rep["result"]["isometry_defect"] < 1e-8
    assert rep["result"]["intertwining_residual"] < 1e-8


def test_intertwine_rejects_different_channels(tmp_path):
    rng = np.random.default_rng(15)
    d_1 = ch.minimal_dilation(
        ch.heisenberg_dilation(sampling.random_cptp(rng, 2, 2))
    )
    d_2 = ch.minimal_dilation(
        ch.heisenberg_dilation(sampling.random_cptp(rng, 2, 2))
    )
    p_1 = write(tmp_path, "d1.json", io.encode_multilinear_dilation(d_1))
    p_2 = write(tmp_path, "d2.json", io.encode_multilinear_dilation(d_2))
    code, rep = invoke(tmp_path, "--command", "intertwine", "--in", p_1, "--in", p_2)
    assert code == 1
    assert "different maps" in rep["result"]["error"]


def test_adjoint_command(tmp_path):
    rng = np.random.default_rng(17)
    phi = multilinear.MultilinearVectorMap(
        (2, 3), 2, rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    )
    path = write(tmp_path, "phi.json", io.encode_multilinear_map(phi))
    code, rep = invoke(tmp_path, "--command", "adjoint", "--in", path)
    assert code == 0
    assert rep["result"]["double_adjoint_residual"] <= 1e-12
    adj = io.decode_multilinear_map(rep["result"]["adjoint"])
    assert adj.input_dims == (2, 2)
    assert adj.output_dim == 3


def test_nadjoint_runs_without_a_seed_and_passes(tmp_path):
    rng = np.random.default_rng(19)
    phi = sampling.random_channel(rng, 2, 2)
    path = write(tmp_path, "phi.json", io.encode_channel(phi))
    code, rep = invoke(tmp_path, "--command", "nadjoint", "--in", path)
    assert code == 0
    assert rep["result"]["pairing_residual"] <= 1e-12
    code, seeded = invoke(tmp_path, "--command", "nadjoint", "--in", path, "--seed", "3", "--tol", "trials=1")
    assert code == 0 and seeded["result"] == rep["result"]


@pytest.mark.parametrize("command", ["minimal", "zigzag", "nadjoint"])
def test_an_operator_map_of_two_slots_is_dilated_as_itself(tmp_path, command):
    # a CP map M_2 x M_2 -> M_3 of Kraus rank 2, dilated on C^2 (x) C^2 (x) C^2
    rng = np.random.default_rng(23)
    ks = sampling.random_cptp(rng, 4, 3, 2)
    bilinear = ch.channel_multimap(ch.choi_of(ks), (2, 2))
    path = write(tmp_path, "phi.json", io.encode_multimap(bilinear))
    code, rep = invoke(tmp_path, "--command", command, "--in", path)
    result = rep["result"]
    if command == "minimal":
        assert code == 0
        assert result["carrier_dim"] == result["original_carrier_dim"] == 4 * 2
        back = ch.dilation_multimap(io.decode_multilinear_dilation(result["dilation"]))
        assert np.allclose(back.action_matrix, bilinear.action_matrix, rtol=0, atol=1e-12)
    elif command == "nadjoint":
        assert code == 0
        assert result["adjoint"]["input_dims"] == [3, 2] and result["adjoint"]["output_dim"] == 2
        assert result["pairing_residual"] <= 1e-12
    else:
        # V^dag V = Phi(I, I): isometric reads unitality, and this map is not unital
        unitality = linalg.op_norm(ch.apply_ops(bilinear, [np.eye(2), np.eye(2)]) - np.eye(3))
        assert code == 1 and result["isometric"] is False
        assert result["isometry_defect"] == pytest.approx(unitality, rel=1e-9)
        # (a, b) -> tr(a) tr(b) I / 4 is unital
        unital = ch.multimap_from_function(lambda a, b: np.trace(a) * np.trace(b) * np.eye(3) / 4, (2, 2), 3)
        path = write(tmp_path, "unital.json", io.encode_multimap(unital))
        code, rep = invoke(tmp_path, "--command", command, "--in", path)
        assert code == 0 and rep["result"]["isometric"] is True


def test_a_one_slot_operator_map_is_dilated_as_itself_and_a_channel_as_its_dual(tmp_path):
    # amplitude damping is trace preserving, not unital, so it is not self-dual
    g = 0.3
    damping = ch.KrausSet((np.diag([1.0, np.sqrt(1 - g)]), np.array([[0.0, np.sqrt(g)], [0.0, 0.0]])))
    as_map = ch.channel_multimap(ch.choi_of(damping))
    map_path = write(tmp_path, "map.json", io.encode_multimap(as_map))
    channel_path = write(tmp_path, "channel.json", io.encode_channel(ch.choi_of(damping), "kraus", damping))
    code, rep = invoke(tmp_path, "--command", "minimal", "--in", map_path)
    assert code == 0
    back = ch.dilation_multimap(io.decode_multilinear_dilation(rep["result"]["dilation"]))
    assert np.allclose(back.action_matrix, as_map.action_matrix, rtol=0, atol=1e-12)
    code, rep = invoke(tmp_path, "--command", "minimal", "--in", channel_path)
    assert code == 0
    dual = ch.dilation_multimap(io.decode_multilinear_dilation(rep["result"]["dilation"]))
    assert np.allclose(dual.action_matrix, linalg.dagger(as_map.action_matrix), rtol=0, atol=1e-12)
    # V^dag V is the map at I: the damping map is not unital, its dual is
    assert invoke(tmp_path, "--command", "zigzag", "--in", map_path)[0] == 1
    assert invoke(tmp_path, "--command", "zigzag", "--in", channel_path)[0] == 0


def test_a_map_of_no_slots_is_dilated_and_has_no_n_adjoint(tmp_path):
    # the constant map () -> P with P = diag(1, 2): V^dag V = P on a carrier of rank P levels
    constant = ch.OperatorMultiMap((), 2, linalg.vec(np.diag([1.0, 2.0])).reshape(4, 1))
    path = write(tmp_path, "c.json", io.encode_multimap(constant))
    code, rep = invoke(tmp_path, "--command", "minimal", "--in", path)
    assert code == 0 and rep["result"]["carrier_dim"] == 2
    back = ch.dilation_multimap(io.decode_multilinear_dilation(rep["result"]["dilation"]))
    assert np.allclose(back.action_matrix, constant.action_matrix, rtol=0, atol=1e-12)
    code, rep = invoke(tmp_path, "--command", "zigzag", "--in", path)
    assert code == 1 and rep["result"]["isometry_defect"] == pytest.approx(1.0)
    # a dilation without representations: no slot to take the adjoint in
    bare = write(tmp_path, "bare.json", io.encode_multilinear_dilation(ch.MultilinearDilation((), np.eye(2))))
    for source in (path, bare):
        code, rep = invoke(tmp_path, "--command", "nadjoint", "--in", source)
        assert code == 2 and "at least one operator slot" in rep["error"]


@pytest.mark.parametrize("command", ["minimal", "zigzag", "nadjoint"])
def test_what_has_no_dilation_is_refused(tmp_path, command):
    # a map that is not CP fails as a non-CP channel does: exit 1, the Choi minimum
    hidden_transpose = ch.multimap_from_function(lambda a, b: np.trace(a) * b.T, (2, 2), 2)
    path = write(tmp_path, "t.json", io.encode_multimap(hidden_transpose))
    code, rep = invoke(tmp_path, "--command", command, "--in", path)
    assert code == 1
    assert rep["result"]["min_eigenvalue"] < -0.5 and "eigenvalue" in rep["result"]["error"]
    # a multilinear map on vectors is no operation on operators: exit 2
    vector_map = multilinear.MultilinearVectorMap((2, 2), 2, np.arange(8.0).reshape(2, 4))
    path = write(tmp_path, "v.json", io.encode_multilinear_map(vector_map))
    code, rep = invoke(tmp_path, "--command", command, "--in", path)
    assert code == 2 and "result" not in rep
    assert "expected a channel, Kraus set, or operator map" in rep["error"]


def test_zigzag_command(tmp_path):
    rng = np.random.default_rng(21)
    phi = sampling.random_channel(rng, 2, 2)
    path = write(tmp_path, "phi.json", io.encode_channel(phi))
    code, rep = invoke(tmp_path, "--command", "zigzag", "--in", path)
    assert code == 0
    assert rep["result"]["isometric"] is True


def feedback_obj(d_block):
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = np.array([[1.0, 2.0], [0.0, 1.0]])
    m[:2, 2:] = np.eye(2)
    m[2:, :2] = np.eye(2)
    m[2:, 2:] = d_block
    p = multilinear.FeedbackProblem(
        multilinear.MultilinearVectorMap((4,), 4, m), (2, 2), (2, 2)
    )
    return io.encode_feedback_problem(p)


def test_feedback_contractive_and_ill_posed(tmp_path):
    good = write(tmp_path, "good.json", feedback_obj(0.5 * np.eye(2)))
    code, rep = invoke(tmp_path, "--command", "feedback", "--in", good)
    assert code == 0
    assert rep["result"]["picard_deviation"] <= 1e-8
    bad = write(tmp_path, "bad.json", feedback_obj(np.eye(2)))
    code, rep = invoke(tmp_path, "--command", "feedback", "--in", bad)
    assert code == 1
    assert "singular" in rep["result"]["error"]


def test_term_eval(tmp_path):
    interp_obj = qubit_interp_obj()
    ipath = write(tmp_path, "interp.json", interp_obj)
    tpath = write(tmp_path, "term.json", {"op": "dep", "args": [{"slot": 0}]})
    code, rep = invoke(tmp_path, "--command", "term-eval", "--in", ipath, "--in", tpath)
    assert code == 0
    mm = io.decode_multimap(rep["result"]["multimap"])
    want = ch.channel_multimap(ch.depolarizing_channel(2, 0.5)).action_matrix
    assert linalg.frobenius(mm.action_matrix - want) < 1e-12


def test_operad_and_monad_law_commands(tmp_path):
    spec = operad.OperadSpec(
        (operad.OperadSymbol("f", 2), operad.OperadSymbol("g", 1))
    )
    path = write(tmp_path, "spec.json", io.encode_operad_spec(spec))
    code, rep = invoke(
        tmp_path, "--command", "operad-laws", "--in", path, "--seed", "0",
        "--tol", "trials=50",
    )
    assert code == 0 and rep["result"]["violations"] == []
    code, rep = invoke(
        tmp_path, "--command", "monad-laws", "--in", path, "--seed", "0",
        "--tol", "trials=20",
    )
    assert code == 0 and rep["result"]["violations"] == []


def test_algebra_laws_command(tmp_path):
    path = write(tmp_path, "interp.json", qubit_interp_obj())
    code, rep = invoke(
        tmp_path, "--command", "algebra-laws", "--in", path, "--seed", "1",
        "--tol", "trials=5",
    )
    assert code == 0
    assert rep["result"]["unit_max_deviation"] == 0.0
    assert rep["result"]["multiplication_max_residual"] <= 1e-10


def test_algebra_laws_report_matches_the_inline_loop(tmp_path):
    # the loop the command ran before the suite moved into monad
    path = write(tmp_path, "interp.json", qubit_interp_obj())
    code, rep = invoke(
        tmp_path, "--command", "algebra-laws", "--in", path, "--seed", "4",
        "--tol", "trials=6",
    )
    interp = io.decode_interpretation(qubit_interp_obj(), path)
    symbols = [interp.operad[name] for name in sorted(interp.assign)]
    rng = np.random.default_rng(4)
    unit_worst = mult_worst = 0.0
    for _ in range(6):
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        unit_val = monad.algebra_eval(interp, monad.unit(v))
        unit_worst = max(unit_worst, float(np.max(np.abs(unit_val - v))))
        x = monad.random_element(rng, symbols, dim=2, depth=2, term_depth=1)
        lhs = monad.algebra_eval(interp, monad.mu(x))
        rhs = monad.algebra_eval(interp, monad.t_map(lambda el: monad.algebra_eval(interp, el), x))
        mult_worst = max(mult_worst, float(linalg.frobenius(lhs - rhs)))
    passed = bool(unit_worst == 0.0 and mult_worst <= 1e-10)
    want = {
        "unit_max_deviation": unit_worst,
        "multiplication_max_residual": mult_worst,
        "trials": 6,
        "passed": passed,
    }
    assert code == 0 and passed
    assert io.canonical_json(rep["result"]) == io.canonical_json(want)


def test_homcheck_identity_passes(tmp_path):
    interp_obj = qubit_interp_obj()
    ia = write(tmp_path, "a.json", interp_obj)
    ib = write(tmp_path, "b.json", interp_obj)
    fmap = write(tmp_path, "f.json", io.encode_multimap(ch.identity_multimap(2)))
    code, rep = invoke(
        tmp_path, "--command", "homcheck", "--in", fmap, "--in", ia, "--in", ib,
        "--seed", "2", "--tol", "trials=10",
    )
    assert code == 0
    assert rep["result"]["witness"] is None


def test_homcheck_wrong_size_decoration_is_an_input_error(tmp_path):
    # with only a nullary symbol, odd trials draw a bare leaf, whose value
    # is its decoration: a 1 x 1 image of the carrier must still be refused
    prep = operad.OperadSymbol("prep", 0)
    interp = operad.Interpretation(
        operad.OperadSpec((prep,)),
        {"prep": ch.OperatorMultiMap((), 2, linalg.vec(np.eye(2) / 2).reshape(-1, 1))},
        carrier_dim=2,
    )
    ipath = write(tmp_path, "interp.json", io.encode_interpretation(interp))
    trace = write(tmp_path, "tr.json", io.encode_multimap(ch.OperatorMultiMap(
        (2,), 1, linalg.vec(np.eye(2)).reshape(1, -1)
    )))
    code, rep = invoke(
        tmp_path, "--command", "homcheck", "--in", trace, "--in", ipath, "--in", ipath,
        "--seed", "0", "--tol", "trials=2",
    )
    assert code == 2
    assert "result" not in rep


@pytest.mark.parametrize("trials", [1, 2, 3])
def test_homcheck_shape_mismatch_is_an_input_error_at_every_trial_count(tmp_path, trials):
    # F = trace (2 -> 1) against a nullary carrier-2 symbol: even the first,
    # corolla-only trial compares a 1 x 1 value with a 2 x 2 one
    prep = operad.OperadSymbol("prep", 0)
    interp = operad.Interpretation(
        operad.OperadSpec((prep,)),
        {"prep": ch.OperatorMultiMap((), 2, linalg.vec(np.eye(2) / 2).reshape(-1, 1))},
        carrier_dim=2,
    )
    ipath = write(tmp_path, "interp.json", io.encode_interpretation(interp))
    trace = write(tmp_path, "tr.json", io.encode_multimap(ch.OperatorMultiMap(
        (2,), 1, linalg.vec(np.eye(2)).reshape(1, -1)
    )))
    code, rep = invoke(
        tmp_path, "--command", "homcheck", "--in", trace, "--in", ipath, "--in", ipath,
        "--seed", "0", "--tol", f"trials={trials}",
    )
    assert code == 2
    assert "result" not in rep
    assert "(1, 1)" in rep["error"] and "(2, 2)" in rep["error"]


def test_opequiv_separates_channels(tmp_path):
    interp_path = write(tmp_path, "interp.json", qubit_interp_obj())
    ident = write(tmp_path, "id.json", io.encode_channel(ch.identity_channel(2)))
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    flip = write(
        tmp_path, "flip.json", io.encode_channel(ch.choi_of(ch.KrausSet((x,))))
    )
    code, rep = invoke(
        tmp_path, "--command", "opequiv", "--in", ident, "--in", ident,
        "--in", interp_path, "--seed", "3",
    )
    assert code == 0 and rep["result"]["equivalent"] is True
    code, rep = invoke(
        tmp_path, "--command", "opequiv", "--in", ident, "--in", flip,
        "--in", interp_path, "--seed", "3",
    )
    assert code == 1
    assert rep["result"]["witness"] is not None
    assert "op" in rep["result"]["witness"]["term"] or "slot" in rep["result"]["witness"]["term"]


def test_opequiv_and_homcheck_results_are_the_same_for_every_seed_and_for_none(tmp_path):
    # identity against full dephasing under one dephasing symbol: the two
    # agree on every value of the symbol, not on the unit term's values
    dephase = ch.choi_of(ch.KrausSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))))
    interp = operad.Interpretation(
        operad.OperadSpec((operad.OperadSymbol("dephase", 1),)), {"dephase": dephase}, carrier_dim=2
    )
    ipath = write(tmp_path, "interp.json", io.encode_interpretation(interp))
    ident = write(tmp_path, "id.json", io.encode_channel(ch.identity_channel(2)))
    deph = write(tmp_path, "deph.json", io.encode_channel(dephase))
    seeds = [[]] + [["--seed", str(s)] for s in range(5)]
    runs = [
        invoke(tmp_path, "--command", "opequiv", "--in", ident, "--in", deph, "--in", ipath,
               "--tol", "trials=1", *seed)
        for seed in seeds
    ]
    for code, rep in runs:
        assert code == 1
        assert rep["result"] == runs[0][1]["result"]
    result = runs[0][1]["result"]
    assert result["equivalent"] is False and result["range_residual"] <= 1e-12
    assert set(result) == {"equivalent", "max_residual", "range_residual", "tol", "witness"}
    assert result["witness"]["term"] == {"slot": 0}
    runs = [
        invoke(tmp_path, "--command", "homcheck", "--in", ident, "--in", ipath, "--in", ipath, *seed)
        for seed in seeds
    ]
    for code, rep in runs:
        assert code == 0
        assert rep["result"] == {"max_residual": 0.0, "passed": True, "tol": 1e-10, "witness": None}


def _unseeded_cases():
    """Inputs for each command: the schema fuzzer's fixtures where it has
    one, small artifacts for the rest of the commands outside cli.SEEDED."""
    cases = {command: (extra, inputs) for command, extra, inputs, _ in FUZZ_FIXTURES}
    term = {"op": "pair", "args": [{"slot": 0}]}
    cases.update({
        "choi": ([], [_choi_obj()]),
        "kraus": ([], [_choi_obj()]),
        "dilate": ([], [_choi_obj()]),
        "minimal": ([], [_dilation_obj()]),
        "intertwine": ([], [_dilation_obj(), _dilation_obj()]),
        "nadjoint": ([], [_dilation_obj()]),
        "homcheck": ([], [io.encode_multimap(ch.identity_multimap(2)), qubit_interp_obj(), qubit_interp_obj()]),
        "opequiv": ([], [_choi_obj(), io.encode_channel(ch.depolarizing_channel(2, 0.5)), qubit_interp_obj()]),
        "circuit-realize": ([], [_choi_obj()]),
        "quotient": ([], [qubit_interp_obj(), _ideal_obj(), {"op": "dep", "args": [{"slot": 0}]}]),
        "nogo-broadcast": ([], []),
        "clone-match": ([], [pair_interp_obj(), term]),
    })
    return cases


@pytest.mark.parametrize("command", sorted(set(cli.REGISTRY) - cli.SEEDED))
def test_commands_outside_seeded_give_one_result_for_every_seed_and_for_none(tmp_path, command):
    extra, inputs = _unseeded_cases()[command]
    argv = ["--command", command, *extra]
    for i, obj in enumerate(inputs):
        argv += ["--in", write(tmp_path, f"in{i}.json", obj)]
    runs = [invoke(tmp_path, *argv, *seed) for seed in ([], ["--seed", "0"], ["--seed", "1"])]
    for code, rep in runs:
        assert code == runs[0][0]
        assert rep.get("result") == runs[0][1].get("result")
        assert rep.get("error") == runs[0][1].get("error")
    assert runs[0][0] in (0, 1), runs[0][1].get("error")


@pytest.mark.parametrize("artifact", [
    {"in_dim": 0, "out_dim": 2, "repr": "choi", "data": {"rows": 0, "cols": 0, "data": []}},
    {"input_dims": [0, 2], "output_dim": 2, "action": {"rows": 4, "cols": 0, "data": []}},
    {"input_dims": [2, 2], "output_dim": 0, "action": {"rows": 0, "cols": 16, "data": []}},
])
def test_zero_dimension_is_an_input_error(tmp_path, artifact):
    path = write(tmp_path, "zero.json", artifact)
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", path)
    assert code == 2
    assert "result" not in rep
    assert "must be at least 1" in rep["error"]


def test_opequiv_refuses_a_channel_off_the_carrier(tmp_path):
    interp_path = write(tmp_path, "interp.json", qubit_interp_obj())
    qutrit = write(tmp_path, "id3.json", io.encode_channel(ch.identity_channel(3)))
    code, rep = invoke(
        tmp_path, "--command", "opequiv", "--in", qutrit, "--in", qutrit,
        "--in", interp_path, "--seed", "3",
    )
    assert code == 2
    assert rep["error"] == "channel input dim 3 does not match the carrier dim 2"


def test_circuit_realize(tmp_path):
    rng = np.random.default_rng(23)
    phi = sampling.random_channel(rng, 2, 2)
    path = write(tmp_path, "phi.json", io.encode_channel(phi))
    code, rep = invoke(tmp_path, "--command", "circuit-realize", "--in", path)
    assert code == 0
    assert rep["result"]["reconstruction_error"] <= 1e-9
    names = [b["op"] for b in rep["result"]["circuit"]["boxes"]]
    assert names == ["prep_env", "joint_unitary", "trace_env"]


def test_ideal_member_exit_codes(tmp_path):
    ideal = write(
        tmp_path, "ideal.json",
        io.encode_ideal_spec(ideals.IdealSpec("noniso", "non-isometric")),
    )
    dep = write(tmp_path, "dep.json", io.encode_channel(ch.depolarizing_channel(2, 0.5)))
    code, rep = invoke(tmp_path, "--command", "ideal-member", "--in", ideal, "--in", dep)
    assert code == 0 and rep["result"]["member"] is True
    ident = write(tmp_path, "id.json", io.encode_channel(ch.identity_channel(2)))
    code, rep = invoke(tmp_path, "--command", "ideal-member", "--in", ideal, "--in", ident)
    assert code == 1 and rep["result"]["member"] is False


def test_ideal_closure_with_pool_file(tmp_path):
    rng = np.random.default_rng(25)
    ideal = write(
        tmp_path, "ideal.json",
        io.encode_ideal_spec(ideals.IdealSpec("noniso", "non-isometric")),
    )
    pool = write(
        tmp_path, "pool.json",
        {"pool": [io.encode_channel(sampling.random_channel(rng, 2, 2)) for _ in range(4)]},
    )
    code, rep = invoke(
        tmp_path, "--command", "ideal-closure", "--in", ideal, "--in", pool,
        "--seed", "4", "--tol", "trials=60",
    )
    assert code == 0
    assert rep["result"]["checks"] > 0
    assert rep["result"]["violations"] == []


def test_quotient_command(tmp_path):
    ipath = write(tmp_path, "interp.json", qubit_interp_obj())
    ideal = write(
        tmp_path, "ideal.json",
        io.encode_ideal_spec(ideals.IdealSpec("noniso", "non-isometric")),
    )
    term = write(
        tmp_path, "term.json", {"op": "u", "args": [{"op": "dep", "args": [{"slot": 0}]}]}
    )
    code, rep = invoke(
        tmp_path, "--command", "quotient", "--in", ipath, "--in", ideal, "--in", term
    )
    assert code == 0
    assert rep["result"]["collapsed"] is True
    assert rep["result"]["term"]["op"].startswith("bottom[")


def test_nogo_broadcast_pinned_value(tmp_path):
    code, rep = invoke(tmp_path, "--command", "nogo-broadcast", "--seed", "6")
    assert code == 0
    assert rep["result"]["min_residual"] == pytest.approx(0.46924720288128363, abs=1e-9)


def test_clone_match_verdicts(tmp_path):
    ipath = write(tmp_path, "interp.json", qubit_interp_obj())
    term = write(tmp_path, "term.json", {"op": "dep", "args": [{"slot": 0}]})
    code, rep = invoke(
        tmp_path, "--command", "clone-match", "--in", ipath, "--in", term, "--seed", "0"
    )
    assert code == 2  # wrong signature is an input error, not a verdict


def pair_interp_obj():
    """One symbol of cloning signature (2; 4), x -> x (x) |0><0|."""
    spec = operad.OperadSpec((operad.OperadSymbol("pair", 1, ((2,), 4)),))
    prep = np.zeros((2, 2), dtype=complex)
    prep[0, 0] = 1.0
    interp = operad.Interpretation(
        spec,
        {"pair": ch.multimap_from_function(lambda x: np.kron(x, prep), (2,), 4)},
    )
    return io.encode_interpretation(interp)


def test_clone_match_pair_candidate(tmp_path):
    ipath = write(tmp_path, "interp.json", pair_interp_obj())
    term = write(tmp_path, "term.json", {"op": "pair", "args": [{"slot": 0}]})
    code, rep = invoke(
        tmp_path, "--command", "clone-match", "--in", ipath, "--in", term, "--seed", "0"
    )
    assert code == 1
    assert rep["result"]["matches"] is False
    assert rep["result"]["witness"] is not None


def test_reports_are_byte_identical(tmp_path):
    out_1 = tmp_path / "r1.json"
    out_2 = tmp_path / "r2.json"
    argv = ["--command", "nogo-broadcast", "--seed", "9", "--tol", "samples=4"]
    assert cli.main(argv + ["--out", str(out_1)]) == 0
    assert cli.main(argv + ["--out", str(out_2)]) == 0
    assert out_1.read_bytes() == out_2.read_bytes()


def test_unknown_tolerance_is_an_input_error(tmp_path):
    path = write(tmp_path, "id.json", io.encode_channel(ch.identity_channel(2)))
    code, rep = invoke(
        tmp_path, "--command", "check-cp", "--in", path, "--tol", "bogus=1"
    )
    assert code == 2
    assert "bogus" in rep["error"]


def test_wrong_input_count_is_an_input_error(tmp_path):
    code, rep = invoke(tmp_path, "--command", "check-cp")
    assert code == 2
    assert "exactly 1" in rep["error"]


def test_parse_error_names_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  broken\n}\n")
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", str(path))
    assert code == 2
    assert "line 2" in rep["error"]


def test_missing_file_is_an_input_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", missing)
    assert code == 2
    assert rep["error"] == f"{missing}: file not found"


def test_unreadable_input_is_an_input_error(tmp_path):
    # a directory where an artifact should be: exit 2 and a report naming it
    folder = tmp_path / "artifacts"
    folder.mkdir()
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", str(folder))
    assert code == 2
    assert rep["error"].startswith(f"{folder}: cannot read (")


def test_schema_violation_names_field(tmp_path):
    path = write(tmp_path, "bad.json", {"in_dim": 2, "out_dim": 2, "repr": "choi"})
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", path)
    assert code == 2
    assert "data" in rep["error"]


def test_non_finite_entry_is_an_input_error(tmp_path):
    obj = io.encode_channel(ch.identity_channel(2))
    obj["data"]["data"][1] = [float("nan"), 0.0]
    path = write(tmp_path, "nan.json", obj)
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", path)
    assert code == 2
    assert "finite" in rep["error"]
    assert "result" not in rep


@pytest.mark.parametrize("field", [("data", "data", 0, 0), ("in_dim",)])
def test_integer_outside_the_float_range_is_an_input_error(tmp_path, field):
    # JSON integers are exact, so 10**400 parses; as an entry or a dim it is refused
    obj = _with(io.encode_channel(ch.identity_channel(1)), field, 10**400)
    path = write(tmp_path, "huge.json", obj)
    code, rep = invoke(tmp_path, "--command", "check-cp", "--in", path)
    assert code == 2 and "result" not in rep
    ctx = f"{path}.data" if field[0] == "data" else f"{path}.in_dim"
    assert rep["error"].startswith(f"{ctx}: ") and "outside the float range" in rep["error"]


def test_unwritable_report_path_exits_2_with_the_reason_on_stderr(tmp_path, capsys):
    # a directory as --out: the report has nowhere to go, so the reason goes to stderr
    code = cli.main(["--command", "nogo-broadcast", "--seed", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"operaq: cannot write report to {tmp_path}: ")
    assert "Traceback" not in err


def test_broadcast_witness_dimension_one_is_an_input_error(tmp_path):
    code, rep = invoke(tmp_path, "--command", "nogo-broadcast", "--seed", "0", "--tol", "d=1")
    assert code == 2
    assert "d >= 2" in rep["error"]


def _refuse_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


@pytest.mark.parametrize(
    "command, pair, words",
    [
        ("nogo-broadcast", "samples=inf", "non-finite"),
        ("nogo-broadcast", "d=inf", "non-finite"),
        ("nogo-broadcast", "d=nan", "non-finite"),
        ("nogo-broadcast", "positive=-inf", "non-finite"),
        ("nogo-broadcast", "d=2.5", "non-negative integer"),
        ("nogo-broadcast", "samples=-1", "non-negative integer"),
        ("ideal-closure", "trials=1e400", "non-finite"),
        ("feedback", "steps=0.5", "non-negative integer"),
        ("monad-laws", "dim=-2", "non-negative integer"),
        ("check-cp", "eig=nan", "non-finite"),
    ],
)
def test_unusable_tolerance_is_an_input_error(tmp_path, command, pair, words):
    out = tmp_path / "report.json"
    code = cli.main(["--command", command, "--seed", "0", "--tol", pair, "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert words in rep["error"]
    assert pair.partition("=")[0] in rep["error"]
    assert rep["config"]["tolerances"] is None
    assert "result" not in rep


def test_whole_valued_counts_are_accepted_as_given(tmp_path):
    code, rep = invoke(
        tmp_path, "--command", "nogo-broadcast", "--seed", "0", "--tol", "d=3.0", "--tol", "samples=0"
    )
    assert code == 0
    assert rep["config"]["tolerances"] == {"d": 3.0, "positive": 1e-06, "samples": 0.0}
    assert rep["result"]["d"] == 3
    assert rep["result"]["validation_residual"] == 0.0


def test_deeply_nested_term_is_an_input_error(tmp_path):
    ipath = write(tmp_path, "interp.json", qubit_interp_obj())
    tpath = tmp_path / "deep.json"
    tpath.write_text('{"op":"dep","args":[' * 600 + '{"slot":0}' + "]}" * 600)
    code, rep = invoke(tmp_path, "--command", "term-eval", "--in", ipath, "--in", str(tpath))
    assert code == 2
    assert "nested too deeply" in rep["error"]
    assert "result" not in rep


def test_readme_command_table_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        m = re.match(r"\| `([a-z-]+)`(\*?) \|", line)
        if m:
            knobs = line.strip().strip("|").split("|")[-1]
            rows[m.group(1)] = (
                bool(m.group(2)),
                {k: float(v) for k, v in re.findall(r"`(\w+)=([^`]+)`", knobs)},
            )
    assert set(rows) == set(cli.REGISTRY)
    assert {name for name, (seeded, _) in rows.items() if seeded} == cli.SEEDED
    for name, (_, knobs) in rows.items():
        assert knobs == cli.REGISTRY[name].defaults(), name


def test_cli_import_loads_only_numpy_beyond_the_standard_library():
    # every command pays the import, so a heavy dependency shows as set-up time
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import operaq.cli\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    src = str(Path(operaq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(json.loads(out.stdout))
    assert "operaq" in loaded
    assert loaded - set(sys.stdlib_module_names) <= {"numpy", "operaq"}


def _choi_obj():
    return io.encode_channel(ch.identity_channel(2))


DELETE = object()


def _with(obj, path, value):
    """A copy of the artifact obj with the field at path (a key list) set,
    or removed when value is DELETE."""
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return obj


def _spec_obj():
    return {"generators": [{"name": "f", "arity": 1}]}


def _ideal_obj(**fields):
    return {"name": "noniso", "predicate": "non-isometric", **fields}


def _dilation_obj():
    rng = np.random.default_rng(3)
    return io.encode_multilinear_dilation(sampling.random_separable_dilation(rng, (2,), 2, (1,)))


# each artifact is valid JSON whose fields have the wrong JSON type
_MIX01 = {"op": "mix", "args": [{"slot": 0}, {"slot": 1}]}

MALFORMED = {
    "matrix-data-int": ("check-cp", lambda: [_with(_choi_obj(), ["data", "data"], 5)]),
    "matrix-rows-null": ("check-cp", lambda: [_with(_choi_obj(), ["data", "rows"], None)]),
    "dim-fractional": ("check-tp", lambda: [_with(_with(_choi_obj(), ["in_dim"], 2.7), ["out_dim"], 2.2)]),
    "dim-string": ("check-tp", lambda: [_with(_choi_obj(), ["in_dim"], "2")]),
    "generator-not-object": ("operad-laws", lambda: [{"generators": [5]}]),
    "signature-int": (
        "operad-laws",
        lambda: [_with(_spec_obj(), ["generators", 0, "signature"], 3)],
    ),
    "assign-list": ("term-eval", lambda: [_with(qubit_interp_obj(), ["assign"], []), {"slot": 0}]),
    "kraus-data-int": ("check-cp", lambda: [{"in_dim": 2, "out_dim": 2, "repr": "kraus", "data": 5}]),
    "pool-int": ("ideal-closure", lambda: [_ideal_obj(), {"pool": 5}]),
    "members-int": ("ideal-member", lambda: [_ideal_obj(members=5), _choi_obj()]),
    "term-args-int": ("term-eval", lambda: [qubit_interp_obj(), {"op": "dep", "args": 5}]),
    "slot-list": ("term-eval", lambda: [qubit_interp_obj(), {"slot": [0]}]),
    "perm-int": ("term-eval", lambda: [qubit_interp_obj(), {"perm": 5, "of": {"slot": 0}}]),
    "perm-too-long": ("term-eval", lambda: [qubit_interp_obj(), {"perm": [1, 0, 2], "of": _MIX01}]),
    "perm-too-short": ("term-eval", lambda: [qubit_interp_obj(), {"perm": [0], "of": _MIX01}]),
    "perm-empty-over-leaf": ("term-eval", lambda: [qubit_interp_obj(), {"perm": [], "of": {"slot": 0}}]),
    "input-dims-int": (
        "check-cp",
        lambda: [_with(io.encode_multimap(ch.identity_multimap(2)), ["input_dims"], 2)],
    ),
    "reps-int": ("minimal", lambda: [_with(_dilation_obj(), ["reps"], 5)]),
    "field-list": (
        "adjoint",
        lambda: [{**io.encode_multilinear_map(multilinear.MultilinearVectorMap((2,), 2, np.eye(2))), "field": ["real"]}],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_mistyped_field_is_an_input_error_with_a_report(tmp_path, capsys, case):
    command, build = MALFORMED[case]
    argv = ["--command", command, "--seed", "0"]
    for i, obj in enumerate(build()):
        argv += ["--in", write(tmp_path, f"in{i}.json", obj)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 2
    rep = json.loads(out)
    assert rep["error"] and "result" not in rep
    assert "expected" in rep["error"]


# each artifact holds a JSON value of the wrong type that a decoder could
# coerce: true as the whole number 1, the string "false" as a true flag, a
# number as a name
COERCIBLE = {
    "dim-true": (
        "check-tp",
        lambda: [{
            "in_dim": True, "out_dim": True, "repr": "choi",
            "data": {"rows": True, "cols": True, "data": [[1.0, 0.0]]},
        }],
        ".in_dim",
    ),
    "arity-true": ("operad-laws", lambda: [{"generators": [{"name": "f", "arity": True}]}], ".arity"),
    "slot-false": ("term-eval", lambda: [qubit_interp_obj(), {"op": "dep", "args": [{"slot": False}]}], ".slot"),
    "formal-string": (
        "term-eval",
        lambda: [
            _with(qubit_interp_obj(), ["operad", "generators", 0, "formal"], "false"),
            {"op": "dep", "args": [{"slot": 0}]},
        ],
        ".formal",
    ),
    "generator-name-int": ("operad-laws", lambda: [{"generators": [{"name": 7, "arity": 1}]}], ".name"),
    "ideal-name-int": ("ideal-member", lambda: [_ideal_obj(name=7), _choi_obj()], ".name"),
    "predicate-int": ("ideal-member", lambda: [_ideal_obj(predicate=7), _choi_obj()], ".predicate"),
}


@pytest.mark.parametrize("case", sorted(COERCIBLE))
def test_coercible_field_is_an_input_error_naming_it(tmp_path, case):
    command, build, field = COERCIBLE[case]
    argv = ["--command", command, "--seed", "0"]
    for i, obj in enumerate(build()):
        argv += ["--in", write(tmp_path, f"in{i}.json", obj)]
    code, rep = invoke(tmp_path, *argv)
    assert code == 2 and "result" not in rep
    assert f"{field}: expected" in rep["error"]


def _fuzz_fixtures():
    """One small artifact of each kind: (command, extra argv, inputs, the
    decoding the command does before it computes)."""
    dep = ch.depolarizing_channel(2, 0.5)
    bilinear = ch.multimap_from_function(lambda a, b: np.trace(b) * a, (2, 2), 2)
    vector_map = multilinear.MultilinearVectorMap((2, 2), 2, np.arange(8.0).reshape(2, 4))
    spec = {"generators": [
        {"name": "f", "arity": 2, "signature": [[2, 2], 2], "formal": False},
        {"name": "g", "arity": 1},
    ]}
    term = {"perm": [1, 0], "of": {"op": "mix", "args": [{"slot": 0}, {"op": "dep", "args": [{"slot": 1}]}]}}
    cert = {"name": "cert", "predicate": "certificate-list", "members": [io.encode_channel(dep)], "non_members": []}
    pool = {"pool": [io.encode_channel(dep), io.encode_multimap(ch.identity_multimap(2))]}

    def term_decode(objs):
        io.decode_term(objs[1], io.decode_interpretation(objs[0]).operad)

    return [
        ("check-tp", [], [_choi_obj()], lambda objs: io.decode_operation(objs[0])),
        ("check-cp", [], [io.encode_channel(dep, "kraus")], lambda objs: io.decode_operation(objs[0])),
        ("check-tp", [], [{"operators": [io.encode_matrix(np.eye(2))]}], lambda objs: io.decode_operation(objs[0])),
        ("check-cp", [], [io.encode_multimap(bilinear)], lambda objs: io.decode_operation(objs[0])),
        ("adjoint", [], [io.encode_multilinear_map(vector_map)], lambda objs: io.decode_multilinear_map(objs[0])),
        ("zigzag", [], [_dilation_obj()], lambda objs: io.decode_multilinear_dilation(objs[0])),
        ("feedback", [], [feedback_obj(0.5 * np.eye(2))], lambda objs: io.decode_feedback_problem(objs[0])),
        ("operad-laws", ["--tol", "trials=2"], [spec], lambda objs: io.decode_operad_spec(objs[0])),
        ("term-eval", [], [qubit_interp_obj(), term], term_decode),
        ("ideal-member", [], [cert, io.encode_channel(dep)],
         lambda objs: (io.decode_ideal_spec(objs[0]), io.decode_operation(objs[1]))),
        ("ideal-closure", ["--tol", "trials=3"], [_ideal_obj(), pool],
         lambda objs: (io.decode_ideal_spec(objs[0]), io.decode_pool(objs[1]))),
    ]


FUZZ_FIXTURES = _fuzz_fixtures()

# one value of each JSON type, kept small: a replaced dim or arity must not
# ask for a large allocation or a long loop; the one large value, an integer
# outside the float range, is refused wherever it stands
REPLACEMENTS = (None, True, False, 0, -1, 3, 2.5, "", "x", [], [0], {}, {"x": 1}, 10**400)


def _field_paths(obj, at=()):
    """The key path of every object field and of the first and last entry
    of every list inside a JSON value."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = [(i, obj[i]) for i in sorted({0, len(obj) - 1})] if obj else []
    else:
        items = []
    for key, value in items:
        yield at + (key,)
        yield from _field_paths(value, at + (key,))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_artifact_gets_a_report_and_exit_2_when_undecodable(tmp_path, data):
    command, extra, inputs, decode = data.draw(st.sampled_from(FUZZ_FIXTURES))
    k = data.draw(st.integers(0, len(inputs) - 1))
    path = data.draw(st.sampled_from([()] + list(_field_paths(inputs[k]))))
    value = data.draw(st.sampled_from(((DELETE,) if path else ()) + REPLACEMENTS))
    objs = list(inputs)
    # wrapped in a one-entry list, the empty path replaces the whole artifact
    objs[k] = _with([inputs[k]], (0, *path), value)[0]
    argv = ["--command", command, "--seed", "0", *extra]
    for i, obj in enumerate(objs):
        argv += ["--in", write(tmp_path, f"in{i}.json", obj)]
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--out", str(out)])
    rep = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert code in (0, 1, 2) and rep["command"] == command
    try:
        decode(objs)
    except (operaq.errors.OperaqError, ValueError):
        assert code == 2 and "error" in rep and "result" not in rep
