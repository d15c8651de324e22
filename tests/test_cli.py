import json

import numpy as np
import pytest

from operaq import channels as ch
from operaq import cli, ideals, io, linalg, monad, multilinear, operad, sampling


def write(tmp_path, name, obj):
    path = tmp_path / name
    io.save_json(obj, str(path))
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
    assert rep["result"]["kraus_rank"] >= 1
    back = io.decode_channel(rep["result"]["channel"])
    assert linalg.frobenius(back.choi - phi.choi) < 1e-10


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


def test_nadjoint_requires_seed_and_passes(tmp_path):
    rng = np.random.default_rng(19)
    phi = sampling.random_channel(rng, 2, 2)
    path = write(tmp_path, "phi.json", io.encode_channel(phi))
    code, rep = invoke(tmp_path, "--command", "nadjoint", "--in", path)
    assert code == 2
    assert "--seed" in rep["error"]
    code, rep = invoke(tmp_path, "--command", "nadjoint", "--in", path, "--seed", "3")
    assert code == 0
    assert rep["result"]["pairing_residual"] <= 1e-8


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
    want = ch.superop_of(ch.depolarizing_channel(2, 0.5))
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


def test_clone_match_pair_candidate(tmp_path):
    spec = operad.OperadSpec((operad.OperadSymbol("pair", 1, ((2,), 4)),))
    prep = np.zeros((2, 2), dtype=complex)
    prep[0, 0] = 1.0
    interp = operad.Interpretation(
        spec,
        {"pair": ch.multimap_from_function(lambda x: np.kron(x, prep), (2,), 4)},
    )
    ipath = write(tmp_path, "interp.json", io.encode_interpretation(interp))
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
    code, rep = invoke(
        tmp_path, "--command", "check-cp", "--in", str(tmp_path / "nope.json")
    )
    assert code == 2
    assert "not found" in rep["error"]


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


def test_broadcast_witness_dimension_one_is_an_input_error(tmp_path):
    code, rep = invoke(tmp_path, "--command", "nogo-broadcast", "--seed", "0", "--tol", "d=1")
    assert code == 2
    assert "d >= 2" in rep["error"]
