import numpy as np
import pytest

from operaq import channels as ch
from operaq import ideals, io, linalg, multilinear, operad, sampling
from operaq.errors import SchemaError


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    back = io.decode_matrix(io.encode_matrix(m))
    assert np.array_equal(back, m)


def test_matrix_rejects_wrong_length():
    bad = {"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}
    with pytest.raises(SchemaError, match="data"):
        io.decode_matrix(bad)


def test_matrix_rejects_missing_field():
    with pytest.raises(SchemaError, match="rows"):
        io.decode_matrix({"cols": 2, "data": []})


def test_tensor_roundtrip():
    t = np.arange(24, dtype=complex).reshape(2, 3, 4)
    assert np.array_equal(io.decode_tensor(io.encode_tensor(t)), t)


def test_multimap_roundtrip():
    mm = ch.multimap_from_function(lambda a, b: np.trace(b) * a, (2, 3), 2)
    back = io.decode_multimap(io.encode_multimap(mm))
    assert back.input_operator_dims == mm.input_operator_dims
    assert back.output_operator_dim == mm.output_operator_dim
    assert np.array_equal(back.action_matrix, mm.action_matrix)


def test_channel_choi_and_kraus_roundtrip():
    rng = np.random.default_rng(1)
    phi = sampling.random_channel(rng, 3, 2)
    by_choi = io.decode_channel(io.encode_channel(phi, "choi"))
    assert np.array_equal(by_choi.choi, phi.choi)
    by_kraus = io.decode_channel(io.encode_channel(phi, "kraus"))
    assert linalg.frobenius(by_kraus.choi - phi.choi) < 1e-12


def test_channel_rejects_inconsistent_kraus_dims():
    obj = io.encode_channel(ch.identity_channel(2), "kraus")
    obj["in_dim"] = 3
    with pytest.raises(SchemaError, match="Kraus"):
        io.decode_channel(obj)


def test_operation_sniffing():
    assert isinstance(
        io.decode_operation(io.encode_multimap(ch.identity_multimap(2))),
        ch.OperatorMultiMap,
    )
    assert isinstance(
        io.decode_operation(io.encode_channel(ch.identity_channel(2))),
        ch.QuantumChannel,
    )
    ks = {"operators": [io.encode_matrix(np.eye(2))]}
    assert isinstance(io.decode_operation(ks), ch.KrausSet)
    # a multilinear map on vectors is no operation on operators
    phi = multilinear.MultilinearVectorMap((2,), 2, np.eye(2, dtype=complex))
    for obj in (io.encode_multilinear_map(phi), {"stuff": 1}):
        with pytest.raises(SchemaError, match="not a known operation: expected a channel, Kraus set, or operator map"):
            io.decode_operation(obj)


def test_dilation_roundtrips():
    rng = np.random.default_rng(2)
    phi = sampling.random_channel(rng, 2, 2)
    dil = ch.heisenberg_dilation(ch.kraus_from_choi(phi))
    back = io.decode_multilinear_dilation(io.encode_multilinear_dilation(dil))
    assert back.factor_dims == dil.factor_dims
    a = ch.dilation_multimap(dil).action_matrix
    b = ch.dilation_multimap(back).action_matrix
    assert np.array_equal(a, b)


def test_term_roundtrip_and_unknown_symbol():
    f = operad.OperadSymbol("f", 2)
    g = operad.OperadSymbol("g", 1)
    spec = operad.OperadSpec((f, g))
    t = operad.Permuted(
        (1, 0), operad.Apply(f, (operad.Apply(g, (operad.Leaf(0),)), operad.Leaf(1)))
    )
    back = io.decode_term(io.encode_term(t), spec)
    assert operad.terms_equal(back, t)
    with pytest.raises(SchemaError, match="mystery"):
        io.decode_term({"op": "mystery", "args": []}, spec)


def test_operad_spec_roundtrip():
    spec = operad.OperadSpec(
        (
            operad.OperadSymbol("f", 2, ((2, 2), 2)),
            operad.OperadSymbol("clone", 1, ((2,), 4), formal=True),
        )
    )
    back = io.decode_operad_spec(io.encode_operad_spec(spec))
    assert back.symbols == spec.symbols


def test_interpretation_roundtrip():
    spec = operad.OperadSpec((operad.OperadSymbol("dep", 1),))
    interp = operad.Interpretation(
        spec, {"dep": ch.depolarizing_channel(2, 0.5)}, carrier_dim=2
    )
    back = io.decode_interpretation(io.encode_interpretation(interp))
    assert back.carrier_dim == 2
    assert np.allclose(
        back.assign["dep"].action_matrix, interp.assign["dep"].action_matrix
    )


def test_ideal_spec_roundtrip_and_bad_predicate():
    spec = ideals.IdealSpec(
        "cert",
        "certificate-list",
        members=(ch.depolarizing_channel(2, 0.5),),
        non_members=(ch.identity_channel(2),),
    )
    back = io.decode_ideal_spec(io.encode_ideal_spec(spec))
    assert back.name == "cert"
    assert len(back.members) == 1 and len(back.non_members) == 1
    assert ideals.is_member(back, ch.depolarizing_channel(2, 0.5))["member"]
    with pytest.raises(SchemaError, match="predicate"):
        io.decode_ideal_spec({"name": "x", "predicate": "sometimes"})


def test_feedback_problem_roundtrip():
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = np.eye(2)
    m[2:, 2:] = 0.5 * np.eye(2)
    p = multilinear.FeedbackProblem(
        multilinear.MultilinearVectorMap((4,), 4, m), (2, 2), (2, 2)
    )
    back = io.decode_feedback_problem(io.encode_feedback_problem(p))
    assert back.input_split == (2, 2)
    assert np.array_equal(back.map.matrix, p.map.matrix)
    with pytest.raises(SchemaError, match="summands"):
        io.decode_feedback_problem(
            {"map": io.encode_multilinear_map(p.map), "input_split": [4], "output_split": [4]}
        )


def test_canonical_json_is_order_insensitive():
    a = io.canonical_json({"b": 1, "a": [1.5, {"y": 2, "x": 3}]})
    b = io.canonical_json({"a": [1.5, {"x": 3, "y": 2}], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_jsonable_handles_numpy_scalars_and_arrays():
    out = io.jsonable(
        {
            "i": np.int64(3),
            "f": np.float64(0.5),
            "z": np.complex128(1 + 2j),
            "b": np.bool_(True),
            "m": np.eye(2),
        }
    )
    assert out["i"] == 3 and out["f"] == 0.5 and out["z"] == [1.0, 2.0]
    assert out["b"] is True
    assert out["m"]["rows"] == 2


def test_load_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"a": 1,\n  "b": }\n')
    with pytest.raises(SchemaError, match="line 2"):
        io.load_json(str(path))
