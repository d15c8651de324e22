"""JSON artifacts for every object the batch frontend moves around.

One versioned format, tagged "operaq/1" at the report level.  Complex
numbers are [re, im] pairs, matrices are row-major with explicit shape,
symbols travel by name and are resolved against an operad spec on decode.
Encoding is canonical (sorted keys, fixed separators, no timestamps) so
equal inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from . import channels, ideals, multilinear, operad
from .errors import SchemaError

SCHEMA = "operaq/1"


def _pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _unpair(entry, ctx: str) -> complex:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise SchemaError(f"{ctx}: complex entries are [re, im] pairs")
    try:
        return complex(float(entry[0]), float(entry[1]))
    except (TypeError, ValueError):
        raise SchemaError(f"{ctx}: non-numeric complex entry") from None
    except OverflowError:
        raise SchemaError(f"{ctx}: complex entry outside the float range") from None


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", bool: "a boolean"}
_REQUIRED = object()


def _typed(value, ctx: str, kind):
    """value refused unless it has the JSON type kind (None: any); int means
    a whole number, 2.0 included, and never true or false.  Like every
    JSON number, it must fit a float."""
    if kind is int and not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        if abs(value) > sys.float_info.max:
            raise SchemaError(f"{ctx}: integer outside the float range")
        return int(value)
    if kind is None or kind is not int and isinstance(value, kind):
        return value
    raise SchemaError(f"{ctx}: expected {_KINDS[kind]}")


def _ints(value, ctx: str) -> tuple:
    return tuple(_typed(v, f"{ctx}[{i}]", int) for i, v in enumerate(_typed(value, ctx, list)))


def _need(obj, key: str, ctx: str, kind=None, default=_REQUIRED):
    """obj[key] of the JSON type kind; a field with a default may be absent
    or null."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx}: expected an object")
    if default is not _REQUIRED and obj.get(key) is None:
        return default
    if key not in obj:
        raise SchemaError(f"{ctx}: missing field {key!r}")
    return _typed(obj[key], f"{ctx}.{key}", kind)


# ---------------------------------------------------------------------------
# arrays


def encode_matrix(m) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    r, c = m.shape
    return {"rows": int(r), "cols": int(c), "data": [_pair(z) for z in m.ravel()]}


def decode_matrix(obj, ctx: str = "matrix") -> np.ndarray:
    r = _need(obj, "rows", ctx, int)
    c = _need(obj, "cols", ctx, int)
    data = _need(obj, "data", ctx, list)
    if len(data) != r * c:
        raise SchemaError(f"{ctx}: data has {len(data)} entries for shape {r}x{c}")
    flat = np.array([_unpair(e, ctx) for e in data], dtype=complex)
    return flat.reshape(r, c)


def encode_tensor(t) -> dict:
    t = np.asarray(t, dtype=complex)
    return {"shape": [int(s) for s in t.shape], "data": [_pair(z) for z in t.ravel()]}


def decode_tensor(obj, ctx: str = "tensor") -> np.ndarray:
    shape = _ints(_need(obj, "shape", ctx), f"{ctx}.shape")
    data = _need(obj, "data", ctx, list)
    total = int(np.prod(shape)) if shape else 1
    if len(data) != total:
        raise SchemaError(f"{ctx}: data has {len(data)} entries for shape {shape}")
    return np.array([_unpair(e, ctx) for e in data], dtype=complex).reshape(shape)


# ---------------------------------------------------------------------------
# operations


def encode_multimap(mm: channels.OperatorMultiMap) -> dict:
    return {
        "input_dims": [int(d) for d in mm.input_operator_dims],
        "output_dim": int(mm.output_operator_dim),
        "action": encode_matrix(mm.action_matrix),
    }


def decode_multimap(obj, ctx: str = "multimap") -> channels.OperatorMultiMap:
    dims = _ints(_need(obj, "input_dims", ctx), f"{ctx}.input_dims")
    out = _need(obj, "output_dim", ctx, int)
    action = decode_matrix(_need(obj, "action", ctx), f"{ctx}.action")
    return channels.OperatorMultiMap(dims, out, action)


def encode_channel(ch: channels.QuantumChannel, form: str = "choi", kraus=None) -> dict:
    """form "kraus" writes the given Kraus set, or kraus_from_choi(ch)."""
    if form == "choi":
        data = encode_matrix(ch.choi)
    elif form == "kraus":
        ks = channels.kraus_from_choi(ch) if kraus is None else kraus
        data = [encode_matrix(k) for k in ks.operators]
    else:
        raise SchemaError(f"channel: unknown repr {form!r}")
    return {
        "in_dim": int(ch.in_dim),
        "out_dim": int(ch.out_dim),
        "repr": form,
        "data": data,
    }


def decode_channel(obj, ctx: str = "channel") -> channels.QuantumChannel:
    n = _need(obj, "in_dim", ctx, int)
    m = _need(obj, "out_dim", ctx, int)
    form = _need(obj, "repr", ctx)
    data = _need(obj, "data", ctx)
    if form == "choi":
        return channels.QuantumChannel(n, m, decode_matrix(data, f"{ctx}.data"))
    if form == "kraus":
        data = _typed(data, f"{ctx}.data", list)
        ops = tuple(decode_matrix(k, f"{ctx}.data[{i}]") for i, k in enumerate(data))
        ks = channels.KrausSet(ops)
        if ks.in_dim != n or ks.out_dim != m:
            raise SchemaError(f"{ctx}: Kraus shapes disagree with declared dims")
        return channels.choi_of(ks)
    raise SchemaError(f"{ctx}: unknown repr {form!r}")


def decode_kraus(obj, ctx: str = "kraus") -> channels.KrausSet:
    ops = _need(obj, "operators", ctx, list)
    return channels.KrausSet(
        tuple(decode_matrix(k, f"{ctx}.operators[{i}]") for i, k in enumerate(ops))
    )


def encode_multilinear_map(phi: multilinear.MultilinearVectorMap) -> dict:
    return {
        "input_dims": [int(d) for d in phi.input_dims],
        "output_dim": int(phi.output_dim),
        "matrix": encode_matrix(phi.matrix),
        "field": phi.field,
    }


def decode_multilinear_map(obj, ctx: str = "map") -> multilinear.MultilinearVectorMap:
    dims = _ints(_need(obj, "input_dims", ctx), f"{ctx}.input_dims")
    out = _need(obj, "output_dim", ctx, int)
    mat = decode_matrix(_need(obj, "matrix", ctx), f"{ctx}.matrix")
    field = _need(obj, "field", ctx, str, "complex")
    return multilinear.MultilinearVectorMap(dims, out, mat, field)


def decode_pool(obj, ctx: str = "pool") -> list:
    """The operations of a pool file {"pool": [...]}, or of one operation."""
    if isinstance(obj, dict) and "pool" in obj:
        entries = _need(obj, "pool", ctx, list)
        return [decode_operation(e, f"{ctx}.pool[{i}]") for i, e in enumerate(entries)]
    return [decode_operation(obj, ctx)]


def decode_operation(obj, ctx: str = "operation"):
    """Sniff which operation kind an artifact holds."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx}: expected an object")
    if "action" in obj:
        return decode_multimap(obj, ctx)
    if "repr" in obj:
        return decode_channel(obj, ctx)
    if "operators" in obj:
        return decode_kraus(obj, ctx)
    if "matrix" in obj and "input_dims" in obj:
        return decode_multilinear_map(obj, ctx)
    raise SchemaError(
        f"{ctx}: not a known operation (expected one of the fields "
        "'action', 'repr', 'operators', 'matrix')"
    )


# ---------------------------------------------------------------------------
# dilations


def encode_dilation(cd: channels.ChannelDilation) -> dict:
    return {"env_dim": int(cd.env_dim), "isometry": encode_matrix(cd.isometry)}


def encode_representation(rep: channels.StarRepresentation) -> dict:
    return {
        "algebra_dim": int(rep.algebra_dim),
        "carrier_dim": int(rep.carrier_dim),
        "images": encode_tensor(rep.images),
    }


def decode_representation(obj, ctx: str = "representation") -> channels.StarRepresentation:
    return channels.StarRepresentation(
        _need(obj, "algebra_dim", ctx, int),
        _need(obj, "carrier_dim", ctx, int),
        decode_tensor(_need(obj, "images", ctx), f"{ctx}.images"),
    )


def encode_multilinear_dilation(dil: channels.MultilinearDilation) -> dict:
    return {
        "reps": [encode_representation(r) for r in dil.reps],
        "isometry": encode_matrix(dil.isometry),
        "factor_dims": None
        if dil.factor_dims is None
        else [int(d) for d in dil.factor_dims],
    }


def decode_multilinear_dilation(obj, ctx: str = "dilation") -> channels.MultilinearDilation:
    reps = tuple(
        decode_representation(r, f"{ctx}.reps[{i}]")
        for i, r in enumerate(_need(obj, "reps", ctx, list))
    )
    v = decode_matrix(_need(obj, "isometry", ctx), f"{ctx}.isometry")
    fd = _need(obj, "factor_dims", ctx, list, None)
    return channels.MultilinearDilation(reps, v, None if fd is None else _ints(fd, f"{ctx}.factor_dims"))


# ---------------------------------------------------------------------------
# terms, operads, interpretations


def encode_term(t) -> dict:
    if isinstance(t, operad.Leaf):
        return {"slot": int(t.slot)}
    if isinstance(t, operad.Permuted):
        return {"perm": [int(p) for p in t.perm], "of": encode_term(t.sub)}
    return {"op": t.symbol.name, "args": [encode_term(c) for c in t.children]}


def decode_term(obj, spec: operad.OperadSpec, ctx: str = "term"):
    if not isinstance(obj, dict):
        raise SchemaError(f"{ctx}: expected an object")
    if "slot" in obj:
        return operad.Leaf(_need(obj, "slot", ctx, int))
    if "perm" in obj:
        perm = _ints(obj["perm"], f"{ctx}.perm")
        sub = decode_term(_need(obj, "of", ctx), spec, f"{ctx}.of")
        n = operad.arity(sub)
        if len(perm) != n:
            raise SchemaError(f"{ctx}.perm: expected {n} entries, one per slot of the subterm, got {len(perm)}")
        return operad.Permuted(perm, sub)
    name = _need(obj, "op", ctx, str)
    if name not in spec:
        raise SchemaError(f"{ctx}: symbol {name!r} is not in the operad")
    args = _need(obj, "args", ctx, list, [])
    return operad.Apply(
        spec[name],
        tuple(decode_term(a, spec, f"{ctx}.args[{i}]") for i, a in enumerate(args)),
    )


def encode_operad_spec(spec: operad.OperadSpec) -> dict:
    gens = []
    for s in spec.symbols:
        entry = {"name": s.name, "arity": int(s.arity), "formal": bool(s.formal)}
        if s.signature is not None:
            ins, out = s.signature
            entry["signature"] = [[int(d) for d in ins], int(out)]
        gens.append(entry)
    return {"generators": gens}


def decode_operad_spec(obj, ctx: str = "operad") -> operad.OperadSpec:
    gens = _need(obj, "generators", ctx, list)
    symbols = []
    for i, g in enumerate(gens):
        gctx = f"{ctx}.generators[{i}]"
        name = _need(g, "name", gctx, str)
        sig = _need(g, "signature", gctx, list, None)
        if sig is not None:
            if len(sig) != 2:
                raise SchemaError(f"{gctx}.signature: expected [input dims, output dim]")
            sig = (_ints(sig[0], f"{gctx}.signature[0]"), _typed(sig[1], f"{gctx}.signature[1]", int))
        symbols.append(
            operad.OperadSymbol(
                name, _need(g, "arity", gctx, int), sig, _need(g, "formal", gctx, bool, False)
            )
        )
    return operad.OperadSpec(tuple(symbols))


def encode_interpretation(interp: operad.Interpretation) -> dict:
    return {
        "operad": encode_operad_spec(interp.operad),
        "assign": {name: encode_multimap(mm) for name, mm in interp.assign.items()},
        "carrier_dim": None if interp.carrier_dim is None else int(interp.carrier_dim),
    }


def decode_interpretation(obj, ctx: str = "interpretation") -> operad.Interpretation:
    spec = decode_operad_spec(_need(obj, "operad", ctx), f"{ctx}.operad")
    assign_obj = _need(obj, "assign", ctx, dict)
    assign = {}
    for name, entry in assign_obj.items():
        op = decode_operation(entry, f"{ctx}.assign[{name}]")
        if isinstance(op, channels.KrausSet):
            op = channels.choi_of(op)
        if isinstance(op, multilinear.MultilinearVectorMap):
            raise SchemaError(f"{ctx}.assign[{name}]: expected an operator map")
        assign[name] = op
    return operad.Interpretation(spec, assign, _need(obj, "carrier_dim", ctx, int, None))


def encode_ideal_spec(spec: ideals.IdealSpec) -> dict:
    def enc(op):
        return encode_multimap(ideals._as_multimap(op))

    return {
        "name": spec.name,
        "predicate": spec.predicate,
        "members": [enc(m) for m in spec.members],
        "non_members": [enc(m) for m in spec.non_members],
    }


def decode_ideal_spec(obj, ctx: str = "ideal") -> ideals.IdealSpec:
    name = _need(obj, "name", ctx, str)
    predicate = _need(obj, "predicate", ctx, str)
    members = tuple(
        decode_operation(m, f"{ctx}.members[{i}]")
        for i, m in enumerate(_need(obj, "members", ctx, list, []))
    )
    non_members = tuple(
        decode_operation(m, f"{ctx}.non_members[{i}]")
        for i, m in enumerate(_need(obj, "non_members", ctx, list, []))
    )
    try:
        return ideals.IdealSpec(name, predicate, members, non_members)
    except ValueError as e:
        raise SchemaError(f"{ctx}.predicate: {e}") from e


def encode_feedback_problem(p: multilinear.FeedbackProblem) -> dict:
    return {
        "map": encode_multilinear_map(p.map),
        "input_split": [int(d) for d in p.input_split],
        "output_split": [int(d) for d in p.output_split],
    }


def decode_feedback_problem(obj, ctx: str = "feedback") -> multilinear.FeedbackProblem:
    phi = decode_multilinear_map(_need(obj, "map", ctx), f"{ctx}.map")
    ins = _ints(_need(obj, "input_split", ctx), f"{ctx}.input_split")
    outs = _ints(_need(obj, "output_split", ctx), f"{ctx}.output_split")
    if len(ins) != 2 or len(outs) != 2:
        raise SchemaError(f"{ctx}: splits must list exactly two summands")
    return multilinear.FeedbackProblem(phi, ins, outs)


def encode_circuit(circ: operad.CircuitTerm) -> dict:
    return {
        "n_in": int(circ.n_in),
        "boxes": [
            {"op": b.symbol, "in_wires": [int(w) for w in b.in_wires]}
            for b in circ.boxes
        ],
        "out_wires": [int(w) for w in circ.out_wires],
    }


# ---------------------------------------------------------------------------
# canonical serialization


def jsonable(x):
    """Recursively convert report values to plain JSON types; ndarrays
    become matrix artifacts."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return encode_matrix(x)
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, (complex, np.complexfloating)):
        return _pair(x)
    return x


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed separators, no
    whitespace variation, trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except RecursionError:
        raise SchemaError(f"{path}: nested too deeply to parse") from None
