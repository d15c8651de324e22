"""Batch frontend: JSON artifacts in, a canonical JSON report out.

Exit code 0 means the command's verdict passed, 1 means it ran and failed
(a non-CP certificate, a law violation, an inequivalence), 2 means the
inputs were unusable.  A report is written in every case, and equal
(config, seed) produce byte-identical reports: no timestamps, sorted keys,
seeded randomness only.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import channels, ideals, io, linalg, monad, multilinear, operad
from .errors import (
    IllPosedFeedbackError,
    InconsistentDilationsError,
    NotCompletelyPositiveError,
    OperaqError,
    SchemaError,
)

LOG = logging.getLogger("operaq")

COUNTS = frozenset({"trials", "d", "samples", "steps", "dim"})  # non-negative integers

# commands that draw random samples; these refuse to run without --seed
SEEDED = frozenset({"operad-laws", "monad-laws", "algebra-laws", "ideal-closure"})


def _as_channel(obj, ctx: str) -> channels.QuantumChannel:
    return channels.choi_of(io.decode_operation(obj, ctx))


def _decode_dilation_like(obj, ctx: str) -> channels.MultilinearDilation:
    """A dilation as given, or the Stinespring dilation of an operation: an
    operator map of any arity as itself, a channel or Kraus set as its
    Heisenberg dual."""
    if isinstance(obj, dict) and "reps" in obj:
        return io.decode_multilinear_dilation(obj, ctx)
    return channels.heisenberg_dilation(io.decode_operation(obj, ctx))


def _encode_witness(w) -> Optional[dict]:
    if w is None:
        return None
    out = dict(w)
    if "term" in out:
        out["term"] = io.encode_term(out["term"])
    if "args" in out:
        out["args"] = [io.encode_matrix(a) for a in out["args"]]
    return out


def _interp_and_term(objs, paths):
    interp = io.decode_interpretation(objs[0], paths[0])
    term = io.decode_term(objs[1], interp.operad, paths[1])
    return interp, term


# ---------------------------------------------------------------------------
# handlers: (parsed inputs, input paths, tolerances, seed) -> (result, passed)


def cmd_check_cp(objs, paths, tol, seed):
    op = io.decode_operation(objs[0], paths[0])
    ch = channels.choi_of(op)
    low = channels.choi_min_eigenvalue(ch)
    cp = bool(low >= -tol["eig"])
    result = {"cp": cp, "min_eigenvalue": low}
    if isinstance(op, channels.OperatorMultiMap) and op.arity >= 2:
        result["slotwise"] = channels.mcp_check(op, tol=tol["eig"])
    return result, cp


def cmd_check_tp(objs, paths, tol, seed):
    ch = _as_channel(objs[0], paths[0])
    defect = channels.tp_defect(ch)
    tp = bool(defect <= tol["tp"])
    return {"tp": tp, "defect": defect}, tp


def cmd_choi(objs, paths, tol, seed):
    ch = _as_channel(objs[0], paths[0])
    return {"channel": io.encode_channel(ch, "choi")}, True


def cmd_kraus(objs, paths, tol, seed):
    ch = _as_channel(objs[0], paths[0])
    ks = channels.kraus_from_choi(ch)
    # the rank counts the kept eigenvalues, not the zero operator that
    # stands in for an empty Kraus set
    rank = sum(1 for k in ks.operators if k.any())
    return {"channel": io.encode_channel(ch, "kraus", ks), "kraus_rank": rank}, True


def cmd_dilate(objs, paths, tol, seed):
    ch = _as_channel(objs[0], paths[0])
    v = channels.stinespring_isometry(channels.kraus_from_choi(ch))
    env = v.shape[0] // ch.out_dim
    # rows of V are (output, environment); each environment level is a Kraus operator
    rec = channels.choi_of(channels.KrausSet(tuple(np.swapaxes(v.reshape(ch.out_dim, env, -1), 0, 1))))
    err = float(linalg.frobenius(rec.choi - ch.choi))
    result = {
        "dilation": {"env_dim": env, "isometry": io.encode_matrix(v)},
        "env_dim": env,
        "reconstruction_error": err,
    }
    return result, bool(err <= tol["residual"])


def cmd_minimal(objs, paths, tol, seed):
    dil = _decode_dilation_like(objs[0], paths[0])
    mind = channels.minimal_dilation(dil)
    result = {
        "dilation": io.encode_multilinear_dilation(mind),
        "carrier_dim": int(mind.carrier_dim),
        "original_carrier_dim": int(dil.carrier_dim),
    }
    return result, True


def cmd_intertwine(objs, paths, tol, seed):
    d_min = io.decode_multilinear_dilation(objs[0], paths[0])
    d_oth = io.decode_multilinear_dilation(objs[1], paths[1])
    u, rep = channels.intertwiner(d_min, d_oth)
    passed = bool(
        max(rep["generator_residual"], rep["intertwining_residual"]) <= tol["residual"]
    )
    result = {"intertwiner": io.encode_matrix(u), **rep}
    return result, passed


def cmd_adjoint(objs, paths, tol, seed):
    phi = io.decode_multilinear_map(objs[0], paths[0])
    adj = multilinear.adjoint(phi)
    res = multilinear.double_adjoint_residual(phi)
    result = {"adjoint": io.encode_multilinear_map(adj), "double_adjoint_residual": res}
    return result, bool(res <= tol["residual"])


def cmd_nadjoint(objs, paths, tol, seed):
    dil = _decode_dilation_like(objs[0], paths[0])
    adj = channels.n_adjoint(channels.dilation_multimap(dil))
    res = channels.n_adjoint_pairing_residual(channels.kraus_tensor_decompose(dil), adj)
    result = {"adjoint": io.encode_multimap(adj), "pairing_residual": float(res)}
    return result, bool(res <= tol["residual"])


def cmd_zigzag(objs, paths, tol, seed):
    dil = _decode_dilation_like(objs[0], paths[0])
    report = channels.zigzag_check(dil)
    passed = bool(report["zigzag_defect"] <= tol["residual"] and report["isometric"])
    return report, passed


def cmd_feedback(objs, paths, tol, seed):
    problem = io.decode_feedback_problem(objs[0], paths[0])
    closed = multilinear.feedback_solve(problem)
    result = {
        "closed_map": io.encode_multilinear_map(closed),
        "loop_gain": float(problem.loop_gain),
        "well_posed": bool(problem.well_posed),
    }
    passed = True
    if problem.loop_gain < 1.0:
        picard = multilinear.feedback_picard(problem, steps=int(tol["steps"]))
        deviation = float(np.max(np.abs(closed.matrix - picard.matrix)))
        result["picard_deviation"] = deviation
        passed = bool(deviation <= tol["residual"])
    return result, passed


def cmd_term_eval(objs, paths, tol, seed):
    interp, term = _interp_and_term(objs, paths)
    root = operad.canonical_form(term)
    leaf_dim = interp.carrier() if isinstance(root, operad.Leaf) else None
    mm = operad.interpret(interp, term, leaf_dim=leaf_dim)
    return {"multimap": io.encode_multimap(mm)}, True


def cmd_operad_laws(objs, paths, tol, seed):
    spec = io.decode_operad_spec(objs[0], paths[0])
    report = operad.operad_axiom_suite(
        list(spec.symbols), trials=int(tol["trials"]), seed=seed
    )
    return report, bool(report["passed"])


def cmd_monad_laws(objs, paths, tol, seed):
    spec = io.decode_operad_spec(objs[0], paths[0])
    report = monad.monad_law_suite(
        spec, trials=int(tol["trials"]), seed=seed, dim=int(tol["dim"])
    )
    return report, bool(report["passed"])


def cmd_algebra_laws(objs, paths, tol, seed):
    interp = io.decode_interpretation(objs[0], paths[0])
    report = monad.algebra_law_suite(
        interp, trials=int(tol["trials"]), seed=seed, tol=tol["residual"]
    )
    return report, bool(report["passed"])


def cmd_homcheck(objs, paths, tol, seed):
    op = channels.channel_multimap(io.decode_operation(objs[0], paths[0]))
    if op.arity != 1:
        raise SchemaError(f"{paths[0]}: the map under test must take one operator slot")
    report = monad.homomorphism_check(
        op,
        io.decode_interpretation(objs[1], paths[1]),
        io.decode_interpretation(objs[2], paths[2]),
        tol=tol["residual"],
    )
    report["witness"] = _encode_witness(report["witness"])
    return report, bool(report["passed"])


def cmd_opequiv(objs, paths, tol, seed):
    phi_a = _as_channel(objs[0], paths[0])
    phi_b = _as_channel(objs[1], paths[1])
    interp = io.decode_interpretation(objs[2], paths[2])
    report = monad.operational_equivalence(phi_a, phi_b, interp, tol=tol["residual"])
    report["witness"] = _encode_witness(report["witness"])
    return report, bool(report["equivalent"])


def cmd_circuit_realize(objs, paths, tol, seed):
    ch = _as_channel(objs[0], paths[0])
    if not channels.is_tp(ch):
        return {"error": "the circuit construction needs a trace preserving channel"}, False
    circuit, boxes = monad.stinespring_circuit(ch)
    rec = monad.circuit_channel(circuit, boxes, (ch.in_dim,))
    err = float(linalg.frobenius(rec.choi - ch.choi))
    result = {
        "circuit": io.encode_circuit(circuit),
        "boxes": {name: io.encode_multimap(mm) for name, mm in boxes.items()},
        "reconstruction_error": err,
    }
    return result, bool(err <= tol["residual"])


def cmd_ideal_member(objs, paths, tol, seed):
    spec = io.decode_ideal_spec(objs[0], paths[0])
    op = io.decode_operation(objs[1], paths[1])
    verdict = ideals.is_member(spec, op)
    return verdict, bool(verdict["member"])


def cmd_ideal_closure(objs, paths, tol, seed):
    spec = io.decode_ideal_spec(objs[0], paths[0])
    pool = [op for obj, path in zip(objs[1:], paths[1:]) for op in io.decode_pool(obj, path)]
    report = ideals.closure_check(spec, pool, trials=int(tol["trials"]), seed=seed)
    return report, bool(report["passed"])


def cmd_quotient(objs, paths, tol, seed):
    interp = io.decode_interpretation(objs[0], paths[0])
    spec = io.decode_ideal_spec(objs[1], paths[1])
    term = io.decode_term(objs[2], interp.operad, paths[2])
    q = ideals.quotient(term, spec, interp)
    return {"term": io.encode_term(q), "collapsed": ideals.contains_bottom(q)}, True


def cmd_nogo_broadcast(objs, paths, tol, seed):
    report = ideals.broadcast_witness(int(tol["d"]), state_sample=int(tol["samples"]))
    return report, bool(report["min_residual"] > tol["positive"])


def cmd_clone_match(objs, paths, tol, seed):
    interp, term = _interp_and_term(objs, paths)
    report = ideals.clone_pattern_match(term, interp)
    return report, bool(report["matches"])


@dataclass(frozen=True)
class CommandSpec:
    handler: Callable
    n_inputs: int
    variadic: bool = False  # at least n_inputs when set
    tolerances: tuple = ()

    def defaults(self) -> dict:
        return dict(self.tolerances)


REGISTRY = {
    "check-cp": CommandSpec(cmd_check_cp, 1, tolerances=(("eig", 1e-10),)),
    "check-tp": CommandSpec(cmd_check_tp, 1, tolerances=(("tp", 1e-10),)),
    "choi": CommandSpec(cmd_choi, 1),
    "kraus": CommandSpec(cmd_kraus, 1),
    "dilate": CommandSpec(cmd_dilate, 1, tolerances=(("residual", 1e-9),)),
    "minimal": CommandSpec(cmd_minimal, 1),
    "intertwine": CommandSpec(cmd_intertwine, 2, tolerances=(("residual", 1e-8),)),
    "adjoint": CommandSpec(cmd_adjoint, 1, tolerances=(("residual", 1e-12),)),
    # nadjoint, homcheck, opequiv and clone-match are exact and ignore
    # trials, which they still accept so that existing invocations keep running
    "nadjoint": CommandSpec(
        cmd_nadjoint, 1, tolerances=(("residual", 1e-8), ("trials", 20))
    ),
    "zigzag": CommandSpec(cmd_zigzag, 1, tolerances=(("residual", 1e-9),)),
    "feedback": CommandSpec(
        cmd_feedback, 1, tolerances=(("residual", 1e-8), ("steps", 200))
    ),
    "term-eval": CommandSpec(cmd_term_eval, 2),
    "operad-laws": CommandSpec(cmd_operad_laws, 1, tolerances=(("trials", 200),)),
    "monad-laws": CommandSpec(
        cmd_monad_laws, 1, tolerances=(("trials", 100), ("dim", 2))
    ),
    "algebra-laws": CommandSpec(
        cmd_algebra_laws, 1, tolerances=(("trials", 25), ("residual", 1e-10))
    ),
    "homcheck": CommandSpec(
        cmd_homcheck, 3, tolerances=(("trials", 50), ("residual", 1e-10))
    ),
    "opequiv": CommandSpec(
        cmd_opequiv, 3, tolerances=(("trials", 25), ("residual", 1e-10))
    ),
    "circuit-realize": CommandSpec(
        cmd_circuit_realize, 1, tolerances=(("residual", 1e-9),)
    ),
    "ideal-member": CommandSpec(cmd_ideal_member, 2),
    "ideal-closure": CommandSpec(
        cmd_ideal_closure, 2, variadic=True, tolerances=(("trials", 1000),)
    ),
    "quotient": CommandSpec(cmd_quotient, 3),
    "nogo-broadcast": CommandSpec(
        cmd_nogo_broadcast,
        0,
        tolerances=(("d", 2), ("samples", 10), ("positive", 1e-6)),
    ),
    "clone-match": CommandSpec(cmd_clone_match, 2, tolerances=(("trials", 20),)),
}


def _setup_logging() -> None:
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("OPERAQ_LOG", "quiet"), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s %(message)s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="operaq",
        description="Run one library operation on JSON artifacts and emit a report.",
    )
    parser.add_argument(
        "--command", required=True, choices=sorted(REGISTRY), help="operation to run"
    )
    parser.add_argument(
        "--in",
        dest="inputs",
        action="append",
        default=[],
        metavar="PATH",
        help="input artifact; repeat in the order the command expects",
    )
    parser.add_argument("--seed", type=int, default=None, help="PRNG seed (required for sampling commands)")
    parser.add_argument(
        "--tol",
        dest="tols",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help="numeric override, e.g. --tol residual=1e-6",
    )
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    return parser


def _parse_tols(spec: CommandSpec, pairs) -> dict:
    tols = spec.defaults()
    for pair in pairs:
        if "=" not in pair:
            raise SchemaError(f"tolerance {pair!r} is not of the form key=val")
        key, _, raw = pair.partition("=")
        if key not in tols:
            known = ", ".join(sorted(tols)) or "none"
            raise SchemaError(f"unknown tolerance {key!r} (known: {known})")
        try:
            value = float(raw)
        except ValueError:
            raise SchemaError(f"tolerance {key!r} has non-numeric value {raw!r}") from None
        if not np.isfinite(value):
            raise SchemaError(f"tolerance {key!r} has non-finite value {raw!r}")
        if key in COUNTS and (value < 0 or value != int(value)):
            raise SchemaError(f"tolerance {key!r} needs a non-negative integer, got {raw!r}")
        tols[key] = value
    return tols


def run(command: str, inputs, tol_pairs, seed: Optional[int]):
    """Execute one command; returns (report, exit_code)."""
    spec = REGISTRY[command]
    config = {"inputs": list(inputs), "seed": seed, "tolerances": None}
    envelope = {"schema": io.SCHEMA, "command": command, "config": config}
    try:
        tols = _parse_tols(spec, tol_pairs)
        config["tolerances"] = tols
        if spec.variadic:
            if len(inputs) < spec.n_inputs:
                raise SchemaError(
                    f"{command} needs at least {spec.n_inputs} --in arguments, got {len(inputs)}"
                )
        elif len(inputs) != spec.n_inputs:
            raise SchemaError(
                f"{command} needs exactly {spec.n_inputs} --in arguments, got {len(inputs)}"
            )
        if command in SEEDED and seed is None:
            raise SchemaError(f"{command} samples randomly; --seed is required")
        objs = [io.load_json(p) for p in inputs]
        LOG.info("running %s on %d input(s)", command, len(objs))
        try:
            result, passed = spec.handler(objs, inputs, tols, seed)
        except NotCompletelyPositiveError as e:
            result = {"error": str(e), "min_eigenvalue": e.min_eigenvalue}
            passed = False
        except (IllPosedFeedbackError, InconsistentDilationsError) as e:
            result = {"error": str(e)}
            passed = False
        envelope["result"] = result
        envelope["passed"] = bool(passed)
        return envelope, 0 if passed else 1
    except (OperaqError, ValueError, np.linalg.LinAlgError, MemoryError, RecursionError) as e:
        LOG.error("%s", e)
        envelope["error"] = str(e) or type(e).__name__
        return envelope, 2
    except OSError as e:
        # an input that cannot be read: missing, a directory, unreadable
        if isinstance(e, FileNotFoundError):
            envelope["error"] = f"{e.filename}: file not found"
        else:
            envelope["error"] = f"{e.filename}: cannot read ({e.strerror})"
        return envelope, 2


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    report, code = run(args.command, args.inputs, args.tols, args.seed)
    text = io.canonical_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            # the one failure with no report: it has nowhere to go
            sys.stderr.write(f"operaq: cannot write report to {args.out}: {e.strerror or e}\n")
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
