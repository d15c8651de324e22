"""Each output check accepts the program's real report and rejects a
deliberately corrupted one.

    PYTHONPATH=src python -m pytest -q qbench/test_checks.py
"""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bump_first(matrix, by=1e-3):
    matrix["data"][0][0] += by


def set_key(path, value):
    def corrupt(rep):
        node = rep["result"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return corrupt


# operation -> (description, corruption applied to its report)
CORRUPTIONS = {
    "kraus.choi8": ("perturbed Kraus operator",
                    lambda rep: bump_first(rep["result"]["channel"]["data"][0])),
    "check-tp.kraus8": ("wrong TP defect", set_key(["defect"], lambda v: v + 1e-6)),
    "check-cp.transpose8": ("flipped CP verdict", set_key(["cp"], True)),
    "minimal.padded6": ("wrong carrier_dim", set_key(["carrier_dim"], lambda v: v + 1)),
    "intertwine.d6": ("perturbed intertwiner",
                      lambda rep: bump_first(rep["result"]["intertwiner"])),
    "nadjoint.sep222": ("perturbed n-adjoint",
                        lambda rep: bump_first(rep["result"]["adjoint"]["action"])),
    "adjoint.mlmap": ("perturbed adjoint", lambda rep: bump_first(rep["result"]["adjoint"]["matrix"])),
    "monad-laws": ("wrong check count", set_key(["checks"], lambda v: v - 1)),
    "homcheck.pass": ("flipped homomorphism verdict", set_key(["passed"], False)),
    "opequiv.fail": ("flipped equivalence verdict", set_key(["equivalent"], True)),
    "term-eval.right6": ("perturbed term action",
                         lambda rep: bump_first(rep["result"]["multimap"]["action"])),
    "circuit-realize.d5": ("perturbed unitary box",
                           lambda rep: bump_first(rep["result"]["boxes"]["joint_unitary"]["action"])),
    "nogo-broadcast.d2": ("wrong broadcast residual", set_key(["min_residual"], lambda v: v * 1.001)),
    "ideal-member.member": ("wrong Kraus rank", set_key(["evidence", "kraus_rank"], 1)),
    "quotient.again": ("non-idempotent quotient",
                       set_key(["term"], {"op": "bottom[2x2->2]", "args": [{"slot": 0}, {"slot": 1}]})),
    "clone-match": ("cloning match claimed", set_key(["matches"], True)),
    "check-cp.bilinear3": ("flipped slotwise scan", set_key(["slotwise", "passed"], False)),
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = {}
    for workload, ops in WORKLOADS.items():
        workdir = str(tmp_path_factory.mktemp(workload))
        fx = gen.generate(workload, 5, workdir)
        bench = runner.Runner(workload, fx, workdir)
        for op in ops:
            if op.name in CORRUPTIONS or op.name == "quotient":
                code, _, _, data = bench.run_op(op)
                out[op.name] = (op, code, json.loads(data), fx)
    return out


def check(reports, name, report):
    op, code, _, fx = reports[name]
    previous = {"quotient": reports["quotient"][2]["result"]}
    return checks.run_check(op, code, report, fx, previous)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_accepts_real_report_and_rejects_corruption(reports, name):
    assert check(reports, name, reports[name][2]) is None
    bad = copy.deepcopy(reports[name][2])
    CORRUPTIONS[name][1](bad)
    assert check(reports, name, bad) is not None, CORRUPTIONS[name][0]


def test_wrong_exit_code_is_rejected(reports):
    op, code, report, fx = reports["opequiv.fail"]
    assert checks.run_check(op, 0, report, fx) is not None


def test_error_report_needs_exit_2_and_a_message():
    op = next(o for o in WORKLOADS["dilation"] if o.name == "check-cp.nan")
    assert checks.run_check(op, 2, {"error": "matrix entries must be finite"}, {}) is None
    assert checks.run_check(op, 2, {"result": {"cp": False}}, {}) is not None
    assert checks.run_check(op, 1, {"error": "x"}, {}) is not None


def test_broadcast_residual_formula_matches_the_pinned_value():
    full, marginal = checks.broadcast_residuals(2)
    assert full == pytest.approx(checks.PINNED_D2, abs=1e-9)
    assert marginal <= 1e-8
