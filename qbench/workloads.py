"""The fixed operation list of each workload.

An operation is one `operaq --command ...` invocation on generated
artifacts (or, for `monoidal-compat`, one call into the public monad API,
because no command reaches `channels.channel_kron`).  Its expected exit
code is part of the operation: the transpose map must fail `check-cp`, a
separated pair must fail `opequiv`, and so on.  `check` names the function
in checks.py that verifies the report.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    inputs: tuple = ()  # fixture names; "@<op>" is that operation's result term
    tols: tuple = ()  # ("key", value) pairs passed as --tol key=value
    seeded: bool = False
    expect: int = 0
    check: str = ""


DILATION = (
    Op("check-cp.choi8", "check-cp", ("ch8_choi",), check="cp_verdict"),
    Op("check-tp.kraus8", "check-tp", ("ch8_kraus",), check="tp_verdict"),
    Op("check-cp.transpose8", "check-cp", ("transpose8",), expect=1, check="cp_verdict"),
    Op("kraus.choi8", "kraus", ("ch8_choi",), check="kraus_report"),
    Op("choi.kraus8", "choi", ("ch8_kraus",), check="choi_report"),
    Op("dilate.choi8", "dilate", ("ch8_choi",), check="dilate_report"),
    Op("minimal.rank7", "minimal", ("ch8_rank7",), check="minimal_report"),
    Op("minimal.padded6", "minimal", ("dil6_padded",), check="minimal_report"),
    Op("intertwine.d6", "intertwine", ("dil6_min", "dil6_other"), check="intertwine_report"),
    Op("zigzag.padded8", "zigzag", ("dil8_padded",), check="zigzag_report"),
    Op("nadjoint.sep222", "nadjoint", ("sep222",), seeded=True, check="nadjoint_report"),
    Op("nadjoint.sep33", "nadjoint", ("sep33",), seeded=True, check="nadjoint_report"),
    Op("adjoint.mlmap", "adjoint", ("mlmap",), check="adjoint_report"),
    Op("feedback.loop", "feedback", ("feedback",), check="feedback_report"),
    # the README promises exit 2 and a written report for unusable input
    Op("check-cp.nan", "check-cp", ("nan_choi",), expect=2, check="error_report"),
)

ALGEBRA = (
    Op("operad-laws", "operad-laws", ("spec",), (("trials", 300),), True, check="law_report"),
    Op("monad-laws", "monad-laws", ("spec",), (("trials", 150),), True, check="monad_law_report"),
    Op("algebra-laws", "algebra-laws", ("interp_bin",), (("trials", 40),), True, check="law_report"),
    Op("homcheck.pass", "homcheck", ("conj_w", "interp_un", "interp_un_w"), (("trials", 30),), True,
       check="homcheck_report"),
    Op("homcheck.fail", "homcheck", ("conj_w", "interp_un", "interp_un"), (("trials", 30),), True,
       expect=1, check="homcheck_report"),
    Op("opequiv.pass", "opequiv", ("opq_a", "opq_a_remixed", "interp_un"), (("trials", 15),), True,
       check="opequiv_report"),
    Op("opequiv.fail", "opequiv", ("opq_a", "opq_b", "interp_un"), (("trials", 15),), True,
       expect=1, check="opequiv_report"),
    Op("term-eval.left6", "term-eval", ("interp_bin", "term6_left"), check="term_eval_report"),
    Op("term-eval.right6", "term-eval", ("interp_bin", "term6_right"), check="term_eval_report"),
    Op("term-eval.balanced6", "term-eval", ("interp_bin", "term6_balanced"), check="term_eval_report"),
    Op("circuit-realize.d4", "circuit-realize", ("circ4",), check="circuit_report"),
    Op("circuit-realize.d5", "circuit-realize", ("circ5",), check="circuit_report"),
    Op("monoidal-compat", "monoidal-compat", ("kron_a", "kron_b", "interp_k"), (("trials", 6),), True,
       check="monoidal_report"),
)

NOGO = (
    Op("ideal-closure.c2", "ideal-closure", ("ideal", "pool2"), (("trials", 1000),), True,
       check="closure_report"),
    Op("ideal-closure.c3", "ideal-closure", ("ideal", "pool3"), (("trials", 200),), True,
       check="closure_report"),
    Op("nogo-broadcast.d2", "nogo-broadcast", (), (("d", 2),), True, check="broadcast_report"),
    Op("nogo-broadcast.d3", "nogo-broadcast", (), (("d", 3),), True, check="broadcast_report"),
    Op("ideal-member.member", "ideal-member", ("ideal", "member"), check="member_report"),
    Op("ideal-member.non-member", "ideal-member", ("ideal", "non_member"), expect=1,
       check="member_report"),
    Op("quotient", "quotient", ("q_interp", "ideal", "q_term"), check="quotient_report"),
    Op("quotient.again", "quotient", ("q_interp_bottom", "ideal", "@quotient"),
       check="quotient_again_report"),
    Op("clone-match", "clone-match", ("clone_interp", "clone_term"), seeded=True, expect=1,
       check="clone_report"),
    Op("check-cp.bilinear3", "check-cp", ("bilinear3",), check="cp_verdict"),
)

WORKLOADS = {"dilation": DILATION, "algebra": ALGEBRA, "nogo": NOGO}
