"""The exact homomorphism and equivalence checks against the sampled loops
they replace (oracles.sampled_homomorphism_check and
oracles.sampled_operational_equivalence), on random carrier-2
interpretations of arity at most two.

Wherever a sampled loop finds a violation the exact check finds one too,
and an exact pass is a sampled pass, at every seed."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from operaq import channels as ch
from operaq import linalg, monad, operad as op
from operaq import sampling

import oracles

SEEDS = st.integers(0, 2**31 - 1)


def low_rank_action(rng, arity):
    """A Ginibre action on `arity` copies of M_2 of random rank, scaled to
    operator norm one so values of small terms stay in the unit ball."""
    rank = int(rng.integers(1, 5))
    a = sampling.ginibre(rng, 4, rank) @ sampling.ginibre(rng, rank, 4**arity)
    return a / np.linalg.norm(a, 2)


def random_interpretation(rng):
    arities = [int(rng.integers(0, 3)) for _ in range(int(rng.integers(1, 4)))]
    if not any(arities):
        arities[0] = 1
    symbols = tuple(op.OperadSymbol(f"s{k}", n) for k, n in enumerate(arities))
    assign = {
        s.name: ch.OperatorMultiMap((2,) * s.arity, 2, low_rank_action(rng, s.arity))
        for s in symbols
    }
    return op.Interpretation(op.OperadSpec(symbols), assign, carrier_dim=2)


def transported(interp, s_f, s_inv):
    """The interpretation B with B_s = S_f A_s (S_f^-1 (x) ... (x) S_f^-1),
    for which f is an isomorphism of algebras."""
    assign = {}
    for name, mm in interp.assign.items():
        inv = np.eye(1)
        for _ in range(mm.arity):
            inv = np.kron(inv, s_inv)
        assign[name] = ch.OperatorMultiMap(mm.input_operator_dims, 2, s_f @ mm.action_matrix @ inv)
    return op.Interpretation(interp.operad, assign, carrier_dim=2)


@settings(max_examples=60, deadline=None)
@given(SEEDS, SEEDS, st.sampled_from(["identity", "transport", "unrelated"]))
def test_homcheck_finds_every_violation_the_sampled_loop_finds(seed, oracle_seed, kind):
    rng = np.random.default_rng(seed)
    interp_a = random_interpretation(rng)
    if kind == "identity":
        f, interp_b = ch.identity_multimap(2), interp_a
    else:
        u = sampling.random_unitary(rng, 2)
        f = ch.channel_multimap(ch.choi_of(ch.KrausSet((u,))))
        if kind == "transport":
            interp_b = transported(interp_a, f.action_matrix, f.action_matrix.conj().T)
        else:
            interp_b = op.Interpretation(interp_a.operad, {
                name: ch.OperatorMultiMap(mm.input_operator_dims, 2, low_rank_action(rng, mm.arity))
                for name, mm in interp_a.assign.items()
            }, carrier_dim=2)
    exact = monad.homomorphism_check(f, interp_a, interp_b)
    sampled = oracles.sampled_homomorphism_check(f, interp_a, interp_b, trials=8, seed=oracle_seed)
    assert sampled["passed"] or not exact["passed"]
    assert not exact["passed"] or sampled["passed"]
    if kind != "unrelated":
        assert exact["passed"] and exact["witness"] is None
    if not exact["passed"]:
        # the witness is a corolla on matrix units that really breaks the square
        w = exact["witness"]
        assert isinstance(w["term"], op.Apply) and w["term"].symbol.arity == len(w["args"])
        lhs = ch.apply_ops(f, [op.evaluate(interp_a, w["term"], w["args"], 2)])
        rhs = op.evaluate(interp_b, w["term"], [ch.apply_ops(f, [e]) for e in w["args"]], 2)
        assert np.linalg.norm(lhs - rhs) == pytest.approx(w["residual"], rel=1e-9)
        assert w["residual"] == exact["max_residual"]


def range_basis(interp):
    """Orthonormal columns spanning the sum of the ranges of the actions."""
    stacked = np.hstack([mm.action_matrix for mm in interp.assign.values()])
    u, s, _ = np.linalg.svd(stacked)
    return u[:, : int(np.sum(s > 1e-9 * s[0]))]


@settings(max_examples=60, deadline=None)
@given(SEEDS, SEEDS, st.sampled_from(["remixed", "off-range", "unrelated"]))
def test_opequiv_finds_every_violation_the_sampled_loop_finds(seed, oracle_seed, kind):
    rng = np.random.default_rng(seed)
    interp = random_interpretation(rng)
    m = int(rng.integers(1, 4))
    phi_a = sampling.random_channel(rng, 2, m, kraus_rank=int(rng.integers(1, 4)))
    s_a = oracles.superop_of(phi_a)
    q = range_basis(interp)
    if kind == "remixed":
        ks = ch.kraus_from_choi(phi_a)
        r = len(ks.operators)
        u = sampling.random_unitary(rng, r)
        phi_b = ch.choi_of(ch.KrausSet(tuple(
            sum(u[b, a] * ks.operators[a] for a in range(r)) for b in range(r)
        )))
    elif kind == "off-range":
        # a change that vanishes on every value of a symbol-rooted term
        s_b = s_a + sampling.ginibre(rng, m * m, 4) @ (np.eye(4) - q @ q.conj().T)
        phi_b = ch.QuantumChannel(2, m, oracles.superop_to_choi(s_b, 2, m))
    else:
        phi_b = sampling.random_channel(rng, 2, m)
    exact = monad.operational_equivalence(phi_a, phi_b, interp)
    sampled = oracles.sampled_operational_equivalence(
        phi_a, phi_b, interp, term_trials=4, seed=oracle_seed
    )
    assert sampled["equivalent"] or not exact["equivalent"]
    assert not exact["equivalent"] or sampled["equivalent"]
    if kind == "remixed":
        assert exact["equivalent"] and exact["witness"] is None
    delta = s_a - oracles.superop_of(phi_b)
    # the range residual bounds the difference on every symbol's values,
    # which is what the sampled corolla sweep measured
    assert exact["range_residual"] == pytest.approx(linalg.op_norm(delta @ q), abs=1e-12)
    for mm in interp.assign.values():
        cols = np.linalg.norm(delta @ mm.action_matrix, axis=0)
        bound = exact["range_residual"] * np.linalg.norm(mm.action_matrix, axis=0)
        assert np.all(cols <= bound + 1e-12)
    if kind == "off-range":
        assert exact["range_residual"] <= 1e-12
        assert exact["equivalent"] is (q.shape[1] == 4)
    if not exact["equivalent"]:
        w = exact["witness"]
        assert w["term"] == op.unit_term()
        (e,) = w["args"]
        diff = ch.channel_apply(phi_a, e) - ch.channel_apply(phi_b, e)
        assert np.linalg.norm(diff) == pytest.approx(w["residual"], rel=1e-9)
        assert w["residual"] == exact["max_residual"]


def dephasing_example():
    dephase = ch.choi_of(ch.KrausSet((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))))
    interp = op.Interpretation(
        op.OperadSpec((op.OperadSymbol("dephase", 1),)), {"dephase": dephase}, carrier_dim=2
    )
    return ch.identity_channel(2), dephase, interp


def test_dephasing_is_not_equivalent_to_the_identity_whatever_the_seed():
    ident, dephase, interp = dephasing_example()
    # the sampled loop with one term trial: its verdict hung on whether the
    # seed drew the bare leaf, whose values leave the diagonal
    verdicts = [
        oracles.sampled_operational_equivalence(ident, dephase, interp, term_trials=1, seed=s)[
            "equivalent"
        ]
        for s in range(5)
    ]
    assert verdicts == [True, True, False, False, True]
    verdict = monad.operational_equivalence(ident, dephase, interp)
    assert not verdict["equivalent"]
    assert verdict["max_residual"] == 1.0
    assert verdict["range_residual"] <= 1e-12
    assert verdict["witness"]["term"] == op.unit_term()
    (e,) = verdict["witness"]["args"]
    assert e[0, 1] + e[1, 0] == 1.0
