"""Operadic ideals and the linear no-broadcasting witness.

Membership rules single out families of operations closed under
composition; a formal cloning generator is adjoined as pure syntax, and a
least-squares fit certifies that no linear map broadcasts qubit states.
"""

import numpy as np

from operaq import channels as ch
from operaq import ideals, linalg, operad as op
from operaq import sampling

rng = np.random.default_rng(31)

# ---- the non-isometric ideal -------------------------------------------------

noniso = ideals.IdealSpec("non-isometric-ops", "non-isometric")

dep = ch.depolarizing_channel(2, 0.5)
print("depolarizing member:", ideals.is_member(noniso, dep)["member"])

u = ch.choi_of(ch.KrausSet((sampling.random_unitary(rng, 2),)))
print("unitary member:", ideals.is_member(noniso, u)["member"])

# closure under composition, sampled: members composed with ambient
# operations stay members
pool = [sampling.random_cptp(rng, 2, 2) for _ in range(5)] + [dep, u]
report = ideals.closure_check(noniso, pool, trials=300, seed=4)
print("closure checks:", report["checks"], " violations:", len(report["violations"]))
print("note:", report["note"])

# ideal inclusion: every certified-unclonable operation is also certified
# unbroadcastable
clone_certs = (dep, ch.depolarizing_channel(2, 0.75))
broadcast_certs = clone_certs + (
    ch.depolarizing_channel(2, 1.0),
    ch.multimap_from_function(lambda x: linalg.partial_trace(x, (2, 2), 0), (4,), 2),
)
no_clone = ideals.IdealSpec("no-clone-certificates", "certificate-list", members=clone_certs)
no_broadcast = ideals.IdealSpec("no-broadcast-certificates", "certificate-list", members=broadcast_certs)
chain = ideals.ideal_inclusion_check(no_clone, no_broadcast, pool + list(broadcast_certs))
print("no-clone inside no-broadcast:", chain["passed"], " inner members:", chain["inner_members"])

# ---- a formal cloning generator and the quotient ------------------------------

# Clone_2 is syntax only: no linear action is ever assigned to it
clone = ideals.clone_generator(2)
g = op.OperadSymbol("g", 1)
pair = op.OperadSymbol("pair", 1, ((2,), 4))
spec = ideals.adjoin_formal(op.OperadSpec((g, pair, op.OperadSymbol("id", 1))), clone)
# output dims are mixed (pair lands in M_4), so no carrier is declared
e00 = linalg.matrix_unit(2, 0, 0)
interp = op.Interpretation(
    spec,
    {
        "g": ch.channel_multimap(dep),
        # honest linear stand-in for duplication: pair with a fixed state
        "pair": ch.multimap_from_function(lambda x: np.kron(x, e00), (2,), 4),
        "id": ch.identity_multimap(2),
    },
)

# terms mentioning the formal generator collapse to a bottom symbol in the
# quotient; terms built from non-members survive untouched.  g(?0) would
# collapse too: g is the depolarizing channel, a member of the ideal, while
# id is isometric and so not a member
t_formal = op.Apply(spec[clone.name], (op.Apply(g, (op.Leaf(0),)),))
t_plain = op.Apply(spec["id"], (op.Leaf(0),))
print("formal term collapses:", ideals.contains_bottom(ideals.quotient(t_formal, noniso, interp, leaf_dim=2)))
print("plain term survives:", not ideals.contains_bottom(ideals.quotient(t_plain, noniso, interp, leaf_dim=2)))

# the pairing map has the right shape for a cloner but not the behavior:
# the fixed frame of pure states holds one it does not send to P (x) P,
# and the frame holds such a state for every linear map
t_pair = op.Apply(pair, (op.Leaf(0),))
match = ideals.clone_pattern_match(t_pair, interp)
print("cloning pattern matched:", match["matches"], " witness:", match["witness"])

# ---- no linear map broadcasts ------------------------------------------------

# least squares over a fixed frame of pure qubit states: value rows ask
# L(P) = P (x) P, marginal rows ask both partial traces back; the system
# has no exact solution and the residual is the witness
witness = ideals.broadcast_witness(2, state_sample=10)
print("minimal residual:", witness["min_residual"])
print("marginal-only residual:", witness["marginal_only_residual"])
print("held-out validation residual:", witness["validation_residual"])

# the marginal-only system is feasible, so the obstruction really lives in
# the value rows, i.e. in cloning pure states

# mixing two states shows the same obstruction pointwise: cloning the
# mixture differs from mixing the clones by the cross-term expression
rho_1 = linalg.matrix_unit(2, 0, 0)
rho_2 = linalg.matrix_unit(2, 1, 1)
gap, expr = ideals.cloning_mixture_gap(rho_1, rho_2)
print("gap equals quarter of cross term:", bool(np.array_equal(gap, 0.25 * expr)))
print("gap trace norm:", linalg.trace_norm(gap), " vs bound:", 0.25 * linalg.frobenius(expr))
