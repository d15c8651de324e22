"""Operadic terms, the synergy monad, and operational equivalence.

Terms are syntax trees over named generators; interpretations assign each
generator a linear action on operator slots, and the monad layers formal
sums and decorations on top.
"""

import numpy as np

from operaq import channels as ch
from operaq import linalg, monad, operad as op
from operaq import sampling

rng = np.random.default_rng(23)

# ---- terms and structural laws ---------------------------------------------

f = op.OperadSymbol("f", 2)
g = op.OperadSymbol("g", 1)

# f(g(?0), ?1): grafting via gamma, slots relabeled left to right
t = op.gamma(op.Apply(f, (op.Leaf(0), op.Leaf(1))), [op.Apply(g, (op.Leaf(0),)), op.Leaf(0)])
print("term arity:", op.arity(t))

# the symmetric action permutes slots; composing actions composes perms
swapped = op.sigma_act((1, 0), t)
print("slot labels after swap:", op.leaf_labels(swapped))

report = op.operad_axiom_suite([f, g], trials=200, seed=1)
print("operad law violations:", len(report["violations"]), "of", report["checks"])

laws = monad.monad_law_suite([f, g], trials=200, seed=2)
print("monad law violations:", len(laws["violations"]), "of", laws["checks"])

# ---- interpreting terms over a qubit carrier --------------------------------


spec = op.OperadSpec((f, g, op.OperadSymbol("id", 1)))
interp = op.Interpretation(
    spec,
    {
        # (a, b) -> Phi(a (x) b) out of a channel on the product space
        "f": ch.channel_multimap(sampling.random_channel(rng, 4, 2), (2, 2)),
        "g": ch.channel_multimap(sampling.random_channel(rng, 2, 2)),
        "id": ch.identity_multimap(2),
    },
    carrier_dim=2,
)

mm = op.interpret(interp, t, leaf_dim=2)
print("interpreted action:", mm.input_operator_dims, "->", mm.output_operator_dim)

# ---- algebra evaluation and the algebra laws --------------------------------

# the interpretation is the algebra: algebra_eval is its structure map
v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
print("unit law deviation:", float(np.max(np.abs(monad.algebra_eval(interp, monad.unit(v)) - v))))

x = monad.random_element(rng, [f, g], dim=2, depth=2, term_depth=1)
lhs = monad.algebra_eval(interp, monad.mu(x))
rhs = monad.algebra_eval(interp, monad.t_map(lambda el: monad.algebra_eval(interp, el), x))
print("multiplication law residual:", float(linalg.frobenius(lhs - rhs)))

# ---- operational equivalence of channel presentations ------------------------

phi = sampling.random_channel(rng, 2, 2, kraus_rank=3)
ops = ch.kraus_from_choi(phi).operators
u_mix = sampling.random_unitary(rng, len(ops))
remixed = ch.KrausSet(
    tuple(sum(u_mix[b, a] * ops[a] for a in range(len(ops))) for b in range(len(ops)))
)
phi_remixed = ch.choi_of(remixed)

# exact: every decorated term counts, the unit term (the bare slot) included
verdict = monad.operational_equivalence(phi, phi_remixed, interp)
print("remixed presentation equivalent:", verdict["equivalent"])

other = sampling.random_channel(rng, 2, 2)
verdict = monad.operational_equivalence(phi, other, interp)
print("distinct channel separated:", not verdict["equivalent"])
if verdict["witness"]:
    print("witness residual:", verdict["witness"]["residual"])
print("residual on the span of symbol-rooted terms:", verdict["range_residual"])

# ---- realizing a channel as a circuit ----------------------------------------

dep = ch.depolarizing_channel(2, 0.75)
circuit, boxes = monad.stinespring_circuit(dep)
print("circuit boxes:", [b.symbol for b in circuit.boxes])
realized = monad.circuit_channel(circuit, boxes, 2)
print("realization Choi distance:", ch.channel_distance_bound(realized, dep))

# ---- composing circuits --------------------------------------------------------

# two qubit channels as one-box circuits: parallel composition realizes their
# tensor product, sequential composition their composite
a = sampling.random_channel(rng, 2, 2)
b = sampling.random_channel(rng, 2, 2)
boxes = {"a": ch.channel_multimap(a), "b": ch.channel_multimap(b)}
box_a, box_b = op.generator_circuit("a", 1), op.generator_circuit("b", 1)
side_by_side = monad.circuit_channel(op.circuit_parallel(box_a, box_b), boxes, (2, 2))
print("parallel vs channel_kron:", linalg.frobenius(side_by_side.choi - ch.channel_kron(a, b).choi))

# interchange law: a on the first wire, then b on the second, is the same
# process as both at once
wire = op.identity_circuit(1)
staggered = op.circuit_compose(op.circuit_parallel(wire, box_b), op.circuit_parallel(box_a, wire))
staggered_channel = monad.circuit_channel(staggered, boxes, (2, 2))
print("interchange deviation:", linalg.frobenius(staggered_channel.choi - side_by_side.choi))

# b after a on one wire against the product of their superoperators
in_sequence = monad.circuit_channel(op.circuit_compose(box_b, box_a), boxes, 2)
product = boxes["b"].action_matrix @ boxes["a"].action_matrix
composite = ch.choi_of(ch.OperatorMultiMap((2,), 2, product))
print("sequential vs composite:", linalg.frobenius(in_sequence.choi - composite.choi))

# the representation of the product channel is the product of the
# representations, on product generators
compat = monad.monoidal_compat_check(a, b, interp, trials=10, seed=7)
print("monoidal compatibility:", compat["passed"], " residual:", compat["max_residual"])
