"""Choi matrices, Kraus decompositions, and minimal dilations.

Walks the full representation cycle for completely positive maps, shows
the uniqueness of the minimal dilation through an explicit intertwiner,
and walks Stinespring's theorem for a bilinear CP map: existence,
minimality, uniqueness and the n-adjoint.
"""

import numpy as np

from operaq import channels as ch
from operaq import sampling

rng = np.random.default_rng(11)

# ---- complete positivity read off the Choi matrix --------------------------

transpose = ch.choi_of(ch.transpose_multimap(2))
print("transpose Choi min eigenvalue:", ch.choi_min_eigenvalue(transpose))
print("transpose is CP:", ch.is_cp(transpose))

# anything assembled from Kraus operators is CP by construction
ks = sampling.random_cptp(rng, 3, 2)
phi = ch.choi_of(ks)
print("random Kraus channel is CP:", ch.is_cp(phi), " TP:", ch.is_tp(phi))

# ---- Choi -> Kraus -> Stinespring -> Choi ----------------------------------

recovered = ch.kraus_from_choi(phi)
r = len(recovered.operators)
print("Kraus rank:", r)

# V = sum_k K_k (x) e_k: rows (output, environment), one Kraus operator per
# environment level
v = ch.stinespring_isometry(recovered)
print("environment dim:", v.shape[0] // 2)
print("isometry defect:", float(np.max(np.abs(v.conj().T @ v - np.eye(3)))))

back = ch.choi_of(ch.KrausSet(tuple(np.swapaxes(v.reshape(2, r, 3), 0, 1))))
print("roundtrip Choi error:", float(np.max(np.abs(back.choi - phi.choi))))

# ---- minimal dilations and their uniqueness --------------------------------

# Heisenberg picture: a |-> sum K^dag a K, dilated through a carrier that
# the algebra acts on; minimization compresses to the generated subspace
square = sampling.random_cptp(rng, 2, 2, kraus_rank=2)
minimal = ch.minimal_dilation(ch.heisenberg_dilation(square))
print("minimal carrier dim:", minimal.carrier_dim)

padded = ch.pad_dilation(minimal, 3)
print("padded carrier dim:", padded.carrier_dim)
print("re-minimized carrier dim:", ch.minimal_dilation(padded).carrier_dim)

# a unitarily remixed Kraus set presents the same map; the intertwiner
# between the two minimal dilations is then a unitary
rank = len(square.operators)
u_mix = sampling.random_unitary(rng, rank)
remixed = ch.KrausSet(
    tuple(sum(u_mix[b, a] * square.operators[a] for a in range(rank)) for b in range(rank))
)
other = ch.minimal_dilation(ch.heisenberg_dilation(remixed))
u, report = ch.intertwiner(minimal, other)
print("intertwiner shape:", u.shape)
print("isometry defect:", report["isometry_defect"])
print("co-isometry defect:", report["co_isometry_defect"])
print("intertwining residual:", report["intertwining_residual"])

# ---- Stinespring's theorem for a bilinear CP map --------------------------

# a CP map M_2 x M_2 -> M_3: a channel on M_4 with its input read as two slots
bilinear = ch.channel_multimap(sampling.random_cptp(rng, 4, 3, 2), (2, 2))
rank = ch.kraus_rank(ch.choi_of(bilinear))

# existence: Phi(a, b) = V^dag pi_1(a) pi_2(b) V, with pi_1 and pi_2 acting
# on different factors of the carrier C^2 (x) C^2 (x) C^rank
dil = ch.heisenberg_dilation(bilinear)
rebuilt = ch.dilation_multimap(dil)
print("bilinear carrier factors:", dil.factor_dims)
a = sampling.random_hermitian(rng, 2)
b = sampling.random_hermitian(rng, 2)
gap = ch.apply_ops(rebuilt, [a, b]) - ch.apply_ops(bilinear, [a, b])
print("rebuilt map error:", float(np.max(np.abs(gap))))

# minimality: the vectors pi_1(a) pi_2(b) V h already span the carrier
small = ch.minimal_dilation(dil)
print("minimal carrier dim equals 4 * rank:", small.carrier_dim == 4 * rank)

# uniqueness: into a padded copy the intertwiner is an isometry that is not
# onto, so the padded dilation is not minimal
u, report = ch.intertwiner(small, ch.pad_dilation(dil, 2))
print("intertwiner shape:", u.shape)
print("isometry defect:", report["isometry_defect"])
print("co-isometry defect:", report["co_isometry_defect"])
print("intertwining residual:", report["intertwining_residual"])

# the n-adjoint takes (G, F) in M_3 x M_2 to M_2; the pairing is
# sesquilinear, so one comparison of the map read off the Kraus-tensor
# factors with the map read back off the adjoint decides it
adj = ch.n_adjoint(rebuilt)
print("n-adjoint profile:", adj.input_operator_dims, "->", adj.output_operator_dim)
print("pairing residual:", ch.n_adjoint_pairing_residual(ch.kraus_tensor_decompose(dil), adj))

# V^dag V = Phi(I, I): the isometry is isometric exactly when Phi is unital
unital = bool(np.allclose(ch.apply_ops(bilinear, [np.eye(2), np.eye(2)]), np.eye(3)))
print("isometric:", ch.zigzag_check(dil)["isometric"], " unital:", unital)

# ---- two constructions, one minimal dilation -------------------------------

# a separable dilation drawn at random dilates some bilinear CP map; the
# builder's dilation of that map is unitarily equivalent to it
sep = sampling.random_separable_dilation(rng, (2, 2), 3, (2, 1))
built = ch.minimal_dilation(ch.heisenberg_dilation(ch.dilation_multimap(sep)))
u, report = ch.intertwiner(built, sep)
print("carrier dims, built and drawn:", built.carrier_dim, sep.carrier_dim)
print("co-isometry defect:", report["co_isometry_defect"])
