"""Choi matrices, Kraus decompositions, and minimal dilations.

Walks the full representation cycle for completely positive maps and shows
the uniqueness of the minimal dilation through an explicit intertwiner.
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
print("Kraus rank:", len(recovered.operators))

dil = ch.stinespring_from_kraus(recovered)
print("environment dim:", dil.env_dim)

back = ch.channel_from_dilation(dil)
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
r = len(square.operators)
u_mix = sampling.random_unitary(rng, r)
remixed = ch.KrausSet(
    tuple(sum(u_mix[b, a] * square.operators[a] for a in range(r)) for b in range(r))
)
other = ch.minimal_dilation(ch.heisenberg_dilation(remixed))
u, report = ch.intertwiner(minimal, other)
print("intertwiner shape:", u.shape)
print("isometry defect:", report["isometry_defect"])
print("co-isometry defect:", report["co_isometry_defect"])
print("intertwining residual:", report["intertwining_residual"])

# ---- tensor decomposition of a separable bilinear CP map -------------------

sep = sampling.random_separable_dilation(rng, (2, 2), 3, (2, 1))
decomp = ch.kraus_tensor_decompose(sep)
print("decomposition size:", len(decomp.t))

a = sampling.random_hermitian(rng, 2)
b = sampling.random_hermitian(rng, 2)
direct = ch.dilation_reconstruct(sep, [a, b])
via = ch.decomposition_apply(decomp, [a, b])
print("T.L reconstruction error:", float(np.max(np.abs(via - direct))))

# the n-adjoint is the dagger adjoint of the map on vectorized slots; the
# residual pairs the Kraus-tensor factorisation against it
adj = ch.n_adjoint(ch.dilation_multimap(sep))
print("pairing residual:", ch.n_adjoint_pairing_residual(decomp, adj, trials=10, seed=3))

zig = ch.zigzag_check(sep)
print("isometric:", zig["isometric"], " zigzag defect:", zig["zigzag_defect"])
