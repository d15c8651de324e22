"""Seeded random instances: unitaries, states, channels and dilations.

Every generator takes an explicit numpy Generator; nothing here touches
global entropy, so identical seeds give identical objects.
"""

from __future__ import annotations

import numpy as np

from . import channels, linalg
from .errors import DimensionMismatchError


def ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(rng, d, d))
    # fix the phase gauge so the distribution is Haar
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_isometry(rng, rows: int, cols: int) -> np.ndarray:
    if rows < cols:
        raise DimensionMismatchError("an isometry needs rows >= cols")
    q, r = np.linalg.qr(ginibre(rng, rows, cols))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure(rng, d: int) -> np.ndarray:
    v = ginibre(rng, d, 1).reshape(-1)
    return v / np.linalg.norm(v)


def random_density(rng, d: int) -> np.ndarray:
    w = ginibre(rng, d, d)
    rho = w @ linalg.dagger(w)
    return rho / np.trace(rho)


def random_hermitian(rng, d: int) -> np.ndarray:
    w = ginibre(rng, d, d)
    return (w + linalg.dagger(w)) / 2


def random_cptp(rng, in_dim: int, out_dim: int, kraus_rank: int | None = None) -> channels.KrausSet:
    r = kraus_rank or min(in_dim * out_dim, max(2, in_dim))
    # trace preservation forces out_dim * rank >= in_dim
    r = max(r, -(-in_dim // out_dim))
    v = random_isometry(rng, out_dim * r, in_dim)
    ops = tuple(v.reshape(out_dim, r, in_dim)[:, a, :] for a in range(r))
    return channels.KrausSet(ops)


def random_channel(rng, in_dim: int, out_dim: int, kraus_rank: int | None = None) -> channels.QuantumChannel:
    return channels.choi_of(random_cptp(rng, in_dim, out_dim, kraus_rank))


def random_separable_dilation(
    rng,
    algebra_dims: tuple[int, ...],
    source_dim: int,
    multiplicities: tuple[int, ...] | None = None,
) -> channels.MultilinearDilation:
    """Dilation with carrier (d_1 r_1) (x) ... (x) (d_n r_n), slot j acting
    as a (x) I on factor j, and a random isometric embedding of the
    source."""
    dims = tuple(int(d) for d in algebra_dims)
    mult = tuple(multiplicities) if multiplicities else tuple(1 for _ in dims)
    reps, factors = channels._factor_reps(dims, mult)
    carrier = int(np.prod(factors))
    if carrier < source_dim:
        raise DimensionMismatchError("carrier smaller than the source space")
    return channels.MultilinearDilation(reps, random_isometry(rng, carrier, source_dim), factors)
