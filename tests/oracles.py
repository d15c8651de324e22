"""Constructions the library no longer uses, kept as test oracles."""

import numpy as np

from operaq import linalg


def superop_kron(superops, dims_in, dims_out):
    """Joint vec-side matrix of a tensor product of operator maps.

    superops[i] sends vec(M_{dims_in[i]}) to vec(M_{dims_out[i]}); the result
    acts on vec of the joint operator space M_{prod dims_in}.  It equals
    mingle(dims_out) @ kron_all(superops) @ mingle(dims_in).T.
    """
    gather = np.ix_(linalg.mingle_index(dims_out), linalg.mingle_index(dims_in))
    return linalg.kron_all(superops)[gather]
