"""Hot statevector kernels, in plain numpy, on a state's nonzero support.

A state is carried as its support: the flat (big-endian) basis indices of
its nonzero amplitudes and the amplitudes themselves.  Two operations
dominate the exact-simulation runtime, and both work on the support alone:
applying a small operator to a block of subsystem axes, and accumulating
marginal probabilities over a subset of axes.  A basis permutation is index
arithmetic (each index's target coordinates are permuted, the others kept);
a unitary matrix multiplies a (target, remaining coordinates) table that
holds only the remaining coordinates the support has.  A marginal is a
``bincount`` of the target coordinates.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Kept for callers that report the kernel implementation; numba is not used.
HAVE_NUMBA = False


def backend_name() -> str:
    return "numpy"


def split_axes(index: np.ndarray, dims: Sequence[int], axes: Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each flat index as ``base + offset[block]``.

    ``block`` is the basis state of the ``axes`` block (big-endian in the
    given order), ``base`` the index with those coordinates set to 0, and
    ``offset[j]`` the flat offset of block state j.
    """
    dims = tuple(dims)
    tdims = [dims[a] for a in axes]
    coords = np.unravel_index(index, dims)
    block = np.ravel_multi_index([coords[a] for a in axes], tdims)
    strides = [math.prod(dims[a + 1:]) for a in axes]
    digits = np.unravel_index(np.arange(math.prod(tdims)), tdims)
    offset = sum(dg * s for dg, s in zip(digits, strides))
    return block, index - offset[block], offset


def apply_matrix(index: np.ndarray, dims: Sequence[int], axes: Sequence[int],
                 matrix: np.ndarray, amps: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``matrix`` to the ``axes`` block of the support ``(index, amps)``.

    A 1-D ``matrix`` is a basis permutation (block basis state j goes to
    ``matrix[j]``): only the indices change.  A 2-D one multiplies the
    (block state, remaining coordinates) table of the support; the result
    lists every block state for each remaining coordinate the input has,
    zeros included.
    """
    block, base, offset = split_axes(index, dims, axes)
    if matrix.ndim == 1:
        return base + offset[matrix[block]], amps
    rest, col = np.unique(base, return_inverse=True)
    psi = np.zeros((matrix.shape[0], rest.size), dtype=np.complex128)
    psi[block, col] = amps
    return (offset[:, None] + rest).reshape(-1), (matrix @ psi).reshape(-1)


def axis_probabilities(index: np.ndarray, dims: Sequence[int], axes: Sequence[int],
                       amps: np.ndarray) -> np.ndarray:
    """Marginal |amplitude|^2 distribution over ``axes``, in the given axis order."""
    block, _, offset = split_axes(index, dims, axes)
    return np.bincount(block, weights=amps.real ** 2 + amps.imag ** 2,
                       minlength=offset.size)
