"""Hot statevector kernels, in plain numpy, on a state's nonzero support.

A state is carried as its support: the flat (big-endian) basis indices of
its nonzero amplitudes and the amplitudes themselves.  Two operations
dominate the exact-simulation runtime, and both work on the support alone:
applying a small operator to a block of subsystem axes, and accumulating
marginal probabilities over a subset of axes.  The only operator the exact
routes apply is a basis permutation, and applying one is index arithmetic:
each index's target coordinates are permuted, the others kept, and the
amplitudes do not change.  A marginal is a ``bincount`` of the target
coordinates.
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
                 perm: np.ndarray, amps: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Apply the basis permutation ``perm`` to the ``axes`` block of the
    support ``(index, amps)``: block basis state j goes to ``perm[j]``, so
    only the indices change.

    ``perfbench/spans.py`` wraps this function by name and reads the size
    of its fourth argument, so the name and the argument order stay.
    """
    block, base, offset = split_axes(index, dims, axes)
    return base + offset[perm[block]], amps


def axis_probabilities(index: np.ndarray, dims: Sequence[int], axes: Sequence[int],
                       amps: np.ndarray) -> np.ndarray:
    """Marginal |amplitude|^2 distribution over ``axes``, in the given axis order."""
    block, _, offset = split_axes(index, dims, axes)
    return np.bincount(block, weights=amps.real ** 2 + amps.imag ** 2,
                       minlength=offset.size)
