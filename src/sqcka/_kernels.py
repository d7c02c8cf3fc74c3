"""Hot statevector kernels, in plain numpy.

Two operations dominate the exact-simulation runtime: applying a small
operator to a block of subsystem axes of a large statevector, and
accumulating marginal probabilities over a subset of axes.  The first is a
``transpose`` + matrix multiplication, or an index gather when the operator
is a basis permutation; the second a ``reshape`` + ``sum``.

``apply_matrix`` returns a fresh contiguous array that nothing else
references; :class:`~sqcka.qmath.StateVector` takes over that buffer
without copying it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Kept for callers that report the kernel implementation; numba is not used.
HAVE_NUMBA = False


def backend_name() -> str:
    return "numpy"


def apply_matrix(amps: np.ndarray, dims: Sequence[int], axes: Sequence[int],
                 matrix: np.ndarray) -> np.ndarray:
    """Apply ``matrix`` to the ``axes`` block of a flat amplitude array.

    A 1-D ``matrix`` is a basis permutation (block basis state j goes to
    ``matrix[j]``), applied as the row gather ``[argsort(matrix)]``.
    """
    dims = tuple(dims)
    nax = len(dims)
    order = list(axes) + [i for i in range(nax) if i not in axes]
    psi = amps.reshape(dims).transpose(order)
    m = matrix.shape[0]
    # one expression each, so the reshaped copy of psi is freed at once
    if matrix.ndim == 1:
        out = psi.reshape(m, -1)[np.argsort(matrix)]
    else:
        out = matrix @ psi.reshape(m, -1)
    out = out.reshape([dims[i] for i in order])
    inv = np.argsort(order)
    return np.ascontiguousarray(out.transpose(inv)).reshape(-1)


def axis_probabilities(amps: np.ndarray, dims: Sequence[int],
                       axes: Sequence[int]) -> np.ndarray:
    """Marginal |amplitude|^2 distribution over ``axes``, in axis order."""
    dims = tuple(dims)
    prob = (amps.real ** 2 + amps.imag ** 2).reshape(dims)
    drop = tuple(i for i in range(len(dims)) if i not in axes)
    prob = prob.sum(axis=drop)
    # remaining axes are in layout order; permute to the requested order
    kept_sorted = sorted(axes)
    perm = [kept_sorted.index(ax) for ax in axes]
    return np.ascontiguousarray(prob.transpose(perm)).reshape(-1)
