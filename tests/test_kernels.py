"""Statevector kernels against dense references built from plain linear algebra.

``apply_matrix`` is checked against the full operator (``np.kron`` with the
identity, conjugated by the axis permutation), for unitary matrices and for
basis permutations (the dense reference has ``P[perm[j], j] = 1``);
``axis_probabilities`` against a direct ``reshape(dims)`` + ``sum`` of the
squared amplitudes.
"""

import numpy as np
import pytest

from sqcka import _kernels


def random_case(rng, dims, axes):
    total = int(np.prod(dims))
    amps = rng.normal(size=total) + 1j * rng.normal(size=total)
    m = int(np.prod([dims[a] for a in axes]))
    mat = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
    return amps, mat


def dense_operator(dims, axes, mat):
    """``mat`` on ``axes`` (big-endian in the given order), identity elsewhere."""
    order = list(axes) + [i for i in range(len(dims)) if i not in axes]
    total = int(np.prod(dims))
    src = np.arange(total).reshape(dims).transpose(order).ravel()
    perm = np.zeros((total, total))
    perm[np.arange(total), src] = 1.0
    rest = total // mat.shape[0]
    return perm.T @ np.kron(mat, np.eye(rest)) @ perm


def dense_probabilities(amps, dims, axes):
    prob = (np.abs(amps) ** 2).reshape(dims)
    prob = np.moveaxis(prob, list(axes), list(range(len(axes))))
    m = int(np.prod([dims[a] for a in axes]))
    return prob.reshape(m, -1).sum(axis=1)


CASES = [
    ((2, 2), (0,)),
    ((2, 2), (1,)),
    ((2, 3, 4), (1,)),
    ((2, 3, 4), (0, 2)),
    ((2, 2, 2, 2, 2), (1, 3)),
    ((4, 2, 4, 2), (0, 3)),
    ((2, 8, 2, 8, 2), (0, 2, 4)),
    ((2, 3, 4), (2, 0)),
]


def random_cycle(rng, m):
    """A random permutation made of one m-cycle: no involution when m > 2."""
    cyc = rng.permutation(m)
    perm = np.empty(m, dtype=np.int64)
    perm[cyc] = np.roll(cyc, -1)
    return perm


# explicit ids keep the unitary cases' ids independent of the added kind
APPLY_CASES = (
    [pytest.param(dims, axes, "unitary", id=f"dims{i}-axes{i}")
     for i, (dims, axes) in enumerate(CASES)]
    + [pytest.param(dims, axes, "perm", id=f"perm-dims{i}-axes{i}")
       for i, (dims, axes) in enumerate(CASES)])


@pytest.mark.parametrize("dims,axes,kind", APPLY_CASES)
def test_apply_matrix_backends_agree(dims, axes, kind):
    """The kernel and the dense-operator reference give the same state.

    The permutations are single cycles; on the unsorted-axes case (2, 0)
    that is an 8-cycle, which no involution confuses with its inverse, so
    it pins both the gather's direction and the axis order.
    """
    rng = np.random.default_rng(hash((dims, axes)) % 2 ** 31)
    amps, mat = random_case(rng, dims, axes)
    if kind == "perm":
        perm = random_cycle(rng, mat.shape[0])
        mat = np.zeros(mat.shape)
        mat[perm, np.arange(perm.size)] = 1.0
        out = _kernels.apply_matrix(amps, dims, axes, perm)
    else:
        out = _kernels.apply_matrix(amps, dims, axes, mat)
    np.testing.assert_allclose(out, dense_operator(dims, axes, mat) @ amps, atol=1e-13)


@pytest.mark.parametrize("dims,axes", CASES)
def test_axis_probabilities_backends_agree(dims, axes):
    """The kernel and the reshape-sum reference give the same marginal."""
    rng = np.random.default_rng(hash(("p", dims, axes)) % 2 ** 31)
    amps, _ = random_case(rng, dims, axes)
    out = _kernels.axis_probabilities(amps, dims, axes)
    np.testing.assert_allclose(out, dense_probabilities(amps, dims, axes), atol=1e-13)


def test_apply_matrix_matches_dense_kron():
    # one-qubit gate on the middle of three registers, against the full matrix
    rng = np.random.default_rng(5)
    dims = (2, 2, 3)
    amps, _ = random_case(rng, dims, (0,))
    gate = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    full = np.kron(np.kron(np.eye(2), gate), np.eye(3))
    out = _kernels.apply_matrix(amps, dims, (1,), gate)
    np.testing.assert_allclose(out, full @ amps, atol=1e-13)


def test_axis_probabilities_order_follows_request():
    rng = np.random.default_rng(6)
    dims = (2, 3, 4)
    amps, _ = random_case(rng, dims, (0,))
    p_ab = _kernels.axis_probabilities(amps, dims, (0, 1)).reshape(2, 3)
    p_ba = _kernels.axis_probabilities(amps, dims, (1, 0)).reshape(3, 2)
    np.testing.assert_allclose(p_ab, p_ba.T, atol=1e-14)
    np.testing.assert_allclose(p_ba.ravel(), dense_probabilities(amps, dims, (1, 0)),
                               atol=1e-14)
