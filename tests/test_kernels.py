"""Support kernels against dense references built from plain linear algebra.

The kernels take a state's support (flat indices and the amplitudes there).
``apply_matrix`` is checked against the full operator (``np.kron`` with the
identity, conjugated by the axis permutation) applied to the dense vector,
for unitary matrices and for basis permutations (the dense reference has
``P[perm[j], j] = 1``); ``axis_probabilities`` against a direct
``reshape(dims)`` + ``sum`` of the squared dense amplitudes.  Each case runs
on a dense input (every index listed) and on sparse ones: a random zero
pattern, a single nonzero, and a support that lists a ``-0.0`` amplitude.
"""

import numpy as np
import pytest

from sqcka import _kernels

PATTERNS = ("dense", "zeros", "single", "negzero")


def random_case(rng, dims, axes, pattern="dense"):
    """Dense amplitudes, the support the kernels get, and a random unitary."""
    total = int(np.prod(dims))
    amps = rng.normal(size=total) + 1j * rng.normal(size=total)
    if pattern == "zeros":
        amps[rng.random(total) < 0.6] = 0.0
        amps[rng.integers(total)] = 1.0  # never all zero
    elif pattern == "single":
        amps = np.zeros(total, dtype=complex)
        amps[rng.integers(total)] = 0.6 + 0.8j
    elif pattern == "negzero":
        amps[rng.random(total) < 0.5] = 0.0
        amps[rng.integers(total)] = -0.0
    # the -0.0 amplitude is listed in the support; other zeros are not
    index = np.flatnonzero((amps != 0) | np.signbit(amps.real))
    m = int(np.prod([dims[a] for a in axes]))
    mat = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
    return amps, (index, amps[index]), mat


def dense(index, values, total):
    """The dense vector of a kernel's output support (each index listed once)."""
    assert np.unique(index).size == index.size
    out = np.zeros(total, dtype=complex)
    out[index] = values
    return out


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


def seed(key, pattern):
    """The dense cases keep their seeds; each sparse pattern gets its own."""
    return hash(key if pattern == "dense" else key + (PATTERNS.index(pattern),)) % 2 ** 31


def _prefix(pattern):
    return "" if pattern == "dense" else f"{pattern}-"


# explicit ids keep the dense unitary cases' ids independent of the added
# kinds and patterns
APPLY_CASES = [
    pytest.param(dims, axes, kind, pattern,
                 id=f"{'perm-' if kind == 'perm' else ''}{_prefix(pattern)}dims{i}-axes{i}")
    for kind in ("unitary", "perm") for pattern in PATTERNS
    for i, (dims, axes) in enumerate(CASES)]

PROB_CASES = [pytest.param(dims, axes, pattern, id=f"{_prefix(pattern)}dims{i}-axes{i}")
              for pattern in PATTERNS for i, (dims, axes) in enumerate(CASES)]


@pytest.mark.parametrize("dims,axes,kind,pattern", APPLY_CASES)
def test_apply_matrix_backends_agree(dims, axes, kind, pattern):
    """The kernel and the dense-operator reference give the same state.

    The permutations are single cycles; on the unsorted-axes case (2, 0)
    that is an 8-cycle, which no involution confuses with its inverse, so
    it pins both the permutation's direction and the axis order.
    """
    rng = np.random.default_rng(seed((dims, axes), pattern))
    amps, (index, values), mat = random_case(rng, dims, axes, pattern)
    if kind == "perm":
        perm = random_cycle(rng, mat.shape[0])
        mat = np.zeros(mat.shape)
        mat[perm, np.arange(perm.size)] = 1.0
        out = _kernels.apply_matrix(index, dims, axes, perm, values)
        assert out[1] is values  # a permutation moves indices only
    else:
        out = _kernels.apply_matrix(index, dims, axes, mat, values)
    np.testing.assert_allclose(dense(*out, amps.size), dense_operator(dims, axes, mat) @ amps,
                               atol=1e-13)


@pytest.mark.parametrize("dims,axes,pattern", PROB_CASES)
def test_axis_probabilities_backends_agree(dims, axes, pattern):
    """The kernel and the reshape-sum reference give the same marginal."""
    rng = np.random.default_rng(seed(("p", dims, axes), pattern))
    amps, (index, values), _ = random_case(rng, dims, axes, pattern)
    out = _kernels.axis_probabilities(index, dims, axes, values)
    np.testing.assert_allclose(out, dense_probabilities(amps, dims, axes), atol=1e-13)


def test_apply_matrix_matches_dense_kron():
    # one-qubit gate on the middle of three registers, against the full matrix
    rng = np.random.default_rng(5)
    dims = (2, 2, 3)
    amps, (index, values), _ = random_case(rng, dims, (0,))
    gate = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    full = np.kron(np.kron(np.eye(2), gate), np.eye(3))
    out = _kernels.apply_matrix(index, dims, (1,), gate, values)
    np.testing.assert_allclose(dense(*out, amps.size), full @ amps, atol=1e-13)


def test_axis_probabilities_order_follows_request():
    rng = np.random.default_rng(6)
    dims = (2, 3, 4)
    amps, (index, values), _ = random_case(rng, dims, (0,))
    p_ab = _kernels.axis_probabilities(index, dims, (0, 1), values).reshape(2, 3)
    p_ba = _kernels.axis_probabilities(index, dims, (1, 0), values).reshape(3, 2)
    np.testing.assert_allclose(p_ab, p_ba.T, atol=1e-14)
    np.testing.assert_allclose(p_ba.ravel(), dense_probabilities(amps, dims, (1, 0)),
                               atol=1e-14)
