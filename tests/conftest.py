"""Shared test helpers."""

import numpy as np

from sqcka.attacks import random_table_attack


def a3_random_corpus():
    """Acceptance criterion A3's 100 random attacks, alternately n = 1 and 2,
    each with the random plan A3 draws after it: (n, attack, (pi1, pi2))."""
    rng = np.random.default_rng(303)
    for k in range(100):
        n = 1 + k % 2
        d = 1 << n
        atk = random_table_attack(rng, n)
        yield n, atk, (tuple(rng.permutation(d)), tuple(rng.permutation(d)))


def dense_amps(state):
    """The dense amplitude vector of a ``StateVector``, from its support."""
    out = np.zeros(state.dim, dtype=complex)
    out[state.index] = state.values
    return out


def density(state):
    """The dense density matrix |psi><psi| of a ``StateVector``."""
    amps = dense_amps(state)
    return np.outer(amps, amps.conj())


def eve_branch_gram_exact(state, layout):
    """Unnormalized overlaps of Eve's branch vectors, from a SIFT-round state.

    Rows/columns follow the flat (a, b, b') index; the diagonal carries the
    global-convention squared norms.  Builds the dense state (a reference
    for small n).
    """
    d = layout.dims[layout.axis("T")]
    psi = dense_amps(state).reshape(layout.dims)
    psi = np.moveaxis(psi, (layout.axis("A"), layout.axis("B"), layout.axis("T")),
                      (0, 1, 2))
    vecs = psi.reshape(2 * d * d, -1)
    return vecs @ vecs.conj().T


def catalogue_family(cat, a, b, c):
    """Family of the Eve branch (a, b, c) in an ``EveVectorCatalogue``:
    whether b is the all-equal string of a, and whether c equals b."""
    va = 0 if a == 0 else cat.d - 1
    if b == va:
        return "aaa" if c == b else "aac"
    return "abb" if c == b else "abc"
