"""Shared test helpers."""

import numpy as np

from sqcka.attacks import ConditionalChannelTable, attack_from_tables


def random_table_attack(rng, n):
    """Dirichlet tables and a random PSD Gram of random rank, for n receivers.

    These are abstract cq states: no unitary round need produce them.
    """
    d = 1 << n
    fwd = rng.dirichlet(np.ones(d), size=2)
    bwd = rng.dirichlet(np.ones(d), size=(2, d))
    dim = 2 * d * d
    vecs = rng.normal(size=(dim, int(rng.integers(2, dim + 1))))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    gram = (vecs @ vecs.T).reshape(2, d, d, 2, d, d)
    return attack_from_tables(ConditionalChannelTable(fwd, bwd), gram)


def a3_random_corpus():
    """Acceptance criterion A3's 100 random attacks, alternately n = 1 and 2,
    each with the random plan A3 draws after it: (n, attack, (pi1, pi2))."""
    rng = np.random.default_rng(303)
    for k in range(100):
        n = 1 + k % 2
        d = 1 << n
        atk = random_table_attack(rng, n)
        yield n, atk, (tuple(rng.permutation(d)), tuple(rng.permutation(d)))


def catalogue_family(cat, a, b, c):
    """Family of the Eve branch (a, b, c) in an ``EveVectorCatalogue``:
    whether b is the all-equal string of a, and whether c equals b."""
    va = 0 if a == 0 else cat.d - 1
    if b == va:
        return "aaa" if c == b else "aac"
    return "abb" if c == b else "abc"
