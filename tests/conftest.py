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
