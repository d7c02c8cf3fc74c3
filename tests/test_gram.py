"""The block-structured Eve Gram: splitting, caps, and its consumers.

The exact oracle is checked against the dense oracle it replaced and
against the full-block oracle that preceded the per-sender-bit one, the
dense split against the entry-list split it replaced (which now orders
its blocks by size), the stacks against the gather that preceded their
views, the entry listing against the divmod listing it replaced, all kept
here verbatim otherwise, and the pairing bound against the oracles at the
sizes the paper uses.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sqcka import attacks, keyrate, protocol
from sqcka.attacks import (
    DepolarizingParams,
    EveGram,
    attack_from_tables,
    depolarizing_attack,
    depolarizing_gram,
    depolarizing_tables,
    identity_attack,
    identity_gram,
    joint_az_analytic,
    p_ghz_analytic,
    random_table_attack,
    validate_gram,
)
from sqcka.keyrate import (
    complement_plan,
    depolarizing_entropy_lower,
    exact_entropy_oracle,
    pairing_maximize,
    terms_from_plan,
    theorem1_entropy_bound,
)
from sqcka.qmath import (
    CapacityError,
    RegisterLayout,
    ValidationError,
    conditional_entropy,
    entropy_of_spectrum,
)


def dense_gram_purification(gram: np.ndarray, d: int) -> np.ndarray:
    """The dense purification the oracle used before the Gram had blocks."""
    flat = np.asarray(gram).reshape(2 * d * d, 2 * d * d)
    w, u = np.linalg.eigh(flat)
    if w.min() < -attacks.GRAM_PSD_ATOL:
        raise ValidationError(f"gram is not PSD (min eig {w.min():.3e})")
    keep = w > 1e-12
    return np.sqrt(w[keep])[:, None] * u[:, keep].conj().T


def dense_entropy_oracle(attack) -> float:
    """The exact oracle before the Gram had blocks, kept verbatim as the
    reference: one purification of the whole Gram, one cq state."""
    d = attack.d
    vecs = dense_gram_purification(np.asarray(attack.gram), d)  # (K, 2 d^2)
    k = vecs.shape[0]
    if 2 * k > keyrate.ORACLE_DIM_CAP:
        raise CapacityError(f"oracle state dim {2 * k} exceeds {keyrate.ORACLE_DIM_CAP}")
    weights = attack.tables.weights / 2.0
    rho = np.zeros((2 * k, 2 * k), dtype=np.complex128)
    for a in range(2):
        va = vecs[:, a * d * d:(a + 1) * d * d]
        block = (va * weights[a].reshape(-1)) @ va.conj().T
        rho[a * k:(a + 1) * k, a * k:(a + 1) * k] = block
    layout = RegisterLayout([("A", 2), ("E", k)])
    return conditional_entropy(rho, layout, ("A",), ("E",))


def entry_list_gram(gram, d: int) -> EveGram:
    """The dense split before it gathered blocks, kept verbatim as the
    reference, apart from the block order: every listed entry as an index
    pair, scattered into the blocks, which are ordered by size and then by
    first member."""
    flat = np.asarray(gram, dtype=np.float64).reshape(2 * d * d, 2 * d * d)
    listed = flat != 0.0
    np.fill_diagonal(listed, flat.diagonal() != 1.0)
    attacks._check_gram_entries(int(np.count_nonzero(listed)))
    i, j = np.nonzero(listed)
    v = flat[i, j]
    touched = np.zeros(2 * d * d, dtype=bool)
    touched[i] = touched[j] = True
    nodes = np.flatnonzero(touched)
    at = np.zeros(touched.size, dtype=np.int64)
    at[nodes] = np.arange(nodes.size)
    ni, nj = at[i], at[j]
    _, comp = np.unique(attacks._component_labels(nodes.size, ni, nj), return_inverse=True)
    sizes = np.bincount(comp)
    rank = np.empty_like(sizes)
    rank[np.argsort(sizes, kind="stable")] = np.arange(sizes.size)
    comp = rank[comp]  # components numbered by size, then by first member
    sizes = np.bincount(comp)
    k2 = sizes ** 2
    attacks._check_gram_entries(int(k2.sum()))
    order = np.argsort(comp, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    pos -= (np.cumsum(sizes) - sizes)[comp]
    offsets = np.cumsum(k2) - k2
    values = np.zeros(int(k2.sum()))
    values[offsets[comp] + pos * (sizes[comp] + 1)] = 1.0
    values[offsets[comp[ni]] + pos[ni] * sizes[comp[ni]] + pos[nj]] = v
    return EveGram(d, nodes[order], sizes, values)


def full_block_oracle(attack) -> float:
    """The block oracle before it split rho_AE by sender bit, kept verbatim
    as the reference: rho_AE,c is the block's rho_E,c with the overlaps
    between sender bits zeroed, solved at the block's full size."""
    gram = attack.gram
    weights = attack.tables.weights.reshape(-1) / 2.0
    total = 0.0
    for members, blocks in gram.stacks():
        amp = np.sqrt(weights[members])
        rho_e = amp[:, :, None] * blocks * amp[:, None, :]
        bit = members >= attack.d ** 2
        rho_ae = rho_e * (bit[:, :, None] == bit[:, None, :])
        total += (entropy_of_spectrum(np.linalg.eigvalsh(rho_ae))
                  - entropy_of_spectrum(np.linalg.eigvalsh(rho_e)))
    return total


def gathered_stacks(gram: EveGram):
    """The stacks before adjacent blocks became views, kept verbatim as the
    reference: every stack gathered through an index array."""
    starts, offsets = gram._starts
    for k in sorted(set(gram.sizes.tolist())):
        sel = np.flatnonzero(gram.sizes == k)
        members = gram.members[starts[sel, None] + np.arange(k)]
        blocks = gram.values[offsets[sel, None] + np.arange(k * k)]
        yield members, blocks.reshape(-1, k, k)


def divmod_entries(gram: EveGram):
    """The entry listing before it was built per stack, kept verbatim as the
    reference: a block index, a row and a column for every stored entry."""
    blk = np.repeat(np.arange(gram.sizes.size), gram.sizes ** 2)
    row, col = np.divmod(np.arange(gram.values.size) - gram._starts[1][blk],
                         gram.sizes[blk])
    first = gram._starts[0][blk]
    return gram.members[first + row], gram.members[first + col], gram.values


def assert_same_blocks(got: EveGram, want: EveGram) -> None:
    """Bitwise equality of the stored blocks (a -0.0 differs from +0.0)."""
    for name in ("members", "sizes", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def unit_rows(rng, k, rank):
    vecs = rng.normal(size=(k, rank))
    return vecs / np.linalg.norm(vecs, axis=1)[:, None]


def random_block(rng, k, rank):
    """A k x k unit-diagonal PSD block of at most the given rank."""
    vecs = unit_rows(rng, k, rank)
    block = vecs @ vecs.T
    block = (block + block.T) / 2.0
    np.fill_diagonal(block, 1.0)
    return block


def block_diagonal_gram(rng, d, sizes):
    """A dense Gram whose components have the given sizes, each a random
    PSD block of random rank, over branches in a random order."""
    dense = np.eye(2 * d * d)
    order = rng.permutation(2 * d * d)
    start = 0
    for k in sizes:
        members = order[start:start + k]
        start += k
        dense[np.ix_(members, members)] = random_block(rng, k, int(rng.integers(1, k + 1)))
    return dense.reshape((2, d, d) * 2)


def gram_at_min_eig(rng, k, min_eig):
    """A k x k unit-diagonal Gram whose smallest eigenvalue is ``min_eig``.

    Rows 0 and 1 are the same unit vector, so e0 - e1 spans a null vector
    of the PSD Gram; raising their overlap to 1 - min_eig makes it an
    eigenvector of eigenvalue min_eig, and leaves the rest PSD."""
    vecs = unit_rows(rng, k, 2 * k)
    vecs[1] = vecs[0]
    block = vecs @ vecs.T
    block = (block + block.T) / 2.0
    np.fill_diagonal(block, 1.0)
    block[0, 1] = block[1, 0] = 1.0 - min_eig
    return block


def random_dense_gram(rng, d, rank):
    vecs = rng.normal(size=(2 * d * d, rank))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    return (vecs @ vecs.T).reshape(2, d, d, 2, d, d)


class TestSplit:
    @given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
    def test_dense_round_trip_is_exact(self, n, seed, sparsity):
        # dense -> blocks -> dense gives back the very same array.  The Gram
        # is block-diagonal: branches drawn into different groups get
        # orthogonal vectors, which keeps it PSD (a Schur product of PSD
        # matrices); more groups, a sparser Gram
        rng = np.random.default_rng(seed)
        d = 1 << n
        dense = random_dense_gram(rng, d, int(rng.integers(1, 2 * d * d + 1)))
        group = rng.integers(0, 1 + int(sparsity * 2 * d * d), size=2 * d * d)
        dense.reshape(2 * d * d, -1)[group[:, None] != group] = 0.0
        np.testing.assert_array_equal(np.asarray(validate_gram(dense, d)), dense)

    def test_components_of_a_dense_gram(self):
        # two disjoint overlaps make two 2 x 2 blocks; the rest is identity
        d = 2
        dense = np.eye(8)
        dense[0, 5] = dense[5, 0] = 0.5
        dense[2, 3] = dense[3, 2] = -0.25
        g = validate_gram(dense.reshape((2, d, d) * 2), d)
        np.testing.assert_array_equal(g.members, [0, 5, 2, 3])
        np.testing.assert_array_equal(g.sizes, [2, 2])
        np.testing.assert_array_equal(g.values, [1, 0.5, 0.5, 1, 1, -0.25, -0.25, 1])

    def test_depolarizing_gram_is_one_block(self):
        p = DepolarizingParams(0.1, 0.2, 10)
        g = depolarizing_gram(p)
        d = p.d
        np.testing.assert_array_equal(g.members, [0, 2 * d * d - 1])
        np.testing.assert_array_equal(g.sizes, [2])
        small = DepolarizingParams(0.1, 0.2, 2)
        assert np.array_equal(np.asarray(validate_gram(np.asarray(depolarizing_gram(small)),
                                                       4)),
                              np.asarray(depolarizing_gram(small)))

    def test_block_cap_checked_before_allocation(self, monkeypatch):
        monkeypatch.setattr(attacks, "GRAM_ENTRY_CAP", 3)
        dense = np.eye(8)
        dense[0, 5] = dense[5, 0] = 0.5  # one 2 x 2 block: 4 entries
        with pytest.raises(CapacityError, match="GRAM_ENTRY_CAP"):
            validate_gram(dense.reshape((2, 2, 2) * 2), 2)

    def test_bad_blocks_rejected(self):
        with pytest.raises(ValidationError, match="do not match"):
            EveGram(2, (0, 1), (2,), (1.0, 0.0, 1.0))
        with pytest.raises(ValidationError, match="below 2 d"):
            EveGram(2, (0, 8), (2,), (1.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValidationError, match="distinct branches"):
            EveGram(2, (3, 3), (2,), (1.0, 0.0, 0.0, 1.0))
        # a block may start below the one before it
        EveGram(2, (4, 6, 0, 2), (2, 2), (1.0, 0.5, 0.5, 1.0) * 2)

    def test_members_that_do_not_ascend_refused(self):
        # the oracle splits a block by its count of bit-0 members, which must
        # come first: the same dense Gram with its members interleaved by
        # sender bit would read as another S(A|E)
        gram = random_table_attack(np.random.default_rng(5), 1).gram
        assert gram.sizes.tolist() == [8]
        order = np.array([0, 4, 1, 5, 2, 6, 3, 7])
        block = gram.values.reshape(8, 8)[np.ix_(order, order)]
        with pytest.raises(ValidationError, match="ascend"):
            EveGram(gram.d, gram.members[order], gram.sizes, block)
        with pytest.raises(ValidationError, match="ascend"):
            EveGram(2, (4, 6, 2, 0), (2, 2), (1.0, 0.5, 0.5, 1.0) * 2)

    @pytest.mark.parametrize("values,match", [
        ((1.0, np.nan, np.nan, 1.0), "non-finite"),
        ((1.0, 0.3, 0.2, 1.0), "not symmetric"),
        ((1.0, 0.3, 0.3, 0.9), "diagonal"),
        ((1.0, 5.0, 5.0, 1.0), "not PSD"),
        ((1.0, 0.9, 0.9, 0.9, 1.0, -0.9, 0.9, -0.9, 1.0), "not PSD"),
    ])
    def test_unchecked_blocks_cannot_be_built(self, values, match):
        # every block is checked when the Gram is built, not when it is used
        members = np.arange(int(np.sqrt(len(values)))) * 3
        with pytest.raises(ValidationError, match=match):
            EveGram(2, members, (members.size,), values)

    def test_pairing_refuses_a_dense_gram_that_is_not_psd(self):
        # every overlap has |G| <= 1, yet no unit vectors have them: branch 0
        # is close to 3 and 6, which are far apart (min eigenvalue -0.8)
        dense = np.eye(8)
        block = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        dense[np.ix_([0, 3, 6], [0, 3, 6])] = block
        assert np.linalg.eigvalsh(block).min() == pytest.approx(-0.8)
        with pytest.raises(ValidationError, match="not PSD"):
            pairing_maximize(np.full((2, 2, 2), 0.125), dense.reshape((2, 2, 2) * 2))


def min_propagation_labels(count, u, v):
    """The edge labeler before it hooked roots, kept verbatim as the
    reference: every node takes the smallest label of its neighbours and
    itself, then its label's label, until nothing changes."""
    label = np.arange(count)
    while True:
        low = label.copy()
        np.minimum.at(low, u, label[v])
        np.minimum.at(low, v, label[u])
        low = low[low]  # each label stays a node of the component, never larger
        if np.array_equal(low, label):
            return label
        label = low


def negative_zero_chain(d):
    """A 3-branch chain 6 - 1 - 4 with overlaps 0.4 and -0.0 at its ends,
    and -0.0 for every other zero entry."""
    dense = np.eye(2 * d * d)
    dense[[6, 1], [1, 4]] = dense[[1, 4], [6, 1]] = 0.4
    dense[dense == 0.0] = -0.0
    return dense.reshape((2, d, d) * 2)


def path_gram(d, path, overlap=0.4):
    """The identity with ``overlap`` between consecutive branches of ``path``."""
    dense = np.eye(2 * d * d)
    path = np.asarray(path)
    dense[path[:-1], path[1:]] = dense[path[1:], path[:-1]] = overlap
    return dense.reshape((2, d, d) * 2)


class TestDenseSplit:
    """The gathering split stores the same bits as the entry-list split."""

    @pytest.mark.parametrize("case", [
        "random-n1", "random-n2", "random-n3", "random-n4", "blocks-256-n4",
        "blocks-1024-n5", "identity-n3", "negative-zero-n2", "contracted-path-n2",
    ])
    def test_dense_entry_list_and_file_agree(self, case, tmp_path):
        # members, sizes and values bit for bit: the dense split, the entry-list
        # split, and the dense split's attack dumped to a file and loaded back
        kind, n = case.rsplit("-n", 1)
        n = int(n)
        d = 1 << n
        rng = np.random.default_rng([n, 23])
        dense = {
            "random": lambda: random_dense_gram(rng, d, d * d),
            "blocks-256": lambda: block_diagonal_gram(rng, d, (2,) * 256),
            "blocks-1024": lambda: block_diagonal_gram(rng, d, (2,) * 1024),
            "identity": lambda: np.eye(2 * d * d).reshape((2, d, d) * 2),
            "negative-zero": lambda: negative_zero_chain(d),
            # 5 points to 0 and 1 points to itself: the stars {0, 5} and {1}
            # share the edge 5 - 1, so the edge labeler joins them
            "contracted-path": lambda: path_gram(d, [0, 5, 1, 9, 2]),
        }[kind]()
        got = validate_gram(dense, d)
        assert_same_blocks(got, entry_list_gram(dense, d))
        path = tmp_path / "gram.attack"
        attacks.dump_attack_file(
            attack_from_tables(depolarizing_tables(DepolarizingParams(0.1, 0.2, n)), got), path)
        assert_same_blocks(attacks.load_attack_file(path).gram, got)
        if kind.startswith("blocks"):
            assert got.sizes.tolist() == [2] * (d * d)
        if kind == "identity":
            assert got.sizes.size == 0

    @given(st.integers(1, 60), st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.7]),
           st.sampled_from(["both", "upper", "lower", "path"]), st.integers(0, 2 ** 32 - 1))
    def test_component_labels_equal_the_edge_list_labels(self, n, density, shape, seed):
        # any bool matrix, read either way round: one-sided (asymmetric) entries
        # and long paths in a random order leave stars that the edge labeler joins
        rng = np.random.default_rng(seed)
        listed = rng.random((n, n)) < density
        if shape == "upper":
            listed = np.triu(listed)
        elif shape == "lower":
            listed = np.tril(listed)
        elif shape == "path":
            order = rng.permutation(n)
            listed = np.zeros((n, n), dtype=bool)
            listed[order[:-1], order[1:]] = True
        i, j = np.nonzero(listed)
        np.testing.assert_array_equal(attacks._dense_component_labels(listed),
                                      attacks._component_labels(n, i, j))

    @given(st.integers(1, 300), st.sampled_from([0.0, 0.3, 1.0, 3.0]),
           st.sampled_from(["random", "one-sided", "path"]), st.integers(0, 2 ** 32 - 1))
    def test_component_labels_equal_min_propagation(self, n, per_node, shape, seed):
        rng = np.random.default_rng(seed)
        if shape == "path":
            order = rng.permutation(n)
            u, v = order[:-1], order[1:]
        else:
            u, v = rng.integers(0, n, (2, int(per_node * n)))
            if shape == "one-sided":
                u, v = np.minimum(u, v), np.maximum(u, v)
        np.testing.assert_array_equal(attacks._component_labels(n, u, v),
                                      min_propagation_labels(n, u, v))

    def test_long_chain_gram_file_is_labelled_in_few_rounds(self, tmp_path, monkeypatch):
        # GRAM rows that chain 20,000 of the n = 7 branches in a random order:
        # labelled in a few hook-and-shortcut rounds (the minimum propagation
        # it replaced took one round per two nodes), then refused by the cap
        n, d, nodes = 7, 128, 20_000
        rng = np.random.default_rng(7)
        chain = np.unravel_index(rng.permutation(2 * d * d)[:nodes], (2, d, d))
        lines = ["FORWARD"] + [f"{a} {b} {1.0 if b == 0 else 0.0}"
                               for a in range(2) for b in range(d)]
        lines += ["BACKWARD"] + [f"{a} {b} {b} 1.0" for a in range(2) for b in range(d)]
        lines += ["GRAM"] + [f"{chain[0][k]} {chain[1][k]} {chain[2][k]} "
                             f"{chain[0][k + 1]} {chain[1][k + 1]} {chain[2][k + 1]} 0.1"
                             for k in range(nodes - 1)]
        path = tmp_path / "chain.attack"
        path.write_text("\n".join(lines) + "\n")
        rounds = []
        roots = attacks.forest_roots

        def counted(parent):  # one shortcut per round of the edge labeler
            rounds.append(parent.size)
            return roots(parent)

        monkeypatch.setattr(attacks, "forest_roots", counted)
        with pytest.raises(CapacityError, match="GRAM_ENTRY_CAP"):
            attacks.load_attack_file(path)
        assert rounds and set(rounds) == {nodes} and len(rounds) <= 20, len(rounds)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_built_in_grams(self, n):
        d = 1 << n
        for gram in (identity_gram(d), depolarizing_gram(DepolarizingParams(0.1, 0.2, n)),
                     depolarizing_gram(DepolarizingParams(1.0, 1.0, n))):
            dense = np.asarray(gram)
            assert_same_blocks(validate_gram(dense, d), entry_list_gram(dense, d))
            assert np.asarray(validate_gram(dense, d)).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_block_diagonal_components_of_sizes_one_to_five(self, seed):
        rng = np.random.default_rng([seed, 16])
        d = 4
        sizes = rng.integers(1, 6, size=12)
        dense = block_diagonal_gram(rng, d, sizes[np.cumsum(sizes) <= 2 * d * d])
        got = validate_gram(dense, d)
        assert_same_blocks(got, entry_list_gram(dense, d))
        assert set(got.sizes.tolist()) <= {2, 3, 4, 5}
        assert np.asarray(got).tobytes() == dense.tobytes()

    def test_chain_component(self):
        # a path through 30 branches, met from its largest end: the smallest
        # label crosses it over several label rounds
        d = 4
        path = np.arange(30)[::-1] + 2
        dense = np.eye(2 * d * d)
        dense[path[:-1], path[1:]] = dense[path[1:], path[:-1]] = 0.3
        dense = dense.reshape((2, d, d) * 2)
        got = validate_gram(dense, d)
        assert_same_blocks(got, entry_list_gram(dense, d))
        np.testing.assert_array_equal(got.members, np.arange(2, 32))
        assert np.asarray(got).tobytes() == dense.tobytes()

    def test_negative_zero_entries_are_stored_as_zero(self):
        # -0.0 inside a block (the chain's non-neighbours) and between blocks
        rng = np.random.default_rng(16)
        d = 2
        dense = np.asarray(block_diagonal_gram(rng, d, (3, 2))).reshape(8, 8).copy()
        chain = np.array([6, 1, 4])
        dense[np.ix_(chain, chain)] = np.eye(3)
        dense[[6, 1], [1, 4]] = dense[[1, 4], [6, 1]] = 0.4
        dense[6, 4] = dense[4, 6] = -0.0
        dense[dense == 0.0] = -0.0
        np.fill_diagonal(dense, 1.0)
        dense = dense.reshape((2, d, d) * 2)
        got = validate_gram(dense, d)
        assert_same_blocks(got, entry_list_gram(dense, d))
        assert not np.signbit(got.values[got.values == 0.0]).any()
        np.testing.assert_array_equal(np.asarray(got), dense)

    @pytest.mark.parametrize("at", [(3, 3), (5, 5)], ids=["alone", "in-a-block"])
    def test_diagonal_entry_other_than_one_refused(self, at):
        d = 2
        dense = np.eye(8)
        dense[5, 7] = dense[7, 5] = 0.5
        dense[at] = 0.9
        messages = set()
        for split in (validate_gram, entry_list_gram):
            with pytest.raises(ValidationError, match="diagonal is not all ones") as err:
                split(dense.reshape((2, d, d) * 2), d)
            messages.add(str(err.value))
        assert len(messages) == 1

    def test_dense_n4_split_peaks_under_12_mib(self):
        # the 512 x 512 Gram is 2 MiB; the entry-list split peaked at 20.3 MiB,
        # the edge-list split at 6.3 MiB and this split at 6.0 MiB, both of
        # them set by the Cholesky check (values, a shifted copy and a factor)
        d = 16
        dense = random_dense_gram(np.random.default_rng(16), d, d * d)
        validate_gram(dense, d)
        tracemalloc.start()
        try:
            validate_gram(dense, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20


class TestValuesHeldOnce:
    """Stacks of adjacent blocks are views, and cross reads ``values`` in place."""

    @pytest.mark.parametrize("sizes,runs", [
        ((5,), [5]),
        ((3, 3, 3), [3]),
        ((2, 3, 2), [2, 3, 2]),
    ], ids=["one-block", "adjacent", "interleaved"])
    def test_stacks_equal_the_gather(self, sizes, runs):
        # one stack per run of adjacent same-size blocks, each a read-only
        # view; the runs of one size, joined, are the gathered stack
        rng = np.random.default_rng(sum(sizes))
        d = 4
        members = rng.permutation(2 * d * d)[:sum(sizes)]
        members = np.concatenate([np.sort(part) for part in
                                  np.split(members, np.cumsum(sizes)[:-1])])
        values = np.concatenate([random_block(rng, k, k).ravel() for k in sizes])
        gram = EveGram(d, members, sizes, values)
        got = list(gram.stacks())
        assert [b.shape[1] for _, b in got] == runs
        for m, b in got:
            assert np.shares_memory(b, gram.values) and np.shares_memory(m, gram.members)
            assert not (b.flags.writeable or m.flags.writeable)
        for wm, wb in gathered_stacks(gram):
            k = wb.shape[1]
            for part, w in ((0, wm), (1, wb)):
                a = np.concatenate([stack[part] for stack in got if stack[1].shape[1] == k])
                assert (a.dtype, a.shape) == (w.dtype, w.shape)
                assert a.tobytes() == w.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_size_grams_are_one_view_per_size(self, seed, tmp_path):
        # blocks of sizes 2..5 over branches in a random order, split from the
        # dense array and read back from an attack file: ordered by size, so
        # each size is one stack, a view of the values
        rng = np.random.default_rng([seed, 26])
        d = 8
        sizes = np.tile(np.arange(1, 6), 8)
        dense = block_diagonal_gram(rng, d, rng.permutation(sizes))
        got = validate_gram(dense, d)
        path = tmp_path / "mixed.attack"
        attacks.dump_attack_file(attack_from_tables(random_table_attack(rng, 3).tables, got),
                                 path)
        for gram in (got, attacks.load_attack_file(path).gram):
            assert gram.sizes.tolist() == sorted(gram.sizes.tolist())
            assert set(gram.sizes.tolist()) == {2, 3, 4, 5}
            stacks = list(gram.stacks())
            assert [b.shape[1] for _, b in stacks] == [2, 3, 4, 5]
            for m, b in stacks:
                assert np.shares_memory(b, gram.values) and np.shares_memory(m, gram.members)
            assert np.asarray(gram).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_built_in_and_random_grams_are_views(self, n):
        rng = np.random.default_rng([n, 17])
        d = 1 << n
        for gram in (identity_gram(d), depolarizing_gram(DepolarizingParams(0.1, 0.2, n)),
                     random_table_attack(rng, n).gram):
            for (m, b), (wm, wb) in itertools.zip_longest(gram.stacks(),
                                                          gathered_stacks(gram)):
                assert m.tobytes() == wm.tobytes() and b.tobytes() == wb.tobytes()
                assert np.shares_memory(b, gram.values)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cross_equals_the_dense_lookup(self, n):
        rng = np.random.default_rng([n, 18])
        d = 1 << n
        zero = np.arange(d * d)[:, None]
        partner = np.arange(d * d)[None, :]
        grams = [random_table_attack(rng, n).gram for _ in range(3)]
        sizes = rng.integers(1, 4, size=2 * d * d)
        grams.append(validate_gram(block_diagonal_gram(
            rng, d, sizes[np.cumsum(sizes) <= 2 * d * d]), d))
        grams += [depolarizing_gram(DepolarizingParams(0.3, 0.1, n)), identity_gram(d)]
        for gram in grams:
            # bit for bit: an orthogonal pair, or a Gram with no values, is +0.0
            dense = np.asarray(gram).reshape(2 * d * d, -1)
            got = gram.cross(zero, partner)
            assert got.shape == (d * d, d * d)
            assert got.tobytes() == dense[zero, d * d + partner].tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_sift_overlap_equals_the_dense_lookup(self, n):
        # bit for bit, with the two all-equal branches (0, 0, 0) and
        # (1, d-1, d-1) in one block, alone or next to others, in two blocks
        # and outside every block
        rng = np.random.default_rng([n, 21])
        d = 1 << n
        last = 2 * d * d - 1
        apart = np.eye(2 * d * d)
        for pair in ((0, 1), (last - 1, last)):
            apart[np.ix_(pair, pair)] = random_block(rng, 2, 2)
        joined = np.eye(2 * d * d)
        for group in ((1, 2), (0, d * d, last), (3, last - 1)):
            joined[np.ix_(group, group)] = random_block(rng, len(group), 2)
        sizes = rng.integers(1, 4, size=2 * d * d)
        tables = random_table_attack(rng, n).tables
        attacks = [random_table_attack(rng, n), identity_attack(n),
                   depolarizing_attack(DepolarizingParams(0.3, 0.1, n))]
        attacks += [attack_from_tables(tables, gram) for gram in (
            identity_gram(d), apart.reshape((2, d, d) * 2), joined.reshape((2, d, d) * 2),
            block_diagonal_gram(rng, d, sizes[np.cumsum(sizes) <= 2 * d * d]))]
        for atk in attacks:
            w = atk.tables.weights / 2.0
            dense = np.asarray(atk.gram).reshape(2 * d * d, -1)
            want = math.sqrt(w[0, 0, 0] * w[1, d - 1, d - 1]) * float(dense[0, last])
            got = protocol.round_statistics(atk, 1).cross_overlap
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_dense_n4_attack_builds_under_8_mib(self):
        # the 512 x 512 Gram is 2 MiB; the gathered stacks peaked at 8.3 MiB
        rng = np.random.default_rng(19)
        tables = random_table_attack(rng, 4).tables
        dense = random_dense_gram(rng, 16, 256)
        attack_from_tables(tables, dense)
        tracemalloc.start()
        try:
            attack_from_tables(tables, dense)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_cross_keeps_no_copy_of_the_values(self):
        # the padded copy of values that cross kept was 2 MiB at n = 4
        gram = validate_gram(random_dense_gram(np.random.default_rng(20), 16, 256), 16)
        zero = np.arange(256)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gram.cross(zero, zero[::-1])
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < gram.values.nbytes / 4


class TestSymmetryInPanels:
    """The symmetry check reads a block 64 rows at a time, and misses no row."""

    @pytest.mark.parametrize("at", [(0, 511), (63, 64), (64, 63), (127, 128), (128, 0),
                                    (255, 256), (447, 448), (448, 3), (511, 0), (511, 510)])
    def test_asymmetry_at_panel_boundaries_and_in_the_last_row(self, at):
        block = random_block(np.random.default_rng(at), 512, 512)
        for delta, refused in ((2e-12, True), (5e-13, False)):
            bent = block.copy()
            bent[at] += delta
            assert abs(bent[at] - bent[at[::-1]]) > (1e-12 if refused else 0.0)
            if refused:
                with pytest.raises(ValidationError, match="gram is not symmetric"):
                    EveGram(1 << 4, np.arange(512), (512,), bent)
            else:
                assert EveGram(1 << 4, np.arange(512), (512,), bent).values.tobytes() == \
                    bent.tobytes()

    def test_asymmetry_in_one_block_of_a_stack(self):
        # the third of four 100 x 100 blocks, in its last row
        rng = np.random.default_rng(24)
        blocks = np.stack([random_block(rng, 100, 100) for _ in range(4)])
        blocks[2, 99, 40] += 2e-12
        with pytest.raises(ValidationError, match="gram is not symmetric"):
            EveGram(1 << 4, np.arange(400), (100,) * 4, blocks)


class TestEntries:
    """The entry listing built from repeated members equals the divmod listing."""

    @pytest.mark.parametrize("sizes", [(), (1,), (5,), (3, 3, 3), (2, 3, 2, 1, 3)],
                             ids=["none", "one-branch", "one-block", "adjacent", "interleaved"])
    def test_equal_to_the_divmod_listing(self, sizes):
        rng = np.random.default_rng(len(sizes))
        d = 4
        members = rng.permutation(2 * d * d)[:sum(sizes)]
        members = np.concatenate([np.sort(part) for part in
                                  np.split(members, np.cumsum(sizes, dtype=int)[:-1])])
        values = np.concatenate([random_block(rng, k, k).ravel() for k in sizes] + [[]])
        gram = EveGram(d, members, sizes, values)
        for got, want in zip(gram.entries(), divmod_entries(gram)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_built_in_and_random_grams(self, n):
        rng = np.random.default_rng([n, 25])
        d = 1 << n
        sizes = rng.integers(1, 5, size=2 * d * d)
        for gram in (identity_gram(d), depolarizing_gram(DepolarizingParams(0.1, 0.2, n)),
                     random_table_attack(rng, n).gram,
                     validate_gram(block_diagonal_gram(
                         rng, d, sizes[np.cumsum(sizes) <= 2 * d * d]), d)):
            for got, want in zip(gram.entries(), divmod_entries(gram)):
                assert got.tobytes() == want.tobytes()


class TestPsdByCholesky:
    """Cholesky accepts; the eigenvalues alone refuse, with today's message."""

    @pytest.mark.parametrize("k", [2, 64, 512])
    def test_min_eig_below_the_tolerance_refused(self, k):
        block = gram_at_min_eig(np.random.default_rng(k), k, -2 * attacks.GRAM_PSD_ATOL)
        assert np.linalg.eigvalsh(block).min() == pytest.approx(-2e-9, rel=1e-4)
        with pytest.raises(ValidationError,
                           match=r"gram is not PSD within 1e-09 \(min eig -2\.000e-09\)"):
            EveGram(1 << 5, np.arange(k), (k,), block)

    @pytest.mark.parametrize("k", [2, 64, 512])
    def test_min_eig_within_the_tolerance_accepted_by_cholesky(self, k, monkeypatch):
        block = gram_at_min_eig(np.random.default_rng(k), k, -0.5 * attacks.GRAM_PSD_ATOL)
        assert np.linalg.eigvalsh(block).min() == pytest.approx(-0.5e-9, rel=1e-4)

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh ran on a Gram that Cholesky accepts")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        gram = EveGram(1 << 5, np.arange(k), (k,), block)
        assert gram.values.tobytes() == block.tobytes()

    @pytest.mark.parametrize("k", [2, 64, 512])
    def test_one_failing_block_of_a_stack_refuses_the_gram(self, k):
        # four blocks of size k, the third at -2 GRAM_PSD_ATOL
        rng = np.random.default_rng([k, 3])
        blocks = [gram_at_min_eig(rng, k, 0.0 if b != 2 else -2 * attacks.GRAM_PSD_ATOL)
                  for b in range(4)]
        d = 32  # 2048 branches
        members = np.arange(4 * k).reshape(4, k)
        values = np.concatenate([b.ravel() for b in blocks])
        with pytest.raises(ValidationError, match=r"not PSD within 1e-09 \(min eig -2\.0"):
            EveGram(d, members.ravel(), (k,) * 4, values)
        ok = np.concatenate([b.ravel() for i, b in enumerate(blocks) if i != 2])
        EveGram(d, members[[0, 1, 3]].ravel(), (k,) * 3, ok)

    def test_eigenvalues_decide_when_cholesky_fails(self, monkeypatch):
        # with no Cholesky factor anywhere, a PSD Gram is still accepted and
        # one below the tolerance refused as before
        def no_factor(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        rng = np.random.default_rng(5)
        EveGram(8, np.arange(64), (64,), gram_at_min_eig(rng, 64, -0.5e-9))
        with pytest.raises(ValidationError, match=r"\(min eig -2\.000e-09\)"):
            EveGram(8, np.arange(64), (64,), gram_at_min_eig(rng, 64, -2e-9))


class TestPurification:
    def test_reproduces_a_gram_of_several_blocks(self):
        # two blocks of random rank, and the identity everywhere else
        rng = np.random.default_rng(72)
        d = 4
        dense = np.eye(2 * d * d)
        for members in (np.array([0, 5, 17, 31]), np.array([2, 3, 20])):
            vecs = rng.normal(size=(members.size, 2))
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            dense[np.ix_(members, members)] = vecs @ vecs.T
        gram = validate_gram(dense.reshape((2, d, d) * 2), d)
        assert gram.sizes.tolist() == [3, 4]
        m = attacks.gram_purification(gram)
        np.testing.assert_allclose(m.T @ m, dense, atol=1e-12)


class TestOracle:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(71)
        attacks_checked = [random_table_attack(rng, n) for n in (1, 2, 3) for _ in range(3)]
        attacks_checked += [depolarizing_attack(DepolarizingParams(q, qt, n))
                            for n in (1, 2, 3) for q, qt in ((0.0, 0.0), (0.1, 0.2),
                                                            (0.45, 0.3), (1.0, 1.0))]
        attacks_checked += [identity_attack(n) for n in (1, 2, 3)]
        for atk in attacks_checked:
            assert exact_entropy_oracle(atk) == pytest.approx(dense_entropy_oracle(atk),
                                                              abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_full_block_oracle(self, n):
        rng = np.random.default_rng([n, 16])
        for _ in range(4 if n < 4 else 2):
            atk = random_table_attack(rng, n)
            assert abs(exact_entropy_oracle(atk) - full_block_oracle(atk)) <= 1e-12

    def test_blocks_of_one_sender_bit_add_zero(self):
        # a bit-0 block and a bit-1 block: each vector tells Eve the bit
        rng = np.random.default_rng(17)
        d = 4
        dense = np.eye(2 * d * d)
        for members in (np.array([0, 3, 9, 15]), np.array([16, 20, 31])):
            dense[np.ix_(members, members)] = random_block(rng, members.size, 2)
        atk = attack_from_tables(random_table_attack(rng, 2).tables,
                                 dense.reshape((2, d, d) * 2))
        assert atk.gram.sizes.tolist() == [3, 4]
        assert abs(exact_entropy_oracle(atk)) <= 1e-12
        assert abs(full_block_oracle(atk)) <= 1e-12

    def test_stack_with_different_bit_zero_counts(self):
        # four blocks of size 3 at d = 4 (bit-1 branches are 16..31) holding
        # 1, 2, 3 and 0 bit-0 branches
        rng = np.random.default_rng(18)
        d = 4
        members = np.array([[1, 17, 25], [2, 5, 18], [3, 8, 12], [16, 22, 30]])
        gram = EveGram(d, members.ravel(), (3,) * 4,
                       np.concatenate([random_block(rng, 3, 3).ravel() for _ in members]))
        (stack_members, _), = gram.stacks()
        assert np.count_nonzero(stack_members < d * d, axis=1).tolist() == [1, 2, 3, 0]
        for _ in range(3):
            atk = attack_from_tables(random_table_attack(rng, 2).tables, gram)
            assert abs(exact_entropy_oracle(atk) - full_block_oracle(atk)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_depolarizing_bound_is_tight(self, n):
        # for depolarizing noise the complement-plan bound is the exact S(A|E)
        for q, qt in ((0.05, 0.1), (0.2, 0.3)):
            params = DepolarizingParams(q, qt, n)
            atk = attack_from_tables(depolarizing_tables(params), depolarizing_gram(params))
            w = atk.tables.weights
            bound = theorem1_entropy_bound(terms_from_plan(w, atk.gram,
                                                           complement_plan(1 << n)))
            oracle = exact_entropy_oracle(atk)
            closed = depolarizing_entropy_lower(params, "theorem_exact")
            assert bound == pytest.approx(oracle, abs=1e-10)
            assert closed == pytest.approx(oracle, abs=1e-10)

    def test_size_checked_before_any_eigendecomposition(self, monkeypatch):
        # one block of 2049 branches stands for a 4098-dimensional state
        n, k = 6, 2049
        values = np.eye(k)
        values[np.arange(k - 1), np.arange(1, k)] = 0.1
        values[np.arange(1, k), np.arange(k - 1)] = 0.1
        gram = EveGram(1 << n, np.arange(k), (k,), values)
        atk = attack_from_tables(depolarizing_tables(DepolarizingParams(0.1, 0.1, n)),
                                 gram)

        def refuse(*args, **kwargs):
            raise AssertionError("an eigendecomposition ran before the size check")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        with pytest.raises(CapacityError, match="oracle state dim 4098"):
            exact_entropy_oracle(atk)


class TestLargeN:
    def test_sampler_at_n10_matches_closed_forms(self):
        params = DepolarizingParams(0.1, 0.2, 10)
        atk = depolarizing_attack(params)
        sampler = protocol.RoundSampler(atk)
        ctrl = protocol.round_statistics(atk, 0)
        assert abs(sampler.p_ghz - p_ghz_analytic(params)) <= 1e-12
        assert abs(ctrl.p_ghz - p_ghz_analytic(params)) <= 1e-12
        d = params.d
        expected = np.array([[joint_az_analytic(a, c, params) for c in range(d)]
                             for a in range(2)])
        assert np.max(np.abs(ctrl.ctrl_az - expected)) <= 1e-12
        # the sampler draws Z-test outcomes from exactly this table
        assert np.max(np.abs(np.diff(sampler._ctrl_cum, prepend=0.0)
                             - expected.ravel())) <= 1e-12

    def test_embedded_route_checks_its_size_first(self):
        # the Gram-embedded state of an n = 6 attack holds 8191 Eve vectors
        atk = attack_from_tables(depolarizing_tables(DepolarizingParams(0.1, 0.1, 6)))
        with pytest.raises(CapacityError, match="purification"):
            protocol.run_round_exact(protocol.ProtocolParams(n=6), atk, 0)

    def test_dense_view_refused_past_the_cap(self):
        gram = depolarizing_gram(DepolarizingParams(0.1, 0.1, 10))
        assert np.shape(gram) == (2, 1024, 1024) * 2  # no densifying
        with pytest.raises(CapacityError, match="GRAM_ENTRY_CAP"):
            np.asarray(gram)
