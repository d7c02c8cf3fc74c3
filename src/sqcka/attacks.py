"""Collective-attack models: channel tables, Eve-overlap data, dilations.

A one-round collective attack touches the transferring qubits twice (on the
way out and on the way back).  It is described by conditional-probability
tables plus the Gram matrix of real overlaps among Eve's normalized
post-interaction vectors, one vector per branch (a, b, b').  A dilation
(unitaries acting on the transferring register and an explicit environment,
stored as basis permutations) may realize the same channel as a cross-check.

The Gram is an :class:`EveGram`: the identity plus a few dense blocks, with
the vectors of different blocks orthogonal, checked once, when it is built.
A dense (2, d, d, 2, d, d) array, or the GRAM rows of a file, is split into
the connected components of its non-zero overlaps between distinct
branches; ``np.asarray(gram)`` gives the dense form back for small d.  The
split orders the blocks by size, then by first member, so the blocks of
each size form one stack of read-only views (:meth:`EveGram.stacks`).
Both built-in attacks store one 2 x 2 block, so attacks reach n = 10
(``check_attack_size``).

The depolarizing channel is fully built in, with its dilation up to n = 7
(past that no exact route can hold a dilated state).  Overlap data
use the *global* normalization convention throughout this module: squared
norms are branch weights of the unnormalized post-round state and sum to 1
over all branches.  The per-branch convention used by the estimators is
exactly twice these values; conversion happens at module boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .qmath import (
    DIM_CAP,
    CapacityError,
    DomainError,
    ValidationError,
    float_or_array,
    unit_interval,
)

TABLE_ATOL = 1e-12
GRAM_PSD_ATOL = 1e-9

#: Cap on the float64 entries an Eve Gram stores in its blocks (128 MiB).
GRAM_ENTRY_CAP = 1 << 24


def check_attack_size(n: int) -> None:
    """Raise :class:`CapacityError`, before any allocation, if n is too large.

    The backward table, with 2 d^2 entries, is an attack's largest array;
    it is capped at ``DIM_CAP`` (n <= 10), which also bounds the weights
    and the session sampler's tables.
    """
    if n < 1:
        raise DomainError(f"need at least one receiving party, got n={n}")
    # 2 d^2 = 2^(2n + 1) entries; comparing exponents builds no huge integer
    if 2 * n + 1 > DIM_CAP.bit_length() - 1:
        raise CapacityError(f"an attack for n={n} needs tables of 2^{2 * n + 1} "
                            "entries, over DIM_CAP = 2^22 (n <= 10)")


@dataclass(frozen=True)
class DepolarizingParams:
    """Forward/backward depolarizing strengths for n transferring qubits.

    The closed forms (``eve_catalogue``, ``p_ghz_analytic`` and the rates in
    ``keyrate``) also take arrays here, broadcast against each other, and
    return arrays of their shape; an attack needs scalars.
    """

    q: float | np.ndarray
    qtilde: float | np.ndarray
    n: int | np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.n) < 1):
            raise DomainError(f"need at least one receiving party, got n={self.n}")
        for name in ("q", "qtilde"):
            arr = unit_interval(getattr(self, name), f"{name}=")
            if arr.ndim:
                object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return 1 << self.n

    @property
    def q_ghz(self) -> float:
        """Effective round-trip depolarization: Q + Q~ - Q*Q~."""
        return self.q + self.qtilde - self.q * self.qtilde


@dataclass(frozen=True)
class ConditionalChannelTable:
    """Forward p(b|a) and backward p'(b'|a,b) conditional distributions.

    ``forward`` has shape (2, d); ``backward`` has shape (2, d, d) indexed
    [a, b, b'], each row a distribution over the last axis.
    """

    forward: np.ndarray
    backward: np.ndarray

    def __post_init__(self):
        fwd = np.asarray(self.forward, dtype=np.float64)
        bwd = np.asarray(self.backward, dtype=np.float64)
        if fwd.ndim != 2 or fwd.shape[0] != 2:
            raise ValidationError(f"forward table must be (2, d), got {fwd.shape}")
        d = fwd.shape[1]
        if d < 2 or d & (d - 1):
            raise ValidationError(f"channel dimension {d} is not a power of two")
        if bwd.shape != (2, d, d):
            raise ValidationError(f"backward table must be (2, {d}, {d}), got {bwd.shape}")
        for name, tab in (("forward", fwd), ("backward", bwd)):
            if not np.isfinite(tab).all():
                raise ValidationError(f"{name} table has non-finite entries")
            if tab.min() < -TABLE_ATOL:
                raise ValidationError(f"{name} table has negative entries")
            sums = tab.sum(axis=-1)
            if np.max(np.abs(sums - 1.0)) > TABLE_ATOL * d:
                raise ValidationError(f"{name} rows do not sum to 1 (max dev "
                                      f"{np.max(np.abs(sums - 1.0)):.3e})")
        fwd = np.clip(fwd, 0.0, None)
        bwd = np.clip(bwd, 0.0, None)
        fwd.setflags(write=False)
        bwd.setflags(write=False)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "backward", bwd)

    @property
    def d(self) -> int:
        return self.forward.shape[1]

    @property
    def n(self) -> int:
        return self.d.bit_length() - 1

    @property
    def weights(self) -> np.ndarray:
        """Branch weights p(b|a) p'(b'|a,b), shape (2, d, d) indexed [a, b, b']."""
        return self.forward[:, :, None] * self.backward


@dataclass(frozen=True, eq=False)
class EveGram:
    """Gram of Eve's unit vectors over the 2 d^2 branches (a, b, b'), by blocks.

    Branch (a, b, b') has the flat index (a d + b) d + b'.  The Gram is the
    identity except on ``members``, which lists the branches of each block
    in turn, ascending within a block; ``sizes`` holds the block sizes and
    ``values`` the blocks, row-major, one after another.  The package
    orders the blocks by size, then by first member; a Gram built by hand
    may order them otherwise.  The values are held once and have three
    readers, one per access pattern: :meth:`entries` lists every stored
    entry flat, :meth:`stacks` gives each run of same-size blocks as
    read-only views, and :meth:`cross` reads bit-0/bit-1 pairs in place.
    Branches in different blocks, or outside every block, are orthogonal.
    Each block is checked here: its members ascend, and it is finite,
    symmetric, unit diagonal and PSD within ``GRAM_PSD_ATOL``, so every
    entry has |G| <= 1 + ``GRAM_PSD_ATOL`` + 2e-12.  A Cholesky factor of
    each stack plus ``GRAM_PSD_ATOL`` I accepts its blocks as PSD; only if
    there is none do the eigenvalues decide.
    """

    d: int
    members: np.ndarray
    sizes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        members = np.asarray(self.members, dtype=np.int64).reshape(-1).view()
        sizes = np.asarray(self.sizes, dtype=np.int64).reshape(-1).view()
        values = np.asarray(self.values, dtype=np.float64).reshape(-1).view()
        if (sizes.min(initial=1) < 1 or sizes.sum() != members.size
                or (sizes ** 2).sum() != values.size):
            raise ValidationError("gram blocks do not match their sizes")
        if members.size and (members.min() < 0 or members.max() >= 2 * self.d ** 2):
            raise ValidationError("gram blocks must hold branches below 2 d^2")
        seen = np.zeros(2 * self.d ** 2, dtype=bool)
        seen[members] = True
        if np.count_nonzero(seen) != members.size:
            raise ValidationError("gram blocks must hold distinct branches")
        ascends = np.diff(members) > 0
        ascends[np.cumsum(sizes)[:-1] - 1] = True  # where the next block starts
        if not ascends.all():
            raise ValidationError("gram block members must ascend within each block")
        for name, arr in (("members", members), ("sizes", sizes), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not np.isfinite(values).all():
            raise ValidationError("gram has non-finite entries")
        stacks = [blocks for _, blocks in self.stacks()]
        if any(_max_asymmetry(b) > 1e-12 for b in stacks):
            raise ValidationError("gram is not symmetric")
        if any(np.max(np.abs(np.diagonal(b, axis1=1, axis2=2) - 1.0)) > 1e-12
               for b in stacks):
            raise ValidationError("gram diagonal is not all ones")
        try:  # a Cholesky factor of G + GRAM_PSD_ATOL I exists: PSD within it
            for b in stacks:
                shifted = b.copy()
                shifted.reshape(len(b), -1)[:, ::b.shape[1] + 1] += GRAM_PSD_ATOL
                np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:  # not necessarily refused: the eigenvalues decide
            lo = min(float(np.linalg.eigvalsh(b).min()) for b in stacks)
            if lo < -GRAM_PSD_ATOL:
                raise ValidationError(f"gram is not PSD within {GRAM_PSD_ATOL} "
                                      f"(min eig {lo:.3e})") from None

    @property
    def shape(self) -> tuple[int, ...]:
        return (2, self.d, self.d) * 2

    @cached_property
    def _starts(self) -> tuple[np.ndarray, np.ndarray]:
        """Where each block starts in ``members`` and in ``values``."""
        k2 = self.sizes ** 2
        return np.cumsum(self.sizes) - self.sizes, np.cumsum(k2) - k2

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored entry: flat branch indices x, y and the value G[x, y].

        ``values`` holds one row per member, as long as its block: x
        repeats each member along its row, and y is each entry's index in
        ``values`` less its row's offset from the block's first member."""
        row = np.repeat(self.sizes, self.sizes)  # the row length of each member
        offset = np.cumsum(row) - row - np.repeat(self._starts[0], self.sizes)
        return (np.repeat(self.members, row),
                self.members[np.arange(self.values.size) - np.repeat(offset, row)],
                self.values)

    def stacks(self):
        """For each run of m adjacent blocks of one size k: read-only views
        (m, k) of their members and (m, k, k) of their blocks.  The package
        orders blocks by size, so it gives one stack per size; a Gram built
        with sizes interleaved gives one per run."""
        return _stacked(self.sizes, self.members, self.values)

    @cached_property
    def _cross_keys(self) -> tuple[np.ndarray, ...]:
        """For :meth:`cross`: the block of each sender-bit-0 branch, flat over
        (b, b'), and where its row starts in ``values``; the block of each
        bit-1 branch, flat over (c, c'), and its column in the block.  A
        branch outside every block is a block of its own.  Each array has
        one entry per branch, so the keys hold no copy of ``values``."""
        n = 2 * self.d ** 2
        blk = np.repeat(np.arange(self.sizes.size), self.sizes)
        pos = np.arange(self.members.size) - self._starts[0][blk]
        block = -1 - np.arange(n)
        row = np.zeros(n, dtype=np.int64)
        col = np.zeros(n, dtype=np.int64)
        block[self.members] = blk
        row[self.members] = self._starts[1][blk] + pos * self.sizes[blk]
        col[self.members] = pos
        half = n // 2
        return block[:half], row[:half], block[half:], col[half:]

    def cross(self, zero: np.ndarray, partner: np.ndarray) -> np.ndarray:
        """G[(0, b, b'), (1, c, c')] elementwise, for bit-0 branches with
        b d + b' = ``zero`` and their bit-1 partners with c d + c' =
        ``partner`` (the two arrays broadcast).  Pairs in one block are read
        from ``values``; every other pair is orthogonal, +0.0."""
        block0, row0, block1, col1 = self._cross_keys
        same = block0[zero] == block1[partner]
        if not self.values.size:  # no blocks: every pair is orthogonal
            return np.zeros(same.shape)
        return np.where(same, self.values[np.where(same, row0[zero] + col1[partner], 0)], 0.0)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense (2, d, d, 2, d, d) Gram, for small d."""
        n = 2 * self.d ** 2
        if n * n > GRAM_ENTRY_CAP:
            raise CapacityError(f"a dense gram for d={self.d} has {n * n} entries, "
                                f"over GRAM_ENTRY_CAP = {GRAM_ENTRY_CAP}")
        out = np.eye(n)
        x, y, v = self.entries()
        out[x, y] = v
        return out.reshape(self.shape).astype(dtype or np.float64, copy=False)


def _check_gram_entries(count: int) -> None:
    if count > GRAM_ENTRY_CAP:
        raise CapacityError(f"the gram's blocks need {count} entries, over "
                            f"GRAM_ENTRY_CAP = {GRAM_ENTRY_CAP}")


def _max_asymmetry(blocks: np.ndarray) -> float:
    """max |G - G^T| over a stack of (m, k, k) blocks, 64 rows at a time, so
    that no temporary is as large as the stack."""
    return max(float(np.max(np.abs(blocks[:, r:r + 64]
                                   - blocks[:, :, r:r + 64].transpose(0, 2, 1))))
               for r in range(0, blocks.shape[1], 64))


def _component_labels(count: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest node of each node's connected component, for edges u - v."""
    label = np.arange(count)
    while True:
        low = label.copy()
        np.minimum.at(low, u, label[v])
        np.minimum.at(low, v, label[u])
        low = low[low]  # each label stays a node of the component, never larger
        if np.array_equal(low, label):
            return label
        label = low


def _dense_component_labels(listed: np.ndarray) -> np.ndarray:
    """The smallest node of each node's connected component, for the graph
    whose edges are the True entries of the square bool matrix ``listed``,
    read either way round.

    Each node points to the first node its row lists, where that is
    smaller, and pointer jumping turns this forest into stars, each rooted
    at its smallest node.  A check on the rows packed into bits finds the
    rows that list an entry outside their star; where there are none, the
    stars are the components.  The listed entries of those rows, read as
    edges between the roots of their ends' stars, go to
    :func:`_component_labels`, which joins the stars.
    """
    n = len(listed)
    node = np.arange(n)
    first = listed.argmax(axis=1)
    label = np.where(listed[node, first], np.minimum(first, node), node)
    while True:
        up = label[label]
        if np.array_equal(up, label):
            break
        label = up
    bits = np.packbits(listed, axis=1)
    star_bits = np.zeros_like(bits)  # row r: the star rooted at r, as bits
    np.bitwise_or.at(star_bits, (label, node >> 3), (128 >> (node & 7)).astype(np.uint8))
    leave = np.flatnonzero((bits & ~star_bits[label]).any(axis=1))
    r, c = np.nonzero(listed[leave])
    return _component_labels(n, label[leave[r]], label[c])[label]


def _blocks(nodes: np.ndarray, label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``members`` and ``sizes`` of the blocks that group ascending ``nodes``
    by their component's ``label``, the smallest node of the component: the
    members of each block ascend and the blocks are ordered by size, then
    by their first member, so the blocks of one size are adjacent.  The
    entries the blocks need are checked before any block is allocated."""
    _, comp, sizes = np.unique(label, return_inverse=True, return_counts=True)
    _check_gram_entries(int((sizes ** 2).sum()))
    return nodes[np.lexsort((label, sizes[comp]))], np.sort(sizes)


def _stacked(sizes: np.ndarray, members: np.ndarray, values: np.ndarray):
    """For each run of m adjacent blocks of size k: views (m, k) of
    ``members`` and (m, k, k) of ``values``, which hold the blocks in turn."""
    at = offset = 0
    for k, run in groupby(sizes.tolist()):
        m = len(list(run))
        yield (members[at:at + m * k].reshape(m, k),
               values[offset:offset + m * k * k].reshape(m, k, k))
        at += m * k
        offset += m * k * k


def _gram_from_edges(d: int, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> EveGram:
    """The Gram with G[i, j] = G[j, i] = v at flat branch indices i, j (an
    entry may be listed once or both ways), 1 elsewhere on the diagonal and
    0 elsewhere.  Its blocks are the connected components of the edges
    i - j, as :func:`_blocks` gives them."""
    touched = np.zeros(2 * d * d, dtype=bool)
    touched[i] = touched[j] = True
    nodes = np.flatnonzero(touched)
    at = np.zeros(touched.size, dtype=np.int64)
    at[nodes] = np.arange(nodes.size)
    members, sizes = _blocks(nodes, _component_labels(nodes.size, at[i], at[j]))
    k2 = sizes ** 2
    blk = np.repeat(np.arange(sizes.size), sizes)
    pos = np.arange(members.size) - (np.cumsum(sizes) - sizes)[blk]
    diag = (np.cumsum(k2) - k2)[blk] + pos * (sizes[blk] + 1)  # of each member
    at[members] = np.arange(members.size)
    values = np.zeros(int(k2.sum()))
    values[diag] = 1.0
    values[diag[at[i]] + pos[at[j]] - pos[at[i]]] = v
    values[diag[at[j]] + pos[at[i]] - pos[at[j]]] = v
    return EveGram(d, members, sizes, values)


def validate_gram(gram, d: int) -> EveGram:
    """``gram`` as an :class:`EveGram` for d-dimensional strings.

    An :class:`EveGram`, checked when built, passes through once its shape
    fits d.  A dense (2, d, d, 2, d, d) array is split into the connected
    components of its entries that differ from the identity's, found from
    the matrix of those entries itself (:func:`_dense_component_labels`);
    each stack of same-size blocks is filled from the array with one
    assignment, and the blocks are checked as the :class:`EveGram` is built.
    """
    shape = np.shape(gram)
    if shape != (2, d, d) * 2:
        raise ValidationError(f"gram must have shape (2,{d},{d})^2, got {shape}")
    if isinstance(gram, EveGram):
        return gram
    flat = np.asarray(gram, dtype=np.float64).reshape(2 * d * d, 2 * d * d)
    listed = flat != 0.0
    np.fill_diagonal(listed, flat.diagonal() != 1.0)
    _check_gram_entries(int(np.count_nonzero(listed)))
    nodes = np.flatnonzero(listed.any(axis=1) | listed.any(axis=0))
    members, sizes = _blocks(nodes, _dense_component_labels(listed)[nodes])
    del listed  # freed before the blocks are gathered (4 MiB at n = 5)
    values = np.empty(int((sizes ** 2).sum()))
    for m, blocks in _stacked(sizes, members, values):
        # + 0.0 stores a -0.0 entry as +0.0, like an entry that is not listed
        blocks[:] = flat[m[:, :, None], m[:, None, :]] + 0.0
    return EveGram(d, members, sizes, values)


def gram_purification(gram: EveGram) -> np.ndarray:
    """Eve vectors realizing a Gram, one per column; shape (K, 2 d^2).

    Block-diagonal: each branch outside every block has a unit vector of its
    own, and each block adds rows sqrt(w) u^T over its eigenpairs with
    w > 1e-12, so ``m.T @ m`` reproduces the Gram.  Raises
    :class:`CapacityError` before m is allocated if it exceeds ``DIM_CAP``.
    """
    n = 2 * gram.d ** 2
    outside = np.ones(n, dtype=bool)
    outside[gram.members] = False
    alone = np.flatnonzero(outside)
    parts = []
    for members, blocks in gram.stacks():
        w, u = np.linalg.eigh(blocks)
        blk, eig = np.nonzero(w > 1e-12)
        parts.append((members[blk], np.sqrt(w[blk, eig])[:, None] * u[blk, :, eig]))
    rows = alone.size + sum(len(cols) for cols, _ in parts)
    if rows * n > DIM_CAP:
        raise CapacityError(f"a purification of {rows} vectors over {n} branches "
                            f"exceeds cap {DIM_CAP}")
    m = np.zeros((rows, n))
    m[np.arange(alone.size), alone] = 1.0
    start = alone.size
    for cols, vecs in parts:
        m[start + np.arange(len(cols))[:, None], cols] = vecs
        start += len(cols)
    return m


def identity_gram(d: int) -> EveGram:
    """Orthonormal Eve vectors: the identity Gram over the (a, b, b') branches."""
    check_attack_size((d - 1).bit_length())
    return EveGram(d, (), (), ())


@dataclass(frozen=True)
class DilatedChannel:
    """One dilated channel leg: environment registers plus a joint unitary.

    The unitary is ``perm``, a read-only int64 basis permutation (state j
    goes to ``perm[j]``) of the transferring register tensored with the
    environment slots listed in ``env_targets`` (big-endian, T first).
    Slots not listed are spectators entangled only through ``env_state``.
    """

    env_dims: tuple[int, ...]
    env_state: np.ndarray
    perm: np.ndarray
    env_targets: tuple[int, ...]

    def __post_init__(self):
        st = np.asarray(self.env_state, dtype=np.complex128).reshape(-1)
        if st.size != math.prod(self.env_dims):
            raise ValidationError("environment state size does not match env_dims")
        st = st.copy()
        st.setflags(write=False)
        perm = np.array(self.perm, dtype=np.int64)
        perm.setflags(write=False)
        object.__setattr__(self, "env_state", st)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "env_dims", tuple(int(x) for x in self.env_dims))
        object.__setattr__(self, "env_targets", tuple(int(x) for x in self.env_targets))


@dataclass(frozen=True)
class CollectiveAttack:
    """A one-round attack: channel tables plus the Gram of Eve's vectors.

    ``gram`` may be given as an :class:`EveGram` or as a dense array; it is
    stored as an :class:`EveGram`, checked when built.  An optional dilation
    realizes the same channel with an explicit environment; the test suite
    checks every statistic the two share to 1e-10.
    """

    tables: ConditionalChannelTable
    gram: EveGram
    forward_dilation: DilatedChannel | None = None
    backward_dilation: DilatedChannel | None = None
    label: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "gram", validate_gram(self.gram, self.d))

    @property
    def n(self) -> int:
        return self.tables.n

    @property
    def d(self) -> int:
        return self.tables.d

    @property
    def has_dilation(self) -> bool:
        return self.forward_dilation is not None and self.backward_dilation is not None


# ---------------------------------------------------------------------------
# built-in attacks
# ---------------------------------------------------------------------------


def identity_attack(n: int) -> CollectiveAttack:
    """The noiseless baseline: channel acts as identity, Eve learns nothing.

    All Eve vectors coincide.  Only the branches (0, 0, 0) and
    (1, d-1, d-1) have weight, and a zero-weight branch's vector enters no
    output, so the Gram stores just their overlap 1.
    """
    check_attack_size(n)
    d = 1 << n
    fwd = np.zeros((2, d))
    fwd[0, 0] = 1.0
    fwd[1, d - 1] = 1.0
    bwd = np.zeros((2, d, d))
    bwd[:, np.arange(d), np.arange(d)] = 1.0
    gram = EveGram(d, (0, 2 * d * d - 1), (2,), np.ones(4))
    return CollectiveAttack(ConditionalChannelTable(fwd, bwd), gram, label="identity")


def attack_from_tables(tables: ConditionalChannelTable,
                       gram: EveGram | np.ndarray | None = None,
                       label: str = "custom") -> CollectiveAttack:
    """Assemble an analytic attack; omitted gram means orthonormal Eve vectors."""
    if gram is None:
        gram = identity_gram(tables.d)
    return CollectiveAttack(tables, gram, label=label)


def random_table_attack(rng: np.random.Generator, n: int) -> CollectiveAttack:
    """Dirichlet tables and a random PSD Gram of random rank, for n receivers.

    Draws, in order: the forward rows, the backward rows, a rank in
    2..2d^2, and that many Gaussian coordinates of each branch's vector.
    These are abstract cq states: no unitary round need produce them.
    """
    d = 1 << n
    fwd = rng.dirichlet(np.ones(d), size=2)
    bwd = rng.dirichlet(np.ones(d), size=(2, d))
    dim = 2 * d * d
    vecs = rng.normal(size=(dim, int(rng.integers(2, dim + 1))))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    gram = (vecs @ vecs.T).reshape(2, d, d, 2, d, d)
    return attack_from_tables(ConditionalChannelTable(fwd, bwd), gram, label="random")


def depolarizing_tables(params: DepolarizingParams) -> ConditionalChannelTable:
    d = params.d
    fwd = np.full((2, d), params.q / d)
    fwd[0, 0] = 1.0 - params.q * (d - 1) / d
    fwd[1, d - 1] = 1.0 - params.q * (d - 1) / d
    bwd = np.full((2, d, d), params.qtilde / d)
    bwd[:, np.arange(d), np.arange(d)] = 1.0 - params.qtilde * (d - 1) / d
    return ConditionalChannelTable(fwd, bwd)


@dataclass(frozen=True)
class EveVectorCatalogue:
    """Squared norms (global convention) and multiplicities of Eve's branches.

    Branches are indexed by (a, b, c) with b the string recorded by the
    receiving parties and c the string returning to the sender; they fall
    into four families by the pattern of coincidences among (vec a, b, c).
    Only the two all-equal branches overlap; the rest are orthogonal.
    Built from array parameters, every field is an array of their shape.
    """

    n: int | np.ndarray
    norm_aaa: float | np.ndarray
    norm_aac: float | np.ndarray
    norm_abb: float | np.ndarray
    norm_abc: float | np.ndarray
    cross_overlap: float | np.ndarray

    @property
    def d(self) -> int:
        return 1 << self.n

    @property
    def multiplicities(self) -> dict[str, int]:
        d = self.d
        return {
            "aaa": 2,
            "aac": 2 * (d - 1),
            "abb": 2 * (d - 1),
            "abc": 2 * (d - 1) ** 2,
        }

    @property
    def norms(self) -> dict[str, float]:
        return {"aaa": self.norm_aaa, "aac": self.norm_aac,
                "abb": self.norm_abb, "abc": self.norm_abc}

    def total_mass(self) -> float:
        mult = self.multiplicities
        return sum(mult[f] * norm for f, norm in self.norms.items())


#: Exponents past this give ldexp(x, -k) = 0 for every |x| <= 1.
_LDEXP_EXP_CAP = 1100


def _over_pow2(x, k):
    """x / 2^k as ``np.ldexp(x, -k)``: the same value, and no overflow.

    k is capped first, so a Python int too large for a C long still works.
    """
    k = np.asarray(k, dtype=object)
    return np.ldexp(x, -np.where(k > _LDEXP_EXP_CAP, _LDEXP_EXP_CAP, k).astype(np.int64))


def eve_catalogue(params: DepolarizingParams) -> EveVectorCatalogue:
    """Branch norms of the depolarizing round, global convention."""
    q, qt, n = params.q, params.qtilde, params.n
    mixed = _over_pow2(q * (1 - qt) + (1 - q) * qt, n + 1)
    tail = _over_pow2(q * qt, 2 * n + 1)
    norms = ((1 - q) * (1 - qt) / 2.0 + mixed + tail,
             _over_pow2((1 - q) * qt, n + 1) + tail,
             _over_pow2(q * (1 - qt), n + 1) + tail,
             tail,
             (1 - q) * (1 - qt) / 2.0)
    return EveVectorCatalogue(n, *map(float_or_array, norms))


def depolarizing_gram(params: DepolarizingParams) -> EveGram:
    """Unit-vector Gram of the depolarizing attack over (a, b, b') indices.

    Identity except for the two all-equal branches, whose normalized
    overlap is the catalogue cross overlap divided by the branch norm: one
    2 x 2 block.
    """
    d = params.d
    cat = eve_catalogue(params)
    val = cat.cross_overlap / cat.norm_aaa
    return EveGram(d, (0, 2 * d * d - 1), (2,), (1.0, val, val, 1.0))


def _depolarizing_dilation(strength: float, n: int) -> DilatedChannel:
    """Controlled-swap dilation: T swaps with a maximally mixed env register.

    Environment = (mirror of T, its purifier, a control qubit); the control
    carries sqrt(1-Q)|0> + sqrt(Q)|1> and triggers the swap.
    """
    d = 1 << n
    pair = np.zeros(d * d, dtype=np.complex128)
    pair[np.arange(d) * d + np.arange(d)] = 1.0 / math.sqrt(d)
    ctrl = np.array([math.sqrt(1.0 - strength), math.sqrt(strength)], dtype=np.complex128)
    env_state = np.kron(pair, ctrl)

    # permutation of T x E1 x E3, big-endian (T, E1, E3): |t, e1, 1> -> |e1, t, 1>
    t, e1, c = np.unravel_index(np.arange(2 * d * d), (d, d, 2))
    perm = np.where(c == 1, (e1 * d + t) * 2 + 1, (t * d + e1) * 2)
    return DilatedChannel(env_dims=(d, d, 2), env_state=env_state,
                          perm=perm, env_targets=(0, 2))


def depolarizing_attack(params: DepolarizingParams) -> CollectiveAttack:
    """Depolarizing collective attack: tables, Gram and, up to n = 7, dilation.

    The smallest dilated state an exact route builds, the return leg's
    T x Et with 2 d^3 amplitudes, must fit ``DIM_CAP``; past that (n >= 8)
    no route could use the dilations, so none is built.
    """
    check_attack_size(params.n)
    dilations = {}
    if 2 * params.d ** 3 <= DIM_CAP:
        dilations = {"forward_dilation": _depolarizing_dilation(params.q, params.n),
                     "backward_dilation": _depolarizing_dilation(params.qtilde, params.n)}
    return CollectiveAttack(
        tables=depolarizing_tables(params),
        gram=depolarizing_gram(params),
        label=f"depolarizing(q={params.q:g}, qtilde={params.qtilde:g})",
        **dilations,
    )


def p_ghz_analytic(params: DepolarizingParams) -> float | np.ndarray:
    """Probability that a reflected round still projects onto the GHZ state."""
    return float_or_array(1.0 - params.q_ghz * (1.0 - _over_pow2(1.0, params.n + 1)))


def joint_az_analytic(a: int, c: int, params: DepolarizingParams,
                      mode: str = "corrected") -> float:
    """Joint p(a, c) of the sender's bit and returned-string measurement.

    ``corrected`` uses the round-trip strength Q_GHZ (consistent with the
    branch catalogue and the dilation); ``paper_literal`` uses the printed
    backward-only form, which matches only at Q = 0.  Both are exposed so
    the discrepancy stays visible.
    """
    d = params.d
    if a not in (0, 1) or not 0 <= c < d:
        raise DomainError(f"(a, c) = ({a}, {c}) outside {{0, 1}} x [0, {d})")
    va = 0 if a == 0 else d - 1
    if mode == "corrected":
        strength = params.q_ghz
    elif mode == "paper_literal":
        strength = params.qtilde
    else:
        raise DomainError(f"unknown mode {mode!r}")
    p = math.ldexp(strength, -(params.n + 1))  # strength / (2 d)
    if c == va:
        p += (1.0 - strength) / 2.0
    return p


# ---------------------------------------------------------------------------
# plain-text attack files
# ---------------------------------------------------------------------------

#: Number of integer index fields per row, by section.
_SECTIONS = {"FORWARD": 2, "BACKWARD": 3, "GRAM": 6}


def _at(path, linenos) -> str:
    """``path:line``, or ``path:first-last`` for several lines."""
    lo, hi = min(linenos), max(linenos)
    return f"{path}:{lo}" if lo == hi else f"{path}:{lo}-{hi}"


def stripped_lines(path):
    """Each line of the UTF-8 text file ``path``, numbered from 1, cut at
    its first ``#`` and stripped; a byte that is not UTF-8 is refused with
    the ``path:line`` it is on."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError as exc:  # an undecodable byte b reads as U+DC00 + b
                    byte = ord(raw[exc.start]) - 0xDC00
                    raise ValidationError(f"{path}:{lineno}: byte 0x{byte:02x} "
                                          "is not UTF-8") from None
            yield lineno, raw.split("#", 1)[0].strip()


def load_attack_file(path) -> CollectiveAttack:
    """Parse a plain-text attack definition.

    Sections ``FORWARD`` (rows ``a b prob``), ``BACKWARD`` (rows
    ``a b bprime prob``) and optional ``GRAM`` (rows
    ``a b bprime a2 c cprime re_value``); ``#`` starts a comment.  The
    channel dimension is inferred from the FORWARD section, which must be
    complete.  Omitted GRAM entries default to orthonormal Eve vectors
    (identity Gram); the diagonal may be omitted.  The Gram's blocks are the
    connected components of the GRAM rows.  Every error names the
    ``path:line`` (or line range) it concerns: malformed, out-of-range,
    negative or repeated rows (a GRAM row and its mirror count as one), an
    incomplete FORWARD section, a distribution that does not sum to 1, and
    GRAM rows that form no valid Gram.
    """
    rows: dict[str, dict[tuple[int, ...], tuple[int, float]]] = {
        name: {} for name in _SECTIONS}
    headers: dict[str, int] = {}
    section = None
    lineno = 1
    for lineno, line in stripped_lines(path):
        if not line:
            continue
        upper = line.upper()
        if upper in _SECTIONS:
            section = upper
            headers.setdefault(section, lineno)
            continue
        parts = line.split()
        try:
            if section is None or len(parts) != _SECTIONS[section] + 1:
                raise ValueError("wrong field count for section")
            idx = tuple(int(x) for x in parts[:-1])
            val = float(parts[-1])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: cannot parse {line!r} ({exc})")
        if not math.isfinite(val):
            raise ValidationError(f"{path}:{lineno}: value {parts[-1]!r} is not finite")
        if section != "GRAM" and val < -TABLE_ATOL:
            raise ValidationError(f"{path}:{lineno}: probability {val!r} is negative")
        if section == "GRAM":
            if idx[:3] == idx[3:] and abs(val - 1.0) > 1e-12:
                raise ValidationError(f"{path}:{lineno}: diagonal GRAM entry "
                                      f"{val!r} is not 1")
            idx = min(idx, idx[3:] + idx[:3])
        if idx in rows[section]:
            raise ValidationError(f"{path}:{lineno}: duplicate {section} row, "
                                  f"first given on line {rows[section][idx][0]}")
        rows[section][idx] = (lineno, val)
    if not rows["FORWARD"]:
        raise ValidationError(f"{path}:{lineno}: missing FORWARD section")
    d = max(2, max(b for _, b in rows["FORWARD"]) + 1)
    limits = (2, d, d, 2, d, d)
    for table in rows.values():
        for idx, (line_at, _) in table.items():
            if not all(0 <= i < m for i, m in zip(idx, limits)):
                raise ValidationError(f"{path}:{line_at}: index {idx} outside "
                                      f"{limits[:len(idx)]}")
    if len(rows["FORWARD"]) != 2 * d or d & (d - 1):
        raise ValidationError(f"{path}:{headers['FORWARD']}: FORWARD must list all "
                              f"2*d entries for a power of two d, got "
                              f"{len(rows['FORWARD'])} with strings up to {d - 1}")
    check_attack_size((d - 1).bit_length())
    fwd = np.zeros((2, d))
    bwd = np.zeros((2, d, d))
    for name, tab in (("FORWARD", fwd), ("BACKWARD", bwd)):
        for idx, (_, p) in rows[name].items():
            tab[idx] = p
        dev = np.abs(tab.sum(axis=-1) - 1.0)
        if dev.max() > TABLE_ATOL * d:
            row = np.unravel_index(np.argmax(dev), dev.shape)
            at = [ln for idx, (ln, _) in rows[name].items() if idx[:-1] == row]
            raise ValidationError(f"{_at(path, at or [headers.get(name, lineno)])}: "
                                  f"{name} row {tuple(int(x) for x in row)} sums to "
                                  f"{float(tab[row].sum())!r}, not 1")
    tables = ConditionalChannelTable(fwd, bwd)
    keys = np.array(list(rows["GRAM"]), dtype=np.int64).reshape(-1, 6)
    vals = np.array([v for _, v in rows["GRAM"].values()])
    i = np.ravel_multi_index(tuple(keys[:, :3].T), (2, d, d))
    j = np.ravel_multi_index(tuple(keys[:, 3:].T), (2, d, d))
    keep = np.where(i == j, vals != 1.0, vals != 0.0)
    i, j, vals = i[keep], j[keep], vals[keep]
    try:
        return attack_from_tables(tables, _gram_from_edges(d, i, j, vals), label="file")
    except ValidationError as exc:
        at = [ln for ln, _ in rows["GRAM"].values()]
        raise ValidationError(f"{_at(path, at or [lineno])}: {exc}") from None


def dump_attack_file(attack: CollectiveAttack, path) -> None:
    """Write an attack's tables and the Gram entries it stores, in the
    plain-text format; :func:`load_attack_file` reads it back bit for bit."""
    d = attack.d
    fwd = attack.tables.forward
    bwd = attack.tables.backward
    x, y, v = attack.gram.entries()
    keep = np.where(x == y, v != 1.0, (x < y) & (v != 0.0))
    x, y, v = x[keep], y[keep], v[keep]
    order = np.lexsort((y, x))
    idx = np.column_stack(np.unravel_index(x[order], (2, d, d))
                          + np.unravel_index(y[order], (2, d, d)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# collective attack, n={attack.n}\n")
        fh.write("FORWARD\n")
        for a in range(2):
            for b in range(d):
                fh.write(f"{a} {b} {float(fwd[a, b])!r}\n")
        fh.write("BACKWARD\n")
        for a in range(2):
            for b in range(d):
                for bp in range(d):
                    fh.write(f"{a} {b} {bp} {float(bwd[a, b, bp])!r}\n")
        fh.write("GRAM\n")
        for row, val in zip(idx, v[order]):
            fh.write(" ".join(str(int(i)) for i in row) + f" {float(val)!r}\n")
