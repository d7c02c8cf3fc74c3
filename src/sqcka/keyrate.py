"""Conditional-entropy lower bounds, key rates, and the exact entropy oracle.

The bound pairs each of Eve's post-round branches tagged to sender bit 0
with one tagged to bit 1 (a pairing plan); every plan yields a valid lower
bound on S(A|E), so the search over plans only tightens it.  The term of
one pair is written once, in ``_pair_entropy``, over arrays of its weights
and overlap; ``_pair_terms`` gathers those from a weight table and a Gram
(checked when built), ``_plan_value`` sums the terms over one plan or a
stack, and ``theorem1_entropy_bound(terms_from_plan(...))`` is its checked
entry.  The exhaustive search scores all plans at once.  The 2-opt search
screens its swaps by line sums: with one permutation fixed, a swap in the
other moves the bound by four sums of a line's terms with a partner line,
so a (d, d) table of them, computed once per phase, decides every swap
that clears the gain threshold, or misses it, by more than a rounding
margin; only the others are scored exactly.  For the depolarizing channel
everything collapses to the term of one pair, the two all-equal branches,
over numpy arrays: ``DepolarizingParams`` with array strengths gives a whole
(Q, Q~) grid in one call, and scalar strengths, the 0-d case of the same
lines, give Python floats.

Two closed-form modes are first class and emitted side by side:

* ``paper_literal`` — the published printed expression,
* ``theorem_exact`` — the self-consistent pairing-bound value, exactly
  twice the literal one (the literal form drops the combined-weight
  prefactor; at zero noise it yields 1/2 where the decoupled-eavesdropper
  entropy is 1).

We refuse to silently pick one; the factor-2 relation is itself tested.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .attacks import (
    CollectiveAttack,
    DepolarizingParams,
    EveGram,
    eve_catalogue,
    validate_gram,
)
from .qmath import (
    CapacityError,
    DomainError,
    ValidationError,
    binary_entropy,
    binary_entropy_bits,
    entropy_of_spectrum,
    float_or_array,
    unit_interval,
)

MODES = ("paper_literal", "theorem_exact")

#: Slack of the non-negative weight and Cauchy-Schwarz checks on paired terms.
CS_ATOL = 1e-12

#: Cap on the 2-opt pairing search: candidate plans scored, however many
#: of them are scored in one batch.
MAX_PAIRING_EVALS = 10_000

#: Most pair terms, or term-table entries, that the 2-opt search holds
#: besides its (d, d) arrays, so that its memory does not grow with d: the
#: terms of the last line sums it computed (d terms each), and the tables
#: of the swaps it scores exactly at once (d^2 entries each; past d = 256,
#: one swap).  The swaps it screens at once read at most half as many
#: terms, so their new lines' terms are still held when they are scored.
TWO_OPT_BATCH_ENTRIES = 1 << 16

#: Most pair terms that one call computing 2-opt line sums makes.  Its
#: temporaries then stay in cache: at 2^16 terms a term cost about twice
#: as much as at 2^13 (2-vCPU VM, numpy 2.4).
TWO_OPT_CALL_TERMS = 1 << 13

#: Least margin by which a 2-opt swap's screened gain must clear, or miss,
#: the 1e-15 gain threshold to be decided without an exact score; the
#: rounding bound it covers is derived in :func:`_two_opt`.
TWO_OPT_MARGIN = 1e-9

#: Exhaustive pairing search is feasible up to this channel dimension.
EXHAUSTIVE_DIM = 4

#: Cap on the state dimension, 2 x block size, of one Gram block in the oracle.
ORACLE_DIM_CAP = 4096


@dataclass(frozen=True)
class PairingPlan:
    """Permutation pair matching sender-bit-0 branches to bit-1 branches."""

    pi1: tuple[int, ...]
    pi2: tuple[int, ...]
    strategy: str = "manual"

    def __post_init__(self):
        for name, pi in (("pi1", self.pi1), ("pi2", self.pi2)):
            if sorted(pi) != list(range(len(pi))):
                raise ValidationError(f"{name} is not a permutation: {pi}")


def identity_plan(d: int) -> PairingPlan:
    return PairingPlan(tuple(range(d)), tuple(range(d)), "identity")


def complement_plan(d: int) -> PairingPlan:
    rev = tuple(i ^ (d - 1) for i in range(d))
    return PairingPlan(rev, rev, "complement")


@dataclass(frozen=True)
class EntropyBoundInput:
    """A checked weight table, Eve's Gram, and the plan that pairs them."""

    weights: np.ndarray
    gram: EveGram
    plan: PairingPlan


@dataclass(frozen=True)
class KeyRateReport:
    """Entropy lower bound, leakage, and the resulting key rate.

    The values are floats for scalar inputs, arrays broadcast from the
    inputs otherwise.
    """

    s_lower: float | np.ndarray
    leakage: float | np.ndarray
    r_min: float | np.ndarray


# ---------------------------------------------------------------------------
# pairing plans over weight tables
# ---------------------------------------------------------------------------


def _partners(pi1: np.ndarray, pi2: np.ndarray) -> np.ndarray:
    """Flat (c, c') index of the bit-1 branch paired with each (0, b, b'), per plan."""
    return pi1[..., :, None] * pi1.shape[-1] + pi2[..., None, :]


def _pair_entropy(q0, q1, re) -> np.ndarray:
    """The Theorem-1 term, in bits, of a bit-0 branch of weight q0 paired
    with a bit-1 branch of weight q1, their vectors' overlap being Re = re
    (the arrays broadcast).

    A pair of weight s = q0 + q1 adds s (h(q0 / s) - h(lam)), lam being the
    largest eigenvalue fraction of its 2 x 2 block.
    """
    s = q0 + q1
    t = np.where(s > 0.0, s, 1.0)  # a pair of weight 0 gets lam = 1/2, q0/s = 0
    lam = 0.5 * (1.0 + np.sqrt((q0 - q1) ** 2 + 4.0 * re ** 2) / t)
    return s * (binary_entropy_bits(q0 / t) - binary_entropy_bits(np.minimum(lam, 1.0)))


def _pair_terms(w: np.ndarray, gram: EveGram, zero: np.ndarray,
                partner: np.ndarray) -> np.ndarray:
    """The :func:`_pair_entropy` of each pair of bit-0 branch b d + b' =
    ``zero`` and bit-1 branch c d + c' = ``partner`` (the arrays broadcast),
    with the weights from ``w`` and Re = sqrt(q0 q1) G from the Gram.  So a
    term is bitwise the same whichever other pairs are scored.
    """
    q0 = w[0].reshape(-1)[zero]
    q1 = w[1].reshape(-1)[partner]
    return _pair_entropy(q0, q1, np.sqrt(q0 * q1) * gram.cross(zero, partner))


def _table_values(terms: np.ndarray, total: float) -> np.ndarray:
    """The bound of each (d, d) table of pair terms: its sum, over its own
    flattened (b, b') axis, divided by the total weight."""
    return terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1) / total


def _plan_terms(w: np.ndarray, gram: EveGram, pi1: np.ndarray,
                pi2: np.ndarray) -> np.ndarray:
    """The (..., d, d) pair terms of each plan; branch (0, b, b') pairs with
    (1, pi1[b], pi2[b'])."""
    d = w.shape[1]
    return _pair_terms(w, gram, np.arange(d * d).reshape(d, d), _partners(pi1, pi2))


def _plan_value(w: np.ndarray, gram: EveGram, pi1: np.ndarray,
                pi2: np.ndarray) -> float | np.ndarray:
    """The Theorem-1 bound on non-negative weights, in bits, of one plan (a
    float) or of a stack: ``pi1`` and ``pi2`` broadcast over leading axes.
    Each plan's terms are summed over its own axis, so that it scores
    bitwise the same alone or in a stack."""
    return float_or_array(_table_values(_plan_terms(w, gram, pi1, pi2), w.sum()))


def _checked_weights(weights: np.ndarray) -> np.ndarray:
    """A finite (2, d, d) weight table >= -``CS_ATOL`` with mass, clamped to >= 0."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 3 or w.shape[0] != 2 or w.shape[1] != w.shape[2] or not w.size:
        raise ValidationError(f"weights must be (2, d, d), got {w.shape}")
    if not (np.isfinite(w).all() and w.min() >= -CS_ATOL):
        raise ValidationError("weights must be finite and non-negative")
    w = np.clip(w, 0.0, None)
    if not w.sum() > 0.0:
        raise ValidationError("weights have zero total mass")
    return w


def terms_from_plan(weights: np.ndarray, gram: EveGram | np.ndarray,
                    plan: PairingPlan) -> EntropyBoundInput:
    """Check a weight table, Gram and plan for :func:`theorem1_entropy_bound`.

    ``weights[a, b, b']`` are the branch weights p(b|a) p'(b'|ab); any
    overall normalization is carried through.  A dense Gram is split and
    checked by :func:`~sqcka.attacks.validate_gram`.  Every paired overlap
    must satisfy Cauchy-Schwarz, |Re| <= sqrt(q0 q1) + ``CS_ATOL``: a check
    stricter than the Gram's own PSD tolerance.
    """
    w = _checked_weights(weights)
    d = w.shape[1]
    g = validate_gram(gram, d)
    if len(plan.pi1) != d or len(plan.pi2) != d:
        raise ValidationError(f"plan does not fit d = {d} weights")
    partner = _partners(np.asarray(plan.pi1), np.asarray(plan.pi2))
    zero = np.arange(d * d).reshape(d, d)
    lim = np.sqrt(w[0] * w[1].reshape(-1)[partner])
    excess = float(np.max(np.abs(lim * g.cross(zero, partner)) - lim))
    if not excess <= CS_ATOL:
        raise ValidationError(f"a paired |Re overlap| exceeds sqrt(q0*q1) by {excess:.6g}")
    return EntropyBoundInput(w, g, plan)


def theorem1_entropy_bound(inp: EntropyBoundInput) -> float:
    """Entropy lower bound of one checked plan, in bits (raw, unclamped)."""
    return _plan_value(inp.weights, inp.gram, np.asarray(inp.plan.pi1),
                       np.asarray(inp.plan.pi2))


def _greedy_plan(w: np.ndarray) -> PairingPlan:
    d = w.shape[1]
    pi1 = np.empty(d, dtype=np.int64)
    pi2 = np.empty(d, dtype=np.int64)
    o0 = np.argsort(-w[0].sum(axis=1), kind="stable")
    o1 = np.argsort(-w[1].sum(axis=1), kind="stable")
    pi1[o0] = o1
    c0 = np.argsort(-w[0].sum(axis=0), kind="stable")
    c1 = np.argsort(-w[1].sum(axis=0), kind="stable")
    pi2[c0] = c1
    return PairingPlan(tuple(int(x) for x in pi1), tuple(int(x) for x in pi2),
                       "greedy")


def _line_cells(pis: np.ndarray, axis: int, lines: np.ndarray,
                partners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat bit-0 and bit-1 branches of line ``lines`` (a row b of the
    term table if ``axis`` is 0, a column b' if 1) paired with partner line
    ``partners`` (c for a row, c' for a column), the other permutation of
    ``pis`` = (pi1, pi2) fixed; each entry gives the (d,) branches of one
    line in cell order."""
    d = pis.shape[1]
    lines, partners = lines[:, None], partners[:, None]
    cells, other = np.arange(d), pis[1 - axis]
    if axis == 0:
        return lines * d + cells, partners * d + other
    return cells * d + lines, other * d + partners


class _LineTerms:
    """The (m, d) pair terms of m (line, partner line) entries of one 2-opt
    phase, for the plan ``pis`` whose permutation ``pis[1 - axis]`` the
    phase does not change.  The terms of the last ``TWO_OPT_BATCH_ENTRIES``
    // d entries computed (at most all d^2) are held, the oldest overwritten
    first, and a call whose entries are all held gathers them instead of
    computing them again; a term is bitwise the same either way."""

    def __init__(self, w: np.ndarray, gram: EveGram, pis: np.ndarray, axis: int):
        d = pis.shape[1]
        self.w, self.gram, self.pis, self.axis = w, gram, pis, axis
        self.held = np.empty((max(1, min(TWO_OPT_BATCH_ENTRIES // d, d * d)), d))
        self.slot = np.full(d * d, -1, dtype=np.int32)   # of each held entry
        self.entry = np.full(len(self.held), -1)         # held in each slot
        self.head = 0

    def __call__(self, lines: np.ndarray, partners: np.ndarray) -> np.ndarray:
        flat = lines * self.pis.shape[1] + partners
        slots = self.slot[flat]
        if slots.min() >= 0:
            return self.held[slots]
        terms = _pair_terms(self.w, self.gram,
                            *_line_cells(self.pis, self.axis, lines, partners))
        size = len(self.held)
        if flat.size <= size:  # hold them, in the slots after the last ones
            slots = (self.head + np.arange(flat.size)) % size
            old = self.entry[slots]
            self.slot[old[old >= 0]] = -1
            self.slot[flat], self.entry[slots], self.held[slots] = slots, flat, terms
            self.head = (self.head + flat.size) % size
        return terms


def _swapped(table: np.ndarray, total: float, axis: int, i: np.ndarray,
             j: np.ndarray, lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bounds and (k, d, d) term tables of the k plans whose term table
    is ``table`` with its lines i and j (rows if ``axis`` is 0, columns if
    1) replaced by the terms ``lines`` (k, 2, d) of their new pairs: a swap
    of pi1[i] and pi1[j] (pi2[i] and pi2[j]) changes only those lines.
    Each table is summed as :func:`_plan_value` sums it."""
    k = i.size
    tables = np.repeat(table[None], k, axis=0)
    view = tables if axis == 0 else tables.transpose(0, 2, 1)
    view[np.arange(k)[:, None], np.stack([i, j], axis=-1)] = lines
    return _table_values(tables, total), tables


def _swap_gains(sums: np.ndarray, p: np.ndarray, i: np.ndarray, j: np.ndarray,
                total: float) -> np.ndarray:
    """The screen's estimate of the change in the bound when p[i] and p[j]
    swap, from the line sums ``sums`` of the phase that swaps in p."""
    return ((sums[i, p[j]] + sums[j, p[i]]) - (sums[i, p[i]] + sums[j, p[j]])) / total


def _screen_margin(d: int) -> float:
    """The margin of the 2-opt screen at dimension d: ``TWO_OPT_MARGIN``, or
    the rounding bound derived in :func:`_two_opt` where that is larger."""
    return max(TWO_OPT_MARGIN, (2 * d * d + 4 * d + 16) * 2.0 ** -53)


def _two_opt(w: np.ndarray, gram: EveGram, plan: PairingPlan,
             budget: int) -> tuple[PairingPlan, float, int]:
    """First-improvement 2-opt from ``plan``, within ``budget`` plans scored.

    Each sweep tries the swaps (i, j), i < j row-major, of pi1 and then of
    pi2, and keeps every swap that raises the bound by over 1e-15; sweeps
    repeat while one keeps a swap.  Its plan, value and count of plans
    scored are those of scoring one swap at a time.

    Each axis of a sweep is a phase, in which the other permutation does
    not change.  So the sum L[b, c] of the terms of line b paired with
    partner line c (a row b with pi1[b] = c in a pi1 phase, a column with
    pi2[b] = c in a pi2 phase) stays valid through the phase, and a swap
    (i, j) of p changes the bound by the gain
    (L[i, p[j]] + L[j, p[i]] - L[i, p[i]] - L[j, p[j]]) / total.  The line
    sums are computed when the next window of swaps first reads them, in
    calls of ``TWO_OPT_CALL_TERMS`` terms, and kept for the next phase on
    the same axis while the other permutation stays as it was.  Each
    window is screened by one gather.  A swap whose gain clears 1e-15 by
    more than the margin is kept, one that falls short by more than it
    counts as scored and is passed over, and only the swaps in between are
    scored exactly, in order, by :func:`_swapped` from the current plan's
    term table and the held terms of the swapped lines.  That table and
    the plan's value are computed again only when an exact score, or the
    return, needs them.

    The margin bounds the rounding in both decisions.  With u = 2^-53,
    each term t of a pair of weight s has |t| <= s, so the terms of pairs
    that hold each branch at most once sum, in absolute value, to at most
    the total weight.  A sum of m such terms, in any order, is off by at
    most (m - 1) u times that (Higham's bound, to first order).  So the
    plan's value and the swapped plan's are each off by at most d^2 u from
    their exact sums of the same terms over ``total``, the threshold
    best + 1e-15 by u, and the gain, four line sums of d terms (two totals'
    worth) with three additions and a division, by (2 d + 8) u.  The sum,
    below (2 d^2 + 4 d + 16) u, is under 1e-9 (``TWO_OPT_MARGIN``) for
    every d <= 2048; a larger d takes the bound itself.  Exact ties are
    always scored exactly.
    """
    pis = np.array([plan.pi1, plan.pi2])
    d = pis.shape[1]
    total = w.sum()
    margin = _screen_margin(d)
    first, second = np.triu_indices(d, 1)
    window = max(1, TWO_OPT_BATCH_ENTRIES // (4 * d))  # swaps screened at once
    per_call = max(1, TWO_OPT_CALL_TERMS // d)         # line sums per call
    rescored = max(1, TWO_OPT_BATCH_ENTRIES // (d * d))
    cells = np.arange(d)
    table = None  # the current plan's term table, once an exact score needs it
    saved = [None, None]  # each axis's last line sums, and the plan they were for
    evals = 1
    improved = True
    while improved and evals < budget:
        improved = False
        for axis in (0, 1):
            p = pis[axis]
            terms = _LineTerms(w, gram, pis, axis)
            if saved[axis] is None or not np.array_equal(saved[axis][0], pis[1 - axis]):
                saved[axis] = (pis[1 - axis].copy(), np.full((d, d), np.nan))
            sums = saved[axis][1]  # NaN: not computed yet
            full = not np.isnan(sums).any()
            pos = 0
            while pos < first.size and evals < budget:
                end = min(first.size, pos + budget - evals, pos + window)
                i, j = first[pos:end], second[pos:end]
                if not full:
                    rows = np.concatenate([i, j, i, j])
                    cols = p[np.concatenate([i, j, j, i])]
                    miss = np.unique((rows * d + cols)[np.isnan(sums[rows, cols])])
                    for s in range(0, miss.size, per_call):
                        r, c = np.divmod(miss[s:s + per_call], d)
                        sums[r, c] = terms(r, c).sum(axis=1)
                    full = not np.isnan(sums).any()
                gain = _swap_gains(sums, p, i, j, total)
                live = np.flatnonzero(gain >= 1e-15 - margin)
                sure = np.flatnonzero(gain[live] > 1e-15 + margin)
                keep = bool(sure.size)  # the first sure swap, unless one before it is
                k = int(live[sure[0]]) if keep else end - pos - 1
                undecided = live[:sure[0]] if keep else live
                for s in range(0, undecided.size, rescored):
                    todo = undecided[s:s + rescored]
                    if table is None:
                        table = terms(cells, p[cells])
                        table = table if axis == 0 else np.ascontiguousarray(table.T)
                        best = float(_table_values(table, total))
                    a, b = i[todo], j[todo]
                    lines = terms(np.concatenate([a, b]), p[np.concatenate([b, a])])
                    vals, tables = _swapped(table, total, axis, a, b,
                                            lines.reshape(2, -1, d).transpose(1, 0, 2))
                    hits = np.flatnonzero(vals > best + 1e-15)
                    if hits.size:
                        k, keep = int(todo[hits[0]]), True
                        table, best = tables[hits[0]], float(vals[hits[0]])
                        break
                else:
                    if keep:  # kept by the screen: the table is stale
                        table = None
                if keep:
                    p[[i[k], j[k]]] = p[[j[k], i[k]]]
                    improved = True
                evals += k + 1
                pos += k + 1
    if table is None:
        best = _plan_value(w, gram, pis[0], pis[1])
    return (PairingPlan(tuple(int(x) for x in pis[0]), tuple(int(x) for x in pis[1]),
                        "greedy2opt"), best, evals)


def _greedy_search(w: np.ndarray, g: EveGram) -> tuple[PairingPlan, float]:
    """Best of the identity, complement and greedy plans, polished by capped 2-opt."""
    d = w.shape[1]
    seeds = [identity_plan(d), complement_plan(d), _greedy_plan(w)]
    values = _plan_value(w, g, np.array([p.pi1 for p in seeds]),
                         np.array([p.pi2 for p in seeds]))
    return _two_opt(w, g, seeds[int(np.argmax(values))], MAX_PAIRING_EVALS)[:2]


def pairing_maximize(weights: np.ndarray,
                     gram: EveGram | np.ndarray) -> tuple[PairingPlan, float]:
    """Best pairing plan found and its bound value.

    Any plan is a valid lower bound; the exhaustive search (channel
    dimension <= 4) is globally optimal, larger dimensions seed with the
    best of the identity, complement and greedy plans and polish with
    capped 2-opt.  The result never falls below the identity plan.  The
    weights are checked once, here; a dense Gram is split and checked by
    :func:`~sqcka.attacks.validate_gram`.
    """
    w = _checked_weights(weights)
    d = w.shape[1]
    g = validate_gram(gram, d)
    if d > EXHAUSTIVE_DIM:
        return _greedy_search(w, g)
    plans = list(itertools.permutations(range(d)))
    stack = np.array(plans)
    # row pi1, column pi2; argmax is the first best plan in (pi1, pi2) order
    table = _plan_value(w, g, stack[:, None], stack[None])
    i, j = np.unravel_index(np.argmax(table), table.shape)
    return PairingPlan(plans[i], plans[j], "exhaustive"), float(table[i, j])


# ---------------------------------------------------------------------------
# depolarizing closed forms and rates
# ---------------------------------------------------------------------------


def depolarizing_entropy_lower(params: DepolarizingParams,
                               mode: str) -> float | np.ndarray:
    """Closed-form entropy lower bound for the depolarizing channel.

    Only the two all-equal branches survive the complement pairing; with A
    their weight and lam* their eigenvalue fraction, the pairing bound is
    the term of that one pair, 2A(1 - h(lam*)), and the printed literal
    form is half of it, A(1 - h(lam*)).
    """
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    cat = eve_catalogue(params)
    exact = _pair_entropy(cat.norm_aaa, cat.norm_aaa, cat.cross_overlap)
    return float_or_array(0.5 * exact if mode == "paper_literal" else exact)


def qbob(q: float | np.ndarray) -> float | np.ndarray:
    """Error rate each receiver observes against the sender: Q/2."""
    return float_or_array(unit_interval(q, "q=") / 2.0)


def keyrate_lower(s_lower: float | np.ndarray,
                  q: float | np.ndarray) -> KeyRateReport:
    """Compose the rate: entropy bound minus error-correction leakage.

    The entropy bound is clamped at zero in the report; negative rates are
    reported as-is so callers can see where the protocol must abort.
    Array inputs broadcast against each other.
    """
    s_rep = float_or_array(np.where(s_lower > 0.0, s_lower, 0.0))
    leakage = binary_entropy(qbob(q))
    return KeyRateReport(s_lower=s_rep, leakage=leakage, r_min=s_rep - leakage)


def depolarizing_keyrate(params: DepolarizingParams, mode: str) -> KeyRateReport:
    """The closed-form rate of ``mode``, over arrays as over scalars."""
    return keyrate_lower(depolarizing_entropy_lower(params, mode), params.q)


# ---------------------------------------------------------------------------
# exact entropy oracle
# ---------------------------------------------------------------------------


def exact_entropy_oracle(attack: CollectiveAttack) -> float:
    """Exact S(A|E) of the key-round state, one Gram block at a time.

    Eve's vectors in different blocks are orthogonal, so rho_E and rho_AE
    are direct sums over the blocks and S(A|E) = sum_c [S(AE_c) - S(E_c)],
    with the entropies of unnormalized operators; a branch outside every
    block adds 0, because its vector alone tells Eve the sender bit.  With
    D the block's branch weights, rho_E,c has the non-zero spectrum of
    D^1/2 G_c D^1/2.  rho_AE,c is the direct sum over the sender bit of its
    parts, so S(AE_c) is the sum of the entropies of the bit-0 and bit-1
    diagonal sub-blocks of that matrix; the bit-0 branches come first in a
    block, whose members ascend.  The blocks of one size are solved in
    groups of equal bit-0 count, one batched eigenproblem per part.  So
    every eigenproblem is at most the block's size, and the size is checked
    before any is solved.  This is the independent reference the pairing
    bound is checked against.
    """
    gram = attack.gram
    dim = 2 * int(gram.sizes.max(initial=0))
    if dim > ORACLE_DIM_CAP:
        raise CapacityError(f"oracle state dim {dim} exceeds {ORACLE_DIM_CAP}")
    weights = attack.tables.weights.reshape(-1) / 2.0
    total = 0.0
    for members, blocks in gram.stacks():
        amp = np.sqrt(weights[members])
        rho_e = amp[:, :, None] * blocks * amp[:, None, :]
        total -= entropy_of_spectrum(np.linalg.eigvalsh(rho_e))
        zeros = np.count_nonzero(members < attack.d ** 2, axis=1)
        for z in np.unique(zeros).tolist():
            part = rho_e[zeros == z]
            total += (entropy_of_spectrum(np.linalg.eigvalsh(part[:, :z, :z]))
                      + entropy_of_spectrum(np.linalg.eigvalsh(part[:, z:, z:])))
    return total
