"""Conditional-entropy lower bounds, key rates, and the exact entropy oracle.

The bound pairs each of Eve's post-round branches tagged to sender bit 0
with one tagged to bit 1 (a pairing plan); every plan yields a valid lower
bound on S(A|E), so the search over plans only tightens it.  The term of
one pair is written once, in ``_pair_entropy``, over arrays of its weights
and overlap; ``_pair_terms`` gathers those from a weight table and a Gram
(checked when built), ``_plan_value`` sums the terms over one plan or a
stack, and ``theorem1_entropy_bound(terms_from_plan(...))`` is its checked
entry.  The exhaustive search scores all plans at once; the
2-opt search recomputes only the two rows or columns of the term table that
a swap changes, for a batch of swaps at a time.  For the depolarizing channel
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

#: Most term-table entries that one batch of 2-opt swaps holds, so that a
#: batch's memory does not grow with d; past d = 256 a batch is one table.
TWO_OPT_BATCH_ENTRIES = 1 << 16

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


def _swapped(w: np.ndarray, gram: EveGram, pis: np.ndarray, table: np.ndarray,
             total: float, axis: int, i: np.ndarray,
             j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bounds and (k, d, d) term tables of the k plans that swap
    ``pis[axis][i]`` and ``pis[axis][j]`` in the plan ``pis`` = (pi1, pi2),
    whose term table is ``table``.

    A swap in pi1 changes rows i and j of the table, one in pi2 columns i
    and j; only those 2 d terms are computed, the rest is copied.
    """
    d = table.shape[0]
    lines = np.stack([i, j], axis=-1)[..., None]      # (k, 2, 1)
    moved = pis[axis][np.stack([j, i], axis=-1)][..., None]
    other = pis[1 - axis]
    cells = np.arange(d)
    if axis == 0:
        zero, partner = lines * d + cells, moved * d + other
    else:
        zero, partner = cells * d + lines, other * d + moved
    k = i.size
    tables = np.repeat(table[None], k, axis=0)
    tables.reshape(k, -1)[np.arange(k)[:, None], zero.reshape(k, -1)] = \
        _pair_terms(w, gram, zero, partner).reshape(k, -1)
    return _table_values(tables, total), tables


def _two_opt(w: np.ndarray, gram: EveGram, plan: PairingPlan,
             budget: int) -> tuple[PairingPlan, float, int]:
    """First-improvement 2-opt from ``plan``, within ``budget`` plans scored.

    Each sweep tries the swaps (i, j), i < j row-major, of pi1 and then of
    pi2, and keeps every swap that raises the bound by over 1e-15; sweeps
    repeat while one keeps a swap.  The next swaps of a sweep are scored in
    batches of at most ``TWO_OPT_BATCH_ENTRIES`` table entries against the
    current plan; the first one that improves is kept, the swaps before it
    count as scored, and the sweep goes on after it.  So the search, its
    plan, value and count are those of scoring one swap at a time.
    """
    pis = np.array([plan.pi1, plan.pi2])
    d = pis.shape[1]
    total = w.sum()
    table = _plan_terms(w, gram, pis[0], pis[1])
    best = float(_table_values(table, total))
    evals = 1
    first, second = np.triu_indices(d, 1)
    batch = max(1, TWO_OPT_BATCH_ENTRIES // (d * d))
    improved = True
    while improved and evals < budget:
        improved = False
        for axis in (0, 1):
            pos = 0
            while pos < first.size and evals < budget:
                end = min(pos + batch, first.size, pos + budget - evals)
                vals, tables = _swapped(w, gram, pis, table, total, axis,
                                        first[pos:end], second[pos:end])
                hits = np.flatnonzero(vals > best + 1e-15)
                if hits.size:  # keep the first improving swap, go on after it
                    k = int(hits[0])
                    i, j = first[pos + k], second[pos + k]
                    pis[axis, [i, j]] = pis[axis, [j, i]]
                    table, best = tables[k], float(vals[k])
                    improved = True
                    end = pos + k + 1
                evals += end - pos
                pos = end
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
