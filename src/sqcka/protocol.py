"""One-round state machine and session runner for the GHZ reflection protocol.

One fully quantum sender (Alice) shares a GHZ-type state with n receivers
who either reflect their qubit (CTRL rounds, used for eavesdropping tests)
or measure-and-resend in the computational basis (SIFT rounds, producing
raw-key bits).  The per-round basis choice Theta is modeled as a classical
bit shared by all parties through the pre-agreed schedule; every branch the
statistics depend on has it measured, so the simulated distributions are
unchanged.

Rounds can be evaluated three ways, all agreeing to 1e-10:

* exact statevector simulation of a dilated attack (environment unitaries),
* exact statevector simulation from an analytic attack via a minimal
  purifying environment built from the Eve Gram,
* closed-form statistics straight from the attack tables.

Register order in exact simulation: A (sender qubit), T (transferring
qubits), B (receivers' memory, SIFT only), then forward and backward
environment registers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .attacks import CollectiveAttack, gram_purification
from .estimation import TallyCounts
from .qmath import (
    CapacityError,
    DIM_CAP,
    DomainError,
    RegisterLayout,
    StateVector,
    ValidationError,
    apply_on_subsystems,
    basis_state,
    bits_to_index,
    complement_index,
    slice_overlap,
    subsystem_probabilities,
    tensor,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)

#: Cap on a session's round count.  A session holds its outcome columns: 6 B
#: a round up to n = 7, and 8 B from n = 8 on, where b and c are int16.
ROUNDS_CAP = 10 ** 8

#: Cap on a session's CTRL round count: expanding the schedule holds about
#: 250 B per CTRL index.  The default, ceil(sqrt(N)), is at most 10^4.
CTRL_CAP = 10 ** 6


@dataclass(frozen=True)
class ProtocolParams:
    """Session-level parameters; transmission is lossless (not modeled)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need at least one receiver, got n={self.n}")


@dataclass(frozen=True)
class ThetaSchedule:
    """Which rounds are CTRL (reflection) rounds, as 1-based indices."""

    num_rounds: int
    ctrl_indices: tuple[int, ...]

    def __post_init__(self):
        check_rounds(self.num_rounds)
        idx = np.asarray(self.ctrl_indices)
        if idx.ndim != 1 or idx.size and idx.dtype.kind not in "iu":
            raise ValidationError("ctrl_indices must be a sequence of integers")
        if (idx[1:] <= idx[:-1]).any():
            raise ValidationError("ctrl_indices must be strictly increasing")
        if idx.size and not (1 <= idx[0] and idx[-1] <= self.num_rounds):
            raise ValidationError("ctrl_indices outside 1..num_rounds")
        object.__setattr__(self, "ctrl_indices", tuple(map(int, self.ctrl_indices)))

    @property
    def num_ctrl(self) -> int:
        return len(self.ctrl_indices)


@dataclass(frozen=True)
class SessionRecord:
    """Everything a finished session produced.

    Round outcomes are columns indexed by round (0-based: round j is entry
    j - 1), with -1 wherever a field does not apply to the round's kind.
    ``theta`` is 0 for CTRL and 1 for SIFT rounds; ``a`` is the sender bit
    (SIFT and Z-test rounds), ``b`` the receivers' string (SIFT), ``c`` the
    returned string (SIFT and Z-test) and ``ghz_pass`` the GHZ-test result
    (GHZ-test rounds).  Strings are big-endian integer indices.
    ``disclosed`` marks the SIFT rounds disclosed for estimation; the other
    SIFT rounds are the key rounds, which the ``raw_key_*`` properties read
    through a bool mask (an index array would take 8 B per key round).
    """

    theta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    ghz_pass: np.ndarray
    disclosed: np.ndarray
    tallies: TallyCounts

    @property
    def raw_key_alice(self) -> np.ndarray:
        """The sender bit of each key round, as uint8."""
        return self.a[(self.theta == 1) & ~self.disclosed].view(np.uint8)

    @property
    def raw_key_bobs(self) -> np.ndarray:
        """Receiver i's bit of each key round in row i, as uint8."""
        n, bits = self.tallies.n, self.b[(self.theta == 1) & ~self.disclosed]
        raw = np.empty((n, bits.size), dtype=np.uint8)
        for i in range(n):  # row by row, cast in place: no (n, K) temporary
            np.right_shift(bits, n - 1 - i, out=raw[i], casting="unsafe")
        raw &= 1
        return raw


@dataclass(frozen=True)
class ObservedStatistics:
    """Exact per-round observables for one Theta branch.

    CTRL rounds store ``ctrl_az`` (joint sender-bit/returned-string
    distribution) and the per-branch ``re_overlap``; SIFT rounds store
    ``abc_joint`` (sender bit, receivers' string, returned string) and the
    global-convention ``cross_overlap`` of the two all-equal Eve branches.
    Every other observable is a property computed from those, and is None
    on the branch it does not apply to.
    """

    theta: int
    ctrl_az: np.ndarray | None = None
    re_overlap: float | None = None
    abc_joint: np.ndarray | None = None
    cross_overlap: float | None = None

    @property
    def az_joint(self) -> np.ndarray | None:
        """SIFT: the (sender bit, returned string) marginal of ``abc_joint``."""
        return None if self.abc_joint is None else self.abc_joint.sum(axis=1)

    @property
    def pb(self) -> np.ndarray | None:
        """SIFT: the receivers' string marginal of ``abc_joint``."""
        return None if self.abc_joint is None else self.abc_joint.sum(axis=(0, 2))

    @property
    def pa(self) -> np.ndarray:
        """The sender-bit marginal."""
        az = self.ctrl_az if self.abc_joint is None else self.az_joint
        return az.sum(axis=1)

    @property
    def branch_norms(self) -> np.ndarray | None:
        """CTRL: the per-branch squared norms, 2 * ``ctrl_az``."""
        return None if self.ctrl_az is None else 2.0 * self.ctrl_az

    @property
    def p_ghz(self) -> float | None:
        """CTRL: the GHZ-test pass probability, the squared norm of x + y over
        sqrt(2) for the all-equal branches x and y: |x|^2/2 + |y|^2/2 + Re<x, y>."""
        if self.ctrl_az is None:
            return None
        d = self.ctrl_az.shape[1]
        return float((self.ctrl_az[0, 0] + self.ctrl_az[1, d - 1] + self.re_overlap) / 2.0)


# ---------------------------------------------------------------------------
# state preparation and local operations
# ---------------------------------------------------------------------------


def prepare_ghz(num_qubits: int, x: int, y) -> StateVector:
    """GHZ-type state (|0,y> + (-1)^x |1,~y>)/sqrt(2) on num_qubits qubits."""
    if num_qubits < 2:
        raise DomainError(f"GHZ-type states need >= 2 qubits, got {num_qubits}")
    n = num_qubits - 1
    if len(y) != n:
        raise DomainError(f"y has length {len(y)}, expected {n}")
    y_idx = bits_to_index(y)
    return StateVector([SQRT_HALF, SQRT_HALF * (-1.0 if x else 1.0)],
                       [y_idx, (1 << n) + complement_index(y_idx, n)], 1 << num_qubits)


def bob_operation(n: int) -> np.ndarray:
    """Receivers' measure-and-resend copy (SIFT rounds) on T x B, as a permutation.

    For every string t on T, the involution |0...0>_B <-> |t>_B copies |t>_T
    into the blank memory register and extends the copy to a full unitary.
    Returned as ``perm`` over the big-endian (T, B) index: basis state j goes
    to ``perm[j]``.  (In CTRL rounds the receivers reflect: no operation.)
    """
    d = 1 << n
    t, b = np.divmod(np.arange(d * d), d)
    return t * d + np.where(b == 0, t, np.where(b == t, 0, b))


# ---------------------------------------------------------------------------
# exact round evolution
# ---------------------------------------------------------------------------


def _with_environments(pairs: list[tuple[str, int]], parts: list[StateVector],
                       legs) -> tuple[StateVector, RegisterLayout, list[tuple[str, ...]]]:
    """The state ``parts``, over the registers ``pairs``, tensored with the
    environment of each dilated leg in ``legs``, a sequence of (label prefix,
    leg); its layout; and the targets of each leg's unitary: T, then the
    environment slots it acts on."""
    pairs, targets = list(pairs), []
    for prefix, leg in legs:
        labels = [f"{prefix}{i + 1}" for i in range(len(leg.env_dims))]
        pairs += zip(labels, leg.env_dims)
        targets.append(("T",) + tuple(labels[i] for i in leg.env_targets))
    layout = RegisterLayout(pairs)
    if layout.total_dim > DIM_CAP:
        raise CapacityError(f"round state dim {layout.total_dim} exceeds cap {DIM_CAP}")
    psi = reduce(tensor, parts + [StateVector(leg.env_state) for _, leg in legs])
    return psi, layout, targets


def _dilated_round_state(attack: CollectiveAttack, theta: int
                         ) -> tuple[StateVector, RegisterLayout]:
    n, d = attack.n, attack.d
    fwd, bwd = attack.forward_dilation, attack.backward_dilation
    pairs, parts = [("A", 2), ("T", d)], [prepare_ghz(n + 1, 0, "0" * n)]
    if theta == 1:
        pairs.append(("B", d))
        parts.append(basis_state(d, 0))
    psi, layout, (fwd_targets, bwd_targets) = _with_environments(
        pairs, parts, (("E", fwd), ("Et", bwd)))
    psi = apply_on_subsystems(fwd.perm, psi, layout, fwd_targets)
    if theta == 1:
        psi = apply_on_subsystems(bob_operation(n), psi, layout, ("T", "B"))
    psi = apply_on_subsystems(bwd.perm, psi, layout, bwd_targets)
    return psi, layout


#: Tolerance on each sender bit's reflected mass when checking that tables +
#: gram describe a channel a unitary dilation can realize.
CTRL_CONSISTENCY_ATOL = 1e-9


def _check_reflected_mass(q_ac: np.ndarray) -> None:
    """Raise unless the reflected branch norms q_ac sum over c to 1 for each
    sender bit a, as in every unitary round (a dilated one is by construction)."""
    mass_dev = float(np.max(np.abs(q_ac.sum(axis=1) - 1.0)))
    if mass_dev > CTRL_CONSISTENCY_ATOL:
        raise ValidationError(
            f"tables and gram admit no unitary round: reflected branch mass "
            f"deviates from 1 by {mass_dev:.3e}")


def _embedded_round_state(attack: CollectiveAttack, theta: int
                          ) -> tuple[StateVector, RegisterLayout]:
    n, d = attack.n, attack.d
    m = gram_purification(attack.gram)  # (K, 2 d^2)
    k = m.shape[0]
    vecs = np.ascontiguousarray(m.T).reshape(2, d, d, k)
    coef = np.sqrt(attack.tables.weights) * SQRT_HALF
    if theta == 1:
        amps = np.einsum("abc,abck->acbk", coef, vecs)
        layout = RegisterLayout([("A", 2), ("T", d), ("B", d), ("EV", k)])
    else:
        amps = np.einsum("abc,abck->ack", coef, vecs)
        _check_reflected_mass(2.0 * np.einsum("ack,ack->ac", amps, amps))
        layout = RegisterLayout([("A", 2), ("T", d), ("EV", k)])
    flat = amps.reshape(-1)
    return StateVector(flat / math.sqrt(float(np.vdot(flat, flat).real))), layout


def statistics_from_state(state: StateVector, layout: RegisterLayout,
                          theta: int) -> ObservedStatistics:
    """All round observables, read off an exact final state.

    The overlaps are those of the all-equal branches (sender bit 0 with
    string 0...0, bit 1 with 1...1), read by :func:`~sqcka.qmath.slice_overlap`
    on the state's support.
    """
    d = layout.dims[layout.axis("T")]
    if theta == 1:
        joint = subsystem_probabilities(state, layout, ("A", "B", "T"))
        cross = slice_overlap(state, layout, ("A", "B", "T"), (0, 0, 0), (1, d - 1, d - 1))
        return ObservedStatistics(theta=1, abc_joint=joint, cross_overlap=cross.real)
    ctrl_az = subsystem_probabilities(state, layout, ("A", "T"))
    re_tilde = 2.0 * slice_overlap(state, layout, ("A", "T"), (0, 0), (1, d - 1)).real
    return ObservedStatistics(theta=0, ctrl_az=ctrl_az, re_overlap=re_tilde)


def run_round_exact(params: ProtocolParams, attack: CollectiveAttack, theta: int
                    ) -> tuple[StateVector, RegisterLayout, ObservedStatistics]:
    """Exact quantum evolution of one round: prepare, forward noise,
    receivers' action, backward noise; statistics of the final measurement.

    Uses the attack's dilation when it has one; otherwise synthesizes a
    minimal purifying environment from the Eve Gram.  Raises
    :class:`~sqcka.qmath.CapacityError` when the state would exceed the cap,
    at which point callers fall back to the analytic tables.
    """
    if params.n != attack.n:
        raise ValidationError(f"params n={params.n} != attack n={attack.n}")
    if theta not in (0, 1):
        raise DomainError(f"theta must be 0 or 1, got {theta}")
    if attack.has_dilation:
        state, layout = _dilated_round_state(attack, theta)
    else:
        state, layout = _embedded_round_state(attack, theta)
    return state, layout, statistics_from_state(state, layout, theta)


def forward_conditionals_exact(attack: CollectiveAttack) -> np.ndarray:
    """p(b|a) read off the dilated forward leg alone (before any return)."""
    fwd = attack.forward_dilation
    if fwd is None:
        raise ValidationError("attack has no forward dilation")
    n, d = attack.n, attack.d
    psi, layout, (targets,) = _with_environments(
        [("A", 2), ("T", d)], [prepare_ghz(n + 1, 0, "0" * n)], (("E", fwd),))
    psi = apply_on_subsystems(fwd.perm, psi, layout, targets)
    return 2.0 * subsystem_probabilities(psi, layout, ("A", "T"))


def backward_conditionals_exact(attack: CollectiveAttack) -> np.ndarray:
    """p'(b'|b) of the dilated return leg, per input string b.

    The return environment is fresh, so the dilated form cannot depend on
    the sender bit; the result is a (d, d) stochastic matrix.
    """
    bwd = attack.backward_dilation
    if bwd is None:
        raise ValidationError("attack has no backward dilation")
    d = attack.d
    out = np.zeros((d, d))
    for b in range(d):
        psi, layout, (targets,) = _with_environments([("T", d)], [basis_state(d, b)],
                                                     (("Et", bwd),))
        psi = apply_on_subsystems(bwd.perm, psi, layout, targets)
        out[b] = subsystem_probabilities(psi, layout, ("T",))
    return out


# ---------------------------------------------------------------------------
# analytic round statistics
# ---------------------------------------------------------------------------


def round_statistics(attack: CollectiveAttack, theta: int) -> ObservedStatistics:
    """Round observables straight from the attack tables and Eve Gram.

    Each overlap term is a diagonal term (a branch with itself) plus a sum
    over the off-diagonal entries the Gram stores.
    """
    if theta not in (0, 1):
        raise DomainError(f"theta must be 0 or 1, got {theta}")
    d = attack.d
    weights = attack.tables.weights
    gram = attack.gram
    if theta == 1:
        joint = weights / 2.0
        # G[(0, 0, 0), (1, d-1, d-1)], the first and the last branch: stored
        # only if one block holds both, as its first and last member (members
        # ascend), in the last entry of its first row; 0.0 otherwise
        starts, offsets = gram._starts
        ends = np.flatnonzero((gram.members[starts] == 0)
                              & (gram.members[starts + gram.sizes - 1] == 2 * d * d - 1))
        cross = math.sqrt(joint[0, 0, 0] * joint[1, d - 1, d - 1]) * (
            float(gram.values[offsets[ends[0]] + gram.sizes[ends[0]] - 1]) if ends.size else 0.0)
        return ObservedStatistics(theta=1, abc_joint=joint, cross_overlap=cross)
    x, y, g = gram.entries()
    # reflection branch: coherent over b inside Eve's register, so q_ac also
    # sums sqrt(w_x w_y) G[x, y] over stored pairs x != y sharing a and c
    flat = weights.reshape(-1)
    term = np.sqrt(flat[x] * flat[y]) * g
    (ax, _, cx), (ay, _, cy) = (np.unravel_index(i, (2, d, d)) for i in (x, y))
    q_ac = weights.sum(axis=1)
    pair = (x != y) & (ax == ay) & (cx == cy)
    np.add.at(q_ac, (ax[pair], cx[pair]), term[pair])
    _check_reflected_mass(q_ac)
    re_tilde = float(term[(ax == 0) & (cx == 0) & (ay == 1) & (cy == d - 1)].sum())
    return ObservedStatistics(theta=0, ctrl_az=q_ac / 2.0, re_overlap=re_tilde)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


#: Most buckets of a SIFT guide (int32 counts and bool flags: 10 MiB).  A
#: table has at most 2^21 entries (n <= 10), so the cap is never below it.
_GUIDE_CAP = 1 << 21

#: Table entries scaled per pass while a guide is built; bounds its temporaries.
_GUIDE_BLOCK = 1 << 16


class RoundSampler:
    """Maps arrays of uniforms in [0, 1) to outcome arrays drawn from the
    attack's analytic per-round distributions; flat indices follow the C
    order of ``abc_joint`` and ``ctrl_az``.

    Each draw is ``np.searchsorted(cum, u, side="right")`` over the table's
    normalized running sums ``cum``: the number of entries <= u.  SIFT
    draws, one per round of a session, read a guide table (Chen & Asau,
    1974) instead: m buckets [k/m, (k+1)/m), m a power of two, where
    ``_busy[k]`` marks an entry strictly inside the bucket and ``_lo[k]``
    counts the entries below (k+1)/m, which are the entries <= k/m when
    the bucket is not busy.  A uniform u falls in bucket floor(u m),
    exactly, as m is a power of two; its index is that bucket's ``_lo``
    unless the bucket is busy, and only those uniforms are searched.  So the
    guide returns the search's index for every u.  m doubles from the table
    size while more than 1/16 of the buckets are busy, up to ``_GUIDE_CAP``.
    """

    def __init__(self, attack: CollectiveAttack):
        sift = round_statistics(attack, 1)
        ctrl = round_statistics(attack, 0)
        self.p_ghz = float(ctrl.p_ghz)
        self._sift_cum = self._cumulative(sift.abc_joint)
        self._ctrl_cum = self._cumulative(ctrl.ctrl_az)
        m = self._sift_cum.size
        self._lo, self._busy = self._guide(self._sift_cum, m)
        while 16 * np.count_nonzero(self._busy) > m and m < _GUIDE_CAP:
            m *= 2
            self._lo, self._busy = self._guide(self._sift_cum, m)

    @staticmethod
    def _cumulative(table: np.ndarray) -> np.ndarray:
        cum = np.cumsum(np.asarray(table, dtype=np.float64).ravel())
        return cum / cum[-1]

    @staticmethod
    def _guide(cum: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The (``_lo``, ``_busy``) guide of m buckets over ``cum``.

        An entry v counts in ``_lo[k]`` for every k >= floor(v m), and makes
        bucket floor(v m) busy unless v m is a whole number; v m is exact.
        """
        low = np.empty(cum.size, dtype=np.int32)  # floor(v m) of every entry
        busy = np.zeros(m, dtype=bool)
        for s in range(0, cum.size, _GUIDE_BLOCK):
            x = cum[s:s + _GUIDE_BLOCK] * m
            k = low[s:s + _GUIDE_BLOCK]
            k[:] = x  # truncates, and x >= 0
            busy[k[k != x]] = True
        return np.cumsum(np.bincount(low, minlength=m + 1)[:m]).astype(np.int32), busy

    def draw_sift(self, u: np.ndarray) -> np.ndarray:
        """Flat (sender bit, receivers' string, returned string) indices."""
        k = (u * len(self._lo)).astype(np.intp)
        out = self._lo[k]
        busy = np.flatnonzero(self._busy[k])
        out[busy] = np.searchsorted(self._sift_cum, u[busy], side="right")
        return out

    def draw_ghz(self, u: np.ndarray) -> np.ndarray:
        """GHZ-test results, True where the test passes."""
        return u < self.p_ghz

    def draw_ztest(self, u: np.ndarray) -> np.ndarray:
        """Flat (sender bit, returned string) indices."""
        return np.searchsorted(self._ctrl_cum, u, side="right")


# ---------------------------------------------------------------------------
# schedule expansion
# ---------------------------------------------------------------------------


def check_rounds(num_rounds: int) -> None:
    """Raise, before any allocation, unless num_rounds is an int in 0..``ROUNDS_CAP``."""
    if not isinstance(num_rounds, (int, np.integer)):
        raise ValidationError(f"round count {num_rounds!r} is not an integer")
    if num_rounds < 0:
        raise DomainError(f"negative round count {num_rounds}")
    if num_rounds > ROUNDS_CAP:
        raise CapacityError(f"{num_rounds} rounds exceed ROUNDS_CAP = {ROUNDS_CAP}")


def check_ctrl_count(num_ctrl: int) -> None:
    """Raise, before any allocation, unless num_ctrl is an int in 0..``CTRL_CAP``;
    :func:`expand_theta_schedule` also caps it at the round count."""
    if not isinstance(num_ctrl, (int, np.integer)):
        raise ValidationError(f"CTRL count {num_ctrl!r} is not an integer")
    if num_ctrl < 0:
        raise DomainError(f"num_ctrl {num_ctrl} outside 0..num_rounds")
    if num_ctrl > CTRL_CAP:
        raise CapacityError(f"{num_ctrl} CTRL rounds exceed CTRL_CAP = {CTRL_CAP}")


def check_session_seed(seed: int) -> None:
    """Raise unless a session seed is a non-negative integer."""
    if seed < 0:
        raise DomainError(f"session seed {seed} is negative")


def check_cut_and_choose_fraction(fraction: float) -> None:
    """Raise unless the disclosed share of SIFT rounds lies in [0, 1)."""
    if not 0.0 <= fraction < 1.0:
        raise DomainError(f"cut-and-choose fraction {fraction} outside [0, 1)")


def default_ctrl_count(num_rounds: int) -> int:
    """Default CTRL budget: ceil(sqrt(N)) rounds."""
    return math.isqrt(max(num_rounds, 0) - 1) + 1 if num_rounds > 0 else 0


class _XofStream:
    """Deterministic 64-bit stream from SHAKE-256 over a seed."""

    def __init__(self, seed: bytes):
        self._xof = hashlib.shake_256(seed)
        self._buf = b""
        self._len = 0
        self._pos = 0

    def next_u64(self) -> int:
        if self._pos + 8 > self._len:
            self._len = max(1024, self._len * 2)
            self._buf = self._xof.digest(self._len)
        out = int.from_bytes(self._buf[self._pos:self._pos + 8], "big")
        self._pos += 8
        return out

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


def _seed_bytes(seed) -> bytes:
    if isinstance(seed, bytes):
        return seed
    if isinstance(seed, str):
        return seed.encode("utf-8")
    if isinstance(seed, (int, np.integer)):
        v = int(seed)
        width = max(1, (v.bit_length() + 8) // 8)
        return v.to_bytes(width, "big", signed=True)
    raise DomainError(f"cannot derive schedule seed from {type(seed).__name__}")


def expand_theta_schedule(seed, num_rounds: int, num_ctrl: int | None = None
                          ) -> ThetaSchedule:
    """Deterministically choose the CTRL round indices from a shared seed.

    All parties expand the same seed to the same schedule.  ``num_ctrl``
    defaults to ceil(sqrt(N)).  Selection is a partial Fisher-Yates shuffle
    of the pool 1..N driven by a SHAKE-256 stream, so any seed-holding party
    reproduces it.  Only displaced pool entries are stored, so memory is
    O(num_ctrl) whatever N is.
    """
    check_rounds(num_rounds)
    if num_ctrl is None:
        num_ctrl = default_ctrl_count(num_rounds)
    check_ctrl_count(num_ctrl)
    if num_ctrl > num_rounds:
        raise DomainError(f"num_ctrl {num_ctrl} outside 0..num_rounds ({num_rounds})")
    stream = _XofStream(_seed_bytes(seed))
    moved: dict[int, int] = {}  # pool position -> round, where not position + 1
    chosen = []
    for i in range(num_ctrl):
        j = i + stream.below(num_rounds - i)
        chosen.append(moved.get(j, j + 1))
        moved[j] = moved.pop(i, i + 1)  # position i is never read again
    return ThetaSchedule(num_rounds=num_rounds, ctrl_indices=tuple(sorted(chosen)))


# ---------------------------------------------------------------------------
# session runner
# ---------------------------------------------------------------------------

#: Rounds sampled per vectorized pass; bounds the per-pass temporaries.
_CHUNK = 1 << 16


def run_session(params: ProtocolParams, attack: CollectiveAttack,
                schedule: ThetaSchedule, rng,
                cut_and_choose_fraction: float = 0.1) -> SessionRecord:
    """Run a full session: sampled rounds and their tallies.

    CTRL rounds alternate GHZ test / Z cut-and-choose test by their position
    in the schedule (even positions test GHZ).  The given fraction of SIFT
    rounds is publicly disclosed for parameter estimation, as the
    ``disclosed`` column marks; the other SIFT rounds make the raw keys.

    Randomness is one stream: the session seed (a non-negative ``int``, or
    one draw from a ``Generator``) keys a Philox4x64 generator, read in round
    order, and round j (1-based) uses its uniforms 2(j-1), the outcome draw,
    and 2(j-1) + 1, the disclosure draw of SIFT rounds.  So a round depends
    only on the seed and j, whatever the chunk size.  Rounds are sampled in
    chunks of ``_CHUNK``, which bounds the temporaries; the outcome columns
    (see :class:`SessionRecord`) stay O(N) in compact dtypes.

    A chunk draws a SIFT outcome for every round from its first uniform,
    through the sampler's guide table; CTRL rounds then overwrite theirs with
    a GHZ-test or Z-test draw from that same uniform.  Flat indices split
    into a, b and c by shifts and masks (d = 2^n), written by slice, and the
    disclosed rounds are marked by a mask.
    """
    check_cut_and_choose_fraction(cut_and_choose_fraction)
    if params.n != attack.n:
        raise ValidationError(f"params n={params.n} != attack n={attack.n}")
    base = int(rng.integers(0, 1 << 62)) if isinstance(rng, np.random.Generator) \
        else int(rng)
    check_session_seed(base)
    gen = np.random.Generator(
        np.random.Philox(key=np.random.SeedSequence(base).generate_state(2, np.uint64)))
    sampler = RoundSampler(attack)
    n, d, num = attack.n, attack.d, schedule.num_rounds
    theta = np.ones(num, dtype=np.int8)
    a, ghz = np.full((2, num), -1, dtype=np.int8)
    b, c = np.full((2, num), -1, dtype=np.min_scalar_type(-d))  # -1 .. d - 1
    disclosed = np.zeros(num, dtype=np.bool_)
    ctrl = np.asarray(schedule.ctrl_indices, dtype=np.int64) - 1
    tallies = TallyCounts(n=n)
    for start in range(0, num, _CHUNK):
        stop = min(start + _CHUNK, num)
        u = gen.random(2 * (stop - start)).reshape(-1, 2)
        th, ca, cb, cc, cg, shown = (col[start:stop]
                                     for col in (theta, a, b, c, ghz, disclosed))
        abc = sampler.draw_sift(u[:, 0])  # every round; CTRL rounds overwrite
        ca[:] = abc >> 2 * n
        cb[:] = (abc >> n) & (d - 1)
        cc[:] = abc & (d - 1)
        k0, k1 = np.searchsorted(ctrl, (start, stop))
        at = ctrl[k0:k1] - start
        th[at] = 0
        cb[at] = -1
        ghz_at, z_at = at[k0 % 2::2], at[1 - k0 % 2::2]  # even schedule positions
        passed = sampler.draw_ghz(u[ghz_at, 0])
        cg[ghz_at] = passed
        ca[ghz_at] = cc[ghz_at] = -1
        az = sampler.draw_ztest(u[z_at, 0])
        ca[z_at] = az >> n
        cc[z_at] = az & (d - 1)
        shown[:] = th.view(np.bool_) & (u[:, 1] < cut_and_choose_fraction)
        tallies += TallyCounts(
            n=n, ghz_pass=int(passed.sum()), ghz_total=passed.size,
            z_ctrl_counts=np.bincount(az, minlength=2 * d).reshape(2, d),
            sift_joint_counts=np.bincount(abc[np.flatnonzero(shown)] >> n,
                                          minlength=2 * d).reshape(2, d),
            sift_total=np.count_nonzero(shown))
    return SessionRecord(theta=theta, a=a, b=b, c=c, ghz_pass=ghz,
                         disclosed=disclosed, tallies=tallies)
