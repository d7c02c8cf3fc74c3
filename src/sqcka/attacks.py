"""Collective-attack models: channel tables, Eve-overlap data, dilations.

A one-round collective attack touches the transferring qubits twice (on the
way out and on the way back).  It is described by conditional-probability
tables plus the Gram matrix of real overlaps among Eve's normalized
post-interaction vectors.  A dilation (unitaries acting on the
transferring register and an explicit environment, stored as basis
permutations) may realize the same channel as a cross-check.

The depolarizing channel is fully built in, with its dilation.  Overlap data
use the *global* normalization convention throughout this module: squared
norms are branch weights of the unnormalized post-round state and sum to 1
over all branches.  The per-branch convention used by the estimators is
exactly twice these values; conversion happens at module boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import CapacityError, DomainError, ValidationError

TABLE_ATOL = 1e-12
GRAM_PSD_ATOL = 1e-9

#: Cap on the dense Gram's (2 d^2)^2 float64 entries: n <= 6, 512 MiB.
GRAM_ENTRY_CAP = 1 << 26


def check_attack_size(n: int) -> None:
    """Raise :class:`CapacityError`, before any allocation, if n is too large.

    The dense Gram is an attack's largest array, so its cap also bounds the
    tables and keeps the dilations under ``DIM_CAP``.
    """
    if n < 1:
        raise DomainError(f"need at least one receiving party, got n={n}")
    # (2 d^2)^2 = 2^(4n + 2) entries; comparing exponents builds no huge integer
    if 4 * n + 2 > GRAM_ENTRY_CAP.bit_length() - 1:
        raise CapacityError(f"an attack for n={n} needs a dense Gram of 2^{4 * n + 2} "
                            "entries, over GRAM_ENTRY_CAP = 2^26 (n <= 6)")


@dataclass(frozen=True)
class DepolarizingParams:
    """Forward/backward depolarizing strengths for n transferring qubits."""

    q: float
    qtilde: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need at least one receiving party, got n={self.n}")
        for name, v in (("q", self.q), ("qtilde", self.qtilde)):
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name}={v} outside [0, 1]")

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
            if np.max(np.abs(sums - 1.0)) > 1e-12 * d:
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


def validate_gram(gram: np.ndarray, d: int) -> np.ndarray:
    """Check an Eve-overlap table: finite, symmetric, unit diagonal, PSD."""
    g = np.asarray(gram, dtype=np.float64)
    if g.shape != (2, d, d, 2, d, d):
        raise ValidationError(f"gram must have shape (2,{d},{d})^2, got {g.shape}")
    if not math.isfinite(g.sum()):  # a sum, so no temporary of the Gram's size
        raise ValidationError("gram has non-finite entries")
    flat = g.reshape(2 * d * d, 2 * d * d)
    if np.max(np.abs(flat - flat.T)) > 1e-12:
        raise ValidationError("gram is not symmetric")
    if np.max(np.abs(np.diag(flat) - 1.0)) > 1e-12:
        raise ValidationError("gram diagonal is not all ones")
    lo = float(np.linalg.eigvalsh(flat).min())
    if lo < -GRAM_PSD_ATOL:
        raise ValidationError(f"gram is not PSD within {GRAM_PSD_ATOL} (min eig {lo:.3e})")
    g = g.copy()
    g.setflags(write=False)
    return g


def gram_purification(gram: np.ndarray, d: int) -> np.ndarray:
    """Eve vectors realizing a Gram, one per column; shape (K, 2 d^2).

    Rows are sqrt(w) u^H over the eigenpairs of the flattened Gram with
    w > 1e-12, so ``m^H m`` reproduces the Gram.
    """
    flat = np.asarray(gram).reshape(2 * d * d, 2 * d * d)
    w, u = np.linalg.eigh(flat)
    if w.min() < -GRAM_PSD_ATOL:
        raise ValidationError(f"gram is not PSD (min eig {w.min():.3e})")
    keep = w > 1e-12
    return np.sqrt(w[keep])[:, None] * u[:, keep].conj().T


def identity_gram(d: int) -> np.ndarray:
    """Orthonormal Eve vectors: identity Gram over the (a, b, b') index set."""
    check_attack_size((d - 1).bit_length())
    k = 2 * d * d
    return np.eye(k).reshape(2, d, d, 2, d, d)


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

    An optional dilation realizes the same channel with an explicit
    environment; the test suite checks every statistic the two share to
    1e-10.
    """

    tables: ConditionalChannelTable
    gram: np.ndarray
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

    All Eve vectors coincide, so the Gram is the all-ones block.
    """
    check_attack_size(n)
    d = 1 << n
    fwd = np.zeros((2, d))
    fwd[0, 0] = 1.0
    fwd[1, d - 1] = 1.0
    bwd = np.zeros((2, d, d))
    bwd[:, np.arange(d), np.arange(d)] = 1.0
    gram = np.ones((2, d, d, 2, d, d))
    return CollectiveAttack(ConditionalChannelTable(fwd, bwd), gram, label="identity")


def attack_from_tables(tables: ConditionalChannelTable,
                       gram: np.ndarray | None = None,
                       label: str = "custom") -> CollectiveAttack:
    """Assemble an analytic attack; omitted gram means orthonormal Eve vectors."""
    if gram is None:
        gram = identity_gram(tables.d)
    return CollectiveAttack(tables, gram, label=label)


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
    """

    n: int
    norm_aaa: float
    norm_aac: float
    norm_abb: float
    norm_abc: float
    cross_overlap: float

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

    def family_of(self, a: int, b: int, c: int) -> str:
        va = 0 if a == 0 else self.d - 1
        if b == va:
            return "aaa" if c == b else "aac"
        return "abb" if c == b else "abc"

    def norm_for(self, a: int, b: int, c: int) -> float:
        return self.norms[self.family_of(a, b, c)]


def eve_catalogue(params: DepolarizingParams) -> EveVectorCatalogue:
    """Branch norms of the depolarizing round, global convention."""
    q, qt, n = params.q, params.qtilde, params.n
    # x / 2^k as ldexp(x, -k): the same value, and no overflow at large n
    mixed = math.ldexp(q * (1 - qt) + (1 - q) * qt, -(n + 1))
    tail = math.ldexp(q * qt, -(2 * n + 1))
    return EveVectorCatalogue(
        n=n,
        norm_aaa=(1 - q) * (1 - qt) / 2.0 + mixed + tail,
        norm_aac=math.ldexp((1 - q) * qt, -(n + 1)) + tail,
        norm_abb=math.ldexp(q * (1 - qt), -(n + 1)) + tail,
        norm_abc=tail,
        cross_overlap=(1 - q) * (1 - qt) / 2.0,
    )


def depolarizing_gram(params: DepolarizingParams) -> np.ndarray:
    """Unit-vector Gram of the depolarizing attack over (a, b, b') indices.

    Identity except for the two all-equal branches, whose normalized
    overlap is the catalogue cross overlap divided by the branch norm.
    """
    d = params.d
    cat = eve_catalogue(params)
    g = identity_gram(d)
    g = np.array(g)
    val = cat.cross_overlap / cat.norm_aaa
    g[0, 0, 0, 1, d - 1, d - 1] = val
    g[1, d - 1, d - 1, 0, 0, 0] = val
    g.setflags(write=False)
    return g


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
    """Depolarizing collective attack: tables, Gram and dilation."""
    check_attack_size(params.n)
    return CollectiveAttack(
        tables=depolarizing_tables(params),
        gram=depolarizing_gram(params),
        forward_dilation=_depolarizing_dilation(params.q, params.n),
        backward_dilation=_depolarizing_dilation(params.qtilde, params.n),
        label=f"depolarizing(q={params.q:g}, qtilde={params.qtilde:g})",
    )


def p_ghz_analytic(params: DepolarizingParams) -> float:
    """Probability that a reflected round still projects onto the GHZ state."""
    return 1.0 - params.q_ghz * (1.0 - math.ldexp(1.0, -(params.n + 1)))


def joint_az_analytic(a: int, c: int, params: DepolarizingParams,
                      mode: str = "corrected") -> float:
    """Joint p(a, c) of the sender's bit and returned-string measurement.

    ``corrected`` uses the round-trip strength Q_GHZ (consistent with the
    branch catalogue and the dilation); ``paper_literal`` uses the printed
    backward-only form, which matches only at Q = 0.  Both are exposed so
    the discrepancy stays visible.
    """
    d = params.d
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


def load_attack_file(path) -> CollectiveAttack:
    """Parse a plain-text attack definition.

    Sections ``FORWARD`` (rows ``a b prob``), ``BACKWARD`` (rows
    ``a b bprime prob``) and optional ``GRAM`` (rows
    ``a b bprime a2 c cprime re_value``); ``#`` starts a comment.  The
    channel dimension is inferred from the FORWARD section, which must be
    complete.  Omitted GRAM entries default to orthonormal Eve vectors
    (identity Gram); the diagonal may be omitted.  Out-of-range indices and
    repeated rows (a GRAM row and its mirror count as one) are rejected
    with the ``path:line`` of the offending row.
    """
    rows: dict[str, dict[tuple[int, ...], tuple[int, float]]] = {
        name: {} for name in _SECTIONS}
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            upper = line.upper()
            if upper in _SECTIONS:
                section = upper
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
            if section == "GRAM":
                idx = min(idx, idx[3:] + idx[:3])
            if idx in rows[section]:
                raise ValidationError(f"{path}:{lineno}: duplicate {section} row, "
                                      f"first given on line {rows[section][idx][0]}")
            rows[section][idx] = (lineno, val)
    if not rows["FORWARD"]:
        raise ValidationError(f"{path}: missing FORWARD section")
    d = max(2, max(b for _, b in rows["FORWARD"]) + 1)
    limits = (2, d, d, 2, d, d)
    for table in rows.values():
        for idx, (lineno, _) in table.items():
            if not all(0 <= i < m for i, m in zip(idx, limits)):
                raise ValidationError(f"{path}:{lineno}: index {idx} outside "
                                      f"{limits[:len(idx)]}")
    if len(rows["FORWARD"]) != 2 * d:
        raise ValidationError(f"{path}: FORWARD must list all 2*{d} entries, "
                              f"got {len(rows['FORWARD'])}")
    check_attack_size((d - 1).bit_length())
    fwd = np.zeros((2, d))
    for idx, (_, p) in rows["FORWARD"].items():
        fwd[idx] = p
    bwd = np.zeros((2, d, d))
    for idx, (_, p) in rows["BACKWARD"].items():
        bwd[idx] = p
    tables = ConditionalChannelTable(fwd, bwd)
    gram = np.array(identity_gram(d))
    for idx, (_, val) in rows["GRAM"].items():
        gram[idx] = val
        gram[idx[3:] + idx[:3]] = val
    return attack_from_tables(tables, gram, label="file")


def dump_attack_file(attack: CollectiveAttack, path) -> None:
    """Write an attack's tables and Gram in the plain-text format."""
    d = attack.d
    fwd = attack.tables.forward
    bwd = attack.tables.backward
    gram = attack.gram
    eye = identity_gram(d)
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
        diff = np.argwhere(np.abs(gram - eye) > 0)
        seen = set()
        for idx in diff:
            a, b, bp, a2, c, cp = (int(x) for x in idx)
            key = ((a, b, bp), (a2, c, cp))
            if (key[1], key[0]) in seen:
                continue
            seen.add(key)
            fh.write(f"{a} {b} {bp} {a2} {c} {cp} "
                     f"{float(gram[a, b, bp, a2, c, cp])!r}\n")
