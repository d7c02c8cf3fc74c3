"""Estimators reconstructing security quantities from session tallies.

Reflection-round GHZ tests give the GHZ-pass rate; reflection rounds
sacrificed to Z-basis cut-and-choose give the per-branch weights; disclosed
key rounds give the forward channel conditionals.  Combining the first two
recovers the real part of the overlap between Eve's two all-equal branch
vectors, the one attack degree of freedom the entropy bound consumes.

Confidence radii are Hoeffding half-widths: distribution-free and simple to
compose.  All estimators are pure functions over merged tallies; tallies
merge associatively.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .qmath import DIM_CAP, CapacityError, DomainError, ValidationError


class NoDataError(ValueError):
    """An estimator was asked for a quantity with no supporting counts."""


class InconsistencyWarning(UserWarning):
    """Estimates violate a structural bound (bad tallies or non-collective noise)."""


def _counter_dim(n: int, where: str = "") -> int:
    """d = 2^n, once n >= 1 and the two (2, d) counter tables fit the cap."""
    if n < 1:
        raise ValidationError(f"{where}n={n} is not >= 1")
    if 2 << min(n, 64) > DIM_CAP:  # min: a huge n must not build a huge int
        raise CapacityError(f"{where}tally n={n} needs 2 x 2^{n} counters per "
                            f"table, over the cap {DIM_CAP}")
    return 1 << n


@dataclass
class TallyCounts:
    """Raw counts accumulated over a session.

    ``z_ctrl_counts[a, c]`` counts joint (sender bit, returned string)
    outcomes in reflection-round Z tests; ``sift_joint_counts[a, b]`` counts
    (sender bit, receivers' string) pairs in disclosed key rounds.
    """

    n: int
    ghz_pass: int = 0
    ghz_total: int = 0
    z_ctrl_counts: np.ndarray = field(default=None)
    sift_joint_counts: np.ndarray = field(default=None)
    sift_total: int = 0

    def __post_init__(self):
        d = _counter_dim(self.n)
        if self.z_ctrl_counts is None:
            self.z_ctrl_counts = np.zeros((2, d), dtype=np.int64)
        else:
            self.z_ctrl_counts = np.asarray(self.z_ctrl_counts, dtype=np.int64)
        if self.sift_joint_counts is None:
            self.sift_joint_counts = np.zeros((2, d), dtype=np.int64)
        else:
            self.sift_joint_counts = np.asarray(self.sift_joint_counts, dtype=np.int64)
        if self.z_ctrl_counts.shape != (2, d) or self.sift_joint_counts.shape != (2, d):
            raise ValidationError(f"tally arrays must have shape (2, {d})")
        self.validate()

    def validate(self) -> None:
        if min(self.ghz_pass, self.ghz_total, self.sift_total) < 0:
            raise ValidationError("negative tally counts")
        if self.ghz_pass > self.ghz_total:
            raise ValidationError("ghz_pass exceeds ghz_total")
        if self.z_ctrl_counts.min() < 0 or self.sift_joint_counts.min() < 0:
            raise ValidationError("negative tally counts")
        if int(self.sift_joint_counts.sum()) != self.sift_total:
            raise ValidationError("sift_joint_counts do not sum to sift_total")

    def merged(self, other: "TallyCounts") -> "TallyCounts":
        if other.n != self.n:
            raise ValidationError("cannot merge tallies with different n")
        return TallyCounts(
            n=self.n,
            ghz_pass=self.ghz_pass + other.ghz_pass,
            ghz_total=self.ghz_total + other.ghz_total,
            z_ctrl_counts=self.z_ctrl_counts + other.z_ctrl_counts,
            sift_joint_counts=self.sift_joint_counts + other.sift_joint_counts,
            sift_total=self.sift_total + other.sift_total,
        )

    __add__ = merged


@dataclass(frozen=True)
class EstimateWithRadius:
    """A point estimate with a two-sided confidence half-width."""

    value: float
    radius: float
    confidence: float


def hoeffding_radius(count: int, confidence: float) -> float:
    """Two-sided Hoeffding half-width sqrt(ln(2/delta) / (2 count))."""
    if count <= 0:
        raise NoDataError("no samples to bound")
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence {confidence} outside (0, 1)")
    delta = 1.0 - confidence
    return math.sqrt(math.log(2.0 / delta) / (2.0 * count))


def estimate_p_ghz(tallies: TallyCounts, confidence: float = 0.99) -> EstimateWithRadius:
    """GHZ-pass rate from reflection-round tests."""
    if tallies.ghz_total <= 0:
        raise NoDataError("no GHZ test rounds recorded")
    value = tallies.ghz_pass / tallies.ghz_total
    return EstimateWithRadius(value, hoeffding_radius(tallies.ghz_total, confidence),
                              confidence)


def estimate_branch_norms(tallies: TallyCounts) -> np.ndarray:
    """Per-branch squared norms q_{ac} from reflection-round Z tests.

    Uses the per-branch convention: q_{ac} = 2 p(a, c), so each sender-bit
    row sums to 1 up to sampling error.
    """
    total = int(tallies.z_ctrl_counts.sum())
    if total <= 0:
        raise NoDataError("no reflection-round Z-test tallies")
    return 2.0 * tallies.z_ctrl_counts / total


def estimate_re_overlap(p_ghz: float, q00: float, q11: float,
                        slack: float = 0.0) -> float:
    """Re overlap of Eve's two all-equal branches from observables.

    Inverts the GHZ-pass decomposition p_GHZ = (q00 + q11 + 2 Re)/4.  When
    the result violates the Cauchy-Schwarz bound |Re| <= sqrt(q00 q11)
    beyond ``slack``, an :class:`InconsistencyWarning` is emitted: the
    tallies cannot come from an honest collective-attack round.
    """
    re = (4.0 * p_ghz - q00 - q11) / 2.0
    bound = math.sqrt(max(q00, 0.0) * max(q11, 0.0))
    if abs(re) > bound + slack + 1e-12:
        warnings.warn(
            f"Re overlap {re:.6g} violates |Re| <= sqrt(q00*q11) = {bound:.6g}",
            InconsistencyWarning,
            stacklevel=2,
        )
    return re


def estimate_channel_conditionals(tallies: TallyCounts) -> np.ndarray:
    """Empirical forward conditionals p(b|a) from disclosed key rounds."""
    counts = tallies.sift_joint_counts
    row_sums = counts.sum(axis=1)
    if (row_sums == 0).any():
        missing = [a for a in range(2) if row_sums[a] == 0]
        raise NoDataError(f"no disclosed key rounds with sender bit(s) {missing}")
    return counts / row_sums[:, None]


def bob_disagreement_rates(tallies: TallyCounts) -> np.ndarray:
    """Per-receiver rate of disagreement with the sender's bit."""
    if tallies.sift_total <= 0:
        raise NoDataError("no disclosed key rounds")
    n = tallies.n
    counts = tallies.sift_joint_counts
    rates = np.zeros(n)
    b_idx = np.arange(1 << n)
    for i in range(n):
        bits = (b_idx >> (n - 1 - i)) & 1
        wrong = counts[0, bits == 1].sum() + counts[1, bits == 0].sum()
        rates[i] = wrong / tallies.sift_total
    return rates


# ---------------------------------------------------------------------------
# line-based snapshot format
# ---------------------------------------------------------------------------


def tally_to_text(tallies: TallyCounts) -> str:
    """Serialize tallies as ``category index count`` lines (zeros skipped)."""
    lines = [f"tally n {tallies.n}"]
    lines.append(f"ghz pass {tallies.ghz_pass}")
    lines.append(f"ghz total {tallies.ghz_total}")
    for (a, c), cnt in np.ndenumerate(tallies.z_ctrl_counts):
        if cnt:
            lines.append(f"zctrl {a},{c} {int(cnt)}")
    for (a, b), cnt in np.ndenumerate(tallies.sift_joint_counts):
        if cnt:
            lines.append(f"sift {a},{b} {int(cnt)}")
    lines.append(f"sift total {tallies.sift_total}")
    return "\n".join(lines) + "\n"


_TALLY_SCALARS = ("tally n", "ghz pass", "ghz total", "sift total")

#: Cap on one snapshot count, so that no sum of counts overflows int64.
COUNT_CAP = 1 << 40


def tally_from_text(text: str) -> TallyCounts:
    """Parse :func:`tally_to_text` output; errors name the offending line."""
    entries: dict[object, tuple[int, int]] = {}  # key -> (line number, count)
    lineno = 1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(f"line {lineno}: expected 'category index count'")
        cat, idx, cnt = parts
        try:
            count = int(cnt)
            if f"{cat} {idx}" in _TALLY_SCALARS:
                key = f"{cat} {idx}"
            elif cat in ("zctrl", "sift"):
                a, c = (int(x) for x in idx.split(","))
                key = (cat, a, c)
            else:
                key = None
        except ValueError:
            raise ValidationError(f"line {lineno}: cannot parse {line!r}") from None
        if key is None:
            raise ValidationError(f"line {lineno}: unknown category {cat!r}")
        if key in entries:
            raise ValidationError(f"line {lineno}: duplicates line {entries[key][0]}")
        if key != "tally n" and not 0 <= count <= COUNT_CAP:
            raise ValidationError(f"line {lineno}: count {count} outside 0..{COUNT_CAP}")
        entries[key] = (lineno, count)
    if "tally n" not in entries:
        raise ValidationError(f"line {lineno}: no 'tally n' line in the snapshot")
    n_line, n = entries["tally n"]
    d = _counter_dim(n, f"line {n_line}: ")
    tables = {"zctrl": np.zeros((2, d), dtype=np.int64),
              "sift": np.zeros((2, d), dtype=np.int64)}
    for key, (at, count) in entries.items():
        if isinstance(key, tuple):
            cat, a, c = key
            if not (0 <= a < 2 and 0 <= c < d):
                raise ValidationError(f"line {at}: index {a},{c} outside 2 x {d}")
            tables[cat][a, c] = count
    scalar = {k: entries.get(k, (lineno, 0)) for k in _TALLY_SCALARS}
    if scalar["ghz pass"][1] > scalar["ghz total"][1]:
        at = max(scalar["ghz pass"][0], scalar["ghz total"][0])
        raise ValidationError(f"line {at}: ghz pass exceeds ghz total")
    sift_sum = int(tables["sift"].sum())
    if sift_sum != scalar["sift total"][1]:
        raise ValidationError(f"line {scalar['sift total'][0]}: sift counts sum to "
                              f"{sift_sum}, not the sift total "
                              f"{scalar['sift total'][1]}")
    return TallyCounts(n=n, ghz_pass=scalar["ghz pass"][1],
                       ghz_total=scalar["ghz total"][1],
                       z_ctrl_counts=tables["zctrl"], sift_joint_counts=tables["sift"],
                       sift_total=scalar["sift total"][1])
