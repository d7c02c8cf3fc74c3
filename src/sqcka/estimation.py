"""Estimators reconstructing security quantities from session tallies.

Reflection-round GHZ tests give the GHZ-pass rate; reflection rounds
sacrificed to Z-basis cut-and-choose give the per-branch weights; disclosed
key rounds give the forward channel conditionals.  Combining the first two
recovers the real part of the overlap between Eve's two all-equal branch
vectors, the one attack degree of freedom the entropy bound consumes.

What a session counts is declared once, in :data:`TALLY_COUNTERS`: the
fields of :class:`TallyCounts`, their checks, their associative merge and
the snapshot text format all follow that one list.  All estimators are pure
functions over merged tallies.  Confidence radii are Hoeffding half-widths:
distribution-free and simple to compose.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, make_dataclass

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


#: The tally counters in snapshot order: (field, snapshot key, whether the
#: counter is a (2, d) table indexed by sender bit and string, or a scalar).
#: ``zctrl a,c`` counts joint (sender bit, returned string) outcomes in
#: reflection-round Z tests; ``sift a,b`` counts (sender bit, receivers'
#: string) pairs in disclosed key rounds.
TALLY_COUNTERS = (
    ("ghz_pass", "ghz pass", False),
    ("ghz_total", "ghz total", False),
    ("z_ctrl_counts", "zctrl", True),
    ("sift_joint_counts", "sift", True),
    ("sift_total", "sift total", False),
)


def _tally_post_init(self) -> None:
    d = _counter_dim(self.n)
    for name, _, table in TALLY_COUNTERS:
        value = getattr(self, name)
        if table:
            value = np.asarray(np.zeros((2, d)) if value is None else value, dtype=np.int64)
            if value.shape != (2, d):
                raise ValidationError(f"tally arrays must have shape (2, {d})")
            setattr(self, name, value)
        if (value.min() if table else value) < 0:
            raise ValidationError("negative tally counts")
    if self.ghz_pass > self.ghz_total:
        raise ValidationError("ghz_pass exceeds ghz_total")
    if int(self.sift_joint_counts.sum()) != self.sift_total:
        raise ValidationError("sift_joint_counts do not sum to sift_total")


def _tally_add(self, other):
    if other.n != self.n:
        raise ValidationError("cannot merge tallies with different n")
    return TallyCounts(n=self.n, **{name: getattr(self, name) + getattr(other, name)
                                    for name, _, _ in TALLY_COUNTERS})


TallyCounts = make_dataclass(
    "TallyCounts",
    [("n", int)] + [(name, np.ndarray, field(default=None)) if table else
                    (name, int, field(default=0)) for name, _, table in TALLY_COUNTERS],
    namespace={"__module__": __name__, "__post_init__": _tally_post_init,
               "__add__": _tally_add,
               "__doc__": "Raw counts of a session: ``n``, then one field per entry of "
                          "TALLY_COUNTERS; tables default to zeros."})


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
    for name, key, table in TALLY_COUNTERS:
        value = getattr(tallies, name)
        if not table:
            lines.append(f"{key} {value}")
            continue
        for (a, c), cnt in np.ndenumerate(value):
            if cnt:
                lines.append(f"{key} {a},{c} {int(cnt)}")
    return "\n".join(lines) + "\n"


#: Cap on one snapshot count, so that no sum of counts overflows int64.
COUNT_CAP = 1 << 40


def tally_from_text(text: str) -> TallyCounts:
    """Parse :func:`tally_to_text` output; errors name the offending line."""
    tables = {key for _, key, table in TALLY_COUNTERS if table}
    scalars = {"tally n"} | {key for _, key, table in TALLY_COUNTERS if not table}
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
            if f"{cat} {idx}" in scalars:
                key = f"{cat} {idx}"
            elif cat in tables:
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
    # key -> (line number, count) of a scalar, or its (2, d) table
    found = {key: np.zeros((2, d), dtype=np.int64) if table
             else entries.get(key, (lineno, 0)) for _, key, table in TALLY_COUNTERS}
    for key, (at, count) in entries.items():
        if isinstance(key, tuple):
            cat, a, c = key
            if not (0 <= a < 2 and 0 <= c < d):
                raise ValidationError(f"line {at}: index {a},{c} outside 2 x {d}")
            found[cat][a, c] = count
    (pass_at, passed), (total_at, total) = found["ghz pass"], found["ghz total"]
    if passed > total:
        raise ValidationError(f"line {max(pass_at, total_at)}: ghz pass exceeds ghz total")
    sift_sum = int(found["sift"].sum())
    sift_at, sift_total = found["sift total"]
    if sift_sum != sift_total:
        raise ValidationError(f"line {sift_at}: sift counts sum to {sift_sum}, not the "
                              f"sift total {sift_total}")
    return TallyCounts(n=n, **{name: found[key] if table else found[key][1]
                               for name, key, table in TALLY_COUNTERS})
