"""Exact complex linear algebra and entropy kernels for composite systems.

A pure state is carried as its nonzero support: the sorted flat basis
indices of its nonzero amplitudes and the amplitudes there.  The round
states of exact simulation are products of GHZ, basis and Bell-pair states
moved by basis permutations, so the support stays a few hundred entries
while the full dimension reaches 2^21; a basis permutation, the only
operator the exact routes apply, is its integer index vector.  Everything
is double precision and a state is read-only after construction;
operations are pure functions, safe to call from parallel workers.  The
exact-simulation size is capped at :data:`DIM_CAP` basis states, checked
before anything is built — callers needing more must fall back to
analytic paths.

The dense density-matrix functions, :func:`partial_trace` and
:func:`conditional_entropy`, take and return plain arrays; they are the
reference S(A|E) that the block entropy oracle is checked against.

Index convention: the first subsystem of a layout occupies the most
significant position of the flat index (big-endian multi-index).  This is
the convention of a C-order ``reshape`` and is used everywhere.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import _kernels

#: Hard cap on statevector length for exact simulation.
DIM_CAP = 1 << 22

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
#: Eigenvalues below this are treated as exact zeros inside entropies.
EIGENVALUE_CLIP = 1e-12

_LOG2 = math.log(2.0)


class CapacityError(RuntimeError):
    """A requested object exceeds the exact-simulation size cap."""


class ValidationError(ValueError):
    """An input violates a structural requirement (permutation, hermiticity, ...)."""


class LayoutError(ValueError):
    """A register label is unknown or a layout is malformed."""


class DomainError(ValueError):
    """A scalar or index argument lies outside its admissible range."""


# ---------------------------------------------------------------------------
# bit-string index helpers
# ---------------------------------------------------------------------------


def bits_to_index(bits: str | Sequence[int]) -> int:
    """Big-endian bit string (e.g. "011" or (0,1,1)) to integer index."""
    idx = 0
    for b in bits:
        v = int(b)
        if v not in (0, 1):
            raise DomainError(f"bit value {b!r} is not 0/1")
        idx = (idx << 1) | v
    return idx


def complement_index(index: int, width: int) -> int:
    """Bitwise complement of an n-bit string, as an index."""
    return index ^ ((1 << width) - 1)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class RegisterLayout:
    """Ordered map of register labels to dimensions.

    Supplies the multi-index <-> flat-index arithmetic for all subsystem
    operations.  Labels are arbitrary unique strings; dimensions are
    positive integers.
    """

    __slots__ = ("_labels", "_dims", "_axis")

    def __init__(self, pairs: Iterable[tuple[str, int]]):
        labels: list[str] = []
        dims: list[int] = []
        for label, dim in pairs:
            if not isinstance(label, str) or not label:
                raise LayoutError(f"bad register label {label!r}")
            if int(dim) < 1:
                raise LayoutError(f"register {label!r} has non-positive dim {dim}")
            labels.append(label)
            dims.append(int(dim))
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate register labels in {labels}")
        self._labels = tuple(labels)
        self._dims = tuple(dims)
        self._axis = {lab: i for i, lab in enumerate(labels)}

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def total_dim(self) -> int:
        return math.prod(self._dims)

    def axis(self, label: str) -> int:
        try:
            return self._axis[label]
        except KeyError:
            raise LayoutError(f"unknown register label {label!r}") from None

    def axes(self, labels: Iterable[str]) -> list[int]:
        """Axes of the given labels, in the given order; a label may be given once."""
        labels = list(labels)
        for i, lab in enumerate(labels):
            if lab in labels[:i]:
                raise LayoutError(f"register label {lab!r} given more than once")
        return [self.axis(lab) for lab in labels]

    def axes_of(self, labels: Iterable[str]) -> tuple[int, ...]:
        """:meth:`axes`, sorted into layout order."""
        return tuple(sorted(self.axes(labels)))

    def restrict(self, labels: Iterable[str]) -> "RegisterLayout":
        keep = set(labels)
        for lab in keep:
            self.axis(lab)
        return RegisterLayout((lab, d) for lab, d in zip(self._labels, self._dims)
                              if lab in keep)

    def __repr__(self) -> str:
        body = ", ".join(f"{lab}:{d}" for lab, d in zip(self._labels, self._dims))
        return f"RegisterLayout({body})"


class StateVector:
    """A pure state of unit norm, carried as its nonzero support.

    ``StateVector(amps)`` takes a dense amplitude array;
    ``StateVector(amps, index, dim)`` takes the amplitudes at the flat basis
    indices ``index`` of a ``dim``-dimensional space (any order; zeros are
    dropped, an index may be listed once).  Either way the state keeps only
    ``index``, sorted, and ``values``, the nonzero amplitudes there, as
    read-only arrays of its own; the caller's arrays stay writeable and are
    never changed.
    """

    __slots__ = ("dim", "index", "values")

    def __init__(self, amps, index=None, dim=None):
        if index is None:  # dense amplitudes: their nonzero entries
            arr = np.asarray(amps, dtype=np.complex128).reshape(-1)
            dim, index = arr.size, np.flatnonzero(arr)
            amps = arr[index]
        if dim < 1:
            raise ValidationError("empty state vector")
        if dim > DIM_CAP:
            raise CapacityError(f"state of dim {dim} exceeds cap {DIM_CAP}")
        index = np.asarray(index)
        amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        if index.dtype.kind not in "iu" or index.size != amps.size:
            raise ValidationError("a support needs one integer index per amplitude")
        index = index.astype(np.int64, copy=False).reshape(-1)
        order = np.argsort(index)
        order = order[amps[order] != 0]
        index, values = index[order], amps[order]
        if index.size and not (index[0] >= 0 and index[-1] < dim
                               and (index[1:] > index[:-1]).all()):
            raise ValidationError(f"support indices must be distinct and in 0..{dim - 1}")
        # a NaN or Inf amplitude makes the squared norm non-finite
        nrm = float(np.vdot(values, values).real)
        if not math.isfinite(nrm):
            raise ValidationError("state vector contains NaN/Inf")
        if abs(nrm - 1.0) > NORM_ATOL:
            raise ValidationError(f"state has norm^2 {nrm!r}, not 1")
        index.setflags(write=False)
        values.setflags(write=False)
        self.dim, self.index, self.values = int(dim), index, values

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim}, support={self.index.size})"


def basis_state(dim: int, index: int) -> StateVector:
    if not 0 <= index < dim:
        raise DomainError(f"basis index {index} out of range for dim {dim}")
    return StateVector([1.0], [index], dim)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def tensor(x: StateVector, y: StateVector) -> StateVector:
    """Kronecker product of two states, x-major (x's index most significant).

    On the supports: an outer sum of the indices, an outer product of the
    amplitudes.
    """
    dim = x.dim * y.dim
    if dim > DIM_CAP:
        raise CapacityError(f"tensor dim {dim} exceeds cap {DIM_CAP}")
    index = (x.index[:, None] * y.dim + y.index).reshape(-1)
    return StateVector(np.multiply.outer(x.values, y.values).reshape(-1), index, dim)


def _check_permutation(perm, dim: int) -> np.ndarray:
    """``perm`` as a checked basis permutation of ``dim`` states."""
    perm = np.asarray(perm)
    if perm.ndim != 1:
        raise ValidationError(f"operator must be a 1-D basis permutation, got shape "
                              f"{perm.shape}")
    if not np.array_equal(np.sort(perm), np.arange(dim)):
        raise ValidationError(f"permutation of {perm.size} entries does not list "
                              f"each target index 0..{dim - 1} once")
    return perm


def _check_layout(layout: RegisterLayout, state: StateVector) -> None:
    if layout.total_dim != state.dim:
        raise LayoutError(f"layout dim {layout.total_dim} != state dim {state.dim}")


def apply_on_subsystems(perm, state: StateVector, layout: RegisterLayout,
                        targets: Iterable[str]) -> StateVector:
    """Apply the basis permutation ``perm`` to the target registers.

    ``perm`` is a 1-D integer array with U = sum_j |perm[j]><j|, indexed
    big-endian over the targets in *layout order*, identity elsewhere: it
    moves each support index's target coordinates and leaves the amplitudes
    as they are.  Any other operator raises :class:`ValidationError`.
    """
    _check_layout(layout, state)
    axes = layout.axes_of(targets)
    if not axes:
        raise LayoutError("no target registers given")
    perm = _check_permutation(perm, math.prod(layout.dims[ax] for ax in axes))
    index, amps = _kernels.apply_matrix(state.index, layout.dims, axes, perm, state.values)
    return StateVector(amps, index, state.dim)


def subsystem_probabilities(state: StateVector, layout: RegisterLayout,
                            targets: Sequence[str]) -> np.ndarray:
    """Exact Z-basis outcome distribution over the target registers.

    The result axes follow the *given* target order (not layout order).
    """
    _check_layout(layout, state)
    axes = layout.axes(targets)
    flat = _kernels.axis_probabilities(state.index, layout.dims, axes, state.values)
    return flat.reshape([layout.dims[ax] for ax in axes])


def slice_overlap(state: StateVector, layout: RegisterLayout, targets: Sequence[str],
                  x: Sequence[int], y: Sequence[int]) -> complex:
    """<psi_x|psi_y>, where psi_v is the vector over the other registers that
    ``state`` holds with the ``targets`` registers set to the values ``v``
    (in the given target order): the support entries of the two slices are
    matched on their remaining coordinates.
    """
    _check_layout(layout, state)
    axes = layout.axes(targets)
    block, base, _ = _kernels.split_axes(state.index, layout.dims, axes)
    tdims = [layout.dims[ax] for ax in axes]
    in_x, in_y = (block == np.ravel_multi_index(v, tdims) for v in (x, y))
    _, ix, iy = np.intersect1d(base[in_x], base[in_y], assume_unique=True,
                               return_indices=True)
    return complex(np.vdot(state.values[in_x][ix], state.values[in_y][iy]))


def partial_trace(rho: np.ndarray, layout: RegisterLayout,
                  keep: Iterable[str]) -> np.ndarray:
    """Trace out every register not in ``keep`` (kept axes keep layout order)."""
    keep_set = set(keep)
    if not keep_set:
        raise DomainError("keep set must be non-empty")
    kept = list(layout.axes_of(keep_set))
    if np.shape(rho) != (layout.total_dim,) * 2:
        raise LayoutError(f"layout dim {layout.total_dim} != operator shape {np.shape(rho)}")
    dims = layout.dims
    k = len(dims)
    # row axis i is subscript i; a kept column axis gets k + i, a traced one i
    col = [k + i if i in kept else i for i in range(k)]
    red = np.einsum(np.reshape(rho, dims + dims), list(range(k)) + col,
                    kept + [k + i for i in kept])
    d = math.prod(dims[i] for i in kept)
    return red.reshape(d, d)


def entropy_of_spectrum(eigenvalues: np.ndarray) -> float:
    """Shannon entropy (bits) of a spectrum, clipping values below the cutoff."""
    w = np.asarray(eigenvalues, dtype=np.float64)
    w = w[w > EIGENVALUE_CLIP]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log(w)).sum() / _LOG2)


def conditional_entropy(rho: np.ndarray, layout: RegisterLayout,
                        part_a: Iterable[str], part_e: Iterable[str]) -> float:
    """S(A|E) = S(AE) - S(E), in bits, of a dense density matrix ``rho``.

    ``part_a`` and ``part_e`` must split the layout's registers.  ``rho``
    must be square, finite, Hermitian and of unit trace (within 1e-12);
    otherwise :class:`ValidationError` is raised.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"density operator must be square, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValidationError("density operator contains NaN/Inf")
    herm = np.max(np.abs(rho - rho.conj().T), initial=0.0)
    if herm > HERMITIAN_ATOL:
        raise ValidationError(f"not Hermitian within {HERMITIAN_ATOL} (dev {herm:.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValidationError(f"trace {tr} differs from 1")
    a = set(part_a)
    e = set(part_e)
    if a & e:
        raise ValidationError(f"parts overlap: {sorted(a & e)}")
    if a | e != set(layout.labels):
        raise ValidationError("parts must cover the layout")
    s_ae = entropy_of_spectrum(np.linalg.eigvalsh(rho))
    s_e = entropy_of_spectrum(np.linalg.eigvalsh(partial_trace(rho, layout, e)))
    return s_ae - s_e


def float_or_array(x):
    """A Python float for a 0-d result, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def unit_interval(x, what: str, slack: float = 0.0) -> np.ndarray:
    """``x`` as a float64 array, every element in [-slack, 1 + slack].

    Otherwise raise :class:`DomainError` naming ``what`` (a message prefix)
    and the first offending element; NaN is out of range.
    """
    arr = np.asarray(x, dtype=np.float64)
    ok = (arr >= -slack) & (arr <= 1.0 + slack)
    if not ok.all():
        bad = x if arr.ndim == 0 else arr[~ok][0]
        raise DomainError(f"{what}{bad} outside [0, 1]")
    return arr


def binary_entropy_bits(x: np.ndarray) -> np.ndarray:
    """:func:`binary_entropy` of a float64 array already in [0, 1], unchecked."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 at x = 0, 1
        h = -(x * np.log(x) + (1.0 - x) * np.log(1.0 - x)) / _LOG2
    return np.where((x > 0.0) & (x < 1.0), h, 0.0)


def binary_entropy(x):
    """Shannon entropy (bits) of {x, 1-x}, elementwise; a scalar gives a float.

    Values within 1e-12 of [0, 1] are clipped into it; any other raises
    :class:`DomainError`.
    """
    x = np.clip(unit_interval(x, "binary_entropy argument ", 1e-12), 0.0, 1.0)
    return float_or_array(binary_entropy_bits(x))
