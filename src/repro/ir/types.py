"""Type system for the tensor IR.

The DSL of Fig. 3 in the paper distinguishes float tensors ``F``, boolean
tensors ``B``, float and boolean scalars, shape attributes ``S`` and dimension
attributes ``D``.  We model tensors and scalars uniformly as
:class:`TensorType` values (a scalar is a rank-0 tensor); shapes and
dimensions are plain attribute values on IR nodes, not first-class tensors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TypeInferenceError

Shape = tuple[int, ...]


class DType(enum.Enum):
    """Element type of a tensor."""

    FLOAT = "float"
    BOOL = "bool"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class TensorType:
    """The type of a tensor value: an element dtype and a concrete shape.

    Shapes are concrete integer tuples.  The synthesizer works on small
    "shrunken" shapes (see :func:`shrink_shape`) and relies on the fact that
    every grammar operation is shape-polymorphic, so a program synthesized at
    a small shape is valid at the original shape.
    """

    dtype: DType
    shape: Shape
    #: The hash, computed on first use: every ``call_cost`` key and type-memo
    #: probe hashes types, and the field-wise hash goes through
    #: ``Enum.__hash__`` in Python each time.  It is the field-wise hash's
    #: value, so equal types hash equal under any ``PYTHONHASHSEED``.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not all(isinstance(d, int) and d >= 0 for d in self.shape):
            raise TypeInferenceError(f"shape must be non-negative ints, got {self.shape!r}")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.dtype, self.shape))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        # Rebuilt from its fields: a hash is only good in the process that took it.
        return TensorType, (self.dtype, self.shape)

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def is_scalar(self) -> bool:
        return self.shape == ()

    @property
    def size(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    def with_shape(self, shape: Shape) -> "TensorType":
        return TensorType(self.dtype, tuple(shape))

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape) if self.shape else "scalar"
        return f"{self.dtype.value}[{dims}]"


def float_tensor(*shape: int) -> TensorType:
    """Convenience constructor for a float tensor type."""
    return TensorType(DType.FLOAT, tuple(shape))


def bool_tensor(*shape: int) -> TensorType:
    """Convenience constructor for a boolean tensor type."""
    return TensorType(DType.BOOL, tuple(shape))


FLOAT_SCALAR = float_tensor()
BOOL_SCALAR = bool_tensor()


def broadcast_shapes(a: Shape, b: Shape) -> Shape:
    """NumPy broadcasting of two shapes.

    Raises :class:`TypeInferenceError` when the shapes are incompatible.
    """
    result: list[int] = []
    ra, rb = len(a), len(b)
    for i in range(max(ra, rb)):
        da = a[ra - 1 - i] if i < ra else 1
        db = b[rb - 1 - i] if i < rb else 1
        if da == db:
            result.append(da)
        elif da == 1:
            # A 1-extent dim stretches to the other side, including to 0:
            # np.broadcast((0,), (1,)) has shape (0,), not (1,).
            result.append(db)
        elif db == 1:
            result.append(da)
        else:
            raise TypeInferenceError(f"shapes {a} and {b} are not broadcastable")
    return tuple(reversed(result))


def reduce_shape(shape: Shape, axis: int | tuple[int, ...] | None) -> Shape:
    """Shape after a reduction (``np.sum`` / ``np.max``) over ``axis``.

    ``axis=None`` reduces to a scalar, matching NumPy semantics with
    ``keepdims=False``.
    """
    if axis is None:
        return ()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    norm = set()
    for ax in axes:
        if ax < -len(shape) or ax >= len(shape):
            raise TypeInferenceError(f"axis {ax} out of range for shape {shape}")
        resolved = ax % len(shape)
        if resolved in norm:
            # NumPy raises on duplicate reduction axes (including a positive
            # and a negative spelling of the same axis); silently deduping
            # here would make inferred shapes disagree with execution.
            raise TypeInferenceError(f"duplicate axis {ax} in reduction over {shape}")
        norm.add(resolved)
    return tuple(d for i, d in enumerate(shape) if i not in norm)


def normalize_axis(axis: int, rank: int) -> int:
    """Resolve a possibly-negative axis against ``rank``."""
    if axis < -rank or axis >= rank:
        raise TypeInferenceError(f"axis {axis} out of range for rank {rank}")
    return axis % rank


def shrink_shape(shape: Shape, target: int = 3) -> Shape:
    """Shrink a concrete shape for symbolic execution.

    Every dimension larger than ``target`` becomes ``target``.  Dimensions of
    size 1 are preserved so broadcasting behaviour is unchanged.  Shrinking
    keeps SymPy expression sizes tractable; final candidates are re-verified
    numerically at a *different* shape assignment to guard against
    coincidences introduced by shrinking (e.g. two distinct dimensions
    becoming equal).
    """
    return tuple(min(d, target) if d > 1 else d for d in shape)
