"""Abstract domains for the static analyzer.

The workhorse is :class:`Interval`: one interval per *tensor* (a sound hull
over every element), with open/closed endpoint flags.  Openness matters
because the system's verification semantics draws inputs from a strictly
positive domain: ``sqrt(x)`` over ``(0, inf)`` is again ``(0, inf)`` and in
particular never zero, so ``y / sqrt(x)`` carries no division hazard — a
closed ``[0, inf)`` would spuriously flag it.

Derived read-outs of the same interval value provide the remaining numeric
domains from the issue: the *sign* domain (:meth:`AbstractValue.sign`) and
the *zero/definedness* domain (:class:`Hazard` flags collected during
transfer).  Shape/dtype well-formedness rides on the IR's own
``TensorType`` inference and is checked structurally by the auditor.

All operations are conservative: where exact endpoint propagation is
fiddly (products, reciprocals) the implementation evaluates every endpoint
candidate and, on ties, prefers the *closed* variant — a closed endpoint
denotes a superset of the open one, so the result remains an
over-approximation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.ir.types import TensorType

_INF = math.inf


class Hazard(enum.Enum):
    """Definedness hazards an expression may exhibit on the analyzed box."""

    DIV_ZERO = "div-zero"  # division (or negative power) with 0 in the divisor
    SQRT_NEG = "sqrt-neg"  # sqrt of a possibly negative value
    LOG_DOM = "log-dom"  # log of a possibly non-positive value
    POW_DOM = "pow-dom"  # non-integer power of a possibly negative base

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


ALL_HAZARDS: frozenset[Hazard] = frozenset(Hazard)
NO_HAZARDS: frozenset[Hazard] = frozenset()


def _ep_min(candidates: Iterable[tuple[float, bool]]) -> tuple[float, bool]:
    """Least endpoint candidate; on value ties a closed endpoint wins."""
    best: tuple[float, bool] | None = None
    for value, is_open in candidates:
        if best is None or value < best[0] or (value == best[0] and not is_open):
            best = (value, is_open)
    assert best is not None
    return best


def _ep_max(candidates: Iterable[tuple[float, bool]]) -> tuple[float, bool]:
    best: tuple[float, bool] | None = None
    for value, is_open in candidates:
        if best is None or value > best[0] or (value == best[0] and not is_open):
            best = (value, is_open)
    assert best is not None
    return best


def _mul_ep(a: float, b: float) -> float:
    """Endpoint product with the convention 0 * inf = 0 (sound for hulls)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@dataclass(frozen=True)
class Interval:
    """A non-empty interval of reals with open/closed endpoint flags."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        # NaN endpoints (inf - inf in degenerate endpoint arithmetic) widen
        # to TOP: the only sound interval for an indeterminate bound.
        if math.isnan(self.lo) or math.isnan(self.hi):
            object.__setattr__(self, "lo", -_INF)
            object.__setattr__(self, "hi", _INF)
            object.__setattr__(self, "lo_open", True)
            object.__setattr__(self, "hi_open", True)
        # Infinite endpoints are never attained: normalize them to open.
        if self.lo == -_INF and not self.lo_open:
            object.__setattr__(self, "lo_open", True)
        if self.hi == _INF and not self.hi_open:
            object.__setattr__(self, "hi_open", True)
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def point(value: float) -> "Interval":
        return Interval(float(value), float(value))

    @staticmethod
    def positive() -> "Interval":
        """The verification domain: strictly positive reals ``(0, inf)``."""
        return POSITIVE

    # -- predicates ----------------------------------------------------------

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and not self.lo_open and not self.hi_open

    def contains(self, value: float) -> bool:
        if value < self.lo or (value == self.lo and self.lo_open):
            return False
        if value > self.hi or (value == self.hi and self.hi_open):
            return False
        return True

    def contains_zero(self) -> bool:
        return self.contains(0.0)

    def may_be_negative(self) -> bool:
        return self.lo < 0.0

    def may_be_nonpositive(self) -> bool:
        return self.lo < 0.0 or self.contains(0.0)

    def disjoint(self, other: "Interval", margin: float = 0.0) -> bool:
        """True when the two intervals share no point.

        ``margin`` demands a *relative gap* between the intervals, guarding
        prune decisions against float rounding in endpoint arithmetic (the
        endpoints are computed in double precision without outward
        rounding, so a zero-width overlap could be lost to ulps).
        """
        for a, b in ((self, other), (other, self)):
            gap = b.lo - a.hi
            if margin > 0.0:
                scale = 1.0 + max(abs(a.hi), abs(b.lo))
                if gap > margin * scale:
                    return True
            else:
                if gap > 0.0 or (gap == 0.0 and (a.hi_open or b.lo_open)):
                    return True
        return False

    # -- lattice -------------------------------------------------------------

    def hull(self, other: "Interval") -> "Interval":
        lo, lo_open = _ep_min([(self.lo, self.lo_open), (other.lo, other.lo_open)])
        hi, hi_open = _ep_max([(self.hi, self.hi_open), (other.hi, other.hi_open)])
        return Interval(lo, hi, lo_open, hi_open)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(
            self.lo + other.lo,
            self.hi + other.hi,
            self.lo_open or other.lo_open,
            self.hi_open or other.hi_open,
        )

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.hi_open, self.lo_open)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-other)

    def __mul__(self, other: "Interval") -> "Interval":
        candidates = [
            (_mul_ep(a, b), ao or bo)
            for a, ao in ((self.lo, self.lo_open), (self.hi, self.hi_open))
            for b, bo in ((other.lo, other.lo_open), (other.hi, other.hi_open))
        ]
        lo, lo_open = _ep_min(candidates)
        hi, hi_open = _ep_max(candidates)
        return Interval(lo, hi, lo_open, hi_open)

    def recip(self) -> "Interval":
        """``1 / x``.  Returns TOP when the interval contains zero."""
        if self.contains_zero():
            return TOP
        if self.lo > 0.0 or (self.lo == 0.0 and self.lo_open):
            lo = 0.0 if self.hi == _INF else 1.0 / self.hi
            hi = _INF if self.lo == 0.0 else 1.0 / self.lo
            return Interval(lo, hi, self.hi_open, self.lo_open)
        return -((-self).recip())

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.contains_zero():
            return TOP
        return self * other.recip()

    def scale(self, k: int) -> "Interval":
        """Sum of ``k`` values drawn from this interval (``k >= 0``)."""
        if k <= 0:
            return Interval.point(0.0)
        return Interval(
            _mul_ep(float(k), self.lo),
            _mul_ep(float(k), self.hi),
            self.lo_open,
            self.hi_open,
        )

    def abs(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        hi, hi_open = _ep_max([(-self.lo, self.lo_open), (self.hi, self.hi_open)])
        return Interval(0.0, hi, False, hi_open)

    def sqrt(self) -> "Interval":
        lo = max(self.lo, 0.0)
        if self.hi < 0.0:
            # Entirely negative: the concrete result is undefined everywhere;
            # the caller flags the hazard.  Keep a degenerate sound box.
            return Interval.point(0.0)
        return Interval(
            math.sqrt(lo),
            _INF if self.hi == _INF else math.sqrt(self.hi),
            # sqrt is monotone: the low endpoint is attained iff it was
            # (a clamped negative lo means 0 itself is in the interval).
            self.lo_open if self.lo >= 0.0 else False,
            self.hi_open,
        )

    def exp(self) -> "Interval":
        lo = 0.0 if self.lo == -_INF else math.exp(min(self.lo, 700.0))
        hi = _INF if self.hi == _INF or self.hi > 700.0 else math.exp(self.hi)
        return Interval(lo, hi, self.lo_open or self.lo == -_INF, self.hi_open)

    def log(self) -> "Interval":
        if self.hi <= 0.0:
            return Interval.point(0.0)  # undefined everywhere; caller flags it
        lo = -_INF if self.lo <= 0.0 else math.log(self.lo)
        hi = _INF if self.hi == _INF else math.log(self.hi)
        return Interval(lo, hi, self.lo <= 0.0 or self.lo_open, self.hi_open)

    def min_(self, other: "Interval") -> "Interval":
        lo, lo_open = _ep_min([(self.lo, self.lo_open), (other.lo, other.lo_open)])
        hi, hi_open = _ep_min([(self.hi, self.hi_open), (other.hi, other.hi_open)])
        return Interval(lo, hi, lo_open, hi_open)

    def max_(self, other: "Interval") -> "Interval":
        lo, lo_open = _ep_max([(self.lo, self.lo_open), (other.lo, other.lo_open)])
        hi, hi_open = _ep_max([(self.hi, self.hi_open), (other.hi, other.hi_open)])
        return Interval(lo, hi, lo_open, hi_open)

    def pow_const(self, c: float) -> "Interval":
        """``x ** c`` for a constant exponent.  Domain hazards are the
        caller's concern; the result is a sound hull over defined points."""
        if c == 0.0:
            return Interval.point(1.0)
        if float(c).is_integer():
            n = int(c)
            if n < 0:
                return self.pow_const(-n).recip()
            if n % 2 == 1:
                lo = -_INF if self.lo == -_INF else self.lo**n
                hi = _INF if self.hi == _INF else self.hi**n
                return Interval(lo, hi, self.lo_open, self.hi_open)
            a = self.abs()  # even power: monotone on |x|
            lo = a.lo**n
            hi = _INF if a.hi == _INF else a.hi**n
            return Interval(lo, hi, a.lo_open, a.hi_open)
        # Non-integer exponent: only the non-negative part of x is defined.
        base = self if self.lo >= 0.0 else Interval(0.0, max(self.hi, 0.0), False, self.hi_open)
        if c < 0.0:
            return base.pow_const(-c).recip()
        lo = 0.0 if base.lo == 0.0 else base.lo**c
        hi = _INF if base.hi == _INF else base.hi**c
        return Interval(lo, hi, base.lo_open, base.hi_open)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


TOP = Interval(-_INF, _INF, True, True)
POSITIVE = Interval(0.0, _INF, True, True)
UNIT_BOOL = Interval(0.0, 1.0)


@dataclass(frozen=True)
class AbstractValue:
    """Abstract state of one IR node: type, value hull, definedness flags.

    ``hazards`` is cumulative over the subtree — it records every definedness
    hazard reachable while computing the node, not just the node's own op.
    """

    type: TensorType
    range: Interval
    hazards: frozenset[Hazard] = field(default=NO_HAZARDS)

    @property
    def sign(self) -> str:
        """Sign-domain read-out: one of ``+ - 0 0+ 0- ±``."""
        r = self.range
        if r.is_point and r.lo == 0.0:
            return "0"
        if r.lo > 0.0 or (r.lo == 0.0 and r.lo_open):
            return "+"
        if r.hi < 0.0 or (r.hi == 0.0 and r.hi_open):
            return "-"
        if r.lo == 0.0:
            return "0+"
        if r.hi == 0.0:
            return "0-"
        return "±"

    def describe(self) -> str:
        hazards = ",".join(sorted(h.value for h in self.hazards)) or "none"
        return f"{self.type} range={self.range} sign={self.sign} hazards={hazards}"
