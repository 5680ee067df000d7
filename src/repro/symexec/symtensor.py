"""Symbolic tensors: NumPy object ndarrays of SymPy expressions.

A :class:`SymTensor` is the value domain of symbolic execution.  Program
inputs become tensors of fresh SymPy symbols (``A[0,1]`` …); executing the
IR over them yields, per output element, one comprehensive mathematical
expression over input symbols — the *target specification* Φ of the paper
(Section IV-A).

Float input elements are created with ``positive=True``.  Benchmarks are
verified on strictly positive random inputs, and positivity lets SymPy
perform the simplifications the paper relies on (``sqrt(x)**2 -> x``,
``exp(log x) -> x`` …).  Boolean input elements are represented as the
relational ``Symbol(...) > 0`` so they can appear in ``Piecewise``
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np
import sympy as sp
from sympy.functions.elementary.piecewise import ExprCondPair

from repro.ir.types import DType, Shape, TensorType

# Maps every generated element symbol to its (input name, index tuple), so the
# solver can use index hints when splitting reductions.
_SYMBOL_ORIGIN: dict[sp.Symbol, tuple[str, tuple[int, ...]]] = {}


@lru_cache(maxsize=None)
def element_symbol(input_name: str, index: tuple[int, ...], boolean: bool = False) -> sp.Expr:
    """The SymPy expression standing for one element of a named input."""
    suffix = ",".join(str(i) for i in index)
    label = f"{input_name}[{suffix}]" if index else input_name
    if boolean:
        base = sp.Symbol(label + "?", real=True)
        _SYMBOL_ORIGIN[base] = (input_name, index)
        return sp.Gt(base, 0)
    symbol = sp.Symbol(label, positive=True)
    _SYMBOL_ORIGIN[symbol] = (input_name, index)
    return symbol


def symbol_origin(symbol: sp.Symbol) -> tuple[str, tuple[int, ...]] | None:
    """Input name and element index a symbol was created for, if any."""
    return _SYMBOL_ORIGIN.get(symbol)


def representative(exprs: tuple) -> tuple[tuple, dict] | None:
    """``exprs`` renamed to their index class's representative, and the renaming back.

    Entry ``(i, j)`` of an elementwise expression is entry ``(0, 0)`` with
    every ``X[0,0]`` renamed to ``X[i,j]``, and a one-to-one renaming of
    positive symbols preserves every truth value.  ``None`` is "no opinion":
    a symbol that is not a plain ``positive=True`` element symbol (a boolean
    carrier ``X[i,j]?``, a solver unknown), mixed indices, a scalar input,
    index 0 itself, no symbol, or a node :func:`rename` does not rebuild.
    """
    index, renaming = None, {}
    try:
        for expr in exprs:
            for symbol in expr.free_symbols:
                origin = _SYMBOL_ORIGIN.get(symbol)
                if origin is None or not symbol.is_positive or index not in (None, origin[1]):
                    return None
                index = origin[1]
                renaming[symbol] = element_symbol(origin[0], (0,) * len(index))
    except AttributeError:
        return None
    if not any(index or ()):
        return None
    rep = tuple(rename(expr, renaming) for expr in exprs)
    if any(expr is None for expr in rep):
        return None
    return rep, {zero: symbol for symbol, zero in renaming.items()}


#: What :func:`rename` rebuilds with ``evaluate=False``: the object evaluation builds from
#: the same arguments.  ``>`` is how ``Piecewise`` spells a condition ``B < A``.
_REBUILT = (sp.Add, sp.Mul, sp.Pow, sp.StrictLessThan, sp.StrictGreaterThan, sp.Max, sp.Min,
            sp.Piecewise, ExprCondPair)


def rename(expr, renaming: dict):
    """``expr`` with its symbols renamed, or ``None`` outside :data:`_REBUILT` (never
    through ``sp.evaluate(False)``: entering and leaving it clears SymPy's whole cache)."""
    if expr.is_Symbol:
        return renaming.get(expr)
    if expr.is_Number or expr is sp.true or expr is sp.false:
        return expr
    cls = type(expr)
    if cls not in _REBUILT:
        return None
    args = [rename(arg, renaming) for arg in expr.args]
    if any(arg is None for arg in args):
        return None
    return ExprCondPair(*args) if cls is ExprCondPair else cls(*args, evaluate=False)


def _constant(value) -> sp.Expr:
    """The exact SymPy number of a float constant.

    Integer values below ``2**53`` are taken as they are: ``nsimplify`` goes
    through mpmath's ``identify`` (milliseconds per constant) and returns a
    600-digit ``Rational`` for ``282266.0`` and a 15-digit rounding from
    ``1e15`` up.
    """
    v = float(value)
    if v.is_integer() and abs(v) < 2**53:
        return sp.Integer(int(v))
    return sp.nsimplify(v, rational=True)


#: Memoized constant tensors: (shape, dtype str, bytes, DType) -> SymTensor.
_FROM_VALUE_MEMO: dict[tuple, "SymTensor"] = {}


@dataclass(frozen=True)
class SymTensor:
    """An immutable symbolic tensor: expression array plus element dtype."""

    data: np.ndarray  # dtype=object, entries are sympy expressions
    dtype: DType

    def __post_init__(self) -> None:
        if self.data.dtype != object:
            object.__setattr__(self, "data", self.data.astype(object))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_input(name: str, type: TensorType) -> "SymTensor":
        boolean = type.dtype is DType.BOOL
        data = np.empty(type.shape, dtype=object)
        for idx in np.ndindex(*type.shape) if type.shape else [()]:
            value = element_symbol(name, tuple(idx), boolean=boolean)
            if type.shape:
                data[idx] = value
            else:
                data = np.array(value, dtype=object)
        return SymTensor(data, type.dtype)

    @staticmethod
    def from_value(value, dtype: DType = DType.FLOAT) -> "SymTensor":
        arr = np.asarray(value)
        # Constant tensors repeat across candidates and kernels, and
        # ``nsimplify`` is expensive; memoize by exact array content.
        # SymTensor is frozen so sharing one instance is safe.
        try:
            memo_key = (arr.shape, arr.dtype.str, arr.tobytes(), dtype)
        except Exception:
            memo_key = None
        if memo_key is not None:
            cached = _FROM_VALUE_MEMO.get(memo_key)
            if cached is not None:
                return cached
        data = np.empty(arr.shape, dtype=object)
        flat = data.reshape(-1) if arr.shape else None
        if arr.shape:
            for i, v in enumerate(arr.reshape(-1)):
                flat[i] = sp.S(bool(v)) if dtype is DType.BOOL else _constant(v)
        else:
            item = arr.item()
            data = np.array(
                sp.S(bool(item)) if dtype is DType.BOOL else _constant(item),
                dtype=object,
            )
        out = SymTensor(data, dtype)
        if memo_key is not None:
            _FROM_VALUE_MEMO[memo_key] = out
        return out

    # -- basic views ----------------------------------------------------------

    @property
    def shape(self) -> Shape:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def type(self) -> TensorType:
        return TensorType(self.dtype, self.shape)

    def entries(self) -> Iterator[sp.Expr]:
        if self.shape == ():
            yield self.data.item() if isinstance(self.data, np.ndarray) else self.data
        else:
            yield from self.data.reshape(-1)

    def map(self, fn) -> "SymTensor":
        """Apply ``fn`` to every entry, preserving shape and dtype."""
        out = np.empty(self.shape, dtype=object)
        if self.shape == ():
            return SymTensor(np.array(fn(self.item()), dtype=object), self.dtype)
        flat_in = self.data.reshape(-1)
        flat_out = out.reshape(-1)
        for i in range(flat_in.size):
            flat_out[i] = fn(flat_in[i])
        return SymTensor(out, self.dtype)

    def item(self) -> sp.Expr:
        return self.data.item() if self.data.shape == () else self.data.reshape(-1)[0]

    # -- paper metrics ---------------------------------------------------------

    def density(self) -> float:
        """Ratio of non-zero entries to total entries (Section V-A).

        ``np.where``/``triu``-style masking lowers density, which the
        simplification objective rewards.  An entry whose residue battery is
        non-zero at any point is not identically zero; SymPy is asked only
        about the entries the battery leaves open.
        """
        if self.size == 0:
            return 0.0
        from repro.symexec.residues import tensor_residues

        res = tensor_residues(self)
        if res is None:
            open_entries = self.entries()
        else:
            proved = res.reshape(-1, self.size).any(axis=0)
            open_entries = (e for e, nz in zip(self.entries(), proved) if not nz)
        zeros = sum(1 for e in open_entries if _is_zero(e))
        return (self.size - zeros) / self.size

    def input_symbols(self) -> set[sp.Symbol]:
        """All input element symbols appearing anywhere in the tensor."""
        out: set[sp.Symbol] = set()
        for e in self.entries():
            out |= _input_symbols_of(e)
        return out

    def input_names(self) -> frozenset[str]:
        """Names of the program inputs referenced by this tensor (memoized:
        MATCH asks every same-signature stub at every node)."""
        names = self.__dict__.get("_input_names")
        if names is None:
            names = frozenset(
                origin[0]
                for s in self.input_symbols()
                if (origin := symbol_origin(s)) is not None
            )
            object.__setattr__(self, "_input_names", names)
        return names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymTensor(shape={self.shape}, dtype={self.dtype.value}, data={self.data!r})"


def _is_zero(expr: sp.Expr) -> bool:
    try:
        return bool(expr.is_zero)
    except (AttributeError, TypeError):
        return False


def _input_symbols_of(expr) -> set[sp.Symbol]:
    try:
        free = expr.free_symbols
    except AttributeError:
        return set()
    return {s for s in free if s in _SYMBOL_ORIGIN}


def input_symbols_of(expr) -> set[sp.Symbol]:
    """Public helper: the input element symbols of a single expression."""
    return _input_symbols_of(expr)


def symbols_by_input(symbols: Iterable[sp.Symbol]) -> dict[str, set[sp.Symbol]]:
    """Group element symbols by the program input they belong to."""
    grouped: dict[str, set[sp.Symbol]] = {}
    for s in symbols:
        origin = symbol_origin(s)
        if origin is not None:
            grouped.setdefault(origin[0], set()).add(s)
    return grouped
