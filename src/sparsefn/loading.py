"""Loading vectors: the fixed weights of the linear functional being estimated.

A loading vector is stored sorted by decreasing absolute value, which is the
order every threshold and rate computation assumes.  The sort permutation of
an explicit loading is retained so observations and estimates given in the
caller's coordinate order can be mapped back and forth exactly; a generated
loading is built sorted, so its order is the identity.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "LOADING_KINDS",
    "LoadingLevels",
    "LoadingVector",
    "LoadingSpec",
    "make_loading",
    "effective_dimension",
    "drop_zero_loadings",
]

# kind -> {field: default} of every field that the kind reads; None: required
LOADING_KINDS = {
    "explicit": {"values": None},
    "homogeneous": {"d": None},
    "two_phase": {"d": None, "gamma_d": None, "gamma_lambda": None},
    "exp_decay": {"d": None, "c": None, "gamma": None},
}


@cache
def spec_schema(cls) -> dict:
    """Config key (``metadata["json"]``, else the field name) -> (field name,
    type, default) for each field of the dataclass ``cls`` typed ``int``,
    ``float``, ``str`` or ``tuple[X, ...]`` (or ``X | None`` with default
    None), read once from its hints.  The config, the CLI and ``check_types`` read it."""
    hints = get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        hint = hints[f.name]
        if f.default is None:
            (hint,) = [a for a in get_args(hint) if a is not type(None)]
        if hint in (int, float, str) or get_origin(hint) is tuple:
            schema[f.metadata.get("json", f.name)] = (f.name, hint, f.default)
    return schema


def check_value(kind, value, path: str):
    """``value`` as a field of type ``kind`` holds it, or ValueError at ``path``.
    ``int`` takes exactly an int (no bool, no numpy integer); ``float`` takes
    an int or any float and holds a finite Python float (an int beyond the
    float range is not finite); ``str`` takes exactly a str; ``tuple[X, ...]``
    takes a list or tuple of X and holds a tuple, with errors at ``path[i]``."""
    if kind is float:
        if isinstance(value, float) or type(value) is int:
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf
            if math.isfinite(value):  # json.loads also reads NaN and Infinity
                return value
            raise ValueError(f"{path}: expected a finite number")
        raise ValueError(f"{path}: expected a number")
    if kind is int or kind is str:
        if type(value) is kind:
            return value
        raise ValueError(f"{path}: expected {'an integer' if kind is int else 'a string'}")
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{path}: expected a list")
    kind, _ = get_args(kind)
    return tuple(check_value(kind, x, f"{path}[{i}]") for i, x in enumerate(value))


def check_types(spec) -> None:
    """Hold each field of the frozen dataclass ``spec`` that ``spec_schema``
    types to ``check_value``, None only where the default is None; a failure
    names the field first (``gamma_d: expected a finite number``)."""
    for name, kind, default in spec_schema(type(spec)).values():
        value = getattr(spec, name)
        if value is not None or default is not None:
            object.__setattr__(spec, name, check_value(kind, value, name))


def check_kind(spec, noun: str, kinds: dict) -> None:
    """Hold the frozen spec dataclass ``spec`` to its kind's row of ``kinds``,
    a kind table like ``LOADING_KINDS``: an unset field that the row lists
    takes its default, and a field that it does not list must stay unset.  A
    failure names the field first (``gamma_d: not read by kind 'homogeneous'``)."""
    row = kinds.get(spec.kind)
    if row is None:
        raise ValueError(f"unknown {noun} kind {spec.kind!r}")
    for name, value in vars(spec).items():
        if name != "kind" and (value is None) == (name in row):  # set off the row, or unset on it
            if value is not None:
                raise ValueError(f"{name}: not read by kind {spec.kind!r}")
            if row[name] is None:
                raise ValueError(f"{name}: required by kind {spec.kind!r}")
            object.__setattr__(spec, name, row[name])


def _is_permutation(order: np.ndarray) -> bool:
    """True when the integer array ``order`` holds each of 0..len-1 once."""
    if order.size and not (order.min() >= 0 and order.max() < order.size):
        return False
    seen = np.zeros(order.size, dtype=bool)
    seen[order] = True
    return bool(seen.all())


class LoadingLevels(NamedTuple):
    """The distinct |eta| values of a loading in decreasing order, with counts.

    Level k covers the sorted positions ``ends[k] - counts[k] .. ends[k] - 1``.
    Without ties every level is one coordinate: ``counts`` and ``ends`` are
    then None and ``values`` is the loading's ``abs_values`` array itself, so
    the view costs no memory.
    """

    values: np.ndarray
    counts: np.ndarray | None
    ends: np.ndarray | None

    @property
    def tied(self) -> bool:
        return self.counts is not None

    def covered(self, k):
        """The number of sorted positions in the first k levels (k scalar or array)."""
        return k if self.ends is None else np.where(k > 0, self.ends[k - 1], 0)

    def level_of(self, position: int) -> int:
        """The level holding the 0-based sorted position ``position``."""
        if self.ends is None:
            return position
        return int(np.searchsorted(self.ends, position, side="right"))


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


class LoadingVector:
    """Nonzero finite loadings sorted by decreasing absolute value.

    ``values[k] == original[order[k]]``, so ``order`` maps sorted positions to
    the caller's original coordinates.  Every array is read-only, and the
    object does not change once built.

    ``LoadingVector(values, order)`` checks an explicit loading.
    ``make_loading`` builds a generated one, which is positive and sorted by
    construction, so its order is the identity: that is a fact the object
    records, not an array.  ``to_sorted`` and ``to_original`` then return
    their input, and ``abs_values`` is ``values``.  A homogeneous or
    two_phase loading is built from its ``levels``, and ``values``,
    ``abs_values``, ``order`` and ``original_values`` are built on first
    read, so work that reads only the levels (``rate``, ``solve``) costs
    O(levels) at any d.
    """

    d: int
    provenance: str

    def __init__(self, values, order, provenance: str = "explicit") -> None:
        values = np.asarray(values, dtype=float)
        order = np.asarray(order, dtype=np.intp)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("loading must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError("loading entries must be finite")
        if np.any(values == 0.0):
            raise ValueError("loading entries must be nonzero")
        a = np.abs(values)
        if np.any(a[:-1] < a[1:]):
            raise ValueError("loading must be sorted by decreasing |value|")
        if order.shape != values.shape or not _is_permutation(order):
            raise ValueError("order must be a permutation of 0..d-1")
        _read_only(values, order, a)
        self.__dict__.update(d=int(values.size), provenance=provenance, _identity=False,
                             values=values, order=order, abs_values=a)

    @classmethod
    def _generated(cls, kind: str, d: int, *, values: np.ndarray | None = None,
                   levels: LoadingLevels | None = None) -> LoadingVector:
        """A positive loading already in decreasing order (identity order),
        from its ``values`` or its ``levels``; the caller vouches for both."""
        self = object.__new__(cls)
        self.__dict__.update(d=d, provenance=kind, _identity=True)
        if values is not None:
            _read_only(values)
            self.__dict__.update(values=values, abs_values=values)
        if levels is not None:
            _read_only(*(arr for arr in levels if arr is not None))
            self.__dict__["levels"] = levels
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"LoadingVector is immutable; cannot set {name!r}")

    @cached_property
    def values(self) -> np.ndarray:
        """The loadings in sorted order; read-only.  Set when built unless
        the loading is level-backed."""
        out = np.repeat(self.levels.values, self.levels.counts)
        _read_only(out)
        return out

    @cached_property
    def abs_values(self) -> np.ndarray:
        """|values|; read-only.  Set when built unless the loading is
        generated, hence positive, and then ``values`` itself."""
        return self.values

    @cached_property
    def order(self) -> np.ndarray:
        """Sorted position -> original coordinate.  Set when built unless the
        order is the identity."""
        out = np.arange(self.d, dtype=np.intp)
        _read_only(out)
        return out

    @cached_property
    def levels(self) -> LoadingLevels:
        """The distinct |eta| levels, by run-length over the sorted |eta| in
        O(d); an untied loading stops at the test that finds no tie."""
        a = self.abs_values
        differs = a[1:] != a[:-1]
        if differs.all():
            return LoadingLevels(a, None, None)
        ends = np.append(np.flatnonzero(differs) + 1, a.size)
        values, counts = a[ends - 1], np.diff(ends, prepend=0)
        _read_only(values, counts, ends)
        return LoadingLevels(values, counts, ends)

    def _check_rows(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError(f"expected a vector of length {self.d} or rows of it, "
                             f"got shape {x.shape}")
        return x

    def to_sorted(self, x: np.ndarray) -> np.ndarray:
        """Reorder a vector, or each row of a block, from the original
        coordinate order to sorted order.  Under the identity order this is
        ``x`` itself, not a copy."""
        x = self._check_rows(x)
        return x if self._identity else np.take(x, self.order, axis=-1)

    def to_original(self, x_sorted: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_sorted`, also ``x_sorted`` itself under the
        identity order."""
        x = self._check_rows(x_sorted)
        return x if self._identity else np.take(x, self._inverse_order, axis=-1)

    @cached_property
    def _inverse_order(self) -> np.ndarray:
        """The permutation with ``_inverse_order[order[k]] == k``: a gather
        along it undoes ``to_sorted`` (faster than a scatter)."""
        inverse = np.empty_like(self.order)
        inverse[self.order] = np.arange(self.d)
        return inverse

    @cached_property
    def original_values(self) -> np.ndarray:
        """``values`` in the caller's original order, built once; read-only."""
        out = self.to_original(self.values)
        _read_only(out)
        return out


@dataclass(frozen=True)
class LoadingSpec:
    """Declarative description of a loading vector.

    kind:
        ``explicit``     -- ``values`` given verbatim,
        ``homogeneous``  -- ``d`` ones,
        ``two_phase``    -- ``floor(d**gamma_d)`` entries ``d**gamma_lambda`` then ones,
        ``exp_decay``    -- ``exp(-c * (j-1)**gamma)``, ``c >= 0`` and ``gamma >= 1``
                            keep the decay profile non-decreasing and convex.

    A kind reads the fields of its row of ``LOADING_KINDS``; the rest stay unset.
    """

    kind: str
    d: int | None = None
    values: tuple[float, ...] | None = None
    gamma_d: float | None = None
    gamma_lambda: float | None = None
    c: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        check_types(self)
        check_kind(self, "loading", LOADING_KINDS)
        if self.kind == "explicit" and not self.values:
            raise ValueError("values: an explicit loading needs at least one")
        if self.d is not None and self.d < 1:
            raise ValueError("d must be >= 1")
        if self.kind == "two_phase":
            for name in ("gamma_d", "gamma_lambda"):
                if getattr(self, name) <= 0:
                    raise ValueError(f"{name} must be > 0")
        if self.kind == "exp_decay" and self.c < 0:
            raise ValueError("c must be >= 0")
        if self.kind == "exp_decay" and self.gamma < 1:
            raise ValueError("gamma must be >= 1")


def drop_zero_loadings(values) -> tuple[np.ndarray, np.ndarray]:
    """Drop exactly-zero entries from a raw loading sequence.

    Returns ``(kept_values, kept_indices)`` so callers can see which
    coordinates were removed; dimension changes are never silent.
    """
    values = np.asarray(values, dtype=float)
    kept = np.nonzero(values != 0.0)[0]
    return values[kept], kept


def make_loading(spec: LoadingSpec) -> LoadingVector:
    """Build a sorted loading vector from a spec.

    An explicit loading is sorted and checked.  A generated one is built
    positive and sorted, in identity order: homogeneous, two_phase and
    exp_decay with c = 0 from their one or two levels (no d-vector is built
    unless read), any other exp_decay from its values, which are checked
    here as an explicit loading's are (underflow to 0, order), with no sort
    and no order array.
    """
    if spec.kind == "explicit":
        raw = np.asarray(spec.values, dtype=float)
        order = np.argsort(-np.abs(raw), kind="stable")
        return LoadingVector(raw[order], order, provenance="explicit")

    d = spec.d
    if spec.kind == "homogeneous" or spec.c == 0.0:  # exp_decay with c = 0: ones too
        return _from_levels(spec.kind, [1.0], [d])
    if spec.kind == "two_phase":
        head = math.floor(d ** spec.gamma_d)
        if head > d:
            raise ValueError("two_phase head count floor(d**gamma_d) exceeds d")
        top = d ** spec.gamma_lambda
        if head == d or top == 1.0:
            return _from_levels(spec.kind, [top if head == d else 1.0], [d])
        return _from_levels(spec.kind, [top, 1.0], [head, d - head])
    # exp_decay with decay profile c * x**gamma
    with np.errstate(over="ignore"):  # a profile past the float range decays to 0
        vals = np.arange(d, dtype=float) ** spec.gamma
        vals *= -spec.c
    np.exp(vals, out=vals)
    if np.any(vals == 0.0):
        raise ValueError("exp_decay underflowed to zero loadings; reduce c or d")
    if np.any(vals[:-1] < vals[1:]):
        raise ValueError("loading must be sorted by decreasing |value|")
    return LoadingVector._generated(spec.kind, d, values=vals)


def _from_levels(kind: str, values: list[float], counts: list[int]) -> LoadingVector:
    """A generated loading from its distinct decreasing values and their
    counts.  Levels of one coordinate each are untied, as ``levels`` finds
    them, so such a loading (d <= 2) is built from its values."""
    if max(counts) == 1:
        return LoadingVector._generated(kind, len(values), values=np.array(values))
    counts = np.array(counts, dtype=np.intp)
    levels = LoadingLevels(np.array(values), counts, np.cumsum(counts))
    return LoadingVector._generated(kind, int(levels.ends[-1]), levels=levels)


def effective_dimension(loading: LoadingVector) -> int:
    """Index of the first loading below 1/2 (1-based), or d+1 if none is;
    a binary search over the decreasing |eta| levels."""
    levels = loading.levels
    k = bisect.bisect_right(levels.values, -0.5, key=operator.neg)  # first level < 1/2
    return int(levels.covered(k)) + 1
