"""Loading vectors: the fixed weights of the linear functional being estimated.

A loading vector is stored sorted by decreasing absolute value, which is the
order every threshold and rate computation assumes.  The sort permutation is
retained so observations and estimates given in the caller's coordinate order
can be mapped back and forth exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "LoadingLevels",
    "LoadingVector",
    "LoadingSpec",
    "make_loading",
    "effective_dimension",
    "drop_zero_loadings",
]

_KINDS = ("explicit", "homogeneous", "two_phase", "exp_decay")


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


@dataclass(frozen=True)
class LoadingVector:
    """Nonzero finite loadings sorted by decreasing absolute value.

    ``values[k] == original[order[k]]``, so ``order`` maps sorted positions to
    the caller's original coordinates.
    """

    values: np.ndarray
    order: np.ndarray
    provenance: str = "explicit"

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        order = np.asarray(self.order, dtype=np.intp)
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
        values.flags.writeable = False
        order.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_abs", a)

    @property
    def d(self) -> int:
        return int(self.values.size)

    @property
    def abs_values(self) -> np.ndarray:
        """|values|, computed once; read-only."""
        return self._abs

    @cached_property
    def levels(self) -> LoadingLevels:
        """The distinct |eta| levels, by run-length over the sorted |eta| in O(d)."""
        a = self._abs
        ends = np.append(np.flatnonzero(a[1:] != a[:-1]) + 1, a.size)
        if ends.size == a.size:
            return LoadingLevels(a, None, None)
        values, counts = a[ends - 1], np.diff(ends, prepend=0)
        for arr in (values, counts, ends):
            arr.flags.writeable = False
        return LoadingLevels(values, counts, ends)

    def _check_rows(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError(f"expected a vector of length {self.d} or rows of it, "
                             f"got shape {x.shape}")
        return x

    def to_sorted(self, x: np.ndarray) -> np.ndarray:
        """Reorder a vector, or each row of a block, from the original
        coordinate order to sorted order."""
        return np.take(self._check_rows(x), self.order, axis=-1)

    def to_original(self, x_sorted: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_sorted`."""
        return np.take(self._check_rows(x_sorted), self._inverse_order, axis=-1)

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
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class LoadingSpec:
    """Declarative description of a loading vector.

    kind:
        ``explicit``     -- ``values`` given verbatim,
        ``homogeneous``  -- all ones, needs ``d``,
        ``two_phase``    -- ``floor(d**gamma_d)`` entries ``d**gamma_lambda`` then ones,
        ``exp_decay``    -- ``exp(-c * (j-1)**gamma)``, ``c >= 0`` and ``gamma >= 1``
                            keep the decay profile non-decreasing and convex.
    """

    kind: str
    d: int | None = None
    values: tuple[float, ...] | None = None
    gamma_d: float | None = None
    gamma_lambda: float | None = None
    c: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loading kind {self.kind!r}")
        if self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit loading needs values")
        else:
            if self.d is None or int(self.d) < 1:
                raise ValueError("generated loading needs d >= 1")
        if self.kind == "two_phase":
            if self.gamma_d is None or self.gamma_lambda is None:
                raise ValueError("two_phase needs gamma_d and gamma_lambda")
            if self.gamma_d <= 0 or self.gamma_lambda <= 0:
                raise ValueError("two_phase needs gamma_d > 0 and gamma_lambda > 0")
        if self.kind == "exp_decay":
            if self.c is None or self.gamma is None:
                raise ValueError("exp_decay needs c and gamma")
            if self.c < 0 or self.gamma < 1:
                raise ValueError("exp_decay needs c >= 0 and gamma >= 1")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in ("d", "values", "gamma_d", "gamma_lambda", "c", "gamma"):
            v = getattr(self, name)
            if v is not None:
                out[name] = list(v) if name == "values" else v
        return out


def drop_zero_loadings(values) -> tuple[np.ndarray, np.ndarray]:
    """Drop exactly-zero entries from a raw loading sequence.

    Returns ``(kept_values, kept_indices)`` so callers can see which
    coordinates were removed; dimension changes are never silent.
    """
    values = np.asarray(values, dtype=float)
    kept = np.nonzero(values != 0.0)[0]
    return values[kept], kept


def make_loading(spec: LoadingSpec) -> LoadingVector:
    """Build a validated, sorted loading vector from a spec."""
    if spec.kind == "explicit":
        raw = np.asarray(spec.values, dtype=float)
        order = np.argsort(-np.abs(raw), kind="stable")
        return LoadingVector(raw[order], order, provenance="explicit")

    d = int(spec.d)
    if spec.kind == "homogeneous":
        vals = np.ones(d)
    elif spec.kind == "two_phase":
        head = math.floor(d ** spec.gamma_d)
        if head > d:
            raise ValueError("two_phase head count floor(d**gamma_d) exceeds d")
        vals = np.ones(d)
        vals[:head] = d ** spec.gamma_lambda
    else:  # exp_decay with decay profile c * x**gamma
        j = np.arange(d, dtype=float)
        vals = np.exp(-spec.c * j**spec.gamma)
        if np.any(vals == 0.0):
            raise ValueError("exp_decay underflowed to zero loadings; reduce c or d")
    return LoadingVector(vals, np.arange(d, dtype=np.intp), provenance=spec.kind)


def effective_dimension(loading: LoadingVector) -> int:
    """Index of the first loading below 1/2 (1-based), or d+1 if none is."""
    below = np.nonzero(loading.abs_values < 0.5)[0]
    return int(below[0]) + 1 if below.size else loading.d + 1
