"""Lorentz norms in time for piecewise-constant trajectories.

A trajectory records nonnegative values on the partition induced by its
nodes: value v_j is held on the interval (t_{j-1}, t_j], with t_0 = 0,
and the function vanishes beyond the last node.  The Lorentz norm with
indices (rho, r) integrates the decreasing rearrangement against
t^(r/rho - 1) dt, a closed form on step functions; for r = inf it is the
supremum of t^(1/rho) times the rearrangement.  This normalization makes
the (rho, rho) norm coincide exactly with the L^rho norm, and turns the
power identity ||f^m|| at (rho, r) = ||f|| at (m rho, m r) to the m-th
power into an arithmetic identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class LorentzIndex:
    """Primary index rho > 1 and secondary index r in [1, inf]."""

    rho: float
    r: float

    def __post_init__(self):
        if not self.rho > 1.0:
            raise ParameterError(f"rho must exceed 1, got {self.rho}")
        if not self.r >= 1.0:
            raise ParameterError(f"r must be >= 1, got {self.r}")


class TimeSamples:
    """Strictly increasing positive nodes with nonnegative held values."""

    __slots__ = ("t", "v")

    def __init__(self, t, v):
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ParameterError("nodes and values must be 1-d arrays of equal length")
        if t.size < 2:
            raise ParameterError(f"at least 2 nodes required, got {t.size}")
        if not t[0] > 0.0:
            raise ParameterError(f"first node must be positive, got {t[0]}")
        if not np.all(np.diff(t) > 0.0):
            raise ParameterError("nodes must be strictly increasing")
        if not np.all(np.isfinite(t)):
            raise ParameterError("nodes must be finite")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise ParameterError("values must be finite and nonnegative")
        self.t = t
        self.v = v

    @property
    def size(self) -> int:
        return self.t.size

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def lengths(self) -> np.ndarray:
        """Interval lengths of the induced partition."""
        return np.diff(self.t, prepend=0.0)

    def powered(self, m: float) -> "TimeSamples":
        return TimeSamples(self.t, self.v**m)

    def __repr__(self):
        return f"TimeSamples(J={self.size}, t_end={self.t_end!r})"


def log_nodes(T: float, J: int, floor_factor: float = 1e-6) -> np.ndarray:
    """J log-uniform nodes on (T * floor_factor, T]."""
    if not T > 0.0:
        raise ParameterError(f"horizon must be positive, got {T}")
    if J < 2:
        raise ParameterError(f"at least 2 nodes required, got {J}")
    if J > np.iinfo(np.intp).max // 8:
        raise ParameterError(f"node count must leave arrays numpy can size, got {J}")
    if not 0.0 < floor_factor < 1.0:
        raise ParameterError("floor_factor must lie in (0, 1)")
    return T * floor_factor ** (1.0 - np.arange(J) / (J - 1.0))


def _rearranged(ts: TimeSamples) -> tuple:
    """The decreasing rearrangement's interval ends and values, unchecked:
    an interval under one ulp of the running sum ties two ends, and adds
    nothing to a Lorentz norm."""
    order = np.argsort(-ts.v, kind="stable")
    return np.cumsum(ts.lengths()[order]), ts.v[order]


def decreasing_rearrangement(ts: TimeSamples) -> TimeSamples:
    """Sort values descending, keep interval lengths, re-anchor at 0."""
    return TimeSamples(*_rearranged(ts))


def lorentz_norm(ts: TimeSamples, index: LorentzIndex) -> float:
    """Closed-form Lorentz norm of a step trajectory (zero beyond its last node)."""
    b, w = _rearranged(ts)
    a = np.concatenate(([0.0], b[:-1]))
    if math.isinf(index.r):
        top = w * b ** (1.0 / index.rho)
        return float(np.max(top))
    e = index.r / index.rho
    terms = w**index.r * (b**e - a**e) * (index.rho / index.r)
    return float(np.sum(terms) ** (1.0 / index.r))


def power_identity_check(ts: TimeSamples, m: float, index: LorentzIndex) -> tuple:
    """Return (lhs, rhs): ||f^m|| at (rho, r) vs ||f|| at (m rho, m r) to the m."""
    if not m >= 1.0:
        raise ParameterError(f"m must be >= 1, got {m}")
    lhs = lorentz_norm(ts.powered(m), index)
    lifted = LorentzIndex(m * index.rho, m * index.r if math.isfinite(index.r) else math.inf)
    rhs = lorentz_norm(ts, lifted) ** m
    return lhs, rhs


def pointwise_product(factors) -> TimeSamples:
    """Pointwise-in-time product on the merged partition (0 beyond supports)."""
    factors = list(factors)
    if len(factors) < 2:
        raise ParameterError("need at least two factors")
    nodes = np.unique(np.concatenate([f.t for f in factors]))
    values = np.ones_like(nodes)
    for f in factors:
        # value held on (t_{j-1}, t_j]: the first node >= the query time
        pos = np.searchsorted(f.t, nodes, side="left")
        vals = np.where(pos < f.size, f.v[np.minimum(pos, f.size - 1)], 0.0)
        values = values * vals
    return TimeSamples(nodes, values)


def holder_product_check(factors, rhos, index: LorentzIndex) -> tuple:
    """Return (lhs, rhs) for the product estimate.

    lhs is the (rho, r) norm of the pointwise product; rhs the product of
    the factor norms at (rho_i, r).  Requires sum 1/rho_i = 1/rho exactly
    and every rho_i >= rho > 1.
    """
    factors = list(factors)
    rhos = [float(x) for x in rhos]
    if len(factors) != len(rhos):
        raise ParameterError("one exponent per factor required")
    if len(factors) < 2:
        raise ParameterError("need at least two factors")
    for rho_i in rhos:
        if rho_i < index.rho:
            raise ParameterError(f"every rho_i must be >= rho, got {rho_i} < {index.rho}")
    total = sum(1.0 / rho_i for rho_i in rhos)
    if abs(total - 1.0 / index.rho) > 1e-12:
        raise ParameterError(
            f"exponents must satisfy sum 1/rho_i = 1/rho, got {total} vs {1.0 / index.rho}"
        )
    product = pointwise_product(factors)
    lhs = lorentz_norm(product, index)
    rhs = 1.0
    for f, rho_i in zip(factors, rhos):
        rhs *= lorentz_norm(f, LorentzIndex(rho_i, index.r))
    return lhs, rhs


def read_trajectory_csv(path) -> TimeSamples:
    """Times and values from the first two columns of a CSV file with a
    header row; a row that holds no such pair is a ParameterError that
    names its line."""
    import csv  # imported only when a trajectory file is read

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = [(reader.line_num, row) for row in reader]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ParameterError(f"{path}: not a CSV text file ({exc})") from None
    if not rows:
        raise ParameterError(f"{path}: empty trajectory file")
    t, v = [], []
    for line, row in rows[1:]:
        if not row:
            continue
        try:
            t.append(float(row[0]))
            v.append(float(row[1]))
        except (IndexError, ValueError):
            raise ParameterError(
                f"{path}, line {line}: expected a time and a value, got {','.join(row)!r}"
            ) from None
    return TimeSamples(np.asarray(t), np.asarray(v))
