"""Birth-death chains parametrised by a pair of positive weight sequences.

A chain is described by weights (psi, phi) and intensities (lam, mu):

    birth rate at n:  lam * psi(n) / phi(n)
    death rate at n:  mu * psi(n-1) / phi(n)

with rho = lam / mu.  All weight evaluation happens in log space so that
factorially growing or decaying sequences stay usable far into the tail.
A finite state space {0..cap} is encoded by the ``cap`` field; the weight
sequences themselves stay positive.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    CapExceededError,
    NotApplicableError,
    NotPositiveRecurrentError,
    PalmUndefinedError,
    SpecFormatError,
)

__all__ = [
    "log_factorial",
    "Tail",
    "WeightSequence",
    "OnesSequence",
    "FactorialInverseSequence",
    "MultiServerSequence",
    "TableSequence",
    "CallableSequence",
    "ReciprocalSequence",
    "BirthDeathSpec",
    "Verdict",
    "Classification",
    "classify",
    "stationary_distribution",
    "palm_distribution",
    "mm1",
    "mms",
    "mminf",
    "spec_from_dict",
    "spec_to_dict",
    "load_spec",
    "save_spec",
]


# Most levels a per-level table may hold: 8 MiB of float64 a table.
_MAX_LEVELS = 1 << 20


def _check_levels(name: str, n: int) -> int:
    """n as an int by the _integer rule, at least 0; NotApplicableError, before the
    table is sized, for a level n past _MAX_LEVELS."""
    n = _integer(name, n, 0)
    if n > _MAX_LEVELS:
        raise NotApplicableError(f"{name} {n} lies beyond the {_MAX_LEVELS} levels a table may hold")
    return n


def _integer(name: str, value, least: int, error=ValueError) -> int:
    """int(value); error for a bool, a non-integer (numpy integers pass) or a value below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _positive(name: str, value, error=ValueError) -> float:
    """float(value); error for a bool, a non-real, NaN, a value <= 0 or one past the float range."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        if real and 0.0 < float(value) < math.inf:
            return float(value)
    except OverflowError:  # an integer past the float range
        pass
    raise error(f"{name} must be a finite positive real, got {value!r}")


def logsumexp(a: np.ndarray) -> float:
    """Stable log(sum(exp(a))) for a 1-d array; tolerates -inf entries."""
    a = np.asarray(a, dtype=float)
    m = float(np.max(a)) if a.size else -math.inf
    if not math.isfinite(m):
        return m  # all -inf (empty sum) or an infinite term
    return m + math.log(float(np.sum(np.exp(a - m))))


# ---------------------------------------------------------------------------
# log-factorial


_LOG_FACTORIAL_CAP = 1 << 16  # table entries; 512 KiB of float64
_STIRLING_FROM = 15
# log i! for i < len, grown by doubling; the first entries are exact (math.lgamma
# is off by an ulp at some small integers), the rest come from the Stirling series
_log_factorial_table = np.array([math.log(math.factorial(i)) for i in range(_STIRLING_FROM)])


def _log_factorial_upto(n: int) -> np.ndarray:
    """The table of log i!, grown to cover index n (n < _LOG_FACTORIAL_CAP)."""
    global _log_factorial_table
    table = _log_factorial_table
    if n >= len(table):
        size = min(max(2 * len(table), 1 << n.bit_length()), _LOG_FACTORIAL_CAP)
        table = np.concatenate([table, _stirling_log_gamma(np.arange(len(table) + 1.0, size + 1.0))])
        _log_factorial_table = table
    return table


def _stirling_log_gamma(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) by the Stirling series; accurate to rounding for x >= 16."""
    r = 1.0 / x
    r2 = r * r
    series = r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188))))
    return (x - 0.5) * (np.log(x) - 1.0) + (0.5 * math.log(2.0 * math.pi) - 0.5) + series


def log_factorial(n):
    """log n! = log Gamma(n + 1), elementwise.

    Whole n below 2^16 are read from a cached table; larger n, and
    non-integers from 15 on, take the Stirling series; the remaining small
    non-integers call ``math.lgamma``, which raises ValueError at the poles
    (negative whole n).
    """
    x = np.asarray(n)
    if x.ndim == 0:
        v = float(x)
        if v.is_integer() and 0 <= v < _LOG_FACTORIAL_CAP:
            return _log_factorial_upto(int(v))[int(v)]
        return log_factorial(x.reshape(1))[0]
    if x.dtype.kind in "iu":
        whole = (x >= 0) & (x < _LOG_FACTORIAL_CAP)
    else:
        x = x.astype(float)
        whole = (x >= 0) & (x < _LOG_FACTORIAL_CAP) & (x == np.floor(x))
    if whole.all():
        idx = x.astype(np.intp)
        return _log_factorial_upto(int(idx.max(initial=0)))[idx]
    out = np.empty(x.shape)
    idx = x[whole].astype(np.intp)
    out[whole] = _log_factorial_upto(int(idx.max(initial=0)))[idx]
    big = ~whole & (x >= _STIRLING_FROM)
    out[big] = _stirling_log_gamma(x[big] + 1.0)
    small = ~(whole | big)
    out[small] = [math.lgamma(v + 1.0) for v in x[small].tolist()]
    return out


# ---------------------------------------------------------------------------
# weight sequences


@dataclass(frozen=True)
class Tail:
    """log w(n) = log_start + (n - start) log ratio + degree log(n / start)
    - factorial log(n! / start!), exactly for n >= start.

    The law is anchored at its start, whose log weight ``log_start`` is held
    as given, so a level past a long table carries the rounding of the steps
    from the table's end and not that of an amplitude extrapolated to n = 0.
    """

    start: int
    log_start: float
    ratio: float = 1.0
    degree: int = 0
    factorial: int = 0

    @property
    def log_amp(self) -> float:
        """log of the amplitude in log w(n) = log_amp + n log ratio + degree log n - factorial log n!."""
        out = self.log_start - self.degree * math.log(max(self.start, 1)) - self.start * math.log(self.ratio)
        return out + self.factorial * float(log_factorial(self.start)) if self.factorial else out

    def log_value(self, n):
        n = np.asarray(n, dtype=float)
        out = self.log_start + (n - self.start) * math.log(self.ratio)
        if self.degree:
            out = out + self.degree * (np.log(n) - math.log(self.start))
        return out - self.factorial * (log_factorial(n) - log_factorial(self.start)) if self.factorial else out

    def reciprocal(self) -> "Tail":
        return Tail(self.start, -self.log_start, 1.0 / self.ratio, -self.degree, -self.factorial)


class WeightSequence:
    """Positive sequence w(0), w(1), ... evaluated in log space.

    ``tail`` records the exact law past some level where the representation
    states it.  ``tail_bounds``, (liminf, limsup) of w(n+1)/w(n), derives from
    the record (its ratio, or 0.0 or inf for a factorial), else is a
    callable's hint; ``tail_ratio`` is the limit where the two bounds agree.
    Each may be None.

    Sequences are immutable: a spec caches its classification, which must
    not go stale.
    """

    tail: Tail | None = None
    _hint: tuple[float, float] | None = None

    @property
    def tail_bounds(self) -> tuple[float, float] | None:
        t = self.tail
        r = t and (t.ratio if not t.factorial else 0.0 if t.factorial > 0 else math.inf)
        return self._hint if t is None else (r, r)

    @property
    def tail_ratio(self) -> float | None:
        bounds = self.tail_bounds
        return bounds[0] if bounds is not None and bounds[0] == bounds[1] else None

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def log_value(self, n):
        raise NotImplementedError

    def value(self, n):
        return np.exp(self.log_value(n))

    def log_ratio(self, n):
        """log(w(n+1) / w(n))."""
        n = np.asarray(n)
        return self.log_value(n + 1) - self.log_value(n)

    def reciprocal(self) -> "WeightSequence":
        return ReciprocalSequence(self)

    def to_json(self) -> dict:
        raise SpecFormatError(f"{type(self).__name__} has no file representation")


@dataclass(frozen=True)
class OnesSequence(WeightSequence):
    """w(n) = 1 for all n (single-server pattern)."""

    tail = Tail(0, 0.0)

    def log_value(self, n):
        return np.zeros_like(np.asarray(n), dtype=float)

    def reciprocal(self):
        return OnesSequence()

    def to_json(self):
        return {"kind": "preset", "name": "mm1"}


@dataclass(frozen=True)
class FactorialInverseSequence(WeightSequence):
    """w(n) = 1/n! (infinite-server pattern); ratio w(n+1)/w(n) -> 0."""

    tail = Tail(0, 0.0, factorial=1)

    def log_value(self, n):
        return -log_factorial(n)

    def to_json(self):
        return {"kind": "preset", "name": "mminf"}


@dataclass(frozen=True)
class MultiServerSequence(WeightSequence):
    """w(n) = 1/n! for n < s and s^(s-n)/s! from s - 1 on; ratio -> 1/s."""

    s: int

    def __post_init__(self):
        s = _integer("server count", self.s, 1, SpecFormatError)
        self._set(s=s, tail=Tail(s - 1, -float(log_factorial(s - 1)), 1.0 / s))

    def log_value(self, n):
        n = np.asarray(n)
        head = -log_factorial(np.minimum(n, self.s))  # only read where n <= s
        tail = (self.s - n.astype(float)) * math.log(self.s) - log_factorial(self.s)
        return np.where(n <= self.s, head, tail)

    def log_ratio(self, n):
        """-log min(n + 1, s): exactly -log s from n = s - 1 on."""
        return -np.log(np.minimum(np.asarray(n) + 1, self.s).astype(float))

    def to_json(self):
        return {"kind": "preset", "name": "mms", "s": self.s}


class TableSequence(WeightSequence):
    """Explicit head values with constant-ratio extrapolation beyond the table.

    From the table end N on, w(n) = w(N) * tail_ratio^(n-N) * (n/N)^poly_degree, as its
    ``tail`` record states.  The polynomial factor serves reduced network chains whose
    aggregate weight grows like n^m * beta^n; plain tables use poly_degree = 0.
    """

    def __init__(self, values, tail_ratio: float, poly_degree: int = 0):
        try:
            vals = np.asarray(values)
        except ValueError:  # ragged nesting
            raise SpecFormatError("table values must be a list of numbers") from None
        if vals.ndim != 1 or vals.dtype.kind not in "iuf":
            raise SpecFormatError("table values must be a list of numbers")
        vals = vals.astype(float)
        if not vals.size:
            raise SpecFormatError("table needs at least one value")
        if not np.all(np.isfinite(vals) & (vals > 0.0)):
            raise SpecFormatError("table values must be finite and positive")
        self._fill(vals, np.log(vals), tail_ratio, poly_degree)

    @classmethod
    def from_log(cls, log_values, tail_ratio: float, poly_degree: int = 0) -> "TableSequence":
        """Build from log-scale values; sidesteps linear underflow for long tables."""
        logs = np.array(log_values, dtype=float)  # a private copy, made read-only in _fill
        if logs.ndim != 1 or logs.size == 0:
            raise SpecFormatError("table needs at least one value")
        if not np.all(np.isfinite(logs)):
            raise SpecFormatError("log table values must be finite")
        seq = cls.__new__(cls)
        seq._fill(_linear(logs), logs, tail_ratio, poly_degree)
        return seq

    def _fill(self, values: np.ndarray, logs: np.ndarray, tail_ratio: float, poly_degree: int):
        tail_ratio = _positive("tail_ratio", tail_ratio, SpecFormatError)
        poly_degree = _integer("poly_degree", poly_degree, 0, SpecFormatError)
        if poly_degree != 0 and len(values) < 2:
            raise SpecFormatError("polynomial tail needs a table of length >= 2")
        values.flags.writeable = False
        logs.flags.writeable = False
        self._set(_values=values, _log_values=logs, tail=Tail(len(logs) - 1, float(logs[-1]), tail_ratio, poly_degree))

    poly_degree = property(lambda self: self.tail.degree)

    @property
    def values(self) -> tuple:
        """The linear table as a tuple of floats, built on each access."""
        return tuple(self._values.tolist())

    def log_value(self, n):
        scalar = np.ndim(n) == 0
        n = np.atleast_1d(np.asarray(n))
        last = len(self._values) - 1
        out = self._log_values[np.clip(n, 0, last)].astype(float)
        over = n > last
        if np.any(over):
            out[over] = self.tail.log_value(n[over])
        return float(out[0]) if scalar else out

    def to_json(self):
        if np.any(self._values <= 0.0):
            raise SpecFormatError("table values underflow the linear file representation")
        if np.any(self._values == math.inf):
            raise SpecFormatError("table values overflow the linear file representation")
        doc = {"kind": "table", "values": self._values.tolist(), "tail_ratio": self.tail_ratio}
        if self.poly_degree:  # absent means 0
            doc["poly_degree"] = self.poly_degree
        return doc

    def __eq__(self, other):
        # the logs, as the linear values of distinct tables can underflow alike
        same_tail = isinstance(other, TableSequence) and other.tail == self.tail
        return same_tail and np.array_equal(other._log_values, self._log_values)

    def __hash__(self):
        # consistent with __eq__: the logs are never NaN, and + 0.0 turns -0.0 into 0.0
        return hash((TableSequence, (self._log_values + 0.0).tobytes(), self.tail))

    def __repr__(self):
        return (
            f"TableSequence(len={len(self._values)}, tail_ratio={self.tail_ratio}, "
            f"poly_degree={self.poly_degree})"
        )


class CallableSequence(WeightSequence):
    """Arbitrary log-weight function; its tail ratio may be hinted.

    ``log_fn`` must accept numpy integer arrays.  One hint may be given: the
    ratio's limit, or bounds on it.  Without one the tail geometry is
    estimated from a ratio window during classification.
    """

    def __init__(self, log_fn, tail_ratio=None, tail_bounds=None):
        if tail_ratio is not None and tail_bounds is not None:
            raise SpecFormatError("hint tail_ratio or tail_bounds, not both")
        name, given, hint = "tail_bounds", tail_bounds, tail_bounds
        if tail_ratio is not None:
            name, given, hint = "tail_ratio", tail_ratio, (tail_ratio, tail_ratio)
        if hint is not None:  # as floats with 0 <= lo <= hi <= inf
            try:
                lo, hi = (float(b) for b in hint)
            except (TypeError, ValueError):
                raise SpecFormatError(f"{name} must be numbers, got {given!r}") from None
            if not 0.0 <= lo <= hi:  # NaN fails every comparison
                raise SpecFormatError(f"{name} must lie in [0, inf], as lo <= hi for a pair, got {given!r}")
            hint = lo, hi
        self._set(_log_fn=log_fn, _hint=hint)

    def log_value(self, n):
        out = np.asarray(self._log_fn(np.asarray(n)), dtype=float)
        if not np.isfinite(out).all():
            raise SpecFormatError("log_fn returned NaN or an infinite value")
        return out


@dataclass(frozen=True)
class ReciprocalSequence(WeightSequence):
    """w(n) = 1 / base(n); used to build dual chains."""

    base: WeightSequence

    def __post_init__(self):
        self._set(tail=self.base.tail and self.base.tail.reciprocal())

    _hint = property(lambda self: self.base._hint and tuple(map(_invert_limit, self.base._hint[::-1])))

    def log_value(self, n):
        return -self.base.log_value(n)

    def reciprocal(self):
        return self.base


def _invert_limit(r):
    return math.inf if r == 0.0 else 1.0 / r  # 1 / inf is 0.0


# ---------------------------------------------------------------------------
# the spec


@dataclass(frozen=True)
class BirthDeathSpec:
    """Immutable description of a birth-death chain.

    Its classification, its weights' tail record, the one table of its
    weights (whose head is its tail function's knots) with its law's sums,
    and its simulator tables are computed on first use and kept on it.
    """

    psi: WeightSequence
    phi: WeightSequence
    lam: float
    mu: float
    cap: int | None = None
    label: str = ""

    def __post_init__(self):
        lam = _positive("lambda", self.lam, SpecFormatError)
        mu = _positive("mu", self.mu, SpecFormatError)
        _positive("rho = lambda / mu", lam / mu, SpecFormatError)
        cap = None if self.cap is None else _integer("cap", self.cap, 1, SpecFormatError)
        for name, value in (("lam", lam), ("mu", mu), ("cap", cap)):
            object.__setattr__(self, name, value)

    @property
    def rho(self) -> float:
        return self.lam / self.mu

    @cached_property
    def _classification(self) -> "Classification":
        return _classify(self)

    @cached_property
    def _law_tables(self) -> "_LawTables":
        """The per-level tables every cycle-maximum law and the tail function of this spec grow."""
        from .distribution import _LawTables  # distribution imports this module

        return _LawTables()

    @cached_property
    def _walk_tables(self) -> dict:
        """The simulator's jump-chain tables for this spec, by top level."""
        return {}

    # log psi(n) rho^n, scaled so the n = 0 term is exactly 1.  Hitting
    # probabilities from state 1 depend on the weights only through
    # psi(n)/psi(0), so this scaling keeps the closed forms exact for
    # arbitrarily scaled tables.
    def log_psi_rho(self, n):
        n = np.asarray(n)
        base = float(self.psi.log_value(0))
        return self.psi.log_value(n) - base + n * math.log(self.rho)

    @cached_property
    def psi_rho_tail(self) -> Tail | None:
        """The record of psihat(n) rho^n, from psi's; None where psi states none."""
        t = self.psi.tail
        return t and replace(t, log_start=float(self.log_psi_rho(t.start)), ratio=t.ratio * self.rho)

    def log_phi_rho(self, n):
        n = np.asarray(n)
        return self.phi.log_value(n) + n * math.log(self.rho)

    def birth_rate(self, n: int) -> float:
        if n < 0:
            raise ValueError("state must be non-negative")
        if self.cap is not None and n >= self.cap:
            raise CapExceededError(f"no birth at state {n} with cap {self.cap}")
        return self.lam * float(np.exp(self.psi.log_value(n) - self.phi.log_value(n)))

    def death_rate(self, n: int) -> float:
        if n < 1:
            raise ValueError("death rate defined for states n >= 1")
        if self.cap is not None and n > self.cap:
            raise CapExceededError(f"state {n} beyond cap {self.cap}")
        return self.mu * float(np.exp(self.psi.log_value(n - 1) - self.phi.log_value(n)))

    def dual(self) -> "BirthDeathSpec":
        """Chain with birth rate mu*phi(n)/psi(n) and death rate lam*phi(n)/psi(n-1).

        Realised by swapping the intensities and taking reciprocal weights; the
        dual of the dual reproduces the original rates exactly.
        """
        return BirthDeathSpec(
            psi=self.psi.reciprocal(),
            phi=self.phi.reciprocal(),
            lam=self.mu,
            mu=self.lam,
            cap=self.cap,
            label=f"dual({self.label})" if self.label else "dual",
        )


def mm1(lam: float, mu: float, cap: int | None = None, label: str | None = None) -> BirthDeathSpec:
    """Single server: psi = phi = 1."""
    if label is None:
        label = f"mm1(lam={lam}, mu={mu})" + (f"/cap{cap}" if cap else "")
    return BirthDeathSpec(OnesSequence(), OnesSequence(), lam, mu, cap=cap, label=label)


def mms(s: int, lam: float, mu: float, cap: int | None = None, label: str | None = None) -> BirthDeathSpec:
    """s parallel servers; service rate min(n, s)*mu."""
    if label is None:
        label = f"mms(s={s}, lam={lam}, mu={mu})" + (f"/cap{cap}" if cap else "")
    return BirthDeathSpec(MultiServerSequence(s), MultiServerSequence(s), lam, mu, cap=cap, label=label)


def mminf(lam: float, mu: float, cap: int | None = None, label: str | None = None) -> BirthDeathSpec:
    """Infinite server pool; service rate n*mu."""
    if label is None:
        label = f"mminf(lam={lam}, mu={mu})" + (f"/cap{cap}" if cap else "")
    return BirthDeathSpec(
        FactorialInverseSequence(), FactorialInverseSequence(), lam, mu, cap=cap, label=label
    )


# ---------------------------------------------------------------------------
# classification


class Verdict(str, Enum):
    POSITIVE_RECURRENT = "PositiveRecurrent"
    NULL_RECURRENT = "NullRecurrent"
    TRANSIENT = "Transient"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class _SeriesJudgement:
    log_value: float
    convergent: bool | None  # None = inconclusive


@dataclass(frozen=True)
class Classification:
    """Recurrence verdict plus the three governing series.

    ``b_phi_inv`` is sum(phi(n) rho^n), ``b_psi_inv`` is sum(psi(n) rho^n) and
    ``b_star_inv`` is sum(1/(psi(n) rho^n)), each read from its log
    ``log_b_*_inv`` and +inf when judged divergent.  The chain is positive
    recurrent iff b_phi_inv is finite and its cycle maximum is
    non-degenerate iff b_star_inv diverges.
    """

    verdict: Verdict
    beta_upper: float
    beta_lower: float
    beta: float | None
    regularity_ok: bool
    log_b_phi_inv: float
    log_b_psi_inv: float
    log_b_star_inv: float
    b_phi_convergent: bool | None = None
    b_psi_convergent: bool | None = None
    b_star_convergent: bool | None = None

    b_phi_inv = property(lambda self: _linear(self.log_b_phi_inv))
    b_psi_inv = property(lambda self: _linear(self.log_b_psi_inv))
    b_star_inv = property(lambda self: _linear(self.log_b_star_inv))
    B_phi = property(lambda self: 1.0 / self.b_phi_inv)
    B_psi = property(lambda self: 1.0 / self.b_psi_inv)
    B_star = property(lambda self: 1.0 / self.b_star_inv)


# the series are summed over 0.._TRUNC and their tails probed on the window
# [_TRUNC/2, _TRUNC]; term ratios within _TOL of 1 are left to the probes
_TRUNC = 10_000
_TOL = 1e-9
# most terms the ratio test sums when the term ratio at _TRUNC is still far
# from its declared limit
_TRUNC_MAX = 8 * _TRUNC


def _tail_geometry(seq: WeightSequence, log_head: np.ndarray):
    """(liminf, limsup, limit-or-None) of w(n+1)/w(n).

    Declared bounds (a record's, or a callable's hint) are used directly;
    otherwise the ratios over the window [_TRUNC/2, _TRUNC] of ``log_head``,
    the log weights on 0.._TRUNC, supply empirical bounds.
    """
    if seq.tail_bounds is not None:
        return *seq.tail_bounds, seq.tail_ratio
    with np.errstate(over="ignore"):
        # an overflowing ratio is a valid (divergent) bound, not an error
        ratios = np.exp(np.diff(log_head[_TRUNC // 2:]))
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    limit = float(np.mean(ratios)) if hi - lo <= 1e-9 * max(1.0, abs(hi)) else None
    return lo, hi, limit


def _power_fit(n: np.ndarray, log_t: np.ndarray):
    """Fit log_t ~ log_alpha + p*log n; returns (p, log_alpha, max residual)."""
    x = np.log(n.astype(float))
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, log_t, rcond=None)
    resid = float(np.max(np.abs(design @ coef - log_t)))
    return float(coef[0]), float(coef[1]), resid


_P_MARGIN = 1e-2
_FIT_RESID_TOL = 1e-3


# exp rounds every value below it to 0.0: the least subnormal is e^-744.44
_EXP_UNDERFLOW = -746.0
# exp is finite up to it: log of the largest double
_EXP_OVERFLOW = math.log(sys.float_info.max)


def _linear(log_value):
    """exp(log_value), a float for a scalar and an array for an array; inf
    past the float range, without an overflow warning.

    Array lanes below _EXP_UNDERFLOW are left exact zeros, not computed:
    numpy's exp takes a slow path for each result that underflows.  Where no
    lane is that low it is the plain np.exp; either way the bits are exp's.
    """
    if np.ndim(log_value) == 0:
        if log_value <= _EXP_OVERFLOW:  # cannot overflow: errstate would cost more than the exp
            return float(np.exp(log_value))
        with np.errstate(over="ignore"):
            return float(np.exp(log_value))
    with np.errstate(over="ignore"):
        log_value = np.asarray(log_value, dtype=float)
        if not log_value.size or log_value.min() >= _EXP_UNDERFLOW:
            return np.exp(log_value)
        # NaN lanes are computed, as by np.exp
        return np.exp(log_value, out=np.zeros_like(log_value), where=~(log_value < _EXP_UNDERFLOW))


def _ratio_test_total(log_term_fn, log_t: np.ndarray, log_partial: float, q: float):
    """log of the series sum, its tail past the last term closed with ratio q < 1.

    log_t holds the log terms for n = 0..N and log_partial their log-sum.
    The closed tail is exact once the term ratio has come down to q.  While
    the terms still fall by only r > q per step, it can miss up to
    t_N (r - q) / ((1 - r)(1 - q)); the sum then runs on, doubling its
    length up to _TRUNC_MAX terms, until that is below _TOL of the total.
    Terms that still rise at the end run on the same way.
    """
    n_end = log_t.size - 1
    while True:
        log_step = log_t[-1] - log_t[-2]
        if log_step < 0.0:
            log_tail = log_t[-1] + math.log(q) - math.log1p(-q) if q > 0.0 else -math.inf
            log_total = np.logaddexp(log_partial, log_tail)
            r = math.exp(log_step)
            if r <= q:
                return log_total
            log_miss = log_t[-1] + math.log(r - q) - math.log(-math.expm1(log_step)) - math.log1p(-q)
            if log_miss <= log_total + math.log(_TOL):
                return log_total
        if n_end >= _TRUNC_MAX:
            trend = (
                f"terms still rise at n = {n_end}"
                if log_step >= 0.0
                else f"term ratio at n = {n_end} is {r!r}, not yet near its limit {q!r}"
            )
            raise NotApplicableError(f"series {trend}; the truncated sum is not the series")
        log_t = np.asarray(log_term_fn(np.arange(n_end, 2 * n_end + 1)), dtype=float)
        log_partial = np.logaddexp(log_partial, logsumexp(log_t[1:]))
        n_end *= 2


def _judge_series(log_t: np.ndarray, log_term_fn, q_lo: float, q_hi: float, tail=None) -> _SeriesJudgement:
    """Decide convergence of sum(t_n) with term-ratio bounds [q_lo, q_hi].

    ``log_t`` holds the log terms for n = 0.._TRUNC; ``log_term_fn`` gives
    them past _TRUNC.  Terms that their ``tail`` record makes geometric from
    a start within log_t are their head closed there by the geometric series;
    else the ratio test, which may extend the sum, comes first; near the
    boundary a record without a factorial decides by its degree (convergent,
    to the head's sum, below -1), else a power-law probe of the terms over
    [_TRUNC/2, _TRUNC]; as a last resort, non-decreasing terms with partial
    sums past 1/_TOL are called divergent.
    """
    if q_hi < 1.0 - _TOL and tail is not None and not (tail.degree or tail.factorial) and tail.start < log_t.size:
        log_close = log_t[tail.start] + math.log(q_hi) - math.log1p(-q_hi)
        return _SeriesJudgement(logsumexp(np.append(log_t[: tail.start + 1], log_close)), True)
    if q_hi < 1.0 - _TOL:
        return _SeriesJudgement(float(_ratio_test_total(log_term_fn, log_t, logsumexp(log_t), q_hi)), True)
    if q_lo > 1.0 + _TOL:
        return _SeriesJudgement(math.inf, False)

    log_partial = logsumexp(log_t)
    if tail is not None and not tail.factorial:
        return _SeriesJudgement(log_partial, True) if tail.degree < -1 else _SeriesJudgement(math.inf, False)
    win = np.arange(_TRUNC // 2, _TRUNC + 1)
    p, _, resid = _power_fit(win, log_t[win])
    if resid < _FIT_RESID_TOL:
        if p < -1.0 - _P_MARGIN:
            return _SeriesJudgement(log_partial, True)
        if p > -1.0 + _P_MARGIN:
            return _SeriesJudgement(math.inf, False)

    if log_partial > -math.log(_TOL) and np.all(np.diff(log_t[win]) >= -1e-12):
        return _SeriesJudgement(math.inf, False)
    return _SeriesJudgement(log_partial, None)


def classify(spec: BirthDeathSpec) -> Classification:
    """Recurrence classification via the three governing series.

    Computed on the first call for a spec object and cached on it; a call
    that raises caches nothing.
    """
    return spec._classification


def _classify(spec: BirthDeathSpec) -> Classification:
    """The series tests behind ``classify``; run once per spec object.

    Each weight sequence is evaluated once, on 0.._TRUNC or on 0..cap, and
    phi not at all when it equals psi; every series head is built from
    those evaluations.  On a finite state space every series is a finite
    sum and the chain is ergodic.
    """
    rho = spec.rho
    log_rho = math.log(rho)
    top = _TRUNC if spec.cap is None else _check_levels("cap", spec.cap)
    idx = np.arange(top + 1)
    same = spec.phi == spec.psi
    log_phi = np.asarray(spec.phi.log_value(idx), dtype=float)
    log_psi = log_phi if same else np.asarray(spec.psi.log_value(idx), dtype=float)
    psi_head = log_psi + idx * log_rho
    phi_head = psi_head if same else log_phi + idx * log_rho

    if spec.cap is not None:
        b_lo = b_hi = beta = 0.0
        s_phi, s_psi, s_star = (_SeriesJudgement(logsumexp(h), True) for h in (phi_head, psi_head, -psi_head))
        regularity_ok = True
    else:
        b_lo, b_hi, beta = _tail_geometry(spec.psi, log_psi)
        p_lo, p_hi, _ = _tail_geometry(spec.phi, log_phi)

        def psi_terms(n):
            return spec.psi.log_value(n) + n * log_rho

        # judged in the order phi, psi, star, so a spec that fails raises as before
        if not same:
            s_phi = _judge_series(phi_head, spec.log_phi_rho, p_lo * rho, p_hi * rho, spec.phi.tail)
        s_psi = _judge_series(psi_head, psi_terms, b_lo * rho, b_hi * rho, spec.psi.tail)
        if same:
            s_phi = s_psi
        star_tail = spec.psi.tail and spec.psi.tail.reciprocal()
        s_star = _judge_series(
            -psi_head, lambda n: -psi_terms(n), _invert_limit(b_hi * rho), _invert_limit(b_lo * rho), star_tail
        )
        regularity_ok = _regularity(spec, log_psi, log_phi, b_lo)

    if s_phi.convergent is True:
        verdict = Verdict.POSITIVE_RECURRENT
    elif s_star.convergent is True:
        verdict = Verdict.TRANSIENT
    elif s_phi.convergent is False and s_star.convergent is False:
        verdict = Verdict.NULL_RECURRENT
    else:
        verdict = Verdict.UNDETERMINED

    return Classification(
        verdict=verdict,
        beta_upper=b_hi,
        beta_lower=b_lo,
        beta=beta,
        regularity_ok=regularity_ok,
        log_b_phi_inv=s_phi.log_value,
        log_b_psi_inv=s_psi.log_value,
        log_b_star_inv=s_star.log_value,
        b_phi_convergent=s_phi.convergent,
        b_psi_convergent=s_psi.convergent,
        b_star_convergent=s_star.convergent,
    )


def _regularity(spec: BirthDeathSpec, log_psi: np.ndarray, log_phi: np.ndarray, b_lo: float) -> bool:
    """Heuristic divergence check of sum phi(n)/(psi(n) + psi(n-1)).

    ``log_psi`` and ``log_phi`` are the log weights on 0.._TRUNC and b_lo
    the lower bound of psi's tail ratio.
    Divergence rules out explosion; treated as diagnostic only, so the series
    is flagged non-regular only when conclusively convergent.  With phi = psi
    the terms are 1/(1 + psi(n-1)/psi(n)), not summed: a record keeps the
    ratio bounded, or growing like n for one factorial, so they diverge
    unless its factorial is above 1; a hinted lower ratio bound b_lo > 0
    keeps them at or above b_lo/(1 + b_lo) in the tail.
    """
    if spec.phi == spec.psi and spec.psi.tail is not None:
        return spec.psi.tail.factorial <= 1
    if spec.phi == spec.psi and spec.psi.tail_bounds is not None and b_lo > 0.0:
        return True

    def u_terms(idx):
        idx = np.maximum(idx, 1)  # the n = 0 term is irrelevant for divergence
        denom = np.logaddexp(spec.psi.log_value(idx), spec.psi.log_value(idx - 1))
        return spec.phi.log_value(idx) - denom

    m = np.maximum(np.arange(_TRUNC + 1), 1)
    log_u = log_phi[m] - np.logaddexp(log_psi[m], log_psi[m - 1])
    ratios = np.exp(np.diff(log_u[_TRUNC // 2:_TRUNC]))
    q_lo = float(np.min(ratios))
    q_hi = float(np.max(ratios))
    # a window extremum only bounds the tail ratio when the ratios are not
    # drifting across it; slowly varying terms (ratio -> 1, e.g. harmonic)
    # must fall through to the power-law probe instead of the ratio test
    drift = float(ratios[-1] - ratios[0])
    if drift > 1e-12:
        q_hi = max(q_hi, 1.0)
    elif drift < -1e-12:
        q_lo = min(q_lo, 1.0)
    judgement = _judge_series(log_u, u_terms, q_lo, q_hi)
    return judgement.convergent is not True


# ---------------------------------------------------------------------------
# stationary laws


def stationary_distribution(spec: BirthDeathSpec, n_max: int) -> np.ndarray:
    """P(X = n) for n = 0..n_max under the phi-weighted stationary law."""
    cls = classify(spec)
    if cls.verdict is not Verdict.POSITIVE_RECURRENT:
        raise NotPositiveRecurrentError(f"verdict is {cls.verdict.value}")
    return _level_law(spec, n_max, spec.log_phi_rho, cls.log_b_phi_inv)


def palm_distribution(spec: BirthDeathSpec, n_max: int) -> np.ndarray:
    """The psi-weighted companion law, defined when sum(psi(n) rho^n) is finite."""
    cls = classify(spec)
    if cls.b_psi_convergent is not True:
        raise PalmUndefinedError("sum(psi(n) rho^n) does not converge")
    log_rho = math.log(spec.rho)
    return _level_law(spec, n_max, lambda idx: spec.psi.log_value(idx) + idx * log_rho, cls.log_b_psi_inv)


def _level_law(spec: BirthDeathSpec, n_max: int, log_terms, log_total: float) -> np.ndarray:
    """exp(log_terms(n) - log_total) for n = 0..n_max; states beyond the cap carry no mass."""
    _check_levels("n_max", n_max)
    hi = n_max if spec.cap is None else min(n_max, spec.cap)
    pi = _linear(log_terms(np.arange(hi + 1)) - log_total)
    if hi < n_max:
        pi = np.concatenate([pi, np.zeros(n_max - hi)])
    return pi


# ---------------------------------------------------------------------------
# file format


_PRESETS = {"mm1", "mms", "mminf"}


def _sequence_from_dict(d: dict, where: str) -> WeightSequence:
    if not isinstance(d, dict) or "kind" not in d:
        raise SpecFormatError(f"{where}: expected an object with a 'kind' field")
    kind = d["kind"]
    if kind == "preset":
        name = d.get("name")
        if name not in _PRESETS:
            raise SpecFormatError(f"{where}: unknown preset {name!r}")
        if name == "mm1":
            return OnesSequence()
        if name == "mminf":
            return FactorialInverseSequence()
        if "s" not in d:
            raise SpecFormatError(f"{where}: preset 'mms' needs a server count 's'")
        return MultiServerSequence(d["s"])
    if kind == "table":
        try:
            return TableSequence(d["values"], d["tail_ratio"], d.get("poly_degree", 0))
        except KeyError as exc:
            raise SpecFormatError(f"{where}: table needs {exc.args[0]!r}") from None
    raise SpecFormatError(f"{where}: unknown kind {kind!r}")


def _require_number(d: dict, key: str, where: str) -> float:
    if key not in d:
        raise SpecFormatError(f"{where}: missing field {key!r}")
    return _positive(f"{where}: field {key!r}", d[key], SpecFormatError)


def spec_from_dict(d: dict) -> BirthDeathSpec:
    if not isinstance(d, dict):
        raise SpecFormatError("spec must be a JSON object")
    lam = _require_number(d, "lambda", "spec")
    mu = _require_number(d, "mu", "spec")
    cap = d.get("cap")
    label = d.get("label", "")
    if not isinstance(label, str):
        raise SpecFormatError("spec: label must be a string")
    psi = _sequence_from_dict(d.get("psi"), "psi")
    phi = _sequence_from_dict(d.get("phi"), "phi")
    return BirthDeathSpec(psi=psi, phi=phi, lam=lam, mu=mu, cap=cap, label=label)


def spec_to_dict(spec: BirthDeathSpec) -> dict:
    return {
        "label": spec.label,
        "lambda": spec.lam,
        "mu": spec.mu,
        "cap": spec.cap,
        "psi": spec.psi.to_json(),
        "phi": spec.phi.to_json(),
    }


def _load_json(path, what: str):
    """Parse a JSON file; non-finite constants and syntax errors raise SpecFormatError."""

    def reject_constant(s: str):
        raise SpecFormatError(f"non-finite number {s!r} not permitted in {what} files")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=reject_constant)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"{path}: {exc}") from None


def _save_json(doc: dict, path) -> None:
    """Write doc as indented JSON ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_spec(path) -> BirthDeathSpec:
    return spec_from_dict(_load_json(path, "spec"))


def save_spec(spec: BirthDeathSpec, path) -> None:
    _save_json(spec_to_dict(spec), path)
