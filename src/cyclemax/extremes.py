"""Extremes of repeated cycle maxima.

The sample maximum over k cycles concentrates where the tail weight
psi(n) rho^n crosses 1/k.  A continuous decreasing interpolation f of that
weight gives thresholds and norming constants; the Gumbel law exp(-e^-x)
brackets the limit from above, with a matching lower envelope whenever the
weight ratio has a positive lower limit.  Laws conditioned on a finite
maximum come from ``CycleMaxDistribution.log_tail_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bdp import (
    BirthDeathSpec,
    Tail,
    _MAX_LEVELS,
    _integer,
    _linear,
    _positive,
    classify,
)
from .distribution import TailRegime, _as_dist, _require_uncapped, _tail_regime
from .errors import (
    KindMismatchError,
    NoMonotoneTailError,
    NotApplicableError,
    NotSubcriticalError,
    OutOfRangeError,
)

__all__ = [
    "TailFunction",
    "build_tail_function",
    "invert_tail",
    "GumbelBounds",
    "gumbel_bounds",
    "NormingKind",
    "NormingConstants",
    "norming_constants",
    "default_norming_kind",
    "as_limit_constant",
    "stirling_tail",
    "lambert_w",
    "CompactnessReport",
    "compactness_diagnostic",
    "partial_limit_envelope",
]


# knots the first build of a spec's tail function takes
_TAIL_KNOTS = 400


@dataclass(frozen=True, eq=False)
class TailFunction:
    """Continuous decreasing version of n -> psi(n) rho^n, a view of its spec's knots.

    Knots are the weights at integers (scaled so the 0th is 1), joined by
    straight lines from y0 on; y0 is the first index after which the knots
    strictly decrease.  Before y0 the function is the slope -1 line
    f(y) = y0 - y + g(y0), which keeps f strictly decreasing on [0, inf).
    Knots are held in log form so factorially small tails stay usable.  A
    call past the last knot doubles them, to level _MAX_LEVELS at most.
    """

    spec: BirthDeathSpec
    log_knots = property(lambda self: self.spec._tail_knots.log_knots)
    y0 = property(lambda self: self.spec._tail_knots.y0)
    n_max = property(lambda self: len(self.log_knots) - 1)

    def _reach(self, short) -> bool:
        """Double the knots while short(log_knots) holds; False past level _MAX_LEVELS, and
        NoMonotoneTailError unless each new knot falls strictly.  Kept only on success."""
        held = self.spec._tail_knots
        log_g = held.log_knots
        while short(log_g):
            n = len(log_g) - 1
            if n == _MAX_LEVELS:
                return False
            new = self.spec.log_psi_rho(np.arange(n + 1, min(2 * n, _MAX_LEVELS) + 1))
            rise = np.flatnonzero(np.diff(new, prepend=log_g[-1]) >= 0.0)
            if len(rise):
                raise NoMonotoneTailError(f"psi(n) rho^n rises at level {n + 1 + rise[0]}, past y0 = {held.y0}")
            log_g = np.concatenate([log_g, new])
        log_g.flags.writeable = False
        held.log_knots = log_g
        return True

    def value(self, y: float) -> float:
        """f(y); defined for 0 <= y <= _MAX_LEVELS."""
        if not (0.0 <= y <= _MAX_LEVELS and self._reach(lambda log_g: len(log_g) - 1 < y)):
            raise OutOfRangeError(f"y={y} outside [0, {_MAX_LEVELS}]")
        if y <= self.y0:
            return self.y0 - y + math.exp(self.log_knots[self.y0])
        n = min(int(math.floor(y)), self.n_max - 1)
        t = y - n
        return (1.0 - t) * math.exp(self.log_knots[n]) + t * math.exp(self.log_knots[n + 1])

    __call__ = value


def build_tail_function(spec: BirthDeathSpec) -> TailFunction:
    """Interpolate psi(n) rho^n into a strictly decreasing f.

    Requires a subcritical upper ratio so that a decreasing tail exists at
    all.  The first build of a spec takes _TAIL_KNOTS knots and doubles them, to
    level _MAX_LEVELS at most, while they end without a strictly decreasing run,
    which fixes y0.  The spec keeps the knots; a build that raises keeps none.
    """
    held = spec._tail_knots
    if len(held.log_knots):
        return TailFunction(spec)
    _require_uncapped(spec)
    cls = classify(spec)
    if not cls.beta_upper * spec.rho < 1.0:
        raise NotSubcriticalError(f"upper tail ratio {cls.beta_upper} * rho {spec.rho} is not below 1")
    n = _TAIL_KNOTS
    log_g = np.asarray(spec.log_psi_rho(np.arange(n + 1)), dtype=float)
    while log_g[-1] >= log_g[-2]:  # no strictly decreasing run at the end
        if n == _MAX_LEVELS:
            raise NoMonotoneTailError(f"no strictly decreasing tail within {n} knots")
        n = min(2 * n, _MAX_LEVELS)
        log_g = np.asarray(spec.log_psi_rho(np.arange(n + 1)), dtype=float)
    rising = np.nonzero(np.diff(log_g) >= 0.0)[0]
    log_g.flags.writeable = False
    held.log_knots, held.y0 = log_g, int(rising[-1]) + 1 if len(rising) else 0
    return TailFunction(spec)


def invert_tail(f: TailFunction, v: float) -> float:
    """The unique y with f(y) = v, the root of the chord between two knots.

    The knot bracket is found in log space and the chord is scaled by its
    upper knot, so targets far below double-precision underflow of the raw
    weights, and head knots past the float range, still invert cleanly.  The
    knots double until one lies below v; past level _MAX_LEVELS, OutOfRangeError.
    """
    if not (v > 0.0 and math.isfinite(v)):
        raise OutOfRangeError(f"target {v} must be a positive real")
    log_v = math.log(v)
    log_g0 = float(f.log_knots[f.y0])
    if log_v >= log_g0:
        y = f.y0 + math.exp(log_g0) - v
        if y < 0.0:
            raise OutOfRangeError(f"target {v} exceeds f(0)")
        return y
    if not f._reach(lambda log_g: log_v < log_g[-1]):
        raise OutOfRangeError(f"the root of target {v} lies beyond the {_MAX_LEVELS} levels a table may hold")
    log_knots = f.log_knots
    # log knots decrease strictly from y0; searchsorted over the negated tail
    tail = -log_knots[f.y0:]
    n = f.y0 + int(np.searchsorted(tail, -log_v, side="right")) - 1
    n = min(max(n, f.y0), len(log_knots) - 2)
    # on [n, n + 1], f / g(n) = (1 - t) + t r with r = g(n + 1) / g(n) in (0, 1),
    # so t = (1 - v / g(n)) / (1 - r), each difference taken by expm1
    shift = float(log_knots[n])
    t = math.expm1(log_v - shift) / math.expm1(float(log_knots[n + 1]) - shift)
    return n + min(max(t, 0.0), 1.0)


@dataclass(frozen=True)
class GumbelBounds:
    """Asymptotic envelope for P(sample max <= threshold) at a given x.

    ``upper`` = exp(-e^-x) holds at threshold ``y_upper``; ``lower`` holds
    at ``y_lower``.  With a positive lower ratio the lower bound is the
    sharp exp(-e^-x / (beta_lower rho)) at the unshifted threshold;
    otherwise it falls back to exp(-e^-x) at the threshold shifted by +1.
    When the ratio limit exists the thresholds coincide and the pair is the
    plain envelope [exp(-(beta rho)^-1 e^-x), exp(-e^-x)].
    """

    x: float
    k: int
    lower: float
    upper: float
    y_lower: float
    y_upper: float


def gumbel_bounds(spec: BirthDeathSpec, x: float, k: int) -> GumbelBounds:
    """Envelope thresholds and values for P(Y^(k) <= y) at Gumbel coordinate x;
    an x whose threshold leaves the tail (NaN, or below about -709) raises OutOfRangeError."""
    k = _integer("k", k, 1)
    cls = classify(spec)
    f = build_tail_function(spec)  # raises NotSubcriticalError unless beta_upper * rho < 1
    q_lo = cls.beta_lower * spec.rho
    q_hi = cls.beta_upper * spec.rho
    ex = _linear(-x)
    y_upper = invert_tail(f, ex / ((1.0 - q_hi) * k))
    upper = math.exp(-ex)
    if q_lo > 0.0:
        y_lower = invert_tail(f, ex / ((1.0 - q_lo) * k))
        lower = math.exp(-ex / q_lo)
    else:
        y_lower = invert_tail(f, ex / k) + 1.0
        lower = math.exp(-ex)
    return GumbelBounds(x=x, k=k, lower=lower, upper=upper, y_lower=y_lower, y_upper=y_upper)


# ---------------------------------------------------------------------------
# norming constants


class NormingKind(str, Enum):
    GEOMETRIC = "Geometric"
    STIRLING_FACTORIAL = "StirlingFactorial"
    LAMBERT_W = "LambertW"
    NUMERIC = "Numeric"


@dataclass(frozen=True)
class NormingConstants:
    kind: NormingKind
    k: tuple[int, ...]
    a: tuple[float, ...]
    b: tuple[float, ...]

    def rows(self):
        """(k, a_k, b_k) triples in input order."""
        return list(zip(self.k, self.a, self.b))


def stirling_tail(x: float, rho: float) -> float:
    """(2 pi)^-1/2 (rho e)^x x^(-x-1/2), the factorial-family tail shape."""
    x, rho = _positive("x", x, OutOfRangeError), _positive("rho", rho)
    return math.exp(_log_stirling_tail(x, rho))


def _log_stirling_tail(x: float, rho: float) -> float:
    return x * (1.0 + math.log(rho)) - (x + 0.5) * math.log(x) - 0.5 * math.log(2.0 * math.pi)


def _invert_stirling(v: float, rho: float) -> float:
    """Solve stirling_tail(x) = v on the decreasing branch x >= rho."""
    log_v = math.log(v)
    lo = max(rho, 1.0)
    if _log_stirling_tail(lo, rho) < log_v:
        raise OutOfRangeError(f"target {v} above the decreasing branch at x={lo}")
    hi = 2.0 * lo
    while _log_stirling_tail(hi, rho) > log_v:
        hi *= 2.0
    while hi - lo > 1e-10 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if _log_stirling_tail(mid, rho) >= log_v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambert_w(z: float, branch: int = 0) -> float:
    """Real Lambert W via Halley iteration: w e^w = z, to 1e-12 relative.

    branch 0 is the principal solution for z >= -1/e; branch -1 is the
    lower solution for -1/e <= z < 0 (the one that diverges as z -> 0-).
    """
    if branch not in (0, -1):
        raise ValueError("only the real branches 0 and -1 are supported")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    if z < -1.0 / math.e - 1e-300:
        raise OutOfRangeError(f"no real W for z={z}")
    if branch == -1 and z >= 0.0:
        raise OutOfRangeError("branch -1 requires z in [-1/e, 0)")
    if z == 0.0:
        return 0.0
    if branch == 0:
        w = math.log1p(z) if z > -0.3 else -0.5
    else:
        lz = math.log(-z)
        w = lz - math.log(-lz) if z > -0.25 else -2.0
    for _ in range(200):
        ew = math.exp(w)
        g = w * ew - z
        step = g / (ew * (w + 1.0) - (w + 2.0) * g / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-12 * (1.0 + abs(w)):
            return w
    raise ArithmeticError(f"Halley iteration stalled at w={w} for z={z}")


def _lambert_tail(spec: BirthDeathSpec) -> Tail | None:
    """The record of psihat(n) rho^n if it reads amp n^m q^n with m >= 1 and 0 < q < 1, else None."""
    tail = spec.psi_rho_tail
    return tail if tail is not None and not tail.factorial and tail.degree >= 1 and 0.0 < tail.ratio < 1.0 else None


def norming_constants(spec: BirthDeathSpec, kind: NormingKind | str, k_list) -> NormingConstants:
    """Sequences a_k, b_k matching the tail function of the given spec.

    Geometric needs a subcritical tail (``_tail_regime``) with beta > 0;
    StirlingFactorial needs beta = 0 (factorial family) and inverts the
    closed-form Stirling tail; Numeric inverts the interpolated tail
    function directly, whose knots grow as deep as the largest k needs
    (to level _MAX_LEVELS), and fits a_k by least squares; LambertW handles
    weights with a polynomial-times-geometric tail, inverting
    y^m q^y = v on the lower real branch which is the root that grows
    with k.
    """
    kind = NormingKind(kind)
    ks = [_integer("k", k, 2) for k in k_list]
    regime = _tail_regime(spec)
    cls = classify(spec)
    rho = spec.rho
    a: list[float] = []
    b: list[float] = []

    if kind is NormingKind.GEOMETRIC:
        q = None if cls.beta is None else cls.beta * rho
        if regime is not TailRegime.SUBCRITICAL or q == 0.0:
            raise KindMismatchError(f"Geometric norming needs a subcritical beta*rho above 0, got {q}")
        a_const = 1.0 / math.log(1.0 / q)
        for k in ks:
            a.append(a_const)
            b.append(math.log(k) / math.log(1.0 / q))

    elif kind is NormingKind.STIRLING_FACTORIAL:
        if cls.beta != 0.0:
            raise KindMismatchError("StirlingFactorial norming needs beta = 0")
        for k in ks:
            bk = _invert_stirling(1.0 / k, rho)
            b.append(bk)
            a.append(1.0 / (math.log(bk) + 1.0 / (2.0 * bk) - math.log(rho)))

    elif kind is NormingKind.NUMERIC:
        f = build_tail_function(spec)
        grid = np.linspace(-2.0, 5.0, 29)
        design = np.column_stack([grid, np.ones_like(grid)])
        for k in ks:
            ys = np.array([invert_tail(f, math.exp(-y) / k) for y in grid])
            coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
            a.append(float(coef[0]))
            b.append(invert_tail(f, 1.0 / k))

    else:  # LambertW
        tail = _lambert_tail(spec)
        if tail is None:
            raise KindMismatchError("needs a weight whose record is n^m q^n with m >= 1 and 0 < q < 1")
        q, m, log_amp = tail.ratio, tail.degree, tail.log_amp
        log_q = math.log(q)
        for k in ks:
            # solve y^m q^y = exp(-log_amp)/k for its large root
            c = log_q / m
            w_arg = c * math.exp(-(log_amp + math.log(k)) / m)
            bk = lambert_w(w_arg, branch=-1) / c
            b.append(bk)
            a.append(1.0 / (math.log(1.0 / q) - m / bk))

    return NormingConstants(kind=kind, k=tuple(ks), a=tuple(a), b=tuple(b))


def default_norming_kind(spec: BirthDeathSpec) -> NormingKind:
    """Pick the norming recipe the spec's tail geometry supports.

    It reads psi's record: a polynomially corrected geometric tail inverts
    through Lambert W, and 1/n! alone through the Stirling tail; other
    subcritical tails with beta > 0 take the geometric closed form; anything
    else, a critical tail (``_tail_regime``) included, falls back to the
    interpolated numeric fit.
    """
    if _lambert_tail(spec) is not None:
        return NormingKind.LAMBERT_W
    if classify(spec).beta == 0.0:
        return NormingKind.STIRLING_FACTORIAL if spec.psi.tail == Tail(0, 0.0, factorial=1) else NormingKind.NUMERIC
    if _tail_regime(spec) is TailRegime.SUBCRITICAL:
        return NormingKind.GEOMETRIC
    return NormingKind.NUMERIC


def as_limit_constant(spec: BirthDeathSpec, k: int | None = None):
    """Normaliser for the strong law Y^(k) / b_k -> 1.

    With a subcritical tail (``_tail_regime``) and beta > 0: returns the
    slope 1/log(1/(beta rho)) (so b_k = slope * log k), or b_k itself when k
    is given.  For beta = 0 b_k needs k: the Stirling tail is inverted for
    psi = 1/n!, and the Numeric b_k taken for any other weight.  When only
    distinct lower/upper ratio bounds exist the bracket pair is returned
    instead of a single value.  Critical and supercritical tails raise, and
    so does a k below 2.
    """
    k = k if k is None else _integer("k", k, 2)
    regime = _tail_regime(spec)
    cls = classify(spec)
    rho = spec.rho
    if regime is TailRegime.SUBCRITICAL and cls.beta > 0.0:
        slope = 1.0 / math.log(1.0 / (cls.beta * rho))
        return slope if k is None else slope * math.log(k)
    if regime is TailRegime.SUBCRITICAL:
        if k is None:
            raise ValueError("factorial-family normaliser needs an explicit k")
        if spec.psi.tail == Tail(0, 0.0, factorial=1):
            return _invert_stirling(1.0 / k, rho)
        return invert_tail(build_tail_function(spec), 1.0 / k)
    if regime is TailRegime.NO_LIMIT and 0.0 < cls.beta_lower and cls.beta_upper * rho < 1.0:
        lo = 1.0 / math.log(1.0 / (cls.beta_lower * rho))
        hi = 1.0 / math.log(1.0 / (cls.beta_upper * rho))
        if k is None:
            return (lo, hi)
        return (lo * math.log(k), hi * math.log(k))
    raise NotApplicableError("no almost-sure normaliser for this tail geometry")


# ---------------------------------------------------------------------------
# stochastic compactness


@dataclass(frozen=True, kw_only=True)
class CompactnessReport:
    """Grid evaluation of the compactness ratio R(x) or its failure mode.

    R(x) compares the delta-power integral of the survival function with its
    (delta-1)-power integral; staying inside (0, 1) along the grid is the
    numerical counterpart of the sufficient conditions for compactness.
    For factorial tails (beta = 0 or inf) the hazard ratio diverges instead
    and the law is not compact; transient chains are diagnosed on the law
    conditioned on a finite maximum, read from the law's tail margin.
    """

    delta: float
    grid: tuple[float, ...]
    r_values: tuple[float, ...] | None = None
    r_min: float | None = None
    r_max: float | None = None
    hazard_ratios: tuple[float, ...] | None = None
    verdict: str
    conditional: bool = False
    epsilon_range: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "grid": list(self.grid),
            "R_min": self.r_min,
            "R_max": self.r_max,
            "verdict": self.verdict,
            "conditional": self.conditional,
            "epsilon_range": list(self.epsilon_range) if self.epsilon_range else None,
        }


# tail levels at which compactness_diagnostic evaluates R(x)
_GRID_LEVELS = np.arange(10, 41, 5)
_COMPACTNESS_GRID = tuple(float(x) for x in _GRID_LEVELS)
# row i: the levels x + 1 .. x', from grid point x = _GRID_LEVELS[i] to the next x'
_GRID_STEPS = _GRID_LEVELS[:-1, None] + np.arange(1, 6)


def _step_integrals(scaled: np.ndarray, steps: np.ndarray, power: float, tail_q: float) -> list:
    """integral_x^inf of (S / S(x))^power for the step survival S, at each x of _COMPACTNESS_GRID.

    ``scaled`` holds S(m) / S(x) for the last point x and each m past it to
    the end of the table, which is closed with a geometric bound at ratio
    tail_q (valid for subcritical tails); row i of ``steps`` holds it for
    grid point i and the five levels up to the next.  The last point sums
    its terms; each earlier one sums its five and adds the next point's sum
    scaled by the last of them, so one pass serves the grid.
    """
    terms = scaled**power
    qd = tail_q**power
    past = float(np.sum(terms)) + (float(terms[-1]) * qd / (1.0 - qd) if 0.0 < qd < 1.0 else 0.0)
    rows = steps**power
    out = [past]
    for body, scale in zip(rows.sum(axis=1).tolist()[::-1], rows[::-1, -1].tolist()):
        out.append(body + scale * out[-1])
    return [1.0 + v for v in out[::-1]]


def compactness_diagnostic(spec: BirthDeathSpec, delta: float = 2.0) -> CompactnessReport:
    """Evaluate the compactness conditions on _COMPACTNESS_GRID.

    A critical tail (``_tail_regime``) is Undetermined at once.  The
    conditional law of a transient chain raises NotApplicableError within
    about 6e-5 of critical, where its tail margin's window is full.
    """
    if not _positive("delta", delta) > 1.0:
        raise ValueError(f"delta must exceed 1, got {delta!r}")
    grid = _COMPACTNESS_GRID
    regime = _tail_regime(spec)
    cls = classify(spec)
    rho = spec.rho
    dist = _as_dist(spec)
    top = int(grid[-1])

    conditional = regime is TailRegime.SUPERCRITICAL
    log_survival = dist._log_conditional_survival if conditional else dist.log_survival
    if cls.beta in (0.0, math.inf):
        # psi(n) rho^n falls or grows factorially: hazard ratio diverges, law is not compact
        pts = np.arange(int(grid[0]), top + 1)
        ratios = np.exp(-np.diff(log_survival(np.arange(int(grid[0]) - 1, top + 1))))
        return CompactnessReport(
            delta=delta,
            grid=tuple(float(p) for p in pts),
            hazard_ratios=tuple(float(r) for r in ratios),
            verdict="NotCompact",
            conditional=conditional,
        )
    if regime is TailRegime.CRITICAL:
        return CompactnessReport(delta=delta, grid=grid, verdict="Undetermined")

    if conditional:
        tail_q = 1.0 / (cls.beta * rho)
        eps = (-math.log(cls.beta * rho), 0.0)
    else:
        tail_q = cls.beta_upper * rho
        if not tail_q < 1.0:
            return CompactnessReport(delta=delta, grid=grid, verdict="Undetermined")
        eps = (math.log(cls.beta * rho), 0.0) if cls.beta is not None else None
    log_surv = log_survival(np.arange(top + 601))
    # S / S(x) as a difference of logs, so it is at most 1, and neither a
    # survival that underflows nor a large delta can turn R into 0 / 0
    scaled = _linear(log_surv[top + 1 :] - log_surv[top])
    steps = _linear(log_surv[_GRID_STEPS] - log_surv[_GRID_LEVELS[:-1, None]])

    # R = int S^delta / (S(x) int S^(delta-1)): scaling S by 1 / S(x) leaves it as it is
    r_vals = [
        num / den
        for num, den in zip(
            _step_integrals(scaled, steps, delta, tail_q), _step_integrals(scaled, steps, delta - 1.0, tail_q)
        )
    ]
    r_min, r_max = min(r_vals), max(r_vals)
    return CompactnessReport(
        delta=delta,
        grid=grid,
        r_values=tuple(r_vals),
        r_min=r_min,
        r_max=r_max,
        verdict="Compact" if 0.0 < r_min and r_max < 1.0 else "Undetermined",
        conditional=conditional,
        epsilon_range=eps,
    )


def partial_limit_envelope(spec: BirthDeathSpec, x: float) -> tuple[float, float]:
    """Range of the shifted-Gumbel partial limits at coordinate x.

    Recurrent subcritical: G values at shifts log(beta rho) and 0; transient
    (conditioned on a finite maximum): shifts -log(beta rho) and 0.  Returned
    ordered as (lower, upper).  The regime is ``_tail_regime``'s.  An x below
    about -709, where e^-x passes the float range, gets the pair's limit (0, 0).
    """
    if math.isnan(x):
        raise ValueError("x must be a number, got nan")
    regime = _tail_regime(spec)
    beta = classify(spec).beta
    if regime is TailRegime.NO_LIMIT or beta == 0.0:
        raise NotApplicableError("needs an existing positive ratio limit")
    if regime is TailRegime.CRITICAL:
        raise NotApplicableError("critical tail: envelope degenerates")
    q = beta * spec.rho
    ex = _linear(-x)
    # q ex (q < 1) and ex / q (q > 1) both lie below ex, so the pair is ordered
    shifted = q * ex if regime is TailRegime.SUBCRITICAL else ex / q
    return (math.exp(-ex), math.exp(-shifted))
