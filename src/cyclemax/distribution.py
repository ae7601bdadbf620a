"""Law of the running maximum over a regeneration cycle.

For a cycle started by the jump 0 -> 1, the maximum level Y reached before
the return to 0 satisfies

    P(Y <= n) = 1 - 1 / S(n),      S(n) = sum_{i=0..n} 1/(psihat(i) rho^i),

with psihat scaled so psihat(0) = 1.  S is accumulated in log space so the
law stays computable when the weights grow or decay factorially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .bdp import (
    _FIT_RESID_TOL,
    _MAX_LEVELS,
    _P_MARGIN,
    _TOL,
    BirthDeathSpec,
    _check_levels,
    _integer,
    _linear,
    _power_fit,
    classify,
    mm1,
)
from .errors import FitFailedError, NotApplicableError, NotStableError, NotTransientError

__all__ = [
    "CycleMaxDistribution",
    "cycle_max_cdf",
    "failure_rate",
    "blocking_prob",
    "conditional_cdf_transient",
    "duality_check",
    "dual_process",
    "TailRegime",
    "TailAsymptotics",
    "tail_asymptotics",
]


class _LawTables:
    """The per-level tables of one spec, grown on demand and read by its laws and tail function.

    ``log_w`` is the one place the spec holds its weights; ``log_S`` and
    ``log_W`` extend from it only when a law reader asks.  The tail function's
    knots are ``log_w[:falls_to + 1]``, checked to fall strictly from ``y0``
    on (no knots while falls_to is 0).  No reference to the spec: no cycle.
    """

    __slots__ = ("log_w", "log_S", "log_W", "log_s_inf", "y0", "falls_to")

    def __init__(self):
        self.log_w = np.empty(0)  # log psihat(n) rho^n, the weights themselves
        self.log_S = np.empty(0)  # log S(n), reciprocal-weight partial sums
        self.log_W = np.empty(0)  # log sum_{i<=n} psihat(i) rho^i
        self.log_s_inf: float | None = None
        self.y0 = self.falls_to = 0

    def grow(self, spec: BirthDeathSpec, n: int) -> None:
        """Evaluate log_w to cover level n, at least doubling it, within _MAX_LEVELS + 1 entries."""
        cur = len(self.log_w)
        if n < cur:
            return
        size = min(max(n + 1, 2 * cur, 64), _MAX_LEVELS + 1)
        # the new levels first, so the old table and the new one are alone in memory
        self.log_w = np.concatenate([self.log_w, spec.log_psi_rho(np.arange(cur, size))])
        self.log_w.flags.writeable = False

    def window(self, spec: BirthDeathSpec, lo: int, hi: int) -> np.ndarray:
        """log_w on the levels lo..hi-1, grown to cover them; evaluated afresh past _MAX_LEVELS + 1."""
        if hi > _MAX_LEVELS + 1:
            return spec.log_psi_rho(np.arange(lo, hi))
        self.grow(spec, hi - 1)
        return self.log_w[lo:hi]


class CycleMaxDistribution:
    """The cycle-maximum law of a spec, a view of the tables the spec keeps.

    The tables grow on demand and belong to the spec: every law of one spec
    object reads and grows the same tables, the log weights (which the tail
    function reads too) and their two cumulative sums, at 24 bytes per level.
    Each level's weight is evaluated once, when the weights reach it; the
    per-level readers index the tables and exponentiate with ``_linear``,
    which leaves the lanes that underflow to 0 uncomputed.  A law holds its
    spec; the spec does not hold its laws, so building one per call costs no
    table work and forms no reference cycle.
    """

    def __init__(self, spec: BirthDeathSpec):
        self.spec = spec
        self._tables = spec._law_tables
        self._ensure(64)

    @property
    def _log_S(self) -> np.ndarray:
        return self._tables.log_S

    def _ensure(self, n: int) -> None:
        """Grow the tables to cover index n (clipped to the cap), within _MAX_LEVELS + 1 entries."""
        if self.spec.cap is not None:
            n = min(n, self.spec.cap)
        tables = self._tables
        cur = len(tables.log_S)
        if n < cur:
            return
        _check_levels("level", n)
        size = min(max(n + 1, 2 * cur, 64), _MAX_LEVELS + 1)
        tables.grow(self.spec, size - 1)
        log_W, log_S = np.empty(size), np.empty(size)
        log_W[:cur], log_S[:cur] = tables.log_W, tables.log_S
        log_W[cur:] = tables.log_w[cur:size]
        np.negative(tables.log_w[cur:size], out=log_S[cur:])
        # a left fold resumed in place from the last entry: growing in steps changes no bit
        for table in (log_W, log_S):
            np.logaddexp.accumulate(table[max(cur - 1, 0) :], out=table[max(cur - 1, 0) :])
        tables.log_W, tables.log_S = log_W, log_S

    def _checked(self, n, least: int = 0) -> np.ndarray:
        """n as integer levels of at least ``least``, clipped to the cap."""
        n = np.asarray(n)
        if n.dtype.kind not in "iu":
            got = repr(n.item()) if n.ndim == 0 else f"an array of dtype {n.dtype}"
            raise ValueError(f"level n must be an integer, got {got}")
        if n.min(initial=least) < least:
            raise ValueError(f"level must be at least {least}")
        if self.spec.cap is not None:
            n = np.minimum(n, self.spec.cap)
        return n

    def _grown(self, n, least: int = 0) -> np.ndarray:
        """``_checked(n, least)``, with the tables grown to cover it."""
        n = self._checked(n, least)
        self._ensure(int(n.max(initial=0)))
        return n

    def log_cumulative(self, n):
        """log S(n); accepts scalars or integer arrays.  Flat beyond the cap."""
        n = self._grown(n)
        return self._tables.log_S[n]

    def log_weight_cumulative(self, n):
        """log sum_{i<=n} psihat(i) rho^i, flat beyond the cap."""
        n = self._grown(n)
        return self._tables.log_W[n]

    def log_survival(self, n):
        """log P(Y > n) = -log S(n); -inf from the cap on, where the
        chain cannot climb further and the remaining mass sits."""
        n = np.asarray(n)
        out = -np.asarray(self.log_cumulative(n), dtype=float)
        if self.spec.cap is not None:
            out = np.where(n >= self.spec.cap, -np.inf, out)
        return float(out) if np.ndim(n) == 0 else out

    def survival(self, n):
        return np.exp(self.log_survival(n))

    def cdf(self, n):
        """P(Y <= n); 0 for n <= 0 since a cycle always reaches level 1."""
        n = np.asarray(n)
        out = -np.expm1(self.log_survival(np.maximum(n, 0)))
        return float(out) if np.ndim(n) == 0 else out

    @property
    def p_finite(self) -> float:
        """Total mass P(Y < inf); below 1 exactly when the chain escapes."""
        return float(np.exp(self.log_p_finite))

    @cached_property
    def log_p_finite(self) -> float:
        if classify(self.spec).b_star_convergent is not True or self.spec.cap is not None:
            return 0.0
        return float(np.log(-np.expm1(-self.log_s_limit())))

    def log_s_limit(self) -> float:
        """log S(inf): log S(cap) on a capped spec, else the tail margin at level 0."""
        if self._tables.log_s_inf is None:
            capped = self.spec.cap is not None
            out = self.log_cumulative(self.spec.cap) if capped else np.logaddexp(0.0, self.log_tail_sum(0))
            self._tables.log_s_inf = float(out)
        return self._tables.log_s_inf

    def conditional_cdf(self, n):
        """P(Y <= n | Y < inf); the rounded ratio may pass 1 by an ulp, so it is capped there."""
        n = np.asarray(n)
        out = np.minimum(self.cdf(n) / self.p_finite, 1.0)
        return float(out) if np.ndim(n) == 0 else out

    def failure_rate(self, n):
        """P(Y = n | Y >= n) = (psihat(n) rho^n)^-1 / S(n), for n >= 1.

        A capped chain parks its remaining mass on the cap, so the rate
        is 1 there.
        """
        nc = self._grown(n, least=1)
        out = _linear(-self._tables.log_w[nc] - self._tables.log_S[nc])
        if self.spec.cap is not None:
            out = np.where(np.asarray(n) >= self.spec.cap, 1.0, out)
        return float(out) if np.ndim(n) == 0 else out

    def blocking_prob(self, n):
        """P0(X = n | X <= n) = psihat(n) rho^n / sum_{i<=n} psihat(i) rho^i."""
        nc = self._grown(n)
        return _linear(self._tables.log_w[nc] - self._tables.log_W[nc])

    def log_tail_sum(self, n):
        """log sum_{i>n} 1/(psihat(i) rho^i), the exact margin S(inf) - S(n),
        for a level or an integer array of levels.

        One reverse log-accumulation over [min n + 1, max n + span] sums the terms
        (read by ``_LawTables.window``), so large n costs no cancellation.  Where
        psi's record states the terms exactly, as q^i at the term bound q = 1/(beta_lower
        rho) or, at q within _TOL of 1, as i^-p / alpha, the window ends one term past
        max n and the record's start, and its geometric or Hurwitz sum closes it.
        Otherwise the span, at least 8, reaches e^-60 below each first term at q,
        whose geometric series closes the rest; at q = 0 it doubles until the
        window's last term lies e^-60 below the first term past max n, and nothing
        closes it; at q within _TOL of 1 it is _MAX_LEVELS and the Hurwitz sum of
        ``_power_law`` closes it.  Neither the span nor max n - min n may pass
        _MAX_LEVELS levels.
        """
        cls = classify(self.spec)
        q = 1.0 / (cls.beta_lower * self.spec.rho) if cls.beta_lower > 0 else math.inf
        log_q = math.log(q) if q > 0.0 else -math.inf
        power = abs(q - 1.0) <= _TOL
        tail = self.spec.psi_rho_tail
        exact = tail is not None and tail.factorial == 0 and (power or tail.degree == 0)
        # before the series test: a chain this close to critical may classify as recurrent
        if q < 1.0 and not (power or exact) and not -log_q * _MAX_LEVELS > 60.0:
            raise NotApplicableError(
                f"the tail ratio {q!r} is too close to 1: the tail margin "
                f"needs a window beyond {_MAX_LEVELS} levels"
            )
        if cls.b_star_convergent is not True:
            raise NotTransientError("reciprocal-weight series diverges")
        if not (q < 1.0 or power):
            raise NotApplicableError("tail sum needs a geometric term bound")
        n = self._checked(n)
        lo, hi = int(np.min(n)) + 1, int(np.max(n)) + 1  # hi: the first term past every n
        _check_levels("tail sum level spread", hi - lo)
        span = _MAX_LEVELS if power else max(int(60.0 / -log_q), 8)
        if exact:  # the window ends one term past max n and the start
            span = max(tail.start + 2 - hi, 1)
        lt = -self._tables.window(self.spec, lo, hi + span)
        while q == 0.0 and lt[-1] > lt[hi - lo] - 60.0 and span < _MAX_LEVELS:
            span = min(2 * span, _MAX_LEVELS)
            lt = -self._tables.window(self.spec, lo, hi + span)
        # rev[i - lo] = log sum of the terms from i to the end of the window
        rev = np.logaddexp.accumulate(lt[::-1])[::-1]
        if power:  # p fitted over the window's upper half where psi has no record
            half = hi + span // 2
            p, log_alpha = _power_law(self.spec, np.arange(half, hi + span), -lt[half - lo:], least=1.0)
            log_close = math.log(_hurwitz_zeta(p, hi + span)) - log_alpha
        else:
            log_close = lt[-1] + log_q - math.log1p(-q)
        out = np.logaddexp(rev[n + 1 - lo], log_close)
        return float(out) if n.ndim == 0 else out

    def _log_weight(self, n):
        """log psihat(n) rho^n at a level or an integer array of levels, from the weights grown to cover it."""
        self._tables.grow(self.spec, int(np.max(n)))
        return self._tables.log_w[n]

    def _log_conditional_survival(self, n):
        """log P(Y > n | Y < inf), from the tail margin without cancellation."""
        return self.log_tail_sum(n) - self.log_cumulative(n) - self.log_s_limit() - self.log_p_finite


def _as_dist(obj) -> CycleMaxDistribution:
    """``obj`` itself if it is a law, else a law of the spec."""
    return obj if isinstance(obj, CycleMaxDistribution) else CycleMaxDistribution(obj)


def cycle_max_cdf(dist, n):
    """P(Y <= n); ``dist`` may be a distribution object or a raw spec."""
    return _as_dist(dist).cdf(n)


def failure_rate(dist, n):
    return _as_dist(dist).failure_rate(n)


def blocking_prob(dist, n):
    return _as_dist(dist).blocking_prob(n)


def conditional_cdf_transient(dist, n):
    """P(Y <= n | Y < inf) for a chain that actually escapes."""
    dist = _as_dist(dist)
    if dist.p_finite >= 1.0 - 1e-12:
        raise NotTransientError("cycle maximum is already finite with probability one")
    return dist.conditional_cdf(n)


def dual_process(spec: BirthDeathSpec) -> BirthDeathSpec:
    """Swap intensities and take reciprocal weights; an involution."""
    return spec.dual()


def duality_check(lam: float, mu: float, n_max: int = 100) -> float:
    """Largest gap over n <= n_max between the failure rate of the
    swapped-rate chain and the blocking probability of the stable chain.
    The two coincide algebraically, so this should sit at rounding level.
    """
    n = np.arange(1, _check_levels("n_max", _integer("n_max", n_max, 1)) + 1)
    if not lam < mu:
        raise NotStableError(f"needs lam < mu, got lam={lam}, mu={mu}")
    stable = CycleMaxDistribution(mm1(lam, mu))
    swapped = CycleMaxDistribution(mm1(mu, lam))
    return float(np.max(np.abs(swapped.failure_rate(n) - stable.blocking_prob(n))))


# ---------------------------------------------------------------------------
# tail growth regimes


_PROBE = 400  # tail_asymptotics' probe depth, the least where it doubles


class TailRegime(str, Enum):
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"
    NO_LIMIT = "NoLimit"


def _tail_regime(spec: BirthDeathSpec) -> TailRegime:
    """Where beta rho sits against 1, from the cached classification.

    beta rho within bdp's ratio-test tolerance _TOL of 1 is critical; a
    capped chain has none and raises NotApplicableError.  Every tail
    function and norming recipe branches on this one answer.
    """
    _require_uncapped(spec)
    beta = classify(spec).beta
    if beta is None:
        return TailRegime.NO_LIMIT
    q = beta * spec.rho
    if q < 1.0 - _TOL:
        return TailRegime.SUBCRITICAL
    if q > 1.0 + _TOL:
        return TailRegime.SUPERCRITICAL
    return TailRegime.CRITICAL


@dataclass(frozen=True)
class TailAsymptotics:
    """Normalised tail limit of the cycle-maximum law.

    ``limit_constant`` is the closed-form constant for the regime and
    ``empirical_*`` report the normalised quantity at the probe index, its
    accelerated extrapolation, and the gap between the two.  In the
    supercritical regime the constant is b*^2 / ((q - 1)(1 - b*)), with
    q = beta rho and b* = P(Y = inf), the fixed point of the tail recursion;
    ``fixed_point_constant`` repeats it there and is None in the other
    regimes.
    """

    regime: TailRegime
    scale: str
    limit_constant: float | None
    limit_interval: tuple[float, float] | None
    alpha: float | None
    p_exponent: float | None
    empirical_value: float
    empirical_extrapolated: float
    empirical_residual: float
    fixed_point_constant: float | None = None


def _aitken(x1: float, x2: float, x3: float) -> tuple[float, float]:
    """One delta-squared step; returns (extrapolated value, step size)."""
    d1, d2 = x2 - x1, x3 - x2
    denom = d2 - d1
    if abs(denom) < 1e-300:
        return x3, abs(d2)
    extr = x3 - d2 * d2 / denom
    return extr, abs(extr - x3)


def _require_uncapped(spec: BirthDeathSpec) -> None:
    """A capped chain's record never passes the cap, so it has no tail regime."""
    if spec.cap is not None:
        raise NotApplicableError("finite chains have no tail regime")


def tail_asymptotics(spec: BirthDeathSpec) -> TailAsymptotics:
    """Identify the tail regime of P(Y > n) and its normalising constant.

    The regime is ``_tail_regime``'s.  The normalised tail is read at the
    probes n/2, 3n/4 and n, with n = _PROBE, doubled off criticality while
    the falling one of psi(n) rho^n and its reciprocal is not below 2^-53
    at n and 2 n stays within _MAX_LEVELS: so past the peak of the terms
    (M/M/inf at a large lambda) and far enough down a ratio near 1 (M/M/1
    or M/M/s near rho = s) for the normalised tail to have settled.  A
    critical tail's p and alpha are psi's record's, else fitted on [n/2, n].
    """
    regime = _tail_regime(spec)
    cls = classify(spec)
    dist = _as_dist(spec)
    rho = spec.rho
    q_lo, q_hi = cls.beta_lower * rho, cls.beta_upper * rho
    if regime is TailRegime.NO_LIMIT and not q_hi < 1.0 - _TOL:
        raise NotApplicableError("tail ratio has no limit and is not uniformly subcritical")
    n_probe = _PROBE
    sign = -1.0 if regime is TailRegime.SUPERCRITICAL else 1.0
    if regime is not TailRegime.CRITICAL:
        while 2 * n_probe <= _MAX_LEVELS and sign * dist._log_weight(n_probe) >= -53.0 * math.log(2.0):
            n_probe *= 2
    h = n_probe // 4
    probes = np.array((n_probe - 2 * h, n_probe - h, n_probe))
    interval = alpha = p = fixed_point = None

    if regime in (TailRegime.NO_LIMIT, TailRegime.SUBCRITICAL):
        no_limit = regime is TailRegime.NO_LIMIT
        scale, constant = "(1 - F(n)) / (psi(n) rho^n)", None if no_limit else 1.0 - cls.beta * rho
        interval = (1.0 - q_hi, 1.0 - q_lo) if no_limit else None
        vals = np.exp(dist.log_survival(probes) - dist._log_weight(probes)).tolist()
    elif regime is TailRegime.SUPERCRITICAL:
        vals = np.exp(dist._log_conditional_survival(probes) + dist._log_weight(probes)).tolist()
        q = cls.beta * rho
        b_star = 1.0 - dist.p_finite
        scale = "psi(n) rho^n * (1 - F(n | finite))"
        constant = fixed_point = b_star * b_star / ((q - 1.0) * dist.p_finite)  # 1 - b*, which rounds to 0
    else:
        win = np.arange(max(1, n_probe // 2), n_probe + 1)
        p, log_alpha = _power_law(spec, win, dist._log_weight(win))
        alpha = math.exp(log_alpha)
        # within _P_MARGIN of p = 1 bdp's power-law probe cannot tell S from the harmonic series
        if p < 1.0 - _P_MARGIN:
            scale, constant = "n^(1-p) * (1 - F(n))", alpha * (1.0 - p)
            norms = [float(n) ** (1.0 - p) for n in probes]
        elif p <= 1.0 + _P_MARGIN:
            scale, constant = "log(n) * (1 - F(n))", alpha
            norms = [math.log(n) for n in probes]
        else:
            scale, constant = "(1 - F(n))", math.exp(-dist.log_s_limit())
            norms = [1.0] * len(probes)
        vals = [w * float(dist.survival(n)) for w, n in zip(norms, probes)]

    extr, resid = _aitken(*vals)
    return TailAsymptotics(
        regime=regime,
        scale=scale,
        limit_constant=constant,
        limit_interval=interval,
        alpha=alpha,
        p_exponent=p,
        empirical_value=vals[-1],
        empirical_extrapolated=extr,
        empirical_residual=resid,
        fixed_point_constant=fixed_point,
    )


# B_2j / (2j)! for j = 1..6
_EM_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)
_EM_DIRECT = 16


def _hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta sum_{k>=0} (a + k)^-s for s > 1, a > 0, by Euler-Maclaurin.

    Sums the first 16 terms directly and closes the rest with the integral,
    the half end term and six Bernoulli corrections; the remainder is at
    rounding level for a >= 1 and moderate s.
    """
    x = a + _EM_DIRECT
    head = math.fsum((a + k) ** -s for k in range(_EM_DIRECT))
    tail = x ** (1.0 - s) / (s - 1.0) + 0.5 * x**-s
    # term j carries s (s+1) ... (s+2j-2) x^(-s-2j+1)
    factor = s * x ** (-s - 1.0)
    for j, coef in enumerate(_EM_BERNOULLI):
        tail += coef * factor
        factor *= (s + 2 * j + 1) * (s + 2 * j + 2) / (x * x)
    return head + tail


def _power_law(
    spec: BirthDeathSpec, win: np.ndarray, log_w: np.ndarray, least: float = -math.inf
) -> tuple[float, float]:
    """(p, log alpha) of a critical psihat(n) rho^n ~ alpha n^p: psi's record's, else fitted
    to log_w, the caller's log psihat(n) rho^n on the levels win, where a residual past
    _FIT_RESID_TOL or p not above least raises."""
    tail = spec.psi_rho_tail
    if tail is not None:
        return float(tail.degree), tail.log_amp
    p, log_alpha, resid = _power_fit(win, log_w)
    if resid > _FIT_RESID_TOL or not p > least:
        raise FitFailedError(f"terms on [{win[0]}, {win[-1]}] fit power {p:.6g}, residual {resid:.2e}")
    return p, log_alpha
