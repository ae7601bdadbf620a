"""Law of the running maximum over a regeneration cycle.

For a cycle started by the jump 0 -> 1, the maximum level Y reached before
the return to 0 satisfies

    P(Y <= n) = 1 - 1 / S(n),      S(n) = sum_{i=0..n} 1/(psihat(i) rho^i),

with psihat scaled so psihat(0) = 1.  S is accumulated in log space so the
law stays computable when the weights grow or decay factorially.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bdp import _FIT_RESID_TOL, _TOL, BirthDeathSpec, _power_fit, classify, mm1
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


class CycleMaxDistribution:
    """Lazily extended table of the cycle-maximum law.

    The internal cumulative tables grow on demand; extension is serialised by
    a lock and the reciprocal-sum table is published last, so concurrent
    readers never index past a partially extended pair.
    """

    def __init__(self, spec: BirthDeathSpec):
        self.spec = spec
        self._lock = threading.Lock()
        self._log_S = np.empty(0)  # log S(n), reciprocal-weight partial sums
        self._log_W = np.empty(0)  # log sum_{i<=n} psihat(i) rho^i
        self._log_p_finite: float | None = None
        self._log_s_inf: float | None = None
        self._ensure(min(64, spec.cap) if spec.cap is not None else 64)

    def _ensure(self, n: int) -> None:
        """Grow tables to cover index n (clipped to the cap)."""
        if self.spec.cap is not None:
            n = min(n, self.spec.cap)
        if n < len(self._log_S):
            return
        with self._lock:
            cur = len(self._log_S)
            if n < cur:
                return
            hi = max(n + 1, 2 * cur, 64)
            lt = self.spec.log_psi_rho(np.arange(cur, hi))
            if cur:
                new_W = np.logaddexp.accumulate(np.concatenate([[self._log_W[-1]], lt]))[1:]
                new_S = np.logaddexp.accumulate(np.concatenate([[self._log_S[-1]], -lt]))[1:]
                new_W = np.concatenate([self._log_W, new_W])
                new_S = np.concatenate([self._log_S, new_S])
            else:
                new_W = np.logaddexp.accumulate(lt)
                new_S = np.logaddexp.accumulate(-lt)
            # readers gate on len(_log_S), so publish _log_W first
            self._log_W = new_W
            self._log_S = new_S

    def _checked(self, n) -> np.ndarray:
        n = np.asarray(n)
        if n.dtype.kind not in "iu":
            got = repr(n.item()) if n.ndim == 0 else f"an array of dtype {n.dtype}"
            raise ValueError(f"level n must be an integer, got {got}")
        if np.any(n < 0):
            raise ValueError("level must be non-negative")
        if self.spec.cap is not None:
            n = np.minimum(n, self.spec.cap)
        return n

    def log_cumulative(self, n):
        """log S(n); accepts scalars or integer arrays.  Flat beyond the cap."""
        n = self._checked(n)
        self._ensure(int(np.max(n)))
        return self._log_S[n]

    def log_weight_cumulative(self, n):
        """log sum_{i<=n} psihat(i) rho^i, flat beyond the cap."""
        n = self._checked(n)
        self._ensure(int(np.max(n)))
        return self._log_W[n]

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

    @property
    def log_p_finite(self) -> float:
        if self._log_p_finite is None:
            if classify(self.spec).b_star_convergent is not True or self.spec.cap is not None:
                self._log_p_finite = 0.0
            else:
                self._log_p_finite = float(np.log(-np.expm1(-self.log_s_limit())))
        return self._log_p_finite

    def log_s_limit(self) -> float:
        """log S(inf) when the reciprocal-weight series converges."""
        if self._log_s_inf is not None:
            return self._log_s_inf
        n = 256
        while True:
            a = float(self.log_cumulative(n // 2))
            b = float(self.log_cumulative(n))
            if b - a < 1e-15 or n >= 1 << 22:
                break
            n *= 2
        out = float(self.log_cumulative(n))
        t_n = -float(self.spec.log_psi_rho(n))
        q = math.exp(t_n + float(self.spec.log_psi_rho(n - 1)))
        if q < 1.0:
            # geometric bound on the dropped tail from the last term ratio
            out = float(np.logaddexp(out, t_n + math.log(q) - math.log1p(-q)))
        self._log_s_inf = out
        return out

    def conditional_cdf(self, n):
        """P(Y <= n | Y < inf)."""
        n = np.asarray(n)
        out = self.cdf(n) / self.p_finite
        return float(out) if np.ndim(n) == 0 else out

    def failure_rate(self, n):
        """P(Y = n | Y >= n) = (psihat(n) rho^n)^-1 / S(n), for n >= 1.

        A capped chain parks its remaining mass on the cap, so the rate
        is 1 there.
        """
        n = np.asarray(n)
        if np.any(n < 1):
            raise ValueError("failure rate defined for levels n >= 1")
        nc = self._checked(n)
        out = np.exp(-self.spec.log_psi_rho(nc) - self.log_cumulative(nc))
        if self.spec.cap is not None:
            out = np.where(n >= self.spec.cap, 1.0, out)
        return float(out) if np.ndim(n) == 0 else out

    def blocking_prob(self, n):
        """P0(X = n | X <= n) = psihat(n) rho^n / sum_{i<=n} psihat(i) rho^i."""
        n = np.asarray(n)
        nc = self._checked(n)
        out = np.exp(self.spec.log_psi_rho(nc) - self.log_weight_cumulative(nc))
        return float(out) if np.ndim(n) == 0 else out

    def log_tail_sum(self, n) -> float:
        """log sum_{i>n} 1/(psihat(i) rho^i), the exact margin S(inf) - S(n).

        Summed afresh as positive terms, so large n costs no cancellation.
        Needs the reciprocal-weight series to converge at a geometric rate.
        """
        cls = classify(self.spec)
        if cls.b_star_convergent is not True:
            raise NotTransientError("reciprocal-weight series diverges")
        q = 1.0 / (cls.beta_lower * self.spec.rho) if cls.beta_lower > 0 else math.inf
        if not q < 1.0:
            raise NotApplicableError("tail sum needs a geometric term bound")
        n = int(n)
        span = max(int(60.0 / -math.log(q)), 8)
        lt = -self.spec.log_psi_rho(np.arange(n + 1, n + span + 1))
        m = float(np.max(lt))
        s = m + math.log(float(np.sum(np.exp(lt - m))))
        bound = float(lt[-1]) + math.log(q) - math.log1p(-q)
        return float(np.logaddexp(s, bound))


def _as_dist(obj) -> CycleMaxDistribution:
    if isinstance(obj, CycleMaxDistribution):
        return obj
    return CycleMaxDistribution(obj)


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
    if not lam < mu:
        raise NotStableError(f"needs lam < mu, got lam={lam}, mu={mu}")
    stable = _as_dist(mm1(lam, mu))
    swapped = _as_dist(mm1(mu, lam))
    n = np.arange(1, n_max + 1)
    return float(np.max(np.abs(swapped.failure_rate(n) - stable.blocking_prob(n))))


# ---------------------------------------------------------------------------
# tail growth regimes


class TailRegime(str, Enum):
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"
    NO_LIMIT = "NoLimit"


@dataclass(frozen=True)
class TailAsymptotics:
    """Normalised tail limit of the cycle-maximum law.

    ``limit_constant`` is the closed-form constant for the regime and
    ``empirical_*`` report the normalised quantity at the probe index, its
    accelerated extrapolation, and the gap between the two.  In the
    supercritical regime ``limit_constant`` carries the textbook closed
    form unchanged, even though its product of factors turns negative when
    the escape series sums below one, while ``fixed_point_constant`` is the
    fixed point of the tail recursion, which is what the sequence
    demonstrably approaches; the two disagree in exactly that case.
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


def tail_asymptotics(spec: BirthDeathSpec, n_probe: int = 400) -> TailAsymptotics:
    """Identify the tail regime of P(Y > n) and its normalising constant.

    beta rho within bdp's ratio-test tolerance of 1 counts as critical.
    """
    if n_probe < 100:
        raise ValueError("n_probe must be at least 100")
    if spec.cap is not None:
        raise NotApplicableError("finite chains have no tail regime")
    cls = classify(spec)
    dist = CycleMaxDistribution(spec)
    rho = spec.rho
    h = max(n_probe // 4, 2)
    probes = (n_probe - 2 * h, n_probe - h, n_probe)

    if cls.beta is None:
        q_lo, q_hi = cls.beta_lower * rho, cls.beta_upper * rho
        if q_hi < 1.0 - _TOL:
            vals = [_t_ratio(dist, n) for n in probes]
            extr, resid = _aitken(*vals)
            return TailAsymptotics(
                regime=TailRegime.NO_LIMIT,
                scale="(1 - F(n)) / (psi(n) rho^n)",
                limit_constant=None,
                limit_interval=(1.0 - q_hi, 1.0 - q_lo),
                alpha=None,
                p_exponent=None,
                empirical_value=vals[-1],
                empirical_extrapolated=extr,
                empirical_residual=resid,
            )
        raise NotApplicableError("tail ratio has no limit and is not uniformly subcritical")

    q = cls.beta * rho
    if q < 1.0 - _TOL:
        vals = [_t_ratio(dist, n) for n in probes]
        extr, resid = _aitken(*vals)
        return TailAsymptotics(
            regime=TailRegime.SUBCRITICAL,
            scale="(1 - F(n)) / (psi(n) rho^n)",
            limit_constant=1.0 - q,
            limit_interval=None,
            alpha=None,
            p_exponent=None,
            empirical_value=vals[-1],
            empirical_extrapolated=extr,
            empirical_residual=resid,
        )

    if q > 1.0 + _TOL:
        b_star = 1.0 - dist.p_finite
        vals = [_escape_ratio(dist, n) for n in probes]
        extr, resid = _aitken(*vals)
        return TailAsymptotics(
            regime=TailRegime.SUPERCRITICAL,
            scale="psi(n) rho^n * (1 - F(n | finite))",
            limit_constant=1.0 / ((q - 1.0) * b_star * (b_star - 1.0)),
            limit_interval=None,
            alpha=None,
            p_exponent=None,
            empirical_value=vals[-1],
            empirical_extrapolated=extr,
            empirical_residual=resid,
            fixed_point_constant=b_star * b_star / ((q - 1.0) * (1.0 - b_star)),
        )

    # critical growth: psi(n) rho^n ~ alpha n^p over the probe window
    win = np.arange(max(1, n_probe // 2), n_probe + 1)
    p, log_alpha, resid_fit = _power_fit(win, spec.log_psi_rho(win))
    if resid_fit > _FIT_RESID_TOL:
        raise FitFailedError(
            f"power-law fit residual {resid_fit:.2e} exceeds {_FIT_RESID_TOL:g} on window "
            f"[{win[0]}, {win[-1]}]"
        )
    alpha = math.exp(log_alpha)

    if p < 1.0 - 1e-6:
        scale, gamma = "n^(1-p) * (1 - F(n))", alpha * (1.0 - p)

        def norm(n: int) -> float:
            return float(n) ** (1.0 - p)

    elif p <= 1.0 + 1e-6:
        scale, gamma = "log(n) * (1 - F(n))", alpha

        def norm(n: int) -> float:
            return math.log(n)

    else:
        # S converges like a p-series; close it with the fitted Hurwitz tail
        log_tail = math.log(_hurwitz_zeta(p, n_probe + 1.0)) - math.log(alpha)
        log_s_inf = float(np.logaddexp(dist.log_cumulative(n_probe), log_tail))
        scale, gamma = "(1 - F(n))", math.exp(-log_s_inf)

        def norm(n: int) -> float:
            return 1.0

    vals = [norm(n) * float(dist.survival(n)) for n in probes]
    extr, resid = _aitken(*vals)
    return TailAsymptotics(
        regime=TailRegime.CRITICAL,
        scale=scale,
        limit_constant=gamma,
        limit_interval=None,
        alpha=alpha,
        p_exponent=p,
        empirical_value=vals[-1],
        empirical_extrapolated=extr,
        empirical_residual=resid,
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


def _t_ratio(dist: CycleMaxDistribution, n: int) -> float:
    """(1 - F(n)) / (psihat(n) rho^n)."""
    return float(np.exp(dist.log_survival(n) - dist.spec.log_psi_rho(n)))


def _escape_ratio(dist: CycleMaxDistribution, n: int) -> float:
    """psihat(n) rho^n * (1 - F(n) / p_finite), via the exact tail margin."""
    log_val = (
        dist.spec.log_psi_rho(n)
        + dist.log_tail_sum(n)
        - float(dist.log_cumulative(n))
        - dist.log_s_limit()
        - dist.log_p_finite
    )
    return float(np.exp(log_val))
