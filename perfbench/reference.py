"""Independent references for checking outputs.

Nothing here calls cyclemax: weights are evaluated from the generated
parameters, the cycle-maximum law comes from the S-recursion

    u(0) = 1,   u(n+1) = u(n) * rho * psi(n+1) / psi(n) + 1,

with u(n) = S(n) psihat(n) rho^n (the identity the program's
``verification._survival_ratio_recursion_gap`` checks), and network laws
from the product form.  The recursion runs one level at a time in log
space, so it shares no code path with the program's cumulative sums.
"""

from __future__ import annotations

import math

import numpy as np

# Dvoretzky-Kiefer-Wolfowitz band: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2)
DKW_ALPHA = 1e-6


def log_factorial(n_max: int) -> np.ndarray:
    """log n! for n = 0..n_max, summed term by term."""
    out = np.zeros(n_max + 1)
    if n_max:
        out[1:] = np.cumsum(np.log(np.arange(1, n_max + 1, dtype=float)))
    return out


def log_weights(kind: str, n_max: int, s: int = 1, table=None, log_fn=None):
    """log psi(n) for n = 0..n_max of a generated weight sequence; a table
    continues flat (tail ratio 1) past its end."""
    n = np.arange(n_max + 1)
    if kind == "ones":
        return np.zeros(n_max + 1)
    if kind == "factorial":
        return -log_factorial(n_max)
    if kind == "servers":
        lf = log_factorial(max(n_max, s))
        return np.where(n <= s, -lf[: n_max + 1], (s - n) * math.log(s) - lf[s])
    if kind == "table":
        logs = np.log(np.asarray(table, dtype=float))
        last = len(logs) - 1
        return logs[np.minimum(n, last)]
    if kind == "callable":
        return np.asarray(log_fn(n), dtype=float)
    raise ValueError(f"unknown weight kind {kind!r}")


def _logaddexp1(a: float) -> float:
    """log(exp(a) + 1)."""
    return a + math.log1p(math.exp(-a)) if a > 0.0 else math.log1p(math.exp(a))


class ExactLaw:
    """Cycle-maximum law of a chain from its log weights, levels 0..n_max.

    ``log_u[n]`` is log u(n); ``log_v[n]`` is log of
    sum_{i<=n} psihat(i) rho^i / (psihat(n) rho^n).  A cap stops the chain.
    """

    def __init__(self, log_w: np.ndarray, rho: float, cap: int | None = None):
        log_w = np.asarray(log_w, dtype=float)
        n_max = len(log_w) - 1
        log_rho = math.log(rho)
        steps = (log_w[1:] - log_w[:-1] + log_rho).tolist()
        log_u = [0.0] * (n_max + 1)
        log_v = [0.0] * (n_max + 1)
        for n, st in enumerate(steps):
            log_u[n + 1] = _logaddexp1(log_u[n] + st)
            log_v[n + 1] = _logaddexp1(log_v[n] - st)
        self.log_u = np.array(log_u)
        self.log_v = np.array(log_v)
        self.log_g = log_w - log_w[0] + np.arange(n_max + 1) * log_rho  # log psihat(n) rho^n
        self.cap = cap

    @property
    def n_max(self) -> int:
        return len(self.log_u) - 1

    def log_survival(self, n):
        """log P(Y > n) = -log S(n)."""
        n = np.asarray(n)
        out = -(self.log_u[n] - self.log_g[n])
        if self.cap is not None:
            out = np.where(n >= self.cap, -np.inf, out)
        return out

    def cdf(self, n):
        return -np.expm1(self.log_survival(n))

    def failure_rate(self, n):
        n = np.asarray(n)
        out = np.exp(-self.log_u[n])
        if self.cap is not None:
            out = np.where(n >= self.cap, 1.0, out)
        return out

    def blocking_prob(self, n):
        return np.exp(-self.log_v[np.asarray(n)])

    def max_of_k_cdf(self, n, k: int):
        """P(max of k cycles <= n) = F(n)^k."""
        with np.errstate(divide="ignore"):
            return np.exp(k * np.log1p(-np.exp(self.log_survival(n))))


def rel_gap(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def dkw_epsilon(n: int, alpha: float = DKW_ALPHA) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def dkw_gap(values, total: int, law_cdf: np.ndarray) -> float:
    """sup_n |F_emp(n) - F(n)| over levels 0..len(law_cdf)-1; values that
    are missing from ``values`` (escaped cycles) count as above every level."""
    values = np.sort(np.asarray(values))
    levels = np.arange(len(law_cdf))
    emp = np.searchsorted(values, levels, side="right") / total
    return float(np.max(np.abs(emp - law_cdf)))


def traffic(routing: np.ndarray) -> np.ndarray:
    """Relative throughputs of stations 1..J from the routing matrix."""
    routing = np.asarray(routing, dtype=float)
    sub = routing[1:, 1:]
    return np.linalg.solve(np.eye(sub.shape[0]) - sub.T, routing[0, 1:])


def station_log_weights(kind: str, s, n_max: int) -> np.ndarray:
    if kind == "ss":
        return log_weights("ones", n_max)
    if kind == "ms":
        return log_weights("servers", n_max, s=s)
    return log_weights("factorial", n_max)


def product_form_levels(mu0: float, stations, routing, n_max: int) -> np.ndarray:
    """Stationary law of the total population, levels 0..n_max, as the
    convolution of the normalised station marginals (linear scale)."""
    loads = mu0 * traffic(routing) / np.array([st[1] for st in stations])
    total = np.array([1.0])
    depth = 4 * n_max + 400
    for (kind, _, s), r in zip(stations, loads):
        lw = station_log_weights(kind, s, depth) + np.arange(depth + 1) * math.log(r)
        m = np.exp(lw - lw.max())
        total = np.convolve(total, m / m.sum())[: depth + 1]
    return total[: n_max + 1] / total.sum()
