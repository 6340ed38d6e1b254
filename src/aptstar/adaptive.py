"""Batch-size and vertex-charge scheduling.

Two quantities are rescheduled as the solution improves: the number of
samples per batch (driven by the shrinking informed-set hypervolume) and
the per-batch vertex charge (a tanh-shaped map from batch size to charge,
with several alternate non-linear schedules).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .geometry import is_int, lebesgue_measure

SCHEDULES = (
    "tanh_closed",
    "tanh_taylor",
    "exponential",
    "polynomial",
    "logarithmic",
    "iteration",
)

# Maclaurin series of tanh diverges beyond pi/2; the literal Taylor schedule
# clamps its argument inside the convergence radius.
TAYLOR_CLAMP = 1.4


@dataclass(frozen=True)
class BatchConfig:
    m_min: int = 1
    m_max: int = 199

    def __post_init__(self):
        if not (is_int(self.m_min) and is_int(self.m_max)):
            raise ValueError("m_min and m_max must be integers")
        if self.m_min < 1 or self.m_min >= self.m_max:
            raise ValueError("need 1 <= m_min < m_max")

    def tau(self, n: int) -> float:
        """Decay rate of the schedule in n dimensions."""
        return (self.m_max + self.m_min) / n

    @property
    def m_default(self) -> int:
        """Batch size before any solution exists; m_max = 2*m_default - m_min."""
        return (self.m_max + self.m_min) // 2


@dataclass
class BatchState:
    """Per-run scheduling state; zeta_initial is written exactly once."""

    zeta_initial: float | None = None


@dataclass(frozen=True)
class ChargeConfig:
    q_min: float = 0.1
    q_max: float = 1.9
    epsilon: float = 6.0
    beta: float = -0.5
    alpha: int = 100
    schedule: str = "tanh_closed"

    def __post_init__(self):
        # "not x < inf" also rejects NaN
        if not 0.0 <= self.q_min < self.q_max < math.inf:
            raise ValueError("need 0 <= q_min < q_max, q_max finite")
        for name in ("epsilon", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # the alternate schedules divide by epsilon
        if self.epsilon == 0.0:
            raise ValueError("epsilon must be nonzero")
        if not is_int(self.alpha) or self.alpha < 1:
            raise ValueError("alpha must be an integer of at least 1")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")


def sigmoid_smooth(g: float) -> float:
    """Overflow-safe sigmoid of 10 * (g - 0.5) for an informed ratio g in (0, 1]."""
    if not 0.0 < g <= 1.0:
        raise ValueError("informed ratio must be in (0, 1]")
    if g < 0.5:
        e = math.exp(10.0 * (g - 0.5))
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(-10.0 * (g - 0.5)))


def decay_factor(sigma: float, tau: float) -> float:
    """Logarithmic smoothing of sigma onto (0, 1)."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    return math.log(tau * sigma + 1.0) / math.log(tau + 1.0)


def informed_ratio(zeta_current: float, zeta_initial: float) -> float:
    """Hypervolume contraction ratio, bounded in (0, 1]."""
    if zeta_initial <= 0.0:
        raise ValueError("initial measure must be positive")
    if zeta_current > zeta_initial:
        raise ValueError("current measure exceeds initial measure")
    return zeta_current / zeta_initial


def adapt_batch_size(
    c_current: float,
    c_min: float,
    n: int,
    config: BatchConfig,
    state: BatchState,
) -> int:
    """Batch size for the next approximation, per the hypervolume pipeline.

    On the first call the initial informed measure is frozen; on each call
    the measure ratio is smoothed (sigmoid, then logarithmic decay) and
    mapped onto [m_min, m_max]. An unchanged cost gives the same batch size.
    """
    if c_current < c_min:
        raise ValueError("cost below the straight-line lower bound")
    zeta = lebesgue_measure(c_current, c_min, n)
    if state.zeta_initial is None:
        state.zeta_initial = zeta
    sigma = sigmoid_smooth(informed_ratio(zeta, state.zeta_initial))
    theta = decay_factor(sigma, config.tau(n))
    batch = math.floor(config.m_min + theta * (config.m_max - config.m_min))
    return min(max(batch, config.m_min), config.m_max)


@lru_cache(maxsize=None)
def _bernoulli_fraction(two_i: int) -> Fraction:
    total = Fraction(0)
    for j in range(two_i + 1):
        inner = Fraction(0)
        for k in range(j + 1):
            inner += (-1) ** k * math.comb(j, k) * Fraction(k**two_i)
        total += inner / (j + 1)
    return total


def bernoulli_number(two_i: int) -> float:
    """Bernoulli number B_{2i} via the double-sum formula (B_1 = -1/2 convention)."""
    if two_i < 0 or two_i % 2 != 0:
        raise ValueError("index must be even and nonnegative")
    return float(_bernoulli_fraction(two_i))


@lru_cache(maxsize=None)
def _tanh_series_coeff(i: int) -> float:
    # Coefficient of x^(2i-1) in tanh(x), times 1/2: matches the
    # 2^(2i-1) B_{2i} (2^(2i) - 1) / (2i)! form of the charge series.
    num = Fraction(2) ** (2 * i - 1) * _bernoulli_fraction(2 * i) * (2 ** (2 * i) - 1)
    return float(num / math.factorial(2 * i))


def tanh_taylor_charge(x_biased: float, q_min: float, q_max: float, alpha: int) -> float:
    """Partial tanh-series charge; equals midpoint + (q_min-q_max)/2 * tanh(x).

    The argument is clamped to the series' convergence region and the result
    to [q_min, q_max].
    """
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    x = min(max(x_biased, -TAYLOR_CLAMP), TAYLOR_CLAMP)
    total = (q_min + q_max) / 2.0
    for i in range(1, alpha + 1):
        total += _tanh_series_coeff(i) * x ** (2 * i - 1) * (q_min - q_max)
    return min(max(total, q_min), q_max)


def alternate_charge_schedule(x_biased: float, config: ChargeConfig) -> float:
    """Non-tanh prolation schedules over the normalized batch u in [0, 1].

    Each is monotone non-increasing with q(0) = q_max; the biased argument is
    mapped back to u through the same epsilon/beta affine transform.
    """
    u = x_biased / config.epsilon - config.beta
    u = min(max(u, 0.0), 1.0)
    span = config.q_max - config.q_min
    if config.schedule == "exponential":
        return config.q_min + span * math.exp(-5.0 * u)
    if config.schedule == "polynomial":
        return config.q_min + span * (1.0 - u) ** 3
    if config.schedule == "logarithmic":
        return config.q_max - span * math.log1p(9.0 * u) / math.log(10.0)
    if config.schedule == "iteration":
        steps = 10
        return config.q_max - span * math.floor(u * steps) / steps
    raise ValueError(f"unknown schedule {config.schedule!r}")


def vertex_charge(
    batch_adapt: int, config: ChargeConfig, batch_config: BatchConfig
) -> float:
    """Charge for every vertex of the batch, from the configured schedule.

    Dense batches (near m_max) map to small charges and near-spherical
    neighbor regions; sparse batches map to large charges and strong
    prolation.
    """
    b = batch_adapt
    if not batch_config.m_min <= b <= batch_config.m_max:
        warnings.warn("batch size outside [m_min, m_max]; clamping", stacklevel=2)
        b = min(max(b, batch_config.m_min), batch_config.m_max)
    u = (b - batch_config.m_min) / (batch_config.m_max - batch_config.m_min)
    x = config.epsilon * (u + config.beta)
    if config.schedule == "tanh_closed":
        return (config.q_min + config.q_max) / 2.0 + (
            config.q_min - config.q_max
        ) / 2.0 * math.tanh(x)
    if config.schedule == "tanh_taylor":
        return tanh_taylor_charge(x, config.q_min, config.q_max, config.alpha)
    return alternate_charge_schedule(x, config)
