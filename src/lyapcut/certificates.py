"""Running approximation-ratio certificates and the admissible step-size bound.

Two trackers are maintained along a run. The one-parameter tracker accumulates
lambda with per-step increments (sum_k alpha_k O_k dt) / <Q>, certifying the
ratio lambda. The two-parameter tracker evolves (x, y) by

    x' = x b<Q> / c,   y' = y + x g / c,   c = b<Q> - a g,

with g = sum_k alpha_k O_k dt, certifying y / x. A negative g breaks the
lower-bound argument, so it is never folded in silently: the increment is
clamped to zero and the violation counted. A non-positive c means the bound
collapsed; Certificates, the per-run owner of both trackers, then freezes the
two-parameter tracker at its last valid value.

Exact identities, measured on the round loop's own values. In a run on m
edges with Certificates, write h_p = <H_f>/m after round p, g_k for the
clamped gain of round k and r_k = dH_k - g_k, dH_k the change of <H_f> in
round k. Then

    lambda_p = h_p - 1/2 - (1/m) sum_k r_k,
    y_p / x_p = 2 h_p - 1 - (2 / (m x_p)) sum_k x_k r_k,

x_k the x after round k, the second up to the round the tracker freezes.
Both hold to 1e-12 on both ansaetze, at fixed and adaptive dt, with clamps
and through a freeze (tests/test_certificates.py). So with vanishing
remainders the bounds tend to h - 1/2 and 2h - 1, both below h, which is a
lower bound itself since OPT <= m; a bound rises above h only through
negative remainders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .hamiltonian import NormBounds


class DenominatorCollapse(RuntimeError):
    """Two-parameter update denominator c = b<Q> - a*gain dropped to <= 0."""

    def __init__(self, q_exp: float, gain: float, c: float):
        super().__init__(f"two-parameter denominator collapsed: q_exp={q_exp}, gain={gain}, c={c}")
        self.q_exp = q_exp
        self.gain = gain
        self.c = c


@dataclass
class OneParamTracker:
    lam: float = 0.0
    violations: int = 0
    last_violated: bool = False

    @property
    def lower_bound(self) -> float:
        return self.lam


@dataclass
class TwoParamTracker:
    x: float = 1.0
    y: float = 0.0
    violations: int = 0
    last_violated: bool = False
    frozen: bool = False


def _gain(tracker, alpha_k: Sequence[float], o_k: Sequence[float], dt: float) -> float:
    """The increment g = sum_k alpha_k O_k dt clamped at zero; a clamp is flagged and counted on tracker."""
    if len(alpha_k) != len(o_k):
        raise ValueError(f"length mismatch: {len(alpha_k)} alphas vs {len(o_k)} observables")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    gain = sum(a * o for a, o in zip(alpha_k, o_k)) * dt
    tracker.last_violated = gain < 0
    tracker.violations += tracker.last_violated
    return max(gain, 0.0)


def one_param_step(
    tracker: OneParamTracker,
    alpha_k: Sequence[float],
    o_k: Sequence[float],
    dt: float,
    q_exp: float,
) -> OneParamTracker:
    """Apply one discrete certificate increment gain / q_exp."""
    if q_exp <= 0:
        raise ValueError(f"q_exp must be positive, got {q_exp}")
    tracker.lam += _gain(tracker, alpha_k, o_k, dt) / q_exp
    return tracker


def two_param_step(
    tracker: TwoParamTracker,
    alpha_k: Sequence[float],
    o_k: Sequence[float],
    dt: float,
    q_exp: float,
    a: float,
    b: float,
) -> TwoParamTracker:
    """Apply the discrete (x, y) update; raises DenominatorCollapse when c <= 0, as any q_exp <= 0 gives."""
    if a < 0 or b <= 0:
        raise ValueError(f"need a >= 0 and b > 0, got a={a}, b={b}")
    if tracker.frozen:
        return tracker
    gain = _gain(tracker, alpha_k, o_k, dt)
    c, new_x = _x_update(tracker.x, gain, q_exp, a, b)
    tracker.x, tracker.y = new_x, tracker.y + tracker.x * gain / c
    return tracker


def _x_update(x: float, gain: float, q_exp: float, a: float, b: float) -> tuple[float, float]:
    """The denominator c = b<Q> - a g and the next x = x b<Q> / c; raises DenominatorCollapse when c <= 0."""
    c = b * q_exp - a * gain
    if c <= 0:
        raise DenominatorCollapse(q_exp=q_exp, gain=gain, c=c)
    return c, x * (b * q_exp) / c


def two_param_lower_bound(tracker: TwoParamTracker) -> float:
    if tracker.x <= 0:
        raise ValueError(f"x must stay positive, got {tracker.x}")
    return tracker.y / tracker.x


def max_step_size(bounds: NormBounds, epsilon: float, x_next: float = 1.0) -> float:
    """Largest admissible step: epsilon / (B x + C epsilon + sqrt(A x epsilon)).

    With x_next = 1 this is the one-parameter bound. All-zero constants make
    the bound vacuous; that degenerate case returns +inf.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if x_next <= 0:
        raise ValueError(f"x_next must be positive, got {x_next}")
    if min(bounds.A, bounds.B, bounds.C) < 0:
        raise ValueError("norm constants must be nonnegative")
    denom = bounds.B * x_next + bounds.C * epsilon + math.sqrt(bounds.A * x_next * epsilon)
    if denom == 0.0:
        return math.inf
    return epsilon / denom


class Certificates:
    """Both trackers of one run on m edges, with budgets m and m - <H_f> (a = b = 1); a collapse
    freezes the two-parameter tracker for the rest of the run. The steps are called through this
    module's names, so rebinding one reaches every call."""

    def __init__(self, m: int):
        self.m = float(m)
        self.one = OneParamTracker()
        self.two = TwoParamTracker()

    @property
    def lambda_lb(self) -> float:
        return self.one.lower_bound

    @property
    def two_param_lb(self) -> float:
        return two_param_lower_bound(self.two)

    def advance(self, alpha: float, o: float, dt: float, hf: float) -> bool:
        """Fold one round into both trackers; true on a clamp of either or on the freeze round."""
        one_param_step(self.one, [alpha], [o], dt, q_exp=self.m)
        if self.two.frozen:
            return self.one.last_violated
        try:
            two_param_step(self.two, [alpha], [o], dt, q_exp=self.m - hf, a=1.0, b=1.0)
        except DenominatorCollapse:
            self.two.frozen = True
            return True
        return self.one.last_violated or self.two.last_violated

    def step_size(self, bounds: NormBounds, epsilon: float, dt_max: float, alpha: float, o: float,
                  hf: float) -> float:
        """Admissible step under the error budget, conservative in the next x value: the x that a
        first-pass dt implies can only shrink the second-pass dt, so the final dt is admissible for
        the x it produces. A frozen tracker or a collapsing look-ahead keeps x."""
        x = self.two.x
        dt = min(dt_max, max_step_size(bounds, epsilon, x_next=x))
        if not self.two.frozen:
            try:
                x = max(_x_update(x, max(alpha * o * dt, 0.0), self.m - hf, 1.0, 1.0)[1], x)
            except DenominatorCollapse:
                pass
        return min(dt, max_step_size(bounds, epsilon, x_next=x))


def potential_value(hf_exp: float, optimum: float, tracker) -> float:
    """Potential at the current step, for monotonicity tests against an oracle optimum."""
    if optimum <= 0:
        raise ValueError(f"optimum must be positive, got {optimum}")
    if isinstance(tracker, OneParamTracker):
        return hf_exp - tracker.lam * optimum
    if isinstance(tracker, TwoParamTracker):
        return tracker.x * hf_exp - tracker.y * optimum
    raise TypeError(f"unsupported tracker type {type(tracker)!r}")

