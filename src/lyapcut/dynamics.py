"""Feedback evolution loops: schedule, BFS orientation, the Mixer, and the two ansatz drivers.

Each public runner builds one Mixer, the mixer generator A of its ansatz. Each
round p measures O = <i[A, H_f]> on the current state, converts it into the
mixer strength for that round, advances both ratio certificates with the
pre-step measurements, applies the Mixer's layer, and records a trace row with
the post-step energy. The energy after one round is the energy before the
next, so <H_f> is measured once per round plus once on the initial plus state.
The first measurement happens on the initial plus state, so round 1 of the
transverse-field ansatz applies an identity mixer layer.
A NaN or infinite feedback value or energy stops the run with StateError, and
so does a squared norm that drifts from 1 by more than NORM_TOL, checked
every NORM_CHECK_EVERY rounds and after the last one.

Both loops evolve the mirrored half of the state (see statevector): every
layer and both mixers commute with the global bit flip, and so does |+>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .certificates import (
    DenominatorCollapse,
    OneParamTracker,
    TwoParamTracker,
    max_step_size,
    one_param_step,
    two_param_lower_bound,
    two_param_step,
)
from .graphs import CutOracleResult, Graph, GraphError
from .hamiltonian import MaxCutHamiltonian, NormBounds, error_constants
from .statevector import (
    ObservableTerms,
    StateError,
    apply_diagonal_phase,
    apply_rx,
    apply_ryz,
    expectation_diagonal,
    feedback_observable,
    init_plus,
    sum_x,
    sum_yz,
)

ANSATZE = ("qaoa_feedback", "light_cone")
NORM_CHECK_EVERY = 64
NORM_TOL = 1e-9


@dataclass(frozen=True)
class BetaParams:
    """Mixer-strength schedule: c * (floor * (1 - e^{-(rate/R)(T - t)}) + (1 - floor))."""

    c: float = 0.04
    floor: float = 0.5
    rate: float = 2.0


def beta_schedule(t: float, rounds: int, dt: float, params: BetaParams = BetaParams()) -> float:
    """Decelerating decreasing schedule; strictly positive on [0, rounds*dt]."""
    horizon = rounds * dt
    decay = 1.0 - math.exp(-(params.rate / rounds) * (horizon - t))
    return params.c * (params.floor * decay + (1.0 - params.floor))


@dataclass(frozen=True)
class RunConfig:
    ansatz: str = "qaoa_feedback"
    dt: float = 0.08
    rounds: int = 10_000
    beta: BetaParams = field(default_factory=BetaParams)
    epsilon: float = 1e-3
    adaptive_dt: bool = False
    lightcone_feedback: bool = True
    seed: int = 0
    state_cap: int = 24

    def __post_init__(self) -> None:
        if self.ansatz not in ANSATZE:
            raise ValueError(f"ansatz must be one of {ANSATZE}, got {self.ansatz!r}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


@dataclass
class StepTrace:
    """One row per round; hf_exp is the post-step energy, O and alpha belong to
    the layer that produced it. violation marks a clamped certificate increment
    or a two-parameter freeze event in this round."""

    step: int
    t: float
    beta: float
    O: float
    alpha: float
    hf_exp: float
    hf_over_m: float
    lambda_lb: float
    two_param_lb: float
    true_ratio: Optional[float]
    violation: bool


@dataclass(frozen=True)
class BfsOrder:
    seq: tuple[int, ...]
    oriented_edges: tuple[tuple[int, int], ...]


def bfs_order(g: Graph, root: int = 0) -> BfsOrder:
    """Breadth-first discovery order from root, neighbors in ascending index.

    Every edge is oriented from its earlier-discovered endpoint and the edge
    list is sorted by (head seq, tail seq), which fixes the gate order.
    """
    if not 0 <= root < g.n:
        raise GraphError(f"root {root} out of range")
    seq = [-1] * g.n
    order = [root]
    seq[root] = 0
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in g.adjacency[v]:
            if seq[w] == -1:
                seq[w] = len(order)
                order.append(w)
    if len(order) != g.n:
        raise GraphError("graph is disconnected; BFS orientation undefined")
    oriented = []
    for u, v in g.edges:
        j, k = (u, v) if seq[u] < seq[v] else (v, u)
        oriented.append((j, k))
    oriented.sort(key=lambda e: (seq[e[0]], seq[e[1]]))
    return BfsOrder(seq=tuple(seq), oriented_edges=tuple(oriented))


@dataclass(frozen=True)
class Mixer:
    """The mixer generator A of one run: its layer, O = <i[A, H_f]>, and its norm bounds.

    yz_edges is None for the transverse field, sum_j X_j after a phase layer of
    H_f / m, and holds the gate order of the light cone's sum of Y_j Z_k. With
    feedback the layer coefficient is beta * O, which keeps the certificate
    increments nonnegative; without it the literal beta is used and negative
    increments are clamped by the trackers. Kernels are called through this
    module's names, so rebinding one reaches every call.
    """

    h: MaxCutHamiltonian
    generator: ObservableTerms
    feedback: bool = True
    yz_edges: Optional[tuple[tuple[int, int], ...]] = None

    def observe(self, state) -> float:
        return feedback_observable(state, self.generator, self.h.diag)

    def apply(self, state, alpha: float, dt: float) -> None:
        if self.yz_edges is None:
            apply_diagonal_phase(state, self.h.diag, dt * (1.0 / self.h.m))
            for j in range(self.h.n):
                apply_rx(state, j, alpha * dt)
        else:
            for j, k in self.yz_edges:
                apply_ryz(state, j, k, alpha * dt)

    def norm_bounds(self, alpha: float) -> NormBounds:
        eta = [1.0 / self.h.m] * self.h.m if self.yz_edges is None else []
        return error_constants(self.h, [alpha] * len(self.generator.terms), eta)


def _run_loop(
    mixer: Mixer,
    cfg: RunConfig,
    oracle: Optional[CutOracleResult],
    observer: Optional[Callable],
    stop_at_true_ratio: Optional[float],
) -> list[StepTrace]:
    h = mixer.h
    m = h.m
    state = init_plus(h.n, cap=cfg.state_cap, mirrored=True)
    one = OneParamTracker()
    two = TwoParamTracker()
    optimum = float(oracle.optimum) if oracle is not None else None

    o_cur = mixer.observe(state)
    hf_after = expectation_diagonal(state, h.diag)
    _check_finite(0, o_cur, hf_after)
    if observer is not None:
        observer(0, hf_after, one, two)

    traces: list[StepTrace] = []
    t_elapsed = 0.0
    for p in range(1, cfg.rounds + 1):
        beta = beta_schedule(min(t_elapsed, cfg.rounds * cfg.dt), cfg.rounds, cfg.dt, cfg.beta)
        o_used = o_cur
        alpha = beta * o_used if mixer.feedback else beta
        hf_before = hf_after

        dt_p = cfg.dt
        if cfg.adaptive_dt:
            dt_p = _adaptive_dt(mixer, cfg, two, alpha, o_used, hf_before)

        one_param_step(one, [alpha], [o_used], dt_p, q_exp=float(m))
        froze = False
        two_violated = False
        if not two.frozen:
            q_two = float(m) - hf_before
            try:
                if q_two <= 0:
                    raise DenominatorCollapse(q_exp=q_two, gain=0.0, c=q_two)
                two_param_step(two, [alpha], [o_used], dt_p, q_exp=q_two, a=1.0, b=1.0)
            except DenominatorCollapse:
                two.frozen = True
                froze = True
            two_violated = two.last_violated

        mixer.apply(state, alpha, dt_p)

        o_cur = mixer.observe(state)
        hf_after = expectation_diagonal(state, h.diag)
        _check_finite(p, o_cur, hf_after)
        if p % NORM_CHECK_EVERY == 0:
            _check_norm(p, state)
        t_elapsed = t_elapsed + dt_p if cfg.adaptive_dt else p * cfg.dt
        true_ratio = hf_after / optimum if optimum is not None else None
        traces.append(
            StepTrace(
                step=p,
                t=t_elapsed,
                beta=beta,
                O=o_used,
                alpha=alpha,
                hf_exp=hf_after,
                hf_over_m=hf_after / m,
                lambda_lb=one.lower_bound,
                two_param_lb=two_param_lower_bound(two),
                true_ratio=true_ratio,
                violation=one.last_violated or two_violated or froze,
            )
        )
        if observer is not None:
            observer(p, hf_after, one, two)
        if stop_at_true_ratio is not None and true_ratio is not None and true_ratio >= stop_at_true_ratio:
            break
    _check_norm(len(traces), state)
    return traces


def _check_finite(p: int, o_value: float, hf_value: float) -> None:
    """Stop a run whose feedback value or energy after round p is NaN or infinite."""
    if not (math.isfinite(o_value) and math.isfinite(hf_value)):
        raise StateError(f"non-finite value after round {p}: O={o_value}, <H_f>={hf_value}")


def _check_norm(p: int, state) -> None:
    """Stop a run whose squared norm after round p has drifted from 1 by more than NORM_TOL."""
    drift = abs(state.norm() ** 2 - 1.0)
    if not drift <= NORM_TOL:
        raise StateError(f"norm drift {drift:.3e} after round {p} exceeds {NORM_TOL:g}")


def _adaptive_dt(mixer, cfg, two, alpha, o_cur, hf_before):
    """Admissible step under the error budget, conservative in the next x value.

    A first pass bounds dt with the current x; the x value implied by that dt
    can only shrink the second-pass dt, so the final dt is admissible for the
    x it actually produces.
    """
    bounds = mixer.norm_bounds(alpha)
    dt1 = min(cfg.dt, max_step_size(bounds, cfg.epsilon, x_next=two.x))
    gain1 = max(alpha * o_cur * dt1, 0.0)
    q_two = float(mixer.h.m) - hf_before
    c1 = q_two - gain1
    x1 = two.x * q_two / c1 if (q_two > 0 and c1 > 0 and not two.frozen) else two.x
    return min(dt1, max_step_size(bounds, cfg.epsilon, x_next=max(x1, two.x)))


def run_qaoa_feedback(
    g: Graph,
    h: MaxCutHamiltonian,
    cfg: RunConfig,
    oracle: Optional[CutOracleResult] = None,
    observer: Optional[Callable] = None,
    stop_at_true_ratio: Optional[float] = None,
) -> list[StepTrace]:
    """Transverse-field feedback ansatz: diagonal phase layer then n RX rotations."""
    return _run_loop(Mixer(h, sum_x(g.n)), cfg, oracle, observer, stop_at_true_ratio)


def run_light_cone(
    g: Graph,
    h: MaxCutHamiltonian,
    cfg: RunConfig,
    oracle: Optional[CutOracleResult] = None,
    observer: Optional[Callable] = None,
    stop_at_true_ratio: Optional[float] = None,
) -> list[StepTrace]:
    """BFS-oriented YZ-rotation ansatz with no commuting layer; the whole oriented
    YZ sum is one feedback term, and cfg.lightcone_feedback turns the feedback off."""
    edges = bfs_order(g, root=0).oriented_edges
    mixer = Mixer(h, sum_yz(edges), feedback=cfg.lightcone_feedback, yz_edges=edges)
    return _run_loop(mixer, cfg, oracle, observer, stop_at_true_ratio)
