"""Feedback evolution loops: schedule, the Mixer, and the two ansatz drivers.

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
every NORM_CHECK_EVERY rounds and after the last one; an adaptive step that
is not positive stops it too. A runner calls its observer with (p, <H_f>,
one-parameter tracker, two-parameter tracker) after round p, from p = 0 on the
plus state, and returns a Run: the trace rows and the run's per-run facts.

Both loops evolve the mirrored half of the state (see statevector): every
layer and both mixers commute with the global bit flip, and so does |+>. The
loop builds the Mixer's Workspace once on that state and passes it to every
kernel call.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional

from .certificates import Certificates
from .graphs import CutOracleResult, Graph, GraphError, bfs_order
from .hamiltonian import MaxCutHamiltonian, NormBounds, error_constants
from .statevector import (
    RX_BLOCKS_FROM_N,
    STATE_CAP_DEFAULT,
    ObservableTerms,
    StateError,
    Workspace,
    apply_diagonal_phase,
    apply_rx,
    apply_rx_blocks,
    apply_yz_layer,
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

    def __post_init__(self) -> None:
        for name, low, high in (("c", 0.0, math.inf), ("floor", 0.0, 1.0), ("rate", 0.0, math.inf)):
            value = getattr(self, name)
            if not (math.isfinite(value) and low <= value <= high):
                span = f">= {low:g}" if high == math.inf else f"in [{low:g}, {high:g}]"
                raise ValueError(f"beta {name} must be finite and {span}, got {value}")


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
    state_cap: int = STATE_CAP_DEFAULT

    def __post_init__(self) -> None:
        if self.ansatz not in ANSATZE:
            raise ValueError(f"ansatz must be one of {ANSATZE}, got {self.ansatz!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if isinstance(self.rounds, bool) or not isinstance(self.rounds, numbers.Integral):
            raise ValueError(f"rounds must be an integer, got {self.rounds!r}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not 2 <= self.state_cap <= STATE_CAP_DEFAULT:
            raise ValueError(f"state_cap must be in [2, {STATE_CAP_DEFAULT}], got {self.state_cap}")


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
class Run(Sequence):
    """One run, read as the sequence of its trace rows, with the per-run facts the rows leave out:
    the clamped increments of each tracker, which a row's violation flag merges; freeze_round, the
    round whose denominator collapse froze the two-parameter tracker (None when it never froze);
    and final_norm_drift, | ||psi||^2 - 1 | at the run's last norm check."""

    traces: tuple[StepTrace, ...]
    one_param_clamps: int
    two_param_clamps: int
    freeze_round: Optional[int]
    final_norm_drift: float

    def __getitem__(self, index):
        return self.traces[index]

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)


@dataclass(frozen=True)
class Mixer:
    """The mixer generator A of one run: its layer, O = <i[A, H_f]>, and its norm bounds.

    The layer fixes the generator, which __post_init__ sets. yz_edges None is
    the transverse field, a phase layer of H_f / m then generator sum_j X_j;
    an edge tuple is the light cone's gate order, and the generator is the sum
    of Y_j Z_k over those edges. When |tan theta| <= 1, theta = alpha dt, the
    transverse-field layer applies each RX gate divided by cos theta, which
    saves a pass over the state per gate, and puts the row's cos^n theta into
    the phase layer's level table; the layer stays exact. Otherwise it applies
    the plain gates, so that scale never falls below 2^(-n/2). From n =
    RX_BLOCKS_FROM_N on, the gates on qubits 0..n-2 are one apply_rx_blocks
    call, a few single-thread BLAS products over the state, and qubit n-1
    takes apply_rx; below it each gate is one apply_rx call, so runs up to
    n = 12 keep their bytes. The switch, statevector's one constant, was
    placed by timing whole rounds at n = 12, 13 and 14 (CHANGES.md), and
    feedback_observable reads it too. With feedback
    the layer coefficient is beta * O, which keeps the certificate increments
    nonnegative; without it the literal beta is used and negative increments
    are clamped by the trackers. Kernels are called through this module's
    names, so rebinding one reaches every call.

    workspace(state) builds the run's one Workspace on the state buffer: the
    kernels' views, scratch buffer and feedback tables (one weight table per
    BFS head for the light cone, only the X_j sums for the transverse field).
    The round loop builds it once and passes it to every call.
    """

    h: MaxCutHamiltonian
    feedback: bool = True
    yz_edges: Optional[tuple[tuple[int, int], ...]] = None
    generator: ObservableTerms = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "generator", sum_x(self.h.n) if self.yz_edges is None else sum_yz(self.yz_edges))

    def workspace(self, state) -> Workspace:
        return Workspace.build(state, self.generator, self.h.diag)

    def observe(self, state, workspace: Optional[Workspace] = None) -> float:
        return feedback_observable(state, self.generator, self.h.diag, workspace=workspace)

    def apply(self, state, alpha: float, dt: float, workspace: Optional[Workspace] = None) -> None:
        if self.yz_edges is None:
            theta = alpha * dt
            c = math.cos(theta)
            unit = abs(math.sin(theta)) <= abs(c)
            apply_diagonal_phase(state, self.h.diag, dt * (1.0 / self.h.m), workspace=workspace,
                                 scale=c ** self.h.n if unit else 1.0)
            gates = range(self.h.n)
            if self.h.n >= RX_BLOCKS_FROM_N:
                apply_rx_blocks(state, theta, workspace=workspace, unit_diagonal=unit)
                # Qubit n-1 of a mirrored state, which the blocks leave out.
                gates = range(self.h.n - state.mirrored, self.h.n)
            for j in gates:
                apply_rx(state, j, theta, workspace=workspace, unit_diagonal=unit)
        else:
            apply_yz_layer(state, self.yz_edges, alpha * dt, workspace=workspace)

    def norm_bounds(self, alpha: float) -> NormBounds:
        eta = [1.0 / self.h.m] * self.h.m if self.yz_edges is None else []
        return error_constants(self.h, [alpha] * len(self.generator.terms), eta)


def _run_loop(
    mixer: Mixer,
    cfg: RunConfig,
    oracle: Optional[CutOracleResult],
    observer: Optional[Callable],
    stop_at_true_ratio: Optional[float],
) -> Run:
    h = mixer.h
    m = h.m
    state = init_plus(h.n, cap=cfg.state_cap, mirrored=True)
    workspace = mixer.workspace(state)
    certs = Certificates(m)
    optimum = float(oracle.optimum) if oracle is not None else None

    o_cur = mixer.observe(state, workspace)
    hf_after = expectation_diagonal(state, h.diag, workspace=workspace)
    _check_finite(0, o_cur, hf_after)
    if observer is not None:
        observer(0, hf_after, certs.one, certs.two)

    traces: list[StepTrace] = []
    freeze_round = None
    t_elapsed = 0.0
    for p in range(1, cfg.rounds + 1):
        beta = beta_schedule(min(t_elapsed, cfg.rounds * cfg.dt), cfg.rounds, cfg.dt, cfg.beta)
        o_used = o_cur
        alpha = beta * o_used if mixer.feedback else beta
        hf_before = hf_after

        dt_p = cfg.dt
        if cfg.adaptive_dt:
            dt_p = certs.step_size(mixer.norm_bounds(alpha), cfg.epsilon, cfg.dt, alpha, o_used, hf_before)
            if not dt_p > 0:
                raise StateError(f"adaptive step {dt_p} in round {p} is not positive: alpha={alpha}, O={o_used}")
        violation = certs.advance(alpha, o_used, dt_p, hf_before)
        if certs.two.frozen and freeze_round is None:
            freeze_round = p

        mixer.apply(state, alpha, dt_p, workspace)

        o_cur = mixer.observe(state, workspace)
        hf_after = expectation_diagonal(state, h.diag, workspace=workspace)
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
                lambda_lb=certs.lambda_lb,
                two_param_lb=certs.two_param_lb,
                true_ratio=true_ratio,
                violation=violation,
            )
        )
        if observer is not None:
            observer(p, hf_after, certs.one, certs.two)
        if stop_at_true_ratio is not None and true_ratio is not None and true_ratio >= stop_at_true_ratio:
            break
    drift = _check_norm(len(traces), state)
    return Run(tuple(traces), certs.one.violations, certs.two.violations, freeze_round, drift)


def _check_finite(p: int, o_value: float, hf_value: float) -> None:
    """Stop a run whose feedback value or energy after round p is NaN or infinite."""
    if not (math.isfinite(o_value) and math.isfinite(hf_value)):
        raise StateError(f"non-finite value after round {p}: O={o_value}, <H_f>={hf_value}")


def _check_norm(p: int, state) -> float:
    """The drift | ||psi||^2 - 1 | after round p; stop a run whose drift exceeds NORM_TOL."""
    drift = abs(state.norm() ** 2 - 1.0)
    if not drift <= NORM_TOL:
        raise StateError(f"norm drift {drift:.3e} after round {p} exceeds {NORM_TOL:g}")
    return drift


def _check_graph(g: Graph, h: MaxCutHamiltonian) -> None:
    if h.graph != g:
        raise GraphError(f"the Hamiltonian belongs to another graph (n={h.n}, m={h.m}) than g (n={g.n}, m={g.m})")


def run_qaoa_feedback(
    g: Graph,
    h: MaxCutHamiltonian,
    cfg: RunConfig,
    oracle: Optional[CutOracleResult] = None,
    observer: Optional[Callable] = None,
    stop_at_true_ratio: Optional[float] = None,
) -> Run:
    """Transverse-field feedback ansatz: diagonal phase layer then n RX rotations
    (see Mixer); observer and the returned Run as in the module docstring."""
    _check_graph(g, h)
    return _run_loop(Mixer(h), cfg, oracle, observer, stop_at_true_ratio)


def run_light_cone(
    g: Graph,
    h: MaxCutHamiltonian,
    cfg: RunConfig,
    oracle: Optional[CutOracleResult] = None,
    observer: Optional[Callable] = None,
    stop_at_true_ratio: Optional[float] = None,
) -> Run:
    """BFS-oriented YZ-rotation ansatz with no commuting layer; the whole oriented
    YZ sum is one feedback term, and cfg.lightcone_feedback turns the feedback off."""
    _check_graph(g, h)
    edges = bfs_order(g, root=0).oriented_edges
    mixer = Mixer(h, feedback=cfg.lightcone_feedback, yz_edges=edges)
    return _run_loop(mixer, cfg, oracle, observer, stop_at_true_ratio)
