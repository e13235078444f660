import math

import pytest

from lyapcut.certificates import (
    Certificates,
    DenominatorCollapse,
    OneParamTracker,
    TwoParamTracker,
    max_step_size,
    one_param_step,
    potential_value,
    two_param_lower_bound,
    two_param_step,
)
from lyapcut.dynamics import BetaParams, RunConfig, run_light_cone, run_qaoa_feedback
from lyapcut.graphs import Graph, gen_erdos_renyi, gen_random_regular
from lyapcut.hamiltonian import NormBounds, build_maxcut, error_constants

# Single-edge worked example, frozen from direct evaluation of the update rules
# with beta = 0.02, O = 2 sin(0.08), dt = 0.08.
O_SINGLE_EDGE = 2 * math.sin(0.08)
GAIN = 0.02 * O_SINGLE_EDGE**2 * 0.08
X_AFTER = 1.0000817520692504
Y_AFTER = 8.17520692504771e-05


class TestOneParam:
    def test_zero_observables_zero_increment(self):
        tr = one_param_step(OneParamTracker(), [0.5, 0.5], [0.0, 0.0], dt=0.08, q_exp=3.0)
        assert tr.lam == 0.0
        assert not tr.last_violated

    def test_single_edge_increment(self):
        alpha = 0.02 * O_SINGLE_EDGE
        tr = one_param_step(OneParamTracker(), [alpha], [O_SINGLE_EDGE], dt=0.08, q_exp=1.0)
        assert tr.lam == pytest.approx(4.0872693197993775e-05, abs=1e-18)

    def test_linear_in_beta(self):
        a1 = one_param_step(OneParamTracker(), [0.02 * 0.3], [0.3], 0.08, 2.0).lam
        a2 = one_param_step(OneParamTracker(), [0.04 * 0.3], [0.3], 0.08, 2.0).lam
        assert a2 == pytest.approx(2 * a1)

    def test_negative_gain_clamped_and_counted(self):
        tr = OneParamTracker()
        one_param_step(tr, [-0.1], [0.5], 0.08, 1.0)
        assert tr.lam == 0.0
        assert tr.violations == 1
        assert tr.last_violated

    def test_monotone_over_updates(self):
        tr = OneParamTracker()
        vals = []
        for o in [0.1, 0.4, 0.0, 0.7]:
            one_param_step(tr, [0.02 * o], [o], 0.08, 5.0)
            vals.append(tr.lam)
        assert vals == sorted(vals)

    def test_errors(self):
        with pytest.raises(ValueError):
            one_param_step(OneParamTracker(), [0.1], [0.1], 0.08, q_exp=0.0)
        with pytest.raises(ValueError):
            one_param_step(OneParamTracker(), [0.1, 0.2], [0.1], 0.08, 1.0)


class TestTwoParam:
    def test_zero_gain_leaves_tracker(self):
        tr = two_param_step(TwoParamTracker(), [0.3], [0.0], 0.08, q_exp=2.0, a=1.0, b=1.0)
        assert tr.x == 1.0 and tr.y == 0.0

    def test_a_zero_degenerates_to_one_param_bitwise(self):
        alphas, os_, dt, q = [0.0173], [0.411], 0.08, 3.7
        one = one_param_step(OneParamTracker(), alphas, os_, dt, q)
        two = two_param_step(TwoParamTracker(), alphas, os_, dt, q_exp=q, a=0.0, b=1.0)
        assert two.x == 1.0
        assert two.y == one.lam  # identical float arithmetic, not just close

    def test_single_edge_worked_values(self):
        tr = two_param_step(
            TwoParamTracker(), [0.02 * O_SINGLE_EDGE], [O_SINGLE_EDGE], 0.08,
            q_exp=0.5, a=1.0, b=1.0,
        )
        assert tr.x == pytest.approx(X_AFTER, abs=1e-15)
        assert tr.y == pytest.approx(Y_AFTER, abs=1e-18)

    def test_lower_bound_fresh_and_after_updates(self):
        tr = TwoParamTracker()
        assert two_param_lower_bound(tr) == 0.0
        for o in [0.3, 0.5, 0.2]:
            two_param_step(tr, [0.02 * o], [o], 0.08, q_exp=1.5, a=1.0, b=1.0)
        assert 0.0 <= two_param_lower_bound(tr) <= 1.0 + 1e-9
        assert tr.x > 0

    def test_denominator_collapse_carries_values(self):
        with pytest.raises(DenominatorCollapse) as err:
            two_param_step(TwoParamTracker(), [10.0], [10.0], 1.0, q_exp=0.5, a=1.0, b=1.0)
        assert err.value.q_exp == 0.5
        assert err.value.c <= 0

    def test_negative_gain_clamped(self):
        tr = two_param_step(TwoParamTracker(), [-0.2], [0.4], 0.08, q_exp=1.0, a=1.0, b=1.0)
        assert tr.x == 1.0 and tr.y == 0.0
        assert tr.violations == 1

    def test_frozen_tracker_ignores_updates(self):
        tr = TwoParamTracker(frozen=True)
        two_param_step(tr, [0.1], [0.5], 0.08, q_exp=1.0, a=1.0, b=1.0)
        assert tr.x == 1.0 and tr.y == 0.0


    def test_zero_budget_collapses(self):
        with pytest.raises(DenominatorCollapse) as err:
            two_param_step(TwoParamTracker(), [0.1], [0.5], 0.08, q_exp=0.0, a=1.0, b=1.0)
        assert err.value.q_exp == 0.0 and err.value.c <= 0


class TestCertificates:
    M = 3

    def test_fresh_bounds_are_zero(self):
        certs = Certificates(self.M)
        assert certs.lambda_lb == 0.0 and certs.two_param_lb == 0.0

    def test_advance_matches_the_step_functions(self):
        certs = Certificates(self.M)
        assert not certs.advance(0.02 * 0.3, 0.3, 0.08, hf=1.2)
        one = one_param_step(OneParamTracker(), [0.02 * 0.3], [0.3], 0.08, q_exp=3.0)
        two = two_param_step(TwoParamTracker(), [0.02 * 0.3], [0.3], 0.08, q_exp=3.0 - 1.2, a=1.0, b=1.0)
        assert (certs.one, certs.two) == (one, two)
        assert certs.lambda_lb == one.lam and certs.two_param_lb == two_param_lower_bound(two)

    def test_negative_gain_clamps_both_trackers_and_flags(self):
        # Feedback off: the literal beta times a negative O gives a negative increment.
        certs = Certificates(self.M)
        assert certs.advance(0.04, -0.5, 0.1, hf=1.5)
        assert (certs.one.violations, certs.two.violations) == (1, 1)
        assert (certs.one.lam, certs.two.x, certs.two.y) == (0.0, 1.0, 0.0)

    def test_only_the_freeze_round_is_flagged_and_the_frozen_tracker_holds(self):
        certs = Certificates(self.M)
        certs.advance(0.02 * 0.3, 0.3, 0.08, hf=1.2)
        held = (certs.two.x, certs.two.y, certs.two_param_lb)
        assert certs.advance(10.0, 10.0, 1.0, hf=1.2)  # c = 1.8 - 100 <= 0
        assert certs.two.frozen and not certs.two.last_violated
        assert (certs.two.x, certs.two.y, certs.two_param_lb) == held
        lam = certs.lambda_lb
        assert not certs.advance(0.02 * 0.3, 0.3, 0.08, hf=1.2)
        assert certs.lambda_lb > lam
        assert (certs.two.x, certs.two.y, certs.two_param_lb) == held

    def test_one_param_clamp_flags_after_the_freeze(self):
        certs = Certificates(self.M)
        certs.advance(0.1, 0.5, 0.1, hf=float(self.M))
        assert certs.advance(0.04, -0.5, 0.1, hf=1.5)
        assert (certs.one.violations, certs.two.violations) == (1, 0)

    def test_advance_at_zero_budget_freezes(self):
        certs = Certificates(self.M)
        assert certs.advance(0.1, 0.5, 0.1, hf=float(self.M))
        assert certs.two.frozen
        assert (certs.two.x, certs.two.y) == (1.0, 0.0)
        assert certs.one.lam > 0

    BOUNDS = NormBounds(0, 0, 0, A=1.0, B=1.0, C=1.0)

    def first_pass(self, certs, epsilon=1e-3, dt_max=0.1):
        return min(dt_max, max_step_size(self.BOUNDS, epsilon, x_next=certs.two.x))

    def test_step_size_look_ahead_shrinks_the_step(self):
        certs = Certificates(self.M)
        dt = certs.step_size(self.BOUNDS, 1e-3, 0.1, alpha=1.0, o=1.0, hf=1.5)
        assert 0 < dt < self.first_pass(certs)

    def test_step_size_skips_the_look_ahead_when_frozen(self):
        certs = Certificates(self.M)
        certs.advance(0.1, 0.5, 0.1, hf=float(self.M))
        assert certs.step_size(self.BOUNDS, 1e-3, 0.1, alpha=1.0, o=1.0, hf=1.5) == self.first_pass(certs)

    def test_step_size_keeps_x_when_the_look_ahead_collapses(self):
        certs = Certificates(self.M)
        assert certs.step_size(self.BOUNDS, 1e-3, 0.1, alpha=1.0, o=1.0, hf=float(self.M)) == self.first_pass(certs)
        assert not certs.two.frozen
        assert (certs.one.lam, certs.two.x, certs.two.y) == (0.0, 1.0, 0.0)

    def test_step_size_is_capped_by_dt_max(self):
        certs = Certificates(self.M)
        vacuous = NormBounds(0, 0, 0, A=0.0, B=0.0, C=0.0)
        assert certs.step_size(vacuous, 1e-3, 0.05, alpha=1.0, o=1.0, hf=1.5) == 0.05


def identity_residuals(runner, g, cfg):
    """Run g and check the certificates' exact identities on every round from the observer and the trace.

    With h_p = <H_f>/m after round p, g_k the clamped gain max(alpha O dt, 0) and r_k = dH_k - g_k:
    lambda_p = h_p - 1/2 - (1/m) sum r_k, and, up to the freeze round, y_p/x_p = 2 h_p - 1 -
    (2/(m x_p)) sum x_k r_k. Returns the worst residual of each, the clamp count and the freeze round."""
    seen = []
    traces = runner(g, build_maxcut(g), cfg,
                    observer=lambda p, hf, one, two: seen.append((hf, one.lam, two.x, two.y, two.frozen)))
    m = g.m
    sum_r = sum_xr = t_prev = worst_one = worst_two = 0.0
    clamps, freeze = 0, None
    for p, tr in enumerate(traces, 1):
        gain = tr.alpha * tr.O * (tr.t - t_prev)
        t_prev = tr.t
        clamps += gain < 0
        hf, lam, x, y, frozen = seen[p]
        r = hf - seen[p - 1][0] - max(gain, 0.0)
        sum_r += r
        sum_xr += x * r
        h_p = hf / m
        worst_one = max(worst_one, abs(lam - (h_p - 0.5 - sum_r / m)))
        if frozen and freeze is None:
            freeze = p
        if freeze is None:
            worst_two = max(worst_two, abs(y / x - (2 * h_p - 1 - 2 / (m * x) * sum_xr)))
    return worst_one, worst_two, clamps, freeze


CUBIC10 = gen_random_regular(10, 3, seed=1)
ER10 = gen_erdos_renyi(10, 0.5, seed=2)
K2 = gen_erdos_renyi(2, 1.0, seed=0)
FREEZE = dict(dt=0.1, rounds=12, beta=BetaParams(c=20))


class TestExactIdentities:
    """Both bounds follow from <H_f> and the per-round remainders alone, to rounding: with clamps, where
    the clamped gain enters r_k, and through a freeze, after which the two-parameter bound holds."""

    @pytest.mark.parametrize("runner, g, cfg, clamped, freeze", [
        (run_qaoa_feedback, CUBIC10, RunConfig(rounds=300), False, None),
        (run_qaoa_feedback, ER10, RunConfig(rounds=60, adaptive_dt=True), False, None),
        (run_light_cone, CUBIC10, RunConfig(ansatz="light_cone", rounds=30), False, None),
        (run_light_cone, ER10, RunConfig(ansatz="light_cone", rounds=20, adaptive_dt=True), False, None),
        (run_light_cone, CUBIC10, RunConfig(ansatz="light_cone", rounds=100, lightcone_feedback=False,
                                            beta=BetaParams(c=0.5)), True, None),
        (run_qaoa_feedback, K2, RunConfig(**FREEZE), False, 8),
        (run_light_cone, K2, RunConfig(ansatz="light_cone", **FREEZE), False, 1),
    ], ids=["qaoa_fixed", "qaoa_adaptive", "light_cone_fixed", "light_cone_adaptive", "light_cone_clamps",
            "qaoa_freeze", "light_cone_freeze"])
    def test_bounds_equal_their_identities(self, runner, g, cfg, clamped, freeze):
        worst_one, worst_two, clamps, frozen_at = identity_residuals(runner, g, cfg)
        assert (clamps > 0, frozen_at) == (clamped, freeze)
        assert worst_one <= 1e-12
        assert worst_two <= 1e-12


class TestMaxStepSize:
    def test_reduces_to_epsilon(self):
        nb = NormBounds(0, 0, 0, A=0.0, B=1.0, C=0.0)
        assert max_step_size(nb, 1e-3) == pytest.approx(1e-3)

    def test_small_epsilon_sqrt_asymptotics(self):
        nb = NormBounds(0, 0, 0, A=4.0, B=0.0, C=0.0)
        for eps in [1e-6, 1e-8]:
            assert max_step_size(nb, eps) == pytest.approx(math.sqrt(eps / 4.0))

    def test_single_edge_constants_hand_evaluation(self, single_edge):
        h = build_maxcut(single_edge)
        alpha = 0.02 * O_SINGLE_EDGE
        nb = error_constants(h, [alpha, alpha], [1.0])
        eps = 1e-3
        expected = eps / (nb.B + nb.C * eps + math.sqrt(nb.A * eps))
        got = max_step_size(nb, eps)
        assert got == pytest.approx(expected)
        assert 0 < got < math.inf

    def test_two_param_variant_shrinks_with_x(self):
        nb = NormBounds(0, 0, 0, A=1.0, B=1.0, C=1.0)
        assert max_step_size(nb, 1e-3, x_next=2.0) < max_step_size(nb, 1e-3, x_next=1.0)

    def test_degenerate_returns_infinity(self):
        nb = NormBounds(0, 0, 0, A=0.0, B=0.0, C=0.0)
        assert max_step_size(nb, 1e-3) == math.inf

    def test_bad_inputs(self):
        nb = NormBounds(0, 0, 0, A=1.0, B=1.0, C=1.0)
        with pytest.raises(ValueError):
            max_step_size(nb, 0.0)
        with pytest.raises(ValueError):
            max_step_size(nb, 1e-3, x_next=0.0)


class TestPotentialValue:
    def test_one_param_gauge(self):
        assert potential_value(1.5, 2.0, OneParamTracker()) == 1.5

    def test_two_param_gauge(self):
        assert potential_value(1.5, 2.0, TwoParamTracker()) == 1.5

    def test_shifts_with_parameters(self):
        one = OneParamTracker(lam=0.25)
        assert potential_value(1.5, 2.0, one) == pytest.approx(1.0)
        two = TwoParamTracker(x=2.0, y=0.5)
        assert potential_value(1.5, 2.0, two) == pytest.approx(2.0)

    def test_requires_positive_optimum(self):
        with pytest.raises(ValueError):
            potential_value(1.0, 0.0, OneParamTracker())
