import numpy as np
import pytest

from lyapcut.graphs import gen_bipartite, gen_erdos_renyi, gen_random_regular, brute_force_max_cut
from lyapcut.hamiltonian import build_maxcut, commutator_terms, error_constants
from lyapcut.statevector import ObservableTerms, expectation_pauli, feedback_observable, StateVector, sum_x, sum_yz

import dense_reference as dense


def naive_cut(x, edges):
    return sum(1 for u, v in edges if ((x >> u) & 1) != ((x >> v) & 1))


class TestBuildMaxcut:
    def test_single_edge_table(self, single_edge):
        h = build_maxcut(single_edge)
        assert h.diag.tolist() == [0, 1, 1, 0]
        assert h.m == 1

    def test_triangle_norm(self, triangle):
        h = build_maxcut(triangle)
        assert h.hf_norm == 2.0

    def test_bipartite_norm_is_m(self):
        for seed in range(3):
            g = gen_bipartite(4, 4, 0.5, seed=seed)
            assert build_maxcut(g).hf_norm == g.m

    def test_table_symmetry_and_range(self, petersen):
        h = build_maxcut(petersen)
        full = (1 << petersen.n) - 1
        idx = np.arange(1 << petersen.n)
        assert np.array_equal(h.diag, h.diag[idx ^ full])
        assert h.diag.min() >= 0 and h.diag.max() <= petersen.m

    @pytest.mark.parametrize("family", ["regular3", "erdos_renyi", "bipartite"])
    def test_every_family_table_is_complement_symmetric(self, family):
        # Mirrored states read diag[:2^(n-1)] and rely on diag == diag[::-1].
        for seed in range(3):
            for n in (4, 6, 8, 10):
                if family == "regular3":
                    g = gen_random_regular(n, 3, seed=seed)
                elif family == "erdos_renyi":
                    g = gen_erdos_renyi(n, 0.5, seed=seed)
                else:
                    g = gen_bipartite(n // 2, n - n // 2, 0.6, seed=seed)
                diag = build_maxcut(g).diag
                assert np.array_equal(diag, diag[::-1])

    def test_matches_naive_recount_on_random_entries(self):
        g = gen_erdos_renyi(16, 0.5, seed=2)
        h = build_maxcut(g)
        rng = np.random.default_rng(0)
        for x in rng.integers(0, 1 << 16, size=200):
            assert int(h.diag[x]) == naive_cut(int(x), g.edges)

    def test_norm_computed_on_first_use_and_kept(self, petersen):
        h = build_maxcut(petersen)
        assert "hf_norm" not in vars(h)
        assert error_constants(h, [1.0], [1.0]).A == 2.0 * 12.0 * 1.0 * 2.0
        assert vars(h)["hf_norm"] == 12.0

    def test_norm_agrees_with_oracle(self):
        for g in [gen_random_regular(10, 3, seed=1), gen_erdos_renyi(9, 0.5, seed=5)]:
            assert build_maxcut(g).hf_norm == brute_force_max_cut(g).optimum

    def test_dense_matrix_agreement(self, triangle):
        h = build_maxcut(triangle)
        mat = dense.dense_maxcut(3, triangle.edges)
        assert np.allclose(np.diag(mat).real, h.diag)


class TestCommutatorTerms:
    def test_single_edge_x_mixer(self, single_edge):
        h = build_maxcut(single_edge)
        out = commutator_terms(sum_x(2), h)
        got = {t.ops: t.coefficient for t in out.terms}
        assert got == {((0, "Y"), (1, "Z")): -1.0, ((0, "Z"), (1, "Y")): -1.0}

    def test_pure_z_mixer_commutes(self, triangle):
        h = build_maxcut(triangle)
        z = ObservableTerms.from_pairs([(1.0, {1: "Z"})])
        assert commutator_terms(z, h).terms == ()

    def test_triangle_x_mixer_has_six_terms(self, triangle):
        h = build_maxcut(triangle)
        out = commutator_terms(sum_x(3), h)
        assert len(out.terms) == 6
        assert all(len(t.ops) == 2 for t in out.terms)

    def test_unsupported_shape_raises(self, triangle):
        h = build_maxcut(triangle)
        bad = ObservableTerms.from_pairs([(1.0, {0: "X", 1: "X"})])
        with pytest.raises(ValueError):
            commutator_terms(bad, h)

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_equivalence_x_mixer(self, seed):
        g = gen_erdos_renyi(5, 0.6, seed=seed)
        h = build_maxcut(g)
        mixer = sum_x(g.n)
        expansion = commutator_terms(mixer, h)
        h_mat = dense.dense_maxcut(g.n, g.edges)
        a_mat = dense.dense_observable(g.n, [(1.0, {j: "X"}) for j in range(g.n)])
        comm = 1j * (a_mat @ h_mat - h_mat @ a_mat)
        expanded = dense.dense_observable(g.n, [(t.coefficient, dict(t.ops)) for t in expansion.terms])
        assert np.max(np.abs(comm - expanded)) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_equivalence_yz_mixer(self, seed):
        g = gen_random_regular(6, 3, seed=seed)
        h = build_maxcut(g)
        oriented = [(u, v) for u, v in g.edges]
        mixer = sum_yz(oriented)
        expansion = commutator_terms(mixer, h)
        h_mat = dense.dense_maxcut(g.n, g.edges)
        a_mat = dense.dense_observable(g.n, [(1.0, {j: "Y", k: "Z"}) for j, k in oriented])
        comm = 1j * (a_mat @ h_mat - h_mat @ a_mat)
        expanded = dense.dense_observable(g.n, [(t.coefficient, dict(t.ops)) for t in expansion.terms])
        assert np.max(np.abs(comm - expanded)) < 1e-10

    def test_fast_feedback_equals_symbolic_expectation(self):
        rng = np.random.default_rng(3)
        g = gen_erdos_renyi(6, 0.5, seed=9)
        h = build_maxcut(g)
        mixer = sum_x(g.n)
        expansion = commutator_terms(mixer, h)
        for _ in range(5):
            s = StateVector(g.n, dense.random_state(g.n, rng))
            assert abs(feedback_observable(s, mixer, h.diag) - expectation_pauli(s, expansion)) < 1e-10


class TestErrorConstants:
    def test_zero_mixer_zeroes_a(self, single_edge):
        h = build_maxcut(single_edge)
        nb = error_constants(h, mixer_coefficients=[0.0, 0.0], eta_coefficients=[1.0])
        assert nb.A == 0.0
        assert nb.C == 1.0

    def test_single_edge_worked_values(self, single_edge):
        h = build_maxcut(single_edge)
        alpha = 0.3
        nb = error_constants(h, mixer_coefficients=[alpha, alpha], eta_coefficients=[1.0])
        assert h.hf_norm == 1.0
        # C is the summed coefficients' norm: the eta part 1 and the mixer part 2 alpha.
        assert nb.C == pytest.approx(1.0 + 2 * alpha)
        assert nb.C - error_constants(h, [], [1.0]).C == pytest.approx(2 * alpha)
        assert nb.A == pytest.approx(2 * 1.0 * (2 * alpha) * (1.0 + 2 * alpha))
        # B drops the last mixer coefficient from both partial sums
        assert nb.B == pytest.approx(2 * 1.0 * ((1.0 + alpha) + (1.0 + alpha)))

    def test_mixer_scaling_homogeneity(self, triangle):
        h = build_maxcut(triangle)
        eta = [1 / 3] * 3
        nb1 = error_constants(h, [0.1] * 3, eta)
        nb2 = error_constants(h, [0.2] * 3, eta)
        eta_part = error_constants(h, [], eta).C
        assert nb2.C - eta_part == pytest.approx(2 * (nb1.C - eta_part))
        assert (nb1.C, nb2.C) == (sum(eta) + sum([0.1] * 3), sum(eta) + sum([0.2] * 3))

    def test_monotone_in_coefficients(self, petersen):
        h = build_maxcut(petersen)
        base = error_constants(h, [0.1] * 10, [1 / 15] * 15)
        bigger = error_constants(h, [0.1] * 9 + [0.5], [1 / 15] * 15)
        assert bigger.A >= base.A and bigger.B >= base.B and bigger.C >= base.C
        bigger_eta = error_constants(h, [0.1] * 10, [1 / 15] * 14 + [0.5])
        assert bigger_eta.A >= base.A and bigger_eta.B >= base.B and bigger_eta.C >= base.C

    def test_empty_mixer(self, single_edge):
        h = build_maxcut(single_edge)
        nb = error_constants(h, [], [1.0])
        assert nb.A == 0.0 and nb.C == 1.0
        assert nb.B == pytest.approx(4.0)
