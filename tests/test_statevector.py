import math
import tracemalloc

import numpy as np
import pytest

from lyapcut.statevector import (
    ObservableTerms,
    StateError,
    apply_diagonal_phase,
    apply_observable,
    apply_rx,
    apply_ryz,
    apply_rzz,
    apply_yz_layer,
    expectation_diagonal,
    expectation_pauli,
    feedback_observable,
    init_plus,
    sum_x,
    sum_yz,
    StateVector,
    Workspace,
)

from lyapcut.graphs import Graph, bfs_order, gen_erdos_renyi

import dense_reference as dense


def naive_cut_table(n, edges):
    # Pure-python recount, independent of every package code path.
    table = []
    for x in range(1 << n):
        table.append(sum(1 for u, v in edges if ((x >> u) & 1) != ((x >> v) & 1)))
    return np.array(table)


def random_sv(n, rng):
    return StateVector(n, dense.random_state(n, rng))


class TestInitPlus:
    def test_one_qubit(self):
        s = init_plus(1)
        assert np.allclose(s.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_two_qubits(self):
        s = init_plus(2)
        assert np.allclose(s.amplitudes, [0.5] * 4)

    def test_norm_is_one(self):
        assert abs(init_plus(6).norm() - 1.0) < 1e-12

    def test_cap(self):
        with pytest.raises(StateError):
            init_plus(25)
        with pytest.raises(StateError):
            init_plus(0)


class TestGatesAgainstDense:
    def test_rx_zero_is_identity(self):
        rng = np.random.default_rng(1)
        s = random_sv(3, rng)
        before = s.amplitudes.copy()
        apply_rx(s, 1, 0.0)
        assert np.allclose(s.amplitudes, before, atol=1e-15)

    def test_rx_halfpi_on_zero(self):
        s = StateVector(1, np.array([1.0 + 0j, 0.0]))
        apply_rx(s, 0, math.pi / 2)
        assert np.allclose(s.amplitudes, [0.0, -1j], atol=1e-15)

    def test_rx_matches_dense(self):
        rng = np.random.default_rng(2)
        for n in range(2, 9):
            for q in range(n):
                s = random_sv(n, rng)
                theta = float(rng.uniform(-1.5, 1.5))
                expect = dense.dense_rx(n, q, theta) @ s.amplitudes
                apply_rx(s, q, theta)
                assert np.max(np.abs(s.amplitudes - expect)) < 1e-10

    def test_rzz_zero_is_identity(self):
        rng = np.random.default_rng(3)
        s = random_sv(3, rng)
        before = s.amplitudes.copy()
        apply_rzz(s, 0, 2, 0.0)
        assert np.allclose(s.amplitudes, before, atol=1e-15)

    def test_rzz_eigenstate_phase(self):
        s = StateVector(2, np.array([1.0 + 0j, 0, 0, 0]))
        apply_rzz(s, 0, 1, 0.5)
        assert abs(s.amplitudes[0] - np.exp(-0.5j)) < 1e-15

    def test_rzz_matches_dense(self):
        rng = np.random.default_rng(4)
        for q1, q2 in [(0, 1), (0, 2), (1, 2), (2, 0)]:
            s = random_sv(3, rng)
            expect = dense.dense_rzz(3, q1, q2, 0.4) @ s.amplitudes
            apply_rzz(s, q1, q2, 0.4)
            assert np.max(np.abs(s.amplitudes - expect)) < 1e-10

    def test_ryz_zero_is_identity(self):
        rng = np.random.default_rng(5)
        s = random_sv(3, rng)
        before = s.amplitudes.copy()
        apply_ryz(s, 0, 1, 0.0)
        assert np.allclose(s.amplitudes, before, atol=1e-15)

    def test_ryz_inverse_pair(self):
        rng = np.random.default_rng(6)
        s = random_sv(3, rng)
        before = s.amplitudes.copy()
        apply_ryz(s, 2, 0, 0.7)
        apply_ryz(s, 2, 0, -0.7)
        assert np.max(np.abs(s.amplitudes - before)) < 1e-12

    def test_ryz_matches_dense(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            for qy, qz in [(j, k) for j in range(n) for k in range(n) if j != k]:
                s = random_sv(n, rng)
                theta = float(rng.uniform(-1.5, 1.5))
                expect = dense.dense_ryz(n, qy, qz, theta) @ s.amplitudes
                apply_ryz(s, qy, qz, theta)
                assert np.max(np.abs(s.amplitudes - expect)) < 1e-10

    def test_gate_index_errors(self):
        s = init_plus(2)
        with pytest.raises(StateError):
            apply_rx(s, 2, 0.1)
        with pytest.raises(StateError):
            apply_rzz(s, 0, 0, 0.1)
        with pytest.raises(StateError):
            apply_ryz(s, 1, 1, 0.1)


class TestDiagonalOps:
    def test_phase_zero_identity(self):
        rng = np.random.default_rng(8)
        s = random_sv(3, rng)
        before = s.amplitudes.copy()
        apply_diagonal_phase(s, np.zeros(8, dtype=np.int64), 0.7)
        apply_diagonal_phase(s, naive_cut_table(3, [(0, 1)]), 0.0)
        assert np.allclose(s.amplitudes, before, atol=1e-15)

    def test_all_ones_is_global_phase(self):
        rng = np.random.default_rng(9)
        s = random_sv(3, rng)
        obs = ObservableTerms.from_pairs([(0.7, {0: "X", 2: "Z"}), (1.1, {1: "Y"})])
        before = expectation_pauli(s, obs)
        apply_diagonal_phase(s, np.ones(8, dtype=np.int64), 0.3)
        assert abs(expectation_pauli(s, obs) - before) < 1e-12

    def test_single_edge_matches_rzz_up_to_global_phase(self):
        # exp(-i g (I - Z0 Z1)/2) equals a global phase times exp(+i (g/2) Z0 Z1).
        gamma = 0.08
        diag = naive_cut_table(2, [(0, 1)])
        rng = np.random.default_rng(10)
        s1 = random_sv(2, rng)
        s2 = s1.copy()
        apply_diagonal_phase(s1, diag, gamma)
        apply_rzz(s2, 0, 1, -gamma / 2)
        s2.amplitudes *= np.exp(-1j * gamma / 2)
        assert np.max(np.abs(s1.amplitudes - s2.amplitudes)) < 1e-12

    def test_phase_matches_dense(self):
        rng = np.random.default_rng(11)
        diag = naive_cut_table(3, [(0, 1), (1, 2)])
        s = random_sv(3, rng)
        expect = dense.dense_diag_phase(diag, 0.33) @ s.amplitudes
        apply_diagonal_phase(s, diag, 0.33)
        assert np.max(np.abs(s.amplitudes - expect)) < 1e-10

    def test_length_mismatch(self):
        s = init_plus(3)
        with pytest.raises(StateError):
            apply_diagonal_phase(s, np.zeros(4), 0.1)
        with pytest.raises(StateError):
            expectation_diagonal(s, np.zeros(4))

    def test_expectation_plus_state_is_half_m(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        diag = naive_cut_table(4, edges)
        assert abs(expectation_diagonal(init_plus(4), diag) - len(edges) / 2) < 1e-12

    def test_expectation_basis_state(self):
        diag = naive_cut_table(3, [(0, 1), (1, 2)])
        for x in range(8):
            amps = np.zeros(8, dtype=complex)
            amps[x] = 1.0
            assert expectation_diagonal(StateVector(3, amps), diag) == pytest.approx(diag[x])

    def test_expectation_matches_dense(self):
        rng = np.random.default_rng(12)
        edges = [(0, 1), (0, 2)]
        diag = naive_cut_table(3, edges)
        s = random_sv(3, rng)
        h = dense.dense_maxcut(3, edges)
        expect = float((s.amplitudes.conj() @ h @ s.amplitudes).real)
        assert abs(expectation_diagonal(s, diag) - expect) < 1e-10


class TestPauliExpectations:
    def test_yz_vanishes_on_plus(self):
        s = init_plus(3)
        assert abs(expectation_pauli(s, sum_yz([(0, 1), (1, 2)]))) < 1e-12

    def test_x_is_one_on_plus(self):
        s = init_plus(3)
        obs = ObservableTerms.from_pairs([(1.0, {1: "X"})])
        assert expectation_pauli(s, obs) == pytest.approx(1.0)

    def test_three_term_observable_matches_dense(self):
        rng = np.random.default_rng(13)
        pairs = [(0.8, {0: "X", 3: "Y"}), (-1.3, {1: "Z"}), (0.4, {0: "Y", 1: "Z", 2: "X"})]
        s = random_sv(4, rng)
        expect = float((s.amplitudes.conj() @ dense.dense_observable(4, pairs) @ s.amplitudes).real)
        got = expectation_pauli(s, ObservableTerms.from_pairs(pairs))
        assert abs(got - expect) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(14)
        s = random_sv(4, rng)
        t1 = [(1.0, {0: "X", 1: "Z"})]
        t2 = [(1.0, {2: "Y"})]
        c1, c2 = 0.37, -1.21
        combo = [(c1, t1[0][1]), (c2, t2[0][1])]
        lhs = expectation_pauli(s, ObservableTerms.from_pairs(combo))
        rhs = c1 * expectation_pauli(s, ObservableTerms.from_pairs(t1)) + c2 * expectation_pauli(
            s, ObservableTerms.from_pairs(t2)
        )
        assert abs(lhs - rhs) < 1e-12

    def test_apply_observable_matches_dense_matrix_action(self):
        rng = np.random.default_rng(15)
        pairs = [(0.5, {0: "Y"}), (1.5, {1: "X", 2: "Z"}), (-0.2, {})]
        vec = dense.random_state(3, rng)
        expect = dense.dense_observable(3, [(c, o) for c, o in pairs]) @ vec
        got = apply_observable(vec, 3, ObservableTerms.from_pairs(pairs))
        assert np.max(np.abs(got - expect)) < 1e-10


class TestFeedbackObservable:
    def test_commuting_mixer_gives_zero(self):
        rng = np.random.default_rng(16)
        s = random_sv(3, rng)
        diag = naive_cut_table(3, [(0, 1), (1, 2)])
        z_mixer = ObservableTerms.from_pairs([(1.0, {j: "Z"}) for j in range(3)])
        assert abs(feedback_observable(s, z_mixer, diag)) < 1e-12

    def test_plus_state_gives_zero(self):
        diag = naive_cut_table(4, [(0, 1), (2, 3), (1, 2)])
        assert abs(feedback_observable(init_plus(4), sum_x(4), diag)) < 1e-12

    def test_single_edge_closed_form(self):
        # After exp(-i g H_f) on |++>, the X-mixer feedback value is 2 sin(g).
        gamma = 0.08
        diag = naive_cut_table(2, [(0, 1)])
        s = init_plus(2)
        apply_diagonal_phase(s, diag, gamma)
        val = feedback_observable(s, sum_x(2), diag)
        assert abs(val - 2 * math.sin(gamma)) < 1e-12
        a_mat = dense.dense_observable(2, [(1.0, {0: "X"}), (1.0, {1: "X"})])
        h_mat = dense.dense_maxcut(2, [(0, 1)])
        assert abs(val - dense.commutator_expectation(s.amplitudes, a_mat, h_mat)) < 1e-10

    def test_matches_dense_commutator_on_random_states(self):
        rng = np.random.default_rng(17)
        edges = [(0, 1), (1, 2), (0, 3), (2, 3)]
        diag = naive_cut_table(4, edges)
        h_mat = dense.dense_maxcut(4, edges)
        for mixer, pairs in [
            (sum_x(4), [(1.0, {j: "X"}) for j in range(4)]),
            (sum_yz([(0, 1), (1, 2)]), [(1.0, {0: "Y", 1: "Z"}), (1.0, {1: "Y", 2: "Z"})]),
        ]:
            a_mat = dense.dense_observable(4, pairs)
            for _ in range(5):
                s = random_sv(4, rng)
                got = feedback_observable(s, mixer, diag)
                expect = dense.commutator_expectation(s.amplitudes, a_mat, h_mat)
                assert abs(got - expect) < 1e-10


def dense_feedback(vec, pairs, diag):
    n = int(np.log2(len(vec)))
    return dense.commutator_expectation(vec, dense.dense_observable(n, pairs), np.diag(np.asarray(diag, dtype=complex)))


def check_feedback(n, pairs, diag, rng, trials=3):
    mixer = ObservableTerms.from_pairs(pairs)
    for _ in range(trials):
        s = random_sv(n, rng)
        got = feedback_observable(s, mixer, diag)
        assert abs(got - dense_feedback(s.amplitudes, pairs, diag)) < 1e-10


class TestClosedFormFeedback:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_both_mixers_on_random_graphs(self, n):
        rng = np.random.default_rng(100 + n)
        edges = list(gen_erdos_renyi(n, 0.5, seed=n).edges) if n > 1 else []
        # Without edges the cut table is all zeros; use a field-like table instead.
        diag = naive_cut_table(n, edges) if edges else np.arange(1 << n)
        check_feedback(n, [(1.0, {j: "X"}) for j in range(n)], diag, rng)
        if edges:
            check_feedback(n, [(1.0, {j: "Y", k: "Z"}) for j, k in edges], diag, rng)

    @pytest.mark.parametrize("qubits", [(0, 1, 2, 3, 4), (1, 3, 6), (0, 5), (6,), tuple(range(7))])
    def test_weighted_x_mixer(self, qubits):
        rng = np.random.default_rng(sum(qubits))
        n = 7
        diag = naive_cut_table(n, [(0, 1), (1, 2), (2, 5), (3, 6), (4, 5), (0, 6)])
        pairs = [(float(rng.normal()), {q: "X"}) for q in qubits]
        check_feedback(n, pairs, diag, rng)

    def test_repeated_x_terms_add_up(self):
        rng = np.random.default_rng(20)
        diag = naive_cut_table(5, [(0, 1), (1, 4), (2, 3)])
        check_feedback(5, [(0.3, {4: "X"}), (0.9, {1: "X"}), (-1.4, {4: "X"})], diag, rng)

    @pytest.mark.parametrize("j, k", [(0, 3), (3, 0), (2, 4), (4, 2)])
    def test_yz_with_y_above_and_below_z(self, j, k):
        rng = np.random.default_rng(21 + 5 * j + k)
        diag = naive_cut_table(5, [(0, 3), (2, 4), (1, 2), (3, 4)])
        check_feedback(5, [(0.8, {j: "Y", k: "Z"})], diag, rng)

    def test_y_with_two_z_partners(self):
        rng = np.random.default_rng(22)
        diag = naive_cut_table(6, [(0, 2), (2, 5), (1, 4), (3, 5)])
        check_feedback(6, [(-0.6, {2: "Y", 0: "Z", 5: "Z"}), (1.1, {4: "Y", 1: "Z", 5: "Z"})], diag, rng)

    def test_xz_term(self):
        rng = np.random.default_rng(23)
        diag = naive_cut_table(5, [(0, 1), (1, 3), (2, 4)])
        check_feedback(5, [(0.7, {1: "X", 3: "Z"}), (-0.4, {3: "X", 0: "Z", 4: "Z"})], diag, rng)

    def test_mixed_kinds_in_one_mixer(self):
        rng = np.random.default_rng(24)
        diag = naive_cut_table(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        pairs = [(0.5, {0: "X"}), (1.2, {5: "X"}), (0.3, {1: "Y"}), (-0.9, {1: "Y", 4: "Z"}),
                 (0.4, {2: "X", 0: "Z"}), (2.0, {3: "Z"}), (0.1, {})]
        check_feedback(6, pairs, diag, rng)

    def test_general_real_diagonal(self):
        rng = np.random.default_rng(25)
        diag = rng.normal(size=1 << 6)
        pairs = [(1.0, {j: "X"}) for j in range(6)] + [(0.7, {2: "Y", 4: "Z"}), (-0.2, {5: "X", 0: "Z"})]
        check_feedback(6, pairs, diag, rng)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_x_mixer_is_exactly_zero_on_plus_state(self, n):
        diag = naive_cut_table(n, [(j, j + 1) for j in range(n - 1)])
        weighted = ObservableTerms.from_pairs([(0.5 + j, {j: "X"}) for j in range(n)])
        assert feedback_observable(init_plus(n), sum_x(n), diag) == 0.0
        assert feedback_observable(init_plus(n), weighted, diag) == 0.0

    def test_term_flipping_two_qubits_rejected(self):
        s = init_plus(3)
        diag = naive_cut_table(3, [(0, 1)])
        for ops in ({0: "X", 1: "X"}, {0: "Y", 2: "X"}, {0: "Y", 1: "Y", 2: "Z"}):
            mixer = ObservableTerms.from_pairs([(0.5, {1: "X"}), (1.0, ops)])
            for _ in range(2):
                with pytest.raises(StateError):
                    feedback_observable(s, mixer, diag)

    def test_qubit_out_of_range_rejected(self):
        with pytest.raises(StateError):
            feedback_observable(init_plus(2), sum_x(3), naive_cut_table(2, [(0, 1)]))


class TestStridedApplyObservable:
    def test_mixed_strings_match_dense(self):
        rng = np.random.default_rng(26)
        n = 5
        pairs = [(0.4, {0: "X", 2: "Y", 4: "Z"}), (-1.1, {1: "Y", 3: "Y"}), (0.9, {4: "X", 3: "Z", 0: "Y"}),
                 (0.25, {2: "Z", 1: "Z"}), (1.7, {3: "X"}), (-0.5, {})]
        vec = dense.random_state(n, rng)
        expect = dense.dense_observable(n, pairs) @ vec
        got = apply_observable(vec, n, ObservableTerms.from_pairs(pairs))
        assert np.max(np.abs(got - expect)) < 1e-10

    @pytest.mark.parametrize("letter", ["X", "Y", "Z"])
    def test_each_letter_on_each_qubit(self, letter):
        rng = np.random.default_rng(27)
        vec = dense.random_state(4, rng)
        for q in range(4):
            expect = dense.op_on(4, {q: letter}) @ vec
            got = apply_observable(vec, 4, ObservableTerms.from_pairs([(1.0, {q: letter})]))
            assert np.max(np.abs(got - expect)) < 1e-10

    def test_real_input_for_x_and_z_strings(self):
        rng = np.random.default_rng(29)
        n = 4
        vec = rng.normal(size=1 << n)
        pairs = [(0.6, {0: "X", 3: "X"}), (-1.3, {1: "Z", 2: "X"}), (0.2, {})]
        got = apply_observable(vec, n, ObservableTerms.from_pairs(pairs))
        assert got.dtype == np.float64
        assert np.max(np.abs(got - dense.dense_observable(n, pairs) @ vec)) < 1e-10

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(28)
        vec = dense.random_state(3, rng)
        before = vec.copy()
        apply_observable(vec, 3, ObservableTerms.from_pairs([(1.0, {0: "Y", 1: "Z", 2: "X"})]))
        assert np.array_equal(vec, before)

    def test_qubit_out_of_range_rejected(self):
        with pytest.raises(StateError):
            apply_observable(init_plus(2).amplitudes, 2, ObservableTerms.from_pairs([(1.0, {2: "Z"})]))


class TestNormAndDump:
    def test_norm_preserved_over_long_sequence(self):
        rng = np.random.default_rng(18)
        n = 8
        s = init_plus(n)
        diag = naive_cut_table(n, [(i, i + 1) for i in range(n - 1)])
        for _ in range(5000):
            kind = rng.integers(0, 4)
            theta = float(rng.uniform(-1, 1))
            q1, q2 = rng.choice(n, size=2, replace=False)
            if kind == 0:
                apply_rx(s, int(q1), theta)
            elif kind == 1:
                apply_rzz(s, int(q1), int(q2), theta)
            elif kind == 2:
                apply_ryz(s, int(q1), int(q2), theta)
            else:
                apply_diagonal_phase(s, diag, theta)
        assert abs(s.norm() - 1.0) < 1e-9


def random_mirrored(n, rng):
    """A random flip-symmetric state, psi = concat(h, h[::-1]), stored as its half h."""
    h = dense.random_state(n - 1, rng) / math.sqrt(2.0)
    return StateVector(n, h, mirrored=True)


def connected_edges(n, rng):
    """A path through all n vertices plus random chords, as sorted pairs."""
    edges = {(j, j + 1) for j in range(n - 1)}
    for u, v in rng.choice(n, size=(n, 2)):
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    return sorted(edges)


def symmetric_float_diag(n, rng):
    d = rng.normal(size=1 << n)
    return d + d[::-1]


def assert_mirror_matches(s, expect):
    """The stored half rebuilds the dense reference vector and stays symmetric."""
    assert s.mirrored and s.amplitudes.shape == (1 << (s.n_qubits - 1),)
    assert np.max(np.abs(s.full() - expect)) < 1e-10
    assert np.max(np.abs(expect - expect[::-1])) < 1e-10


MIRROR_SIZES = range(2, 9)


class TestMirroredState:
    @pytest.mark.parametrize("n", MIRROR_SIZES)
    def test_full_norm_and_copy(self, n):
        rng = np.random.default_rng(200 + n)
        s = random_mirrored(n, rng)
        full = s.full()
        assert np.array_equal(full, np.concatenate((s.amplitudes, s.amplitudes[::-1])))
        assert abs(s.norm() - np.linalg.norm(full)) < 1e-12
        assert abs(s.norm() - 1.0) < 1e-12
        c = s.copy()
        assert c.mirrored and np.array_equal(c.full(), full)
        c.amplitudes[0] += 1.0
        assert np.array_equal(s.full(), full)

    @pytest.mark.parametrize("n", MIRROR_SIZES)
    def test_init_plus_is_half_of_the_full_state(self, n):
        half, full = init_plus(n, mirrored=True), init_plus(n)
        assert half.amplitudes.size == 1 << (n - 1)
        assert np.array_equal(half.full(), full.amplitudes)
        assert abs(half.norm() - 1.0) < 1e-12

    def test_amplitude_count_checked(self):
        with pytest.raises(StateError):
            init_plus(1, mirrored=True)
        with pytest.raises(StateError):
            StateVector(3, np.zeros(8, dtype=complex), mirrored=True)
        with pytest.raises(StateError):
            StateVector(3, np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("n", MIRROR_SIZES)
    def test_rx_on_every_qubit(self, n):
        rng = np.random.default_rng(210 + n)
        for q in range(n):
            s = random_mirrored(n, rng)
            theta = float(rng.uniform(-1.5, 1.5))
            expect = dense.dense_rx(n, q, theta) @ s.full()
            apply_rx(s, q, theta)
            assert_mirror_matches(s, expect)

    @pytest.mark.parametrize("n", MIRROR_SIZES)
    def test_ryz_on_top_and_interior_pairs(self, n):
        rng = np.random.default_rng(220 + n)
        top = n - 1
        pairs = [(j, top) for j in range(top)] + [(top, k) for k in range(top)]
        pairs += [(j, k) for j in range(top) for k in range(top) if j != k]
        for qy, qz in pairs:
            s = random_mirrored(n, rng)
            theta = float(rng.uniform(-1.5, 1.5))
            expect = dense.dense_ryz(n, qy, qz, theta) @ s.full()
            apply_ryz(s, qy, qz, theta)
            assert_mirror_matches(s, expect)

    @pytest.mark.parametrize("n", MIRROR_SIZES)
    def test_diagonal_phase_and_expectation(self, n):
        rng = np.random.default_rng(230 + n)
        for diag in (naive_cut_table(n, connected_edges(n, rng)), symmetric_float_diag(n, rng)):
            s = random_mirrored(n, rng)
            vec = s.full()
            assert abs(expectation_diagonal(s, diag) - float((vec.conj() @ np.diag(diag) @ vec).real)) < 1e-10
            gamma = float(rng.uniform(-1.0, 1.0))
            expect = dense.dense_diag_phase(diag, gamma) @ vec
            apply_diagonal_phase(s, diag, gamma)
            assert_mirror_matches(s, expect)

    @pytest.mark.parametrize("n", MIRROR_SIZES)
    def test_feedback_for_both_mixers(self, n):
        rng = np.random.default_rng(240 + n)
        edges = connected_edges(n, rng)
        diag = naive_cut_table(n, edges)
        oriented = bfs_order(Graph.from_edges(n, edges)).oriented_edges
        # Distinct weights on every qubit, 0, 1 and n-1 among them; from n=3 on,
        # an X_j Z_a Z_b term sends part of qubit j's group down the pair path.
        weighted = [(0.3 + 0.7 * j * (-1) ** j, {j: "X"}) for j in range(n)]
        if n >= 3:
            j = (0, 1, n - 1)[n % 3]
            a, b = [q for q in range(n) if q != j][:2]
            weighted.append((-1.3, {j: "X", a: "Z", b: "Z"}))
        for pairs in ([(1.0, {j: "X"}) for j in range(n)], [(1.0, {j: "Y", k: "Z"}) for j, k in oriented], weighted):
            mixer = ObservableTerms.from_pairs(pairs)
            for _ in range(3):
                s = random_mirrored(n, rng)
                assert abs(feedback_observable(s, mixer, diag) - dense_feedback(s.full(), pairs, diag)) < 1e-10

    @pytest.mark.parametrize("mixer_of", [lambda g: sum_x(g.n), lambda g: sum_yz(bfs_order(g).oriented_edges)],
                             ids=["sum_x", "sum_yz"])
    def test_feedback_allocates_at_most_one_state_sized_buffer(self, mixer_of):
        # At n=16 the 512 KiB half is four times numpy's 8192-element cast
        # buffer; at n <= 14 that buffer alone is as large as the state.
        n = 16
        rng = np.random.default_rng(280)
        g = Graph.from_edges(n, connected_edges(n, rng))
        diag = naive_cut_table(n, g.edges).astype(np.uint16)
        s, mixer = random_mirrored(n, rng), mixer_of(g)
        feedback_observable(s, mixer, diag)
        tracemalloc.start()
        try:
            feedback_observable(s, mixer, diag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * s.amplitudes.nbytes + 4096

    @pytest.mark.parametrize("n", MIRROR_SIZES)
    def test_feedback_for_weighted_even_terms_with_z_partners(self, n):
        rng = np.random.default_rng(250 + n)
        top = n - 1
        pairs = [(float(rng.normal()), {j: "X"}) for j in range(n)]
        pairs += [(float(rng.normal()), {top: "Y", 0: "Z"}), (float(rng.normal()), {0: "Y", top: "Z"})]
        if n >= 3:
            pairs += [(float(rng.normal()), {1: "X", 0: "Z", top: "Z"}),
                      (float(rng.normal()), {top: "X", 0: "Z", 1: "Z"}),
                      (float(rng.normal()), {1: "Y", 0: "Z"})]
        if n >= 4:
            pairs += [(float(rng.normal()), {2: "Y", 0: "Z", 1: "Z", top: "Z"}),
                      (float(rng.normal()), {top: "Y", 0: "Z", 1: "Z", 2: "Z"})]
        for diag in (naive_cut_table(n, connected_edges(n, rng)), symmetric_float_diag(n, rng)):
            s = random_mirrored(n, rng)
            mixer = ObservableTerms.from_pairs(pairs)
            got = feedback_observable(s, mixer, diag)
            assert abs(got - dense_feedback(s.full(), pairs, diag)) < 1e-10
            assert feedback_observable(s, mixer, diag, workspace=Workspace.build(s, mixer, diag)) == got

    def test_feedback_is_zero_on_mirrored_plus_state(self):
        n = 6
        diag = naive_cut_table(n, [(j, j + 1) for j in range(n - 1)])
        assert feedback_observable(init_plus(n, mirrored=True), sum_x(n), diag) == 0.0

    @pytest.mark.parametrize("ops", [{0: "Y"}, {3: "Y"}, {1: "X", 3: "Z"}, {3: "X", 0: "Z"},
                                     {2: "Y", 0: "Z", 3: "Z"}, {0: "Z"}])
    def test_terms_that_anticommute_with_the_flip_rejected(self, ops):
        s = init_plus(4, mirrored=True)
        diag = naive_cut_table(4, [(0, 1), (1, 2), (2, 3)])
        mixer = ObservableTerms.from_pairs([(1.0, {0: "X"}), (0.5, ops)])
        assert not mixer.flip_symmetric
        with pytest.raises(StateError):
            feedback_observable(s, mixer, diag)
        # The full state accepts the same mixer.
        feedback_observable(init_plus(4), mixer, diag)

    def test_rzz_rejected(self):
        with pytest.raises(StateError):
            apply_rzz(init_plus(3, mirrored=True), 0, 2, 0.3)

    def test_diag_must_have_full_length(self):
        n = 4
        s = init_plus(n, mirrored=True)
        for bad in (naive_cut_table(n, [(0, 1)])[: 1 << (n - 1)], np.zeros(1 << (n + 1), dtype=np.int64)):
            with pytest.raises(StateError):
                expectation_diagonal(s, bad)
            with pytest.raises(StateError):
                apply_diagonal_phase(s, bad, 0.1)
            with pytest.raises(StateError):
                feedback_observable(s, sum_x(n), bad)

    def test_expectation_pauli_uses_the_full_state(self):
        rng = np.random.default_rng(260)
        n = 5
        s = random_mirrored(n, rng)
        pairs = [(0.4, {0: "X", 2: "Y", 4: "Z"}), (-1.1, {1: "Y", 3: "Y"}), (0.9, {4: "Z"})]
        vec = s.full()
        expect = float((vec.conj() @ dense.dense_observable(n, pairs) @ vec).real)
        assert abs(expectation_pauli(s, ObservableTerms.from_pairs(pairs)) - expect) < 1e-10


def dense_layer(n, edges, theta, vec):
    """vec after the dense exp(-i theta Y_j Z_k) of every edge, first edge first."""
    for j, k in edges:
        vec = dense.dense_ryz(n, j, k, theta) @ vec
    return vec


def workspace_cases(n, rng):
    """A cut table, the same table shifted to negative levels, and a float diagonal, each with
    the transverse field and the BFS-oriented light cone of one random connected graph."""
    edges = connected_edges(n, rng)
    oriented = bfs_order(Graph.from_edges(n, edges)).oriented_edges
    cut = naive_cut_table(n, edges).astype(np.uint16)
    for diag in (cut, cut.astype(np.int64) - 3, symmetric_float_diag(n, rng)):
        yield diag, [(1.0, {j: "X"}) for j in range(n)], [("rx", (j,)) for j in range(n)]
        yield diag, [(1.0, {j: "Y", k: "Z"}) for j, k in oriented], [("yz", oriented)]


class TestWorkspace:
    """Every kernel reads a Workspace's prebuilt views and scratch buffer, and gives the
    same bits as the same call that builds them for itself."""

    @pytest.mark.parametrize("n", MIRROR_SIZES)
    def test_kernels_with_and_without_a_workspace_agree_bitwise_and_with_dense(self, n):
        rng = np.random.default_rng(400 + n)
        for diag, pairs, gates in workspace_cases(n, rng):
            mixer = ObservableTerms.from_pairs(pairs)
            bare = random_mirrored(n, rng)
            held = bare.copy()
            ws = Workspace.build(held, mixer, diag)
            for _ in range(2):
                vec = bare.full()
                got = feedback_observable(held, mixer, diag, workspace=ws)
                assert got == feedback_observable(bare, mixer, diag)
                assert abs(got - dense_feedback(vec, pairs, diag)) < 1e-10
                got = expectation_diagonal(held, diag, workspace=ws)
                assert got == expectation_diagonal(bare, diag)
                assert abs(got - float((vec.conj() @ (np.asarray(diag) * vec)).real)) < 1e-10
                gamma = float(rng.uniform(-1.0, 1.0))
                expect = dense.dense_diag_phase(diag, gamma) @ vec
                apply_diagonal_phase(bare, diag, gamma)
                apply_diagonal_phase(held, diag, gamma, workspace=ws)
                assert np.array_equal(held.amplitudes, bare.amplitudes)
                assert_mirror_matches(held, expect)
                for kind, qubits in gates:
                    theta = float(rng.uniform(-1.5, 1.5))
                    if kind == "rx":
                        expect = dense.dense_rx(n, *qubits, theta) @ bare.full()
                        apply_rx(bare, *qubits, theta)
                        apply_rx(held, *qubits, theta, workspace=ws)
                    else:
                        expect = dense_layer(n, qubits, theta, bare.full())
                        apply_yz_layer(bare, qubits, theta)
                        apply_yz_layer(held, qubits, theta, workspace=ws)
                    assert np.array_equal(held.amplitudes, bare.amplitudes)
                    assert_mirror_matches(held, expect)

    def test_full_states_take_a_workspace_too(self):
        rng = np.random.default_rng(410)
        n = 4
        diag = naive_cut_table(n, [(0, 1), (1, 2), (2, 3)])
        mixer = sum_x(n)
        bare = random_sv(n, rng)
        held = bare.copy()
        ws = Workspace.build(held, mixer, diag)
        assert feedback_observable(held, mixer, diag, workspace=ws) == feedback_observable(bare, mixer, diag)
        for q in range(n):
            apply_rx(bare, q, 0.3)
            apply_rx(held, q, 0.3, workspace=ws)
        assert np.array_equal(held.amplitudes, bare.amplitudes)

    def test_another_buffer_layout_or_diagonal_is_refused(self):
        n = 5
        rng = np.random.default_rng(420)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        diag = naive_cut_table(n, edges)
        lc = ObservableTerms.from_pairs([(1.0, {j: "Y", k: "Z"}) for j, k in edges])
        state = random_mirrored(n, rng)
        ws = Workspace.build(state, lc, diag)
        other = state.copy()
        calls = [
            lambda s: apply_yz_layer(s, edges, 0.2, workspace=ws),
            lambda s: apply_rx(s, 0, 0.2, workspace=ws),
            lambda s: apply_diagonal_phase(s, diag, 0.2, workspace=ws),
            lambda s: expectation_diagonal(s, diag, workspace=ws),
            lambda s: feedback_observable(s, lc, diag, workspace=ws),
        ]
        for call in calls:
            with pytest.raises(StateError, match="another state buffer"):
                call(other)
        # Same buffer, but read as a full state of n-1 qubits.
        with pytest.raises(StateError, match="another state buffer, layout"):
            apply_yz_layer(StateVector(n - 1, state.amplitudes), edges, 0.2, workspace=ws)
        with pytest.raises(StateError, match="diagonal"):
            expectation_diagonal(state, diag.copy(), workspace=ws)
        with pytest.raises(StateError, match="no layer"):
            apply_yz_layer(state, [(1, 0)], 0.2, workspace=ws)
        with pytest.raises(StateError, match="no layer"):
            apply_yz_layer(state, edges[::-1], 0.2, workspace=ws)
        with pytest.raises(StateError, match="no gate"):
            apply_rx(state, 0, 0.2, workspace=ws)
        # A workspace serves the mixer object it was built for, and no other, not even an equal one.
        for mixer, built in ((lc, Workspace.build(state, sum_x(n), diag)), (sum_yz(edges), ws)):
            with pytest.raises(StateError, match="another state buffer, layout, diagonal or mixer"):
                feedback_observable(state, mixer, diag, workspace=built)
        # The build checks the mixer against the state's layout, as feedback_observable does.
        with pytest.raises(StateError, match="anticommutes with the global flip"):
            Workspace.build(state, ObservableTerms.from_pairs([(1.0, {0: "Y"})]), diag)


def yz_layer_cases(n, rng):
    """Oriented edge lists on n qubits: BFS orientations of a random connected graph and of a
    dense Erdos-Renyi graph, qubit n-1 as a head with 1-3 tails and as a tail only, a head
    that comes back after another head, and a repeated edge."""
    top = n - 1
    yield "bfs", bfs_order(Graph.from_edges(n, connected_edges(n, rng))).oriented_edges
    if n >= 3:
        yield "erdos_renyi", bfs_order(gen_erdos_renyi(n, 0.7, seed=int(rng.integers(1 << 20)))).oriented_edges
    for tails in range(1, min(3, top) + 1):
        yield f"top_head_{tails}", [(0, top)] * (top > 1) + [(top, k) for k in range(tails)] + [(0, 1)] * (top > 1)
    yield "top_tail", [(j, top) for j in range(top)] + [(0, j) for j in range(1, top)]
    if n >= 3:
        yield "head_returns", [(0, 1), (0, 2), (1, 2), (0, top)]
        yield "repeated_edge", [(1, 0), (1, 0), (1, top), (top, 0)]


class TestYZLayer:
    """apply_yz_layer, one rotation per run of one head, matches the gates one at a time."""

    @pytest.mark.parametrize("mirrored", [True, False], ids=["mirrored", "full"])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_sequential_gates_and_dense(self, n, mirrored):
        rng = np.random.default_rng(500 + n + 20 * mirrored)
        for name, edges in yz_layer_cases(n, rng):
            state = random_mirrored(n, rng) if mirrored else random_sv(n, rng)
            gates, vec = state.copy(), state.full()
            theta = float(rng.uniform(-1.5, 1.5))
            for j, k in edges:
                apply_ryz(gates, j, k, theta)
            apply_yz_layer(state, edges, theta)
            assert np.max(np.abs(state.amplitudes - gates.amplitudes)) <= 1e-12, name
            assert np.max(np.abs(state.full() - dense_layer(n, edges, theta, vec))) < 1e-10, name

    @pytest.mark.parametrize("mirrored", [True, False], ids=["mirrored", "full"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_workspace_gives_equal_bits(self, n, mirrored):
        rng = np.random.default_rng(600 + n + 20 * mirrored)
        for name, edges in yz_layer_cases(n, rng):
            mixer = sum_yz(edges)
            diag = naive_cut_table(n, sorted({(min(e), max(e)) for e in edges}))
            bare = random_mirrored(n, rng) if mirrored else random_sv(n, rng)
            held = bare.copy()
            ws = Workspace.build(held, mixer, diag)
            for _ in range(3):
                theta = float(rng.uniform(-1.5, 1.5))
                apply_yz_layer(bare, edges, theta)
                apply_yz_layer(held, list(map(list, edges)), theta, workspace=ws)
                assert np.array_equal(held.amplitudes, bare.amplitudes), name

    def test_workspace_of_another_buffer_or_mixer_is_refused(self):
        n = 6
        rng = np.random.default_rng(610)
        edges = [(0, 1), (0, 5), (5, 2), (2, 3), (3, 4)]
        diag = naive_cut_table(n, [(0, 1), (0, 5), (2, 5), (2, 3), (3, 4)])
        state = random_mirrored(n, rng)
        ws = Workspace.build(state, sum_yz(edges), diag)
        with pytest.raises(StateError, match="another state buffer"):
            apply_yz_layer(state.copy(), edges, 0.2, workspace=ws)
        transverse = Workspace.build(state, sum_x(n), diag)
        with pytest.raises(StateError, match="no layer"):
            apply_yz_layer(state, edges, 0.2, workspace=transverse)

    @pytest.mark.parametrize("edges", [[(0, 0)], [(0, 4)], [(-1, 0)]])
    def test_bad_edges_are_refused(self, edges):
        with pytest.raises(StateError):
            apply_yz_layer(init_plus(4, mirrored=True), edges, 0.1)

    def test_no_edges_is_the_identity(self):
        state = random_mirrored(5, np.random.default_rng(620))
        before = state.amplitudes.copy()
        apply_yz_layer(state, [], 0.4)
        assert np.array_equal(state.amplitudes, before)
