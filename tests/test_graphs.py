import itertools
import json
import tracemalloc

import pytest

from lyapcut import graphs
from lyapcut.graphs import (
    FAMILIES,
    Graph,
    GraphError,
    are_isomorphic,
    brute_force_max_cut,
    cut_table,
    edge_coloring,
    enumerate_cubic,
    gen_bipartite,
    gen_erdos_renyi,
    gen_random_regular,
    is_connected,
    load_graph,
    make_graph,
)
from lyapcut.hamiltonian import build_maxcut
from lyapcut.statevector import STATE_CAP_DEFAULT, init_plus


def naive_max_cut(g):
    best = 0
    for x in range(1 << g.n):
        cut = sum(1 for u, v in g.edges if ((x >> u) & 1) != ((x >> v) & 1))
        best = max(best, cut)
    return best


def two_colorable(g):
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adjacency[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def assert_proper_coloring(g, coloring):
    seen = set()
    for layer in coloring.layers:
        touched = set()
        for u, v in layer:
            assert u not in touched and v not in touched, "layer is not a matching"
            touched.add(u)
            touched.add(v)
            seen.add((u, v))
    assert seen == set(g.edges), "layers do not partition the edge set"


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(n=3, edges=((1, 1),))

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            Graph(n=3, edges=((0, 1), (0, 1)))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(n=3, edges=((0, 3),))

    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_text_round_trip(self, petersen):
        text = petersen.to_text()
        assert text.endswith("\n")
        assert text.splitlines()[0] == "10 15"
        assert Graph.from_text(text) == petersen

    def test_json_round_trip(self, k4):
        data = json.loads(json.dumps(k4.to_json_dict()))
        assert Graph.from_json_dict(data) == k4

    def test_load_graph_both_formats(self, tmp_path, triangle):
        t = tmp_path / "g.txt"
        t.write_text(triangle.to_text())
        j = tmp_path / "g.json"
        j.write_text(json.dumps(triangle.to_json_dict()))
        assert load_graph(str(t)) == triangle
        assert load_graph(str(j)) == triangle

    def test_content_hash_stable(self, triangle):
        assert triangle.content_hash() == Graph.from_text(triangle.to_text()).content_hash()
        assert len(triangle.content_hash()) == 40


class TestConnectivity:
    def test_k4_connected(self, k4):
        assert is_connected(k4)

    def test_two_isolated_vertices(self):
        assert not is_connected(Graph(n=2, edges=()))

    def test_path_connected(self):
        g = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert is_connected(g)

    def test_disconnected_pair_of_edges(self):
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestGenerators:
    def test_n4_d3_is_k4(self, k4):
        for seed in (0, 1, 99):
            assert gen_random_regular(4, 3, seed) == k4

    def test_cubic_degrees(self):
        g = gen_random_regular(10, 3, seed=7)
        assert g.degrees == (3,) * 10
        assert is_connected(g)

    def test_odd_parity_rejected(self):
        with pytest.raises(GraphError):
            gen_random_regular(5, 3, seed=0)

    def test_degree_too_large_rejected(self):
        with pytest.raises(GraphError):
            gen_random_regular(4, 4, seed=0)

    def test_er_forced_edge(self):
        assert gen_erdos_renyi(2, 1.0, seed=0).edges == ((0, 1),)

    def test_er_connected_and_bounded(self):
        g = gen_erdos_renyi(12, 0.5, seed=1)
        assert is_connected(g)
        assert 0 < g.m <= 66

    def test_er_deterministic(self):
        assert gen_erdos_renyi(10, 0.5, seed=3) == gen_erdos_renyi(10, 0.5, seed=3)

    def test_er_bad_p(self):
        with pytest.raises(GraphError):
            gen_erdos_renyi(5, 0.0, seed=0)

    def test_bipartite_forced_edge(self):
        assert gen_bipartite(1, 1, 1.0, seed=0).edges == ((0, 1),)

    def test_bipartite_complete(self):
        g = gen_bipartite(3, 3, 1.0, seed=0)
        assert g.m == 9
        assert all(u < 3 <= v for u, v in g.edges)

    def test_bipartite_samples_are_bipartite(self):
        for seed in range(5):
            g = gen_bipartite(4, 5, 0.5, seed=seed)
            assert is_connected(g)
            assert two_colorable(g)
            assert all(u < 4 <= v for u, v in g.edges)

    def test_generator_determinism_across_families(self):
        assert gen_random_regular(8, 3, seed=11) == gen_random_regular(8, 3, seed=11)
        assert gen_bipartite(5, 5, 0.5, seed=4) == gen_bipartite(5, 5, 0.5, seed=4)


class TestOracle:
    def test_triangle(self, triangle):
        assert brute_force_max_cut(triangle).optimum == 2

    def test_k33_cuts_all_edges(self):
        g = gen_bipartite(3, 3, 1.0, seed=0)
        assert brute_force_max_cut(g).optimum == g.m

    def test_petersen_golden(self, petersen):
        res = brute_force_max_cut(petersen)
        assert res.optimum == 12  # frozen from this oracle's own 2^10 enumeration
        assert len(res.maximizers) == 10

    def test_maximizers_closed_under_flip(self, petersen):
        res = brute_force_max_cut(petersen)
        full = (1 << petersen.n) - 1
        maxset = set(res.maximizers)
        assert maxset == {x ^ full for x in maxset}

    def test_matches_naive_enumeration(self):
        for seed in range(4):
            g = gen_erdos_renyi(8, 0.5, seed=seed)
            assert brute_force_max_cut(g).optimum == naive_max_cut(g)

    def test_optimum_at_most_m_equality_iff_bipartite(self):
        cases = [gen_erdos_renyi(10, 0.5, seed=s) for s in range(3)]
        cases += [gen_bipartite(5, 5, 0.5, seed=s) for s in range(3)]
        cases += [gen_random_regular(10, 3, seed=s) for s in range(3)]
        cases += [gen_erdos_renyi(14, 0.4, seed=0), gen_bipartite(8, 8, 0.5, seed=0),
                  gen_random_regular(16, 3, seed=0)]
        for g in cases:
            res = brute_force_max_cut(g)
            assert res.optimum <= g.m
            assert (res.optimum == g.m) == two_colorable(g)

    def test_cap_enforced(self, k4):
        with pytest.raises(GraphError, match=r"^n=4 is above state cap 3$"):
            brute_force_max_cut(k4, cap=3)

    def test_every_cap_error_has_one_wording(self):
        path = Graph.from_edges(25, [(i, i + 1) for i in range(24)])
        for call in (lambda: brute_force_max_cut(path), lambda: build_maxcut(path),
                     lambda: init_plus(25), lambda: init_plus(25, mirrored=True)):
            with pytest.raises(ValueError, match=rf"^n=25 is above state cap {STATE_CAP_DEFAULT}$"):
                call()


def family_sizes(sizes):
    """The (family, n) pairs that make_graph takes, over the given sizes."""
    pairs = []
    for family, n in itertools.product(FAMILIES, sizes):
        try:
            graphs.check_family(family, n)
        except GraphError:
            continue
        pairs.append((family, n))
    return pairs


def hand_built_graphs():
    """Paths, stars centred on the first and on the last vertex, complete graphs up to n=10, and graphs
    whose every edge touches the last vertex while some vertices have no edge."""
    cases = {}
    for n in range(2, 13):
        cases[f"path{n}"] = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        cases[f"star_first{n}"] = Graph.from_edges(n, [(0, j) for j in range(1, n)])
        cases[f"star_last{n}"] = Graph.from_edges(n, [(j, n - 1) for j in range(n - 1)])
        cases[f"to_last{n}"] = Graph.from_edges(n, [(j, n - 1) for j in range(0, n - 1, 2)])
        if n <= 10:
            cases[f"complete{n}"] = Graph.from_edges(n, itertools.combinations(range(n), 2))
    return cases


HAND_BUILT = hand_built_graphs()


class TestCutTable:
    @staticmethod
    def check_against_naive_count(g):
        naive = [sum(1 for u, v in g.edges if ((x >> u) & 1) != ((x >> v) & 1)) for x in range(1 << g.n)]
        table = cut_table(g)
        assert table.dtype.name == "uint16"
        assert table.tolist() == naive
        assert build_maxcut(g).diag.tolist() == naive
        best = max(naive)
        res = brute_force_max_cut(g)
        assert res.optimum == best
        assert res.maximizers == tuple(x for x, c in enumerate(naive) if c == best)

    @pytest.mark.parametrize("family, n", family_sizes(range(2, 13)))
    def test_families_agree_with_naive_count(self, family, n):
        self.check_against_naive_count(make_graph(family, n, seed=3))

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built_graphs_agree_with_naive_count(self, name):
        self.check_against_naive_count(HAND_BUILT[name])

    def test_peak_memory_is_the_table(self):
        g = gen_random_regular(20, 3, seed=1)
        cut_table(g)  # adjacency and numpy's first-call state, outside the measured call
        tracemalloc.start()
        try:
            table = cut_table(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table.nbytes + (64 << 10)


class TestMakeGraph:
    def test_dispatches_to_the_family_generators(self):
        assert make_graph("regular3", 8, seed=2) == gen_random_regular(8, 3, seed=2)
        assert make_graph("regular3", 8, seed=2, degree=4) == gen_random_regular(8, 4, seed=2)
        assert make_graph("erdos_renyi", 9, seed=1, p=0.4) == gen_erdos_renyi(9, 0.4, seed=1)
        assert make_graph("bipartite", 7, seed=5) == gen_bipartite(4, 3, 0.5, seed=5)

    def test_unknown_family(self):
        with pytest.raises(GraphError, match="family"):
            make_graph("er", 8, seed=0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_fewer_than_two_vertices_refused_before_sampling(self, family, n):
        # Graph refuses n < 2 itself; the family check must say so before any sample.
        with pytest.raises(GraphError, match=rf"^need at least 2 vertices, got n={n}$"):
            graphs.check_family(family, n)
        with pytest.raises(GraphError, match="need at least 2 vertices"):
            make_graph(family, n, seed=0)


class TestEdgeColoring:
    def test_triangle_three_singleton_layers(self, triangle):
        col = edge_coloring(triangle)
        assert col.num_colors == 3
        assert sorted(len(layer) for layer in col.layers) == [1, 1, 1]
        assert_proper_coloring(triangle, col)

    def test_petersen_within_four_layers(self, petersen):
        col = edge_coloring(petersen)
        assert col.num_colors <= 4
        assert_proper_coloring(petersen, col)

    def test_perfect_matching_single_layer(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        col = edge_coloring(g)
        assert col.num_colors == 1
        assert_proper_coloring(g, col)

    def test_random_battery_stays_within_delta_plus_one(self):
        cases = [gen_erdos_renyi(9, 0.5, seed=s) for s in range(6)]
        cases += [gen_random_regular(12, 3, seed=s) for s in range(6)]
        cases += [gen_bipartite(4, 6, 0.6, seed=s) for s in range(4)]
        for g in cases:
            col = edge_coloring(g)
            assert_proper_coloring(g, col)
            assert col.num_colors <= max(g.degrees) + 1


class TestIsomorphismAndEnumeration:
    def test_relabeled_graphs_are_isomorphic(self, petersen):
        perm = [3, 1, 4, 0, 2, 8, 6, 9, 5, 7]
        relabeled = Graph.from_edges(10, [(perm[u], perm[v]) for u, v in petersen.edges])
        assert are_isomorphic(petersen, relabeled)

    def test_different_graphs_are_not(self):
        prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
        k33 = gen_bipartite(3, 3, 1.0, seed=0)
        assert not are_isomorphic(prism, k33)

    @pytest.mark.parametrize("n,count", [(4, 1), (6, 2), (8, 5)])
    def test_enumerate_cubic_counts(self, n, count):
        classes = enumerate_cubic(n)
        assert len(classes) == count
        for a, b in itertools.combinations(classes, 2):
            assert not are_isomorphic(a, b)
        for g in classes:
            assert g.degrees == (3,) * n
            assert is_connected(g)

    def test_enumerate_cubic_unsupported_size(self):
        with pytest.raises(GraphError):
            enumerate_cubic(12)
