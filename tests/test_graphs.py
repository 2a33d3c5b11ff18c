import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_kcenter import (Graph, GraphFormatError, MetricParams,
                              ParameterError, figure1_graph, laplacian,
                              max_degree, msub_score, msup_score,
                              parse_edge_list, path_charpoly, path_graph,
                              random_connected_graph, random_tree, relabel,
                              serialize_edge_list, stochastic)
from spectral_kcenter.graphs import check_tau, incidence

FIG1_DEGREES = [1, 2, 3, 1, 3, 1, 2, 3, 2, 3, 1]


def test_path_graph_smallest():
    assert path_graph(2).edges == frozenset({(1, 2)})
    assert path_graph(3).edges == frozenset({(1, 2), (2, 3)})


def test_path_graph_chain():
    g = path_graph(11)
    assert len(g.edges) == 10
    assert g.is_connected()
    assert sorted(g.degrees()) == [1, 1] + [2] * 9


def test_path_graph_rejects_small_order():
    with pytest.raises(ParameterError):
        path_graph(1)
    # nor is there a path characteristic polynomial of order 1 (it used to
    # come out as s - 1, though L(P_1) = [0])
    with pytest.raises(ParameterError):
        path_charpoly(1)


def test_figure1_graph_shape():
    g = figure1_graph()
    assert g.n == 11
    assert len(g.edges) == 11
    assert g.is_connected()
    assert g.degrees() == FIG1_DEGREES


def test_graph_validation():
    with pytest.raises(ParameterError):
        Graph(3, frozenset({(2, 2)}))
    with pytest.raises(ParameterError):
        Graph(3, frozenset({(1, 4)}))
    with pytest.raises(ParameterError):
        Graph.from_edges(3, [(1, 2), (2, 1)])  # duplicate after normalization
    with pytest.raises(ParameterError):
        Graph(3, frozenset({(2, 1)}))  # u < v required
    # an endpoint is a node index: not a float, even an integral one, nor a bool
    for build in (lambda: Graph.from_edges(3, [(1.0, 2.0), (2, 3)]),
                  lambda: Graph.from_edges(2, [(True, 2)]),
                  lambda: Graph(3, frozenset({(1, 2.0)}))):
        with pytest.raises(ParameterError, match="edge endpoint must be an integer"):
            build()


@pytest.mark.parametrize("edges", [[(1, 2), (1, 2), (2, 3)], ((1, 2), (2, 3)), {(1, 2), (2, 3)}],
                         ids=["list-with-duplicate", "tuple", "set"])
def test_graph_edges_must_be_a_frozenset(edges):
    # a list keeps the duplicate edge, which gave L the row sums (1, 1, 0),
    # and an unhashable graph; Graph.from_edges is the way to build from pairs
    with pytest.raises(ParameterError, match=r"frozenset .*Graph\.from_edges"):
        Graph(3, edges)
    assert Graph.from_edges(3, [(2, 1), (2, 3)]) == Graph(3, frozenset({(1, 2), (2, 3)}))


# (build, the edge the error names): an edge that is not a pair of
# endpoints, whichever way the graph is built
MALFORMED_EDGES = [
    pytest.param(lambda: Graph(3, frozenset({(1, 2, 3)})), "(1, 2, 3)", id="triple"),
    pytest.param(lambda: Graph(3, frozenset({1})), "1", id="int"),
    pytest.param(lambda: Graph(3, frozenset({frozenset({1, 2})})), "frozenset({1, 2})",
                 id="frozenset"),
    pytest.param(lambda: Graph.from_edges(3, [(1, 2, 3)]), "(1, 2, 3)", id="from-triple"),
    pytest.param(lambda: Graph.from_edges(3, [(1, 2), 3]), "3", id="from-int"),
    pytest.param(lambda: Graph.from_edges(3, [(1,)]), "(1,)", id="from-single"),
]


@pytest.mark.parametrize("build, edge", MALFORMED_EDGES)
def test_malformed_edges_are_parameter_errors(build, edge):
    with pytest.raises(ParameterError, match=f"^edge {re.escape(edge)} is not a pair"):
        build()
    # any pair of endpoints is an edge of from_edges
    assert Graph.from_edges(3, [[1, 2], iter((3, 2))]) == path_graph(3)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 31 - 1))
def test_incidence_gives_the_laplacian_and_exact_edge_differences(n, seed):
    # B B' = L exactly, and y @ B is the per-edge difference y_u - y_v to
    # the last bit, as the bounds' rounding arguments need
    g = random_tree(n, seed) if seed % 2 else random_connected_graph(n, 0.5, seed)
    B = incidence(g)
    assert B.shape == (n, len(g.edges))
    assert np.array_equal(B @ B.T, laplacian(g))
    u, v = B.argmax(axis=0), B.argmin(axis=0)  # each column's 1 and -1
    assert list(zip(u.tolist(), v.tolist())) == [(a - 1, b - 1) for a, b in g.sorted_edges()]
    assert np.count_nonzero(B) == 2 * len(g.edges)
    y = np.random.default_rng(seed).standard_normal((7, n)) * 10.0 ** np.arange(-3, 4)[:, None]
    assert (y @ B).tobytes() == (y[:, u] - y[:, v]).tobytes()


def test_laplacian_small_paths():
    assert np.array_equal(laplacian(path_graph(2)), [[1, -1], [-1, 1]])
    assert np.array_equal(laplacian(path_graph(3)),
                          [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_fig1_diagonal_is_degree_vector():
    L = laplacian(figure1_graph())
    assert np.array_equal(np.diag(L), FIG1_DEGREES)


def test_laplacian_kernel_exact():
    for g in (path_graph(7), figure1_graph(), random_tree(40, 3),
              random_connected_graph(12, 0.4, 5)):
        assert np.all(laplacian(g) @ np.ones(g.n) == 0.0)


def test_max_degree():
    assert max_degree(path_graph(2)) == 1
    assert max_degree(path_graph(9)) == 2
    assert max_degree(figure1_graph()) == 3


def test_stochastic_p3():
    Z = stochastic(path_graph(3), 0.25)
    assert np.allclose(np.diag(Z), [0.75, 0.5, 0.75])
    assert Z[0, 1] == Z[1, 2] == 0.25
    assert Z[0, 2] == 0.0


def test_stochastic_boundary_tau():
    Z = stochastic(path_graph(3), 0.5)
    assert np.allclose(np.diag(Z), [0.5, 0.0, 0.5])
    assert Z.min() >= 0.0


def test_stochastic_small_tau_is_near_identity():
    Z = stochastic(path_graph(5), 1e-9)
    assert np.allclose(Z, np.eye(5), atol=3e-9)


def test_stochastic_rejects_bad_tau():
    g = path_graph(4)
    for tau in (0.0, -0.1, 0.51, 1.5):
        with pytest.raises(ParameterError):
            stochastic(g, tau)
    with pytest.raises(ParameterError):
        stochastic(Graph(3), 0.1)  # edgeless
    # MetricParams checks tau by the same rule, the default tau too, so msub
    # and msup reject an edgeless graph too
    for params in (MetricParams(tau=0.5), MetricParams()):
        with pytest.raises(ParameterError, match="graph has no edges"):
            params.tau_for(Graph(3))
        for score in (msup_score, msub_score):
            with pytest.raises(ParameterError, match="graph has no edges"):
                score(Graph(3), (1,), params)


def test_check_tau_default_is_one_over_max_degree_plus_one():
    # None stands for 1/(d + 1), the default of MetricParams, which the
    # range check then accepts unchanged
    for g in (path_graph(2), path_graph(9), figure1_graph(), random_tree(12, 4)):
        tau = 1.0 / (max_degree(g) + 1)
        assert check_tau(g, None) == tau
        assert MetricParams().tau_for(g) == tau
        assert check_tau(g, tau) == tau


def test_check_tau_names_the_range_it_rejects():
    g = path_graph(4)
    for reject in (lambda tau: check_tau(g, tau),
                   lambda tau: MetricParams(tau=tau).tau_for(g),
                   lambda tau: msub_score(g, (1,), MetricParams(tau=tau)),
                   lambda tau: msup_score(g, (1,), MetricParams(tau=tau))):
        with pytest.raises(ParameterError, match=r"tau=0\.6 outside \(0, 1/2\]"):
            reject(0.6)
        with pytest.raises(ParameterError, match=r"tau=0\.0 outside \(0, 1/2\]"):
            reject(0.0)
    assert MetricParams(tau=0.5).tau_for(g) == 0.5  # the closed end


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), frac=st.floats(0.01, 1.0))
def test_stochastic_rows_and_nonnegativity(seed, frac):
    g = random_tree(8, seed)
    Z = stochastic(g, frac / max_degree(g))
    assert np.allclose(Z.sum(axis=1), 1.0, atol=1e-12)
    assert Z.min() >= -1e-15
    assert np.array_equal(Z, Z.T)


@pytest.mark.parametrize("n", [2, 3, 9, 57, 500])
def test_random_tree_is_tree(n):
    g = random_tree(n, seed=17)
    assert len(g.edges) == n - 1
    assert g.is_connected()


def test_random_tree_deterministic():
    assert random_tree(9, 123).edges == random_tree(9, 123).edges
    assert random_tree(2, 7).edges == frozenset({(1, 2)})


def test_pruefer_decoding_reaches_all_labeled_trees():
    # 4**(4-2) = 16 labeled trees on 4 nodes; every one must show up.
    seen = set()
    for seed in range(600):
        seen.add(random_tree(4, seed).edges)
        if len(seen) == 16:
            break
    assert len(seen) == 16


def test_random_connected_graph_contract():
    g = random_connected_graph(7, 0.4, seed=11)
    assert g.is_connected()
    assert len(g.edges) >= 6
    assert g.edges == random_connected_graph(7, 0.4, seed=11).edges
    assert random_connected_graph(2, 0.99, seed=0).edges == frozenset({(1, 2)})


@pytest.mark.parametrize("make", [lambda seed: random_tree(7, seed),
                                  lambda seed: random_connected_graph(7, 0.4, seed)],
                         ids=["tree", "graph"])
def test_generators_take_a_nonnegative_integer_seed(make):
    for seed in (-1, 2.0, True):
        with pytest.raises(ParameterError, match="seed must be"):
            make(seed)


def test_parse_edge_list_examples():
    assert parse_edge_list("3\n1 2\n2 3\n").edges == path_graph(3).edges
    assert serialize_edge_list(path_graph(2)) == "2\n1 2\n"
    g = parse_edge_list("# comment\n4\n\n1 2\n2 3\n 3 4 \n")
    assert g.n == 4 and len(g.edges) == 3


@pytest.mark.parametrize("text,lineno", [
    ("3\n1 1\n", 2),
    ("3\n1 2 3\n", 2),
    ("3\n1 2\n0 3\n", 3),
    ("3\n2 1\n", 2),          # u < v required
    ("3\n1 2\n1 2\n", 3),     # duplicate
    ("3\n1 4\n", 2),
    ("x\n", 1),
])
def test_parse_edge_list_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list(text)
    assert exc.value.line_number == lineno


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_roundtrip_identity(seed, n):
    g = random_tree(n, seed)
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_relabel_is_validated():
    with pytest.raises(ParameterError):
        relabel(path_graph(3), {1: 1, 2: 2, 3: 2})
    g = relabel(path_graph(3), {1: 3, 2: 2, 3: 1})
    assert g.edges == path_graph(3).edges
