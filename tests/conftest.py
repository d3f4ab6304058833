import numpy as np
import pytest
from hypothesis import strategies as st

from nbspec.eig import eigs_general
from nbspec.graphgen import Graph, complete_graph, expected_stats, fig1_params, sample_sbm
from nbspec.operators import build_H, build_K


def make_graph(n, edges):
    labels = np.zeros(n, dtype=np.int8)
    labels[n // 2 :] = 1
    return Graph(n=n, edges=sorted(edges), labels=labels)


@st.composite
def edge_sets(draw):
    """A graph on up to 10 vertices with an arbitrary edge set, possibly empty."""
    n = draw(st.integers(0, 10))
    iu, ju = np.triu_indices(n, k=1)
    keep = np.array(draw(st.lists(st.booleans(), min_size=iu.size, max_size=iu.size)), bool)
    return make_graph(n, zip(iu[keep].tolist(), ju[keep].tolist()))


def path3():
    return make_graph(3, [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def fig1_instance():
    params = fig1_params("right")
    return sample_sbm(params), expected_stats(params)


@pytest.fixture(scope="session")
def fig1_spectra(fig1_instance):
    """(Spec(H), Spec(K)) of ``fig1_instance``: two 2000 x 2000 eigensolves, done once."""
    g, _ = fig1_instance
    return eigs_general(build_H(g).matrix), eigs_general(build_K(g).matrix)
