import numpy as np
import pytest

from nbspec.graphgen import Graph, complete_graph, expected_stats, fig1_params, sample_sbm


def make_graph(n, edges):
    labels = np.zeros(n, dtype=np.int8)
    labels[n // 2 :] = 1
    return Graph(n=n, edges=sorted(edges), labels=labels)


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
