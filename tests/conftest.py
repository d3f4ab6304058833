import numpy as np
import pytest

from nbspec.graphgen import (  # noqa: F401  (circulant is re-exported to the tests)
    Graph,
    SbmParams,
    circulant,
    complete_graph,
    expected_stats,
    sample_sbm,
)


def make_graph(n, edges):
    labels = np.zeros(n, dtype=np.int8)
    labels[n // 2 :] = 1
    return Graph(n=n, edges=sorted(edges), labels=labels)


def path3():
    return make_graph(3, [(0, 1), (1, 2)])


def er_pool(count, n=16, p=0.4, start_seed=0, min_degree=1):
    """Seeded Erdos-Renyi graphs conditioned on a minimum degree."""
    graphs = []
    seed = start_seed
    while len(graphs) < count:
        g = sample_sbm(SbmParams(n=n, p=p, q=p, seed=seed))
        seed += 1
        if g.min_degree() >= min_degree:
            graphs.append(g)
    return graphs


@pytest.fixture(scope="session")
def k3():
    return complete_graph(3)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def fig1_params():
    import math

    n = 1000
    logsq = math.log(n) ** 2 / n
    return SbmParams(n=n, p=3 * logsq, q=logsq, seed=1)


@pytest.fixture(scope="session")
def fig1_instance(fig1_params):
    return sample_sbm(fig1_params), expected_stats(fig1_params)
