"""Scalar sampler and compiled sampling plans: exact equivalence.

``BayesianNetwork.sample_node_scalar`` bisects precomputed float rows
instead of calling ``np.searchsorted`` on a cumulative ndarray, and the
parallel samplers iterate per-run plans instead of re-deriving parents
per node.  Both are host-time optimisations only: every sampled value
and every unit of work (one scalar sample per node sample) must match
the reference exactly.
"""

import numpy as np
import pytest

from repro.bayes import BayesianNetwork, BayesNode, make_random_network
from repro.bayes.parallel import ParallelLsConfig, run_parallel_logic_sampling
from repro.core.coherence import CoherenceMode
from repro.experiments.table2 import build_network


def _zero_mass_network():
    """CPT rows with zero-probability values: repeated cumulative bounds."""
    a = BayesNode(0, 3, (), np.array([0.5, 0.0, 0.5]))
    b = BayesNode(1, 3, (0,), np.array([[0.0, 0.0, 1.0], [0.25, 0.0, 0.75],
                                        [0.0, 1.0, 0.0]]))
    return BayesianNetwork([a, b], name="zero-mass")


NETWORKS = {
    "AA": lambda: build_network("AA"),
    "Hailfinder": lambda: build_network("Hailfinder"),
    "random-3v": lambda: make_random_network(20, 30, n_values=3, seed=4),
    "random-4v-skewed": lambda: make_random_network(
        16, 24, n_values=4, seed=9, dirichlet_alpha=0.1
    ),
    "zero-mass": _zero_mass_network,
}


@pytest.mark.parametrize("which", sorted(NETWORKS))
def test_scalar_sampler_matches_searchsorted(which):
    net = NETWORKS[which]()
    rng = np.random.default_rng(0)
    top = np.nextafter(1.0, 0.0)
    rows = 0
    for name, node in net.nodes.items():
        for key in np.ndindex(node.cpt.shape[:-1]):
            cum = node.cpt[key].cumsum()
            bounds = cum.tolist()
            below = np.nextafter(cum, 0.0).tolist()
            draws = [0.0, top, *rng.random(8).tolist(), *bounds, *below]
            for u in draws:
                expected = int(np.searchsorted(cum, u, side="right"))
                got = net.sample_node_scalar(name, tuple(map(int, key)), u)
                assert type(got) is int
                assert got == expected, (name, key, u)
            rows += 1
    assert rows == sum(int(np.prod(n.cpt.shape[:-1])) for n in net.nodes.values())


def test_scalar_sampler_accepts_numpy_draws_and_parent_values():
    net = build_network("Hailfinder")
    name = next(v for v in net.topo_order if net.nodes[v].parents)
    key = tuple(np.int64(0) for _ in net.nodes[name].parents)
    u = np.float64(0.5)
    assert net.sample_node_scalar(name, key, u) == net.sample_node_scalar(
        name, tuple(map(int, key)), float(u)
    )


# ---------------------------------------------------------------------------
# work counts: exactly one scalar sample per node sample


#: ``sample_node_scalar`` calls of each run below, as counted on the
#: numpy ``searchsorted`` implementation before plan compilation
PINNED_CALLS = {
    CoherenceMode.ASYNCHRONOUS: (4980, 380),
    CoherenceMode.SYNCHRONOUS: (4096, 0),
}


@pytest.mark.parametrize("mode", sorted(PINNED_CALLS, key=lambda m: m.value))
def test_scalar_sample_call_count_pinned(mode, monkeypatch):
    calls = []
    real = BayesianNetwork.sample_node_scalar

    def counting(self, name, parent_values, u):
        calls.append(name)
        return real(self, name, parent_values, u)

    monkeypatch.setattr(BayesianNetwork, "sample_node_scalar", counting)
    net = make_random_network(16, 22, seed=1, name="small")
    result = run_parallel_logic_sampling(
        ParallelLsConfig(
            net=net, query=15, n_procs=2, mode=mode, age=10, seed=3,
            precision=0.05, max_iterations=3000,
        )
    )
    assert result.converged
    n_calls, resampled = PINNED_CALLS[mode]
    assert len(calls) == n_calls
    assert result.rollback.nodes_resampled == resampled
