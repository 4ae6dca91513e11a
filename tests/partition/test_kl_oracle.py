"""Kernighan–Lin refinement against its networkx-lookup reference.

``kl_refine`` reads edge weights from a plain ``{v: {nb: weight}}``
adjacency built once per call and updates D-values only for neighbours
of a swapped pair.  Neither may change a decision: the partition it
returns must be *identical* to the straightforward version below, which
looks every pair up in the networkx graph.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.table2 import build_network
from repro.partition import kl_refine
from repro.partition.metrics import validate_partition
from repro.partition.multilevel import best_of


def _reference_d_values(graph, parts):
    d = {}
    for v in graph.nodes:
        internal = external = 0.0
        for nb, data in graph[v].items():
            w = data.get("weight", 1.0)
            if parts[nb] == parts[v]:
                internal += w
            else:
                external += w
        d[v] = external - internal
    return d


def reference_kl_refine(graph, parts, max_passes=10):
    """KL refinement with per-pair ``has_edge`` lookups (the oracle)."""
    k = validate_partition(graph, parts)
    if k == 1:
        return dict(parts)
    if k != 2:
        raise ValueError(f"KL refines bisections only, got {k} parts")
    parts = dict(parts)
    for _ in range(max_passes):
        d = _reference_d_values(graph, parts)
        side_a = [v for v in graph.nodes if parts[v] == 0]
        side_b = [v for v in graph.nodes if parts[v] == 1]
        locked = set()
        swaps, gains = [], []
        for _ in range(min(len(side_a), len(side_b))):
            best = None
            for a in side_a:
                if a in locked:
                    continue
                for b in side_b:
                    if b in locked:
                        continue
                    w_ab = graph[a][b].get("weight", 1.0) if graph.has_edge(a, b) else 0.0
                    gain = d[a] + d[b] - 2.0 * w_ab
                    if best is None or gain > best[0]:
                        best = (gain, a, b)
            if best is None:
                break
            gain, a, b = best
            swaps.append((a, b))
            gains.append(gain)
            locked.update((a, b))
            for v in graph.nodes:
                if v in locked:
                    continue
                w_va = graph[v][a].get("weight", 1.0) if graph.has_edge(v, a) else 0.0
                w_vb = graph[v][b].get("weight", 1.0) if graph.has_edge(v, b) else 0.0
                if parts[v] == 0:
                    d[v] += 2.0 * w_va - 2.0 * w_vb
                else:
                    d[v] += 2.0 * w_vb - 2.0 * w_va
        best_prefix, best_total, running = 0, 0.0, 0.0
        for i, g in enumerate(gains):
            running += g
            if running > best_total:
                best_total, best_prefix = running, i + 1
        if best_prefix == 0:
            break
        for a, b in swaps[:best_prefix]:
            parts[a], parts[b] = 1, 0
    return parts


WEIGHTS = st.one_of(
    st.none(),  # no weight attribute: networkx's default of 1
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)


@st.composite
def weighted_bisections(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
        for u, v in chosen:
            w = draw(WEIGHTS)
            if w is None:
                g.add_edge(u, v)
            else:
                g.add_edge(u, v, weight=w)
    sides = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return g, dict(enumerate(sides))


@settings(max_examples=200, deadline=None)
@given(case=weighted_bisections(), max_passes=st.integers(1, 10))
def test_kl_refine_matches_reference(case, max_passes):
    graph, parts = case
    assert kl_refine(graph, parts, max_passes) == reference_kl_refine(
        graph, parts, max_passes
    )


def test_kl_refine_edgeless_and_single_side():
    g = nx.empty_graph(6)
    split = {v: v % 2 for v in g}
    assert kl_refine(g, split) == reference_kl_refine(g, split) == split
    path = nx.path_graph(5)
    one_side = {v: 0 for v in path}
    assert kl_refine(path, one_side) == one_side


#: ``best_of(skeleton, k, tries=4, seed)`` part labels in node order, as
#: computed by the reference refinement
PINNED_PARTITIONS = {
    ("AA", 2, 0): "011111101010000000011101111111000101010010010100010011",
    ("AA", 2, 7): "011111101010000000011101111111000101010010010100010011",
    ("AA", 4, 0): "132232203120100011133202233222001313120130131200020133",
    ("AA", 4, 7): "022232203021011010033312233222110303021031030211121033",
    ("Hailfinder", 2, 0): "00000000000000000111111111111111111111111111100000000000",
    ("Hailfinder", 2, 7): "00011000000000001111111111111111111111111100000000000000",
    ("Hailfinder", 4, 0): "33300333333333330000000000001111111111111122222222222222",
    ("Hailfinder", 4, 7): "00022000000000002222222222223333333333333311111111111111",
}


def test_best_of_pinned_on_paper_networks():
    skeletons = {name: build_network(name).skeleton() for name in ("AA", "Hailfinder")}
    for (name, k, seed), labels in PINNED_PARTITIONS.items():
        parts = best_of(skeletons[name], k, tries=4, seed=seed)
        assert "".join(str(parts[v]) for v in sorted(parts)) == labels, (name, k, seed)
