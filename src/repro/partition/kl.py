"""Kernighan–Lin bisection refinement.

The classical pairwise-swap improvement pass: repeatedly compute, for the
current bisection, the best sequence of (a, b) swaps by greedy D-value
selection with tentative locking, and commit the prefix of the sequence
with the largest cumulative gain.  Stops when a pass yields no positive
gain or ``max_passes`` is reached.

Used both standalone and as the refinement step of the multilevel scheme.
Each pass picks up to n/2 pairs, each by scanning every unlocked
(a, b) pair, so a pass costs O(n³) dict lookups; edge weights come from
a ``{v: {nb: weight}}`` adjacency built once per call, and a swap
updates the D-values of the swapped pair's neighbours only.  Plenty for
the paper's 54–56-node belief networks (and the property tests keep it
honest on random graphs up to a few hundred nodes).
"""

from __future__ import annotations

import networkx as nx

from repro.partition.metrics import edge_cut, validate_partition


def _adjacency(graph: nx.Graph) -> dict:
    """``{v: {nb: weight}}`` with networkx's default weight of 1."""
    return {
        v: {nb: data.get("weight", 1.0) for nb, data in nbrs.items()}
        for v, nbrs in graph.adjacency()
    }


def _d_values(adj: dict, parts: dict) -> dict:
    """D(v) = external cost - internal cost for every vertex."""
    d = {}
    for v, nbrs in adj.items():
        internal = external = 0.0
        side = parts[v]
        for nb, w in nbrs.items():
            if parts[nb] == side:
                internal += w
            else:
                external += w
        d[v] = external - internal
    return d


def kl_refine(graph: nx.Graph, parts: dict, max_passes: int = 10) -> dict:
    """Refine a bisection in place-of (returns a new dict); cut never worsens."""
    k = validate_partition(graph, parts)
    if k == 1:
        return dict(parts)
    if k != 2:
        raise ValueError(f"KL refines bisections only, got {k} parts")
    parts = dict(parts)
    adj = _adjacency(graph)

    for _ in range(max_passes):
        d = _d_values(adj, parts)
        side_a = [v for v in adj if parts[v] == 0]
        side_b = [v for v in adj if parts[v] == 1]
        locked: set = set()
        swaps: list[tuple] = []
        gains: list[float] = []
        n_pairs = min(len(side_a), len(side_b))

        for _ in range(n_pairs):
            best = None
            # greedy best pair among unlocked vertices; the first pair in
            # (side_a, side_b) order wins ties
            free_b = [b for b in side_b if b not in locked]
            for a in side_a:
                if a in locked:
                    continue
                d_a, w_a = d[a], adj[a].get
                for b in free_b:
                    gain = d_a + d[b] - 2.0 * w_a(b, 0.0)
                    if best is None or gain > best[0]:
                        best = (gain, a, b)
            if best is None:
                break
            gain, a, b = best
            swaps.append((a, b))
            gains.append(gain)
            locked.update((a, b))
            # update D-values as if (a, b) were swapped; only neighbours
            # of a or b change
            w_a, w_b = adj[a].get, adj[b].get
            for v in adj[a].keys() | adj[b].keys():
                if v in locked:
                    continue
                w_va, w_vb = w_a(v, 0.0), w_b(v, 0.0)
                if parts[v] == 0:
                    d[v] += 2.0 * w_va - 2.0 * w_vb
                else:
                    d[v] += 2.0 * w_vb - 2.0 * w_va

        # commit the best prefix
        best_prefix, best_total = 0, 0.0
        running = 0.0
        for i, g in enumerate(gains):
            running += g
            if running > best_total:
                best_total, best_prefix = running, i + 1
        if best_prefix == 0:
            break
        for a, b in swaps[:best_prefix]:
            parts[a], parts[b] = 1, 0
    return parts


def kl_bisection(graph: nx.Graph, initial: dict | None = None, max_passes: int = 10) -> dict:
    """Convenience: KL starting from ``initial`` or an even node split."""
    if initial is None:
        nodes = sorted(graph.nodes, key=str)
        half = len(nodes) // 2
        initial = {v: (0 if i < half else 1) for i, v in enumerate(nodes)}
    refined = kl_refine(graph, initial, max_passes=max_passes)
    assert edge_cut(graph, refined) <= edge_cut(graph, initial)
    return refined
