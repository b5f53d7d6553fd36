"""Weighted minimum dominating set algorithms — Definition 2.4.

The paper shows that an optimal query-selection plan is a Weighted
Minimum Dominating Set (WMDS) of the attribute-value graph: a vertex set
``V'`` such that every other vertex is adjacent to ``V'``, with minimum
total weight.  WMDS is NP-complete, so this module provides:

- :func:`greedy_weighted_dominating_set` — the classical ln(n)-factor
  greedy approximation (max newly-dominated-per-unit-weight), used as
  the offline "oracle" baseline in the benchmarks;
- :func:`exact_weighted_dominating_set` — branch-and-bound exact search
  for small graphs, used by tests to validate the greedy's output; and
- :func:`is_dominating_set` — the validity predicate used everywhere.

A second, crawling-specific notion lives alongside: a record-cover via
:func:`greedy_record_cover`, where choosing a vertex (issuing its query)
covers all *records* containing it.  That is the quantity the crawler
actually optimizes (database coverage per page), and greedy weighted
set-cover is its textbook approximation.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Optional

import networkx as nx

Node = Hashable
WeightFn = Callable[[Node], float]


def _weight_fn(graph: nx.Graph, weight: Optional[str]) -> WeightFn:
    if weight is None:
        return lambda _node: 1.0
    return lambda node: float(graph.nodes[node].get(weight, 1.0))


def is_dominating_set(graph: nx.Graph, nodes: Iterable[Node]) -> bool:
    """True iff every vertex is in ``nodes`` or adjacent to one of them."""
    chosen = set(nodes)
    if not chosen and len(graph) > 0:
        return False
    dominated = set(chosen)
    for node in chosen:
        dominated.update(graph.neighbors(node))
    return len(dominated) == len(graph)


def total_weight(graph: nx.Graph, nodes: Iterable[Node], weight: Optional[str] = "weight") -> float:
    """Sum of node weights; unweighted (cardinality) when ``weight`` is None."""
    fn = _weight_fn(graph, weight)
    return sum(fn(node) for node in nodes)


def greedy_weighted_dominating_set(
    graph: nx.Graph, weight: Optional[str] = "weight"
) -> set[Node]:
    """Greedy WMDS: repeatedly pick the vertex maximizing new-coverage/weight.

    This is the standard reduction of dominating set to weighted set
    cover (each vertex's set = its closed neighbourhood) solved by the
    greedy H(n)-approximation.  Runs in ``O((V + E) log V)`` using a
    lazy-deletion heap.
    """
    if len(graph) == 0:
        return set()
    fn = _weight_fn(graph, weight)
    undominated: set[Node] = set(graph.nodes)
    chosen: set[Node] = set()

    def gain(node: Node) -> int:
        if node in undominated:
            count = 1
        else:
            count = 0
        count += sum(1 for n in graph.neighbors(node) if n in undominated)
        return count

    # Lazy heap of (-gain/weight, node); stale entries are re-scored on pop.
    heap = [(-gain(node) / max(fn(node), 1e-12), id(node), node) for node in graph.nodes]
    heapq.heapify(heap)

    while undominated:
        neg_score, _tie, node = heapq.heappop(heap)
        current = gain(node) / max(fn(node), 1e-12)
        if current <= 0:
            continue
        if -neg_score > current + 1e-12:
            # Stale entry: re-push with the fresh score.
            heapq.heappush(heap, (-current, id(node), node))
            continue
        chosen.add(node)
        newly = {node} if node in undominated else set()
        newly.update(n for n in graph.neighbors(node) if n in undominated)
        undominated -= newly
    assert is_dominating_set(graph, chosen)
    return chosen


def exact_weighted_dominating_set(
    graph: nx.Graph, weight: Optional[str] = "weight", max_nodes: int = 24
) -> set[Node]:
    """Exact WMDS by branch and bound over vertex subsets.

    Only intended for validation on small graphs: ``len(graph)`` must
    not exceed ``max_nodes`` (default 24, i.e. ≤ 2^24 leaves before
    pruning).  Nodes are bit-indexed and closed neighbourhoods become
    bitmasks, so the inner loop is integer arithmetic.
    """
    n = len(graph)
    if n == 0:
        return set()
    if n > max_nodes:
        raise ValueError(f"exact search limited to {max_nodes} nodes, got {n}")
    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    fn = _weight_fn(graph, weight)
    weights = [fn(node) for node in nodes]
    closed = []
    for node in nodes:
        mask = 1 << index[node]
        for neighbor in graph.neighbors(node):
            mask |= 1 << index[neighbor]
        closed.append(mask)
    full = (1 << n) - 1

    # Greedy warm start tightens the initial bound.
    greedy = greedy_weighted_dominating_set(graph, weight)
    best_weight = sum(weights[index[node]] for node in greedy)
    best_set: FrozenSet[int] = frozenset(index[node] for node in greedy)

    max_cover = max(bin(m).count("1") for m in closed)
    min_weight = min(weights) if weights else 0.0
    by_value = sorted(
        range(n), key=lambda i: -bin(closed[i]).count("1") / max(weights[i], 1e-12)
    )

    def search(dominated: int, chosen: FrozenSet[int], acc: float) -> None:
        nonlocal best_weight, best_set
        if dominated == full:
            if acc < best_weight:
                best_weight = acc
                best_set = chosen
            return
        remaining = full & ~dominated
        # Lower bound: covering max_cover new nodes per pick costs at least this.
        need = math.ceil(bin(remaining).count("1") / max_cover)
        if acc + need * min_weight >= best_weight:
            return
        # Pick an undominated pivot; any dominating set must contain some
        # vertex of the pivot's closed neighbourhood, so branching over
        # those coverers is a complete search.
        pivot = (remaining & -remaining).bit_length() - 1
        for i in by_value:
            if i in chosen or not closed[i] >> pivot & 1:
                continue
            search(dominated | closed[i], chosen | {i}, acc + weights[i])

    search(0, frozenset(), 0.0)
    result = {nodes[i] for i in best_set}
    assert is_dominating_set(graph, result)
    return result


def greedy_record_cover(
    value_to_records: Dict[Node, FrozenSet[int]],
    costs: Optional[Dict[Node, float]] = None,
    target_records: Optional[int] = None,
) -> list[Node]:
    """Greedy weighted set cover over *records* — the oracle query plan.

    Parameters
    ----------
    value_to_records:
        For each candidate query (AVG vertex), the set of record ids the
        query retrieves.
    costs:
        Page cost per query; defaults to 1 per query (pure cardinality).
    target_records:
        Stop once this many records are covered (e.g. 90% of ``|DB|``);
        by default covers everything coverable.

    Returns
    -------
    list
        Chosen queries in selection order, so prefixes are themselves
        greedy plans for smaller coverage targets.
    """
    remaining_target = (
        len(set().union(*value_to_records.values())) if value_to_records else 0
    )
    if target_records is not None:
        remaining_target = min(remaining_target, target_records)
    covered: set[int] = set()
    chosen: list[Node] = []
    cost_of = (lambda v: 1.0) if costs is None else (lambda v: max(costs.get(v, 1.0), 1e-12))
    heap = [
        (-len(records) / cost_of(value), i, value)
        for i, (value, records) in enumerate(value_to_records.items())
    ]
    heapq.heapify(heap)
    while len(covered) < remaining_target and heap:
        neg_score, tie, value = heapq.heappop(heap)
        new = value_to_records[value] - covered
        score = len(new) / cost_of(value)
        if score <= 0:
            continue
        if -neg_score > score + 1e-12:
            heapq.heappush(heap, (-score, tie, value))
            continue
        chosen.append(value)
        covered |= new
    return chosen


def dominating_set_lower_bound(graph: nx.Graph) -> int:
    """A cheap cardinality lower bound: ``ceil(n / (max_degree + 1))``.

    Every chosen vertex dominates at most ``max_degree + 1`` vertices,
    so no dominating set can be smaller.  Used in tests to sandwich the
    greedy solution.
    """
    n = len(graph)
    if n == 0:
        return 0
    max_degree = max(degree for _node, degree in graph.degree())
    return math.ceil(n / (max_degree + 1))
