"""Decide and find cycles whose per-coordinate minimum priorities are even.

Graphs are plain dicts mapping a node to a list of (letter, successor,
priorities) triples, where priorities is a tuple with one entry per
acceptance coordinate.  Every graph explored from roots (the residual
graph, a strategy's plays and their product with an automaton) is built
by `reachable_graph`, from its roots and a function giving each node's
edges, so its nodes come breadth-first from those roots; the arena ×
automaton game, whose every node is a root, is numbered directly by
`games.product_game`.  There are two evaluators.
The sweep `_accepting_components`, for branching graphs, numbers the
nodes of the graph it is given in the graph's own order and enumerates
even threshold tuples in ascending order; for each it keeps only edges
at or above the thresholds, as successor lists over the node numbers,
finds the strongly connected components that hold a cycle (`tarjan_scc`,
on integer lists) and yields each one containing, for every
coordinate, an edge meeting the threshold exactly, with its internal
edges.  Any cycle through such edges has exactly the threshold tuple as
its coordinate minima, hence is accepting in every coordinate.
`nodes_reaching_accepting_cycle` takes every such component of a graph
and closes them backwards, by `reachable_graph` over the reversed
edges; `accepting_lasso_from` takes the first one of a graph built from
one root and spells a lasso from that root through it.  The linear walk
`_walk`, for graphs in which every node has one move, accepts the unique
lasso from a node iff its cycle's least priority is even, as the sweep
does: it decides strategy plays, the priority monoid's omega-powers and
lasso words (`automata.member` and `_lasso_mask`, a whole period per
move).
"""

from collections import deque
from itertools import product as iproduct
from operator import ge

from .words import LassoWord


def reachable_graph(roots, moves):
    """The nodes reachable from `roots`, in breadth-first order, each
    mapped to `moves(node)`: the edges leaving it, each a tuple with the
    successor second.  Repeated roots count once."""
    graph = dict.fromkeys(roots)
    queue = list(graph)
    for node in queue:
        graph[node] = edges = moves(node)
        for edge in edges:
            if edge[1] not in graph:
                graph[edge[1]] = None
                queue.append(edge[1])
    return graph


def tarjan_scc(succ):
    """The strongly connected components that hold a cycle, of the graph
    on 0 .. len(succ) - 1 in which node v has the successors succ[v]:
    iteratively, DFS roots ascending, each component in the order its
    nodes leave the stack.  A lone node holds a cycle only through a
    self-loop; the others are dropped as they leave the stack, so none
    of them is ever listed."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    onstack = bytearray(n)
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = 1
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = 1
                    work.append((w, iter(succ[w])))
                    break
                if onstack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                if low[v] == index[v]:
                    w = stack.pop()
                    onstack[w] = 0
                    if w != v:
                        comp = [w]
                        while w != v:
                            w = stack.pop()
                            onstack[w] = 0
                            comp.append(w)
                        comps.append(comp)
                    elif v in succ[v]:
                        comps.append([v])
    return comps


def _threshold_axes(pris):
    """Per coordinate, the even priorities among the tuples `pris`,
    ascending.

    Only these can be met exactly by a cycle, so other thresholds are
    never tried.  None when some coordinate has no even priority.
    """
    axes = [sorted({p for p in column if p % 2 == 0}) for column in zip(*pris)]
    if not axes or not all(axes):
        return None
    return axes


def _qualifies(comp, graph, threshold):
    """Internal edges of `comp` at or above `threshold`, or None.

    Returns the edge list only when every coordinate's threshold is met
    exactly by at least one internal edge.
    """
    compset = set(comp)
    internal = []
    exact = [False] * len(threshold)
    for v in comp:
        for c, d, pris in graph[v]:
            if d in compset and all(map(ge, pris, threshold)):
                internal.append((v, c, d, pris))
                for i, t in enumerate(threshold):
                    if pris[i] == t:
                        exact[i] = True
    if internal and all(exact):
        return internal
    return None


def _accepting_components(graph):
    """The sweep over `graph`, every edge of which leads to one of its
    nodes: each (threshold, component, its internal edges) that
    `_qualifies`, even threshold tuples ascending, and for each the
    components in `tarjan_scc` order with DFS roots in the graph's own
    order.  A component lists its nodes in that order."""
    nodes = list(graph)
    num = {v: i for i, v in enumerate(nodes)}
    pris = {p for edges in graph.values() for _c, _d, p in edges}
    axes = _threshold_axes(pris)
    if axes is None:
        return
    for threshold in iproduct(*axes):
        kept = {p for p in pris if all(map(ge, p, threshold))}
        succ = [[num[d] for _c, d, p in graph[v] if p in kept] for v in nodes]
        for comp in tarjan_scc(succ):
            comp = [nodes[i] for i in sorted(comp)]
            internal = _qualifies(comp, graph, threshold)
            if internal:
                yield threshold, comp, internal


def _path_among(graph, allowed, threshold, frm, to):
    """Shortest path from `frm` to `to` using allowed nodes and edges at or
    above `threshold`; returns [(letter, pris), ...]. Assumes one exists."""
    if frm == to:
        return []
    parent = {frm: None}
    queue = deque([frm])
    while queue:
        v = queue.popleft()
        for c, d, pris in graph[v]:
            if d in allowed and d not in parent and all(map(ge, pris, threshold)):
                parent[d] = (v, c, pris)
                if d == to:
                    out = []
                    while parent[d] is not None:
                        v2, c2, pr2 = parent[d]
                        out.append((c2, pr2))
                        d = v2
                    out.reverse()
                    return out
                queue.append(d)
    raise AssertionError("no path inside a strongly connected component")


def accepting_lasso_from(graph):
    """A lasso from the root of `graph`, its first node, whose cycle is
    min-even in every coordinate; `graph` is built by `reachable_graph`
    from that one root.

    Returns a LassoWord (access path plus cycle) or None.  The first
    component of the sweep gives the cycle (`_lasso_through`).
    Deterministic: BFS in edge-list order, thresholds ascending.
    """
    found = next(_accepting_components(graph), None)
    if found is None:
        return None
    return _lasso_through(graph, *found)


def _lasso_through(graph, threshold, comp, internal):
    """The lasso from the first node of `graph` through the component
    `comp` that `_qualifies` at `threshold` with the `internal` edges:
    the cycle is entered at the first node of `comp` and meets every
    coordinate's threshold exactly, and the access path is a shortest
    path there."""
    compset = set(comp)
    entry = comp[0]
    # no priority is negative, so the zero threshold keeps every edge
    prefix = [c for c, _p in
              _path_among(graph, graph, (0,) * len(threshold),
                          next(iter(graph)), entry)]
    covered = [False] * len(threshold)

    def mark(pris):
        for i, t in enumerate(threshold):
            if pris[i] == t:
                covered[i] = True

    cycle = []
    cur = entry
    for i in range(len(threshold)):
        if covered[i]:
            continue
        v2, c2, d2, pris2 = next(
            e for e in internal if e[3][i] == threshold[i])
        for c3, pris3 in _path_among(graph, compset, threshold, cur, v2):
            cycle.append(c3)
            mark(pris3)
        if covered[i]:
            cur = v2
            continue
        cycle.append(c2)
        mark(pris2)
        cur = d2
    for c3, _pris3 in _path_among(graph, compset, threshold, cur, entry):
        cycle.append(c3)
    return LassoWord("".join(prefix), "".join(cycle))


def nodes_reaching_accepting_cycle(graph):
    """All nodes from which some all-coordinates-even cycle is reachable:
    the sweep's components and, by `reachable_graph` from them over
    (letter, predecessor) edges, the nodes reaching them."""
    cores = [v for _t, comp, _e in _accepting_components(graph) for v in comp]
    if not cores:
        return set()
    preds = {v: [] for v in graph}
    for v, edges in graph.items():
        for c, d, _p in edges:
            preds[d].append((c, v))
    return set(reachable_graph(cores, preds.__getitem__))


def _walk(node, step, memo) -> bool:
    """Is the least priority even on the cycle that `node` reaches, where
    every node has one move `step(node) -> (next node, priority)`?

    The walk follows single moves until it meets a node of `memo` or
    closes a cycle on its own path.  Every node of the path enters `memo`
    with the verdict, so walks from many starts cost O(nodes) together.
    """
    path, pris = [], []
    while node not in memo:
        memo[node] = None  # on the current walk
        path.append(node)
        node, pri = step(node)
        pris.append(pri)
    verdict = memo[node]
    if verdict is None:
        verdict = min(pris[path.index(node):]) % 2 == 0
    for v in path:
        memo[v] = verdict
    return verdict
