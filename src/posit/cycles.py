"""Decide and find cycles whose per-coordinate minimum priorities are even.

Graphs are plain dicts mapping a node to a list of (letter, successor,
priorities) triples, where priorities is a tuple with one entry per
acceptance coordinate.  Every graph explored from roots (the residual
graph, a strategy's plays and their product with an automaton) is built
by `reachable_graph`, from its roots and a function giving each node's
edges; the arena × automaton game, whose every node is a root, is
numbered directly by `games.product_game`.  There are two evaluators.
The sweep `_accepting_components`, for branching graphs, enumerates
even threshold tuples in ascending order; for each it keeps only edges
at or above the thresholds, decomposes into strongly connected
components and yields each component containing, for every coordinate,
an edge meeting the threshold exactly.  Any cycle through such edges
has exactly the threshold tuple as its coordinate minima, hence is
accepting in every coordinate.  `nodes_reaching_accepting_cycle` takes
every such component of a graph and closes them backwards;
`accepting_lasso_from` takes the first one of the part of the graph a
node reaches and spells a lasso through it.  The linear walk
`_walk`, for graphs in which every node has one move, follows the unique
lasso from a node: it decides strategy plays, the priority monoid's
omega-powers and lasso words (`automata.member` and `_lasso_mask`).
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


def tarjan_scc(order, succ):
    """Strongly connected components, iteratively; DFS roots follow `order`."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = 0
    for root in order:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ(w))))
                    pushed = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _threshold_axes(graph):
    """Per coordinate, the even priorities on the edges, ascending.

    Only these can be met exactly by a cycle, so other thresholds are
    never tried.  None when some coordinate has no even priority.
    """
    pris = [p for edges in graph.values() for _c, _d, p in edges]
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
    """The sweep: each (threshold, component) that `_qualifies`, even
    threshold tuples ascending, and for each the components in
    `tarjan_scc` order with DFS roots in the graph's order."""
    axes = _threshold_axes(graph)
    if axes is None:
        return
    for threshold in iproduct(*axes):
        def succ(v):
            return [d for _c, d, pris in graph[v]
                    if all(map(ge, pris, threshold))]
        for comp in tarjan_scc(graph, succ):
            if _qualifies(comp, graph, threshold):
                yield threshold, comp


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


def accepting_lasso_from(graph, start):
    """A lasso from `start` whose cycle is min-even in every coordinate.

    Returns a LassoWord (access path plus cycle) or None.  The sweep
    runs on the part of the graph that `start` reaches, numbered
    breadth-first; its first component gives the cycle, entered at the
    component's first node, and the access path is a shortest path
    there.  Deterministic: BFS in edge-list order, thresholds ascending.
    """
    sub = reachable_graph([start], graph.__getitem__)
    found = next(_accepting_components(sub), None)
    if found is None:
        return None
    threshold, comp = found
    compset = set(comp)
    comp = [v for v in sub if v in compset]
    internal = _qualifies(comp, sub, threshold)
    entry = comp[0]
    # no priority is negative, so the zero threshold keeps every edge
    prefix = [c for c, _p in
              _path_among(sub, sub, (0,) * len(threshold), start, entry)]
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
        for c3, pris3 in _path_among(sub, compset, threshold, cur, v2):
            cycle.append(c3)
            mark(pris3)
        if covered[i]:
            cur = v2
            continue
        cycle.append(c2)
        mark(pris2)
        cur = d2
    for c3, _pris3 in _path_among(sub, compset, threshold, cur, entry):
        cycle.append(c3)
    return LassoWord("".join(prefix), "".join(cycle))


def nodes_reaching_accepting_cycle(graph):
    """All nodes from which some all-coordinates-even cycle is reachable."""
    cores = set()
    for _threshold, comp in _accepting_components(graph):
        cores.update(comp)
    if not cores:
        return set()
    preds = {v: [] for v in graph}
    for v, edges in graph.items():
        for _c, d, _p in edges:
            preds[d].append(v)
    out = set(cores)
    stack = list(cores)
    while stack:
        v = stack.pop()
        for u in preds[v]:
            if u not in out:
                out.add(u)
                stack.append(u)
    return out


def _walk(node, step, memo) -> bool:
    """Is the least priority odd on the cycle that `node` reaches, where
    every node has one move `step(node) -> (next node, priority)`?  With
    complement priorities (shifted by one), True means accepted.

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
        verdict = min(pris[path.index(node):]) % 2 == 1
    for v in path:
        memo[v] = verdict
    return verdict
