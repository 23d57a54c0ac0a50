"""Decide and find cycles whose per-coordinate minimum priorities are even.

Every graph explored from roots (the residual graph, a strategy's plays
and their product with an automaton) is built by `reachable_graph`,
from its roots and a function giving each node's edges.  It numbers
each node as it discovers it, breadth-first from the roots, and keeps
beside the edges that function gave the numbers of their successors,
so nothing after the build looks a node up again (a `Graph`).  The
arena × automaton game, whose every node is a root, is numbered
directly by `games.product_game`.  There are two evaluators.
The sweep `_accepting_components`, for branching graphs, enumerates
even threshold tuples in ascending order; for each it keeps only edges
at or above the thresholds, as successor lists over the node numbers,
finds the strongly connected components that hold a cycle (`tarjan_scc`,
on integer lists) and yields each one containing, for every
coordinate, an edge meeting the threshold exactly.  All components of
one threshold are qualified in one pass over their kept edges, by
component id, and a threshold that no kept edge meets exactly in some
coordinate is skipped before any component is computed.  Any cycle
through such edges has exactly the threshold tuple as its coordinate
minima, hence is accepting in every coordinate.
`nodes_reaching_accepting_cycle` takes every such component of a graph
and closes them backwards over predecessor numbers;
`accepting_lasso_from` takes the first one of a graph built from one
root and spells a lasso from that root through it.  The linear walk
`_walk`, for graphs in which every node has one move, accepts the unique
lasso from a node iff its cycle's least priority is even, as the sweep
does: it decides strategy plays, the priority monoid's omega-powers and
lasso words (`automata.member` and `_lasso_mask`, a whole period per
move).
"""

from collections import deque, namedtuple
from functools import reduce
from itertools import compress, product as iproduct
from operator import ge, or_

from .errors import ResidualGraphTooLarge
from .words import LassoWord


class Graph(namedtuple("Graph", "nodes index edges succ")):
    """A graph built by `reachable_graph`.  Node number i is nodes[i],
    and index maps each node back to its number.  edges[i] lists the
    edges leaving node i as `moves` gave them, each a tuple with the
    successor second and, for the sweep, the tuple of its priorities
    third; succ[i] lists their successors' numbers in the same order."""

    __slots__ = ()


def reachable_graph(roots, moves, cap=None) -> Graph:
    """The nodes reachable from `roots`, numbered breadth-first in the
    order they are discovered, each with `moves(node)`: the edges
    leaving it, each a tuple with the successor second.  Repeated roots
    count once.  With a `cap`, discovering node number `cap`, one more
    than the cap allows, raises ResidualGraphTooLarge: the cap bounds
    the residual graph."""
    index = {}
    nodes = []
    for node in roots:
        if node not in index:
            if len(nodes) == cap:
                raise _too_large(cap)
            index[node] = len(nodes)
            nodes.append(node)
    edges = []
    succ = []
    for node in nodes:              # grows while iterated: breadth-first
        out = moves(node)
        nums = []
        for edge in out:
            j = index.get(edge[1])
            if j is None:
                j = len(nodes)
                if j == cap:
                    raise _too_large(cap)
                index[edge[1]] = j
                nodes.append(edge[1])
            nums.append(j)
        edges.append(out)
        succ.append(nums)
    return Graph(nodes, index, edges, succ)


def _too_large(cap):
    return ResidualGraphTooLarge("residual graph exceeds %d nodes" % cap)


def tarjan_scc(succ):
    """The strongly connected components that hold a cycle, of the graph
    on 0 .. len(succ) - 1 in which node v has the successors succ[v]:
    iteratively, DFS roots ascending, each component in the order its
    nodes leave the stack.  A lone node holds a cycle only through a
    self-loop; the others are dropped as they leave the stack, so none
    of them is ever listed."""
    n = len(succ)
    # a node's DFS index while it is on the stack; -1 before, n after,
    # so that a node off the stack never lowers a low link
    index = [-1] * n
    low = [0] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                x = index[w]
                if x < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if x < low[v]:
                    low[v] = x
            else:
                work.pop()
                lv = low[v]
                if work:
                    pv = work[-1][0]
                    if lv < low[pv]:
                        low[pv] = lv
                if lv == index[v]:
                    w = stack.pop()
                    index[w] = n
                    if w != v:
                        comp = [w]
                        while w != v:
                            w = stack.pop()
                            index[w] = n
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


def _accepting_components(graph: Graph):
    """The sweep over `graph`: each (threshold, component) such that the
    component's internal edges at or above the threshold meet every
    coordinate's threshold exactly, even threshold tuples ascending, and
    for each the components in `tarjan_scc` order.  A component lists
    its node numbers ascending.  A threshold that no kept edge meets
    exactly in some coordinate has no such component, so its components
    are never computed."""
    edges, succ = graph.edges, graph.succ
    pris = {edge[2] for out in edges for edge in out}
    axes = _threshold_axes(pris)
    if axes is None:
        return
    every = (1 << len(axes)) - 1
    for threshold in iproduct(*axes):
        # each kept priority tuple, with the coordinates it meets
        # exactly as bits
        kept = {p: sum(1 << i for i, t in enumerate(threshold) if p[i] == t)
                for p in pris if all(map(ge, p, threshold))}
        if reduce(or_, kept.values(), 0) != every:
            continue            # no kept edge meets some coordinate exactly
        if len(kept) == len(pris):
            kept_succ = succ
        else:
            kept_succ = [[j for j, edge in zip(nums, out) if edge[2] in kept]
                         for nums, out in zip(succ, edges)]
        comps = tarjan_scc(kept_succ)
        comp_of = [-1] * len(succ)
        for cid, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = cid
        for cid, comp in enumerate(comps):
            met = 0
            for v in comp:
                for j, edge in zip(succ[v], edges[v]):
                    if comp_of[j] == cid:
                        met |= kept.get(edge[2], 0)
                if met == every:
                    comp.sort()
                    yield threshold, comp
                    break


def _path_among(graph: Graph, allowed, threshold, frm, to):
    """Shortest path from `frm` to `to` using allowed nodes and edges at or
    above `threshold`; returns [(letter, pris), ...]. Assumes one exists."""
    if frm == to:
        return []
    edges, succ = graph.edges, graph.succ
    parent = {frm: None}
    queue = deque([frm])
    while queue:
        v = queue.popleft()
        for j, edge in zip(succ[v], edges[v]):
            if (j in allowed and j not in parent
                    and all(map(ge, edge[2], threshold))):
                parent[j] = (v, edge)
                if j == to:
                    out = []
                    while parent[j] is not None:
                        j, edge = parent[j]
                        out.append((edge[0], edge[2]))
                    out.reverse()
                    return out
                queue.append(j)
    raise AssertionError("no path inside a strongly connected component")


def accepting_lasso_from(graph: Graph):
    """A lasso from the root of `graph`, its node 0, whose cycle is
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


def _lasso_through(graph: Graph, threshold, comp):
    """The lasso from node 0 of `graph` through the component `comp`
    that the sweep yields at `threshold`: the cycle is entered at the
    first node of `comp` and meets every coordinate's threshold exactly,
    and the access path is a shortest path there."""
    edges, succ = graph.edges, graph.succ
    compset = set(comp)
    # the internal edges at or above the threshold, in node order
    internal = [(v, edge[0], j, edge[2]) for v in comp
                for j, edge in zip(succ[v], edges[v])
                if j in compset and all(map(ge, edge[2], threshold))]
    entry = comp[0]
    # no priority is negative, so the zero threshold keeps every edge
    prefix = [c for c, _p in
              _path_among(graph, range(len(succ)), (0,) * len(threshold),
                          0, entry)]
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


def nodes_reaching_accepting_cycle(graph: Graph) -> set:
    """All nodes from which some all-coordinates-even cycle is reachable:
    the sweep's components and, breadth-first over predecessor numbers,
    the nodes reaching them."""
    succ = graph.succ
    queue = [v for _t, comp in _accepting_components(graph) for v in comp]
    if not queue:
        return set()
    preds = [[] for _ in succ]
    for v, nums in enumerate(succ):
        for j in nums:
            preds[j].append(v)
    seen = bytearray(len(succ))
    for v in queue:                 # grows while iterated
        if not seen[v]:
            seen[v] = 1
            queue += preds[v]
    return set(compress(graph.nodes, seen))


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
