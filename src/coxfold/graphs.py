"""S-labeled graphs with involution-paired edges, folds, and AO-moves.

Edges come in inverse pairs ``e, inv(e)`` with ``alpha(e) = omega(inv(e))``.
Two alphabet modes exist:

* ``involutive`` (the Coxeter case): ``label(inv(e)) = label(e)``;
* ``free``: ``label(inv(e))`` is the formal inverse, written ``x^-1``.

All graph values are immutable; operations return new graphs, and folds
additionally return total vertex/edge maps so subgraphs can be transported.
The "geometric" edge count |E|/2 (one per inverse pair) is the count used
by the Euler characteristic and Betti number.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .coxeter import CoxeterMatrix, Indeterminate, Word, equal_in_group


class MoveRejected(Exception):
    """An AO-move failed its group-equality requirement."""


def inverse_label(label: str, mode: str) -> str:
    if mode == "involutive":
        return label
    return label[:-3] if label.endswith("^-1") else label + "^-1"


@dataclass(frozen=True)
class Edge:
    id: int
    inv: int
    alpha: int
    omega: int
    label: str


class LabeledGraph:
    """Immutable labeled graph; see the module docstring for conventions."""

    def __init__(self, mode: str, vertices: Iterable[int], edges: Iterable[Edge]):
        if mode not in ("involutive", "free"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self._vertices = frozenset(vertices)
        self._edges: dict[int, Edge] = {}
        for e in edges:
            if e.id in self._edges:
                raise ValueError(f"duplicate edge id {e.id}")
            self._edges[e.id] = e
        for e in self._edges.values():
            partner = self._edges.get(e.inv)
            if partner is None or partner.inv != e.id or e.inv == e.id:
                raise ValueError(f"edge {e.id}: involution is not a fixed-point-free pairing")
            if partner.alpha != e.omega or partner.omega != e.alpha:
                raise ValueError(f"edge {e.id}: endpoints do not match its inverse")
            if partner.label != inverse_label(e.label, mode):
                raise ValueError(f"edge {e.id}: label incompatible with its inverse")
            if e.alpha not in self._vertices or e.omega not in self._vertices:
                raise ValueError(f"edge {e.id}: endpoint not a vertex")
        grouped: dict[int, list[int]] = {v: [] for v in self._vertices}
        for eid in sorted(self._edges):
            grouped[self._edges[eid].alpha].append(eid)
        self._out = {v: tuple(ids) for v, ids in grouped.items()}

    # -- access ---------------------------------------------------------

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._edges))

    def edge(self, eid: int) -> Edge:
        return self._edges[eid]

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def inv(self, eid: int) -> int:
        return self._edges[eid].inv

    def geometric(self, eid: int) -> int:
        """Canonical representative (the smaller id) of an inverse pair."""
        e = self._edges[eid]
        return min(e.id, e.inv)

    def geometric_edges(self) -> tuple[int, ...]:
        return tuple(sorted({self.geometric(eid) for eid in self._edges}))

    def edges_at(self, v: int) -> tuple[int, ...]:
        """Oriented edges leaving v, by increasing id (loops appear once
        per orientation, so they contribute 2 to the valence)."""
        return self._out[v]

    def valence(self, v: int) -> int:
        return len(self._out[v])

    def is_loop(self, eid: int) -> bool:
        e = self._edges[eid]
        return e.alpha == e.omega

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(mode={self.mode!r}, |V|={len(self._vertices)}, "
            f"|E|={len(self._edges) // 2})"
        )

    # -- measurements ---------------------------------------------------

    def component_sets(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        comps: list[frozenset[int]] = []
        for start in sorted(self._vertices):
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for eid in self._out[v]:
                    u = self._edges[eid].omega
                    if u not in comp:
                        comp.add(u)
                        queue.append(u)
            seen |= comp
            comps.append(frozenset(comp))
        return comps


def components(g: LabeledGraph) -> int:
    return len(g.component_sets())


def euler(g: LabeledGraph) -> int:
    return len(g.vertices) - len(g.geometric_edges())


def betti(g: LabeledGraph) -> int:
    return len(g.geometric_edges()) - len(g.vertices) + components(g)


@dataclass(frozen=True)
class BasedGraph:
    graph: LabeledGraph
    basepoint: int

    def __post_init__(self) -> None:
        if self.basepoint not in self.graph.vertices:
            raise ValueError("basepoint is not a vertex")


@dataclass(frozen=True)
class GraphPath:
    """An edge path e1, ..., ek; the empty path needs an explicit vertex."""

    graph: LabeledGraph
    edges: tuple[int, ...]
    start: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.edges and self.start is None:
            raise ValueError("an empty path needs a start vertex")
        prev = None
        for eid in self.edges:
            e = self.graph.edge(eid)
            if prev is not None and prev != e.alpha:
                raise ValueError("consecutive edges do not match endpoints")
            prev = e.omega
        if self.edges and self.start is not None:
            if self.graph.edge(self.edges[0]).alpha != self.start:
                raise ValueError("start vertex does not match the first edge")

    @property
    def alpha(self) -> int:
        return self.graph.edge(self.edges[0]).alpha if self.edges else self.start  # type: ignore[return-value]

    @property
    def omega(self) -> int:
        return self.graph.edge(self.edges[-1]).omega if self.edges else self.start  # type: ignore[return-value]

    def label(self) -> Word:
        return tuple(self.graph.edge(eid).label for eid in self.edges)

    def is_closed(self) -> bool:
        return self.alpha == self.omega

    def is_reduced(self) -> bool:
        return all(
            self.edges[i + 1] != self.graph.inv(self.edges[i])
            for i in range(len(self.edges) - 1)
        )

    def reversed(self) -> "GraphPath":
        return GraphPath(
            self.graph,
            tuple(self.graph.inv(eid) for eid in reversed(self.edges)),
            start=self.omega if not self.edges else None,
        )


# -- construction -------------------------------------------------------


class GraphBuilder:
    """Accumulates vertices and inverse-paired edges, then builds a graph."""

    def __init__(self, mode: str = "involutive"):
        self.mode = mode
        self._vertices: set[int] = set()
        self._edges: list[Edge] = []
        self._next_vertex = 0
        self._next_edge = 0

    def add_vertex(self, v: Optional[int] = None) -> int:
        if v is None:
            while self._next_vertex in self._vertices:
                self._next_vertex += 1
            v = self._next_vertex
        self._vertices.add(v)
        return v

    def add_edge(self, u: int, v: int, label: str) -> tuple[int, int]:
        """Adds the pair (u -label-> v) and its inverse; returns both ids,
        forward first (the forward edge gets the smaller id)."""
        self._vertices.update((u, v))
        eid, iid = self._next_edge, self._next_edge + 1
        self._next_edge += 2
        self._edges.append(Edge(eid, iid, u, v, label))
        self._edges.append(Edge(iid, eid, v, u, inverse_label(label, self.mode)))
        return eid, iid

    def build(self) -> LabeledGraph:
        return LabeledGraph(self.mode, self._vertices, self._edges)


def wedge_graph(words: Sequence[Word], mode: str = "involutive") -> BasedGraph:
    """Bouquet of labeled cycles at one basepoint, one cycle per word."""
    b = GraphBuilder(mode)
    v0 = b.add_vertex()
    for w in words:
        if not w:
            raise ValueError("wedge words must be nonempty")
        cur = v0
        for letter in w[:-1]:
            nxt = b.add_vertex()
            b.add_edge(cur, nxt, letter)
            cur = nxt
        b.add_edge(cur, v0, w[-1])
    return BasedGraph(b.build(), v0)


# -- quotients and folds ------------------------------------------------


class _UnionFind:
    def __init__(self, items: Iterable[int]):
        self.parent = {x: x for x in items}

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> Optional[int]:
        """Merge the classes of a and b, keeping the smaller root as the
        representative; return the absorbed root (None if already merged)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        keep, gone = (ra, rb) if ra < rb else (rb, ra)
        self.parent[gone] = keep
        return gone


@dataclass(frozen=True)
class FoldTrace:
    """A quotient with its total vertex and edge maps.  ``steps`` lists the
    fold steps of ``fold`` as edge pairs, each in the ids of the graph folded
    up to that step; it is empty for other quotients."""

    result: LabeledGraph
    vertex_map: Mapping[int, int]
    edge_map: Mapping[int, int]
    steps: tuple[tuple[int, int], ...] = ()


def _quotient(
    g: LabeledGraph, vuf: _UnionFind, euf: _UnionFind
) -> tuple[LabeledGraph, dict[int, int], dict[int, int]]:
    """The graph whose vertices and edges are the classes of vuf and euf,
    named by their smallest ids, with the maps onto it."""
    vertex_map = {v: vuf.find(v) for v in g.vertices}
    edge_map = {e: euf.find(e) for e in g.edge_ids}
    new_edges = []
    for eid in sorted(set(edge_map.values())):
        e = g.edge(eid)
        ninv = edge_map[e.inv]
        if ninv == eid:
            raise ValueError(f"identification folds edge {eid} onto its own inverse")
        new_edges.append(Edge(eid, ninv, vertex_map[e.alpha], vertex_map[e.omega], e.label))
    return LabeledGraph(g.mode, set(vertex_map.values()), new_edges), vertex_map, edge_map


def quotient_graph(
    g: LabeledGraph,
    vertex_pairs: Iterable[tuple[int, int]] = (),
    edge_pairs: Iterable[tuple[int, int]] = (),
) -> FoldTrace:
    """Identify the listed vertices and edges (plus everything forced).

    Identifying edges forces their inverses, initial vertices, and terminal
    vertices to be identified as well.  Edges merged into one class must
    carry the same label, and no edge may merge with its own inverse.
    """
    vuf = _UnionFind(g.vertices)
    euf = _UnionFind(g.edge_ids)
    for a, b in vertex_pairs:
        vuf.union(a, b)
    pending = list(edge_pairs)
    while pending:
        e1, e2 = pending.pop()
        if euf.find(e1) == euf.find(e2):
            continue
        ea, eb = g.edge(e1), g.edge(e2)
        if ea.label != eb.label:
            raise ValueError(f"cannot identify edges {e1} and {e2} with different labels")
        euf.union(e1, e2)
        vuf.union(ea.alpha, eb.alpha)
        vuf.union(ea.omega, eb.omega)
        pending.append((ea.inv, eb.inv))
    return FoldTrace(*_quotient(g, vuf, euf))


def is_folded(g: LabeledGraph) -> bool:
    """No vertex has two distinct geometric edges leaving it with one label."""
    for v in g.vertices:
        seen: dict[str, int] = {}
        for eid in g.edges_at(v):
            e = g.edge(eid)
            geo = g.geometric(eid)
            if seen.setdefault(e.label, geo) != geo:
                return False
    return True


def fold_once(g: LabeledGraph, e1: int, e2: int) -> FoldTrace:
    """Identify two distinct same-label edges with a common initial vertex."""
    a, b = g.edge(e1), g.edge(e2)
    if g.geometric(e1) == g.geometric(e2):
        raise ValueError("fold_once needs two distinct geometric edges")
    if a.alpha != b.alpha:
        raise ValueError("fold_once needs a common initial vertex")
    if a.label != b.label:
        raise ValueError("fold_once needs equal labels")
    return quotient_graph(g, (), ((e1, e2),))


def _fold_candidate(g: LabeledGraph) -> Optional[tuple[int, int]]:
    for v in sorted(g.vertices):
        by_label: dict[str, list[int]] = {}
        for eid in g.edges_at(v):
            by_label.setdefault(g.edge(eid).label, []).append(eid)
        for label in sorted(by_label):
            ids = by_label[label]
            first = ids[0]
            for other in ids[1:]:
                if g.geometric(other) != g.geometric(first):
                    return first, other
    return None


def compose_traces(first: FoldTrace, second: FoldTrace) -> FoldTrace:
    return FoldTrace(
        second.result,
        {v: second.vertex_map[img] for v, img in first.vertex_map.items()},
        {e: second.edge_map[img] for e, img in first.edge_map.items()},
    )


def identity_trace(g: LabeledGraph) -> FoldTrace:
    return FoldTrace(g, {v: v for v in g.vertices}, {e: e for e in g.edge_ids})


def fold(g: LabeledGraph) -> FoldTrace:
    """Fold to completion in one worklist pass (Stallings 1983; Touikan 2006).

    Vertices and oriented edges are merged by union-find.  Each vertex class
    keeps one label -> edge table; when two classes merge, the smaller table
    goes into the larger, and every label clash queues the two edges.  A
    queued pair that is already one geometric edge is skipped; any other is
    one fold step, recorded in ``steps`` as the representatives of its two
    edges.  Representatives are smallest ids, as in ``quotient_graph``, so
    ``fold_once`` replays the steps in order.  The folded graph is built once,
    at the end.  The vertex map and geometric edge images do not depend on
    the order of the steps; for a loop whose label is its own inverse, which
    orientation an edge folded onto it maps to does.
    """
    vuf = _UnionFind(g.vertices)
    euf = _UnionFind(g.edge_ids)
    tables: dict[int, dict[str, int]] = {}
    pending: deque[tuple[int, int]] = deque()

    def add(table: dict[str, int], label: str, eid: int) -> None:
        first = table.setdefault(label, eid)
        if first != eid:
            pending.append((first, eid))

    for v in sorted(g.vertices):
        table = tables[v] = {}
        for eid in g.edges_at(v):
            add(table, g.edge(eid).label, eid)
    steps: list[tuple[int, int]] = []
    while pending:
        a, b = pending.popleft()
        ea, eb = g.edge(a), g.edge(b)
        ra, rb = euf.find(a), euf.find(b)
        if ra == rb or ra == euf.find(eb.inv):
            continue
        steps.append((ra, rb))
        euf.union(a, b)
        euf.union(ea.inv, eb.inv)
        # the initial vertices share a class already: both edges came from
        # one table
        x, y = vuf.find(ea.omega), vuf.find(eb.omega)
        gone = vuf.union(x, y)
        if gone is not None:
            keep = x + y - gone
            big, small = tables[keep], tables.pop(gone)
            if len(big) < len(small):
                big, small = small, big
                tables[keep] = big
            for label, eid in small.items():
                add(big, label, eid)
    return FoldTrace(*_quotient(g, vuf, euf), steps=tuple(steps))


def fold_based(bg: BasedGraph) -> tuple[BasedGraph, FoldTrace]:
    trace = fold(bg.graph)
    return BasedGraph(trace.result, trace.vertex_map[bg.basepoint]), trace


# -- AO-moves -----------------------------------------------------------


def ao_move(
    bg: BasedGraph,
    path: GraphPath,
    inner: tuple[int, int],
    w: Word,
    matrix: CoxeterMatrix,
    budget: Optional[int] = None,
) -> BasedGraph:
    """Replace the inner subpath of ``path`` by a fresh segment labeled w.

    ``inner = (i, j)`` selects the edges path.edges[i..j] (inclusive).  The
    vertices strictly inside the inner subpath must have valence 2 and must
    not be the basepoint; w must equal the label of the whole path in the
    group.  The replacement segment must be nonempty.
    """
    g = bg.graph
    if path.graph is not g:
        raise ValueError("path does not belong to the graph")
    i, j = inner
    k = len(path.edges)
    if not (0 <= i <= j < k):
        raise ValueError("inner range out of bounds")
    if not w:
        raise ValueError("replacement word must be nonempty")
    interior = [g.edge(path.edges[p]).omega for p in range(i, j)]
    for v in interior:
        if v == bg.basepoint:
            raise ValueError("inner vertex may not be the basepoint")
        if g.valence(v) != 2:
            raise ValueError(f"inner vertex {v} has valence {g.valence(v)}, need 2")
    kwargs = {} if budget is None else {"budget": budget}
    try:
        ok = equal_in_group(w, path.label(), matrix, **kwargs)
    except Indeterminate as exc:
        raise MoveRejected("group equality is indeterminate under the budget") from exc
    if not ok:
        raise MoveRejected("replacement word is not equal to the path label")
    removed_geo = {g.geometric(path.edges[p]) for p in range(i, j + 1)}
    removed_vertices = set(interior)
    start = g.edge(path.edges[i]).alpha
    end = g.edge(path.edges[j]).omega
    if start in removed_vertices or end in removed_vertices:
        raise ValueError("inner subpath endpoints may not be interior vertices")
    kept_vertices = g.vertices - removed_vertices
    kept_edges = [
        g.edge(eid)
        for eid in g.edge_ids
        if g.geometric(eid) not in removed_geo
    ]
    for e in kept_edges:
        if e.alpha in removed_vertices or e.omega in removed_vertices:
            raise ValueError("interior vertex carries an edge outside the inner subpath")
    next_vertex = max(g.vertices) + 1
    next_edge = max(g.edge_ids) + 1
    new_edges: list[Edge] = list(kept_edges)
    cur = start
    chain = [start]
    for _ in range(len(w) - 1):
        chain.append(next_vertex)
        next_vertex += 1
    chain.append(end)
    fresh_vertices = set(chain[1:-1])
    for idx, letter in enumerate(w):
        eid, iid = next_edge, next_edge + 1
        next_edge += 2
        u, v = chain[idx], chain[idx + 1]
        new_edges.append(Edge(eid, iid, u, v, letter))
        new_edges.append(Edge(iid, eid, v, u, inverse_label(letter, g.mode)))
    result = LabeledGraph(g.mode, kept_vertices | fresh_vertices, new_edges)
    return BasedGraph(result, bg.basepoint)


# -- fundamental group --------------------------------------------------


def _spanning_tree(bg: BasedGraph) -> tuple[dict[int, int], set[int]]:
    """BFS tree: parent-edge (oriented, pointing away from v0) per vertex,
    plus the set of tree geometric edges."""
    g = bg.graph
    parent_edge: dict[int, int] = {}
    tree_geo: set[int] = set()
    seen = {bg.basepoint}
    queue = deque([bg.basepoint])
    while queue:
        v = queue.popleft()
        for eid in sorted(g.edges_at(v), key=lambda x: (g.edge(x).label, x)):
            u = g.edge(eid).omega
            if u not in seen:
                seen.add(u)
                parent_edge[u] = eid
                tree_geo.add(g.geometric(eid))
                queue.append(u)
    if seen != g.vertices:
        raise ValueError("graph is not connected")
    return parent_edge, tree_geo


def _tree_path(bg: BasedGraph, parent_edge: dict[int, int], v: int) -> list[int]:
    """Edge path from the basepoint to v inside the spanning tree."""
    g = bg.graph
    rev: list[int] = []
    while v != bg.basepoint:
        eid = parent_edge[v]
        rev.append(eid)
        v = g.edge(eid).alpha
    return list(reversed(rev))


def pi1_generators(bg: BasedGraph) -> list[GraphPath]:
    """A free basis of pi1(graph, basepoint): one closed path per non-tree
    geometric edge, oriented along the smaller edge id."""
    g = bg.graph
    parent_edge, tree_geo = _spanning_tree(bg)
    paths: list[GraphPath] = []
    for geo in g.geometric_edges():
        if geo in tree_geo:
            continue
        e = g.edge(geo)
        to_alpha = _tree_path(bg, parent_edge, e.alpha)
        from_omega = [g.inv(x) for x in reversed(_tree_path(bg, parent_edge, e.omega))]
        paths.append(GraphPath(g, tuple(to_alpha + [geo] + from_omega), start=bg.basepoint))
    return paths


def accepts(bg: BasedGraph, w: Word) -> bool:
    """Deterministic trace of w from the basepoint; needs a folded graph."""
    g = bg.graph
    if not is_folded(g):
        raise ValueError("accepts needs a folded graph")
    cur = bg.basepoint
    for letter in w:
        nxt = None
        for eid in g.edges_at(cur):
            if g.edge(eid).label == letter:
                nxt = g.edge(eid).omega
                break
        if nxt is None:
            return False
        cur = nxt
    return cur == bg.basepoint


def based_isomorphic(a: BasedGraph, b: BasedGraph) -> bool:
    """Label- and basepoint-preserving isomorphism test for folded
    connected graphs (deterministic parallel traversal)."""
    for bg in (a, b):
        if not is_folded(bg.graph):
            raise ValueError("based_isomorphic needs folded graphs")
        if components(bg.graph) != 1:
            raise ValueError("based_isomorphic needs connected graphs")
    ga, gb = a.graph, b.graph
    if ga.mode != gb.mode:
        return False
    if len(ga.vertices) != len(gb.vertices):
        return False
    if len(ga.edge_ids) != len(gb.edge_ids):
        return False
    match = {a.basepoint: b.basepoint}
    queue = deque([a.basepoint])
    while queue:
        va = queue.popleft()
        vb = match[va]
        outa: dict[str, list[int]] = {}
        for eid in ga.edges_at(va):
            outa.setdefault(ga.edge(eid).label, []).append(ga.edge(eid).omega)
        outb: dict[str, list[int]] = {}
        for eid in gb.edges_at(vb):
            outb.setdefault(gb.edge(eid).label, []).append(gb.edge(eid).omega)
        if set(outa) != set(outb):
            return False
        for label, targets in outa.items():
            if len(targets) != len(outb[label]):
                return False
            # folded: all oriented edges (v, label) go to one geometric edge,
            # hence one target vertex (two ids for a loop)
            ta, tb = set(targets), set(outb[label])
            if len(ta) != 1 or len(tb) != 1:
                return False
            ua, ub = ta.pop(), tb.pop()
            if ua in match:
                if match[ua] != ub:
                    return False
            else:
                match[ua] = ub
                queue.append(ua)
    return len(match) == len(ga.vertices)


# -- serialization ------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def graph_to_json_dict(g: LabeledGraph, basepoint: Optional[int] = None) -> dict:
    data: dict = {
        "mode": g.mode,
        "vertices": sorted(g.vertices),
        "edges": [
            {
                "id": e.id,
                "inv": e.inv,
                "alpha": e.alpha,
                "omega": e.omega,
                "label": e.label,
            }
            for e in (g.edge(eid) for eid in g.edge_ids)
        ],
    }
    if basepoint is not None:
        data["basepoint"] = basepoint
    return data


def graph_from_json_dict(data: Mapping) -> tuple[LabeledGraph, Optional[int]]:
    """Inverse of ``graph_to_json_dict``.  A missing field raises KeyError,
    a wrongly typed one TypeError, a broken structure ValueError."""
    edges = [
        Edge(rec["id"], rec["inv"], rec["alpha"], rec["omega"], rec["label"])
        for rec in data["edges"]
    ]
    vertices = data["vertices"]
    for v in vertices:
        if type(v) is not int:
            raise TypeError(f"vertex {v!r} is not an integer")
    for e in edges:
        if any(type(x) is not int for x in (e.id, e.inv, e.alpha, e.omega)):
            raise TypeError(f"edge {e.id!r}: ids and endpoints must be integers")
        if not isinstance(e.label, str):
            raise TypeError(f"edge {e.id}: label {e.label!r} is not a string")
    g = LabeledGraph(data["mode"], vertices, edges)
    basepoint = data.get("basepoint")
    if basepoint is not None and basepoint not in g.vertices:
        raise ValueError(f"basepoint {basepoint!r} is not a vertex")
    return g, basepoint


def save_graph(path: str, g: LabeledGraph, basepoint: Optional[int] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(graph_to_json_dict(g, basepoint)))


def load_graph(path: str) -> tuple[LabeledGraph, Optional[int]]:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json_dict(json.load(fh))


def graph_to_dot(
    g: LabeledGraph,
    basepoint: Optional[int] = None,
    thick_edges: Iterable[int] = (),
    dotted_arrows: Iterable[tuple[str, str]] = (),
) -> str:
    """DOT export: one line per geometric edge, basepoint double-circled.

    ``thick_edges`` lists geometric edge ids drawn with a heavy pen;
    ``dotted_arrows`` adds extra dotted node-to-node arrows (used by the
    decomposition export for the attaching map).
    """
    thick = set(thick_edges)
    lines = ["graph G {"]
    for v in sorted(g.vertices):
        shape = "doublecircle" if v == basepoint else "circle"
        lines.append(f'  v{v} [shape={shape}, label="{v}"];')
    for geo in g.geometric_edges():
        e = g.edge(geo)
        attrs = [f'label="{e.label}"']
        if geo in thick:
            attrs.append("penwidth=3")
        lines.append(f"  v{e.alpha} -- v{e.omega} [{', '.join(attrs)}];")
    for src, dst in dotted_arrows:
        lines.append(f"  {src} -- {dst} [style=dotted, dir=forward];")
    lines.append("}")
    return "\n".join(lines) + "\n"
