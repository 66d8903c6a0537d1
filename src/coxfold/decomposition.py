"""Special graphs, decompositions, markings, tameness, and complexity.

A special graph is a labeled graph Delta together with distinguished
"special paths", each encoding a translated relator loop: a path delta of
type {s, t} whose label, read around the circuit delta, f, delta^-1, e
through loop edges f and e at its endpoints, spells the relation
(st)^m_st.

A decomposition D = (M, Gamma, Delta, F, p, Theta) glues a loop-free
subgraph F of Delta into a graph Gamma along a label-preserving map p;
Theta is the quotient of the disjoint union.  A marking Omega is a
subgraph of the Theta-image of Delta minus its loop edges.  The module
provides validators for the structural conditions, the tameness checker,
the potential and the lexicographic seven-part complexity, the three
unfolding moves, and the exponent-halving surgery.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .coxeter import (
    INF,
    CoxeterMatrix,
    Indeterminate,
    InvariantViolation,
    Word,
    alternating_word,
    equal_in_group,
)
from .graphs import (
    BasedGraph,
    Edge,
    FoldTrace,
    GraphPath,
    LabeledGraph,
    betti,
    canonical_json,
    components,
    euler,
    fold,
    graph_from_json_dict,
    graph_to_json_dict,
    quotient_graph,
)


# -- subgraphs ----------------------------------------------------------


@dataclass(frozen=True)
class Subgraph:
    """A subgraph of some ambient graph: vertex ids + geometric edge ids."""

    vertices: frozenset[int]
    edges: frozenset[int]

    @staticmethod
    def empty() -> "Subgraph":
        return Subgraph(frozenset(), frozenset())

    def issubset(self, other: "Subgraph") -> bool:
        return self.vertices <= other.vertices and self.edges <= other.edges

    def union(self, other: "Subgraph") -> "Subgraph":
        return Subgraph(self.vertices | other.vertices, self.edges | other.edges)


def _check_subgraph(g: LabeledGraph, sub: Subgraph) -> None:
    for v in sub.vertices:
        if v not in g.vertices:
            raise ValueError(f"subgraph vertex {v} not in graph")
    for eid in sub.edges:
        e = g.edge(eid)
        if g.geometric(eid) != eid:
            raise ValueError(f"subgraph edge {eid} is not a geometric representative")
        if e.alpha not in sub.vertices or e.omega not in sub.vertices:
            raise ValueError(f"subgraph edge {eid} has an endpoint outside the subgraph")


def sub_components(g: LabeledGraph, sub: Subgraph) -> list[frozenset[int]]:
    adj: dict[int, set[int]] = {v: set() for v in sub.vertices}
    for eid in sub.edges:
        e = g.edge(eid)
        adj[e.alpha].add(e.omega)
        adj[e.omega].add(e.alpha)
    comps = []
    seen: set[int] = set()
    for start in sorted(sub.vertices):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    queue.append(u)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def sub_cc(g: LabeledGraph, sub: Subgraph) -> int:
    return len(sub_components(g, sub))


def sub_euler(g: LabeledGraph, sub: Subgraph) -> int:
    return len(sub.vertices) - len(sub.edges)


def sub_betti(g: LabeledGraph, sub: Subgraph) -> int:
    return len(sub.edges) - len(sub.vertices) + sub_cc(g, sub)


def neighborhood(g: LabeledGraph, sub: Subgraph, k: int, ambient: Subgraph) -> Subgraph:
    """k-fold edge-neighborhood of ``sub`` inside ``ambient``."""
    verts = set(sub.vertices)
    edges = set(sub.edges)
    for _ in range(k):
        grew = False
        for eid in ambient.edges:
            if eid in edges:
                continue
            e = g.edge(eid)
            if e.alpha in verts or e.omega in verts:
                edges.add(eid)
                grew = True
        for eid in list(edges):
            e = g.edge(eid)
            for v in (e.alpha, e.omega):
                if v not in verts:
                    verts.add(v)
                    grew = True
        if not grew:
            break
    return Subgraph(frozenset(verts), frozenset(edges))


# -- special graphs -----------------------------------------------------


@dataclass(frozen=True)
class SpecialGraph:
    """Labeled graph Delta (involutive mode) with its special paths.

    ``types[i]`` is the unordered generator pair of ``special_paths[i]``.
    The loop-edge set E is every loop edge of the underlying graph.
    """

    graph: LabeledGraph
    special_paths: tuple[GraphPath, ...]
    types: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        if self.graph.mode != "involutive":
            raise ValueError("special graphs use the involutive alphabet mode")
        if len(self.special_paths) != len(self.types):
            raise ValueError("one type per special path required")
        for p in self.special_paths:
            if p.graph is not self.graph:
                raise ValueError("special path does not live in the graph")
            if not p.edges:
                raise ValueError("special paths must be nonempty")

    def loop_edges(self) -> frozenset[int]:
        g = self.graph
        return frozenset(eid for eid in g.geometric_edges() if g.is_loop(eid))

    def non_loop_subgraph(self) -> Subgraph:
        """Delta minus its loop edges (all vertices kept)."""
        g = self.graph
        return Subgraph(
            g.vertices,
            frozenset(eid for eid in g.geometric_edges() if not g.is_loop(eid)),
        )

    @staticmethod
    def empty() -> "SpecialGraph":
        return SpecialGraph(LabeledGraph("involutive", (), ()), (), ())


def _path_vertex_seq(p: GraphPath) -> list[int]:
    g = p.graph
    seq = [g.edge(p.edges[0]).alpha]
    for eid in p.edges:
        seq.append(g.edge(eid).omega)
    return seq


def _is_simple_or_simple_closed(p: GraphPath) -> bool:
    seq = _path_vertex_seq(p)
    if seq[0] == seq[-1]:
        inner = seq[:-1]
        return len(set(inner)) == len(inner)
    return len(set(seq)) == len(seq)


def _extremal_vertices(p: GraphPath) -> set[int]:
    return {p.alpha, p.omega}


def _extremal_edges(p: GraphPath) -> set[int]:
    g = p.graph
    return {g.geometric(p.edges[0]), g.geometric(p.edges[-1])}


def _loops_at(g: LabeledGraph, v: int) -> list[int]:
    return [eid for eid in g.geometric_edges() if g.is_loop(eid) and g.edge(eid).alpha == v]


def _delta6_witness(
    sg: SpecialGraph, matrix: CoxeterMatrix, idx: int
) -> Optional[tuple[int, int]]:
    """Loop pair (e at alpha, f at omega) making delta read its relation."""
    p = sg.special_paths[idx]
    pair = sorted(sg.types[idx])
    if len(pair) != 2:
        return None
    s, t = pair
    m = matrix.entry(s, t)
    if m == INF:
        return None
    m = int(m)
    g = sg.graph
    fwd = p.label()
    bwd = p.reversed().label()
    for e in _loops_at(g, p.alpha):
        for f in _loops_at(g, p.omega):
            word = fwd + (g.edge(f).label,) + bwd + (g.edge(e).label,)
            if word in (alternating_word(s, t, 2 * m), alternating_word(t, s, 2 * m)):
                return e, f
    return None


@dataclass
class SpecialReport:
    conditions: dict[str, tuple[bool, list]]
    delta4_same_end_flag: bool = False

    @property
    def ok(self) -> bool:
        return all(passed for passed, _ in self.conditions.values())

    def failures(self) -> list[str]:
        return [name for name, (passed, _) in self.conditions.items() if not passed]


def validate_special(sg: SpecialGraph, matrix: CoxeterMatrix) -> SpecialReport:
    """Per-condition report for the structural conditions Delta1-Delta6."""
    g = sg.graph
    report: dict[str, tuple[bool, list]] = {}
    flag_same_end = False

    bad1 = [i for i, p in enumerate(sg.special_paths) if len(p.edges) < 5]
    report["Delta1"] = (not bad1, bad1)

    on_paths = {
        g.geometric(eid) for p in sg.special_paths for eid in p.edges
    }
    bad2_edges = [
        eid
        for eid in g.geometric_edges()
        if not g.is_loop(eid) and eid not in on_paths
    ]
    bad2_verts = [v for v in g.vertices if g.valence(v) == 0]
    report["Delta2"] = (not bad2_edges and not bad2_verts, bad2_edges + bad2_verts)

    bad3 = [
        i for i, p in enumerate(sg.special_paths) if not _is_simple_or_simple_closed(p)
    ]
    report["Delta3"] = (not bad3, bad3)

    bad4: list[tuple[int, int]] = []
    paths = sg.special_paths
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            pi, pj = paths[i], paths[j]
            vi = set(_path_vertex_seq(pi))
            vj = set(_path_vertex_seq(pj))
            ei = {g.geometric(x) for x in pi.edges}
            ej = {g.geometric(x) for x in pj.edges}
            shared_v = vi & vj
            shared_e = ei & ej
            if not shared_v and not shared_e:
                continue
            inter = Subgraph(frozenset(shared_v), frozenset(shared_e))
            ok_pair = len(shared_e) <= 2
            exi, exj = _extremal_edges(pi), _extremal_edges(pj)
            for eid in shared_e:
                if eid not in exi or eid not in exj:
                    ok_pair = False
            xvi, xvj = _extremal_vertices(pi), _extremal_vertices(pj)
            for comp in sub_components(g, inter):
                if not (comp & xvi & xvj):
                    ok_pair = False
            if len(shared_e) == 2:
                ends_i = [eid for eid in shared_e if eid == g.geometric(pi.edges[0])]
                # two shared edges touching the same extremal vertex of a path
                for p in (pi, pj):
                    for v in _extremal_vertices(p):
                        touching = [
                            eid
                            for eid in shared_e
                            if v in (g.edge(eid).alpha, g.edge(eid).omega)
                        ]
                        if len(touching) == 2:
                            flag_same_end = True
            if not ok_pair:
                bad4.append((i, j))
    report["Delta4"] = (not bad4, bad4)

    bad5: list[tuple[int, int]] = []
    for eid in sg.loop_edges():
        v = g.edge(eid).alpha
        for i, p in enumerate(sg.special_paths):
            if v in set(_path_vertex_seq(p)) and v not in _extremal_vertices(p):
                bad5.append((eid, i))
    report["Delta5"] = (not bad5, bad5)

    bad6 = [
        i
        for i in range(len(sg.special_paths))
        if _delta6_witness(sg, matrix, i) is None
    ]
    report["Delta6"] = (not bad6, bad6)

    return SpecialReport(report, flag_same_end)


# -- decompositions -----------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    matrix: CoxeterMatrix
    gamma: LabeledGraph
    delta: SpecialGraph
    f_vertices: frozenset[int]
    f_edges: frozenset[int]
    p_vertices: Mapping[int, int]
    p_edges: Mapping[int, int]
    theta: BasedGraph
    gamma_vmap: Mapping[int, int]
    gamma_emap: Mapping[int, int]
    delta_vmap: Mapping[int, int]
    delta_emap: Mapping[int, int]

    def f_subgraph(self) -> Subgraph:
        return Subgraph(self.f_vertices, self.f_edges)

    def delta_bar(self, include_loops: bool = True) -> Subgraph:
        """Theta-image of Delta (optionally without the loop edges)."""
        g = self.delta.graph
        th = self.theta.graph
        verts = frozenset(self.delta_vmap[v] for v in g.vertices)
        edges = set()
        for eid in g.geometric_edges():
            if not include_loops and g.is_loop(eid):
                continue
            edges.add(th.geometric(self.delta_emap[eid]))
        return Subgraph(verts, frozenset(edges))

    def bar_edge(self, eid: int) -> int:
        """Geometric Theta-image of a geometric Delta edge."""
        return self.theta.graph.geometric(self.delta_emap[eid])


def assemble(
    matrix: CoxeterMatrix,
    gamma: LabeledGraph,
    delta: SpecialGraph,
    f_vertices: Iterable[int],
    f_edges: Iterable[int],
    p_vertices: Mapping[int, int],
    p_edges: Mapping[int, int],
    basepoint: Optional[int] = None,
) -> Decomposition:
    """Build Theta = (Gamma + Delta) / {x ~ p(x)} and record the bar maps.

    ``f_edges``/``p_edges`` use geometric edge ids.  The basepoint is a
    Gamma vertex; when omitted, the smallest Theta vertex is used.
    """
    dg = delta.graph
    fv = frozenset(f_vertices)
    fe = frozenset(f_edges)
    for v in fv:
        if v not in dg.vertices:
            raise ValueError(f"F-vertex {v} not in Delta")
    for eid in fe:
        if not dg.has_edge(eid) or dg.geometric(eid) != eid:
            raise ValueError(f"F-edge {eid} is not a geometric Delta edge")
        if dg.is_loop(eid):
            raise ValueError(f"F-edge {eid} is a loop edge")
        e = dg.edge(eid)
        if e.alpha not in fv or e.omega not in fv:
            raise ValueError(f"F-edge {eid} has an endpoint outside F")
    if set(p_vertices) != set(fv):
        raise ValueError("p must be defined exactly on the F-vertices")
    if set(p_edges) != set(fe):
        raise ValueError("p must be defined exactly on the F-edges")
    for v, gv in p_vertices.items():
        if gv not in gamma.vertices:
            raise ValueError(f"p({v}) = {gv} is not a Gamma vertex")

    voff = (max(gamma.vertices) + 1) if gamma.vertices else 0
    eoff = (max(gamma.edge_ids) + 1) if gamma.edge_ids else 0
    combined_vertices = set(gamma.vertices) | {v + voff for v in dg.vertices}
    combined_edges = [gamma.edge(eid) for eid in gamma.edge_ids]
    for eid in dg.edge_ids:
        e = dg.edge(eid)
        combined_edges.append(
            Edge(e.id + eoff, e.inv + eoff, e.alpha + voff, e.omega + voff, e.label)
        )
    combined = LabeledGraph("involutive", combined_vertices, combined_edges)

    vertex_pairs = [(v + voff, p_vertices[v]) for v in fv]
    edge_pairs = []
    for eid in fe:
        de = dg.edge(eid)
        target = p_edges[eid]
        if not gamma.has_edge(target):
            raise ValueError(f"p({eid}) = {target} is not a Gamma edge")
        ge = gamma.edge(gamma.geometric(target))
        if ge.label != de.label:
            raise ValueError(f"p is not label-preserving on edge {eid}")
        pa, po = p_vertices[de.alpha], p_vertices[de.omega]
        if (pa, po) == (ge.alpha, ge.omega):
            edge_pairs.append((eid + eoff, ge.id))
        elif (pa, po) == (ge.omega, ge.alpha):
            edge_pairs.append((eid + eoff, ge.inv))
        else:
            raise ValueError(f"p is not a morphism on edge {eid}")

    trace = quotient_graph(combined, vertex_pairs, edge_pairs)
    theta_graph = trace.result

    chi_f = len(fv) - len(fe)
    chi_theta = euler(theta_graph)
    chi_expected = euler(gamma) + euler(dg) - chi_f
    if chi_theta != chi_expected:
        raise InvariantViolation(
            f"Euler characteristic mismatch: chi(Theta)={chi_theta}, "
            f"chi(Gamma)+chi(Delta)-chi(F)={chi_expected}"
        )

    if basepoint is not None:
        if basepoint not in gamma.vertices:
            raise ValueError("basepoint must be a Gamma vertex")
        bp = trace.vertex_map[basepoint]
    else:
        bp = min(theta_graph.vertices)
    gamma_vmap = {v: trace.vertex_map[v] for v in gamma.vertices}
    gamma_emap = {e: trace.edge_map[e] for e in gamma.edge_ids}
    delta_vmap = {v: trace.vertex_map[v + voff] for v in dg.vertices}
    delta_emap = {e: trace.edge_map[e + eoff] for e in dg.edge_ids}
    return Decomposition(
        matrix=matrix,
        gamma=gamma,
        delta=delta,
        f_vertices=fv,
        f_edges=fe,
        p_vertices=dict(p_vertices),
        p_edges=dict(p_edges),
        theta=BasedGraph(theta_graph, bp),
        gamma_vmap=gamma_vmap,
        gamma_emap=gamma_emap,
        delta_vmap=delta_vmap,
        delta_emap=delta_emap,
    )


# -- markings and neighborhoods -----------------------------------------


@dataclass(frozen=True)
class Marking:
    """A subgraph Omega of the Theta-image of Delta minus loop edges."""

    omega: Subgraph

    @staticmethod
    def empty() -> "Marking":
        return Marking(Subgraph.empty())


def _check_marking(d: Decomposition, marking: Marking) -> None:
    ambient = d.delta_bar(include_loops=False)
    _check_subgraph(d.theta.graph, marking.omega)
    if not marking.omega.issubset(ambient):
        raise ValueError("Omega must lie in the image of Delta minus loop edges")


def omega_preimage(d: Decomposition, marking: Marking) -> Subgraph:
    """Preimage of Omega in Delta minus loop edges."""
    dg = d.delta.graph
    th = d.theta.graph
    verts = frozenset(
        v for v in dg.vertices if d.delta_vmap[v] in marking.omega.vertices
    )
    edges = frozenset(
        eid
        for eid in dg.geometric_edges()
        if not dg.is_loop(eid) and th.geometric(d.delta_emap[eid]) in marking.omega.edges
    )
    return Subgraph(verts, edges)


def omega_neighborhood(
    d: Decomposition, marking: Marking, k: int
) -> tuple[Subgraph, Subgraph]:
    """(Omega_k inside the image of Delta minus loops, Omega-tilde_k inside
    Delta minus loops); the image of the latter is checked to lie in the
    former (the converse can fail)."""
    _check_marking(d, marking)
    ambient_theta = d.delta_bar(include_loops=False)
    ambient_delta = d.delta.non_loop_subgraph()
    omega_k = neighborhood(d.theta.graph, marking.omega, k, ambient_theta)
    tilde = omega_preimage(d, marking)
    tilde_k = neighborhood(d.delta.graph, tilde, k, ambient_delta)
    image_tilde_k = Subgraph(
        frozenset(d.delta_vmap[v] for v in tilde_k.vertices),
        frozenset(d.bar_edge(eid) for eid in tilde_k.edges),
    )
    if not image_tilde_k.issubset(omega_k):
        raise InvariantViolation("image of Omega-tilde_k must lie in Omega_k")
    return omega_k, tilde_k


# -- potential and complexity -------------------------------------------


def potential(d: Decomposition) -> int:
    """c_star = b(Theta) + cc(Delta) - |E| (E = loop edges of Delta).

    Also checks the identity c_star = c2 + b(Delta minus E), which holds
    because removing loop edges changes neither the component count nor
    the vertex set.
    """
    dg = d.delta.graph
    c_star = betti(d.theta.graph) + components(dg) - len(d.delta.loop_edges())
    c2 = betti(d.theta.graph) + euler(dg)
    b_minus = sub_betti(dg, d.delta.non_loop_subgraph())
    if c_star != c2 + b_minus:
        raise InvariantViolation("potential identity c_star = c2 + b(Delta\\E) failed")
    return c_star


@dataclass(frozen=True, order=True)
class ComplexityTuple:
    c1: int
    c2: int
    c3: int
    c4: int
    c5: int
    c6: int
    c7: int
    c_star: int = field(compare=False, default=0)

    def as_tuple(self) -> tuple[int, ...]:
        return (self.c1, self.c2, self.c3, self.c4, self.c5, self.c6, self.c7)


def complexity(d: Decomposition, marking: Optional[Marking] = None) -> ComplexityTuple:
    """The lexicographic tuple (c1, ..., c7) plus the potential.

    Theta^f is the fold of Theta; Delta^f is the image of the Delta part
    under the fold trace.  c7 uses the 3-neighborhood of the marking (0
    when no marking is given).
    """
    if marking is None:
        marking = Marking.empty()
    th = d.theta.graph
    dg = d.delta.graph
    b_theta = betti(th)
    trace = fold(th)
    thf = trace.result
    theta_f_edges = set(thf.geometric_edges())
    delta_f_edges = {
        thf.geometric(trace.edge_map[d.delta_emap[eid]]) for eid in dg.geometric_edges()
    }
    _, tilde3 = omega_neighborhood(d, marking, 3)
    c1 = b_theta - len(d.delta.special_paths)
    c2 = b_theta + euler(dg)
    c3 = len(theta_f_edges - delta_f_edges)
    c4 = len(theta_f_edges)
    c5 = len(dg.geometric_edges())
    c6 = len(th.geometric_edges())
    c7 = len(tilde3.edges - d.f_edges)
    return ComplexityTuple(c1, c2, c3, c4, c5, c6, c7, c_star=potential(d))


# -- tameness -----------------------------------------------------------


@dataclass
class TameReport:
    statuses: dict[str, str]
    details: dict[str, object]

    @property
    def ok(self) -> bool:
        return all(st == "pass" for st in self.statuses.values())

    def numeric_ok(self) -> bool:
        """All conditions except the witness-based surjectivity half."""
        return all(
            st == "pass" for name, st in self.statuses.items() if name != "Theta"
        ) and self.statuses["Theta"] in ("pass", "not verified")


def _reduced_paths_up_to(
    g: LabeledGraph, ambient: Subgraph, start: int, max_len: int
):
    """Yield nonempty reduced edge paths (as oriented id tuples) in the
    ambient subgraph starting at ``start``."""
    oriented: dict[int, list[int]] = {v: [] for v in ambient.vertices}
    for geo in ambient.edges:
        e = g.edge(geo)
        oriented[e.alpha].append(geo)
        oriented[e.omega].append(e.inv)
    stack: list[tuple[int, list[int]]] = [(start, [])]
    while stack:
        v, path = stack.pop()
        if path:
            yield tuple(path)
        if len(path) >= max_len:
            continue
        for eid in oriented[v]:
            if path and eid == g.inv(path[-1]):
                continue
            stack.append((g.edge(eid).omega, path + [eid]))


def check_tame(
    d: Decomposition,
    marking: Optional[Marking] = None,
    witnesses: Optional[Mapping[str, GraphPath]] = None,
    budget: Optional[int] = None,
) -> TameReport:
    """Evaluate the tameness conditions and report per-condition status.

    Surjectivity of pi1(Theta) -> W(M) is only certified through caller
    witness paths (one closed path per generator whose label equals that
    generator in the group); without a full witness set the (Theta)
    condition reports "not verified".
    """
    if marking is None:
        marking = Marking.empty()
    _check_marking(d, marking)
    th = d.theta.graph
    dg = d.delta.graph
    statuses: dict[str, str] = {}
    details: dict[str, object] = {}
    kwargs = {} if budget is None else {"budget": budget}

    connected = components(th) == 1
    if not connected:
        statuses["Theta"] = "fail"
        details["Theta"] = "Theta is not connected"
    elif witnesses is None:
        statuses["Theta"] = "not verified"
        details["Theta"] = "no witness paths supplied"
    else:
        missing = [s for s in d.matrix.generators if s not in witnesses]
        if missing:
            statuses["Theta"] = "not verified"
            details["Theta"] = f"no witness for generators {missing}"
        else:
            status = "pass"
            notes = {}
            for s in d.matrix.generators:
                path = witnesses[s]
                if path.graph is not th or not path.is_closed() or path.alpha != d.theta.basepoint:
                    status = "fail"
                    notes[s] = "witness is not a closed path at the basepoint"
                    continue
                try:
                    if not equal_in_group(path.label(), (s,), d.matrix, **kwargs):
                        status = "fail"
                        notes[s] = "witness label is not equal to the generator"
                except Indeterminate:
                    if status == "pass":
                        status = "not verified"
                    notes[s] = "witness equality indeterminate under the budget"
            statuses["Theta"] = status
            details["Theta"] = notes

    _, tilde3 = omega_neighborhood(d, marking, 3)

    by_image: dict[int, list[int]] = {}
    for v in d.f_vertices:
        by_image.setdefault(d.p_vertices[v], []).append(v)
    bad1 = [
        v
        for group in by_image.values()
        if len(group) > 1
        for v in group
        if v not in tilde3.vertices
    ]
    statuses["Omega1"] = "pass" if not bad1 else "fail"
    details["Omega1"] = bad1

    bad2 = sorted(d.f_edges - tilde3.edges)
    statuses["Omega2"] = "pass" if not bad2 else "fail"
    details["Omega2"] = bad2

    bar_all = d.delta_bar(include_loops=True)
    lhs3 = len(marking.omega.edges)
    rhs3 = 8 * (
        euler(dg)
        - sub_euler(th, bar_all)
        - sub_euler(th, marking.omega)
    )
    statuses["Omega3"] = "pass" if lhs3 <= rhs3 else "fail"
    details["Omega3"] = {"lhs": lhs3, "rhs": rhs3}

    ambient = d.delta_bar(include_loops=False)
    bad4 = []
    for start in sorted(marking.omega.vertices):
        for path in _reduced_paths_up_to(th, ambient, start, 8):
            end = th.edge(path[-1]).omega
            if end not in marking.omega.vertices:
                continue
            inside = all(th.geometric(eid) in marking.omega.edges for eid in path)
            if not inside:
                bad4.append(path)
    statuses["Omega4"] = "pass" if not bad4 else "fail"
    details["Omega4"] = bad4[:5]

    bad_star = []
    for i, p in enumerate(d.delta.special_paths):
        images = {d.bar_edge(dg.geometric(eid)) for eid in p.edges}
        if len(images) != len(p.edges):
            bad_star.append(i)
    statuses["DeltaBarStar"] = "pass" if not bad_star else "fail"
    details["DeltaBarStar"] = bad_star

    c_star = potential(d)
    threshold = 6 * 2 ** c_star if c_star >= 0 else 0
    bad_m = [
        (s, t)
        for s, t in d.matrix.pairs()
        if d.matrix.entry(s, t) != INF and d.matrix.entry(s, t) < threshold
    ]
    statuses["M"] = "pass" if not bad_m else "fail"
    details["M"] = {"threshold": threshold, "violations": bad_m}

    return TameReport(statuses, details)


# -- Lemma-style cross checks -------------------------------------------


def _require_numeric_tame(d: Decomposition, marking: Marking) -> TameReport:
    report = check_tame(d, marking, witnesses=None)
    if not report.numeric_ok():
        raise ValueError(
            "marked decomposition fails tameness conditions: "
            + ", ".join(n for n, s in report.statuses.items() if s == "fail")
        )
    return report


def forest_check(d: Decomposition, marking: Optional[Marking] = None) -> bool:
    """Omega-tilde_3 and F are forests (conclusion cross-check).

    Precondition: the numeric tameness conditions hold.
    """
    if marking is None:
        marking = Marking.empty()
    _require_numeric_tame(d, marking)
    dg = d.delta.graph
    _, tilde3 = omega_neighborhood(d, marking, 3)
    return sub_betti(dg, tilde3) == 0 and sub_betti(dg, d.f_subgraph()) == 0


def o3_coverage_check(d: Decomposition, marking: Optional[Marking] = None) -> bool:
    """Omega-tilde_3 covers all inner edges of no special path.

    Precondition: the numeric tameness conditions hold.
    """
    if marking is None:
        marking = Marking.empty()
    _require_numeric_tame(d, marking)
    dg = d.delta.graph
    _, tilde3 = omega_neighborhood(d, marking, 3)
    for p in d.delta.special_paths:
        inner = {dg.geometric(eid) for eid in p.edges[1:-1]}
        if inner and inner <= tilde3.edges:
            return False
    return True


def o3_inequality_chain(d: Decomposition, marking: Marking) -> list[dict]:
    """The step-by-step inequality chain bounding |E Omega|.

    Only meaningful for a nonempty marking on a decomposition whose
    numeric tameness conditions hold; each step is reported with its two
    sides and an ok flag.
    """
    if not marking.omega.edges and not marking.omega.vertices:
        raise ValueError("the inequality chain needs a nonempty marking")
    _require_numeric_tame(d, marking)
    th = d.theta.graph
    dg = d.delta.graph
    steps: list[dict] = []

    def step(name: str, lhs, rhs, relation: str = "<=") -> None:
        ok = lhs <= rhs if relation == "<=" else lhs == rhs
        steps.append({"name": name, "lhs": lhs, "rhs": rhs, "relation": relation, "ok": ok})

    e_omega = len(marking.omega.edges)
    minus = d.delta.non_loop_subgraph()
    bar_minus = d.delta_bar(include_loops=False)
    bar_all = d.delta_bar(include_loops=True)
    chi_minus = sub_euler(dg, minus)
    chi_bar_minus = sub_euler(th, bar_minus)
    step(
        "loop edges inject: chi(Delta\\E) - chi(bar(Delta\\E)) = chi(Delta) - chi(bar Delta)",
        chi_minus - chi_bar_minus,
        euler(dg) - sub_euler(th, bar_all),
        relation="==",
    )

    chi_omega = sub_euler(th, marking.omega)
    step("Omega3", e_omega, 8 * (euler(dg) - sub_euler(th, bar_all) - chi_omega))

    cc_minus = sub_cc(dg, minus)
    b_minus = sub_betti(dg, minus)
    b_bar_minus = sub_betti(th, bar_minus)
    cc_bar_minus = sub_cc(th, bar_minus)
    b_omega = sub_betti(th, marking.omega)
    cc_omega = sub_cc(th, marking.omega)
    expanded = 8 * (cc_minus - b_minus + b_bar_minus - cc_bar_minus + b_omega - cc_omega)
    step(
        "Omega3 right side expanded through components and Betti numbers",
        8 * (euler(dg) - sub_euler(th, bar_all) - chi_omega),
        expanded,
        relation="==",
    )

    relaxed = 8 * (cc_minus + b_bar_minus - 1 + b_omega - 1)
    step("drop b(Delta\\E) >= 0 and cc >= 1 terms", expanded, relaxed)

    e_count = len(d.delta.loop_edges())
    b_theta = betti(th)
    step("cc(Delta\\E) = cc(Delta)", cc_minus, components(dg), relation="==")
    step("b(bar(Delta\\E)) <= b(Theta) - |E|", b_bar_minus, b_theta - e_count)
    step("b(Omega) <= b(Theta) - |E|", b_omega, b_theta - e_count)

    mid = 8 * components(dg) + 16 * (b_theta - e_count - 1)
    step("assemble the middle bound", relaxed, mid)
    c_star = potential(d)
    step("middle bound <= 16(c_star - 1) - 8", mid, 16 * (c_star - 1) - 8)
    step("|EOmega| <= 16(c_star - 1) - 8", e_omega, 16 * (c_star - 1) - 8)
    # a special path covered by Omega-tilde_3 would have length at most
    # 16(c_star - 1), yet its length is m_st - 1 >= 6 * 2^c_star - 1; the
    # strict arithmetic gap is what makes the coverage impossible
    step(
        "coverage contradiction arithmetic: 16(c_star - 1) < 6*2^c_star - 1",
        16 * (c_star - 1) + 1,
        6 * 2 ** max(c_star, 0) - 1,
    )
    return steps


def saturate_marking(d: Decomposition, marking: Marking) -> Marking:
    """Adjoin Omega4-violating short paths until Omega4 holds.

    Each adjoined path has length <= 8 and both endpoints in Omega, so the
    quantity |EOmega| + 8 chi(Omega) never increases; the loop therefore
    terminates and the Omega3 budget survives.  Checked per step.
    """
    _check_marking(d, marking)
    th = d.theta.graph
    ambient = d.delta_bar(include_loops=False)
    current = marking.omega
    while True:
        violation = None
        for start in sorted(current.vertices):
            for path in _reduced_paths_up_to(th, ambient, start, 8):
                end = th.edge(path[-1]).omega
                if end not in current.vertices:
                    continue
                if not all(th.geometric(eid) in current.edges for eid in path):
                    violation = path
                    break
            if violation:
                break
        if violation is None:
            return Marking(current)
        budget_before = len(current.edges) + 8 * sub_euler(th, current)
        verts = set(current.vertices)
        edges = set(current.edges)
        for eid in violation:
            e = th.edge(eid)
            verts.update((e.alpha, e.omega))
            edges.add(th.geometric(eid))
        current = Subgraph(frozenset(verts), frozenset(edges))
        budget_after = len(current.edges) + 8 * sub_euler(th, current)
        if budget_after > budget_before:
            raise InvariantViolation("saturation must not grow the Omega3 budget")


# -- unfoldings ---------------------------------------------------------


def _f_components(d: Decomposition) -> list[frozenset[int]]:
    return sub_components(d.delta.graph, d.f_subgraph())


def _reassemble(
    d: Decomposition,
    gamma: LabeledGraph,
    f_vertices: Iterable[int],
    f_edges: Iterable[int],
    p_vertices: Mapping[int, int],
    p_edges: Mapping[int, int],
    basepoint: Optional[int],
) -> Decomposition:
    return assemble(
        d.matrix, gamma, d.delta, f_vertices, f_edges, p_vertices, p_edges, basepoint
    )


def _gamma_basepoint(d: Decomposition) -> Optional[int]:
    """Recover a Gamma vertex mapping to the Theta basepoint, if any."""
    for v in sorted(d.gamma.vertices):
        if d.gamma_vmap[v] == d.theta.basepoint:
            return v
    return None


def unfold_components(
    d: Decomposition, choice: Optional[Mapping[int, int]] = None
) -> Decomposition:
    """U1: shrink F to one vertex per connected component.

    ``choice`` maps a component index (in sorted order) to the chosen
    vertex; the smallest vertex of each component is the default.
    """
    if sub_betti(d.delta.graph, d.f_subgraph()) != 0:
        raise ValueError("U1 requires F to be a forest")
    if components(d.theta.graph) != 1:
        raise ValueError("U1 requires Theta to be connected")
    if not d.gamma.vertices:
        raise ValueError("U1 requires Gamma to be nonempty")
    comps = _f_components(d)
    chosen: list[int] = []
    for i, comp in enumerate(comps):
        v = min(comp) if choice is None or i not in choice else choice[i]
        if v not in comp:
            raise ValueError(f"chosen vertex {v} is not in F-component {i}")
        chosen.append(v)
    p_new = {v: d.p_vertices[v] for v in chosen}
    return _reassemble(d, d.gamma, chosen, (), p_new, {}, _gamma_basepoint(d))


def unfold_merge(d: Decomposition, x: int, y: int, path: GraphPath) -> Decomposition:
    """U2: glue a fresh copy of a Delta-path from x to y onto Gamma and
    drop y's F-component."""
    comps = _f_components(d)
    tx = next((c for c in comps if x in c), None)
    ty = next((c for c in comps if y in c), None)
    if tx is None or ty is None or tx == ty:
        raise ValueError("U2 needs x and y in distinct components of F")
    dcomps = d.delta.graph.component_sets()
    if not any(x in c and y in c for c in dcomps):
        raise ValueError("U2 needs x and y in one component of Delta")
    if path.graph is not d.delta.graph or path.alpha != x or path.omega != y:
        raise ValueError("U2 needs a Delta-path from x to y")

    next_v = (max(d.gamma.vertices) + 1) if d.gamma.vertices else 0
    next_e = (max(d.gamma.edge_ids) + 1) if d.gamma.edge_ids else 0
    new_vertices = set(d.gamma.vertices)
    new_edges = [d.gamma.edge(eid) for eid in d.gamma.edge_ids]
    seq = _path_vertex_seq(path)
    copy_ids = [d.p_vertices[x]]
    for _ in seq[1:-1]:
        new_vertices.add(next_v)
        copy_ids.append(next_v)
        next_v += 1
    copy_ids.append(d.p_vertices[y])
    for i, eid in enumerate(path.edges):
        label = d.delta.graph.edge(eid).label
        a, b = copy_ids[i], copy_ids[i + 1]
        new_edges.append(Edge(next_e, next_e + 1, a, b, label))
        new_edges.append(Edge(next_e + 1, next_e, b, a, label))
        next_e += 2
    gamma2 = LabeledGraph("involutive", new_vertices, new_edges)

    fv = frozenset(v for v in d.f_vertices if v not in ty)
    fe = frozenset(
        eid
        for eid in d.f_edges
        if d.delta.graph.edge(eid).alpha not in ty
    )
    pv = {v: d.p_vertices[v] for v in fv}
    pe = {eid: d.p_edges[eid] for eid in fe}
    return _reassemble(d, gamma2, fv, fe, pv, pe, _gamma_basepoint(d))


def unfold_isolated(d: Decomposition, v: int, eid: int) -> Decomposition:
    """U3: hang a doubled-label length-2 spur at p(v) and move p(v) to its
    far endpoint."""
    if v not in d.f_vertices:
        raise ValueError("v must be an F-vertex")
    for fe in d.f_edges:
        e = d.delta.graph.edge(fe)
        if v in (e.alpha, e.omega):
            raise ValueError("U3 needs an isolated F-vertex")
    if not d.delta.graph.has_edge(eid):
        raise ValueError("e must be a Delta edge")
    e = d.delta.graph.edge(eid)
    if v not in (e.alpha, e.omega):
        raise ValueError("e must be adjacent to v")
    label = e.label

    next_v = (max(d.gamma.vertices) + 1) if d.gamma.vertices else 0
    next_e = (max(d.gamma.edge_ids) + 1) if d.gamma.edge_ids else 0
    mid, far = next_v, next_v + 1
    new_vertices = set(d.gamma.vertices) | {mid, far}
    new_edges = [d.gamma.edge(x) for x in d.gamma.edge_ids]
    anchor = d.p_vertices[v]
    new_edges.append(Edge(next_e, next_e + 1, anchor, mid, label))
    new_edges.append(Edge(next_e + 1, next_e, mid, anchor, label))
    new_edges.append(Edge(next_e + 2, next_e + 3, mid, far, label))
    new_edges.append(Edge(next_e + 3, next_e + 2, far, mid, label))
    gamma2 = LabeledGraph("involutive", new_vertices, new_edges)
    pv = dict(d.p_vertices)
    pv[v] = far
    return _reassemble(d, gamma2, d.f_vertices, d.f_edges, pv, dict(d.p_edges), _gamma_basepoint(d))


# -- halving ------------------------------------------------------------


def halve_special_type(
    d: Decomposition, pair: Iterable[str]
) -> tuple[Decomposition, SpecialReport]:
    """Fold every type-{s,t} special path onto its own half and halve m_st.

    Each such path e_0, ..., e_n has e_i identified with the inverse of
    e_{n-i} for i != n/2; the middle edge becomes a loop, and when the two
    path endpoints were distinct their (now colliding) boundary loops are
    identified too.  Returns the new decomposition together with the
    validity report of the halved special graph under the halved matrix;
    a Delta1 violation after halving is reported, not raised.
    """
    st = frozenset(pair)
    if len(st) != 2:
        raise ValueError("a type is an unordered pair of two generators")
    s, t = sorted(st)
    m = d.matrix.entry(s, t)
    if m == INF or int(m) % 2 != 0:
        raise ValueError("halving needs a finite even exponent")
    m = int(m)
    sg = d.delta
    dg = sg.graph

    targets = [i for i, ty in enumerate(sg.types) if ty == st]
    if not targets:
        raise ValueError(f"no special path of type {sorted(st)}")
    edge_pairs: list[tuple[int, int]] = []
    for i in targets:
        p = sg.special_paths[i]
        if not _is_simple_or_simple_closed(p):
            raise ValueError(f"special path {i} is not simple or simple closed")
        n = len(p.edges) - 1
        if n + 1 != m - 1:
            raise ValueError(f"special path {i} has length {n + 1}, expected {m - 1}")
        for k in range(n // 2):
            edge_pairs.append((p.edges[k], dg.inv(p.edges[n - k])))
        if p.alpha != p.omega:
            witness = _delta6_witness(sg, d.matrix, i)
            if witness is None:
                raise ValueError(f"special path {i} has no relator loop pair")
            e_loop, f_loop = witness
            if e_loop != f_loop:
                edge_pairs.append((e_loop, f_loop))

    trace = quotient_graph(dg, (), edge_pairs)
    dg2 = trace.result

    new_paths: list[GraphPath] = []
    new_types: list[frozenset[str]] = []
    for i, p in enumerate(sg.special_paths):
        if i in targets:
            n = len(p.edges) - 1
            kept = tuple(trace.edge_map[eid] for eid in p.edges[: n // 2])
            new_paths.append(GraphPath(dg2, kept))
        else:
            new_paths.append(GraphPath(dg2, tuple(trace.edge_map[eid] for eid in p.edges)))
        new_types.append(sg.types[i])
    sg2 = SpecialGraph(dg2, tuple(new_paths), tuple(new_types))

    entries = {
        (a, b): (m // 2 if frozenset((a, b)) == st else d.matrix.entry(a, b))
        for a, b in d.matrix.pairs()
    }
    matrix2 = CoxeterMatrix(d.matrix.generators, entries)

    fv2: set[int] = set()
    pv2: dict[int, int] = {}
    for v in d.f_vertices:
        nv = trace.vertex_map[v]
        if nv in pv2 and pv2[nv] != d.p_vertices[v]:
            raise ValueError("halving merges F-vertices with conflicting attachments")
        fv2.add(nv)
        pv2[nv] = d.p_vertices[v]
    fe2: set[int] = set()
    pe2: dict[int, int] = {}
    for eid in d.f_edges:
        ne = dg2.geometric(trace.edge_map[eid])
        if dg2.is_loop(ne):
            raise ValueError("halving turns an F-edge into a loop edge")
        if ne in pe2 and pe2[ne] != d.p_edges[eid]:
            raise ValueError("halving merges F-edges with conflicting attachments")
        fe2.add(ne)
        pe2[ne] = d.p_edges[eid]

    d2 = assemble(
        matrix2, d.gamma, sg2, fv2, fe2, pv2, pe2, _gamma_basepoint(d)
    )
    return d2, validate_special(sg2, matrix2)


# -- serialization ------------------------------------------------------


def decomposition_to_json_dict(
    d: Decomposition,
    marking: Optional[Marking] = None,
    witnesses: Optional[Mapping[str, GraphPath]] = None,
) -> dict:
    gamma_bp = _gamma_basepoint(d)
    data: dict = {
        "matrix": d.matrix.to_json_dict(),
        "gamma": graph_to_json_dict(d.gamma, gamma_bp),
        "delta": {
            "graph": graph_to_json_dict(d.delta.graph),
            "special_paths": [
                {"edges": list(p.edges), "type": sorted(ty)}
                for p, ty in zip(d.delta.special_paths, d.delta.types)
            ],
        },
        "f_vertices": sorted(d.f_vertices),
        "f_edges": sorted(d.f_edges),
        "p_vertices": {str(v): d.p_vertices[v] for v in sorted(d.f_vertices)},
        "p_edges": {str(e): d.p_edges[e] for e in sorted(d.f_edges)},
    }
    if marking is not None:
        data["omega"] = {
            "vertices": sorted(marking.omega.vertices),
            "edges": sorted(marking.omega.edges),
        }
    if witnesses is not None:
        data["witnesses"] = {
            s: list(witnesses[s].edges) for s in sorted(witnesses)
        }
    return data


def decomposition_from_json_dict(
    data: Mapping,
) -> tuple[Decomposition, Optional[Marking], Optional[dict[str, GraphPath]]]:
    matrix = CoxeterMatrix.from_json_dict(data["matrix"])
    gamma, gamma_bp = graph_from_json_dict(data["gamma"])
    dgraph, _ = graph_from_json_dict(data["delta"]["graph"])
    paths = []
    types = []
    for rec in data["delta"]["special_paths"]:
        paths.append(GraphPath(dgraph, tuple(rec["edges"])))
        types.append(frozenset(rec["type"]))
    sg = SpecialGraph(dgraph, tuple(paths), tuple(types))
    d = assemble(
        matrix,
        gamma,
        sg,
        data["f_vertices"],
        data["f_edges"],
        {int(k): v for k, v in data["p_vertices"].items()},
        {int(k): v for k, v in data["p_edges"].items()},
        gamma_bp,
    )
    marking = None
    if "omega" in data:
        marking = Marking(
            Subgraph(
                frozenset(data["omega"]["vertices"]),
                frozenset(data["omega"]["edges"]),
            )
        )
    witnesses = None
    if "witnesses" in data:
        witnesses = {
            s: GraphPath(d.theta.graph, tuple(edges), start=d.theta.basepoint)
            for s, edges in data["witnesses"].items()
        }
    return d, marking, witnesses


def save_decomposition(
    path: str,
    d: Decomposition,
    marking: Optional[Marking] = None,
    witnesses: Optional[Mapping[str, GraphPath]] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(decomposition_to_json_dict(d, marking, witnesses)))


def load_decomposition(
    path: str,
) -> tuple[Decomposition, Optional[Marking], Optional[dict[str, GraphPath]]]:
    with open(path, "r", encoding="utf-8") as fh:
        return decomposition_from_json_dict(json.load(fh))


def decomposition_to_dot(d: Decomposition) -> str:
    """Gamma and Delta side by side; Delta edges heavy, p dotted."""
    lines = ["graph D {"]
    lines.append("  subgraph cluster_gamma {")
    lines.append('    label="Gamma";')
    gamma_bp = _gamma_basepoint(d)
    for v in sorted(d.gamma.vertices):
        shape = "doublecircle" if v == gamma_bp else "circle"
        lines.append(f'    g{v} [shape={shape}, label="{v}"];')
    for geo in d.gamma.geometric_edges():
        e = d.gamma.edge(geo)
        lines.append(f'    g{e.alpha} -- g{e.omega} [label="{e.label}"];')
    lines.append("  }")
    lines.append("  subgraph cluster_delta {")
    lines.append('    label="Delta";')
    for v in sorted(d.delta.graph.vertices):
        lines.append(f'    d{v} [shape=circle, label="{v}"];')
    for geo in d.delta.graph.geometric_edges():
        e = d.delta.graph.edge(geo)
        lines.append(
            f'    d{e.alpha} -- d{e.omega} [label="{e.label}", penwidth=3];'
        )
    lines.append("  }")
    for v in sorted(d.f_vertices):
        lines.append(f"  d{v} -- g{d.p_vertices[v]} [style=dotted, dir=forward];")
    lines.append("}")
    return "\n".join(lines) + "\n"
