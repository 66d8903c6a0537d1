"""Tests for labeled graphs, folding, and AO-moves."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from coxfold.coxeter import INF, CoxeterMatrix
from coxfold.graphs import (
    BasedGraph,
    GraphBuilder,
    GraphPath,
    LabeledGraph,
    MoveRejected,
    accepts,
    ao_move,
    _fold_candidate,
    based_isomorphic,
    betti,
    canonical_json,
    components,
    compose_traces,
    euler,
    fold,
    fold_based,
    fold_once,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    identity_trace,
    is_folded,
    pi1_generators,
    quotient_graph,
    wedge_graph,
)

M_ST3 = CoxeterMatrix(("s", "t"), {("s", "t"): 3})


def two_edge_same_label_graph():
    b = GraphBuilder("involutive")
    v0, v1, v2 = b.add_vertex(), b.add_vertex(), b.add_vertex()
    b.add_edge(v0, v1, "s")
    b.add_edge(v0, v2, "s")
    return b.build(), v0


class TestConstruction:
    def test_builder_pairs_edges(self):
        g, _ = two_edge_same_label_graph()
        for eid in g.edge_ids:
            assert g.inv(g.inv(eid)) == eid
            assert g.inv(eid) != eid

    def test_involutive_mode_keeps_label(self):
        g, _ = two_edge_same_label_graph()
        for eid in g.edge_ids:
            assert g.edge(eid).label == g.edge(g.inv(eid)).label

    def test_free_mode_inverts_label(self):
        bg = wedge_graph([("x",)], mode="free")
        labels = {bg.graph.edge(eid).label for eid in bg.graph.edge_ids}
        assert labels == {"x", "x^-1"}

    def test_rejects_dangling_endpoint(self):
        from coxfold.graphs import Edge

        with pytest.raises(ValueError):
            LabeledGraph(
                "involutive",
                {0},
                [Edge(0, 1, 0, 5, "s"), Edge(1, 0, 5, 0, "s")],
            )

    def test_wedge_counts(self):
        bg = wedge_graph([("s", "t", "s"), ("t",)])
        g = bg.graph
        assert len(g.geometric_edges()) == 4
        assert components(g) == 1
        assert betti(g) == 2


class TestInvariants:
    def test_euler_betti_tree(self):
        b = GraphBuilder("involutive")
        v = [b.add_vertex() for _ in range(4)]
        for i in range(3):
            b.add_edge(v[i], v[i + 1], "s" if i % 2 else "t")
        g = b.build()
        assert euler(g) == 1
        assert betti(g) == 0

    def test_betti_counts_components(self):
        b = GraphBuilder("involutive")
        v0, v1 = b.add_vertex(), b.add_vertex()
        b.add_edge(v0, v0, "s")
        b.add_edge(v1, v1, "t")
        g = b.build()
        assert components(g) == 2
        assert betti(g) == 2


class TestFolding:
    def test_fold_once_merges_endpoints(self):
        g, v0 = two_edge_same_label_graph()
        e1, e2 = sorted(
            {g.geometric(eid) for eid in g.edges_at(v0)}
        )
        trace = fold_once(g, e1, e2)
        assert len(trace.result.vertices) == 2
        assert is_folded(trace.result)

    def test_fold_is_idempotent_on_folded(self):
        g, _ = two_edge_same_label_graph()
        folded = fold(g).result
        assert fold(folded).result is not None
        assert len(fold(folded).result.vertices) == len(folded.vertices)

    def test_rose_folds_to_itself(self):
        bg = wedge_graph([("s",), ("t",)])
        folded, _ = fold_based(bg)
        assert based_isomorphic(bg, folded)

    def test_fold_preserves_components(self):
        g, _ = two_edge_same_label_graph()
        assert components(fold(g).result) == components(g)

    def test_trace_maps_are_total(self):
        g, _ = two_edge_same_label_graph()
        trace = fold(g)
        assert set(trace.vertex_map) == g.vertices
        assert set(trace.edge_map) == set(g.edge_ids)

    def test_quotient_rejects_label_clash(self):
        b = GraphBuilder("involutive")
        v0, v1, v2 = b.add_vertex(), b.add_vertex(), b.add_vertex()
        e1, _ = b.add_edge(v0, v1, "s")
        e2, _ = b.add_edge(v0, v2, "t")
        g = b.build()
        with pytest.raises(ValueError):
            quotient_graph(g, (), ((e1, e2),))


class TestAccepts:
    def test_accepts_own_cycles(self):
        words = [("s", "t", "s"), ("t", "s")]
        bg, _ = fold_based(wedge_graph(words))
        for w in words:
            assert accepts(bg, w)

    def test_rejects_unreadable_word(self):
        bg, _ = fold_based(wedge_graph([("s",)]))
        assert not accepts(bg, ("t",))

    def test_accepts_needs_folded(self):
        bg = wedge_graph([("s", "t"), ("s", "s")])
        with pytest.raises(ValueError):
            accepts(bg, ("s",))


class TestPi1:
    def test_basis_size_is_betti(self):
        bg, _ = fold_based(wedge_graph([("s", "t"), ("t", "s", "t")]))
        assert len(pi1_generators(bg)) == betti(bg.graph)

    def test_basis_paths_are_closed_at_basepoint(self):
        bg, _ = fold_based(wedge_graph([("s", "t"), ("t",)]))
        for p in pi1_generators(bg):
            assert p.alpha == bg.basepoint
            assert p.omega == bg.basepoint


class TestAoMove:
    def build_triangle(self):
        # a 2-edge segment s t at the basepoint, closed up by one t-edge
        b = GraphBuilder("involutive")
        v0, v1, v2 = b.add_vertex(), b.add_vertex(), b.add_vertex()
        e1, _ = b.add_edge(v0, v1, "s")
        e2, _ = b.add_edge(v1, v2, "t")
        e3, _ = b.add_edge(v2, v0, "t")
        g = b.build()
        return BasedGraph(g, v0), (e1, e2, e3)

    def test_legal_move_replaces_segment(self):
        bg, (e1, e2, e3) = self.build_triangle()
        path = GraphPath(bg.graph, (e1, e2))
        # s t equals t s t s in the m = 3 dihedral group
        out = ao_move(bg, path, (0, 1), ("t", "s", "t", "s"), M_ST3)
        assert betti(out.graph) == betti(bg.graph)
        assert len(out.graph.geometric_edges()) == 5

    def test_unequal_word_rejected(self):
        bg, (e1, e2, _) = self.build_triangle()
        path = GraphPath(bg.graph, (e1, e2))
        with pytest.raises(MoveRejected):
            ao_move(bg, path, (0, 1), ("s",), M_ST3)

    def test_basepoint_interior_rejected(self):
        bg, (e1, e2, e3) = self.build_triangle()
        path = GraphPath(bg.graph, (e2, e3))
        # the interior vertex of (e2, e3) is v2; moving the basepoint there
        bg2 = BasedGraph(bg.graph, bg.graph.edge(e2).omega)
        with pytest.raises(ValueError):
            ao_move(bg2, path, (0, 1), ("t", "s"), M_ST3)

    def test_empty_replacement_rejected(self):
        bg, (e1, e2, _) = self.build_triangle()
        path = GraphPath(bg.graph, (e1, e2))
        with pytest.raises(ValueError):
            ao_move(bg, path, (0, 1), (), M_ST3)


class TestSerialization:
    def test_round_trip_preserves_structure(self):
        bg = wedge_graph([("s", "t"), ("u",)])
        data = graph_to_json_dict(bg.graph, bg.basepoint)
        g2, bp = graph_from_json_dict(data)
        assert bp == bg.basepoint
        assert based_isomorphic(
            *(fold_based(BasedGraph(g, b))[0] for g, b in ((bg.graph, bg.basepoint), (g2, bp)))
        )

    def test_round_trip_is_exact(self):
        bg = wedge_graph([("s", "t", "s")])
        data = graph_to_json_dict(bg.graph, bg.basepoint)
        again = graph_to_json_dict(*graph_from_json_dict(data))
        assert data == again

    def test_dot_mentions_every_vertex(self):
        bg = wedge_graph([("s", "t")])
        dot = graph_to_dot(bg.graph, bg.basepoint)
        for v in bg.graph.vertices:
            assert f"v{v}" in dot
        assert "doublecircle" in dot


def random_connected_graph(rng, n_vertices, n_extra, labels):
    b = GraphBuilder("involutive")
    verts = [b.add_vertex() for _ in range(n_vertices)]
    for i in range(1, n_vertices):
        b.add_edge(verts[rng.randrange(i)], verts[i], rng.choice(labels))
    for _ in range(n_extra):
        b.add_edge(rng.choice(verts), rng.choice(verts), rng.choice(labels))
    return b.build()


class TestFoldProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_fold_result_is_folded_and_connected(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(1, 12), rng.randint(0, 8), "st")
        out = fold(g).result
        assert is_folded(out)
        assert components(out) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_betti_never_increases_stepwise(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 10), rng.randint(0, 6), "stu")
        while True:
            pair = _fold_candidate(g)
            if pair is None:
                break
            nxt = fold_once(g, *pair).result
            assert betti(nxt) <= betti(g)
            g = nxt


def stepwise_fold(g):
    """Reference fold: one fold_once per step at the first (vertex id, label)
    candidate, composing the maps as it goes."""
    trace = identity_trace(g)
    while (pair := _fold_candidate(trace.result)) is not None:
        trace = compose_traces(trace, fold_once(trace.result, *pair))
    return trace


def random_graph(rng, mode):
    """Possibly disconnected, with loops and multi-edges."""
    b = GraphBuilder(mode)
    verts = [b.add_vertex() for _ in range(rng.randint(1, 10))]
    labels = ("s", "t") if mode == "involutive" else ("x", "y", "x^-1")
    for _ in range(rng.randint(0, 14)):
        b.add_edge(rng.choice(verts), rng.choice(verts), rng.choice(labels))
    return b.build()


def with_shuffled_edge_ids(rng, g):
    """g as loaded from a JSON file whose inverse pairs need not carry
    consecutive ids."""
    ids = list(g.edge_ids)
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    data = graph_to_json_dict(g)
    for rec in data["edges"]:
        rec["id"], rec["inv"] = new[rec["id"]], new[rec["inv"]]
    return graph_from_json_dict(data)[0]


class TestFoldEngine:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(("involutive", "free")),
        st.booleans(),
    )
    def test_matches_stepwise_reference(self, seed, mode, from_json):
        rng = random.Random(seed)
        g = random_graph(rng, mode)
        if from_json:
            g = with_shuffled_edge_ids(rng, g)
        trace, ref = fold(g), stepwise_fold(g)
        out = trace.result
        assert trace.vertex_map == ref.vertex_map
        for eid in g.edge_ids:
            assert out.geometric(trace.edge_map[eid]) == ref.result.geometric(ref.edge_map[eid])
            # the edge map is a graph morphism
            e, img = g.edge(eid), out.edge(trace.edge_map[eid])
            assert img.inv == trace.edge_map[e.inv]
            assert img.alpha == trace.vertex_map[e.alpha]
            assert img.omega == trace.vertex_map[e.omega]
            assert img.label == e.label
        if not from_json:
            assert canonical_json(graph_to_json_dict(out)) == canonical_json(
                graph_to_json_dict(ref.result)
            )
        assert len(trace.steps) == len(g.geometric_edges()) - len(out.geometric_edges())
        replay = g
        for pair in trace.steps:
            replay = fold_once(replay, *pair).result
        assert graph_to_json_dict(replay) == graph_to_json_dict(out)
        assert is_folded(out)

    def test_involutive_loop_is_one_geometric_edge(self):
        # both orientations of an s-loop leave v with label s; folding a
        # second s-loop onto it is one step, the loop itself never is
        b = GraphBuilder("involutive")
        v = b.add_vertex()
        b.add_edge(v, v, "s")
        b.add_edge(v, v, "s")
        trace = fold(b.build())
        assert len(trace.steps) == 1
        assert len(trace.result.geometric_edges()) == 1
