"""Graphs: embedding validation, contraction, splitting, cycle enumeration."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from plgraph.disks import cone
from plgraph.errors import ConfigError, EmbeddingInvalidError, GraphStructureError
from plgraph.exactgeom import ExactPoint, orient3d
from plgraph.graphs import (
    LinearEmbedding,
    SpatialGraph,
    contract_edge,
    enumerate_cycles,
    expand_to_psi,
    validate_embedding,
)
from plgraph.jsonio import embedding_from_json, embedding_to_json

P = ExactPoint


def unit_square_embedding():
    g = SpatialGraph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
    pos = {0: P(0, 0, 0), 1: P(1, 0, 0), 2: P(1, 1, 0), 3: P(0, 1, 0)}
    return LinearEmbedding(g, pos)


class TestValidateEmbedding:
    def test_unit_square_valid(self):
        assert validate_embedding(unit_square_embedding()).valid

    def test_crossing_diagonals_invalid(self):
        g = SpatialGraph([0, 1, 2, 3], [(0, 1), (2, 3)])
        pos = {0: P(0, 0, 0), 1: P(1, 1, 0), 2: P(1, 0, 0), 3: P(0, 1, 0)}
        res = validate_embedding(LinearEmbedding(g, pos))
        assert not res.valid
        assert res.witness[0] == "edge-edge"
        assert res.witness[3] == P(Fraction(1, 2), Fraction(1, 2), 0)

    def test_coincident_vertices_invalid(self):
        g = SpatialGraph([0, 1], [])
        res = validate_embedding(LinearEmbedding(g, {0: P(1, 2, 3), 1: P(1, 2, 3)}))
        assert not res.valid
        assert res.witness[0] == "vertex-vertex"

    def test_vertex_inside_edge_invalid(self):
        g = SpatialGraph([0, 1, 2], [(0, 1)])
        pos = {0: P(0, 0, 0), 1: P(2, 0, 0), 2: P(1, 0, 0)}
        res = validate_embedding(LinearEmbedding(g, pos))
        assert not res.valid
        assert res.witness[0] == "vertex-edge"

    def test_vertex_on_an_edge_line_matches_fraction_parameter(self):
        """A vertex on edge ab's line, at a seeded parameter with its own
        denominator, is reported exactly when the Fraction parameter
        (p - a) . u / u . u lies strictly between 0 and 1."""
        rng = random.Random(515)
        g = SpatialGraph([0, 1, 2], [(0, 1)])
        for _ in range(200):
            a = P(*(Fraction(rng.randint(-99, 99), rng.randint(1, 10 ** 6)) for _ in range(3)))
            u = P(*(Fraction(rng.randint(-99, 99), rng.randint(1, 97)) for _ in range(3)))
            if u.is_zero():
                continue
            t = Fraction(rng.randint(-5 * 10 ** 6, 5 * 10 ** 6), rng.randint(1, 10 ** 6))
            if t in (0, 1):
                continue
            p = a + u.scale(t)
            res = validate_embedding(LinearEmbedding(g, {0: a, 1: a + u, 2: p}))
            assert res.valid == (not 0 < (p - a).dot(u) / u.norm2() < 1), t
            assert res.valid or res.witness == ("vertex-edge", 2, (0, 1), p)

    def test_adjacent_edges_overlapping_invalid(self):
        g = SpatialGraph([0, 1, 2], [(0, 1), (0, 2)])
        pos = {0: P(0, 0, 0), 1: P(2, 0, 0), 2: P(1, 0, 0)}
        res = validate_embedding(LinearEmbedding(g, pos))
        assert not res.valid


class TestContractEdge:
    def test_triangle_contracts_to_single_edge(self):
        g = SpatialGraph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")])
        gc = contract_edge(g, "x", "y", "v")
        assert gc.vertices == {"v", "z"}
        assert gc.edges == {frozenset(("v", "z"))}

    def test_scene_graph_contraction(self):
        # x rides the cycle x a1 .. an c bn .. b1 x with the extra chord x-c;
        # y hangs off x; contraction gives v adjacent to a1, b1, c only.
        from plgraph.scene import scene_graph

        g, x, y = scene_graph(5)
        gc = contract_edge(g, x, y, "v")
        assert gc.neighbors("v") == {"a1", "b1", "c"}
        assert len(gc.vertices) == len(g.vertices) - 1

    def test_non_edge_rejected(self):
        g = SpatialGraph([0, 1, 2], [(0, 1)])
        with pytest.raises(GraphStructureError):
            contract_edge(g, 0, 2, "v")

    def test_id_collision_rejected(self):
        g = SpatialGraph([0, 1, 2], [(0, 1)])
        with pytest.raises(GraphStructureError):
            contract_edge(g, 0, 1, 2)

    def test_neighborhood_rule_on_random_graphs(self):
        rng = random.Random(31337)
        for _ in range(60):
            nv = rng.randint(3, 12)
            verts = list(range(nv))
            edges = [e for e in combinations(verts, 2) if rng.random() < 0.4]
            if not edges:
                continue
            g = SpatialGraph(verts, edges)
            x, y = edges[rng.randrange(len(edges))]
            gc = contract_edge(g, x, y, "v")
            expected = (g.neighbors(x) | g.neighbors(y)) - {x, y}
            assert gc.neighbors("v") == expected
            assert len(gc.vertices) == nv - 1
            for e in gc.edges:
                assert len(e) == 2  # no loops survived


SPLIT_FAN = cone(P(0, 0, 0), [P(1, 0, 0), P(0, 1, 0)])


class TestExpandToPsi:
    def test_path_becomes_path_through_split_pair(self):
        emb = LinearEmbedding(
            SpatialGraph(["a", "v", "b"], [("a", "v"), ("v", "b")]),
            {"a": P(5, 0, 0), "v": P(0, 0, 0), "b": P(-5, 0, 0)},
        )
        out = expand_to_psi(emb, "v", SPLIT_FAN, Fraction(1, 10), nx={"a"}, ny={"b"})
        assert out.graph.edges == {
            frozenset(("a", "x")), frozenset(("x", "y")), frozenset(("y", "b"))
        }
        assert validate_embedding(out).valid

    def test_round_trip_restores_graph(self):
        emb = LinearEmbedding(
            SpatialGraph(["a", "v", "b"], [("a", "v"), ("v", "b"), ("a", "b")]),
            {"a": P(5, 0, 0), "v": P(0, 0, 0), "b": P(0, -5, 2)},
        )
        out = expand_to_psi(emb, "v", SPLIT_FAN, Fraction(1, 7), nx={"a", "b"}, ny={"b"})
        back = contract_edge(out.graph, "x", "y", "v")
        assert back == emb.graph

    def test_opposite_sides_of_first_fan_triangle(self):
        emb = LinearEmbedding(
            SpatialGraph(["a", "v"], [("a", "v")]),
            {"a": P(5, 0, 0), "v": P(0, 0, 0)},
        )
        out = expand_to_psi(emb, "v", SPLIT_FAN, Fraction(1, 3), nx={"a"}, ny=set())
        t = SPLIT_FAN.triangles[0]
        sx = orient3d(t.p, t.q, t.r, out.position["x"])
        sy = orient3d(t.p, t.q, t.r, out.position["y"])
        assert sx == -sy != 0

    def test_missing_neighbor_rejected(self):
        emb = LinearEmbedding(
            SpatialGraph(["a", "v", "b"], [("a", "v"), ("v", "b")]),
            {"a": P(5, 0, 0), "v": P(0, 0, 0), "b": P(-5, 0, 0)},
        )
        with pytest.raises(GraphStructureError):
            expand_to_psi(emb, "v", SPLIT_FAN, 1, nx={"a"}, ny=set())

    def test_critical_offset_collides_with_blocking_edge(self):
        # Blocker runs through (0, 0, 2); the split direction is +z, so the
        # expansion collides exactly at t = 2 and is clean at t = 1.
        emb = LinearEmbedding(
            SpatialGraph(["v", "w", "p", "q"], [("v", "w"), ("p", "q")]),
            {"v": P(0, 0, 0), "w": P(0, 5, 0),
             "p": P(-1, 0, 2), "q": P(1, 0, 2)},
        )
        ok = expand_to_psi(emb, "v", SPLIT_FAN, 1, nx={"w"}, ny=set())
        assert validate_embedding(ok).valid
        with pytest.raises(EmbeddingInvalidError):
            expand_to_psi(emb, "v", SPLIT_FAN, 2, nx={"w"}, ny=set())


def brute_force_cycles(g, max_length):
    """Oracle: enumerate vertex subsets and cyclic orders directly."""
    verts = sorted(g.vertices)
    found = set()
    from itertools import permutations

    for size in range(3, max_length + 1):
        for subset in combinations(verts, size):
            for order in permutations(subset[1:]):
                cyc = (subset[0],) + order
                ok = all(
                    g.has_edge(cyc[k], cyc[(k + 1) % size]) for k in range(size)
                )
                if not ok:
                    continue
                canon = min(
                    tuple(cyc[k:] + cyc[:k]) for k in range(size)
                )
                canon_r = min(
                    tuple(tuple(reversed(cyc))[k:] + tuple(reversed(cyc))[:k])
                    for k in range(size)
                )
                found.add(min(canon, canon_r))
    return found


class TestEnumerateCycles:
    def test_triangle(self):
        g = SpatialGraph([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
        assert enumerate_cycles(g, 5) == [(0, 1, 2)]

    def test_k4_has_seven_cycles(self):
        g = SpatialGraph(range(4), list(combinations(range(4), 2)))
        assert len(enumerate_cycles(g, 4)) == 7

    def test_tree_has_none(self):
        g = SpatialGraph(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert enumerate_cycles(g, 5) == []

    def test_length_bound_respected(self):
        g = SpatialGraph(range(5), [(k, (k + 1) % 5) for k in range(5)])
        assert enumerate_cycles(g, 4) == []
        assert len(enumerate_cycles(g, 5)) == 1

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(90210)
        for _ in range(40):
            nv = rng.randint(3, 8)
            verts = list(range(nv))
            edges = [e for e in combinations(verts, 2) if rng.random() < 0.45]
            g = SpatialGraph(verts, edges)
            got = set(enumerate_cycles(g, nv))
            assert got == brute_force_cycles(g, nv)


class TestEmbeddingJson:
    def test_bit_exact_round_trip(self):
        emb = unit_square_embedding()
        emb.position[0] = P(Fraction(-3, 7), Fraction(22, 10 ** 9), Fraction(5))
        doc = embedding_to_json(emb)
        back = embedding_from_json(doc)
        assert back.graph == emb.graph
        assert back.position == emb.position
        assert embedding_to_json(back) == doc

    def test_rejects_malformed(self):
        with pytest.raises(ConfigError):
            embedding_from_json({"vertices": [{"id": 0, "pos": [[1, 0], [0, 1], [0, 1]]}],
                                 "edges": []})

    @pytest.mark.parametrize("key, value, field", [
        ("vertices", 5, "vertices"),
        ("edges", 5, "edges"),
        ("edges", [[0, 1], [1, [2]]], "edges[1]"),
        ("edges", [[0, True]], "edges[0]"),
        # Mixed id types: cycle enumeration sorts ids against each other.
        ("vertices", [{"id": v, "pos": [[k, 1], [k * k, 1], [0, 1]]}
                      for k, v in enumerate(["a", 1, 2])], "vertices[1].id"),
    ])
    def test_mistyped_field_names_it(self, key, value, field):
        doc = embedding_to_json(unit_square_embedding())
        doc[key] = value
        with pytest.raises(ConfigError) as exc:
            embedding_from_json(doc)
        assert exc.value.field == field
