import pytest

from pathidem import quivers
from pathidem.algebra import AlgElem
from pathidem.quivers import Path, Quiver, QuiverError
from pathidem.rings import Ring
from pathidem.sweep import q_isolated, sweep_quivers

from reference import left_closed, right_closed, subsets


class TestClosure:
    def test_enumerate_left_closed(self, arrow, a3):
        assert arrow.enumerate_left_closed() == [
            frozenset(),
            frozenset({"v2"}),
            frozenset({"v1", "v2"}),
        ]
        assert q_isolated(1).enumerate_left_closed() == [frozenset(), frozenset({"v1"})]
        assert a3.enumerate_left_closed() == [
            frozenset(),
            frozenset({"v3"}),
            frozenset({"v2", "v3"}),
            frozenset({"v1", "v2", "v3"}),
        ]

    def test_enumeration_bound(self):
        # 2^17 subsets are refused before any is built
        with pytest.raises(QuiverError, match="above the enumeration bound 16"):
            q_isolated(17).enumerate_left_closed()


class TestConnectivity:
    def test_weak_components(self, arrow, a3):
        assert arrow.weak_components() == [frozenset({"v1", "v2"})]
        assert q_isolated(2).weak_components() == [frozenset({"v1"}), frozenset({"v2"})]
        q = Quiver(("v1", "v2", "v3", "v4"), (("a", "v1", "v2"), ("b", "v2", "v3")))
        assert q.weak_components() == [frozenset({"v1", "v2", "v3"}), frozenset({"v4"})]

    def test_reachable(self, arrow, a3):
        assert arrow.reachable("v1") == {"v1", "v2"}
        assert arrow.reachable("v2") == {"v2"}
        assert a3.reachable("v1") == {"v1", "v2", "v3"}
        with pytest.raises(QuiverError):
            arrow.reachable("vX")

    def test_reachable_rejects_unknown_vertices_around_a_known_one(self, a3):
        # an unknown start raises before and after a known one answers
        with pytest.raises(QuiverError, match="unknown vertex"):
            a3.reachable("vX")
        assert a3.reachable("v2") == {"v2", "v3"}
        with pytest.raises(QuiverError, match="unknown vertex"):
            a3.reachable("vX")

    def test_weak_components_returns_a_fresh_list(self, arrow):
        comps = arrow.weak_components()
        comps.append(frozenset({"vX"}))
        comps[0] = frozenset()
        assert arrow.weak_components() == [frozenset({"v1", "v2"})]
        assert arrow.weak_components() is not arrow.weak_components()


class TestInvariants:
    @pytest.mark.parametrize("q", sweep_quivers(max_vertices=5, max_edges=5, count=40))
    def test_lr_closed_iff_union_of_components(self, q):
        comps = q.weak_components()
        for s in subsets(q.vertices):
            both = left_closed(q, s) and right_closed(q, s)
            union_of = all((c <= s or not (c & s)) for c in comps)
            assert both == union_of

    @pytest.mark.parametrize("q", sweep_quivers(count=25))
    def test_empty_and_full_always_closed(self, q):
        # sorted by size, so the empty set comes first and V last
        closed = q.enumerate_left_closed()
        assert closed[0] == frozenset() and closed[-1] == frozenset(q.vertices)

    @pytest.mark.parametrize("q", sweep_quivers(max_vertices=4, count=20))
    def test_left_closed_lattice(self, q):
        closed = q.enumerate_left_closed()
        assert set(closed) == {s for s in subsets(q.vertices) if left_closed(q, s)}
        for s in closed:
            for t in closed:
                assert s | t in closed and s & t in closed


class TestPaths:
    def test_path_validation(self, a3):
        a3.check_path(Path(edges=("a", "b")))
        with pytest.raises(QuiverError):
            a3.check_path(Path(edges=("b", "a")))
        with pytest.raises(QuiverError):
            a3.check_path(Path(vertex="vX"))
        with pytest.raises(QuiverError):
            Path()  # neither trivial nor an edge list

    def test_trivial_paths_interned(self, a3):
        # elements keep the quiver's own trivial path, not the caller's copy
        first = a3.check_path(Path(vertex="v2"))
        assert first == Path(vertex="v2")
        assert a3.check_path(Path(vertex="v2")) is first
        assert a3.check_path(first) is first
        edge = Path(edges=("a",))
        assert a3.check_path(edge) is edge
        with pytest.raises(QuiverError, match="unknown vertex"):
            a3.check_path(Path(vertex="vX"))
        with pytest.raises(QuiverError, match="unknown edge"):
            a3.check_path(Path(edges=("z",)))

    def test_path_from_a_list(self, a3):
        # a list of edges is kept as a tuple: the path equals and hashes like
        # the tuple-built one, and an element keyed by it equals its twin
        listed, tupled = Path(edges=["a", "b"]), Path(edges=("a", "b"))
        assert type(listed.edges) is tuple
        assert listed == tupled and hash(listed) == hash(tupled)
        f2 = Ring("Fp", 2)
        assert AlgElem.make(a3, f2, {listed: 1}) == AlgElem.make(a3, f2, {tupled: 1})

    def test_path_refuses_a_string_of_edges(self):
        # "ab" is not read as the edges a then b
        with pytest.raises(QuiverError, match="not 'ab'"):
            Path(edges="ab")

    def test_endpoints(self, a3):
        p = Path(edges=("a", "b"))
        assert a3.path_source(p) == "v1"
        assert a3.path_target(p) == "v3"

    def test_paths_up_to(self, a3):
        paths = a3.paths_up_to(2)
        assert Path(vertex="v1") in paths
        assert Path(edges=("a", "b")) in paths
        assert len(paths) == 6

    def test_acyclic(self, arrow):
        assert arrow.is_acyclic
        loop = Quiver(("v1",), (("a", "v1", "v1"),))
        assert not loop.is_acyclic

    def test_acyclic_deeper_than_the_recursion_limit(self):
        verts = tuple(f"v{i}" for i in range(3000))
        edges = tuple((f"a{i}", u, w) for i, (u, w) in enumerate(zip(verts, verts[1:])))
        assert Quiver(verts, edges).is_acyclic
        assert not Quiver(verts, edges + (("back", verts[-1], verts[0]),)).is_acyclic
        # a second arrow between the same vertices, and a cycle off a source
        assert Quiver(("v1", "v2"), (("a", "v1", "v2"), ("b", "v1", "v2"))).is_acyclic
        two_cycle = (("a", "v2", "v3"), ("b", "v3", "v2"), ("c", "v1", "v2"))
        assert not Quiver(("v1", "v2", "v3"), two_cycle).is_acyclic

    def test_path_limit(self):
        loop = Quiver(("v1",), (("a", "v1", "v1"), ("b", "v1", "v1")))
        with pytest.raises(QuiverError):
            loop.paths_up_to(20, limit=100)

    def test_paths_stop_at_first_empty_length(self, a3):
        # A3 has no path longer than 2, so a huge degree costs nothing
        assert a3.paths_up_to(10**12) == a3.paths_up_to(2)
        assert a3.paths_up_to(10**12, limit=6) == a3.paths_up_to(2)

    def test_path_limit_bounds_edges_held(self, monkeypatch):
        # one loop: lengths 0..L give L + 1 paths holding L(L+1)/2 edge ids,
        # which pass 1000 at L = 45 while the path count is still 46
        monkeypatch.setattr(quivers, "_MAX_EDGE_IDS", 1000)
        loop = Quiver(("v1",), (("x", "v1", "v1"),))
        assert len(loop.paths_up_to(44)) == 45
        for limit in (None, 10**5):
            with pytest.raises(QuiverError, match="edge ids at length 45"):
                loop.paths_up_to(10**9, limit=limit)

    def test_loop_at_mid_degree(self):
        # the edge id bound (10^7) is reached only at length 4472 on one loop,
        # so a degree in the thousands still answers; `limit` counts paths
        loop = Quiver(("v1",), (("x", "v1", "v1"),))
        paths = loop.paths_up_to(1000, limit=100_000)
        assert len(paths) == 1001
        assert paths[-1] == Path(edges=("x",) * 1000)
        with pytest.raises(QuiverError, match="exceeded limit 500 at length 500"):
            loop.paths_up_to(1000, limit=500)


@pytest.mark.parametrize(
    "vertices, edges",
    [("ab", ()), (("a", "b", "c"), ("abc",)), (("a", "b", "c"), "abc")],
    ids=["vertices", "one-edge", "edges"],
)
def test_quiver_refuses_strings_for_sequences(vertices, edges):
    # "ab" is not the vertices a and b, and "abc" not edge a from b to c
    with pytest.raises(QuiverError, match="not a string|not strings"):
        Quiver(vertices, edges)


@pytest.mark.parametrize(
    "edge", [("e", "a"), ("e", "a", "a", "a")], ids=["two-entries", "four-entries"]
)
def test_quiver_refuses_an_edge_that_is_not_a_triple(edge):
    # a QuiverError naming the edge, not the ValueError of an unpacking
    with pytest.raises(QuiverError, match=r"edge \('e', 'a'.*\) is not \(id, source, target\)"):
        Quiver(("a",), (edge,))


def test_quiver_validation():
    with pytest.raises(QuiverError):
        Quiver(("v1", "v1"))
    with pytest.raises(QuiverError):
        Quiver(("v1",), (("a", "v1", "v2"),))
    with pytest.raises(QuiverError):
        Quiver(("v1",), (("a", "v1", "v1"), ("a", "v1", "v1")))


def test_json_round_trip(a3):
    assert Quiver.from_json(a3.to_json()) == a3
    p = Path(edges=("a", "b"))
    assert Path.from_json(p.to_json()) == p
    t = Path(vertex="v1")
    assert Path.from_json(t.to_json()) == t


@pytest.mark.parametrize(
    "obj",
    [
        ["a"],  # not an object
        {},
        {"trivial": 3},
        {"edges": "a"},
        {"edges": ["a", 3]},
        # both keys: ambiguous, whatever their values
        {"trivial": "v2", "edges": ["a"]},
        {"trivial": "v2", "edges": "junk"},
        {"trivial": 3, "edges": ["a"]},
    ],
    ids=repr,
)
def test_bad_path_json_refused(obj):
    with pytest.raises(QuiverError, match="bad path"):
        Path.from_json(obj)
