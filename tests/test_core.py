"""Windows, depths, and ball extraction against hand BFS.

Invariants exercised:
  - depth is the Gaifman distance to the frontier, inf on closed windows
  - ball(u, h) succeeds exactly when h <= depth(u)
  - extracted balls are closed, contain the BFS element set, and keep
    every tuple whose arguments all lie inside
  - construction rejects dangling elements, unknown symbols, bad arities
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locis import textio
from locis.core import Language, PointedBall, Structure, faithful_radius, validate_structure
from locis.errors import (
    ArityMismatch,
    DanglingElement,
    InvariantViolation,
    UnfaithfulRadius,
    UnknownSymbol,
)
from locis.generators import (
    AddressSequence,
    QuadraticIrrational,
    checkerboard_colormap,
    gen_binary_hyperbolic,
    gen_cayley_free,
    gen_grid,
    gen_kary_tree,
    gen_sturmian,
)
from locis.symmetry import find_symmetries

from conftest import (
    LANG2,
    bfs_ball,
    mk,
    reference_distances,
    reference_incident,
    reference_restrict,
    reference_store,
)


def path(n, frontier_ends=True):
    """Directed path 0 -> 1 -> ... -> n-1 over one binary symbol."""
    lang = Language([("E", 2)])
    tuples = [("E", (str(i), str(i + 1))) for i in range(n - 1)]
    frontier = (str(0), str(n - 1)) if frontier_ends else ()
    return Structure(lang, [str(i) for i in range(n)], tuples, frontier=frontier)


class TestLanguage:
    def test_order_is_identity(self):
        a = Language([("P", 2), ("Q", 1)])
        b = Language([("Q", 1), ("P", 2)])
        assert a != b
        assert a == Language([("P", 2), ("Q", 1)])

    def test_unary_symbols(self):
        lang = Language([("E", 2), ("White", 1), ("Black", 1)])
        assert lang.unary_symbols == ("White", "Black")

    def test_arity_lookup(self):
        lang = Language([("E", 2)])
        assert lang.arity("E") == 2
        with pytest.raises(UnknownSymbol):
            lang.arity("F")

    def test_rejects_duplicates_and_bad_names(self):
        with pytest.raises(InvariantViolation):
            Language([("E", 2), ("E", 2)])
        with pytest.raises(InvariantViolation):
            Language([("bad name", 2)])
        with pytest.raises(InvariantViolation):
            Language([("E", 0)])


class TestConstruction:
    def test_rejects_dangling_tuple_argument(self):
        with pytest.raises(DanglingElement):
            Structure(LANG2, ["0"], [("P", ("0", "1"))])

    def test_rejects_dangling_frontier(self):
        with pytest.raises(DanglingElement):
            Structure(LANG2, ["0"], [], frontier=("1",))

    def test_rejects_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            Structure(LANG2, ["0"], [("R", ("0", "0"))])

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            Structure(LANG2, ["0"], [("P", ("0",))])

    def test_rejects_duplicate_elements(self):
        with pytest.raises(InvariantViolation):
            Structure(LANG2, ["0", "0"], [])

    def test_duplicate_tuples_collapse(self):
        M = mk([("P", ("0", "1")), ("P", ("0", "1"))], n=2)
        assert M.tuple_count() == 1

    def test_element_ids_coerced_to_str(self):
        M = Structure(LANG2, [0, 1], [("P", (0, 1))])
        assert M.elements == ("0", "1")
        assert M.has_tuple("P", ("0", "1"))

    def test_validate_structure_roundtrip(self):
        M = path(5)
        again = validate_structure(M)
        assert again == M
        raw = {
            "language": [("E", 2)],
            "elements": ["0", "1"],
            "tuples": [("E", ("0", "1"))],
            "frontier": ["1"],
        }
        N = validate_structure(raw)
        assert N.frontier == frozenset({"1"})


class TestDepths:
    def test_closed_window_is_inf(self):
        M = path(4, frontier_ends=False)
        assert M.is_closed()
        assert all(d == math.inf for d in M.depths().values())
        assert M.max_depth() == math.inf

    def test_path_depths(self):
        M = path(7)
        assert M.depth("0") == 0
        assert M.depth("3") == 3
        assert M.depth("6") == 0
        assert M.max_depth() == 3
        assert M.deepest_element() == "3"

    def test_faithful_elements(self):
        M = path(7)
        assert set(M.faithful_elements(2)) == {"2", "3", "4"}
        assert faithful_radius(M, "3") == 3

    def test_depth_of_missing_element(self):
        with pytest.raises(DanglingElement):
            path(3).depth("9")

class TestAdjacency:
    def test_self_loop_is_not_an_edge(self):
        M = mk([("P", ("0", "0"))], n=1)
        assert M.adjacency()["0"] == ()

    def test_shared_tuple_makes_clique(self):
        lang = Language([("T", 3)])
        M = Structure(lang, ["0", "1", "2"], [("T", ("0", "1", "2"))])
        adj = M.adjacency()
        assert adj["0"] == ("1", "2")
        assert adj["1"] == ("0", "2")

    def test_local_finiteness_witness_skips_frontier(self):
        M = path(5)
        bound, witness = M.local_finiteness_witness()
        assert bound == 3  # interior point plus both neighbors
        assert witness in {"1", "2", "3"}


class TestDistances:
    def test_sources_only_at_limit_zero(self):
        M = path(6)
        assert M.distances(["4", "1"], 0) == {"4": 0, "1": 0}

    def test_no_sources(self):
        assert path(6).distances([]) == {}

    def test_discovery_order_sources_first(self):
        M = path(7)
        dist = M.distances(["5", "1"])
        assert list(dist)[:2] == ["5", "1"]
        assert list(dist.values()) == sorted(dist.values())
        assert dist == {"0": 1, "1": 0, "2": 1, "3": 2, "4": 1, "5": 0, "6": 1}

    def test_depth_of_missing_element_names_the_lookup(self):
        with pytest.raises(DanglingElement) as exc:
            path(3).depth("nope")
        assert str(exc.value) == "element 'nope' is not in the window (depth lookup)"
        with pytest.raises(DanglingElement) as exc:
            path(3).distances(["1", "zz"])
        assert str(exc.value) == "element 'zz' is not in the window (distance source)"
        with pytest.raises(DanglingElement, match="not in the window"):
            path(3).ball_elements("nope", 1)

    def test_is_connected(self):
        assert path(5).is_connected()
        assert mk([], n=0).is_connected()
        assert mk([], n=1).is_connected()
        assert not mk([("P", ("0", "1")), ("Q", ("2", "3"))]).is_connected()
        assert not mk([("P", ("0", "1")), ("P", ("2", "2"))]).is_connected()


class TestBalls:
    def test_ball_matches_hand_bfs(self):
        M = path(9)
        for h in range(0, 4):
            ball = M.ball("4", h)
            assert set(ball.structure.elements) == bfs_ball(M, "4", h)
            assert ball.center == "4"
            assert ball.radius == h
            assert ball.structure.is_closed()

    def test_ball_beyond_depth_raises(self):
        M = path(9)
        with pytest.raises(UnfaithfulRadius):
            M.ball("4", 5)
        M.ball("4", 4)  # exactly at depth is fine

    def test_ball_keeps_interior_tuples_only(self):
        M = path(9)
        ball = M.ball("4", 1).structure
        assert set(ball.elements) == {"3", "4", "5"}
        assert ball.has_tuple("E", ("3", "4"))
        assert ball.has_tuple("E", ("4", "5"))
        assert ball.tuple_count() == 2  # the edges leaving the ball are cut

    def test_radius_zero(self):
        M = path(3)
        ball = M.ball("1", 0)
        assert len(ball) == 1
        assert ball.structure.tuple_count() == 0

    def test_closed_window_allows_any_radius(self):
        M = path(4, frontier_ends=False)
        ball = M.ball("0", 50)
        assert len(ball) == 4

    def test_negative_radius(self):
        # ball_elements inherits the check from distances; all four say the same
        M = path(3)
        for call, bound in (
            (lambda: M.ball("1", -1), -1),
            (lambda: M.ball_elements("1", -2), -2),
            (lambda: M.distances(("0", "1"), -1), -1),
            (lambda: M.faithful_elements(-3), -3),
        ):
            with pytest.raises(InvariantViolation) as exc_info:
                call()
            want = InvariantViolation("radius", f"negative radius {bound}")
            assert str(exc_info.value) == str(want)

    def test_pointed_ball_center_must_belong(self):
        ball = path(3).ball("1", 1).structure
        with pytest.raises(InvariantViolation):
            PointedBall(structure=ball, center="7", radius=1)


class TestRestrictAndEquality:
    def test_restrict_induces_tuples(self):
        M = path(5)
        sub = M.restrict({"1", "2", "3"}, frontier=("1", "3"))
        assert sub.has_tuple("E", ("1", "2"))
        assert not sub.has_tuple("E", ("0", "1"))
        assert sub.frontier == frozenset({"1", "3"})

    def test_writing_into_the_tuple_views_leaves_the_window_unchanged(self):
        # tuples_by_symbol is a fresh dict on each read, so no write into it
        # reaches membership, counts, the content key, the hash or the rows
        periods, cmap = checkerboard_colormap()
        build = lambda: gen_grid((4, 4), mode="window", periods=periods, colormap=cmap)
        M = build()
        held = list(M.all_tuples())
        want = (M.tuple_count(), M.content_key(), hash(M))
        views = M.tuples_by_symbol
        for name in views:
            views[name] = ()
            M.tuples_by_symbol[name] = ()
        M.tuples_by_symbol.clear()
        assert all(M.has_tuple(name, t) for name, t in held)
        assert M.tuples_by_symbol == build().tuples_by_symbol != views
        assert (M.tuple_count(), M.content_key(), hash(M)) == want
        assert M._gaifman() == build()._gaifman()
        assert [M.incident(e) for e in M.elements] == [build().incident(e) for e in M.elements]

    def test_restrict_on_a_fresh_window_builds_no_incidence(self):
        # restrict reads the argument columns only: neither the store
        # entries nor the rows of the members are read
        text = textio.dumps(gen_sturmian(QuadraticIrrational.sqrt(2), 0, 300))
        M, N = textio.loads(text), textio.loads(text)
        c = N.deepest_element()
        for h in (0, 3, 100):
            sub = M.restrict(N.ball_elements(c, h), frontier=())
            assert M._inc is None and M._nbrs is None
            assert sub == reference_restrict(M, N.ball_elements(c, h), ())
            assert len(sub) == 2 * h + 1

    def test_content_key_ignores_input_order(self):
        a = Structure(LANG2, ["1", "0"], [("P", ("0", "1")), ("Q", ("1", "0"))])
        b = Structure(LANG2, ["0", "1"], [("Q", ("1", "0")), ("P", ("0", "1"))])
        assert a == b
        assert hash(a) == hash(b)

    def test_language_matters(self):
        lang = Language([("Q", 2), ("P", 2)])
        a = mk([("P", ("0", "1"))], n=2)
        b = Structure(lang, ["0", "1"], [("P", ("0", "1"))])
        assert a != b


# Random small windows: ball extraction agrees with hand BFS everywhere.
@st.composite
def random_window(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    elements = [str(i) for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=12))
    tuples = [
        (draw(st.sampled_from(["P", "Q"])),
         (str(draw(st.integers(0, n - 1))), str(draw(st.integers(0, n - 1)))))
        for _ in range(m)
    ]
    k = draw(st.integers(min_value=0, max_value=n))
    frontier = elements[:k]
    return Structure(LANG2, elements, tuples, frontier=frontier)


@given(random_window(), st.integers(min_value=0, max_value=4))
@settings(max_examples=120, deadline=None)
def test_ball_extraction_agrees_with_bfs(M, h):
    for u in M.elements:
        if M.depth(u) < h:
            with pytest.raises(UnfaithfulRadius):
                M.ball(u, h)
            continue
        ball = M.ball(u, h)
        assert set(ball.structure.elements) == bfs_ball(M, u, h)
        for name, t in ball.structure.all_tuples():
            assert M.has_tuple(name, t)


@given(random_window())
@settings(max_examples=80, deadline=None)
def test_depths_are_bfs_distances(M):
    # depth(u) == length of a shortest adjacency path to the frontier
    depths = M.depths()
    if not M.frontier:
        assert all(d == math.inf for d in depths.values())
        return
    for u in M.elements:
        h = 0
        while True:
            if bfs_ball(M, u, h) & M.frontier:
                break
            if h > len(M.elements):
                h = math.inf
                break
            h += 1
        assert depths[u] == h


@given(random_window(), random_window())
@settings(max_examples=120, deadline=None)
def test_equality_and_hash_agree_with_content_key(A, B):
    # == and hash() compare the argument columns, content_key() the id views
    rebuilt = Structure(A.language, A.elements, A.all_tuples(), frontier=A.frontier)
    pairs = [(A, B), (A, rebuilt), (A, A.restrict(A.elements, A.frontier)),
             (A, A.restrict(A.elements, ())), (A, A.restrict(A.elements[1:], A.frontier - {"0"}))]
    for X, Y in pairs:
        assert (X == Y) == (X.content_key() == Y.content_key())
        if X == Y:
            assert hash(X) == hash(Y)


def _oracle_distances(M, sources, limit):
    """Distance to the nearest source via the hand BFS, within limit."""
    reach = len(M.elements) if limit is None else limit
    out = {}
    for h in range(reach, -1, -1):
        for s in sources:
            for e in bfs_ball(M, s, h):
                out[e] = h
    return out


@given(
    random_window(),
    st.lists(st.integers(min_value=0, max_value=6), max_size=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
@settings(max_examples=150, deadline=None)
def test_distances_agree_with_bfs(M, picks, limit):
    sources = [M.elements[i % len(M.elements)] for i in picks]
    dist = M.distances(sources, limit)
    assert dist == _oracle_distances(M, sources, limit)
    assert list(dist.values()) == sorted(dist.values())
    component = bfs_ball(M, M.elements[0], len(M.elements))
    assert M.is_connected() == (component == set(M.elements))


LANG_MIXED = Language([("U", 1), ("P", 2), ("Q", 2), ("T", 3)])


def mixed_window(rng, ternary=True):
    """Seeded random window over U/1, P/2, Q/2 and, optionally, T/3, with
    self-loops, repeated arguments and a random frontier; ids are not in
    the order they were drawn."""
    n = rng.randrange(1, 14)
    ids = [f"w{rng.randrange(10**6):06d}x{i}" for i in range(n)]
    symbols = ("U", "P", "Q", "T") if ternary else ("U", "P", "Q")
    tuples = []
    for _ in range(rng.randrange(0, 3 * n)):
        sym = rng.choice(symbols)
        arity = LANG_MIXED.arities[sym]
        tuples.append((sym, tuple(rng.choice(ids) for _ in range(arity))))
    frontier = [e for e in ids if rng.random() < 0.2]
    language = LANG_MIXED if ternary else Language([("U", 1), ("P", 2), ("Q", 2)])
    return Structure(language, ids, tuples, frontier=frontier)


class TestIntIndexAgainstReferences:
    """The int-indexed BFS, depths and restriction against the id-keyed
    references in conftest, order included."""

    def test_distances_keep_discovery_order(self):
        rng = random.Random(2009)
        for _ in range(300):
            M = mixed_window(rng)
            picks = [rng.choice(M.elements) for _ in range(rng.randrange(0, 4))]
            repeats = picks + picks[::-1]  # every pick twice, the first ones apart
            for sources in (picks, repeats, M.frontier, M.elements[:1]):
                for limit in (None, 0, 1, 2, 3):
                    got = M.distances(sources, limit)
                    assert list(got.items()) == list(reference_distances(M, sources, limit).items())

    def test_depths_and_degrees_match_adjacency(self):
        rng = random.Random(2010)
        for _ in range(200):
            M = mixed_window(rng)
            dist = reference_distances(M, M.frontier)
            assert list(M.depths().items()) == [(e, dist.get(e, math.inf)) for e in M.elements]
            adj, depths = M.adjacency(), M.depths()
            interior = [(len(adj[e]) + 1, e) for e in M.elements if depths[e] >= 1]
            # the first element of the largest 1-ball is the witness
            best = max(interior, key=lambda se: (se[0], -M.elements.index(se[1])),
                       default=(0, None))
            assert M.local_finiteness_witness() == best

    def test_restrict_matches_the_incident_table(self):
        rng = random.Random(2011)
        for trial in range(300):
            M = mixed_window(rng, ternary=trial % 2 == 0)
            members = [e for e in M.elements if rng.random() < 0.6]
            frontier = [e for e in members if rng.random() < 0.3]
            assert M.restrict(members, frontier) == reference_restrict(M, members, frontier)

    def test_incident_matches_the_reference(self, monkeypatch):
        rng = random.Random(2012)
        for trial in range(300):
            M = mixed_window(rng, ternary=trial % 2 == 0)
            want, store = reference_incident(M), reference_store(M)
            # Asked in a random order, so no entry leans on an earlier one:
            # local reads first, then, once an eighth of the window has an
            # entry, the bulk store (at once over the ternary language).
            order = rng.sample(range(len(M)), len(M))
            for i in order:
                assert M._incidence()[i] == store[i]
            assert type(M._incidence()) is list or len(M) == 1
            for e in rng.sample(M.elements, len(M.elements)):
                assert M.incident(e) == want[e]
            assert copy_window(M)._bulk_incidence() == store
            if trial % 2:  # self-loops included; every entry read locally
                with monkeypatch.context() as patch:
                    patch.setattr(Structure, "_local", lambda self, store: True)
                    L = copy_window(M)
                    assert [L._incidence()[i] for i in order] == [store[i] for i in order]
                    assert type(L._incidence()) is not list


def copy_window(M):
    """A fresh copy of M, with no derived data built yet."""
    return Structure(M.language, M.elements, M.all_tuples(), frontier=M.frontier)


def generator_windows():
    """A window of every generator family, a ternary-language window and
    an empty one."""
    periods, cmap = checkerboard_colormap()
    return [
        gen_sturmian(QuadraticIrrational.sqrt(2), 0, 12),
        gen_kary_tree(2, AddressSequence.thue_morse(1, 2), depth=6, halo=3),
        gen_kary_tree(3, AddressSequence.parse("periodic:122"), depth=4, halo=2),
        gen_binary_hyperbolic(AddressSequence.thue_morse(), levels=5, half_width=6,
                              support_radius=2),
        gen_cayley_free(2, 3),
        gen_grid((5, 5), mode="torus", periods=periods, colormap=cmap),
        gen_grid((4, 3), mode="window"),
        gen_grid((3,), mode="torus"),
        mixed_window(random.Random(2013)),
        Structure(Language([("E", 2)]), [], []),
    ]


def test_incident_and_restrict_match_the_references_on_every_family(monkeypatch):
    for M in generator_windows():
        want, store = reference_incident(M), reference_store(M)
        assert {e: M.incident(e) for e in M.elements} == want
        # Both reads, whichever of them incident() picked.
        assert copy_window(M)._bulk_incidence() == store
        if M.language.narrow:
            with monkeypatch.context() as patch:
                patch.setattr(Structure, "_local", lambda self, store: True)
                L = copy_window(M)
                assert [L._incidence()[i] for i in range(len(L))] == store
        for e in M.elements[::3]:
            members = M.ball_elements(e, 2)
            frontier = [u for u, d in members.items() if d == 2]
            assert M.restrict(members, frontier) == reference_restrict(M, members, frontier)


def test_symmetry_search_on_a_deep_tiling_fills_few_incidence_entries():
    M = gen_binary_hyperbolic(AddressSequence.parse("periodic:01"), 40, 64)
    rep = find_symmetries(M, 4, 12, anchor="L-1o-1")
    assert rep.verdict == "found"
    assert 0 < len(M._incidence()) < 0.05 * len(M)


def test_a_wide_symbol_numbers_only_the_slots_it_meets():
    # A 40-ary symbol has 2^40 - 1 slots; the store numbers the few its
    # tuples fill, by rank, without listing the others.
    ids = [f"e{k:02d}" for k in range(40)]
    t = tuple(ids[:39] + ids[:1])
    M = Structure(Language([("U", 1), ("W", 40)]), ids, [("W", t), ("U", ("e05",))])
    assert M.incident("e00") == (("W", t),)
    assert M.incident("e05") == (("U", ("e05",)), ("W", t))
    assert M.restrict(ids[1:], frontier=()).tuple_count() == 1
    assert len(M.ball("e01", 1)) == 39 and M.restrict(ids, frontier=()) == M
    assert len(M.language.slot) < 50
    assert M._bulk_incidence()[0] == ((M.language.slot["W", (0, 39)], tuple(range(39)) + (0,)),)


def test_incident_of_an_unknown_id_names_the_lookup():
    with pytest.raises(DanglingElement) as exc:
        gen_grid((4, 4), mode="torus").incident("zz")
    assert str(exc.value) == "element 'zz' is not in the window (incidence lookup)"


def test_restrict_to_an_unknown_member_names_the_lookup():
    with pytest.raises(DanglingElement) as exc:
        gen_grid((4, 4), mode="torus").restrict(["0_0", "zz"], frontier=())
    assert str(exc.value) == "element 'zz' is not in the window (restrict member)"


def test_unary_profile_of_an_unknown_id_names_the_lookup():
    # without unary symbols the profile is () and with them all zeros, so
    # neither could tell an unknown id from a known one
    periods, cmap = checkerboard_colormap()
    for M in (gen_grid((4, 4), mode="torus"),
              gen_grid((4, 4), mode="window", periods=periods, colormap=cmap)):
        with pytest.raises(DanglingElement) as exc:
            M.unary_profile("zz")
        assert str(exc.value) == "element 'zz' is not in the window (profile lookup)"


def test_membership_queries_match_reference_sets():
    """has_tuple, unary_profile and `in`, read by bisection of the sorted
    tuple lists and from the positions map, against sets built from
    all_tuples() and elements: dangling ids, wrong arities, ids that are
    not str, an unknown symbol and an unknown profile id included."""
    rng = random.Random(2014)
    for trial in range(200):
        M = mixed_window(rng, ternary=trial % 2 == 0)
        held, ids = set(M.all_tuples()), set(M.elements)
        strays = ["zz", M.elements[0] + "x", M.elements[-1][:-1], 7]
        asked = list(M.elements) + strays
        assert [e in M for e in asked] == [e in ids for e in asked]
        for e in M.elements:
            want = tuple(int((name, (e,)) in held) for name in M.language.unary_symbols)
            assert M.unary_profile(e) == want
        pool = list(M.elements) + strays[:3]
        for name, arity in M.language.symbols:
            for _ in range(30):
                width = rng.choice([arity - 1, arity, arity + 1])
                args = tuple(rng.choice(pool) for _ in range(width))
                assert M.has_tuple(name, args) == ((name, args) in held)
            for t in M.tuples_by_symbol[name]:
                assert M.has_tuple(name, list(t))
                assert not M.has_tuple(name, t[:-1]) and not M.has_tuple(name, t + t[-1:])
                assert not M.has_tuple(name, t[:-1] + (7,))
        with pytest.raises(UnknownSymbol):
            M.has_tuple("R", ("zz",))
        with pytest.raises(DanglingElement) as exc:
            M.unary_profile("zz")
        assert exc.value.lookup == "profile lookup"


def test_symbol_lists_raise_what_the_constructor_raises():
    """A list the bulk check rejects is read again tuple by tuple: the
    error has the type and message Structure(...) gives for the same
    tuples listed in declaration order, so it names the same tuple."""
    rng = random.Random(2015)
    for trial in range(200):
        M = mixed_window(rng, ternary=trial % 2 == 0)
        symbols = [name for name, _ in M.language.symbols]
        lists = {name: list(M.tuples_by_symbol[name]) for name in symbols}
        assert Structure._from_symbol_lists(M.language, M.elements, lists, M.frontier) == M
        for _ in range(rng.randrange(1, 3)):
            name = rng.choice(symbols)
            t = tuple(rng.choice(M.elements) for _ in range(M.language.arities[name]))
            bad = rng.choice([t[:-1], t[:-1] + ("zz",), ("zz",) + t[1:], ("zz",) + t])
            lists[name].insert(rng.randrange(len(lists[name]) + 1), bad)
        tuples = [(name, t) for name in symbols for t in lists[name]]
        with pytest.raises((ArityMismatch, DanglingElement)) as want:
            Structure(M.language, M.elements, tuples, frontier=M.frontier)
        with pytest.raises(type(want.value)) as got:
            Structure._from_symbol_lists(M.language, M.elements, lists, M.frontier)
        assert str(got.value) == str(want.value)


LANG_LOCAL = Language([("U", 1), ("P", 2), ("Q", 2)])
LANG_LOCAL_T = Language([("U", 1), ("P", 2), ("Q", 2), ("T", 3)])


@st.composite
def two_component_window(draw):
    """(language, ids, tuples, frontier, order): a window whose ids split
    into two parts with no tuple between them, the frontier drawn from the
    first part only (so it may be empty, and the second part is a
    frontier-free component beside it), and a random order of positions.
    Binary tuples take self-loops, both directions and repeats across P and
    Q; a ternary symbol, when drawn, sends every row to the bulk index."""
    ternary = draw(st.booleans())
    language = LANG_LOCAL_T if ternary else LANG_LOCAL
    n = draw(st.integers(min_value=1, max_value=24))
    ids = [f"v{i:02d}" for i in range(n)]
    cut = draw(st.integers(min_value=1, max_value=n))
    tuples = []
    for lo, hi in ((0, cut), (cut, n)):
        if lo == hi:
            continue
        pick = st.integers(min_value=lo, max_value=hi - 1)
        for _ in range(draw(st.integers(min_value=0, max_value=2 * (hi - lo)))):
            sym = draw(st.sampled_from([name for name, _ in language.symbols]))
            args = tuple(ids[draw(pick)] for _ in range(language.arities[sym]))
            tuples.append((sym, args))
            if len(args) == 2 and draw(st.booleans()):
                tuples.append((draw(st.sampled_from(["P", "Q"])), args[::-1]))
            if len(args) == 2 and draw(st.booleans()):
                tuples.append(("Q" if sym == "P" else "P", args))
    frontier = [ids[i] for i in range(cut) if draw(st.booleans())]
    order = draw(st.permutations(range(n)))
    return language, ids, tuples, frontier, order


@given(two_component_window(), st.data())
@settings(max_examples=200, deadline=None)
def test_local_rows_and_depths_match_the_bulk_tables(case, data):
    """Rows and depths read on demand, in a random order so the switch to
    the bulk tables happens mid-test, equal the bulk Gaifman rows and the
    depths of the id-keyed reference search. A search to radius cap reads
    the depth off its layers and reaches the ball of the radius it stops
    at, or the element's whole component."""
    language, ids, tuples, frontier, order = case
    bulk = Structure(language, ids, tuples, frontier=frontier)
    nbrs = bulk._gaifman()
    near = reference_distances(bulk, frontier)
    depth = [near.get(e, math.inf) for e in bulk.elements]

    M = Structure(language, ids, tuples, frontier=frontier)
    for i in order:
        assert M._rows()[i] == nbrs[i]

    M = Structure(language, ids, tuples, frontier=frontier)
    caps = st.one_of(st.integers(min_value=0, max_value=6), st.just(math.inf))
    pos = bulk._positions()
    for i in order:
        cap = data.draw(caps)
        around = reference_distances(bulk, [bulk.elements[i]])
        reached, d = M._reach(i, cap)
        if depth[i] <= cap:
            assert d == depth[i]
        else:
            assert d == (cap if max(around.values()) >= cap else math.inf)
        assert reached == {pos[e]: k for e, k in around.items() if k <= d}
        assert M.depth(M.elements[i]) == depth[i]


@pytest.mark.parametrize(
    "build, anchor, displacement, radius",
    [
        (lambda: gen_binary_hyperbolic(AddressSequence.parse("tm"), 40, 64), "L-1o-1", 4, 12),
        (lambda: gen_kary_tree(2, AddressSequence.parse("tm12"), 2000, halo=14), "c0", 8, 50),
    ],
    ids=["tiling_tm", "tree_tm"],
)
def test_symmetry_search_with_an_anchor_reads_rows_and_depths_locally(
    build, anchor, displacement, radius
):
    M = build()
    rep = find_symmetries(M, displacement, radius, anchor=anchor)
    assert rep.verdict == "none_found"
    assert M._depth is None
    assert not isinstance(M._nbrs, list) and 0 < len(M._nbrs) * 8 < len(M)


def bfs_calls(monkeypatch):
    """The positions each Structure._bfs call starts from, in call order."""
    calls = []
    bfs = Structure._bfs

    def counted(self, dist, rows=None):
        calls.append(sorted(dist))
        return bfs(self, dist, rows)

    monkeypatch.setattr(Structure, "_bfs", counted)
    return calls


def test_a_ball_is_one_search_around_its_centre(monkeypatch):
    calls = bfs_calls(monkeypatch)
    for h in (0, 3, 7):
        M = gen_grid((8, 8), mode="window")  # fresh: no table is built yet
        calls.clear()
        ball = M.ball("0_0", h)
        assert len(ball) == 2 * h * (h + 1) + 1
        assert calls == [[M._positions()["0_0"]]]
    with pytest.raises(UnfaithfulRadius):
        M.ball("0_0", 9)
    assert len(calls) == 2


def test_an_anchored_search_with_survivors_builds_no_depth_list():
    # Survivors of the periodic tree reach their certified radius inside
    # the engine, which reads both depths off its own layers.
    M = gen_kary_tree(2, AddressSequence.parse("periodic:122"), 2000, halo=12)
    rep = find_symmetries(M, 3, 50, anchor="c0")
    assert rep.found
    assert M._depth is None


def test_every_depth_of_a_grid_builds_the_depth_list_once(monkeypatch):
    want = gen_grid((20, 20), mode="window").depths()
    M = gen_grid((20, 20), mode="window")
    assert len(M) == 41 * 41 and M.frontier
    calls = []
    whole = Structure._distance_list

    def counted(self, starts):
        calls.append(self)
        return whole(self, starts)

    monkeypatch.setattr(Structure, "_distance_list", counted)
    got = {}
    for e in M.elements:
        got[e] = M.depth(e)
        if len(got) == 1:
            assert M._depth is None  # the first depth is searched around e
    assert got == want
    assert calls == [M]
