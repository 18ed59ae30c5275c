"""Symmetry-approximant search, periods, map extension.

The chain-word shortcut used on forest and tiling windows is validated
against the layer engine on windows deep enough for the engine to decide
every candidate by itself. Period detection and seed extension are checked
against coordinate arithmetic on colored tori.
"""

import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

from locis.core import Language, Structure
from locis.errors import (
    GluingConflict,
    InvariantViolation,
    NoOrbitRepresentative,
    RankBoundExceeded,
    WindowExhausted,
)
from locis.generators import (
    AddressSequence,
    QuadraticIrrational,
    checkerboard_colormap,
    gen_binary_hyperbolic,
    gen_grid,
    gen_kary_tree,
    gen_sturmian,
)
from locis.iso import (
    PartialIso,
    _chain_word,
    _layout,
    class_ids,
    extraction_compare,
    windowed_pointed_iso,
)
from locis.symmetry import (
    _word_between,
    detect_periodicity,
    extend_partial_iso,
    extend_to_automorphism,
    find_symmetries,
    periodic_isomorphism,
)

from conftest import (
    mk,
    on_loop,
    random_labeled_forest,
    reference_chain_words,
    reference_distances,
)


# ---------------------------------------------------------------------------
# Column windows: the mirror trichotomy at reduced width


class TestColumnSymmetries:
    def find(self, sqrt2, s, width=150, radius=50):
        M = gen_sturmian(sqrt2, s, width)
        return find_symmetries(M, displacement=4, radius=radius, anchor="0")

    def test_mirror_at_zero_intercept(self, sqrt2):
        rep = self.find(sqrt2, 0)
        assert rep.verdict == "found"
        assert rep.reversals() and not rep.translations()
        for p in rep.reversals():
            p.verify()
            assert p.reversed_target

    def test_mirror_at_half_sqrt2(self, sqrt2):
        s = QuadraticIrrational(0, 1, 2, 2)
        assert self.find(sqrt2, s).verdict == "found"

    def test_mirror_at_one_half(self, sqrt2):
        s = QuadraticIrrational.parse("1/2")
        assert self.find(sqrt2, s).verdict == "found"

    def test_no_mirror_at_one_quarter(self, sqrt2):
        s = QuadraticIrrational.parse("1/4")
        rep = self.find(sqrt2, s)
        assert rep.verdict == "none_found"
        assert rep.found == []
        # every candidate died at a certified layer within the radius
        assert all(o == "dead" and r <= 50 for _, _, o, r in rep.candidates)

    def test_no_translations_ever(self, sqrt2):
        # aperiodicity: forward candidates die for every intercept tested
        for s in (0, QuadraticIrrational.parse("1/4")):
            rep = self.find(sqrt2, s, width=120, radius=30)
            assert rep.translations() == []

    def test_identity_skipped_by_default(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 60)
        rep = find_symmetries(M, 2, 10, anchor="0")
        assert all(not p.is_identity() for p in rep.found)
        with_id = find_symmetries(M, 2, 10, anchor="0", include_identity=True)
        assert any(p.is_identity() for p in with_id.found)

    def test_anchor_depth_precondition(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 30)
        with pytest.raises(WindowExhausted):
            find_symmetries(M, 5, 10, anchor="28")

    def test_shallow_window_reports_exhausted(self):
        # a bare uncolored path: translations stay alive but the window
        # cannot certify radius 50
        M = gen_grid((12,), mode="window")
        rep = find_symmetries(M, 2, 50)
        assert rep.verdict == "window_exhausted"
        assert any(o == "alive_at_window_limit" for _, _, o, r in rep.candidates)


# ---------------------------------------------------------------------------
# Chain-word certificates vs the plain engine


def outcomes_by_engine(M, anchor, displacement, radius):
    res = {}
    for y in sorted(M.ball_elements(anchor, displacement)):
        for rev in (False, True):
            if y == anchor and not rev:
                continue
            limit = min(M.depth(anchor), M.depth(y))
            limit = len(M) if limit is math.inf else int(limit)
            assert limit >= radius  # the engine must be able to decide
            r = windowed_pointed_iso(M, anchor, M, y, radius, rev)
            assert r.status in ("iso", "dead")
            res[(y, rev)] = (r.status, r.radius)
    return res


def outcomes_by_search(M, anchor, displacement, radius):
    rep = find_symmetries(M, displacement, radius, anchor=anchor)
    return {(y, rev): (o, r) for y, rev, o, r in rep.candidates}


def assert_certificates_match(got, want):
    """Found exactly where the engine finds an iso, and every dead
    candidate killed at the engine's radius."""
    assert set(got) == set(want)
    dead = 0
    for key, (outcome, radius) in got.items():
        status, kill = want[key]
        assert (outcome == "found") == (status == "iso"), (key, got[key], want[key])
        if outcome == "dead":
            assert radius == kill, (key, got[key], want[key])
            dead += 1
    assert dead > 0


@pytest.mark.parametrize("addr", ["tm12", "periodic:122", "constant:1"])
def test_forest_certificates_match_engine(addr):
    M = gen_kary_tree(2, AddressSequence.parse(addr), depth=9, halo=9)
    want = outcomes_by_engine(M, "c0", 2, 5)
    assert_certificates_match(outcomes_by_search(M, "c0", 2, 5), want)


@pytest.mark.parametrize("addr", ["tm", "constant:0", "periodic:01"])
def test_tiling_certificates_match_engine(addr):
    M = gen_binary_hyperbolic(AddressSequence.parse(addr), levels=8,
                              half_width=32, support_radius=6)
    want = outcomes_by_engine(M, "L0o0", 2, 4)
    assert_certificates_match(outcomes_by_search(M, "L0o0", 2, 4), want)


def outcome_digest(rep):
    found = sorted(
        (sorted(p.mapping.items()), p.certified_radius, p.reversed_target) for p in rep.found
    )
    return hashlib.sha256(repr((rep.verdict, rep.candidates, found)).encode()).hexdigest()


def childless_leaf(M):
    parents = {t[0] for _, t in M.all_tuples()}
    return min(e for e in M.elements if M.depth(e) == 0 and e not in parents)


def tm_tree():
    return gen_kary_tree(2, AddressSequence.parse("tm12"), depth=30, halo=6)


def tm_tiling():
    return gen_binary_hyperbolic(AddressSequence.parse("tm"), 8, 16, 4)


def sqrt2_column():
    return gen_sturmian(QuadraticIrrational.parse("(0+1*sqrt(2))/1"), 0, 30)


# (window, anchor, displacement, radius, include_identity, verdict, digest)
GOLDEN = {
    # two-symbol forest, a depth-0 leaf with no child in the window: the
    # reversed self-candidate still dies at radius 1
    "forest_leaf": (tm_tree, childless_leaf, 0, 5, False, "none_found",
                    "1322efd7c263e608d51aac5383dacd3ce3ab47cc627aef160753ca30ac647a1e"),
    "tiling_forked": (tm_tiling, lambda M: "L0o0", 2, 4, False, "none_found",
                      "9b5fb5d8a6cc2ddbbed4f781fcab80af1562147c18a201149ce4daa01b4a2fa4"),
    # bottom-row tile: no level predecessors, so reversals reach the engine
    "tiling_unforked": (tm_tiling, lambda M: "L-4o0", 0, 3, True, "found",
                        "9ec848c243964c5e2eb43cf170cffa3832e8b78e9bcc67ee18bf51efefd677b4"),
    # a forest for the chain words, a path for class_ids
    "plain_path": (lambda: gen_grid((12,), mode="window"), lambda M: None, 2, 3, False,
                   "found", "89bff8ec0ae7966bbbb0f6dbef2681ba28522f2af00c7c543675888ddd362a33"),
    # colored: no chain layout, every candidate goes through the engine
    "column": (sqrt2_column, lambda M: "0", 2, 5, False, "found",
               "1912facf342691c83205c27d4fe8d7e56a2cd239b6c482974cd004aa9c630cb1"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outcomes_are_pinned_across_layouts(case):
    build, pick, displacement, radius, identity, verdict, digest = GOLDEN[case]
    M = build()
    rep = find_symmetries(M, displacement, radius, include_identity=identity, anchor=pick(M))
    assert rep.verdict == verdict
    assert outcome_digest(rep) == digest


def engine_calls(monkeypatch):
    """The (target, reversed) pairs that symmetry searches with the engine,
    recorded in call order."""
    calls = []

    def counted(M, a, N, b, radius, reverse=False):
        calls.append((b, reverse))
        return windowed_pointed_iso(M, a, N, b, radius, reverse)

    monkeypatch.setattr("locis.symmetry.windowed_pointed_iso", counted)
    return calls


def test_one_engine_search_per_candidate(monkeypatch):
    calls = engine_calls(monkeypatch)
    # the checkerboard torus of the periods benchmark job has no chain
    # layout: the engine decides its 12 nonidentity candidates
    M = torus_checkerboard()
    rep = find_symmetries(M, 2, len(M), include_reversals=False)
    assert len(rep.candidates) == 12
    assert sorted(calls) == sorted((y, rev) for y, rev, _, _ in rep.candidates)
    # on chain layouts, words decide some candidates and the engine the rest
    for case, (build, pick, displacement, radius, identity, _, _) in sorted(GOLDEN.items()):
        calls.clear()
        M = build()
        rep = find_symmetries(M, displacement, radius, include_identity=identity, anchor=pick(M))
        assert len(calls) == len(set(calls)), case
        assert set(calls) <= {(y, rev) for y, rev, _, _ in rep.candidates}, case


@pytest.mark.parametrize(
    "build, anchor",
    [
        (sqrt2_column, "0"),
        (tm_tree, None),
        (tm_tiling, "L0o0"),
        (lambda: gen_grid((9, 9), mode="window"), None),
        (lambda: torus_checkerboard(), None),
    ],
    ids=["column", "tree", "tiling", "grid-window", "closed-torus"],
)
def test_engine_decides_every_candidate_at_the_full_limit(build, anchor):
    # find_symmetries searches each candidate with target len(M), and the
    # engine reads the certified radius off its own layers: a survivor is
    # certified at the smaller depth of x and y, by the id-keyed reference
    # search from the frontier, or at len(M) on a closed window.
    M = build()
    x = anchor if anchor is not None else M.deepest_element()
    near = reference_distances(M, sorted(M.frontier))
    statuses = Counter()
    for y in sorted(M.ball_elements(x, 2)):
        for rev in (False, True):
            res = windowed_pointed_iso(M, x, M, y, len(M), rev)
            statuses[res.status] += 1
            if res.status != "dead":
                depth = min(near.get(x, math.inf), near.get(y, math.inf))
                assert res.radius == (len(M) if M.is_closed() else depth)
                assert res.status == ("iso" if M.is_closed() else "exhausted")
    assert statuses["dead"] < sum(statuses.values())  # (x, forward) at least


def test_chain_layout_reads_a_plain_path_as_a_forest():
    M = gen_grid((12,), mode="window")
    assert _layout(M).kind == "path"
    par, lab, forked = _layout(M).chain
    assert sum(p >= 0 for p in par) == len(M) - 1
    assert all(label == 0 for label in lab)
    assert not forked  # one symbol: reversals are left to the engine


def chain_windows():
    yield gen_grid((9,), mode="window")  # a plain path
    yield gen_grid((7,), mode="torus")  # an uncolored cycle
    for address in ("tm", "constant:0", "periodic:01"):
        yield gen_binary_hyperbolic(AddressSequence.parse(address), 6, 8, 3)
    # a row that loops through both children of p: each of d and e is
    # witnessed in slot 1 and slot 0, and slot 0 wins
    lang = Language([("A", 2), ("R", 2)])
    yield Structure(lang, "dep", [("A", ("d", "p")), ("A", ("e", "p")),
                                  ("R", ("d", "e")), ("R", ("e", "d"))])
    for address in ("tm12", "periodic:122"):
        yield gen_kary_tree(2, AddressSequence.parse(address), depth=6, halo=3)
    rng = random.Random(2004)
    for trial in range(120):
        yield random_labeled_forest(rng, 1 + trial % 3)


def test_chain_words_match_the_id_walk():
    kinds, loops = Counter(), 0
    for M in chain_windows():
        reference = reference_chain_words(M, 9)
        layout = _layout(M)
        chain = None if layout is None else layout.chain
        assert (chain is None) == (reference is None)
        if chain is None:
            continue
        par, lab, forked = chain
        words, want_forked = reference
        kinds[layout.kind] += 1
        loops += any(on_loop(par, j) for j in range(len(par)))
        for j, e in enumerate(M.elements):
            for length in (0, 1, 4, 9):
                assert _chain_word(par, lab, j, length) == words[e][:length], (e, length)
        assert {M.elements[j] for j in forked} == want_forked
    assert kinds["tiling"] == 4 and kinds["path"] >= 1 and kinds["cycle"] >= 1
    assert kinds["forest"] > 40 and loops > 10


def test_negative_bounds_rejected():
    M = gen_grid((4, 4), mode="torus")
    with pytest.raises(InvariantViolation):
        find_symmetries(M, -1, 3, anchor="0_0")
    with pytest.raises(InvariantViolation):
        find_symmetries(M, 1, -3, anchor="0_0")
    # The message names the negative bounds only.
    for displacement, radius, named in [
        (2, -3, "negative radius -3"),
        (-1, 101, "negative displacement -1"),
        (-1, -3, "negative displacement -1 and radius -3"),
    ]:
        with pytest.raises(InvariantViolation) as exc:
            find_symmetries(M, displacement, radius, anchor="0_0")
        assert str(exc.value).endswith(f"violated: {named}")


# ---------------------------------------------------------------------------
# Tree and tiling dichotomies at reduced size


class TestTreeDichotomy:
    def test_periodic_address_has_vertical_shift(self):
        M = gen_kary_tree(2, AddressSequence.periodic((1, 2, 2)), depth=60, halo=14)
        rep = find_symmetries(M, displacement=3, radius=50, anchor="c0")
        assert rep.verdict == "found"
        assert any(p.image_anchor() == "c3" for p in rep.found)

    def test_aperiodic_address_has_none(self):
        M = gen_kary_tree(2, AddressSequence.thue_morse(1, 2), depth=60, halo=14)
        rep = find_symmetries(M, displacement=4, radius=50, anchor="c0")
        assert rep.verdict == "none_found"


class TestTilingDichotomy:
    def test_periodic_address_found(self):
        M = gen_binary_hyperbolic(AddressSequence.constant(0), levels=20,
                                  half_width=32, support_radius=8)
        rep = find_symmetries(M, displacement=3, radius=10, anchor="L0o0")
        assert rep.verdict == "found"

    def test_eventually_periodic_address_found(self):
        addr = AddressSequence.constant(1, prefix=(0, 1, 1, 0))
        M = gen_binary_hyperbolic(addr, levels=24, half_width=32, support_radius=8)
        rep = find_symmetries(M, displacement=6, radius=10, anchor="L0o0")
        assert rep.verdict == "found"

    def test_aperiodic_address_none(self):
        M = gen_binary_hyperbolic(AddressSequence.thue_morse(), levels=20,
                                  half_width=32, support_radius=8)
        rep = find_symmetries(M, displacement=3, radius=10, anchor="L0o0")
        assert rep.verdict == "none_found"


# ---------------------------------------------------------------------------
# Periods


def torus_checkerboard(n=8):
    periods, cmap = checkerboard_colormap()
    return gen_grid((n, n), mode="torus", periods=periods, colormap=cmap)


def coordinate_shift(n, dx, dy):
    return {
        f"{x}_{y}": f"{(x + dx) % n}_{(y + dy) % n}"
        for x in range(n)
        for y in range(n)
    }


class TestDetectPeriodicity:
    def test_checkerboard_rank_two(self):
        M = torus_checkerboard()
        rep = detect_periodicity(M, 2)
        assert rep.rank == 2
        assert rep.orbit_cover == "covers_interior"
        assert rep.weakly_connected
        assert len(rep.period) == 2
        for g in rep.generators:
            g.verify()
        # orbits partition the torus: every element reaches A by transport
        assert set(rep.transport) == set(M.elements)

    def test_orbits_are_disjoint_and_covering(self):
        M = torus_checkerboard()
        rep = detect_periodicity(M, 2)
        # walk the transport chains to find each element's representative
        seen = {}
        for e in M.elements:
            z = e
            while rep.transport[z] is not None:
                z = rep.transport[z][0]
            seen.setdefault(z, set()).add(e)
        assert set(seen) == set(rep.period)
        total = sum(len(v) for v in seen.values())
        assert total == len(M.elements)

    def test_uncolored_torus_rank_one(self):
        M = gen_grid((6, 6), mode="torus")
        rep = detect_periodicity(M, 2)
        assert rep.rank == 1

    def test_aperiodic_coloring_has_no_generators(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 80)
        rep = detect_periodicity(M, 2, radius=40)
        assert rep.rank is None
        assert rep.orbit_cover == "no_generators"
        assert rep.rank_label() == "no period <= 2"

    def test_rank_bound_exceeded(self):
        M = gen_grid((8, 2), mode="torus", periods=(1, 2),
                      colormap={(0, 0): "White", (0, 1): "Black"})
        with pytest.raises(RankBoundExceeded):
            detect_periodicity(M, 1)

    def test_uncovered_orbits(self):
        # two disjoint 6-cycles, each rotated by the one generator: the
        # period grows inside the anchor's cycle and never reaches the other
        tuples = [("P", (str(c + i), str(c + (i + 1) % 6))) for c in (0, 6) for i in range(6)]
        M = mk(tuples, 12)
        g = PartialIso(M, M, {str(c + i): str(c + (i + 1) % 6) for c in (0, 6) for i in range(6)},
                       "0", 12)
        rep = detect_periodicity(M, 2, automorphisms=[g])
        assert rep.orbit_cover == "uncovered"
        assert rep.rank is None
        assert rep.period == (M.deepest_element(),)

    def test_explicit_automorphisms(self):
        M = gen_grid((6,), mode="torus")
        g = PartialIso(M, M, {str(i): str((i + 2) % 6) for i in range(6)}, "0", 6)
        rep = detect_periodicity(M, 2, automorphisms=[g])
        assert rep.rank == 2  # orbits of +2 are the even and odd classes

    def test_negative_rank_bound_is_named(self):
        # rejected before the radius or the generators are looked at
        M = gen_grid((6,), mode="torus")
        g = PartialIso(M, M, {str(i): str((i + 2) % 6) for i in range(6)}, "0", 6)
        for kwargs in ({}, {"radius": 3}, {"automorphisms": [g]}):
            with pytest.raises(InvariantViolation) as exc:
                detect_periodicity(M, -1, **kwargs)
            assert exc.value.invariant == "rank-bound"


class TestExtendToAutomorphism:
    def test_reconstructs_shift_from_small_ball(self):
        M = torus_checkerboard()
        period = detect_periodicity(M, 2)
        shift = coordinate_shift(8, 2, 0)
        anchor = M.deepest_element()
        seed = PartialIso(
            M, M,
            {e: shift[e] for e in M.ball_elements(anchor, 2)},
            anchor, 2,
        )
        seed.verify()
        out = extend_to_automorphism(M, period, seed)
        assert out.mapping == shift  # exact coordinate agreement

    def test_seed_radius_below_rank_rejected(self):
        M = torus_checkerboard()
        period = detect_periodicity(M, 2)
        anchor = M.deepest_element()
        shift = coordinate_shift(8, 2, 0)
        seed = PartialIso(M, M, {e: shift[e] for e in M.ball_elements(anchor, 1)},
                          anchor, 1)
        with pytest.raises(InvariantViolation):
            extend_to_automorphism(M, period, seed)

    def test_seed_must_cover_period(self):
        M = torus_checkerboard()
        period = detect_periodicity(M, 2)
        anchor = M.deepest_element()
        shift = coordinate_shift(8, 2, 0)
        mapping = {e: shift[e] for e in M.ball_elements(anchor, 2)}
        removed = [z for z in period.period if z != anchor]
        assert removed  # rank 2, so some period element is not the anchor
        for z in removed:
            mapping.pop(z, None)
        seed = PartialIso(M, M, mapping, anchor, 2)
        with pytest.raises(NoOrbitRepresentative):
            extend_to_automorphism(M, period, seed)


# ---------------------------------------------------------------------------
# One-step gluing extension


class TestExtendPartialIso:
    def test_extension_succeeds_on_homogeneous_torus(self):
        M = gen_grid((8, 8), mode="torus")
        a, b = "0_0", "3_2"
        res = windowed_pointed_iso(M, a, M, b, 1)
        rho = PartialIso(M, M, res.mapping, a, 1)
        bigger = extend_partial_iso(M, M, rho)
        assert bigger.certified_radius == 2
        assert set(bigger.mapping) == set(M.ball_elements(a, 2))
        bigger.verify()

    def test_reversed_seed_extends_reversed(self):
        # A palindromic column: reading it backwards about its middle is a
        # mirror, and each one-step map must be searched reversed too.
        half = "BWBBWBWWBWBBWBWWBWBB"
        word = half + half[::-1]
        ids = [f"p{i:03d}" for i in range(len(word))]
        lang = Language([("Succ", 2), ("B", 1), ("W", 1)])
        M = Structure(
            lang,
            ids,
            [("Succ", t) for t in zip(ids, ids[1:])] + [(c, (e,)) for e, c in zip(ids, word)],
            frontier=(ids[0], ids[-1]),
        )
        a, b = ids[len(ids) // 2 - 1], ids[len(ids) // 2]
        res = windowed_pointed_iso(M, a, M, b, 3, True)
        assert res.status == "iso"
        rho = PartialIso(M, M, res.mapping, a, 3, True)
        rho.verify()
        bigger = extend_partial_iso(M, M, rho)
        assert bigger.certified_radius == 4 and bigger.reversed_target
        assert set(bigger.mapping) == set(M.ball_elements(a, 4))
        assert all(bigger.mapping[e] == ids[len(ids) - 1 - i] for i, e in enumerate(ids)
                   if e in bigger.mapping)

    def test_gluing_conflict_when_balls_disagree_deeper(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 120)
        tokens1 = class_ids(M, 1)
        tokens3 = class_ids(M, 3)
        pair = None
        for x, y in itertools.combinations(sorted(tokens3, key=int), 2):
            if tokens1[x] == tokens1[y] and tokens3[x] != tokens3[y]:
                pair = (x, y)
                break
        assert pair is not None
        x, y = pair
        res = windowed_pointed_iso(M, x, M, y, 1)
        assert res.status == "iso"
        rho = PartialIso(M, M, res.mapping, x, 1)
        # growing past the agreement radius must surface a conflict within
        # a couple of steps
        with pytest.raises(GluingConflict):
            step = extend_partial_iso(M, M, rho)
            extend_partial_iso(M, M, step)

    def test_conflict_carries_connecting_word(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 120)
        tokens1 = class_ids(M, 1)
        tokens2 = class_ids(M, 2)
        pair = None
        for x, y in itertools.combinations(sorted(tokens2, key=int), 2):
            if tokens1[x] == tokens1[y] and tokens2[x] != tokens2[y]:
                pair = (x, y)
                break
        x, y = pair
        res = windowed_pointed_iso(M, x, M, y, 1)
        rho = PartialIso(M, M, res.mapping, x, 1)
        with pytest.raises(GluingConflict) as exc_info:
            extend_partial_iso(M, M, rho)
        # the gluing argument bounds the connecting word by 2r+3
        exc = exc_info.value
        assert exc.witness in M.elements
        if exc.word is not None:
            assert len(exc.word) <= 2 * 1 + 3


class TestWordBetween:
    # Words pinned from the breadth-first parent-pointer search the connecting
    # word was first computed with.
    GRID_WORDS = {
        "1_0": (1, "E1:1>2"),
        "1_1": (2, "E2:1>2,E1:1>2"),
        "-1_-1": (2, "E1:2>1,E2:2>1"),
        "-2_1": (3, "E1:2>1,E2:1>2,E1:2>1"),
        "2_2": (4, "E2:1>2,E2:1>2,E1:1>2,E1:1>2"),
        "2_-2": (4, "E2:2>1,E2:2>1,E1:1>2,E1:1>2"),
    }

    def test_grid_words_and_bound(self):
        M = gen_grid((2, 2))
        for b, (dist, word) in self.GRID_WORDS.items():
            assert _word_between(M, "0_0", b, dist - 1) is None
            for bound in (dist, dist + 1):
                assert str(_word_between(M, "0_0", b, bound)) == word

    def test_same_endpoint_is_empty_word(self):
        M = gen_grid((2, 2))
        for bound in (0, 3):
            assert _word_between(M, "1_-1", "1_-1", bound).steps == ()

    def test_tie_break_is_discovery_order_not_id_order(self):
        # Both 0-1-9-5 and 0-2-3-5 are shortest; 9 is discovered before 3
        # (through 1), though "3" < "9".
        M = mk([("P", ("0", "1")), ("P", ("1", "9")), ("P", ("9", "5")),
                ("Q", ("0", "2")), ("Q", ("2", "3")), ("Q", ("3", "5"))])
        assert str(_word_between(M, "0", "5", 3)) == "P:1>2,P:1>2,P:1>2"
        assert str(_word_between(M, "5", "0", 3)) == "Q:2>1,Q:2>1,Q:2>1"
        assert _word_between(M, "0", "5", 2) is None
        assert _word_between(M, "0", "4", 9) is None  # unreachable


# ---------------------------------------------------------------------------
# Isomorphism-approximants between different windows


class TestPeriodicIsomorphism:
    def test_checkerboard_windows_with_shifted_anchors(self):
        periods, cmap = checkerboard_colormap()
        A = gen_grid((10, 10), mode="window", periods=periods, colormap=cmap)
        B = gen_grid((10, 10), mode="window", periods=periods, colormap=cmap,
                     phase=(1, 0))
        p = periodic_isomorphism(A, B)
        assert p is not None
        p.verify()
        assert p.certified_radius >= 9  # certified to the window limit
        # the map respects the coloring oracle: images keep the color
        for e, img in p.mapping.items():
            assert A.unary_profile(e) == B.unary_profile(img)

    def test_one_engine_search_per_target_anchor(self, monkeypatch, sqrt2):
        calls = engine_calls(monkeypatch)
        M = gen_sturmian(sqrt2, 0, 60)
        N = gen_sturmian(sqrt2, QuadraticIrrational.parse("1/4"), 60)
        p = periodic_isomorphism(M, N)
        assert p is not None
        targets = [b for b, _ in calls]
        assert len(targets) == len(set(targets)) > 1
        assert targets[-1] == p.image_anchor()

    def test_different_periods_rejected_with_census_witness(self):
        two = gen_grid((60,), mode="window", periods=(2,),
                       colormap={(0,): "White", (1,): "Black"})
        three = gen_grid((60,), mode="window", periods=(3,),
                         colormap={(0,): "White", (1,): "Black", (2,): "Black"})
        assert periodic_isomorphism(two, three) is None
        witness = extraction_compare(two, three, 1)
        assert not witness.locally_isomorphic()
        assert witness.missing_in_target or witness.missing_in_source

    def test_same_period_different_windows(self):
        two = gen_grid((40,), mode="window", periods=(2,),
                       colormap={(0,): "White", (1,): "Black"})
        shifted = gen_grid((44,), mode="window", periods=(2,),
                           colormap={(0,): "White", (1,): "Black"}, phase=(1,))
        p = periodic_isomorphism(two, shifted)
        assert p is not None
        assert p.certified_radius >= 39

    def test_period_report_is_deprecated_and_ignored(self):
        two = gen_grid((40,), mode="window", periods=(2,),
                       colormap={(0,): "White", (1,): "Black"})
        shifted = gen_grid((44,), mode="window", periods=(2,),
                           colormap={(0,): "White", (1,): "Black"}, phase=(1,))
        report = detect_periodicity(shifted, 2)
        with pytest.warns(DeprecationWarning, match="period_report"):
            p = periodic_isomorphism(two, shifted, period_report=report)
        q = periodic_isomorphism(two, shifted)
        assert p.mapping == q.mapping
        assert p.certified_radius == q.certified_radius
