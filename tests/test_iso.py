"""Pointed isomorphism, signatures, census, LIP, extraction comparison.

The reference oracle for isomorphism questions is brute force: minimize the
serialized structure over every anchor-pinning relabeling. The engine, the
canonical signature, and the fast class-token layouts must all agree with
it. Census counts are checked against hand counts and, for column
colorings, against the factor-complexity formula p(m) = m + 1 (radius-h
classes correspond to factors of length 2h+1, so there are 2h+2 of them).
"""

import hashlib
import math
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locis
from locis.core import Language, Structure
from locis.errors import (
    InvariantViolation,
    LanguageMismatch,
    NoFaithfulElements,
    VerificationFailed,
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
    BallSignature,
    EngineResult,
    PartialIso,
    _layout,
    _linear_layout,
    _token_groups,
    census,
    class_ids,
    extraction_compare,
    lip_check,
    pointed_iso,
    signature,
    windowed_pointed_iso,
)
from locis.rigidity import _pair_free_anchor
from locis.symmetry import find_symmetries

from conftest import (
    LANG2,
    colored_line,
    groupings,
    reference_forest_class_keys,
    reference_linear_class_keys,
    reference_linear_layout,
    brute_force_pointed_iso,
    brute_pointed_canonical,
    cfi_pair,
    enumerate_closed_structures,
    mk,
    random_closed_structure,
    random_labeled_forest,
    reference_windowed_pointed_iso,
    reversed_structure,
)


def connected_balls(structures):
    """One pointed ball per (structure, anchor): the anchor's component."""
    balls = []
    for M in structures:
        for a in M.elements:
            balls.append(M.ball(a, len(M)))
    return balls


class TestOracleAgreement:
    def test_signature_matches_brute_force_exhaustively(self):
        # every closed {P/2,Q/2}-structure on <= 2 elements, every anchor
        balls = connected_balls(enumerate_closed_structures(2))
        by_brute = {}
        by_sig = {}
        for ball in balls:
            key = brute_pointed_canonical(ball.structure, ball.center)
            sig = signature(ball)
            by_brute.setdefault(key, set()).add(sig)
            by_sig.setdefault(sig, set()).add(key)
        assert all(len(v) == 1 for v in by_brute.values())
        assert all(len(v) == 1 for v in by_sig.values())

    def test_engine_matches_brute_force_on_random_structures(self):
        rng = random.Random(90)
        balls = connected_balls(
            [random_closed_structure(rng, rng.randrange(3, 6)) for _ in range(40)]
        )
        keys = [brute_pointed_canonical(b.structure, b.center) for b in balls]
        for _ in range(300):
            i = rng.randrange(len(balls))
            j = rng.randrange(len(balls))
            want = keys[i] == keys[j]
            got = pointed_iso(balls[i], balls[j])
            assert (got is not None) == want
            assert (signature(balls[i]) == signature(balls[j])) == want
            if got is not None:
                got.verify()

    def test_engine_matches_allmaps_oracle_directly(self):
        rng = random.Random(7)
        structs = [random_closed_structure(rng, 4) for _ in range(25)]
        balls = connected_balls(structs)
        for _ in range(200):
            A = balls[rng.randrange(len(balls))]
            B = balls[rng.randrange(len(balls))]
            want = brute_force_pointed_iso(A.structure, A.center, B.structure, B.center)
            assert (pointed_iso(A, B) is not None) == want

    def test_center_placement_matters(self):
        # same underlying path, different anchor positions
        M = mk([("P", ("0", "1")), ("P", ("1", "2"))], n=3)
        end = M.ball("0", 3)
        mid = M.ball("1", 3)
        assert pointed_iso(end, mid) is None
        assert signature(end) != signature(mid)
        other_end = M.ball("2", 3)
        iso = pointed_iso(end, other_end)
        assert iso is None  # orientation: P points away from 0 but into 2


class TestEngineVerdicts:
    def test_kill_layer_certifies_all_larger_radii(self):
        # structures that agree to radius 1 but differ at radius 2
        A = mk([("P", ("0", "1")), ("P", ("1", "2"))], n=3)
        B = mk([("P", ("0", "1")), ("Q", ("1", "2"))], n=3)
        res = windowed_pointed_iso(A, "0", B, "0", 5)
        assert res.status == "dead"
        assert res.radius == 2
        for r in (2, 3, 4):
            again = windowed_pointed_iso(A, "0", B, "0", r)
            assert again.status == "dead" and again.radius <= r

    def test_exhausted_when_windows_cannot_certify(self):
        A = mk([("P", ("0", "1"))], n=2, frontier=("0", "1"))
        B = mk([("P", ("0", "1"))], n=2, frontier=("0", "1"))
        res = windowed_pointed_iso(A, "0", B, "0", 3)
        assert res.status == "exhausted"
        assert res.mapping is not None

    def test_closed_windows_certify_any_radius(self):
        A = mk([("P", ("0", "1")), ("P", ("1", "0"))], n=2)
        res = windowed_pointed_iso(A, "0", A, "1", 99)
        assert res.status == "iso"

    def test_language_mismatch(self):
        A = mk([("P", ("0", "1"))], n=2)
        B = Structure(Language([("R", 2)]), ["0", "1"], [("R", ("0", "1"))])
        with pytest.raises(LanguageMismatch):
            windowed_pointed_iso(A, "0", B, "0", 1)

    def test_negative_radius_rejected(self):
        M = gen_grid((4, 4), mode="torus")
        with pytest.raises(InvariantViolation):
            windowed_pointed_iso(M, "0_0", M, "1_1", -2)

    def test_verify_rejects_tampered_mapping(self):
        M = gen_grid((3, 3), mode="torus")
        iso = pointed_iso(M.ball("0_0", 4), M.ball("1_1", 4))
        iso.mapping[iso.anchor], sav = "2_2", iso.mapping[iso.anchor]
        if sav != "2_2":
            with pytest.raises(VerificationFailed):
                iso.verify()

    def test_verify_names_stray_ids(self):
        M = gen_grid((3, 3), mode="torus")
        for mapping, stage in (({"0_0": "nope"}, "image"), ({"nope": "0_0"}, "domain")):
            with pytest.raises(VerificationFailed, match="'nope'") as exc_info:
                PartialIso(M, M, mapping, "0_0", 0).verify()
            assert exc_info.value.stage == stage

    def test_verify_names_the_same_tuple_under_every_hash_seed(self):
        # swapping the coordinates of a torus breaks every E1 tuple; the one
        # named must not depend on set iteration order
        src = os.path.dirname(os.path.dirname(os.path.abspath(locis.__file__)))
        messages = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", SWAP_VERIFY_SCRIPT], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            messages.append(proc.stdout)
        assert "'preservation'" in messages[0]
        assert messages[0] == messages[1]


SWAP_VERIFY_SCRIPT = """
from locis.errors import VerificationFailed
from locis.generators import gen_grid
from locis.iso import PartialIso
M = gen_grid((6, 6), mode="torus")
swap = {e: "_".join(reversed(e.split("_"))) for e in M.elements}
try:
    PartialIso(M, M, swap, "0_0", 0).verify()
except VerificationFailed as exc:
    print(exc)
"""


@st.composite
def ball_pair(draw):
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    A = random_closed_structure(rng, draw(st.integers(2, 5)))
    B = random_closed_structure(rng, draw(st.integers(2, 5)))
    return A.ball(A.elements[0], len(A)), B.ball(B.elements[0], len(B))


@given(ball_pair())
@settings(max_examples=150, deadline=None)
def test_pointed_iso_agrees_with_signature(pair):
    A, B = pair
    assert (pointed_iso(A, B) is not None) == (signature(A) == signature(B))


# ---------------------------------------------------------------------------
# The engine against its full-layer reference and the brute-force oracle

LANG_UPT = Language([("U", 1), ("P", 2), ("T", 3)])
PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


@st.composite
def upt_window(draw, closed=False, max_n=6):
    """Random window over U/1, P/2, T/3; arguments repeat freely."""
    n = draw(st.integers(1, max_n))
    elements = [str(i) for i in range(n)]
    element = st.sampled_from(elements)
    tuples = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("U"), st.tuples(element)),
                st.tuples(st.just("P"), st.tuples(element, element)),
                st.tuples(st.just("T"), st.tuples(element, element, element)),
            ),
            max_size=3 * n,
        )
    )
    frontier = () if closed else draw(st.lists(element, unique=True, max_size=2))
    return Structure(LANG_UPT, elements, tuples, frontier=frontier)


@given(upt_window(), upt_window(), st.booleans(), st.integers(0, 6), st.booleans(), st.data())
@settings(max_examples=400, deadline=None)
def test_engine_matches_full_layer_reference(M, N, same, radius, reverse, data):
    if same:
        N = M
    a = data.draw(st.sampled_from(M.elements))
    b = data.draw(st.sampled_from(N.elements))
    got = windowed_pointed_iso(M, a, N, b, radius, reverse)
    assert got == reference_windowed_pointed_iso(M, a, N, b, radius, reverse)


@given(upt_window(), upt_window(), st.sampled_from(["other", "same", "mirror"]),
       st.integers(0, 4), st.sampled_from(["none", "move", "swap"]), st.data())
@settings(max_examples=300, deadline=None)
def test_reversed_verify_matches_forward_verify_on_the_reversed_copy(
    M, N, pairing, radius, tamper, data
):
    # a mirrored copy of M always has a reversed map onto it, the identity
    if pairing != "other":
        N = M if pairing == "same" else reversed_structure(M)
    a = data.draw(st.sampled_from(M.elements))
    b = a if pairing == "mirror" else data.draw(st.sampled_from(N.elements))
    res = windowed_pointed_iso(M, a, N, b, radius, True)
    mapping = dict(res.mapping or {a: b})
    keys = sorted(mapping)
    if tamper == "move":
        mapping[data.draw(st.sampled_from(keys))] = data.draw(st.sampled_from(N.elements))
    elif tamper == "swap" and len(keys) > 1:
        x, y = data.draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2, unique=True))
        mapping[x], mapping[y] = mapping[y], mapping[x]
    copy = reversed_structure(N)

    def outcome(P):
        try:
            return P.verify()
        except VerificationFailed as exc:
            if exc.stage == "reflection":  # named as the reversed read of a target tuple
                assert copy.has_tuple(*exc.detail)
                return exc.stage
            return exc.stage, exc.detail

    got = outcome(PartialIso(M, N, mapping, a, radius, True))
    assert got == outcome(PartialIso(M, copy, mapping, a, radius))
    if tamper == "none" and res.mapping is not None:
        assert got is True


@given(upt_window(closed=True, max_n=5), upt_window(closed=True, max_n=5), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_kill_radius_is_tight_on_closed_windows(M, N, reverse, data):
    a = data.draw(st.sampled_from(M.elements))
    b = data.draw(st.sampled_from(N.elements))
    target = reversed_structure(N) if reverse else N

    def alive(h):
        return brute_force_pointed_iso(M.ball(a, h).structure, a, target.ball(b, h).structure, b)

    res = windowed_pointed_iso(M, a, N, b, len(M) + len(N), reverse)
    if res.status == "dead":
        assert not alive(res.radius)
        assert res.radius == 0 or alive(res.radius - 1)
    else:
        assert res.status == "iso" and alive(len(M) + len(N))


def test_precheck_mismatch_kill_is_tight():
    # The 1-balls already differ (an in-edge at a against two out-edges), but
    # the layer sizes first differ at 2.
    E = Language([("E", 2)])
    M = Structure(E, "abcd", [("E", ("a", "b")), ("E", ("c", "a")), ("E", ("b", "d"))])
    N = Structure(E, "abc", [("E", ("a", "b")), ("E", ("a", "c"))])
    for r in (1, 2, 3):
        assert windowed_pointed_iso(M, "a", N, "a", r) == EngineResult("dead", 1)


def binary_tree(depth, extra=()):
    """Undirected complete binary tree on 0..2^(depth+1)-2, plus `extra` edges."""
    n = 2 ** (depth + 1) - 1
    edges = [(i, 2 * i + k) for i in range(n) for k in (1, 2) if 2 * i + k < n] + list(extra)
    E = Language([("E", 2)])
    return Structure(E, map(str, range(n)), [
        ("E", (str(x), str(y))) for a, b in edges for x, y in ((a, b), (b, a))
    ])


def test_layer_precheck_prunes_before_the_search(monkeypatch):
    # One leaf-leaf edge: the layers first differ at 6, in one tuple count.
    # The precheck stops the search after layer 5; a search through layer 6
    # would try exponentially many leaf assignments before it dies.
    M = binary_tree(6)
    N = binary_tree(6, [(63, 126)])
    assert len(M) == 127
    calls = [0]
    has_tuple = Structure.has_tuple

    def counted(self, sym, args):
        calls[0] += 1
        assert calls[0] <= 4 * len(M), "the search ran past the layer precheck"
        return has_tuple(self, sym, args)

    monkeypatch.setattr(Structure, "has_tuple", counted)
    assert windowed_pointed_iso(M, "0", N, "0", 6) == EngineResult("dead", 6)


def test_cfi_pair_dies_where_signatures_part():
    A, B = cfi_pair(PETERSEN)
    assert len(A) == len(B) == 100
    c = "a0_0_0"
    assert windowed_pointed_iso(A, c, B, c, 20) == EngineResult("dead", 8)
    assert signature(A.ball(c, 7)) == signature(B.ball(c, 7))
    assert signature(A.ball(c, 8)) != signature(B.ball(c, 8))


# ---------------------------------------------------------------------------
# Census


class TestCensus:
    def test_path_interior_is_one_class(self):
        M = mk(
            [("P", (str(i), str(i + 1))) for i in range(6)],
            n=7,
            frontier=("0", "6"),
        )
        table = census(M, 1)
        assert len(table.entries) == 1
        assert table.entries[0].multiplicity == 5
        assert table.censused == 5

    def test_torus_is_ball_transitive(self):
        M = gen_grid((4, 4), mode="torus")
        for h in (1, 2, 3):
            table = census(M, h)
            assert len(table.entries) == 1
            assert table.entries[0].multiplicity == 16

    def test_checkerboard_has_two_classes(self):
        periods, cmap = checkerboard_colormap()
        M = gen_grid((4, 4), mode="torus", periods=periods, colormap=cmap)
        table = census(M, 2)
        assert sorted(e.multiplicity for e in table.entries) == [8, 8]

    def test_column_census_matches_factor_complexity(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 300)
        for h in (1, 2, 3, 4):
            assert len(census(M, h).entries) == 2 * h + 2

    def test_no_faithful_elements(self):
        M = mk([("P", ("0", "1"))], n=2, frontier=("0", "1"))
        with pytest.raises(NoFaithfulElements):
            census(M, 1)

    def test_negative_radius_rejected(self):
        # class_ids guards census, lip, compare and the rigidity probes too
        M = gen_grid((4, 4), mode="torus")
        for fn in (class_ids, census):
            with pytest.raises(InvariantViolation):
                fn(M, -1)

    def test_a_class_split_across_tokens_fails_verification(self, monkeypatch):
        periods, cmap = checkerboard_colormap()
        M = gen_grid((4, 4), mode="torus", periods=periods, colormap=cmap)
        exact = locis.iso.class_ids

        def split(M, h, extended=False):
            # the id-least element leaves its class under a token of its own
            ids = exact(M, h, extended)
            first = min(ids)
            return {e: ("split", t) if e == first else t for e, t in ids.items()}

        monkeypatch.setattr(locis.iso, "class_ids", split)
        with pytest.raises(VerificationFailed) as exc:
            census(M, 2)
        assert exc.value.stage == "census-tokens"
        assert min(M.elements) in exc.value.detail

    def test_signatures_comparable_across_structures(self, sqrt2):
        # the same infinite structure seen through two windows yields
        # identical signature sets
        A = gen_sturmian(sqrt2, 0, 120)
        B = gen_sturmian(sqrt2, 0, 150)
        assert census(A, 2).signature_set() == census(B, 2).signature_set()


class TestClassTokens:
    def test_forest_fast_path_matches_generic_signatures(self):
        M = gen_kary_tree(2, AddressSequence.thue_morse(1, 2), depth=10, halo=5)
        for h in (1, 2, 3):
            groups = [g for _, g in _token_groups(M, h)]
            # regroup the same elements by generic ball signature
            sig_groups = {}
            for e in M.faithful_elements(h):
                sig_groups.setdefault(signature(M.ball(e, h)), []).append(e)
            want = sorted((sorted(g) for g in sig_groups.values()), key=lambda g: g[0])
            assert groups == want

    def test_linear_fast_path_matches_generic_signatures(self, sqrt2):
        M = gen_sturmian(sqrt2, QuadraticIrrational.parse("1/4"), 40)
        for h in (1, 2, 3):
            tokens = class_ids(M, h)
            sig_of = {e: signature(M.ball(e, h)) for e in tokens}
            for e in tokens:
                for f in tokens:
                    assert (tokens[e] == tokens[f]) == (sig_of[e] == sig_of[f])

    def test_cycle_window_tokens(self):
        # closed cycle: the linear layout must handle the wrap
        M = gen_grid((6,), mode="torus")
        tokens = class_ids(M, 2)
        assert len(set(tokens.values())) == 1
        assert len(tokens) == 6


# ---------------------------------------------------------------------------
# LIP and extraction comparison


class TestLip:
    def test_periodic_coloring_holds(self):
        periods, cmap = checkerboard_colormap(d=1)
        M = gen_grid((60,), mode="window", periods=periods, colormap=cmap)
        rep = lip_check(M, 1)
        assert rep.verdict == "holds_up_to_bounds"
        assert rep.k is not None and rep.k <= 2

    def test_sturmian_holds_with_finite_k(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 400)
        rep = lip_check(M, 2)
        assert rep.verdict == "holds_up_to_bounds"
        # recurrence gap for factors of length 5 is small for sqrt(2)
        assert rep.k <= 20

    def test_one_off_blemish_fails_with_witness(self):
        # all-White line except a single Black column near one end: the
        # Black class cannot recur, so no window-independent k exists
        lang = Language([("Succ", 2), ("White", 1), ("Black", 1)])
        n = 120
        elements = [str(i) for i in range(n)]
        tuples = [("Succ", (str(i), str(i + 1))) for i in range(n - 1)]
        for i in range(n):
            tuples.append(("Black" if i == 3 else "White", (str(i),)))
        M = Structure(lang, elements, tuples, frontier=("0", str(n - 1)))
        rep = lip_check(M, 1)
        assert rep.verdict == "fails_with_witness"
        assert rep.witness is not None


class TestExtractionCompare:
    def test_same_slope_different_intercept_bidirectional(self, sqrt2):
        third = QuadraticIrrational.parse("1/3")
        A = gen_sturmian(sqrt2, 0, 250)
        B = gen_sturmian(sqrt2, third, 250)
        for h in (1, 2, 3):
            rep = extraction_compare(A, B, h)
            assert rep.locally_isomorphic()
            assert rep.missing_in_target == [] and rep.missing_in_source == []

    def test_periodic_vs_aperiodic_fails_with_witness(self, sqrt2):
        A = gen_sturmian(sqrt2, 0, 200)
        lang_periods, lang_cmap = (2,), {(0,): "White", (1,): "Black"}
        B = gen_grid((200,), mode="window", periods=lang_periods, colormap=lang_cmap)
        # align languages: the 1-d grid uses Succ/White/Black in a different
        # declaration order, so rebuild B over A's language
        B2 = Structure(
            A.language,
            B.elements,
            list(B.all_tuples()),
            frontier=B.frontier,
        )
        rep = extraction_compare(A, B2, 2)
        assert not rep.locally_isomorphic()
        # the alternating word has no factor '00', the Sturmian one does
        assert rep.missing_in_target != []
        for hex_key, representative in rep.missing_in_target:
            assert representative in A.elements

    def test_multiplicity_keys_are_distinct_per_class(self, sqrt2):
        A = gen_sturmian(sqrt2, 0, 120)
        rep = extraction_compare(A, A, 2)
        assert len(rep.multiplicities) == 6  # 2h+2 classes at h=2
        assert all(a == b for a, b in rep.multiplicities.values())

    def test_language_mismatch_rejected(self, sqrt2):
        A = gen_sturmian(sqrt2, 0, 50)
        B = gen_grid((50,), mode="window")
        with pytest.raises(LanguageMismatch):
            extraction_compare(A, B, 1)


# ---------------------------------------------------------------------------
# Windowed search on parent windows (no extraction)


def test_windowed_search_equals_extracted_search(sqrt2):
    M = gen_sturmian(sqrt2, 0, 80)
    anchors = ["0", "5", "-12", "29"]
    h = 3
    for a in anchors:
        for b in anchors:
            windowed = windowed_pointed_iso(M, a, M, b, h)
            extracted = pointed_iso(M.ball(a, h), M.ball(b, h))
            assert (windowed.status == "iso") == (extracted is not None)


# ---------------------------------------------------------------------------
# Canonical signatures on symmetric balls


def undirected_graph(edges):
    """Closed structure of an undirected graph over one symmetric relation."""
    elements = sorted({v for e in edges for v in e})
    tuples = [("E", (a, b)) for a, b in edges] + [("E", (b, a)) for a, b in edges]
    return Structure(Language([("E", 2)]), elements, tuples)


def star(leaves):
    return undirected_graph([("c", f"l{i}") for i in range(leaves)])


def rook(n):
    cells = [(i, j) for i in range(n) for j in range(n)]
    return undirected_graph(
        [
            (f"r{i}_{j}", f"r{k}_{m}")
            for (i, j) in cells
            for (k, m) in cells
            if (i, j) < (k, m) and (i == k or j == m)
        ]
    )


def shrikhande():
    steps = {(1, 0), (0, 1), (1, 1), (3, 0), (0, 3), (3, 3)}
    cells = [(i, j) for i in range(4) for j in range(4)]
    return undirected_graph(
        [
            (f"s{i}_{j}", f"s{k}_{m}")
            for (i, j) in cells
            for (k, m) in cells
            if (i, j) < (k, m) and ((k - i) % 4, (m - j) % 4) in steps
        ]
    )


def golden_balls(sqrt2):
    periods, cmap = checkerboard_colormap()
    grid = gen_grid((4, 4), mode="window", periods=periods, colormap=cmap)
    lang = Language([("T", 3), ("White", 1), ("Black", 1)])
    ternary = Structure(
        lang,
        [str(i) for i in range(6)],
        [
            ("T", ("0", "1", "2")),
            ("T", ("2", "1", "0")),
            ("T", ("1", "3", "3")),
            ("T", ("3", "4", "5")),
            ("T", ("5", "5", "0")),
            ("White", ("0",)),
            ("White", ("3",)),
            ("Black", ("1",)),
            ("Black", ("3",)),
            ("Black", ("5",)),
        ],
    )
    # A hub joined to two copies of a 4-regular graph: swapping the copies
    # fixes the hub, refinement leaves cells that are not orbits, and the
    # first leaf of the search is not the least one.
    H = [(0, 1), (0, 2), (0, 4), (0, 7), (1, 3), (1, 4), (1, 8), (2, 3), (2, 5)]
    H += [(2, 7), (3, 6), (3, 8), (4, 6), (4, 8), (5, 6), (5, 7), (5, 8), (6, 7)]
    hub = undirected_graph(
        [(f"c{j}_{a}", f"c{j}_{b}") for j in range(2) for a, b in H]
        + [("hub", f"c{j}_0") for j in range(2)]
    )
    return {
        "star7_centre": star(7).ball("c", 1),
        "star7_leaf": star(7).ball("l0", 1),
        "rook4": rook(4).ball("r0_0", 1),
        "shrikhande": shrikhande().ball("s0_0", 1),
        "grid": grid.ball("0_0", 3),
        "column": gen_sturmian(sqrt2, 0, 12).ball("0", 8),
        "ternary_unary": ternary.ball("1", 6),
        "hub_regular": hub.ball("hub", 3),
    }


# Digests of the codes the exhaustive (unpruned) search produced: pruning
# must leave every code byte-identical.
GOLDEN = {
    "star7_centre": "dc001a04c21840bb",
    "star7_leaf": "82a63d210fc0dab4",
    "rook4": "cdc626b463bbd5a3",
    "shrikhande": "fc0814c6302b781b",
    "grid": "e19b0b3f5a90b028",
    "column": "d8c43bd5b2a68fec",
    "ternary_unary": "6e33f528ce999c50",
    "hub_regular": "76ac53a671d8a9d1",
}


class TestSymmetricSignatures:
    def test_golden_codes(self, sqrt2):
        got = {name: signature(ball).hex() for name, ball in golden_balls(sqrt2).items()}
        assert got == GOLDEN

    def test_stars_and_circulants_match_brute_force(self):
        balls = []
        for k in range(1, 7):
            S = star(k)
            balls += [S.ball("c", 1), S.ball("l0", 1), S.ball("l0", 2)]
        # circulant graphs: cycles, the octahedron C6(1,2) and C7(1,2)
        for k, steps in [(3, (1,)), (4, (1,)), (5, (1,)), (6, (1,)), (6, (1, 2)), (7, (1, 2))]:
            C = undirected_graph([(f"v{i}", f"v{(i + s) % k}") for i in range(k) for s in steps])
            balls += [C.ball("v0", 1), C.ball("v0", k)]
        keys = [brute_pointed_canonical(b.structure, b.center) for b in balls]
        sigs = [signature(b) for b in balls]
        for i in range(len(balls)):
            for j in range(len(balls)):
                assert (sigs[i] == sigs[j]) == (keys[i] == keys[j])

    def test_rook_and_shrikhande_two_balls_separate(self):
        A = rook(4).ball("r0_0", 2)
        B = shrikhande().ball("s0_0", 2)
        # both are the whole 16-vertex graph with layers 1, 6, 9
        layers = [
            Counter(G.structure.ball_elements(G.center, 2).values()) for G in (A, B)
        ]
        assert layers[0] == layers[1] == Counter({0: 1, 1: 6, 2: 9})
        assert signature(A) != signature(B)

    def test_large_symmetric_balls_complete(self):
        S = star(12)
        assert signature(S.ball("l0", 2)) == signature(S.ball("l7", 2))
        assert signature(S.ball("c", 2)) != signature(S.ball("l0", 2))
        R = rook(6)
        assert signature(R.ball("r0_0", 2)) == signature(R.ball("r3_5", 2))


# ---------------------------------------------------------------------------
# Generic class tokens: golden digests and a differential test


def speckled_grid(n, seed):
    """(2n+1)^2 grid window with a random two-colouring: no repeated forms."""
    rng = random.Random(seed)
    plain = gen_grid((n, n), mode="window")
    lang = Language(list(plain.language.symbols) + [("White", 1), ("Black", 1)])
    colours = [(rng.choice(("White", "Black")), (e,)) for e in plain.elements]
    return Structure(lang, plain.elements, list(plain.all_tuples()) + colours, plain.frontier)


def generic_windows(sqrt2):
    """(name, window, radius) triples that take the generic class_ids path."""
    periods, cmap = checkerboard_colormap()
    board = gen_grid((4, 4), mode="window", periods=periods, colormap=cmap)
    ternary = golden_balls(sqrt2)["ternary_unary"].structure
    tiling = gen_binary_hyperbolic(AddressSequence.parse("periodic:01"), 3, 2, support_radius=2)
    return (
        [(f"board_h{h}", board, h) for h in range(4)]
        + [("speckled_h2", speckled_grid(6, 8), 2), ("speckled_h3", speckled_grid(6, 8), 3)]
        + [("rook4_h1", rook(4), 1), ("shrikhande_h1", shrikhande(), 1)]
        + [(f"ternary_h{h}", ternary, h) for h in range(4)]
        + [("tiling_h1", tiling, 1), ("tiling_h2", tiling, 2)]
    )


def token_digest(tokens):
    text = "".join(f"{e} {tokens[e].hex()}\n" for e in sorted(tokens))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Digests of the sorted (element, code digest) pairs before class_ids built
# its forms in slot order and shared codes between equal forms.
GOLDEN_CLASS_IDS = {
    "board_h0": "77cc3c013fde4814",
    "board_h1": "4a0ac06baa5d3d52",
    "board_h2": "b0b57d38b78bcdd7",
    "board_h3": "ca3fb81a92337970",
    "speckled_h2": "9057f91db99b4efb",
    "speckled_h3": "3b9a010addf4bc5a",
    "rook4_h1": "825238b96c323469",
    "shrikhande_h1": "0a6137d78f92a3ea",
    "ternary_h0": "b88d5e9600e467c9",
    "ternary_h1": "eb4a8b6021ef42a0",
    "ternary_h2": "45f89c99352a9b2d",
    "ternary_h3": "8d88905c412576f3",
    "tiling_h1": "4d3af7056e6264b5",
    "tiling_h2": "d4d241c5b64d276a",
}


def test_golden_class_ids(sqrt2):
    got = {}
    for name, M, h in generic_windows(sqrt2):
        tokens = class_ids(M, h)
        assert tokens and all(isinstance(t, BallSignature) for t in tokens.values())
        got[name] = token_digest(tokens)
    assert got == GOLDEN_CLASS_IDS


LANG_DIFF = Language([("U", 1), ("V", 1), ("P", 2), ("S", 2), ("T", 3)])


@st.composite
def diff_window(draw, max_n=12):
    """Random window over U/1, V/1, P/2, a symmetric S/2 and T/3.

    Arguments repeat freely, S ties several tuples inside one slot, and up
    to two frontier elements bound the faithful radii. Sparse tuples leave
    many small components, so balls of one window often share a form.
    """
    n = draw(st.integers(1, max_n))
    elements = [str(i) for i in range(n)]
    element = st.sampled_from(elements)
    tuples = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(("U", "V")), st.tuples(element)),
                st.tuples(st.sampled_from(("P", "S")), st.tuples(element, element)),
                st.tuples(st.just("T"), st.tuples(element, element, element)),
            ),
            max_size=2 * n,
        )
    )
    tuples += [("S", t[::-1]) for sym, t in tuples if sym == "S"]
    frontier = draw(st.lists(element, unique=True, max_size=2))
    return Structure(LANG_DIFF, elements, tuples, frontier=frontier)


@given(diff_window())
@settings(max_examples=300, deadline=None)
def test_class_ids_agree_with_signature_and_brute_force(M):
    # Balls of at most 6 members also meet the brute-force canonical form.
    depths = M.depths()
    for h in range(4):
        tokens = class_ids(M, h)
        assert set(tokens) == {e for e in M.elements if depths[e] >= h}
        keys = {}
        for e, token in tokens.items():
            ball = M.ball(e, h)
            assert token == signature(ball)
            if len(ball) <= 6:
                keys[e] = brute_pointed_canonical(ball.structure, e)
        for e in keys:
            for f in keys:
                assert (tokens[e] == tokens[f]) == (keys[e] == keys[f])


def test_forms_that_differ_only_in_wiring_keep_their_codes():
    # The 1-balls of rook and Shrikhande graphs agree in layer sizes, entry
    # counts and slots, and differ only in which neighbours are joined (two
    # triangles against a hexagon); in one window they must not share a code.
    R, S = rook(4), shrikhande()
    U = Structure(R.language, R.elements + S.elements, list(R.all_tuples()) + list(S.all_tuples()))
    tokens = class_ids(U, 1)
    assert tokens["r0_0"] != tokens["s0_0"]
    assert len(set(tokens.values())) == 2
    for e in ("r0_0", "r2_3", "s0_0", "s3_1"):
        assert tokens[e] == signature(U.ball(e, 1))


class TestLayout:
    """_layout detects each window's layout once, and its chain arrays
    follow the rules its docstring states."""

    def windows(self, sqrt2):
        periods, cmap = checkerboard_colormap()
        yield gen_sturmian(sqrt2, 0, 60)  # a coloured path
        yield gen_grid((12,), mode="window")  # an uncoloured path
        yield gen_grid((7,), mode="torus")  # an uncoloured cycle
        yield gen_kary_tree(2, AddressSequence.parse("tm12"), depth=6, halo=3)
        yield gen_binary_hyperbolic(AddressSequence.parse("tm"), 6, 8, 3)
        yield gen_grid((4, 4), mode="torus", periods=periods, colormap=cmap)

    def test_each_detector_runs_at_most_once_per_window(self, sqrt2, monkeypatch):
        calls = Counter()

        def counted(name, detect):
            def wrapper(M):
                calls[name] += 1
                return detect(M)

            return wrapper

        for name in ("_linear_layout", "_forest_layout", "_tiling_layout"):
            monkeypatch.setattr(locis.iso, name, counted(name, getattr(locis.iso, name)))
        seen = Counter()
        for M in self.windows(sqrt2):
            calls.clear()
            for h in (1, 2):
                class_ids(M, h)
            try:
                _pair_free_anchor(M, 1, 2, 3)
            except WindowExhausted:
                pass
            find_symmetries(M, 1, 2)
            assert max(calls.values()) == 1, (_layout(M).kind, calls)
            seen.update(calls)
        assert set(seen) == {"_linear_layout", "_forest_layout", "_tiling_layout"}

    def test_chain_arrays_on_paths_and_cycles(self, sqrt2):
        lang = Language([("S", 2)])
        ids = [str(i) for i in range(6)]
        tuples = [("S", (a, b)) for a, b in zip(ids, ids[1:])]
        closed = _layout(Structure(lang, ids, tuples))
        cut = _layout(Structure(lang, ids, tuples, frontier=(ids[0], ids[-1])))
        cycle = _layout(gen_grid((7,), mode="torus"))
        coloured = _layout(gen_sturmian(sqrt2, 0, 20))
        assert (closed.kind, cut.kind, cycle.kind, coloured.kind) == ("path", "path", "cycle", "path")
        # the head of a closed path is a node of depth >= 1 without a parent
        assert closed.chain is None and coloured.chain is None
        assert cut.chain is not None and cycle.chain is not None

    def test_linear_layout_matches_the_id_keyed_reference(self):
        rng = random.Random(1313)
        windows = []
        for trial in range(80):
            n = rng.randrange(1, 30)
            windows.append(colored_line(rng, n, 1 + trial % 3, cycle=trial % 2 == 1))
        lang = Language([("S", 2)])

        def line(n, edges):
            return Structure(lang, map(str, range(n)), [("S", (str(a), str(b))) for a, b in edges])

        windows += [
            line(4, [(0, 1), (2, 3)]),  # two heads
            line(3, [(0, 1), (1, 2), (2, 2)]),  # a self-loop
            line(4, [(0, 1), (1, 2), (1, 3)]),  # a branch
            line(4, [(0, 2), (1, 2), (2, 3)]),  # a merge
            line(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),  # two disjoint cycles
            line(5, [(0, 1), (2, 3), (3, 4), (4, 2)]),  # a path beside a cycle
            line(0, []),  # the empty window
        ]
        kinds = Counter()
        for M in windows:
            got = _linear_layout(M)
            if got is not None:
                kind, order = got
                got = kind, [M.elements[j] for j in order]
            want = reference_linear_layout(M)
            assert got == want, list(M.all_tuples())
            kinds[None if want is None else want[0]] += 1
        assert kinds["path"] > 20 and kinds["cycle"] > 20 and kinds[None] >= 7


class TestFastPathsAgainstReferences:
    """Position-ordered linear tokens and parent-extended forest words
    against the id-keyed references in conftest: the same elements get
    tokens, grouped the same way."""

    def test_linear_tokens_group_like_the_reference(self):
        rng = random.Random(909)
        kinds, wide = set(), 0
        for trial in range(60):
            n = rng.randrange(1, 40)
            cycle = trial % 2 == 1
            shape = trial // 2 % 3  # closed, cut open at one or at both ends
            frontier = [(), (rng.randrange(n),), (0, n - 1)][shape]
            M = colored_line(rng, n, 1 + trial % 3, cycle=cycle, frontier=frontier)
            layout = _layout(M)
            if layout is None or layout.kind == "forest":
                continue  # a lone element, or one Succ edge with no colours
            kinds.add((layout.kind, shape))
            for h in range(n + 2):
                want = reference_linear_class_keys(M, h, layout.kind, layout.order, layout.word)
                got = class_ids(M, h)
                assert groupings(got) == groupings(want), (layout.kind, n, h)
                wide += layout.kind == "cycle" and 2 * h + 1 >= n and bool(got)
        assert kinds == {(k, shape) for k in ("path", "cycle") for shape in range(3)}
        assert wide > 0

    def test_forest_words_group_like_the_reference(self):
        rng = random.Random(1972)
        forests = loops = 0
        for trial in range(150):
            M = random_labeled_forest(rng, 1 + trial % 3)
            layout = _layout(M)
            reference = reference_forest_class_keys(M, 0)
            if layout is None or layout.kind != "forest":
                # a path or cycle wins for one symbol; otherwise both refuse
                assert reference is None or layout is not None
                continue
            forests += 1
            par = layout.chain[0]
            loops += any(_on_loop(par, j) for j in range(len(par)))
            for h in range(8):
                for extended in (False, True):
                    want = reference_forest_class_keys(M, h, extended)
                    got = class_ids(M, h, extended=extended)
                    assert groupings(got) == groupings(want), (trial, h, extended)
        assert forests > 50 and loops > 0

    def test_tree_words_group_like_the_reference(self):
        for k, address, depth, halo in ((2, "tm12", 12, 4), (3, "periodic:123", 8, 3)):
            M = gen_kary_tree(k, AddressSequence.parse(address), depth=depth, halo=halo)
            assert _layout(M).kind == "forest"
            for h in (0, 1, 2, 5, 9):
                for extended in (False, True):
                    want = reference_forest_class_keys(M, h, extended)
                    assert groupings(class_ids(M, h, extended=extended)) == groupings(want)


def _on_loop(par, j):
    """True when position j's ancestor chain never reaches a root."""
    seen = set()
    while j >= 0 and j not in seen:
        seen.add(j)
        j = par[j]
    return j >= 0
