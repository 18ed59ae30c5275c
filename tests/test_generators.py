"""Generator families against independent oracles.

The column-coloring oracle redoes the box-crossing count geometrically in
sympy exact arithmetic: a unit box meets the line iff their y-ranges
overlap, with boxes and columns half-open on the high side. The quadratic
integer arithmetic is checked against sympy on random inputs. Tree,
tiling, and Cayley windows are checked for their defining local grammar
plus exact ball sizes from the regular-tree counting formulas.
"""

import hashlib
from fractions import Fraction

import sympy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locis.core import Language, Structure
from locis.errors import (
    ArityMismatch,
    BadAddressEntry,
    DanglingElement,
    InvariantViolation,
    RationalSlope,
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
    sturmian_colors,
)

from conftest import reference_gen_binary_hyperbolic, reference_gen_kary_tree

HALF = sympy.Rational(1, 2)


# ---------------------------------------------------------------------------
# Quadratic integers vs sympy


@given(
    p=st.integers(-60, 60),
    q=st.integers(-60, 60),
    u=st.integers(1, 15),
    D=st.sampled_from([2, 3, 5, 7, 11]),
)
@settings(max_examples=200, deadline=None)
def test_quadratic_matches_sympy(p, q, u, D):
    x = QuadraticIrrational(p, q, u, D)
    val = sympy.Rational(p, u) + sympy.Rational(q, u) * sympy.sqrt(D)
    assert x.floor() == int(sympy.floor(val))
    assert x.sign() == int(sympy.sign(val))
    assert abs(float(x) - float(val)) < 1e-9


@given(
    p1=st.integers(-20, 20), q1=st.integers(-20, 20), u1=st.integers(1, 9),
    p2=st.integers(-20, 20), q2=st.integers(-20, 20), u2=st.integers(1, 9),
)
@settings(max_examples=150, deadline=None)
def test_quadratic_field_ops_match_sympy(p1, q1, u1, p2, q2, u2):
    rt = sympy.sqrt(2)
    a = QuadraticIrrational(p1, q1, u1, 2)
    b = QuadraticIrrational(p2, q2, u2, 2)
    sa = (p1 + q1 * rt) / u1
    sb = (p2 + q2 * rt) / u2
    for got, want in [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)]:
        assert got.floor() == int(sympy.floor(sympy.expand(want)))
    assert (a < b) == bool(sympy.simplify(sa - sb) < 0)
    assert (a == b) == (sympy.simplify(sa - sb) == 0)


def test_quadratic_parse_roundtrip():
    x = QuadraticIrrational(-3, 2, 5, 2)
    assert QuadraticIrrational.parse(str(x)) == x
    assert QuadraticIrrational.parse("1/3") == QuadraticIrrational(1, 0, 3, 0)
    assert QuadraticIrrational.parse("2") == QuadraticIrrational(2, 0, 1, 0)


# ---------------------------------------------------------------------------
# Column coloring vs the geometric sympy oracle


def sympy_column_colors(r, s, lo, hi):
    """Box-crossing colors, done directly: column x in [a-1/2, a+1/2) and
    box y in [b-1/2, b+1/2), both half-open high; Black iff the line meets
    floor(|r|)+2 boxes over the column."""
    n = int(sympy.floor(abs(r)))
    flags = []
    for a in range(lo, hi + 1):
        y_left = r * (a - HALF) + s
        y_right = r * (a + HALF) + s
        center = int(sympy.floor(r * a + s))
        count = 0
        for b in range(center - n - 3, center + n + 4):
            if r > 0:
                # line's y-range over the column is [y_left, y_right)
                hit = bool(b - HALF < y_right) and bool(b + HALF > y_left)
            else:
                # decreasing: y-range is (y_right, y_left]
                hit = bool(b - HALF <= y_left) and bool(b + HALF > y_right)
            count += hit
        assert count in (n + 1, n + 2)
        flags.append(1 if count == n + 2 else 0)
    return flags


@pytest.mark.parametrize(
    "r_lib, r_sym",
    [
        (QuadraticIrrational.sqrt(2), sympy.sqrt(2)),
        (QuadraticIrrational(0, -1, 1, 2), -sympy.sqrt(2)),
        (QuadraticIrrational(-2, 1, 1, 2), sympy.sqrt(2) - 2),
        (QuadraticIrrational(1, 1, 2, 5), (1 + sympy.sqrt(5)) / 2),
    ],
)
@pytest.mark.parametrize(
    "s_lib, s_sym",
    [
        (0, sympy.Integer(0)),
        (QuadraticIrrational(1, 0, 3, 0), sympy.Rational(1, 3)),
        (QuadraticIrrational(0, 1, 2, 2), sympy.sqrt(2) / 2),
        (QuadraticIrrational(-1, 0, 2, 0), sympy.Rational(-1, 2)),
    ],
)
def test_colors_match_geometric_oracle(r_lib, r_sym, s_lib, s_sym):
    if (
        isinstance(s_lib, QuadraticIrrational)
        and not s_lib.is_rational
        and s_lib.D != r_lib.D
    ):
        pytest.skip("mixed radicands")
    got = sturmian_colors(r_lib, s_lib, -25, 25)
    want = sympy_column_colors(r_sym, s_sym, -25, 25)
    assert got == want


def test_rational_slope_rejected():
    with pytest.raises(RationalSlope):
        sturmian_colors(QuadraticIrrational.parse("1/3"), 0, 0, 5)


def test_colors_are_balanced(sqrt2):
    # Sturmian words are balanced: Black counts of equal-length windows
    # differ by at most one.
    flags = sturmian_colors(sqrt2, 0, -600, 600)
    for m in (1, 5, 17, 60):
        counts = {sum(flags[i : i + m]) for i in range(len(flags) - m)}
        assert max(counts) - min(counts) <= 1


def test_factor_complexity_is_m_plus_1(sqrt2):
    # p(m) = m + 1 distinct length-m factors, the Sturmian signature.
    flags = sturmian_colors(sqrt2, 0, -800, 800)
    for m in range(1, 9):
        factors = {tuple(flags[i : i + m]) for i in range(len(flags) - m)}
        assert len(factors) == m + 1


def test_black_frequency(sqrt2):
    flags = sturmian_colors(sqrt2, 0, -2000, 2000)
    assert abs(sum(flags) / len(flags) - (2 ** 0.5 - 1)) < 0.01


def test_gen_sturmian_window_shape(sqrt2):
    M = gen_sturmian(sqrt2, QuadraticIrrational.parse("1/3"), 20)
    assert len(M) == 41
    assert M.frontier == frozenset({"-20", "20"})
    for a in range(-20, 20):
        assert M.has_tuple("Succ", (str(a), str(a + 1)))
    for a in range(-20, 21):
        profile = M.unary_profile(str(a))
        assert sum(profile) == 1  # exactly one color per column


# ---------------------------------------------------------------------------
# Address sequences


def test_address_prefix_and_tails():
    a = AddressSequence.periodic((1, 2), prefix=(9,))
    assert [a.entry(i) for i in range(5)] == [9, 1, 2, 1, 2]
    c = AddressSequence.constant(3)
    assert c.entry(100) == 3
    e = AddressSequence.explicit((1, 2))
    assert e.entry(1) == 2
    with pytest.raises(BadAddressEntry):
        e.entry(2)
    with pytest.raises(BadAddressEntry):
        c.entry(-1)


def test_thue_morse_against_recursive_oracle():
    # t(0) = 0, t(2n) = t(n), t(2n+1) = 1 - t(n)
    t = [0]
    for n in range(1, 1 << 10):
        t.append(t[n // 2] if n % 2 == 0 else 1 - t[n // 2])
    tm = AddressSequence.thue_morse()
    assert [tm.entry(n) for n in range(len(t))] == t
    tm12 = AddressSequence.thue_morse(1, 2)
    assert [tm12.entry(n) - 1 for n in range(len(t))] == t


def test_address_parse_describe_roundtrip():
    for text in ["tm", "constant:1", "periodic:122", "12;periodic:21"]:
        a = AddressSequence.parse(text)
        assert AddressSequence.parse(a.describe().replace("thue_morse(0,1)", "tm")) == a
    with pytest.raises(BadAddressEntry):
        AddressSequence.parse("bogus")


# ---------------------------------------------------------------------------
# k-ary tree windows


def ball_size_tree(k, h):
    # |B(u, h)| in the infinite k-ary tree with an upward parent chain:
    # every element has k + 1 neighbors, no cycles.
    size = 1
    sphere = k + 1
    for _ in range(h):
        size += sphere
        sphere *= k
    return size


@pytest.mark.parametrize("k", [2, 3])
def test_tree_ball_sizes(k):
    halo = 5
    M = gen_kary_tree(k, AddressSequence.thue_morse(1, 2), depth=9, halo=halo)
    assert M.depth("c0") == halo
    for h in range(halo + 1):
        assert len(M.ball("c0", h)) == ball_size_tree(k, h)


def test_tree_is_functional_forest():
    k = 2
    M = gen_kary_tree(k, AddressSequence.periodic((1, 2, 2)), depth=8, halo=4)
    out = {e: {i: 0 for i in range(1, k + 1)} for e in M.elements}
    inc = {e: 0 for e in M.elements}
    for i in range(1, k + 1):
        for parent, child in M.tuples_of(f"P{i}"):
            out[parent][i] += 1
            inc[child] += 1
    for e in M.elements:
        if M.depth(e) >= 1:
            assert inc[e] == 1  # exactly one parent
            assert all(out[e][i] == 1 for i in out[e])  # one child per label
        else:
            assert inc[e] <= 1
            assert all(out[e][i] <= 1 for i in out[e])


def test_tree_chain_follows_address():
    addr = AddressSequence.periodic((1, 2, 2))
    depth = 7
    M = gen_kary_tree(2, addr, depth=depth, halo=3)
    for j in range(depth):
        label = addr.entry(j)
        assert M.has_tuple(f"P{label}", (f"c{j + 1}", f"c{j}"))
        other = 3 - label
        assert not M.has_tuple(f"P{other}", (f"c{j + 1}", f"c{j}"))


# sha256 prefixes of repr(content_key()) from before tree ids were built
# incrementally: (k, address, depth, halo) -> digest.
TREE_DIGESTS = {
    (2, "periodic:122", 8, 3): "4b1e827ad2468765",
    (2, "tm12", 16, 14): "3081768a90d35cf8",
    (3, "periodic:132", 7, 4): "7ee938b6e5879a25",
    (3, "2;tm12", 9, 3): "1748038a20be97e4",
}


def content_digest(M):
    return hashlib.sha256(repr(M.content_key()).encode()).hexdigest()[:16]


def test_tree_ids_are_pinned():
    got = {}
    for k, address, depth, halo in TREE_DIGESTS:
        M = gen_kary_tree(k, AddressSequence.parse(address), depth, halo=halo)
        got[k, address, depth, halo] = content_digest(M)
    assert got == TREE_DIGESTS


def test_tree_rejects_bad_address():
    with pytest.raises(BadAddressEntry):
        gen_kary_tree(2, AddressSequence.constant(3), depth=4, halo=3)
    with pytest.raises(BadAddressEntry):
        gen_kary_tree(2, AddressSequence.explicit((1, 2)), depth=5, halo=3)


# ---------------------------------------------------------------------------
# Binary tiling patches


def hyperbolic_maps(M):
    parent, right = {}, {}
    children = {e: [] for e in M.elements}
    for x, p in M.tuples_of("Above"):
        parent[x] = p
        children[p].append(x)
    for x, y in M.tuples_of("Right"):
        right[x] = y
    return parent, right, children


def test_hyperbolic_local_grammar():
    M = gen_binary_hyperbolic(AddressSequence.thue_morse(), levels=8,
                              half_width=32, support_radius=4)
    parent, right, children = hyperbolic_maps(M)
    interior = [e for e in M.elements if M.depth(e) >= 1]
    for e in interior:
        assert len(children[e]) == 2  # every tile splits in two below
    # the defining grammar: the right neighbor's parent is the same tile
    # (left child) or the parent's right neighbor (right child)
    for e in interior:
        p, r = parent[e], right[e]
        assert parent[r] in (p, right.get(p))
        assert len({parent[c] for c in children[e]}) == 1


def test_hyperbolic_chain_matches_address():
    addr = AddressSequence.periodic((0, 1, 1))
    levels = 6
    M = gen_binary_hyperbolic(addr, levels=levels, half_width=16, support_radius=4)
    for n in range(1, levels + 1):
        lower, upper = f"L{n - 1}o0", f"L{n}o0"
        assert M.has_tuple("Above", (lower, upper))
        # a_n == 0 puts the chain tile in the left slot, so its right
        # sibling shares the parent
        sibling_shares = M.has_tuple("Above", (f"L{n - 1}o1", upper))
        assert sibling_shares == (addr.entry(n - 1) == 0)


def test_hyperbolic_interior_ball_is_six():
    M = gen_binary_hyperbolic(AddressSequence.constant(0), levels=6,
                              half_width=16, support_radius=4)
    bound, witness = M.local_finiteness_witness()
    assert bound == 6  # parent, two children, left and right neighbors
    assert witness is not None


def test_hyperbolic_anchor_depth_supports_search():
    M = gen_binary_hyperbolic(AddressSequence.thue_morse(), levels=10,
                              half_width=64, support_radius=5)
    assert M.depth("L0o0") >= 5


# ---------------------------------------------------------------------------
# Free-group Cayley balls


def cayley_ball_size(k, R):
    size, sphere = 1, 2 * k
    for _ in range(R):
        size += sphere
        sphere *= 2 * k - 1
    return size


@pytest.mark.parametrize("k,R", [(1, 4), (2, 3), (3, 2)])
def test_cayley_sizes_and_tree_shape(k, R):
    M = gen_cayley_free(k, R)
    assert len(M) == cayley_ball_size(k, R)
    assert M.depth("0") == R
    assert M.is_connected()
    # a tree: Gaifman edge count is one less than the element count
    edges = sum(len(vs) for vs in M.adjacency().values()) // 2
    assert edges == len(M) - 1


def test_cayley_edges_are_functional():
    M = gen_cayley_free(2, 3)
    for sym in ("R1", "R2"):
        src = [a for a, _ in M.tuples_of(sym)]
        dst = [b for _, b in M.tuples_of(sym)]
        assert len(src) == len(set(src))
        assert len(dst) == len(set(dst))
    # interior elements carry all four incident edges
    for e in M.elements:
        if M.depth(e) >= 1:
            assert len(M.incident(e)) == 4


# ---------------------------------------------------------------------------
# Grids, tori, colorings


def test_torus_is_closed_and_regular():
    M = gen_grid((4, 3), mode="torus")
    assert M.is_closed()
    assert len(M) == 12
    assert M.has_tuple("E1", ("3_0", "0_0"))  # wraparound
    assert M.has_tuple("E2", ("0_2", "0_0"))
    for sym in ("E1", "E2"):
        src = [a for a, _ in M.tuples_of(sym)]
        assert sorted(src) == list(M.elements)


def test_window_frontier_is_boundary_shell():
    M = gen_grid((2, 2), mode="window")
    assert len(M) == 25
    assert len(M.frontier) == 16
    assert M.depth("0_0") == 2


def test_one_dimensional_grid_uses_succ():
    M = gen_grid((5,), mode="window")
    assert M.has_tuple("Succ", ("0", "1"))
    assert M.has_tuple("Succ", ("-5", "-4"))


def test_checkerboard_parity():
    periods, cmap = checkerboard_colormap()
    M = gen_grid((4, 4), mode="torus", periods=periods, colormap=cmap)
    for x in range(4):
        for y in range(4):
            want = ("Black",) if (x + y) % 2 else ("White",)
            got = M.unary_profile(f"{x}_{y}")
            names = M.language.unary_symbols
            assert tuple(n for n, f in zip(names, got) if f) == want


def test_colormap_phase_shifts_colors():
    periods, cmap = checkerboard_colormap()
    plain = gen_grid((4, 4), mode="torus", periods=periods, colormap=cmap)
    moved = gen_grid((4, 4), mode="torus", periods=periods, colormap=cmap,
                     phase=(1, 0))
    assert plain.unary_profile("0_0") != moved.unary_profile("0_0")
    assert plain.unary_profile("1_0") == moved.unary_profile("0_0")


def test_grid_rejects_bad_arguments():
    with pytest.raises(InvariantViolation):
        gen_grid((), mode="window")
    with pytest.raises(InvariantViolation):
        gen_grid((3,), mode="klein")
    with pytest.raises(InvariantViolation):
        gen_grid((3, 3), colormap={(0, 0): "C"})  # missing periods


def test_grid_rejects_a_phase_of_the_wrong_length():
    periods, cmap = checkerboard_colormap()
    for phase in ((1,), (1, 2, 3)):
        with pytest.raises(InvariantViolation) as exc:
            gen_grid((3, 3), periods=periods, colormap=cmap, phase=phase)
        assert exc.value.invariant == "phase"
        assert exc.value.detail == f"phase of length {len(phase)} for 2 dimensions"


# ---------------------------------------------------------------------------
# Pinned content of every family


def _checkerboard(dims, mode="window", phase=None):
    periods, cmap = checkerboard_colormap(len(dims))
    return gen_grid(dims, mode=mode, periods=periods, colormap=cmap, phase=phase)


def _tiling(address, levels, half_width, support_radius):
    return gen_binary_hyperbolic(AddressSequence.parse(address), levels, half_width,
                                 support_radius)


# sha256 prefixes of repr(content_key()) from before generators built their
# tuples by index arithmetic: label -> (builder, digest). The 40/64 tilings
# are the benchmark's; the 3/2/5 ones have support_radius > half_width.
FAMILY_DIGESTS = {
    "tiling tm 40/64/10": (lambda: _tiling("tm", 40, 64, 10), "c7dafcdbba5a1c01"),
    "tiling tm 6/8/3": (lambda: _tiling("tm", 6, 8, 3), "dfd12843e0badef8"),
    "tiling tm 3/2/5": (lambda: _tiling("tm", 3, 2, 5), "525d614f764e2c9d"),
    "tiling periodic:01 40/64/10": (lambda: _tiling("periodic:01", 40, 64, 10), "42334dc136f8b474"),
    "tiling periodic:01 6/8/3": (lambda: _tiling("periodic:01", 6, 8, 3), "35028da4992caa3b"),
    "tiling periodic:01 3/2/5": (lambda: _tiling("periodic:01", 3, 2, 5), "246a085b3a21f466"),
    "tiling constant:0 40/64/10": (lambda: _tiling("constant:0", 40, 64, 10), "7f8b4d2028a71592"),
    "tiling constant:0 6/8/3": (lambda: _tiling("constant:0", 6, 8, 3), "5592900cbf6be53a"),
    "tiling constant:0 3/2/5": (lambda: _tiling("constant:0", 3, 2, 5), "c6e3878bf59a0fe1"),
    "cayley k=1 r=5": (lambda: gen_cayley_free(1, 5), "665fe31e0f964eac"),
    "cayley k=2 r=4": (lambda: gen_cayley_free(2, 4), "bcff159d661bc017"),
    "cayley k=3 r=3": (lambda: gen_cayley_free(3, 3), "21b17bd59836c9ea"),
    "grid window 3,3": (lambda: gen_grid((3, 3)), "31da43abf48dbb9f"),
    "grid torus 4,4": (lambda: gen_grid((4, 4), mode="torus"), "aeba240af87bb9d5"),
    "grid window 5 (Succ)": (lambda: gen_grid((5,)), "82879fe5231b04c1"),
    "grid torus 6 (Succ)": (lambda: gen_grid((6,), mode="torus"), "c17108d2b7cf097b"),
    "grid torus 1,3": (lambda: gen_grid((1, 3), mode="torus"), "a888a28ca5451bab"),
    "checkerboard window 3,4 phase 1,0": (
        lambda: _checkerboard((3, 4), phase=(1, 0)), "4fe1c3805c97ae90"),
    "checkerboard torus 4,4": (lambda: _checkerboard((4, 4), mode="torus"), "c158ed6f52537d87"),
    "sturmian sqrt2 s=0": (
        lambda: gen_sturmian(QuadraticIrrational.sqrt(2), 0, 20), "bc034ca770244e69"),
    "sturmian sqrt2 s=1/3": (
        lambda: gen_sturmian(QuadraticIrrational.sqrt(2), Fraction(1, 3), 20), "0b22f5cbdda55add"),
}


def test_family_content_is_pinned():
    got = {label: content_digest(build()) for label, (build, _) in FAMILY_DIGESTS.items()}
    assert got == {label: digest for label, (_, digest) in FAMILY_DIGESTS.items()}


@st.composite
def tiling_params(draw):
    levels = draw(st.integers(1, 6))
    bits = draw(st.lists(st.integers(0, 1), min_size=levels, max_size=levels))
    return (AddressSequence.explicit(bits), levels, draw(st.integers(1, 9)),
            draw(st.integers(1, 4)))


@st.composite
def tree_params(draw):
    k, depth = draw(st.integers(2, 4)), draw(st.integers(1, 8))
    address = draw(st.lists(st.integers(1, k), min_size=depth, max_size=depth))
    return k, AddressSequence.explicit(address), depth, draw(st.integers(1, 6))


@given(tiling_params())
@settings(max_examples=150, deadline=None)
def test_tiling_matches_set_based_reference(params):
    assert (gen_binary_hyperbolic(*params).content_key()
            == reference_gen_binary_hyperbolic(*params).content_key())


@given(tree_params())
@settings(max_examples=150, deadline=None)
def test_tree_matches_set_based_reference(params):
    k, address, depth, halo = params
    assert (gen_kary_tree(k, address, depth, halo=halo).content_key()
            == reference_gen_kary_tree(k, address, depth, halo=halo).content_key())


def test_rejected_symbol_lists_raise_the_named_error():
    language = Language([("P", 2)])
    with pytest.raises(DanglingElement):
        Structure._from_symbol_lists(language, ["a", "b"], {"P": [("a", "c")]}, ())
    with pytest.raises(ArityMismatch):
        Structure._from_symbol_lists(language, ["a", "b"], {"P": [("a",)]}, ())
    M = Structure._from_symbol_lists(language, ["a", "b"], {"P": [("a", "b")]}, ("b",))
    assert M.tuples_of("P") == (("a", "b"),) and M.frontier == {"b"}
