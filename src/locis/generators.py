"""Window generators for the example families.

All coloring decisions in gen_sturmian run on exact integer arithmetic: the
half-open interval convention decides boundary cases, and those boundary
cases are exactly what separates the symmetric parameter cosets from the
asymmetric ones. No floats anywhere.

Every generator names each element once and lists each symbol's tuples by
index arithmetic over those names, then returns through
Structure._from_symbol_lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .core import Language, Structure
from .errors import (
    BadAddressEntry,
    InvariantViolation,
    RationalSlope,
)


def _is_square(n):
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def _sign_quad(P, Q, D):
    """Sign of P + Q*sqrt(D), exact."""
    if Q == 0:
        return (P > 0) - (P < 0)
    if P == 0:
        return (Q > 0) - (Q < 0)
    if P > 0 and Q > 0:
        return 1
    if P < 0 and Q < 0:
        return -1
    # Opposite signs: compare P^2 against Q^2 * D.
    lhs, rhs = P * P, Q * Q * D
    if lhs == rhs:
        return 0
    if P > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def _floor_quad(P, Q, D, U):
    """floor((P + Q*sqrt(D)) / U) for U > 0, exact."""
    assert U > 0
    approx = P + (isqrt(Q * Q * D) if Q >= 0 else -isqrt(Q * Q * D) - 1)
    n = approx // U
    # approx is within 1 of the true numerator, so at most two corrections.
    while _sign_quad(P - (n + 1) * U, Q, D) >= 0:
        n += 1
    while _sign_quad(P - n * U, Q, D) < 0:
        n -= 1
    return n


class QuadraticIrrational:
    """Exact value (p + q*sqrt(D)) / u with integer p, q, u and D >= 0.

    Rational values are normalized to q = 0, D = 0. Square D folds into p.
    Comparisons and floors reduce to integer sign tests.
    """

    __slots__ = ("p", "q", "u", "D")

    def __init__(self, p, q, u, D):
        if u == 0:
            raise InvariantViolation("denominator", "u must be nonzero")
        if D < 0:
            raise InvariantViolation("radicand", "D must be nonnegative")
        if q != 0 and _is_square(D):
            p, q, D = p + q * isqrt(D), 0, 0
        if q == 0:
            D = 0
        if u < 0:
            p, q, u = -p, -q, -u
        g = gcd(gcd(abs(p), abs(q)), u)
        if g > 1:
            p, q, u = p // g, q // g, u // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "D", D)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticIrrational is immutable")

    @classmethod
    def sqrt(cls, D):
        return cls(0, 1, 1, D)

    @classmethod
    def from_rational(cls, value):
        f = Fraction(value)
        return cls(f.numerator, 0, f.denominator, 0)

    @classmethod
    def coerce(cls, value, D=None):
        if isinstance(value, cls):
            x = value
        else:
            x = cls.from_rational(value)
        if D is not None and x.q == 0 and D != 0:
            return cls(x.p, 0, x.u, 0)
        return x

    @property
    def is_rational(self):
        return self.q == 0

    def _common(self, other):
        other = QuadraticIrrational.coerce(other)
        if self.q != 0 and other.q != 0 and self.D != other.D:
            raise InvariantViolation("radicand", f"mixed radicands {self.D} and {other.D}")
        D = self.D if self.q != 0 else other.D
        return other, D

    def __add__(self, other):
        other, D = self._common(other)
        return QuadraticIrrational(
            self.p * other.u + other.p * self.u,
            self.q * other.u + other.q * self.u,
            self.u * other.u,
            D,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticIrrational(-self.p, -self.q, self.u, self.D)

    def __sub__(self, other):
        return self + (-QuadraticIrrational.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other, D = self._common(other)
        return QuadraticIrrational(
            self.p * other.p + self.q * other.q * D,
            self.p * other.q + self.q * other.p,
            self.u * other.u,
            D,
        )

    __rmul__ = __mul__

    def sign(self):
        return _sign_quad(self.p, self.q, self.D)

    def __floor__(self):
        return _floor_quad(self.p, self.q, self.D, self.u)

    def floor(self):
        return self.__floor__()

    def is_integer(self):
        return self.q == 0 and self.u == 1

    def _cmp(self, other):
        return (self - other).sign()

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.p, self.q, self.u, self.D))

    def __float__(self):
        return (self.p + self.q * (self.D ** 0.5)) / self.u

    def __str__(self):
        return f"({self.p}+{self.q}*sqrt({self.D}))/{self.u}"

    __repr__ = __str__

    @classmethod
    def parse(cls, text):
        """Parse '(p+q*sqrt(D))/u' or a plain rational like '1/3' or '2'."""
        import re

        text = text.strip().replace(" ", "")
        m = re.fullmatch(r"\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(-?\d+)", text)
        if m:
            return cls(int(m.group(1)), int(m.group(2)), int(m.group(4)), int(m.group(3)))
        m = re.fullmatch(r"(-?\d+)(/(-?\d+))?", text)
        if m:
            return cls(int(m.group(1)), 0, int(m.group(3) or 1), 0)
        raise InvariantViolation("literal", f"cannot parse quadratic literal {text!r}")


@dataclass(frozen=True)
class AddressSequence:
    """Finite description of an infinite symbol sequence.

    prefix holds the first entries explicitly; past it the tail rule applies.
    tail kinds: ('constant', c), ('periodic', word), ('explicit',) for a
    purely finite sequence, ('thue_morse', lo, hi) for the built-in aperiodic
    sequence over a two-letter alphabet.
    """

    prefix: tuple = ()
    tail: tuple = ("explicit",)

    def entry(self, n):
        if n < 0:
            raise BadAddressEntry(n, "negative index")
        if n < len(self.prefix):
            return self.prefix[n]
        m = n - len(self.prefix)
        kind = self.tail[0]
        if kind == "constant":
            return self.tail[1]
        if kind == "periodic":
            word = self.tail[1]
            return word[m % len(word)]
        if kind == "thue_morse":
            lo, hi = self.tail[1], self.tail[2]
            return hi if bin(m).count("1") % 2 else lo
        raise BadAddressEntry(n, "sequence is finite")

    @classmethod
    def constant(cls, c, prefix=()):
        return cls(tuple(prefix), ("constant", c))

    @classmethod
    def periodic(cls, word, prefix=()):
        word = tuple(word)
        if not word:
            raise BadAddressEntry(0, "empty period")
        return cls(tuple(prefix), ("periodic", word))

    @classmethod
    def explicit(cls, entries):
        return cls(tuple(entries), ("explicit",))

    @classmethod
    def thue_morse(cls, lo=0, hi=1, prefix=()):
        return cls(tuple(prefix), ("thue_morse", lo, hi))

    @classmethod
    def parse(cls, text):
        """Parse CLI syntax: 'tm', 'constant:1', 'periodic:122',
        'explicit:0110', optionally '<digits>;<tail>' for a prefix."""
        prefix = ()
        if ";" in text:
            head, text = text.split(";", 1)
            prefix = tuple(int(ch) for ch in head)
        if text in ("tm", "thue_morse", "thue-morse"):
            return cls.thue_morse(prefix=prefix)
        if text in ("tm12",):
            return cls.thue_morse(1, 2, prefix=prefix)
        if ":" in text:
            kind, data = text.split(":", 1)
            if kind == "constant":
                return cls.constant(int(data), prefix=prefix)
            if kind == "periodic":
                return cls.periodic(tuple(int(ch) for ch in data), prefix=prefix)
            if kind == "explicit":
                return cls.explicit(tuple(prefix) + tuple(int(ch) for ch in data))
        raise BadAddressEntry(0, f"cannot parse address {text!r}")

    def describe(self):
        head = "".join(str(e) for e in self.prefix)
        kind = self.tail[0]
        if kind == "constant":
            body = f"constant:{self.tail[1]}"
        elif kind == "periodic":
            body = "periodic:" + "".join(str(e) for e in self.tail[1])
        elif kind == "thue_morse":
            body = f"thue_morse({self.tail[1]},{self.tail[2]})"
        else:
            body = "explicit"
        return f"{head};{body}" if head else body


# ---------------------------------------------------------------------------
# Example 1: Sturmian-type two-colorings of Z.


def _count_column(a, rp, rq, ru, sp, sq, su, D, increasing):
    """Number of b with the unit box at (a, b) meeting the line y = r*x + s.

    For increasing lines the y-range over the half-open column is half-open
    at the top, giving strict bounds on both sides; for decreasing lines the
    openness flips to the lower end.
    """
    # Endpoints over the common denominator 2*ru*su. For increasing lines
    # L = r*(a-1/2) + s - 1/2 and U = r*(a+1/2) + s + 1/2; for decreasing
    # lines the line enters the column high at its closed left edge, so the
    # roles of the edges swap: L = r*(a+1/2) + s - 1/2, U = r*(a-1/2) + s + 1/2.
    den = 2 * ru * su
    left, right = 2 * a - 1, 2 * a + 1
    lo_edge, hi_edge = (left, right) if increasing else (right, left)
    lo_p = rp * lo_edge * su + (2 * sp - su) * ru
    lo_q = rq * lo_edge * su + 2 * sq * ru
    hi_p = rp * hi_edge * su + (2 * sp + su) * ru
    hi_q = rq * hi_edge * su + 2 * sq * ru
    if increasing:
        # Count integers b with L < b < U (strict on both sides).
        hi_floor = _floor_quad(hi_p, hi_q, D, den)
        if hi_q == 0 and hi_p == hi_floor * den:
            hi_floor -= 1  # greatest integer strictly below U
        lo_floor = _floor_quad(lo_p, lo_q, D, den)
        return hi_floor - lo_floor
    # Decreasing: the y-range is half-open at the bottom, so count L < b <= U.
    return _floor_quad(hi_p, hi_q, D, den) - _floor_quad(lo_p, lo_q, D, den)


def sturmian_colors(r, s, lo, hi):
    """Exact color flags for columns lo..hi: 1 = Black (n+2 points)."""
    r = QuadraticIrrational.coerce(r)
    if r.is_rational:
        raise RationalSlope(r)
    s = QuadraticIrrational.coerce(s, r.D)
    if not s.is_rational and s.D != r.D:
        raise InvariantViolation("radicand", "s must live over the same radicand as r")
    D = r.D
    increasing = r.sign() > 0
    n = (r if increasing else -r).floor()  # integral part of |r|
    flags = []
    for a in range(lo, hi + 1):
        c = _count_column(a, r.p, r.q, r.u, s.p, s.q, s.u, D, increasing)
        if c == n + 1:
            flags.append(0)
        elif c == n + 2:
            flags.append(1)
        else:
            raise InvariantViolation(
                "column-count", f"column {a} meets {c} boxes, expected {n + 1} or {n + 2}"
            )
    return flags


def gen_sturmian(r, s, half_width):
    """Two-colored Z window: Succ edges plus White/Black column colors."""
    W = int(half_width)
    if W < 1:
        raise InvariantViolation("half-width", "half_width must be >= 1")
    flags = sturmian_colors(r, s, -W, W)
    language = Language([("Succ", 2), ("White", 1), ("Black", 1)])
    ids = [str(a) for a in range(-W, W + 1)]
    lists = {
        "Succ": list(zip(ids, ids[1:])),
        "White": [(e,) for e, f in zip(ids, flags) if not f],
        "Black": [(e,) for e, f in zip(ids, flags) if f],
    }
    return Structure._from_symbol_lists(language, ids, lists, (ids[0], ids[-1]))


# ---------------------------------------------------------------------------
# Example 4: k-ary functional trees with an upward address.


def gen_kary_tree(k, address, depth, halo=14):
    """Window of the k-ary tree: ancestor chain following the address plus a
    complete ball region around the anchor.

    The window contains the anchor's ancestors c0..c<depth> and every tree
    node within distance halo of the anchor. Tuples P_i(parent, child) mark
    the i-th child edge. Below chain node c<j> hang the off-chain subtrees of
    height halo - j whose first label is not the chain's own (addr[j-1]),
    named c<j>.<i>, then c<j>.<i>-<i'>-... A node is frontier iff its
    parent or one of its k children is missing, which happens exactly for
    c<depth>, for a chain node c<j> with halo - j < 1, and for an off-chain
    node below c<j> at word length halo - j.
    """
    k = int(k)
    if k < 2:
        raise InvariantViolation("branching", "k must be >= 2")
    depth = int(depth)
    halo = int(halo)
    if depth < 1 or halo < 1:
        raise InvariantViolation("extent", "depth and halo must be >= 1")

    addr = []
    for m in range(depth):
        e = address.entry(m)
        if not isinstance(e, int) or not (1 <= e <= k):
            raise BadAddressEntry(m, e)
        addr.append(e)

    chain = [f"c{j}" for j in range(depth + 1)]
    lists = {f"P{i}": [] for i in range(1, k + 1)}
    for j, label in enumerate(addr):
        lists[f"P{label}"].append((chain[j + 1], chain[j]))
    elements = list(chain)
    frontier = chain[min(halo, depth):]
    # Each off-chain subtree is named level by level: every parent of one
    # level gets its child under label i in one pass per label.
    for j in range(min(halo, depth + 1)):
        layer, sep = [chain[j]], "."
        labels = [i for i in range(1, k + 1) if j == 0 or i != addr[j - 1]]
        for _ in range(halo - j):
            nxt = []
            for i in labels:
                kids = [f"{p}{sep}{i}" for p in layer]
                lists[f"P{i}"].extend(zip(layer, kids))
                nxt.extend(kids)
            elements.extend(nxt)
            layer, sep, labels = nxt, "-", range(1, k + 1)
        frontier.extend(layer)
    language = Language([(f"P{i}", 2) for i in range(1, k + 1)])
    return Structure._from_symbol_lists(language, elements, lists, frontier)


# ---------------------------------------------------------------------------
# Example 3: combinatorial patches of the half-plane binary tiling.


def gen_binary_hyperbolic(address, levels, half_width, support_radius=10):
    """Patch of the binary tiling around an anchor column.

    Tiles are (level, offset) with the anchor chain at offset 0 on levels
    0..levels. a_n = address.entry(n-1) for n >= 1; a_n = 0 below the anchor
    level (pure labeling convention for the complete binary cone below).

    Orientation convention: a_n = 0 means the chain's level-(n-1) tile is the
    LEFT child of its level-n tile. Children of (n, m) are
    (n-1, 2m - a_n) and (n-1, 2m - a_n + 1); Above points at the parent,
    Right at the same-level successor.

    The window spans levels -support_radius..levels. Strips cover the
    horizontal extent of half_width anchor-level tiles, never narrower than
    support_radius tiles, so symmetry searches have a usable interior along
    the whole chain.

    Each level n is one row of offsets lo_n..hi_n: -w..w with
    w = max(half_width >> n, support_radius) + 2 for n >= 0, and
    -(R+1)*2^j..(R+2)*2^j for n = -j with R = support_radius. So every
    neighbour test is a range test: (n, m) has its parent
    (n+1, (m + a_{n+1}) // 2) iff that offset lies in row n+1, both children
    iff 2m - a_n and 2m - a_n + 1 lie in row n-1, and its left and right
    neighbours iff m > lo_n and m < hi_n. A tile is frontier iff one of
    them is missing; the top row has no parent and the bottom row no
    children.
    """
    levels = int(levels)
    W = int(half_width)
    R = int(support_radius)
    if levels < 1 or W < 1 or R < 1:
        raise InvariantViolation("extent", "levels, half_width, support_radius must be >= 1")

    a = [0] * (R + 1)  # a[n + R] = a_n
    for n in range(1, levels + 1):
        e = address.entry(n - 1)
        if e not in (0, 1):
            raise BadAddressEntry(n - 1, e)
        a.append(e)

    lows = [-(R + 1) << j for j in range(R, 0, -1)]
    highs = [(R + 2) << j for j in range(R, 0, -1)]
    for n in range(levels + 1):
        w = max(W >> n, R) + 2
        lows.append(-w)
        highs.append(w)
    rows = [[f"L{n}o{m}" for m in range(lo, hi + 1)]
            for n, lo, hi in zip(range(-R, levels + 1), lows, highs)]

    above, right, frontier = [], [], []
    for i, row in enumerate(rows):
        lo, hi = lows[i], highs[i]
        right.extend(zip(row, row[1:]))
        if i + 1 < len(rows):
            an1, up, up_lo = a[i + 1], rows[i + 1], lows[i + 1]
            p0, p1 = max(lo, 2 * up_lo - an1), min(hi, 2 * highs[i + 1] + 1 - an1)
            above.extend((row[m - lo], up[(m + an1) // 2 - up_lo]) for m in range(p0, p1 + 1))
        if i == 0 or i + 1 == len(rows):
            frontier.extend(row)  # the bottom row has no children, the top row no parent
            continue
        # Offsets first..last have both row neighbours, the parent and both children.
        first = max(lo + 1, p0, -((-lows[i - 1] - a[i]) // 2))
        last = max(first - 1, min(hi - 1, p1, (highs[i - 1] - 1 + a[i]) // 2))
        frontier += row[: first - lo] + row[last + 1 - lo :]
    elements = [e for row in rows for e in row]
    return Structure._from_symbol_lists(Language([("Above", 2), ("Right", 2)]), elements,
                                        {"Above": above, "Right": right}, frontier)


# ---------------------------------------------------------------------------
# Example 5: balls in the Cayley structure of a free group.


def gen_cayley_free(k, radius):
    """Ball of the free group F_k under R_i(y, y*x_i); frontier = boundary.

    The ball's Cayley graph is its tree of reduced words, so each R_i tuple
    is the edge from a word to the word that extends it by x_i, or from a
    word ending in x_i^-1 to the word it extends. Every neighbour of a word
    shorter than radius is in the ball, and all but one of a longest
    word's are not, so the frontier is the sphere of the radius.
    """
    k = int(k)
    R = int(radius)
    if k < 1 or R < 0:
        raise InvariantViolation("extent", "need k >= 1 and radius >= 0")
    if k > 26:
        raise InvariantViolation("branching", "k > 26 exceeds the id alphabet")

    # Words are named by their letters, x_i^-1 upper case; the identity is "0".
    letters = "abcdefghijklmnopqrstuvwxyz"
    steps = [(g, letters[g - 1]) for g in range(1, k + 1)]
    steps += [(-g, ch.upper()) for g, ch in steps]
    lists = {f"R{g}": [] for g in range(1, k + 1)}
    elements = ["0"]
    sphere = [("0", 0)]  # (id, last step) of each word of the current length
    for _ in range(R):
        nxt = []
        for u, last in sphere:
            stem = u if last else ""
            for g, ch in steps:
                if g == -last:
                    continue
                v = stem + ch
                nxt.append((v, g))
                lists[f"R{abs(g)}"].append((u, v) if g > 0 else (v, u))
        elements.extend(v for v, _ in nxt)
        sphere = nxt
    language = Language([(f"R{i}", 2) for i in range(1, k + 1)])
    return Structure._from_symbol_lists(language, elements, lists, [u for u, _ in sphere])


# ---------------------------------------------------------------------------
# Grids and tori (test fixture family).


def gen_grid(dims, mode="window", periods=None, colormap=None, phase=None):
    """Z^d window or closed torus with direction relations and unary colors.

    Window mode: coordinates range over [-n_i, n_i] per dimension, frontier
    is the boundary shell. Torus mode: coordinates over [0, n_i), closed.
    Coloring: colormap maps residue tuples (mod periods) to unary symbol
    names; phase shifts coordinates before the residue is taken, which moves
    the coloring relative to the window.
    """
    dims = tuple(int(n) for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise InvariantViolation("dims", "dims must be nonempty positive sizes")
    d = len(dims)
    torus = mode == "torus"
    if mode not in ("window", "torus"):
        raise InvariantViolation("mode", f"unknown grid mode {mode!r}")
    if colormap:
        if periods is None or len(periods) != d:
            raise InvariantViolation("coloring", "colormap requires matching periods")
        periods = tuple(int(p) for p in periods)
    phase = tuple(phase) if phase else (0,) * d
    if len(phase) != d:
        raise InvariantViolation("phase", f"phase of length {len(phase)} for {d} dimensions")

    if torus:
        ranges = [range(0, n) for n in dims]
    else:
        ranges = [range(-n, n + 1) for n in dims]
    coords = list(itertools.product(*ranges))
    ids = ["_".join(map(str, c)) for c in coords]

    rel_names = ["Succ"] if d == 1 else [f"E{i}" for i in range(1, d + 1)]
    color_names = sorted(set(colormap.values())) if colormap else []
    language = Language([(n, 2) for n in rel_names] + [(n, 1) for n in color_names])

    # Coordinates are in row-major order, so the successor along axis i of
    # the element at position p is at p + stride; on the torus the last
    # coordinate wraps to the first, (size - 1) strides back.
    lists = {name: [] for name in color_names}
    stride = len(coords)
    for i, r in enumerate(ranges):
        size = len(r)
        stride //= size
        last = r[-1]
        pairs = [(ids[p], ids[p + stride]) for p, c in enumerate(coords) if c[i] != last]
        if torus and size > 1:
            back = (size - 1) * stride
            pairs += [(ids[p], ids[p - back]) for p, c in enumerate(coords) if c[i] == last]
        lists[rel_names[i]] = pairs
    if colormap:
        for e, c in zip(ids, coords):
            color = colormap.get(tuple((c[i] + phase[i]) % periods[i] for i in range(d)))
            if color is not None:
                lists[color].append((e,))
    if torus:
        frontier = []
    else:
        frontier = [e for e, c in zip(ids, coords) if any(abs(x) == n for x, n in zip(c, dims))]
    return Structure._from_symbol_lists(language, ids, lists, frontier)


def checkerboard_colormap(d=2):
    """Parity coloring: Black on odd coordinate sum, White on even."""
    cmap = {}
    for residue in itertools.product((0, 1), repeat=d):
        cmap[residue] = "Black" if sum(residue) % 2 else "White"
    return (2,) * d, cmap
