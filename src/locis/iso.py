"""Pointed isomorphism search, canonical signatures, ball census, LIP and
extraction comparison.

The search engine works directly on parent windows: it grows BFS layers
around both centers in lockstep and backtracks over layer-respecting
assignments. Each element's candidates are drawn from a pivot tuple, one
whose other arguments are already mapped: only the elements that complete
its image are tried. Elements with no such tuple, the center among them,
try their whole layer. A pointed isomorphism at radius r restricts to one
at every r' < r, so candidates die monotonically; a death certified at a
faithful layer rules the candidate out at every larger radius. The engine
reports which of the three cases happened: iso found at the requested
radius, death at a certified layer, or window exhaustion with the candidate
still alive. A kill radius is tight: the balls are isomorphic at L-1 and not
at L.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import Counter
from dataclasses import dataclass

from .core import Structure
from .errors import (
    InvariantViolation,
    LanguageMismatch,
    NoFaithfulElements,
    VerificationFailed,
    WindowExhausted,
)


@dataclass
class PartialIso:
    """An injective map with a verified preservation certificate.

    reversed_target marks orientation-reversing maps: preservation is
    certified against the argument-reversed target.
    """

    source: Structure
    target: Structure
    mapping: dict
    anchor: str
    certified_radius: int
    reversed_target: bool = False

    def image_anchor(self):
        return self.mapping[self.anchor]

    def is_identity(self):
        return not self.reversed_target and all(k == v for k, v in self.mapping.items())

    def verify(self):
        """Re-check injectivity and two-way preservation on the domain.

        A reversed map is checked against the target's tuples read
        backwards, and a failing target tuple is named as read.
        """
        for u, v in self.mapping.items():
            if u not in self.source:
                raise VerificationFailed("domain", f"{u!r} is not an element of the source")
            if v not in self.target:
                raise VerificationFailed("image", f"{v!r} is not an element of the target")
        # the sets answer membership; scanning the mapping names a seed-independent failure
        dom = set(self.mapping)
        img = set(self.mapping.values())
        if len(img) != len(dom):
            raise VerificationFailed("injectivity", "mapping is not injective")
        step = -1 if self.reversed_target else 1
        inverse = {v: k for k, v in self.mapping.items()}
        for u in self.mapping:
            for sym, t in self.source.incident(u):
                if all(x in dom for x in t):
                    image = tuple(self.mapping[x] for x in t)
                    if not self.target.has_tuple(sym, image[::step]):
                        raise VerificationFailed("preservation", (sym, t))
        for v in inverse:
            for sym, t in self.target.incident(v):
                t = t[::step]
                if all(x in inverse for x in t):
                    pre = tuple(inverse[x] for x in t)
                    if not self.source.has_tuple(sym, pre):
                        raise VerificationFailed("reflection", (sym, t))
        return True

    def as_dict(self):
        return {
            "anchor": self.anchor,
            "image_anchor": self.image_anchor(),
            "certified_radius": self.certified_radius,
            "reversed": self.reversed_target,
            "mapping": dict(sorted(self.mapping.items())),
        }


@dataclass(frozen=True)
class BallSignature:
    code: bytes

    def __lt__(self, other):
        return self.code < other.code

    def hex(self):
        # digest, not a code prefix: codes share a long language header
        return hashlib.sha256(self.code).hexdigest()[:16]


@dataclass(frozen=True)
class CensusEntry:
    signature: BallSignature
    multiplicity: int
    representative: str


@dataclass
class CensusTable:
    radius: int
    entries: list
    censused: int

    def signature_set(self):
        return {e.signature for e in self.entries}

    def multiplicity_of(self, sig):
        for e in self.entries:
            if e.signature == sig:
                return e.multiplicity
        return 0

    def representative_of(self, sig):
        for e in self.entries:
            if e.signature == sig:
                return e.representative
        return None


@dataclass
class EngineResult:
    """Outcome of a layered pointed-isomorphism search.

    status 'iso': mapping realizes a pointed isomorphism at the requested
    radius. status 'dead': `radius` is the least dead radius: there is a
    pointed isomorphism at radius-1 and none at `radius` (certified on
    faithful layers; monotonicity kills every larger radius too).
    status 'exhausted': an isomorphism exists at `radius`, but the window
    cannot certify the requested radius; mapping witnesses the alive state.
    """

    status: str
    radius: int
    mapping: dict | None = None


def _grow_layers(M, center, limit):
    dist = M.distances((center,), limit)
    layers = [[] for _ in range(max(dist.values()) + 1)]
    for u, d in dist.items():
        layers[d].append(u)
    for layer in layers:
        layer.sort()
    return layers, dist


def _layer_summary(M, layer, dist, level):
    """Set-level invariants of one layer: profiles and finished tuples.

    A tuple is counted at the level where its farthest argument lives; it is
    attributed once, via its lexicographically least farthest argument.
    Neither count depends on argument order, so a reversed search compares
    the summaries of both windows as they are.
    """
    profiles = Counter(M.unary_profile(u) for u in layer)
    tuples = Counter()
    for u in layer:
        for sym, t in M.incident(u):
            farthest = None
            ok = True
            for x in t:
                dx = dist.get(x)
                if dx is None or dx > level:
                    ok = False
                    break
                if dx == level and (farthest is None or x < farthest):
                    farthest = x
            if ok and farthest == u:
                tuples[sym] += 1
    return profiles, tuples


def windowed_pointed_iso(M, a, N, b, target_radius, reverse=False):
    """Search for a pointed isomorphism (B_M(a,r),a) -> (B_N(b,r),b).

    Works on the parent windows without extracting balls. With reverse=True
    the map is orientation-reversing: it sends a tuple (x_1,...,x_k) of M
    onto the tuple of N that lists the images backwards. The search reverses
    u's tuples once, when it builds the checks below, and reads N as it is.
    """
    if M.language != N.language:
        raise LanguageMismatch(M.language, N.language)
    if target_radius < 0:
        raise InvariantViolation("radius", f"negative radius {target_radius}")
    depth_a = M.depth(a)
    depth_b = N.depth(b)
    certifiable = min(depth_a, depth_b, target_radius)
    if certifiable is math.inf:
        certifiable = target_radius
    certifiable = int(certifiable)

    layers_a, dist_a = _grow_layers(M, a, certifiable)
    layers_b, dist_b = _grow_layers(N, b, certifiable)

    # Set-level prechecks, layer by layer. A mismatch at a faithful layer L
    # certifies death at radius L; the DFS then runs through layer L-1 only,
    # so that the reported radius is the least dead one.
    top = max(len(layers_a), len(layers_b))
    mismatch = None
    for level in range(top):
        la = layers_a[level] if level < len(layers_a) else []
        lb = layers_b[level] if level < len(layers_b) else []
        if len(la) != len(lb) or (
            _layer_summary(M, la, dist_a, level) != _layer_summary(N, lb, dist_b, level)
        ):
            mismatch = level
            break
    if mismatch is not None:
        effective, stalled = mismatch - 1, False
    else:
        effective = min(certifiable, top - 1)
        # Balls that stopped growing inside the window: radius `effective`
        # already determines every larger radius.
        stalled = effective < certifiable and len(layers_a) - 1 <= effective

    order = [(u, level) for level in range(effective + 1) for u in layers_a[level]]
    n = len(order)

    # The order is static, so when the search reaches u, exactly the
    # elements before u are mapped. compatible() checks the tuples of u whose
    # other arguments all come earlier, and candidates come from the first of
    # them that has another argument, the pivot: the v worth trying complete
    # the pivot's image in N, found among the tuples of one mapped argument's
    # image. compatible() rejects every other v of the layer, so the search
    # visits the same nodes in the same order as a scan of the whole layer,
    # which positions without a pivot (the center among them) still use.
    # A reversed search stores each tuple backwards, so its image is read
    # from N as it is; the mapped-tuple count ignores argument order.
    step = -1 if reverse else 1
    position = {u: idx for idx, (u, _) in enumerate(order)}
    closing, pivots = [], []
    for idx, (u, _) in enumerate(order):
        mine = [
            (sym, t[::step])
            for sym, t in M.incident(u)
            if all(position.get(x, n) <= idx for x in t)
        ]
        closing.append(mine)
        pivot = None
        for sym, t in mine:
            others = [x for x in t if x != u]
            if others:
                pivot = (sym, others[0], tuple(None if x == u else x for x in t))
                break
        pivots.append(pivot)

    fwd = {}
    bwd = {}

    def candidates(idx):
        u, level = order[idx]
        pivot = pivots[idx]
        if pivot is None:
            return layers_b[level]
        sym, anchor, pattern = pivot
        found = set()
        for sym2, t in N.incident(fwd[anchor]):
            if sym2 != sym:
                continue
            v = None
            for x, y in zip(pattern, t):
                if x is None:
                    if v is None:
                        v = y
                    elif y != v:
                        break
                elif fwd[x] != y:
                    break
            else:
                if dist_b.get(v) == level and v not in bwd:
                    found.add(v)
        return sorted(found)

    def compatible(idx, v):
        u = order[idx][0]
        if M.unary_profile(u) != N.unary_profile(v):
            return False
        for sym, t in closing[idx]:
            if not N.has_tuple(sym, tuple(v if x == u else fwd[x] for x in t)):
                return False
        # fwd is injective, so the images of u's checked tuples are distinct
        # tuples of v among mapped elements; each of those has a preimage
        # exactly when there are no more of them than checked tuples.
        mapped = sum(all(x == v or x in bwd for x in t) for _, t in N.incident(v))
        return mapped == len(closing[idx])

    # Iterative DFS over layer-respecting assignments, in the static order
    # above; each position tries the candidates of its pivot tuple, or its
    # whole layer when it has none. best_complete tracks the deepest layer
    # fully assigned on any branch; finishing layer L certifies an
    # isomorphism at radius L, so an exhausted search is alive at
    # best_complete and dead at best_complete + 1: the kill radius is tight.
    best_complete = -1
    iters = [None] * n
    idx = 0
    if n:
        iters[0] = iter(candidates(0))
    while 0 <= idx < n:
        u, level = order[idx]
        for v in iters[idx]:
            if v not in bwd and compatible(idx, v):
                fwd[u] = v
                bwd[v] = u
                idx += 1
                if idx == n or order[idx][1] != level:
                    best_complete = max(best_complete, level)
                if idx < n:
                    iters[idx] = iter(candidates(idx))
                break
        else:
            idx -= 1
            if idx >= 0:
                del bwd[fwd.pop(order[idx][0])]

    if idx == n:
        if mismatch is not None:
            # Alive through layer mismatch-1, dead at the mismatch.
            return EngineResult("dead", mismatch)
        if stalled or effective >= target_radius:
            return EngineResult("iso", target_radius, fwd)
        return EngineResult("exhausted", effective, fwd)
    # DFS exhausted: no isomorphism at best_complete + 1, which is within the
    # faithful region by construction.
    return EngineResult("dead", best_complete + 1)


def pointed_iso(A, B):
    """Center-preserving isomorphism between two pointed balls, or None."""
    if A.structure.language != B.structure.language:
        raise LanguageMismatch(A.structure.language, B.structure.language)
    if len(A.structure) != len(B.structure):
        return None
    limit = max(len(A.structure), 1)
    res = windowed_pointed_iso(A.structure, A.center, B.structure, B.center, limit)
    if res.status == "dead":
        return None
    if res.status != "iso":
        raise InvariantViolation("closed-window", "ball search exhausted on closed windows")
    if len(res.mapping) != len(A.structure):
        raise InvariantViolation(
            "ball-connected", "pointed ball has elements unreachable from its center"
        )
    iso = PartialIso(
        source=A.structure,
        target=B.structure,
        mapping=res.mapping,
        anchor=A.center,
        certified_radius=A.radius,
    )
    iso.verify()
    return iso


# ---------------------------------------------------------------------------
# Canonical signatures.
#
# The search runs on an integer form of the ball: members are numbered
# 0..n-1 in the order a breadth-first read from the center first meets them,
# each member's incidences read in slot order, and inc[u] lists u's tuples
# as (slot, args), where args are member numbers and slot ranks the pair
# (symbol name, positions of u in the tuple). Entries (slot, *argument
# colors) therefore sort exactly as (symbol name, positions, argument colors)
# would. The code does not depend on the numbering, so class_ids computes
# one code per distinct form: on windows of finite local complexity balls
# repeat, and slot order gives translated rigid balls identical forms.


class _Index:
    """Integer incidence index of a window, by position in M.elements.

    Each element's entries list its tuples once each as (slot, args), args
    in element positions, sorted. slots[s] is the (symbol index, arity,
    unary bit) of slot s. Slots rank the pairs (symbol name, positions of the
    element) over all of M, so they also order the pairs of any ball of M.
    Unary symbols get bits with the first declared one most significant, so
    profile bitmasks order as the 0/1 flag tuples of Structure.unary_profile
    do. template[i] spells element i's entries as one list, slot s as the
    marker n + s, one int shared by every template, and counts[i] is the
    number of entries. label, one reusable list over positions and markers,
    maps member positions to member numbers (-1 outside the current ball)
    and n + s to s, so one map over a template yields a member's words.
    """

    __slots__ = ("language", "slots", "template", "counts", "label", "typecode")

    def __init__(self, M):
        self.language = M.language
        pos = M._positions()
        keyed = [[] for _ in M.elements]
        for name, _ in M.language.symbols:
            for t in M.tuples_by_symbol[name]:
                args = tuple([pos[x] for x in t])
                for x in set(args):
                    key = (name, tuple([i for i, y in enumerate(args) if y == x]))
                    keyed[x].append((key, args))
        keys = sorted({key for ks in keyed for key, _ in ks})
        unary = M.language.unary_symbols
        sym = {name: i for i, (name, _) in enumerate(M.language.symbols)}
        self.slots = [
            (
                sym[name],
                M.language.arities[name],
                1 << (len(unary) - 1 - unary.index(name)) if name in unary else 0,
            )
            for name, _ in keys
        ]
        n = len(M.elements)
        marker = {key: n + s for s, key in enumerate(keys)}
        for ks in keyed:
            ks.sort()  # keys sort as their slots do
        self.template = [[x for key, args in ks for x in (marker[key], *args)] for ks in keyed]
        self.counts = list(map(len, keyed))
        self.label = [-1] * n + list(range(len(keys)))
        # memo keys pack words into the narrowest array that holds them all
        bound = max(n, len(keys), max(self.counts, default=0))
        self.typecode = "H" if bound < 1 << 16 else "I"

    def words(self, center, h):
        """Flat integer encoding of the h-ball around position `center`.

        Members are numbered in slot-ordered discovery: breadth-first from
        the center, reading each member's entries in order and numbering
        every argument when first met (markers carry labels >= 0, so the
        scan passes over them). Distances are Gaifman distances, since the
        entries hold the co-occurrences the Gaifman index does. The words
        list, member by member, its distance, its entry count, then per entry
        the slot and the member numbers; a slot fixes its arity, so the words
        determine the ball's form exactly. Members at distance h keep only
        the tuples inside the ball. Returns (words, number of members).
        """
        template, counts, label, slots = self.template, self.counts, self.label, self.slots
        get = label.__getitem__
        label[center] = 0
        members = [center]
        m = 1
        words = []
        lo, d = 0, 0
        while d < h and lo < m:
            hi = m
            for u in members[lo:hi]:
                block = template[u]
                for x in block:
                    if label[x] < 0:
                        label[x] = m
                        m += 1
                        members.append(x)
                words += (d, counts[u])
                words += map(get, block)
            lo, d = hi, d + 1
        # members at distance h keep the entries with every argument inside
        for u in members[lo:]:
            block = list(map(get, template[u]))
            if -1 not in block:
                words += (d, counts[u])
                words += block
                continue
            kept, count, j = [], 0, 0
            while j < len(block):
                part = block[j : j + 1 + slots[block[j]][1]]
                j += len(part)
                if -1 not in part:
                    kept += part
                    count += 1
            words += (d, count)
            words += kept
        for x in members:
            label[x] = -1
        return words, m

    def key(self, words):
        """Exact memo key of the form that words encode."""
        return array(self.typecode, words).tobytes()

    def signature(self, words):
        """The canonical signature of the ball that words encode."""
        return BallSignature(_canonical_code(self.language, *self.form(words)))

    def form(self, words):
        """(init, inc, rows) of the ball encoded by words.

        init ranks the members' (distance, unary profile) pairs, inc lists
        each member's (slot, args) entries, and rows lists each symbol's
        tuples, attributed to their first argument.
        """
        slots = self.slots
        inc, seeds = [], []
        rows = [[] for _ in self.language.symbols]
        i, end = 0, len(words)
        while i < end:
            u = len(inc)
            d, count = words[i], words[i + 1]
            i += 2
            mine = []
            profile = 0
            for _ in range(count):
                s = words[i]
                si, arity, bit = slots[s]
                j = i + 1 + arity
                args = words[i + 1 : j]
                i = j
                profile |= bit
                if args[0] == u:
                    rows[si].append(args)
                mine.append((s, args))
            inc.append(mine)
            seeds.append((d, profile))
        seed_rank = {key: i for i, key in enumerate(sorted(set(seeds)))}
        return [seed_rank[key] for key in seeds], inc, rows


def _refine(colors, inc):
    """One round of color refinement: (new colors, number of cells).

    An element's key is its color followed by the sorted entries (slot,
    argument colors) of its tuples; the new colors rank the distinct keys,
    so cells keep their relative order and split in place.
    """
    keys = [
        (colors[u], tuple(sorted([(s, *[colors[x] for x in args]) for s, args in entries])))
        for u, entries in enumerate(inc)
    ]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys], len(rank)


def _equitable(colors, inc):
    """Refine until a round changes no color or the coloring is discrete."""
    n = len(colors)
    while True:
        new, cells = _refine(colors, inc)
        if new == colors or cells == n:
            return new, cells
        colors = new


def _serialize(language, rows, labels):
    parts = [repr(language._key).encode(), str(len(labels)).encode()]
    for (name, _), ts in zip(language.symbols, rows):
        relabeled = sorted(tuple([labels[x] for x in t]) for t in ts)
        parts.append((name + ":" + repr(relabeled)).encode())
    return b"|".join(parts)


class _Node:
    """A search-tree node: its coloring, target cell and pruning state."""

    __slots__ = ("colors", "cell", "next", "gens", "seen", "covered")

    def __init__(self, colors):
        self.colors = colors
        counts = Counter(colors)
        target = min(c for c, k in counts.items() if k > 1)
        self.cell = [u for u, c in enumerate(colors) if c == target]
        self.next = 0
        self.gens = []  # stored automorphisms fixing the node's prefix pointwise
        self.seen = 0  # how many stored automorphisms were checked for that
        self.covered = set()  # orbit of the explored children under gens

    def child(self, prefix, autos):
        """The next child not in the orbit of an explored one, or None."""
        fresh = [g for g in autos[self.seen :] if all(g[p] == p for p in prefix)]
        self.seen = len(autos)
        if fresh:
            self.gens.extend(fresh)
            _close(self.covered, list(self.covered), self.gens)
        while self.next < len(self.cell):
            w = self.cell[self.next]
            self.next += 1
            if w not in self.covered:
                self.covered.add(w)
                _close(self.covered, [w], self.gens)
                return w
        return None


def _close(orbit, todo, gens):
    """Grow `orbit` to its closure under gens, starting from the elements in todo."""
    while todo:
        x = todo.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)


def _canonical_code(language, init, inc, rows):
    """Least leaf code of the individualization-refinement search tree.

    Leaves whose code equals the first or the best leaf's give an
    automorphism; the search stores it. A child is skipped when it lies in
    the orbit of an explored sibling under the stored automorphisms that fix
    the node's individualized prefix pointwise, and the search returns to
    the node where the two paths diverge when the automorphism maps the one
    branch onto the other: automorphic subtrees yield the same leaf codes.
    """
    n = len(init)
    colors, cells = _equitable(init, inc)
    if cells == n:
        return _serialize(language, rows, colors)
    first = best = None  # (code, labels, path)
    autos = []
    path = []
    stack = [_Node(colors)]
    while stack:
        w = stack[-1].child(path, autos)
        if w is None:
            stack.pop()
            if path:
                path.pop()
            continue
        path.append(w)
        colors = list(stack[-1].colors)
        colors[w] = n + 1
        colors, cells = _equitable(colors, inc)
        if cells < n:
            stack.append(_Node(colors))
            continue
        code = _serialize(language, rows, colors)
        ref = None
        if first is None:
            first = best = (code, colors, list(path))
        elif code == first[0]:
            ref = first
        elif code == best[0]:
            ref = best
        elif code < best[0]:
            best = (code, colors, list(path))
        back = len(path) - 1
        if ref is not None:
            owner = [0] * n
            for x, label in enumerate(ref[1]):
                owner[label] = x
            g = [owner[label] for label in colors]
            autos.append(g)
            d = 0
            for a, b in zip(path, ref[2]):
                if a != b:
                    break
                d += 1
            if d < back and g[path[d]] == ref[2][d] and all(g[p] == p for p in path[:d]):
                back = d
        del stack[back + 1 :]
        del path[back:]
    return best[0]


def signature(A):
    """Canonical code: equal codes iff pointed-isomorphic.

    Individualization-refinement with the center pinned and BFS distance
    seeded into the initial colors (both are pointed-isomorphism
    invariants). The canonical form is the minimum serialization over the
    leaves of the refined labeling search tree. The search stores the
    automorphisms that equal leaf codes reveal and skips every branch that
    one of them maps onto an explored branch, which leaves that minimum
    unchanged.
    """
    S = A.structure
    index = _Index(S)
    words, n = index.words(S._positions()[A.center], len(S))
    if n != len(S):
        raise InvariantViolation(
            "ball-connected", "pointed ball has elements unreachable from its center"
        )
    return index.signature(words)


# ---------------------------------------------------------------------------
# Census.


def _linear_layout(M):
    """Positions along a directed path or cycle, if M is one.

    Applicable when the language has exactly one binary symbol, nothing of
    higher arity, and that symbol forms a simple path or cycle covering all
    elements. Returns (kind, order) with kind in {'path', 'cycle'} and order
    the positions in M.elements along the walk, or None.
    """
    binaries = [n for n, a in M.language.symbols if a == 2]
    if len(binaries) != 1 or any(a > 2 for _, a in M.language.symbols) or not M.elements:
        return None
    pos = M._positions()
    succ = [-1] * len(M)
    pred = [-1] * len(M)
    for x, y in M.tuples_by_symbol[binaries[0]]:
        i, j = pos[x], pos[y]
        if i == j or succ[i] >= 0 or pred[j] >= 0:
            return None
        succ[i] = j
        pred[j] = i
    # Both maps are injective, so the walk from the one head ends at a tail
    # and the walk from 0 with no head returns to 0; either covers all
    # elements only when nothing else is left over.
    heads = pred.count(-1)
    if heads > 1:
        return None
    start = pred.index(-1) if heads else 0
    order = [start]
    j = succ[start]
    while j >= 0 and j != start:
        order.append(j)
        j = succ[j]
    if len(order) != len(M):
        return None
    return ("cycle" if j == start else "path"), order


def _forest_layout(M):
    """Parent arrays of a uniform labeled forest, if M is one.

    Applicable when all symbols are binary (no colors), every element is the
    child slot (position 2) of at most one tuple, every (element, symbol)
    pair parents at most one child, and every element of depth >= 1 has
    exactly one parent and one child per symbol. Then the pointed h-ball of
    a faithful element is determined exactly by its upward label word.
    Returns (par, lab) over positions in M.elements: par[j] is the position
    of j's parent (-1 for none) and lab[j] the index of the joining symbol.
    """
    if not M.language.symbols or M.language.unary_symbols:
        return None
    if any(a != 2 for _, a in M.language.symbols):
        return None
    pos = M._positions()
    n = len(M.elements)
    par = [-1] * n
    lab = [0] * n
    kids = [0] * n  # bit si set when the element parents a child by symbol si
    for si, (name, _) in enumerate(M.language.symbols):
        bit = 1 << si
        for p, c in M.tuples_by_symbol[name]:
            i, j = pos[p], pos[c]
            if par[j] >= 0 or kids[i] & bit:
                return None
            par[j] = i
            lab[j] = si
            kids[i] |= bit
    full = (1 << len(M.language.symbols)) - 1
    for d, p, bits in zip(M._depth_list(), par, kids):
        if d >= 1 and (p < 0 or bits != full):
            return None
    return par, lab


def _parents_first(par):
    """(order, rest): the positions below a root, each after its parent, and
    the positions whose ancestor chain never reaches a root (it loops)."""
    kids = [[] for _ in par]
    order = []
    for j, p in enumerate(par):
        if p < 0:
            order.append(j)
        else:
            kids[p].append(j)
    roots = len(order)
    for i in order:  # the list grows while it is read: breadth-first
        order += kids[i]
    if len(order) == len(par):
        return order[roots:], []
    reached = bytearray(len(par))
    for j in order:
        reached[j] = 1
    return order[roots:], [j for j, seen in enumerate(reached) if not seen]


def _tiling_layout(M):
    """Slot-labelled level arrays of a two-relation tiling window, if M is one.

    Applicable when the language has two binary symbols and no colors, the
    first relation (levels) links every element to at most one successor
    that receives at most two links, some receive two, and the second forms
    simple same-level chains (rows). This is the shape of half-plane binary
    tilings: the pointed h-ball of a tile is decided by which child slot
    each chain element occupies, read off the row relation. Returns the
    forest layout's shape over positions in M.elements, (par, lab, forked):
    par[j] is the position of j's level successor when j's slot is witnessed
    inside the window (-1 otherwise), lab[j] is 0 when j's row successor
    shares it and 1 when its row predecessor does, and forked holds the
    positions with two level predecessors.
    """
    syms = M.language.symbols
    if len(syms) != 2 or M.language.unary_symbols or any(a != 2 for _, a in syms):
        return None
    pos = M._positions()
    n = len(M.elements)
    for (a_name, _), (r_name, _) in (syms, syms[::-1]):
        levels, rows = M.tuples_by_symbol[a_name], M.tuples_by_symbol[r_name]
        if len({u for u, _ in levels}) < len(levels):
            continue
        succ, links = [-1] * n, [0] * n
        for u, v in levels:
            j = pos[v]
            succ[pos[u]] = j
            links[j] += 1
        if 2 not in links or max(links) > 2:
            continue
        if len({u for u, _ in rows}) < len(rows) or len({v for _, v in rows}) < len(rows):
            continue
        par, lab = [-1] * n, [0] * n
        for u, v in rows:
            i, j = pos[u], pos[v]
            p = succ[i]
            if p >= 0 and succ[j] == p:
                par[i], lab[i] = p, 0  # a witnessed slot 0 wins over slot 1
                if par[j] < 0:
                    par[j], lab[j] = p, 1
        return par, lab, {j for j, k in enumerate(links) if k == 2}
    return None


@dataclass(frozen=True)
class _Layout:
    """A window's fast-path layout; see _layout."""

    kind: str  # path | cycle | forest | tiling
    chain: tuple | None = None  # (par, lab, forked) where chain words decide balls
    order: list | None = None  # path and cycle: element ids along the walk
    word: str | None = None  # word[i]: order[i]'s unary profile as one character
    deps: list | None = None  # deps[i]: order[i]'s depth


def _layout(M):
    """The window's fast-path layout, detected here only and memoized on M.

    A _Layout, or None when no fast path applies. kind is 'path' or 'cycle'
    for a directed path or cycle, whose order, word and deps class_ids reads
    as linear tokens; 'forest' for a uniform labeled forest; 'tiling' for a
    two-relation tiling window, whose classes stay generic.

    chain = (par, lab, forked) is set where upward chain words decide
    pointed balls: on forests, on tilings, and on uncoloured paths and
    cycles that _forest_layout accepts. Over positions in M.elements, par[j]
    is the position of j's successor along the chain (-1 where the chain
    leaves the window) and lab[j] the label of that hop. forked holds the
    positions whose reversed candidates die at radius 1: on a forest over
    two or more symbols every position (a reversed map would need one
    in-edge per child label at the image, and forest nodes have one
    parent), on a tiling the tiles with two level predecessors (their
    children would need two distinct level successors at the image, and
    tiles have one).
    """
    if "layout" in M._cache:
        return M._cache["layout"]
    layout = chain = None
    forest = _forest_layout(M)
    if forest is not None:
        chain = (*forest, range(len(M) if len(M.language.symbols) >= 2 else 0))
    linear = _linear_layout(M)
    if linear is not None:
        kind, order = linear
        pos = M._positions()
        bits = [0] * len(M)  # unary symbol i sets bit i
        for i, name in enumerate(M.language.unary_symbols):
            for (e,) in M.tuples_by_symbol[name]:
                bits[pos[e]] |= 1 << i
        depths = M._depth_list()
        layout = _Layout(
            kind,
            chain,
            [M.elements[j] for j in order],
            "".join([chr(48 + bits[j]) for j in order]),
            [depths[j] for j in order],
        )
    elif chain is not None:
        layout = _Layout("forest", chain)
    else:
        tiling = _tiling_layout(M)
        if tiling is not None:
            layout = _Layout("tiling", tiling)
    M._cache["layout"] = layout
    return layout


def _chain_word(par, lab, j, length):
    """The first `length` labels up the chain from position j, fewer where
    it leaves the window."""
    labels = []
    for _ in range(length):
        p = par[j]
        if p < 0:
            break
        labels.append(lab[j])
        j = p
    return labels


def _forest_words(par, lab, h):
    """Position-ordered upward label words of length up to h, one character
    per label: each word extends its parent's, cut to h."""
    chars = [chr(48 + si) for si in range(max(lab, default=0) + 1)]
    if h <= 1:
        return [chars[si][:h] if p >= 0 else "" for p, si in zip(par, lab)]
    order, rest = _parents_first(par)
    words = [""] * len(par)
    cut = h - 1
    for j in order:
        words[j] = chars[lab[j]] + words[par[j]][:cut]
    for j in rest:  # chains that loop never meet a finished parent word
        words[j] = "".join([chars[si] for si in _chain_word(par, lab, j, h)])
    return words


def class_ids(M, h, extended=False):
    """Exact pointed-ball class tokens.

    Equal tokens iff the pointed h-balls are isomorphic. By default tokens
    cover exactly the faithful elements (depth >= h). The window's layout,
    detected once by _layout, picks the method: linear tokens on a path or
    cycle, upward label words on a forest, canonical signatures of ball
    forms otherwise (tilings included). With extended=True, a forest window
    may certify tokens past the faithful region (it decides classes from
    ancestor words alone); the other methods stay depth-bounded. Tokens are
    comparable within one call; use signatures to compare across structures.
    """
    if h < 0:
        raise InvariantViolation("radius", f"negative radius {h}")
    depths = M._depth_list()
    layout = _layout(M)
    kind = None if layout is None else layout.kind
    if kind in ("path", "cycle"):
        tokens = _linear_tokens(h, layout)
        return {e: t for e, t in zip(layout.order, tokens) if t is not None}
    if kind == "forest":
        # a word of length h is the class, wherever the window shows it
        par, lab, _ = layout.chain
        words = zip(M.elements, _forest_words(par, lab, h), depths)
        if extended:
            return {e: w for e, w, _ in words if len(w) == h}
        return {e: w for e, w, d in words if d >= h and len(w) == h}
    # Equal forms share one code; the keys live as long as this call.
    index = _Index(M)
    codes = {}
    out = {}
    for i, (e, d) in enumerate(zip(M.elements, depths)):
        if d >= h:
            words, _ = index.words(i, h)
            key = index.key(words)
            if key not in codes:
                codes[key] = index.signature(words)
            out[e] = codes[key]
    return out


def _token_groups(M, h):
    """(class token, sorted members) per pointed h-ball class."""
    groups = {}
    for e, token in class_ids(M, h).items():
        groups.setdefault(token, []).append(e)
    return sorted(((t, sorted(g)) for t, g in groups.items()), key=lambda tg: tg[1][0])


def _group_signature(M, h, token, rep):
    # Generic-path tokens are the signatures themselves.
    if isinstance(token, BallSignature):
        return token
    return signature(M.ball(rep, h))


def _linear_tokens(h, layout):
    """Position-ordered h-class tokens of a path or cycle window.

    tokens[i] belongs to order[i]: None below depth h, else equal across
    positions exactly when their pointed h-balls are isomorphic. On a path
    an interior position gets its window word[i-h : i+h+1], a position
    fewer than h from an end gets (offset of i, clipped word); tuples and
    strings never compare equal. On a cycle every position gets the 2h+1
    letters around it, or the whole rotation from it when 2h+1 >= n.
    """
    word, deps = layout.word, layout.deps
    n = len(deps)
    if layout.kind == "cycle":
        if 2 * h + 1 >= n:
            doubled = word + word
            return [doubled[i : i + n] if d >= h else None for i, d in enumerate(deps)]
        wide = word[n - h :] + word + word[:h]  # wide[i : i + 2h + 1] is centred on i
        return [wide[i : i + 2 * h + 1] if d >= h else None for i, d in enumerate(deps)]
    tokens = [word[i - h : i + h + 1] if d >= h else None for i, d in enumerate(deps)]
    for i in (*range(min(h, n)), *range(max(n - h, h), n)):
        if deps[i] >= h:
            lo = i - h if i > h else 0
            tokens[i] = (i - lo, word[lo : i + h + 1])
    return tokens


def census(M, h):
    """Isomorphism classes of (B(v,h), v) over all v with depth(v) >= h."""
    h = int(h)
    groups = _token_groups(M, h)
    if not groups:
        raise NoFaithfulElements(h)
    # Class tokens are exact, so one signature per group suffices, and two
    # groups that share one would mean a class split across two tokens.
    reps = {}
    table = []
    for token, members in groups:
        rep = members[0]
        sig = _group_signature(M, h, token, rep)
        if sig in reps:
            raise VerificationFailed("census-tokens", (reps[sig], rep))
        reps[sig] = rep
        table.append(CensusEntry(sig, len(members), rep))
    table.sort(key=lambda e: e.signature.code)
    return CensusTable(radius=h, entries=table, censused=sum(len(g) for _, g in groups))


# ---------------------------------------------------------------------------
# Local isomorphism property.


@dataclass
class LipReport:
    radius: int
    verdict: str  # holds_up_to_bounds | fails_with_witness
    k: int | None
    per_class: list  # (signature, representative, k_c or None)
    witness: tuple | None  # (signature, representative, violating element)
    window_bound: int

    def summary(self):
        if self.verdict == "holds_up_to_bounds":
            return f"LIP holds at h={self.radius} with k={self.k} (window bound {self.window_bound})"
        return f"LIP fails at h={self.radius}: witness {self.witness}"


def _window_bound(M):
    """Largest finite depth, or the element count of a closed window."""
    finite = [d for d in M._depth_list() if d is not math.inf]
    return int(max(finite)) if finite else len(M.elements)


def _least_recurrence_k(M, members, count_unreached=True):
    """Least k with every element of depth >= k within k of a member.

    Returns (k or None, dist), where dist lists, by position in M.elements,
    each element's distance from the nearest member (inf where no member
    reaches it). f(k), the largest distance over elements of depth >= k,
    is non-increasing, so f(k) <= k holds exactly for k from the answer up
    to the window bound. Elements of infinite depth count at the
    bound; in a window with a frontier, count_unreached=False skips them
    instead (they sit in components the frontier cannot reach).
    """
    dist = M._distance_list(map(M._positions().__getitem__, members))
    bound = _window_bound(M)
    skip = not count_unreached and not M.is_closed()
    inf = math.inf
    worst = [0] * (bound + 1)  # largest distance over the elements of each depth
    for d, x in zip(M._depth_list(), dist):
        if d is inf:
            if skip:
                continue
            d = bound
        if x > worst[d]:
            worst[d] = x
    least = None
    running = 0  # f(k)
    for k in range(bound, -1, -1):
        if worst[k] > running:
            running = worst[k]
        if running > k:
            break
        least = k
    return least, dist


def lip_check(M, h):
    """Least k such that every faithful k-ball contains every h-class.

    A class whose required k scales past half the window depth is reported
    as a failure with a witness element: no window-independent constant is
    compatible with the observed recurrence gap.
    """
    groups = _token_groups(M, h)
    if not groups:
        raise WindowExhausted(f"no faithful elements at radius {h}")
    depths = M._depth_list()
    closed = M.is_closed()
    window_bound = _window_bound(M)
    k_cap = window_bound if closed else window_bound // 2

    per_class = []
    worst_k = 0
    witness = None
    for token, members in groups:
        rep = members[0]
        k_c, dist = _least_recurrence_k(M, members, count_unreached=False)
        sig = _group_signature(M, h, token, rep)
        if k_c is None or k_c > k_cap:
            if witness is None:
                bad = None
                for e, d, x in zip(M.elements, depths, dist):
                    if d is not math.inf and d < k_cap:
                        continue
                    if x > k_cap:
                        bad = e
                        break
                witness = (sig, rep, bad)
            per_class.append((sig, rep, None))
        else:
            per_class.append((sig, rep, k_c))
            worst_k = max(worst_k, k_c)

    if witness is not None:
        return LipReport(h, "fails_with_witness", None, per_class, witness, window_bound)
    return LipReport(h, "holds_up_to_bounds", worst_k, per_class, None, window_bound)


# ---------------------------------------------------------------------------
# Extraction preorder.


@dataclass
class CompareReport:
    radius: int
    forward: bool  # every M-class present in N
    backward: bool
    missing_in_target: list  # witnesses for M !< N
    missing_in_source: list
    multiplicities: dict  # signature hex -> (mult in M, mult in N)
    censused: tuple

    def locally_isomorphic(self):
        return self.forward and self.backward


def extraction_compare(M, N, h):
    """Class-presence comparison of h-ball censuses, both directions.

    Multiplicities are reported for information only: finite windows distort
    counts, so the verdict uses class presence (the connected-structure
    form).
    """
    if M.language != N.language:
        raise LanguageMismatch(M.language, N.language)
    tm = census(M, h)
    tn = census(N, h)
    sm = {e.signature: e for e in tm.entries}
    sn = {e.signature: e for e in tn.entries}
    missing_fwd = [
        (sig.hex(), sm[sig].representative) for sig in sm if sig not in sn
    ]
    missing_bwd = [
        (sig.hex(), sn[sig].representative) for sig in sn if sig not in sm
    ]
    mults = {}
    for sig in set(sm) | set(sn):
        mults[sig.hex()] = (
            sm[sig].multiplicity if sig in sm else 0,
            sn[sig].multiplicity if sig in sn else 0,
        )
    return CompareReport(
        radius=h,
        forward=not missing_fwd,
        backward=not missing_bwd,
        missing_in_target=sorted(missing_fwd),
        missing_in_source=sorted(missing_bwd),
        multiplicities=dict(sorted(mults.items())),
        censused=(tm.censused, tn.censused),
    )
