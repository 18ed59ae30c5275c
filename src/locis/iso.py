"""Pointed isomorphism search, canonical signatures, ball census, LIP and
extraction comparison.

The search engine works directly on parent windows: it grows BFS layers
around both centers in lockstep and backtracks over layer-respecting
assignments. It reads layer L only once the search has completed layer L-1,
so a candidate that dies at L costs a search to radius L, however large the
requested radius. Each element's candidates are drawn from a pivot tuple, one
whose other arguments are already mapped: only the elements that complete
its image are tried. Elements with no such tuple, the center among them,
try their whole layer. A pointed isomorphism at radius r restricts to one
at every r' < r, so candidates die monotonically; a death certified at a
faithful layer rules the candidate out at every larger radius. The engine
reports which of the three cases happened: iso found at the requested
radius, death at a certified layer, or window exhaustion with the candidate
still alive. A kill radius is tight: the balls are isomorphic at L-1 and not
at L.

The engine and PartialIso.verify read the windows' incidence stores by
position (see core.Structure); ids appear only in mappings and errors.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat, starmap
from operator import itemgetter, not_
from struct import pack

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
        """Re-check the ids, the anchor, injectivity and two-way
        preservation on the domain.

        A reversed map is checked against the target's tuples read
        backwards, and a failing target tuple is named as read.
        """
        for u, v in self.mapping.items():
            if u not in self.source:
                raise VerificationFailed("domain", f"{u!r} is not an element of the source")
            if v not in self.target:
                raise VerificationFailed("image", f"{v!r} is not an element of the target")
        if self.anchor not in self.mapping:
            raise VerificationFailed("anchor", f"{self.anchor!r} is not in the domain")
        if len(set(self.mapping.values())) != len(self.mapping):
            raise VerificationFailed("injectivity", "mapping is not injective")
        if self.source.language != self.target.language:
            raise LanguageMismatch(self.source.language, self.target.language)
        # Both stores are read by position (each entry through its window's
        # slot table), each way in mapping order, so the failure named does
        # not depend on the hash seed. An image tuple holds the image of i at
        # i's places, so the image's entry lists it under i's slot, flipped
        # when the tuple is read backwards.
        rev = self.reversed_target
        step = -1 if rev else 1
        S, T = self.source, self.target
        sp, tp = S._positions(), T._positions()
        fwd = {sp[u]: tp[v] for u, v in self.mapping.items()}
        bwd = {j: i for i, j in fwd.items()}
        for stage, A, B, f, read in (
            ("preservation", S, T, fwd, 1), ("reflection", T, S, bwd, step)
        ):
            src, tgt, slot = A._incidence(), B._incidence(), A.language.slot
            for i, j in f.items():
                for s, t in src[i]:
                    if all(x in f for x in t):
                        image = tuple([f[x] for x in t])[::step]
                        if (slot.flip[s] if rev else s, image) not in tgt[j]:
                            t = tuple(map(A.elements.__getitem__, t[::read]))
                            raise VerificationFailed(stage, (slot.key[s][0], t))
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


def _layer_summary(M, layer, dist, level):
    """Set-level invariants of one layer of positions: unary profile
    bitmasks and finished tuples per symbol.

    A tuple is counted at the level where its farthest argument lives; it is
    attributed once, via its least farthest argument. Neither count depends
    on argument order, so a reversed search compares the summaries of both
    windows as they are.
    """
    inc, info = M._incidence(), M.language.slot.info
    profiles = Counter()
    tuples = Counter()
    for u in layer:
        profile = 0
        for s, t in inc[u]:
            symbol, _, bit = info[s]
            profile |= bit
            if all(dist.get(x, level + 1) <= level for x in t):
                if min(x for x in t if dist[x] == level) == u:
                    tuples[symbol] += 1
        profiles[profile] += 1
    return profiles, tuples


def _compatible(entries, closing, u, v, fwd, bwd):
    """Whether v, with store entry `entries`, can take the place of u, with
    checked tuples `closing`, under the partial map fwd (bwd its inverse).

    Each checked tuple's image, u replaced by v, holds v at u's places, so
    v's entry must list it under the same slot. fwd is injective, so those
    images are distinct tuples of v among mapped elements; each of those
    has a preimage exactly when there are no more of them than checked
    tuples. Unary tuples are among both, so the unary profiles agree too.
    """
    for s, t in closing:
        if (s, tuple([v if x == u else fwd[x] for x in t])) not in entries:
            return False
    mapped = sum([all(x == v or x in bwd for x in t) for _, t in entries])
    return mapped == len(closing)


def windowed_pointed_iso(M, a, N, b, target_radius, reverse=False):
    """Search for a pointed isomorphism (B_M(a,r),a) -> (B_N(b,r),b).

    Works on the parent windows without extracting balls. Both balls grow
    one layer at a time: layer L is read only once the search has completed
    layer L-1, and two layers that differ in size or summary kill the
    candidate at L. With reverse=True the map is orientation-reversing: it
    sends a tuple (x_1,...,x_k) of M onto the tuple of N that lists the
    images backwards. The search reverses u's tuples once, when it builds
    the checks below, and reads N as it is.

    The search certifies up to min(depth a, depth b, target_radius),
    reading both depths off the layers it grows; so a target of math.inf
    gives 'iso' at math.inf on closed windows and 'exhausted' at the
    smaller depth on open ones, unless the candidate dies. Each layer is
    read from the rows and store entries of the layer before, so a small
    search builds no whole-window table. Ids appear only in the mapping.
    """
    if M.language != N.language:
        raise LanguageMismatch(M.language, N.language)
    if target_radius < 0:
        raise InvariantViolation("radius", f"negative radius {target_radius}")
    i, j = M._position(a, "depth lookup"), N._position(b, "depth lookup")
    certifiable = target_radius  # lowered to the first layer with a frontier element

    # Each side's layers in position (so id) order, one per next(), and []
    # once its ball stops growing; dist holds the positions within the last
    # layer read, each at its distance.
    dist_a, dist_b = {i: 0}, {j: 0}
    grow_a = chain(map(sorted, M._bfs(dist_a)), repeat([]))
    grow_b = chain(map(sorted, N._bfs(dist_b)), repeat([]))
    inc_a, inc_b = M._incidence(), N._incidence()  # each read through its own slot table
    info_a, info_b, flip = M.language.slot.info, N.language.slot.info, M.language.slot.flip
    layers_b = []
    front_a, front_b = M.frontier, N.frontier
    at_a, at_b = M.elements.__getitem__, N.elements.__getitem__

    # The order grows a layer at a time, so when the search reaches u,
    # exactly the elements before u are mapped. _compatible() checks the
    # tuples of u whose other arguments all come earlier, and candidates come
    # from the first of them that has another argument, the pivot: the v
    # worth trying sit at u's place in a tuple of the pivot's symbol at the
    # image of one mapped argument. _compatible() rejects every other v of
    # the layer, so the search visits the same nodes in the same order as a
    # scan of the whole layer, which positions without a pivot (the center
    # among them) still use. A reversed search stores each tuple backwards,
    # under the flipped slot, so its image is read from N as it is; the
    # mapped-tuple count ignores argument order.
    step = -1 if reverse else 1
    order, closing, pivots = [], [], []
    position = {}

    def enter(level):
        """Read layer `level` on both sides; False when the layers differ."""
        nonlocal certifiable
        la, lb = next(grow_a), next(grow_b)
        if len(la) != len(lb) or (
            _layer_summary(M, la, dist_a, level) != _layer_summary(N, lb, dist_b, level)
        ):
            return False
        if not front_a.isdisjoint(map(at_a, la)) or not front_b.isdisjoint(map(at_b, lb)):
            certifiable = level
        layers_b.append(lb)
        start, end = len(order), len(order) + len(la)
        position.update(zip(la, range(start, end)))
        for idx, u in enumerate(la, start):
            order.append((u, level))
            mine = [
                (flip[s] if reverse else s, t[::step])
                for s, t in inc_a[u]
                if all(position.get(x, end) <= idx for x in t)
            ]
            closing.append(mine)
            pivot = ((info_a[s][0], x, t.index(u)) for s, t in mine for x in t if x != u)
            pivots.append(next(pivot, None))
        return True

    fwd, bwd = {}, {}

    def candidates(idx):
        level = order[idx][1]
        if pivots[idx] is None:
            return layers_b[level]
        k, anchor, place = pivots[idx]
        found = {t[place] for s, t in inc_b[fwd[anchor]] if info_b[s][0] == k}
        return sorted([v for v in found if dist_b.get(v) == level and v not in bwd])

    def mapping():
        return {at_a(u): at_b(v) for u, v in fwd.items()}

    # Iterative DFS over layer-respecting assignments, in the order above;
    # each position tries the candidates of its pivot tuple, or its whole
    # layer when it has none. The search reaches the end of the order only
    # by completing its deepest layer, which certifies an isomorphism at
    # that radius, and only then reads the next layer. So a search that runs
    # out of candidates is alive at the layer before its deepest and dead at
    # the deepest: the kill radius is tight.
    level = -1
    iters = {}
    idx = 0
    while idx >= 0:
        if idx == len(order):
            if level >= certifiable:
                if level >= target_radius:
                    return EngineResult("iso", target_radius, mapping())
                return EngineResult("exhausted", level, mapping())
            level += 1
            if not enter(level):
                return EngineResult("dead", level)
            if idx == len(order):
                # Balls that stopped growing inside the window: the radius
                # reached already determines every larger radius.
                return EngineResult("iso", target_radius, mapping())
            iters[idx] = iter(candidates(idx))
        u = order[idx][0]
        for v in iters[idx]:
            if v not in bwd and _compatible(inc_b[v], closing[idx], u, v, fwd, bwd):
                fwd[u] = v
                bwd[v] = u
                idx += 1
                if idx < len(order):
                    iters[idx] = iter(candidates(idx))
                break
        else:
            idx -= 1
            if idx >= 0:
                del bwd[fwd.pop(order[idx][0])]
    return EngineResult("dead", level)


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
# The search runs on an integer form of the ball: members numbered in the
# order a breadth-first read in slot order meets them, and inc[u] lists u's
# tuples as (slot, member numbers), so entries (slot, *argument colors) sort
# as (symbol name, places, argument colors) would. The code does not depend
# on the numbering, so class_ids computes one code per distinct form.


class _Index:
    """Integer incidence index of a window, by position in M.elements,
    built once per window (see _index).

    Entries are the incidence store's, from Structure._slot_pairs(), slots
    renumbered to rank only the pairs (symbol name, places) in M, which
    still orders the pairs of any ball of M; slots[s] is slot s's info.

    An element's template spells its entry count c as the marker
    n + len(slots) + c, then per entry the slot s as the marker n + s and
    the argument positions. read[i] is one operator.itemgetter over element
    i's template, its only copy (__reduce__ hands the items back). A label
    list, made by labels() for each reader so that concurrent readers share
    no scratch, maps member positions to member numbers (-1 outside the
    current ball), n + s to s and n + len(slots) + c to c, so read[u](label)
    yields a member's count and entries in one C call. isolated holds the
    elements without entries, whose one-item getters would return a scalar.

    Memo keys of exact forms pack words as struct typecode "h" when every
    word is below 2**15, else "i".
    """

    __slots__ = ("language", "slots", "width", "read", "isolated", "tail", "typecode")

    def __init__(self, M):
        self.language = M.language
        n = len(M.elements)
        entries = M._slot_pairs()
        keys = sorted(entries)
        slot = M.language.slot
        self.slots = [slot.info[slot[key]] for key in keys]
        self.width = [1 + arity for _, arity, _ in self.slots]
        # Slot by slot in rank order, so every element's entries arrive
        # sorted; each template opens with a place for its count marker.
        templates = [[0] for _ in range(n)]
        counts = [0] * n
        for s, key in enumerate(keys):
            m = n + s
            for x, args in entries[key]:
                t = templates[x]
                t.append(m)
                t += args
                counts[x] += 1
        top = max(counts, default=0)
        marks = list(range(n + len(keys), n + len(keys) + top + 1))
        for t, c in zip(templates, counts):
            t[0] = marks[c]
        self.read = list(starmap(itemgetter, templates))
        self.isolated = frozenset(compress(range(n), map(not_, counts)))
        self.tail = list(range(len(keys))) + list(range(top + 1))
        self.typecode = "h" if max(n, len(keys), top) < 1 << 15 else "i"

    def labels(self):
        """A fresh label list: -1 at every position, then the markers'."""
        return [-1] * len(self.read) + self.tail

    def words(self, center, h, label=None):
        """Flat integer encoding of the h-ball around position `center`.

        Members are numbered in slot-ordered discovery: breadth-first from
        the center, reading each member's template in order and numbering
        every argument when first met (markers carry labels >= 0, so the
        scan passes over them). The words list, member by member, its
        Gaifman distance, then what its getter reads through `label` (from
        labels(), left as found; a fresh one when None): its entry count and
        per entry the slot and the member numbers. Members at distance h
        list every entry too, so an argument outside the ball reads -1: raw
        words also record the tuples that leave the ball, and trim() turns
        them into the words of the exact form. Returns (words, number of
        members, offset of the first member at distance h, or len(words)).
        """
        if center in self.isolated:
            return [0, 0], 1, 0 if h == 0 else 2
        read = self.read
        if label is None:
            label = self.labels()
        label[center] = 0
        members = [center]
        m = 1
        words = []
        lo, d = 0, 0
        while d < h and lo < m:
            hi = m
            for u in members[lo:hi]:
                get = read[u]
                for x in get.__reduce__()[1]:
                    if label[x] < 0:
                        label[x] = m
                        m += 1
                        members.append(x)
                words += (d,)
                words += get(label)
            lo, d = hi, d + 1
        edge = len(words)
        for u in members[lo:]:
            words += (d,)
            words += read[u](label)
        for x in members:
            label[x] = -1
        return words, m, edge

    def trim(self, words, start=0):
        """The exact form of raw words: each entry that holds -1, a tuple
        leaving the ball, is dropped and its member's count lowered. Words
        that hold no -1 are returned as they are; the member numbering never
        changes. The result determines the ball's form exactly. `start`, the
        offset of a member at or before the first -1 (the edge words()
        returns), spares reading the members before it."""
        if -1 not in words:
            return words
        width = self.width
        left = words.count(-1)
        neg = words.index(-1, start)  # the next -1 not yet dropped
        i = start
        while True:  # find the member that holds it
            j = i + 2
            for _ in range(words[i + 1]):
                j += width[words[j]]
            if j > neg:
                break
            i = j
        out = words[:i]
        end = len(words)
        while i < end:
            count = words[i + 1]
            head = len(out)
            out += (words[i], count)
            j = run = i + 2  # run: the first entry not yet copied
            for _ in range(count):
                k = j + width[words[j]]
                if neg < k:
                    out += words[run:j]
                    run = k
                    count -= 1
                    while neg < k:
                        left -= 1
                        neg = words.index(-1, neg + 1) if left else end
                j = k
            out += words[run:j]
            out[head + 1] = count
            i = j
        return out

    def key(self, words):
        """Memo key of trimmed words: equal keys iff equal words."""
        return pack(f"{len(words)}{self.typecode}", *words)

    def signature(self, words):
        """The canonical signature of the ball that trimmed words encode."""
        return BallSignature(_canonical_code(self.language, *self.form(words)))

    def form(self, words):
        """(init, inc, rows) of the ball encoded by trimmed words.

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


def _readers(inc):
    """(reads, tail) for refining the colorings of a form with incidence inc.

    reads[u] holds one operator.itemgetter per entry (slot, args) of u.
    Over the list colors + tail, where tail[s] = s sits at position
    len(inc) + s, it reads the entry's key (slot, *argument colors) in one
    C call, so refinement rounds build no entry key in Python.
    """
    n = len(inc)
    reads = [[itemgetter(n + s, *args) for s, args in entries] for entries in inc]
    return reads, list(range(1 + max(map(itemgetter(0), chain.from_iterable(inc)), default=-1)))


def _refine(colors, reads, tail):
    """One round of color refinement: (new colors, number of cells).

    An element's key is its color followed by the sorted entries (slot,
    argument colors) of its tuples, each read by its getter in reads (see
    _readers); the new colors rank the distinct keys, so cells keep their
    relative order and split in place.
    """
    look = colors + tail
    keys = list(zip(colors, [tuple(sorted([get(look) for get in gets])) for gets in reads]))
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys], len(rank)


def _equitable(colors, reads, tail):
    """Refine until a round changes no color or the coloring is discrete."""
    n = len(colors)
    while True:
        new, cells = _refine(colors, reads, tail)
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
    reads, tail = _readers(inc)
    colors, cells = _equitable(init, reads, tail)
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
        colors, cells = _equitable(colors, reads, tail)
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
    index = _index(S)
    words, n, _ = index.words(S._positions()[A.center], len(S))
    if n != len(S):
        raise InvariantViolation(
            "ball-connected", "pointed ball has elements unreachable from its center"
        )
    return index.signature(words)


def _index(M):
    """M's _Index, built on first use and memoized on M."""
    index = M._cache.get("index")
    if index is None:
        index = M._cache["index"] = _Index(M)
    return index


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
    succ = [-1] * len(M)
    pred = [-1] * len(M)
    for i, j in zip(*M._cols[binaries[0]]):
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
    exactly one parent and one child per symbol. Then, where every parent
    chain reaches a root, the pointed h-ball of a faithful element is
    determined exactly by its upward label word. The parent map is not
    checked for loops here; class_ids finds them (see _forest_words).
    Returns (par, lab) over positions in M.elements: par[j] is the position
    of j's parent (-1 for none) and lab[j] the index of the joining symbol.
    """
    if not M.language.symbols or M.language.unary_symbols:
        return None
    if any(a != 2 for _, a in M.language.symbols):
        return None
    n = len(M.elements)
    par = [-1] * n
    lab = [0] * n
    kids = [0] * n  # bit si set when the element parents a child by symbol si
    for si, (name, _) in enumerate(M.language.symbols):
        bit = 1 << si
        for i, j in zip(*M._cols[name]):
            if par[j] >= 0 or kids[i] & bit:
                return None
            par[j] = i
            lab[j] = si
            kids[i] |= bit
    full = (1 << len(M.language.symbols)) - 1
    frontier = M.frontier  # the elements of depth 0
    for e, p, bits in zip(M.elements, par, kids):
        if e not in frontier and (p < 0 or bits != full):
            return None
    return par, lab


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
    n = len(M.elements)
    for (a_name, _), (r_name, _) in (syms, syms[::-1]):
        (up, down), rows = M._cols[a_name], M._cols[r_name]
        if len(set(up)) < len(up):
            continue
        succ, links = [-1] * n, [0] * n
        for i, j in zip(up, down):
            succ[i] = j
            links[j] += 1
        if 2 not in links or max(links) > 2:
            continue
        if any(len(set(col)) < len(col) for col in rows):
            continue
        par, lab = [-1] * n, [0] * n
        for i, j in zip(*rows):
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
    as linear tokens; 'forest' for a uniform labeled forest, which gets
    forest tokens only where every position is reached from a root (a
    window whose parent chains loop takes the generic path); 'tiling' for
    a two-relation tiling window, whose classes stay generic.

    chain = (par, lab, forked) is set where upward chain words decide
    pointed balls: on forests, on tilings, and on uncoloured paths and
    cycles that _forest_layout accepts. Over positions, par[j] is j's
    successor along the chain (-1 where it leaves the window) and lab[j]
    the label of that hop. forked holds the positions whose reversed
    candidates die at radius 1: on a forest over two or more symbols every
    position (forest nodes have one parent, not one per child label), on a
    tiling the tiles with two level predecessors (tiles have one level
    successor, not two).
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
        bits = [0] * len(M)  # unary symbol i sets bit i
        for i, name in enumerate(M.language.unary_symbols):
            for j in M._cols[name][0]:
                bits[j] |= 1 << i
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


def _forest_words(M, par, lab, h):
    """Position-ordered upward label words of length up to h, one character
    per label: each word extends its parent's, cut to h. None when some
    position's chain never reaches a root (it loops).

    Parents come before children in the order of one _bfs from the roots,
    memoized on M (None when it misses a position): every position has at
    most one parent, so a search from a root meets a parent first.
    """
    if "parents first" not in M._cache:
        dist = dict.fromkeys([j for j, p in enumerate(par) if p < 0], 0)
        layers = M._bfs(dist, M._gaifman())
        next(layers, None)  # the roots keep the empty word
        order = list(chain.from_iterable(layers))
        M._cache["parents first"] = order if len(dist) == len(par) else None
    order = M._cache["parents first"]
    if order is None:
        return None
    chars = [chr(48 + si)[:h] for si in range(max(lab, default=0) + 1)]  # all empty at h = 0
    words = [""] * len(par)
    cut = h - 1
    for j in order:
        words[j] = chars[lab[j]] + words[par[j]][:cut]
    return words


def class_ids(M, h, extended=False):
    """Exact pointed-ball class tokens.

    Equal tokens iff the pointed h-balls are isomorphic. By default tokens
    cover exactly the faithful elements (depth >= h). The window's layout,
    detected once by _layout, picks the method: linear tokens on a path or
    cycle, upward label words on a forest where every position is reached
    from a root, canonical signatures of ball forms otherwise (tilings, and
    forests whose parent chains loop, at every h): one canonical code per
    distinct exact form, memoized also by raw words (see below), so a
    repeating ball costs one breadth-first read. With extended=True, a
    forest window without loops may certify tokens past the faithful region
    (it decides classes from ancestor words alone); the other methods stay
    depth-bounded. Tokens are comparable within one call; use signatures to
    compare across structures.
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
        par, lab, _ = layout.chain
        words = _forest_words(M, par, lab, h)
        if words is not None:  # else some chain loops: the generic path below
            # a word of length h is the class, wherever the window shows it
            words = zip(M.elements, words, depths)
            if extended:
                return {e: w for e, w, _ in words if len(w) == h}
            return {e: w for e, w, d in words if d >= h and len(w) == h}
    # One memo for this call. One exact form can have several raw words, so
    # a raw miss is trimmed and its form looked up by its packed key; a raw
    # key is stored only once its form has a code. Raw keys are tuples (made
    # and hashed in a third of the time of packed ones) and form keys bytes,
    # so the two never collide.
    index = _index(M)
    label = index.labels()
    memo = {}
    out = {}
    for i, (e, d) in enumerate(zip(M.elements, depths)):
        if d >= h:
            words, _, edge = index.words(i, h, label)
            raw = tuple(words)
            sig = memo.get(raw)
            if sig is None:
                exact = index.trim(words, edge)
                key = index.key(exact)
                sig = memo.get(key)
                if sig is None:
                    sig = memo[key] = index.signature(exact)
                else:
                    memo[raw] = sig
            out[e] = sig
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
