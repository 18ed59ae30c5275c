"""Languages, finite structure windows, and ball extraction.

A Structure is a finite window of a possibly infinite relational structure.
Elements on the frontier may be missing incident tuples; everything else has
its complete 1-neighborhood. depth(u) is the Gaifman distance from u to the
nearest frontier element, and bounds the radius at which balls around u are
faithful to the infinite structure.

Element ids are opaque strings. The core never interprets them. A window
keeps each id and tuple once: its sorted ids with one id-to-position map
(so int order is id order), each symbol's tuples as one sorted tuple, and
per-position tables (Gaifman rows, the incidence store, depths, the census
index). An id is looked up in the map and a tuple found by bisection; the
id-keyed views incident(), depths() and adjacency() serve public callers
only. A local question is answered from the rows and entries it reaches,
each read on demand from the sorted tuple lists. A search reads its
centre's depth off the layers it grows: it stops at the first layer that
holds a frontier element, and no second search asks for that depth. The
whole-window tables (the bulk Gaifman index and incidence store, and the
depth list) are built once enough of the window has been read, or by the
readers that need all of it. Every distance, depth and ball, and every
layer the isomorphism engine and the forest tokens read, comes from one
breadth-first search over the int rows, Structure._bfs, and an id-keyed
result lists elements in the order that search discovers them.
"""

from __future__ import annotations

import math
import re
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

from .errors import (
    ArityMismatch,
    DanglingElement,
    InvariantViolation,
    UnfaithfulRadius,
    UnknownSymbol,
)

SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# The character class of element ids; textio builds its line patterns from it.
ELEMENT_CHARS = r"[A-Za-z0-9_.+-]"
ELEMENT_RE = re.compile(rf"{ELEMENT_CHARS}+\Z")

_first, _second = itemgetter(0), itemgetter(1)


class Language:
    """An ordered list of relation symbols with arities.

    Symbol order is part of the language identity: canonical serializations
    and signatures list symbols in declaration order.
    """

    __slots__ = ("symbols", "arities", "unary_symbols", "narrow", "slot", "_key")

    def __init__(self, symbols):
        symbols = tuple((str(name), int(arity)) for name, arity in symbols)
        seen = set()
        for name, arity in symbols:
            if not SYMBOL_RE.match(name):
                raise InvariantViolation("symbol-name", f"bad symbol name {name!r}")
            if name in seen:
                raise InvariantViolation("symbol-unique", f"duplicate symbol {name!r}")
            if arity < 1:
                raise InvariantViolation("arity-positive", f"symbol {name!r} has arity {arity}")
            seen.add(name)
        self.symbols = symbols
        self.arities = {name: arity for name, arity in symbols}
        self.unary_symbols = tuple(n for n, a in symbols if a == 1)
        self.narrow = all(a <= 2 for _, a in symbols)  # no symbol wider than binary
        self.slot = _Slots(self)
        self._key = symbols

    def arity(self, symbol):
        if symbol not in self.arities:
            raise UnknownSymbol(symbol, self)
        return self.arities[symbol]

    def __contains__(self, symbol):
        return symbol in self.arities

    def __eq__(self, other):
        return isinstance(other, Language) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        inner = ", ".join(f"{n}/{a}" for n, a in self.symbols)
        return f"Language({inner})"


class _Slots(dict):
    """A language's incidence slots, {(symbol name, places): number}, the
    places being the argument positions one element fills in a tuple. Slots
    are numbered in sorted pair order in every window of the language, each
    worked out on first use. key, info and flip map a slot met so far to its
    pair, its (declaration index, arity, unary bit; the first declared unary
    symbol most significant), and the slot of its places read backwards."""

    def __init__(self, language):
        super().__init__()
        self.arities, self.unary = language.arities, language.unary_symbols
        self.declared = {name: k for k, (name, _) in enumerate(language.symbols)}
        self.key, self.info, self.flip = {}, {}, {}
        self.offset, base = {}, 0
        for name, arity in sorted(language.symbols):
            self.offset[name], base = base, base + (1 << arity) - 1

    def __missing__(self, key):
        name, places = key
        k, unary = self.arities[name], self.unary
        # the rank of places among the nonempty subsets of range(k) in tuple order
        s, lo = self.offset[name] + len(places) - 1, 0
        for p in places:
            s, lo = s + (1 << k - lo) - (1 << k - p), p + 1
        self[key], self.key[s] = s, key
        bit = 1 << len(unary) - 1 - unary.index(name) if name in unary else 0
        self.info[s] = (self.declared[name], k, bit)
        self.flip[s] = self[name, tuple(sorted(k - 1 - p for p in places))]
        return s


class Structure:
    """A finite window: elements, tuples, and a frontier of truncated elements.

    `tuples` is any iterable of (symbol, argument sequence) pairs and is
    consumed once, so a generator streams straight in. Immutable after
    construction. It keeps the sorted ids (`elements`) and their positions
    map, each symbol's sorted tuples (`tuples_by_symbol`, searched by
    bisection), and per-position tables, computed lazily and cached:
    Gaifman rows, incidence and depths (and the id adjacency view);
    recomputation is idempotent, so concurrent readers are safe. The one
    incidence store lists position i's tuples once each as sorted (slot,
    argument positions) pairs (slots: see _Slots); its bulk form and the
    census index (iso._Index) fill from one read of the argument columns.
    Rows and entries are read per position until an eighth of the window
    has one (see _Local); then the whole table is built in one pass. A
    search reads its centre's depth off its own layers (see _reach).
    """

    def __init__(self, language, elements, tuples, frontier=()):
        if not isinstance(language, Language):
            language = Language(language)
        self.language = language

        # Each check runs at C level, duplicates and the frontier on the
        # positions map; the loops behind them only name the offending id or
        # tuple, in input order. Sorting the input order keeps sorted input
        # linear.
        elements = list(map(str, elements))
        self.elements = tuple(sorted(elements))
        self._pos = dict(zip(self.elements, range(len(elements))))
        if len(self._pos) != len(elements):
            raise InvariantViolation("elements-unique", "duplicate element ids")
        if not all(map(ELEMENT_RE.match, elements)):
            bad = next(e for e in elements if not ELEMENT_RE.match(e))
            raise InvariantViolation("element-id", f"bad element id {bad!r}")

        frontier = list(map(str, frontier))
        if not all(map(self._pos.__contains__, frontier)):
            bad = next(e for e in frontier if e not in self._pos)
            raise DanglingElement(bad, lookup="frontier list")
        self.frontier = frozenset(frontier)

        # Insertion-ordered dicts deduplicate; sorting their keys, which are
        # in input order, is linear on canonical (sorted) input. Canonical
        # order is (declaration index, argument vector). An empty container,
        # as the bulk constructor passes, needs no id set for its tuples.
        by_symbol = {name: {} for name, _ in language.symbols}
        arities = language.arities
        within = frozenset(self.elements).issuperset if tuples else None
        for symbol, args in tuples:
            args = tuple(args)
            bucket = by_symbol.get(symbol)
            if bucket is None or len(args) != arities[symbol] or not within(args):
                args = self._checked_args(symbol, args)
                bucket = by_symbol[symbol]
            bucket[args] = None
        self._set_tuples(by_symbol)

    @classmethod
    def _from_symbol_lists(cls, language, elements, lists, frontier=()):
        """The structure whose tuples of each symbol are the str tuples in
        lists[symbol], each list checked in bulk; a list the check rejects
        is read again by _checked_args, which raises the constructor's error
        for the same tuples in declaration order.

        The constructor checks and stores the elements and frontier.
        """
        M = cls(language, elements, (), frontier=frontier)
        within = frozenset(M.elements).issuperset  # held for these checks only
        by_symbol = {}
        for name, arity in M.language.symbols:
            ts = lists.get(name, ())
            if not set(map(len, ts)) <= {arity} or not within(chain.from_iterable(ts)):
                ts = [M._checked_args(name, t) for t in ts]
            by_symbol[name] = dict.fromkeys(ts)
        M._set_tuples(by_symbol)
        return M

    def _set_tuples(self, by_symbol):
        """Store the deduplicated tuples, {symbol: {args: None}}, and start
        the derived data empty."""
        self.tuples_by_symbol = {name: tuple(sorted(ts)) for name, ts in by_symbol.items()}

        self._nbrs = None  # _Local, then the bulk list once _gaifman() builds it
        self._adj = None
        self._inc = None  # _Local, then the bulk list once _bulk_incidence() builds it
        self._depth = None
        self._searched = 0  # elements visited by depth()'s searches
        self._cache = {}

    def _checked_args(self, symbol, args):
        """Arguments of a tuple that failed the fast checks, converted with
        str(); raises the core exception that names what is wrong."""
        args = tuple(map(str, args))
        if symbol not in self.language.arities:
            raise UnknownSymbol(symbol, self.language)
        if len(args) != self.language.arities[symbol]:
            raise ArityMismatch(symbol, self.language.arities[symbol], len(args))
        for a in args:
            if a not in self._pos:
                raise DanglingElement(a, (symbol, args))
        return args

    # -- basic queries ---------------------------------------------------

    def __contains__(self, element):
        return element in self._pos

    def __len__(self):
        return len(self.elements)

    def tuples_of(self, symbol):
        if symbol not in self.language.arities:
            raise UnknownSymbol(symbol, self.language)
        return self.tuples_by_symbol[symbol]

    def has_tuple(self, symbol, args):
        if symbol not in self.language.arities:
            raise UnknownSymbol(symbol, self.language)
        args = tuple(args)
        try:
            return self._holds(symbol, args)
        except TypeError:  # an argument that no str id compares with
            return False

    def _holds(self, symbol, args):
        """Whether the window holds symbol(args), by bisection of the
        symbol's sorted tuple list."""
        ts = self.tuples_by_symbol[symbol]
        i = bisect_left(ts, args)
        return i < len(ts) and ts[i] == args

    def all_tuples(self):
        for name, _ in self.language.symbols:
            for t in self.tuples_by_symbol[name]:
                yield name, t

    def tuple_count(self):
        return sum(len(ts) for ts in self.tuples_by_symbol.values())

    def unary_profile(self, element):
        """Tuple of 0/1 flags, one per unary symbol in declaration order."""
        self._position(element, "profile lookup")
        return tuple(
            1 if self._holds(name, (element,)) else 0 for name in self.language.unary_symbols
        )

    # -- derived maps ----------------------------------------------------

    def _positions(self):
        """The window's one id-to-position map, over the sorted self.elements
        (so int order is id order); built by the constructor, it also
        answers membership."""
        return self._pos

    def _position(self, element, lookup):
        """The element's position; DanglingElement naming `lookup` if the
        window does not hold it."""
        try:
            return self._pos[element]
        except KeyError:
            raise DanglingElement(element, lookup=lookup) from None

    def _local(self, store):
        """Whether an entry missing from a per-position store is read on its
        own: while no symbol is wider than binary and fewer than an eighth
        of the positions have one. Otherwise the whole table is built."""
        return self.language.narrow and len(store) * 8 < len(self.elements)

    def _gaifman(self):
        """The int Gaifman index: nbrs[i] is the sorted tuple of positions
        co-occurring with position i in some tuple."""
        if type(self._nbrs) is not list:
            pos = self._pos
            nbrs = [set() for _ in self.elements]
            for name, arity in self.language.symbols:
                ts = self.tuples_by_symbol[name]
                if arity == 1:
                    continue
                if arity == 2:
                    for a, b in ts:
                        if a != b:
                            i, j = pos[a], pos[b]
                            nbrs[i].add(j)
                            nbrs[j].add(i)
                    continue
                for t in ts:
                    distinct = {pos[a] for a in t}
                    if len(distinct) < 2:
                        continue
                    for i in distinct:
                        nbrs[i].update(distinct)
                        nbrs[i].discard(i)
            self._nbrs = [tuple(sorted(s)) for s in nbrs]
        return self._nbrs

    def _binary_at(self, name, e):
        """(binary `name`'s tuples with e first, those with e second), by
        bisection of the sorted list and of a copy sorted by the second
        argument: the one local read for rows and store entries."""
        ts = self.tuples_by_symbol[name]
        lo = bisect_left(ts, e, key=_first)
        out = ts[lo : bisect_right(ts, e, lo, key=_first)]
        key = ("by second", name)
        ts = self._cache.get(key)
        if ts is None:
            ts = self._cache[key] = sorted(self.tuples_by_symbol[name], key=_second)
        lo = bisect_left(ts, e, key=_second)
        return out, ts[lo : bisect_right(ts, e, lo, key=_second)]

    def _row(self, i):
        """_gaifman()[i] read on its own, over unary and binary symbols:
        from the element's tuples found by _binary_at."""
        e = self.elements[i]
        found = set()
        for name, arity in self.language.symbols:
            if arity == 2:
                out, into = self._binary_at(name, e)
                found.update(map(_second, out))
                found.update(map(_first, into))
        found.discard(e)
        return tuple(map(self._pos.__getitem__, sorted(found)))

    def _rows(self):
        """The row store, indexed by position: the bulk index once it is
        built, and before that a _Local of the rows read so far. A search
        may keep using the store it was handed."""
        if self._nbrs is None:
            self._nbrs = _Local(self, Structure._row, Structure._gaifman)
        return self._nbrs

    def adjacency(self):
        """Gaifman adjacency: u ~ v iff they co-occur in some tuple.

        An id-keyed view of the int index, built on first call.
        """
        if self._adj is None:
            elements = self.elements
            at = elements.__getitem__
            self._adj = {e: tuple(map(at, nb)) for e, nb in zip(elements, self._gaifman())}
        return self._adj

    def incident(self, element):
        """All tuples containing the element, as (symbol, args) pairs:
        symbols in declaration order, each symbol's tuples in sorted order.

        An id-keyed view of the element's store entry, made on each call.
        """
        entry = self._incidence()[self._position(element, "incidence lookup")]
        info, at = self.language.slot.info, self.elements.__getitem__
        found = sorted([(info[s][0], t) for s, t in entry])  # positions sort as ids
        return tuple([(self.language.symbols[k][0], tuple(map(at, t))) for k, t in found])

    def _incidence(self):
        """The incidence store by position, as _rows() is for rows: the bulk
        list, or a _Local of the entries read so far."""
        if self._inc is None:
            self._inc = _Local(self, Structure._entry, Structure._bulk_incidence)
        return self._inc

    def _entry(self, i):
        """_incidence()[i] read on its own, over unary and binary symbols:
        from the element's unary memberships and its tuples found by
        _binary_at."""
        e = self.elements[i]
        pos, slot = self._pos, self.language.slot
        entry = []
        for name, arity in self.language.symbols:
            if arity == 1:
                if self._holds(name, (e,)):
                    entry.append((slot[name, (0,)], (i,)))
                continue
            out, into = self._binary_at(name, e)
            for _, y in out:
                j = pos[y]
                entry.append((slot[name, (0,) if j != i else (0, 1)], (i, j)))
            entry += [(slot[name, (1,)], (pos[x], i)) for x, _ in into if x != e]
        entry.sort()
        return tuple(entry)

    def _incidence_columns(self):
        """The window's incidence read by argument columns: {slot key
        (symbol name, places): (position, argument positions) pairs} over
        the keys that occur. Each key's pairs come in tuple order, so
        filling per-position lists key by key in sorted key order sorts
        every position's entries. A unary or binary symbol's argument
        columns are mapped to positions once, and its pairs are iterators,
        read once."""
        pos = self._pos
        entries = {}
        for name, arity in self.language.symbols:
            ts = self.tuples_by_symbol[name]
            if not ts:
                continue
            if arity > 2:
                for t in ts:
                    args = tuple(map(pos.__getitem__, t))
                    for x in set(args):
                        key = (name, tuple([k for k, y in enumerate(args) if y == x]))
                        entries.setdefault(key, []).append((x, args))
                continue
            cols = [list(map(pos.__getitem__, map(itemgetter(k), ts))) for k in range(arity)]
            if arity == 1:
                entries[name, (0,)] = zip(cols[0], zip(cols[0]))
                continue
            pairs = list(zip(*cols))
            moves = [t for t in pairs if t[0] != t[1]]
            loops = [t for t in pairs if t[0] == t[1]]
            if moves:
                entries[name, (0,)] = zip(map(_first, moves), moves)
                entries[name, (1,)] = zip(map(_second, moves), moves)
            if loops:
                entries[name, (0, 1)] = zip(map(_first, loops), loops)
        return entries

    def _bulk_incidence(self):
        """The whole incidence store, filled from _incidence_columns()."""
        if type(self._inc) is not list:
            slot = self.language.slot
            store = [[] for _ in self.elements]
            for key, pairs in sorted(self._incidence_columns().items()):
                s = slot[key]
                for x, args in pairs:
                    store[x].append((s, args))
            self._inc = list(map(tuple, store))
        return self._inc

    def _bfs(self, dist, rows=None):
        """The breadth-first layers around the positions keyed in `dist`,
        one list per next(), the sources first; the window's one search
        over Gaifman rows.

        Each layer lists positions in discovery order (neighbours in int,
        so id, order). dist[v] is set as v is discovered, so after layer L
        is yielded it holds exactly the positions within L; layer L+1 is
        read only when asked for. Rows come from `rows` when given, else
        from _rows() afresh at each layer, which the bulk index may replace.
        """
        layer, d = list(dist), 0
        while layer:
            yield layer
            nbrs = self._rows() if rows is None else rows
            d += 1
            nxt = []
            for u in layer:
                for v in nbrs[u]:
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            layer = nxt

    def _distance_list(self, starts):
        """Per-position distance to the nearest of the positions in `starts`,
        math.inf where unreached: the whole-window search of distances(),
        as a list."""
        dist = dict.fromkeys(starts, 0)
        for _ in self._bfs(dist, self._gaifman()):
            pass
        return list(map(dist.get, range(len(self.elements)), repeat(math.inf)))

    def distances(self, sources, limit=None):
        """Gaifman distance to the nearest source, for every element within
        `limit` of one (every reachable element when limit is None).

        One _bfs over the int rows (the bulk index without a limit). The
        dict lists elements in discovery order, sources first, as a FIFO
        queue over adjacency() meets them; ball_elements and the step words
        of symmetry rely on that order. A negative limit is rejected.
        """
        if limit is not None and limit < 0:
            raise InvariantViolation("radius", f"negative radius {limit}")
        dist = dict.fromkeys([self._position(e, "distance source") for e in sources], 0)
        rows = self._gaifman() if limit is None else None
        for d, _ in enumerate(self._bfs(dist, rows)):
            if limit is not None and d >= limit:
                break
        return dict(zip(map(self.elements.__getitem__, dist), dist.values()))

    def _depth_list(self):
        """Depth of each position, from one int BFS over the whole window."""
        if self._depth is None:
            self._depth = self._distance_list(map(self._pos.__getitem__, self.frontier))
        return self._depth

    def depths(self):
        """Distance from each element to the nearest frontier element.

        math.inf everywhere when the frontier is empty (closed window). An
        id-keyed view of the position list, built on each call.
        """
        return dict(zip(self.elements, self._depth_list()))

    def _reach(self, i, h):
        """(dist, depth) from one _bfs around position i, run to radius h or
        to the first layer holding a frontier element, whichever is nearer:
        dist holds the positions reached, each at its distance, and depth is
        that layer's radius, h, or math.inf when the search runs out of
        positions first. Below h, depth is position i's depth.
        """
        frontier, at = self.frontier, self.elements.__getitem__
        dist = {i: 0}
        for d, layer in enumerate(self._bfs(dist)):
            if d >= h or frontier and not frontier.isdisjoint(map(at, layer)):
                return dist, d
        return dist, math.inf  # the component holds no frontier element

    def depth(self, element):
        """Distance from the element to the nearest frontier element, by a
        search that stops at the first frontier layer (see _reach); once
        these searches have visited as many elements as the window holds,
        from the depth list, so asking for every depth stays linear."""
        i = self._position(element, "depth lookup")
        if self._depth is not None or self._searched >= len(self.elements):
            return self._depth_list()[i]
        if not self.frontier:
            return math.inf
        dist, d = self._reach(i, math.inf)
        self._searched += len(dist)
        return d

    def is_closed(self):
        return not self.frontier

    def max_depth(self):
        """Largest depth over elements; -1 on the empty structure."""
        if not self.elements:
            return -1
        return max(self._depth_list())

    def deepest_element(self):
        """Canonical anchor: lexicographically least element of maximal depth."""
        if not self.elements:
            raise InvariantViolation("nonempty", "empty structure has no anchor")
        depths = self._depth_list()
        return self.elements[depths.index(max(depths))]  # positions follow id order

    def faithful_elements(self, h):
        """Elements whose h-ball is certified by the window (h >= 0)."""
        if h < 0:
            raise InvariantViolation("radius", f"negative radius {h}")
        return [e for e, d in zip(self.elements, self._depth_list()) if d >= h]

    def is_connected(self):
        return len(self.distances(self.elements[:1])) == len(self.elements)

    def local_finiteness_witness(self):
        """(max |B(u,1)|, witness u) over interior elements; (0, None) if none.

        The bound for the represented infinite structure is only certified at
        interior elements, where the 1-neighborhood is complete.
        """
        best, witness = 0, None
        # sorted, so the first maximum is the witness
        for e, nb, d in zip(self.elements, self._gaifman(), self._depth_list()):
            if d < 1:
                continue
            if len(nb) + 1 > best:
                best, witness = len(nb) + 1, e
        return best, witness

    # -- balls -------------------------------------------------------------

    def ball_elements(self, center, h):
        """BFS element set of B(center, h), without the faithfulness check;
        a negative h is rejected by distances()."""
        if center not in self._pos:
            raise DanglingElement(center, lookup="ball centre")
        return self.distances((center,), h)

    def ball(self, center, h):
        """Extract (B(center,h), center) as a standalone closed structure.

        Answered locally, by one search around the centre (see _reach),
        which stops at radius h or, below h, at the first frontier layer,
        whose radius the error names; the ball is read from the rows and
        incidence entries of its members. No whole-window table is built
        unless the window is mostly read already.
        """
        i = self._position(center, "ball centre")
        h = int(h)
        if h < 0:
            raise InvariantViolation("radius", f"negative radius {h}")
        members, d = self._reach(i, h)
        if d < h:
            raise UnfaithfulRadius(center, h, d)
        sub = self.restrict(map(self.elements.__getitem__, members), frontier=())
        return PointedBall(structure=sub, center=center, radius=h)

    def restrict(self, members, frontier):
        """Induced substructure on a member set with an explicit frontier,
        read from the members' store entries: each tuple inside the set
        once, from the entry of its first argument."""
        inside = {self._position(e, "restrict member") for e in members}
        keys, inc = self.language.slot.key, self._incidence()
        at = self.elements.__getitem__
        lists = {name: [] for name, _ in self.language.symbols}
        within = inside.issuperset
        for i in inside:
            for s, t in inc[i]:
                if t[0] == i and within(t):
                    lists[keys[s][0]].append(tuple(map(at, t)))
        return Structure._from_symbol_lists(self.language, map(at, inside), lists, frontier)

    # -- equality ----------------------------------------------------------

    def content_key(self):
        return (
            self.language._key,
            self.elements,
            tuple(sorted(self.frontier)),
            tuple((n, self.tuples_by_symbol[n]) for n, _ in self.language.symbols),
        )

    def __eq__(self, other):
        return isinstance(other, Structure) and self.content_key() == other.content_key()

    def __hash__(self):
        return hash(self.content_key())

    def __repr__(self):
        return (
            f"Structure(|elements|={len(self.elements)}, "
            f"|tuples|={self.tuple_count()}, |frontier|={len(self.frontier)})"
        )


class _Local(dict):
    """A window's rows or incidence entries read so far, {position: entry}.
    A missing one is read and kept by read(window, i), Structure._row or
    _entry, while the window's _local allows, else taken from the table
    bulk(window) builds whole, _gaifman or _bulk_incidence. The window is
    held weakly, so the two form no reference cycle."""

    __slots__ = ("window", "read", "bulk")

    def __init__(self, window, read, bulk):
        super().__init__()
        self.window = weakref.ref(window)
        self.read, self.bulk = read, bulk

    def __missing__(self, i):
        M = self.window()
        if not M._local(self):
            return self.bulk(M)[i]
        self[i] = entry = self.read(M, i)
        return entry


@dataclass(frozen=True)
class PointedBall:
    """A ball extracted as a standalone closed structure, pointed at center."""

    structure: Structure
    center: str
    radius: int

    def __post_init__(self):
        if self.center not in self.structure:
            raise InvariantViolation("ball-center", "center must belong to the ball")

    def __len__(self):
        return len(self.structure)


def validate_structure(spec):
    """Build and validate a Structure from a raw description.

    Accepts a Structure (revalidated by copy) or a mapping with keys
    'language', 'elements', 'tuples', 'frontier'.
    """
    if isinstance(spec, Structure):
        return Structure(
            spec.language,
            spec.elements,
            list(spec.all_tuples()),
            frontier=spec.frontier,
        )
    return Structure(
        spec["language"],
        spec.get("elements", ()),
        spec.get("tuples", ()),
        frontier=spec.get("frontier", ()),
    )


def faithful_radius(M, u):
    """depth(u): ball(M, u, h) succeeds exactly when h <= depth(u)."""
    return M.depth(u)
