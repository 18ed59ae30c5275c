"""Shared builders and independent oracles.

The oracles here are deliberately naive: brute-force enumeration over all
maps, BFS by hand over shared-tuple adjacency. They exist so that the
library's engines are checked against something with no shared code.
"""

import itertools
import math
import re
from collections import Counter

import pytest

from locis.core import ELEMENT_RE, Language, Structure
from locis.errors import BadAddressEntry, InvariantViolation, ParseError
from locis.iso import EngineResult

LANG2 = Language([("P", 2), ("Q", 2)])


def mk(tuples, n=None, frontier=(), language=LANG2):
    """Small closed structure over `language` with elements 0..n-1."""
    if n is None:
        n = 0
        for _, args in tuples:
            for a in args:
                n = max(n, int(a) + 1)
    return Structure(
        language,
        [str(i) for i in range(n)],
        tuples,
        frontier=frontier,
    )


_SYMBOL_LINE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)/(\d+)\Z")
_TUPLE_LINE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\((.*)\)\Z")


def reference_loads(text):
    """Structure file parser, one line at a time over text.splitlines().

    The grammar of locis.textio spelled out line by line: the first error in
    document order wins, and every syntax error precedes the core exceptions
    the Structure constructor raises.
    """
    header = "%locis structure v1"
    symbols, elements, frontier, tuples = [], [], [], []
    section, saw_header, seen_sections = None, False, []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != header:
                raise ParseError(line_no, raw, f"expected header {header!r}")
            saw_header = True
            continue
        if line.endswith(":"):
            name = line[:-1]
            if name not in ("language", "elements", "frontier", "tuples"):
                raise ParseError(line_no, raw, f"unknown section {name!r}")
            if name in seen_sections:
                raise ParseError(line_no, raw, f"duplicate section {name!r}")
            seen_sections.append(name)
            section = name
            continue
        if section is None:
            raise ParseError(line_no, raw, "entry before any section")
        if section == "language":
            m = _SYMBOL_LINE.match(line)
            if not m:
                raise ParseError(line_no, raw, "expected name/arity")
            symbols.append((m.group(1), int(m.group(2))))
        elif section in ("elements", "frontier"):
            if not ELEMENT_RE.match(line):
                raise ParseError(line_no, raw, "bad element id")
            (elements if section == "elements" else frontier).append(line)
        else:
            m = _TUPLE_LINE.match(line)
            if not m:
                raise ParseError(line_no, raw, "expected symbol(elem,...)")
            args = m.group(2).split(",") if m.group(2) else []
            for a in args:
                if not ELEMENT_RE.match(a):
                    raise ParseError(line_no, raw, f"bad element id {a!r} in tuple")
            tuples.append((m.group(1), args))
    if not saw_header:
        raise ParseError(0, "", "empty document")
    if "language" not in seen_sections:
        raise ParseError(0, "", "missing language section")
    return Structure(Language(symbols), elements, tuples, frontier=frontier)


def bfs_ball(M, center, h):
    """Ball elements by direct BFS over shared-tuple adjacency."""
    seen = {center: 0}
    frontier = [center]
    for d in range(1, h + 1):
        nxt = []
        for u in frontier:
            for name, _ in M.language.symbols:
                for t in M.tuples_of(name):
                    if u in t:
                        for v in t:
                            if v not in seen:
                                seen[v] = d
                                nxt.append(v)
        frontier = nxt
    return set(seen)


def colored_line(rng, n, colors, cycle=False, frontier=()):
    """A Succ path (or cycle) on n elements, each with one of `colors`
    unary colors drawn from rng."""
    lang = Language([("Succ", 2)] + [(f"C{c}", 1) for c in range(colors)])
    ids = [f"v{i:03d}" for i in range(n)]
    rng.shuffle(ids)  # id order differs from position order
    tuples = [("Succ", (ids[i], ids[i + 1])) for i in range(n - 1)]
    if cycle:
        tuples.append(("Succ", (ids[-1], ids[0])))
    tuples += [(f"C{rng.randrange(colors)}", (e,)) for e in ids]
    return Structure(lang, ids, tuples, frontier=[ids[i] for i in frontier])


def reference_distances(M, sources, limit=None):
    """Gaifman distances by the id-keyed breadth-first search over
    adjacency(), in discovery order, sources first."""
    adj = M.adjacency()
    dist = dict.fromkeys(sources, 0)
    layer, d = list(dist), 0
    while layer and (limit is None or d < limit):
        d += 1
        nxt = []
        for u in layer:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        layer = nxt
    return dist


def reference_incident(M):
    """{element: its incident tuples}, each element's found by scanning every
    tuple of the window: symbols in declaration order, each symbol's tuples
    in sorted order."""
    return {e: tuple((name, t) for name, t in M.all_tuples() if e in t) for e in M.elements}


def reference_store(M):
    """M's incidence store as a list by position, read from
    reference_incident: each tuple of an element as (slot, argument
    positions), slot ranking the pairs (symbol name, places of the element
    in the tuple) over every nonempty set of places of every symbol, and
    each element's entries sorted."""
    keys = sorted(
        (name, places)
        for name, arity in M.language.symbols
        for size in range(1, arity + 1)
        for places in itertools.combinations(range(arity), size)
    )
    rank = {key: s for s, key in enumerate(keys)}
    pos = M._positions()
    inc = reference_incident(M)
    return [
        tuple(sorted(
            (rank[name, tuple(k for k, x in enumerate(t) if x == e)], tuple(pos[x] for x in t))
            for name, t in inc[e]
        ))
        for e in M.elements
    ]


def reference_restrict(M, members, frontier):
    """Induced substructure read from the whole-window incidence table."""
    members = set(members)
    inc = reference_incident(M)
    tuples = [
        (name, t) for e in members for name, t in inc[e] if all(a in members for a in t)
    ]
    return Structure(M.language, members, tuples, frontier=frontier)


def reference_linear_layout(M):
    """(kind, element ids along the walk) of a directed path or cycle window,
    detected over id-keyed successor and predecessor dicts; None when M is
    not one (the conditions of iso._linear_layout)."""
    binaries = [n for n, a in M.language.symbols if a == 2]
    if len(binaries) != 1 or any(a > 2 for _, a in M.language.symbols):
        return None
    sym = binaries[0]
    succ = {}
    pred = {}
    for x, y in M.tuples_of(sym):
        if x == y or x in succ or y in pred:
            return None
        succ[x] = y
        pred[y] = x
    n = len(M.elements)
    if not M.elements:
        return None
    heads = [e for e in M.elements if e not in pred]
    if len(heads) == 1:
        order = [heads[0]]
        while order[-1] in succ:
            order.append(succ[order[-1]])
            if len(order) > n:
                return None
        if len(order) != n:
            return None
        return "path", order
    if not heads and len(M.tuples_of(sym)) == n:
        start = M.elements[0]
        order = [start]
        while True:
            nxt = succ.get(order[-1])
            if nxt is None or len(order) > n:
                return None
            if nxt == start:
                break
            order.append(nxt)
        if len(order) != n:
            return None
        return "cycle", order
    return None


def reference_linear_class_keys(M, h, kind, order, word):
    """Exact h-class keys of a path or cycle window's faithful elements,
    keyed by element: the offset of the centre and the clipped word around
    it on a path, the word around it (or the whole rotation) on a cycle."""
    n = len(order)
    depths = M.depths()
    keys = {}
    if kind == "path":
        for i, e in enumerate(order):
            if depths[e] < h:
                continue
            lo = i - h if i > h else 0
            keys[e] = (i - lo, word[lo : i + h + 1])
    else:
        doubled = word + word
        for i, e in enumerate(order):
            if depths[e] < h:
                continue
            if 2 * h + 1 >= n:
                keys[e] = ("wrap", doubled[i : i + n])
            else:
                start = (i - h) % n
                keys[e] = (h, doubled[start : start + 2 * h + 1])
    return keys


def reference_forest_parent(M):
    """Id-keyed parent map {child: (parent, symbol index)} of a uniform
    labeled forest; None when M is not one (the conditions of
    iso._forest_layout)."""
    symbols = M.language.symbols
    if not symbols or M.language.unary_symbols or any(a != 2 for _, a in symbols):
        return None
    parent, child_slots = {}, set()
    for si, (name, _) in enumerate(symbols):
        for p, c in M.tuples_of(name):
            if c in parent or (p, si) in child_slots:
                return None
            parent[c] = (p, si)
            child_slots.add((p, si))
    depths = M.depths()
    for e in M.elements:
        if depths[e] >= 1 and (
            e not in parent or any((e, si) not in child_slots for si in range(len(symbols)))
        ):
            return None
    return parent


def reference_tiling_parent(M):
    """Id-keyed slot map of a two-relation tiling window, or None.

    parent maps each tile whose slot is witnessed inside the window to
    (level successor, 0 when its row successor shares it, 1 when its row
    predecessor does); forked holds the tiles with two level predecessors.
    Returns (parent, forked) under the conditions of iso._tiling_layout.
    """
    syms = M.language.symbols
    if len(syms) != 2 or M.language.unary_symbols or any(a != 2 for _, a in syms):
        return None
    for (a_name, _), (r_name, _) in (syms, syms[::-1]):
        levels, rows = M.tuples_of(a_name), M.tuples_of(r_name)
        a_out = dict(levels)
        a_in = Counter(v for _, v in levels)
        if len(a_out) < len(levels) or 2 not in a_in.values() or max(a_in.values()) > 2:
            continue
        if len({u for u, _ in rows}) < len(rows) or len({v for _, v in rows}) < len(rows):
            continue
        parent = {}
        for u, v in rows:
            p = a_out.get(u)
            if p is not None and a_out.get(v) == p:
                parent[u] = (p, 0)
                parent.setdefault(v, (p, 1))
        return parent, {v for v, links in a_in.items() if links == 2}
    return None


def reference_chain_words(M, length):
    """({element: its first `length` chain labels}, forked elements), or None.

    The chain is a forest's parent map, or else a tiling's slot map, each
    walked through id-keyed dicts; forked follows the chain of iso._layout
    (every element of a forest over two or more symbols).
    """
    parent = reference_forest_parent(M)
    if parent is not None:
        forked = set(M.elements) if len(M.language.symbols) >= 2 else set()
    else:
        tiling = reference_tiling_parent(M)
        if tiling is None:
            return None
        parent, forked = tiling
    words = {}
    for e in M.elements:
        word, x = [], e
        while len(word) < length and x in parent:
            x, label = parent[x]
            word.append(label)
        words[e] = word
    return words, forked


def reference_forest_class_keys(M, h, extended=False):
    """Upward label words of length h, each walked afresh through an
    id-keyed parent map; None when M is not a uniform labeled forest (the
    conditions of iso._forest_layout) or when some element's parent chain
    loops. A ball around a loop is not a tree, its upward word does not
    decide it, and iso.class_ids reads such a window on the generic path."""
    parent = reference_forest_parent(M)
    if parent is None:
        return None
    for e in M.elements:
        seen, x = set(), e
        while x in parent and x not in seen:
            seen.add(x)
            x = parent[x][0]
        if x in seen:
            return None
    depths = M.depths()
    keys = {}
    for e in M.elements:
        if not extended and depths[e] < h:
            continue
        word, x = [], e
        while len(word) < h and x in parent:
            x, label = parent[x]
            word.append(label)
        if len(word) == h:
            keys[e] = tuple(word)
    return keys


# ---------------------------------------------------------------------------
# Set-based generators: every tile or node is a tuple key, its neighbours
# are looked up in a set or dict one by one, and tuples go through the
# per-tuple Structure constructor. locis.generators builds the same windows
# by range arithmetic.


def reference_index(M):
    """(slots, template, counts) of iso._Index as built one tuple at a time:
    each tuple gives each of its distinct elements the entry (key, args),
    key = (symbol name, places of the element), and every element's entries
    are sorted by key and args."""
    pos = M._positions()
    keyed = [[] for _ in M.elements]
    for name, _ in M.language.symbols:
        for t in M.tuples_of(name):
            args = tuple(pos[x] for x in t)
            for x in set(args):
                key = (name, tuple(i for i, y in enumerate(args) if y == x))
                keyed[x].append((key, args))
    keys = sorted({key for ks in keyed for key, _ in ks})
    unary = M.language.unary_symbols
    sym = {name: i for i, (name, _) in enumerate(M.language.symbols)}
    slots = [
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
        ks.sort()
    template = [[x for key, args in ks for x in (marker[key], *args)] for ks in keyed]
    return slots, template, [len(ks) for ks in keyed]


def reference_raw_words(M, center, h):
    """(raw words, members, edge) of iso._Index.words, read from a template
    list per element: each member's template is scanned int by int for new
    arguments, and its words are its distance, its entry count and its
    template mapped through the member numbers (-1 outside the ball)."""
    slots, template, counts = reference_index(M)
    n = len(M.elements)
    label = [-1] * n + list(range(len(slots)))
    label[center] = 0
    members = [center]
    m = 1
    words = []
    lo, d = 0, 0
    while d < h and lo < m:
        hi = m
        for u in members[lo:hi]:
            for x in template[u]:
                if label[x] < 0:
                    label[x] = m
                    m += 1
                    members.append(x)
            words += (d, counts[u])
            words += [label[x] for x in template[u]]
        lo, d = hi, d + 1
    edge = len(words)
    for u in members[lo:]:
        words += (d, counts[u])
        words += [label[x] for x in template[u]]
    return words, m, edge


def reference_refine(colors, inc):
    """One round of color refinement over inc[u] = [(slot, args)]: each
    element's key is its color and its sorted (slot, *argument colors)
    entries, and the new colors rank the distinct keys."""
    keys = [
        (colors[u], tuple(sorted([(s, *[colors[x] for x in args]) for s, args in entries])))
        for u, entries in enumerate(inc)
    ]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys], len(rank)


def reference_words(M, center, h):
    """The exact-form words of the h-ball around position `center`, built
    from reference_index: members numbered in slot-ordered discovery, and
    members at distance h keeping only the entries inside the ball."""
    slots, template, counts = reference_index(M)
    n = len(M.elements)
    label = {center: 0}
    members = [center]
    layers = [[center]]
    while len(layers) <= h:
        layer = []
        for u in layers[-1]:
            for x in template[u]:
                if x < n and x not in label:
                    label[x] = len(members)
                    members.append(x)
                    layer.append(x)
        if not layer:
            break
        layers.append(layer)
    words = []
    for d, layer in enumerate(layers):
        for u in layer:
            block, j, kept = template[u], 0, []
            while j < len(block):
                s = block[j] - n
                args = block[j + 1 : j + 1 + slots[s][1]]
                j += 1 + len(args)
                if all(x in label for x in args):
                    kept.append([s] + [label[x] for x in args])
            words += [d, len(kept)]
            for entry in kept:
                words += entry
    return words


def reference_gen_kary_tree(k, address, depth, halo=14):
    """Window of the k-ary tree: ancestor chain following the address plus a
    complete ball region around the anchor.

    The window contains the anchor's ancestors c0..c<depth> and every tree
    node within distance halo of the anchor. Tuples P_i(parent, child) mark
    the i-th child edge. Frontier is computed exactly: a node is frontier
    iff its parent or any of its k children is missing.
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

    # Nodes are (j, word): start at the anchor's j-th ancestor, then follow
    # child labels in word. Canonical form requires word[0] != addr[j-1]
    # (otherwise the node re-enters the chain lower down). Ids extend the
    # parent's: c{j}, then c{j}.{i}, then c{j}.{i}-{i'}-...
    ids = {(j, ()): f"c{j}" for j in range(depth + 1)}
    top = min(halo, depth)
    for j in range(top + 1):
        budget = halo - j
        if budget <= 0:
            continue
        stack = [((), f"c{j}.")]
        while stack:
            word, stem = stack.pop()
            if len(word) >= budget:
                continue
            for i in range(1, k + 1):
                if not word and j >= 1 and i == addr[j - 1]:
                    continue
                nw = word + (i,)
                name = f"{stem}{i}"
                ids[j, nw] = name
                stack.append((nw, name + "-"))

    def parent_of(node):
        j, word = node
        if word:
            return (j, word[:-1])
        if j >= depth:
            return None  # above the window
        return (j + 1, ())

    def child_of(node, i):
        j, word = node
        if not word and j >= 1 and i == addr[j - 1]:
            return (j - 1, ())
        return (j, word + (i,))

    language = Language([(f"P{i}", 2) for i in range(1, k + 1)])
    tuples = []
    frontier = []
    for node in ids:
        j, word = node
        missing = False
        par = parent_of(node)
        if par is None or par not in ids:
            missing = True
        else:
            label = word[-1] if word else addr[j]
            tuples.append((f"P{label}", (ids[par], ids[node])))
        for i in range(1, k + 1):
            if child_of(node, i) not in ids:
                missing = True
        if missing:
            frontier.append(ids[node])
    return Structure(language, ids.values(), tuples, frontier=frontier)


def reference_gen_binary_hyperbolic(address, levels, half_width, support_radius=10):
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
    """
    levels = int(levels)
    W = int(half_width)
    R = int(support_radius)
    if levels < 1 or W < 1 or R < 1:
        raise InvariantViolation("extent", "levels, half_width, support_radius must be >= 1")

    a = {}
    for n in range(1, levels + 1):
        e = address.entry(n - 1)
        if e not in (0, 1):
            raise BadAddressEntry(n - 1, e)
        a[n] = e
    for n in range(-R, 1):
        a[n] = 0

    tiles = set()
    for n in range(0, levels + 1):
        w = max(W >> n, R) + 2
        for m in range(-w, w + 1):
            tiles.add((n, m))
    for j in range(1, R + 1):
        lo = -(R + 1) * (1 << j)
        hi = (R + 2) * (1 << j)
        for m in range(lo, hi + 1):
            tiles.add((-j, m))

    def parent_of(t):
        n, m = t
        an1 = a.get(n + 1)
        if an1 is None:
            return None  # above the top level: the parent offset is unknown
        return (n + 1, (m + an1) // 2)

    def children_of(t):
        n, m = t
        an = a.get(n)
        if an is None:
            return ()
        return ((n - 1, 2 * m - an), (n - 1, 2 * m - an + 1))

    ids = {t: f"L{t[0]}o{t[1]}" for t in tiles}
    language = Language([("Above", 2), ("Right", 2)])
    tuples = []
    frontier = []
    for t in tiles:
        n, m = t
        missing = False
        par = parent_of(t)
        if par is not None and par in tiles:
            tuples.append(("Above", (ids[t], ids[par])))
        else:
            missing = True
        kids = children_of(t)
        if len(kids) != 2 or any(c not in tiles for c in kids):
            missing = True
        right = (n, m + 1)
        if right in tiles:
            tuples.append(("Right", (ids[t], ids[right])))
        else:
            missing = True
        if (n, m - 1) not in tiles:
            missing = True
        if missing:
            frontier.append(ids[t])
    return Structure(language, ids.values(), tuples, frontier=frontier)


def groupings(tokens):
    """The partition of a token map's keys into classes of equal tokens."""
    classes = {}
    for e, t in tokens.items():
        classes.setdefault(t, set()).add(e)
    return sorted(sorted(c) for c in classes.values())


def reversed_structure(M):
    """M with every tuple's arguments reversed; elements and frontier kept."""
    return Structure(
        M.language, M.elements, [(s, t[::-1]) for s, t in M.all_tuples()], frontier=M.frontier
    )


def on_loop(par, j):
    """True when position j's ancestor chain, par[j], par[par[j]], ...,
    never reaches a root (-1)."""
    seen = set()
    while j >= 0 and j not in seen:
        seen.add(j)
        j = par[j]
    return j >= 0


def reference_layer_summary(M, layer, dist, level):
    """The engine's layer precheck over ids: the Counter of unary profiles
    of the layer, and per symbol the number of tuples whose arguments all
    lie within `level` and whose least argument at `level` is in the
    layer."""
    profiles = Counter(M.unary_profile(u) for u in layer)
    tuples = Counter()
    for u in layer:
        for sym, t in M.incident(u):
            if all(dist.get(x, math.inf) <= level for x in t):
                if min(x for x in t if dist[x] == level) == u:
                    tuples[sym] += 1
    return profiles, tuples


def _grow_layers(M, center, limit):
    """The BFS layers of B(center, limit), each sorted, and the distances."""
    dist = reference_distances(M, (center,), limit)
    layers = [[] for _ in range(max(dist.values()) + 1)]
    for u, d in dist.items():
        layers[d].append(u)
    for layer in layers:
        layer.sort()
    return layers, dist


def reference_windowed_pointed_iso(M, a, N, b, target_radius, reverse=False):
    """The layered engine with full-layer candidates.

    Every unassigned v of u's layer is tried in sorted order, so it reaches
    the same first leaf and the same deepest completed layer as
    locis.iso.windowed_pointed_iso without drawing candidates from tuples. It
    grows both balls to the full radius and runs every layer precheck before
    it searches, where the library reads a layer only once its search
    reaches it. A precheck mismatch at layer L runs the search through layer
    L-1 only, so the kill radius is the least dead one. A reversed search
    runs forward onto the reversed copy of N, whose depths are N's.
    """
    if reverse:
        N = reversed_structure(N)
    certifiable = min(M.depth(a), N.depth(b), target_radius)
    if certifiable is math.inf:
        certifiable = target_radius
    certifiable = int(certifiable)
    layers_a, dist_a = _grow_layers(M, a, certifiable)
    layers_b, dist_b = _grow_layers(N, b, certifiable)

    def layer(layers, level):
        return layers[level] if level < len(layers) else []

    top = max(len(layers_a), len(layers_b))
    mismatch = next(
        (
            level
            for level in range(top)
            if len(layer(layers_a, level)) != len(layer(layers_b, level))
            or reference_layer_summary(M, layer(layers_a, level), dist_a, level)
            != reference_layer_summary(N, layer(layers_b, level), dist_b, level)
        ),
        None,
    )
    if mismatch is not None:
        effective, stalled = mismatch - 1, False
    else:
        effective = min(certifiable, top - 1)
        stalled = effective < certifiable and len(layers_a) - 1 <= effective
    order = [(u, lv) for lv in range(effective + 1) for u in layers_a[lv]]
    fwd, bwd = {}, {}
    best = [-1]

    def compatible(u, v):
        if M.unary_profile(u) != N.unary_profile(v):
            return False
        for sym, t in M.incident(u):
            if all(x == u or x in fwd for x in t):
                if not N.has_tuple(sym, tuple(v if x == u else fwd[x] for x in t)):
                    return False
        for sym, t in N.incident(v):
            if all(x == v or x in bwd for x in t):
                if not M.has_tuple(sym, tuple(u if x == v else bwd[x] for x in t)):
                    return False
        return True

    def search(idx):
        if idx == len(order):
            return True
        u, level = order[idx]
        for v in layers_b[level]:
            if v in bwd or not compatible(u, v):
                continue
            fwd[u], bwd[v] = v, u
            if idx + 1 == len(order) or order[idx + 1][1] != level:
                best[0] = max(best[0], level)
            if search(idx + 1):
                return True
            del fwd[u], bwd[v]
        return False

    if not search(0):
        return EngineResult("dead", best[0] + 1)
    if mismatch is not None:
        return EngineResult("dead", mismatch)
    if stalled or effective >= target_radius:
        return EngineResult("iso", target_radius, dict(fwd))
    return EngineResult("exhausted", effective, dict(fwd))


def cfi_pair(base_edges):
    """Untwisted and twisted Cai-Fuerer-Immerman graphs over a cubic base graph.

    Each base vertex v gets one vertex m{v}_{k} per even subset S of its
    three edges, and two edge-end vertices a{v}_{e}_0 and a{v}_{e}_1 per
    edge e; m{v}_{k} is joined to a{v}_{e}_1 when e is in S and to a{v}_{e}_0
    otherwise. Base edge e joins a{v}_{e}_i to a{w}_{e}_i, except that the
    twisted copy crosses the two links of the first base edge. Graphs are
    symmetric E/2 relations with no colours; the two copies are not
    isomorphic, yet colour refinement cannot tell them apart.
    """
    lang = Language([("E", 2)])
    edges_at = {}
    for e, (v, w) in enumerate(base_edges):
        edges_at.setdefault(v, []).append(e)
        edges_at.setdefault(w, []).append(e)

    def build(twist):
        elements, tuples = [], []
        for v, es in edges_at.items():
            elements += [f"a{v}_{e}_{i}" for e in es for i in (0, 1)]
            evens = [()] + list(itertools.combinations(es, 2))
            for k, subset in enumerate(evens):
                m = f"m{v}_{k}"
                elements.append(m)
                for e in es:
                    tuples.append(("E", (m, f"a{v}_{e}_{int(e in subset)}")))
        for e, (v, w) in enumerate(base_edges):
            for i in (0, 1):
                tuples.append(("E", (f"a{v}_{e}_{i}", f"a{w}_{e}_{i ^ (twist and e == 0)}")))
        tuples += [("E", (y, x)) for _, (x, y) in tuples]
        return Structure(lang, elements, tuples)

    return build(False), build(True)


def brute_force_pointed_iso(A, a, B, b):
    """Try every bijection with a -> b; True iff one preserves all tuples
    in both directions. Exponential; only for tiny closed structures."""
    ea, eb = list(A.elements), list(B.elements)
    if len(ea) != len(eb):
        return False
    rest_a = [e for e in ea if e != a]
    rest_b = [e for e in eb if e != b]
    for perm in itertools.permutations(rest_b):
        f = {a: b}
        f.update(zip(rest_a, perm))
        ok = True
        for name, _ in A.language.symbols:
            fwd = {tuple(f[x] for x in t) for t in A.tuples_of(name)}
            if fwd != set(B.tuples_of(name)):
                ok = False
                break
        if ok:
            return True
    return False


def brute_pointed_canonical(M, a):
    """Canonical form of (M, a) by trying every relabeling that pins a to 0.

    Two pointed structures are isomorphic iff these keys are equal, by
    construction: the key is the minimum serialized form over all maps.
    """
    others = [e for e in M.elements if e != a]
    best = None
    for perm in itertools.permutations(range(1, len(M.elements))):
        relab = {a: 0}
        relab.update(zip(others, perm))
        key = tuple(
            sorted(
                (name, tuple(relab[x] for x in t))
                for name, t in M.all_tuples()
            )
        )
        if best is None or key < best:
            best = key
    return (len(M.elements), best)


def random_labeled_forest(rng, k):
    """A labeled forest window over k symbols, possibly with loops.

    Each element picks a parent slot (element, symbol) not yet taken, or
    none; a parent may come later in id order or close a loop. Every
    element lacking a parent or a child slot goes on the frontier, so
    the window satisfies the forest layout's conditions.
    """
    n = rng.randrange(1, 30)
    ids = [f"f{i:02d}" for i in range(n)]
    rng.shuffle(ids)
    taken, parent = set(), {}
    for c in ids:
        if rng.random() < 0.15:
            continue
        free = [(p, si) for p in ids for si in range(k) if (p, si) not in taken]
        if free:
            slot = rng.choice(free)
            taken.add(slot)
            parent[c] = slot
    lang = Language([(f"S{si}", 2) for si in range(k)])
    tuples = [(f"S{si}", (p, c)) for c, (p, si) in parent.items()]
    frontier = [
        e for e in ids if e not in parent or any((e, si) not in taken for si in range(k))
    ]
    if rng.random() < 0.5:
        frontier = [e for e in frontier if rng.random() < 0.9]
    return Structure(lang, ids, tuples, frontier=frontier)


def looping_forest_window():
    """Seven elements over S0/2 and S1/2 that the forest layout accepts,
    with the loop f05 -> f24 -> f05: only f05 and f10 are off the frontier.
    Both have upward label words of length 1 ending in S1, but the 1-ball
    of f05 holds 3 elements and that of f10 holds 4."""
    lang = Language([("S0", 2), ("S1", 2)])
    tuples = [
        ("S0", ("f05", "f24")), ("S1", ("f05", "f20")), ("S1", ("f24", "f05")),
        ("S0", ("f10", "f03")), ("S1", ("f10", "f18")), ("S1", ("f11", "f10")),
    ]
    ids = ["f03", "f05", "f10", "f11", "f18", "f20", "f24"]
    return Structure(lang, ids, tuples, frontier=[e for e in ids if e not in ("f05", "f10")])


def enumerate_closed_structures(n_max=2):
    """Every closed structure over {P/2, Q/2} with at most n_max elements."""
    out = []
    for n in range(1, n_max + 1):
        elements = [str(i) for i in range(n)]
        pairs = list(itertools.product(elements, repeat=2))
        slots = [(sym, p) for sym in ("P", "Q") for p in pairs]
        for mask in range(1 << len(slots)):
            tuples = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            out.append(Structure(LANG2, elements, tuples))
    return out


def random_closed_structure(rng, n):
    """Seeded random closed structure over {P/2, Q/2} on n elements."""
    elements = [str(i) for i in range(n)]
    tuples = []
    m = rng.randrange(0, 3 * n)
    for _ in range(m):
        sym = rng.choice(("P", "Q"))
        tuples.append((sym, (rng.choice(elements), rng.choice(elements))))
    return Structure(LANG2, elements, tuples)


@pytest.fixture(scope="session")
def sqrt2():
    from locis.generators import QuadraticIrrational

    return QuadraticIrrational.parse("(0+1*sqrt(2))/1")
