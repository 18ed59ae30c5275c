"""Shared builders and independent oracles.

The oracles here are deliberately naive: brute-force enumeration over all
maps, BFS by hand over shared-tuple adjacency. They exist so that the
library's engines are checked against something with no shared code.
"""

import itertools
import re

import pytest

from locis.core import ELEMENT_RE, Language, Structure
from locis.errors import ParseError

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
                for t in M.tuples_by_symbol[name]:
                    if u in t:
                        for v in t:
                            if v not in seen:
                                seen[v] = d
                                nxt.append(v)
        frontier = nxt
    return set(seen)


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
            fwd = {tuple(f[x] for x in t) for t in A.tuples_by_symbol[name]}
            if fwd != set(B.tuples_by_symbol[name]):
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
