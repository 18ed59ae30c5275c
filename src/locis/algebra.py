"""Word navigation over relations, equational and regularity checks,
quotients by finite automorphism groups.

A step (R,i,j) moves from x to the unique y appearing at position j of an
R-tuple whose position i holds x. Words compose steps left to right. The
checks here are exhaustive up to a stated word length, with anchors
restricted to elements deep enough that absence of an image reflects the
structure rather than the window edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Structure
from .errors import (
    GroupClosureExceedsBound,
    InvariantViolation,
    LanguageMismatch,
    NonClosedWindow,
    NotAutomorphism,
    NotEquational,
    NotFunctional,
    ParseError,
    VerificationFailed,
)

_STEP_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*):(\d+)>(\d+)\Z")


@dataclass(frozen=True)
class Step:
    """One relational move: position i to position j of symbol's tuples."""

    symbol: str
    i: int
    j: int

    def __post_init__(self):
        if self.i < 1 or self.j < 1:
            raise InvariantViolation("step-positions", f"positions are 1-based: {self}")
        if self.i == self.j:
            raise InvariantViolation("step-positions", f"i and j must differ: {self}")

    def validate(self, language):
        arity = language.arity(self.symbol)
        if self.i > arity or self.j > arity:
            raise InvariantViolation(
                "step-positions", f"{self} exceeds arity {arity} of {self.symbol}"
            )

    def __str__(self):
        return f"{self.symbol}:{self.i}>{self.j}"

    @classmethod
    def parse(cls, text):
        m = _STEP_RE.match(text.strip())
        if m is None:
            raise ParseError(0, text, "expected R:i>j")
        return cls(m.group(1), int(m.group(2)), int(m.group(3)))


@dataclass(frozen=True)
class Word:
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self):
        return len(self.steps)

    def __add__(self, other):
        return Word(self.steps + other.steps)

    def __str__(self):
        if not self.steps:
            return "id"
        return ",".join(str(s) for s in self.steps)

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if not text or text == "id":
            return cls(())
        return cls(tuple(Step.parse(part) for part in text.split(",")))


def _step_map(M, step):
    """x -> image (or set of images when not functional), cached on M."""
    step.validate(M.language)
    key = ("stepmap", step.symbol, step.i, step.j)
    cached = M._cache.get(key)
    if cached is None:
        cached = {}
        i, j = step.i - 1, step.j - 1
        for t in M.tuples_of(step.symbol):
            x, y = t[i], t[j]
            prev = cached.get(x)
            if prev is None:
                cached[x] = y
            elif isinstance(prev, set):
                prev.add(y)
            elif prev != y:
                cached[x] = {prev, y}
        M._cache[key] = cached
    return cached

def apply_step(M, x, step):
    """The unique step-image of x, or None when no tuple applies."""
    if x not in M:
        raise InvariantViolation("membership", f"{x!r} is not an element")
    img = _step_map(M, step).get(x)
    if isinstance(img, set):
        raise NotFunctional(step.symbol, x, sorted(img))
    return img


def apply_word(M, x, word):
    """Left-to-right composition; None as soon as any step is absent."""
    cur = x
    for step in word.steps:
        cur = apply_step(M, cur, step)
        if cur is None:
            return None
    return cur


@dataclass
class EquationalReport:
    holds: bool
    witness: tuple | None  # (symbol, i, j, tuple1, tuple2)

    @property
    def verdict(self):
        return "holds_up_to_bounds" if self.holds else "fails_with_witness"


def equational_check(M):
    """Shared position-i entries force shared position-j entries."""
    for name, arity in M.language.symbols:
        if arity < 2:
            continue
        tuples = M.tuples_by_symbol[name]
        for i in range(arity):
            groups = {}
            for t in tuples:
                groups.setdefault(t[i], []).append(t)
            for t_list in groups.values():
                if len(t_list) < 2:
                    continue
                first = t_list[0]
                for j in range(arity):
                    if j == i:
                        continue
                    for t in t_list[1:]:
                        if t[j] != first[j]:
                            return EquationalReport(False, (name, i + 1, j + 1, first, t))
    return EquationalReport(True, None)


def step_vocabulary(language):
    """All steps of a language, in declaration order."""
    vocab = []
    for name, arity in language.symbols:
        for i in range(1, arity + 1):
            for j in range(1, arity + 1):
                if i != j:
                    vocab.append(Step(name, i, j))
    return vocab


def _dense_step_tables(M, vocab):
    """Per-step image tables over element indices; -1 where undefined."""
    index = M._positions()
    tables = []
    for step in vocab:
        mapping = _step_map(M, step)
        row = [-1] * len(M.elements)
        for x, y in mapping.items():
            if isinstance(y, set):
                raise NotFunctional(step.symbol, x, sorted(y))
            row[index[x]] = index[y]
        tables.append(row)
    return tables


def _word_tables(M, vocab, max_len):
    """Image tables for every word up to max_len, keyed by step-index tuple.

    Built level by level: T[w + s] = T_s ∘ T_w, so each entry costs one
    lookup and undefinedness propagates as -1.
    """
    n = len(M.elements)
    steps = _dense_step_tables(M, vocab)
    tables = {(): list(range(n))}
    level = [()]
    for _ in range(max_len):
        nxt = []
        for w in level:
            base = tables[w]
            for si in range(len(vocab)):
                srow = steps[si]
                tables[w + (si,)] = [(-1 if v == -1 else srow[v]) for v in base]
                nxt.append(w + (si,))
        level = nxt
    return tables


def _anchor_indices(M, min_depth):
    return [k for k, d in enumerate(M._depth_list()) if d >= min_depth]


@dataclass
class CommutativityReport:
    holds: bool
    max_len: int
    witness: tuple | None  # (element, Word, Word)
    anchors: int

    @property
    def verdict(self):
        return "holds_up_to_bounds" if self.holds else "fails_with_witness"


def _check_max_len(max_len):
    if max_len < 0:
        raise InvariantViolation("max-len", f"negative word length bound {max_len}")


def strong_commutativity_check(M, max_len):
    """xvw = xwv for all faithful x and words with |v|+|w| <= max_len."""
    _check_max_len(max_len)
    eq = equational_check(M)
    if not eq.holds:
        raise NotEquational(eq.witness)
    vocab = step_vocabulary(M.language)
    anchors = _anchor_indices(M, max_len)
    if not vocab or max_len < 2 or not anchors:
        return CommutativityReport(True, max_len, None, len(anchors))
    tables = _word_tables(M, vocab, max_len)
    by_len = {}
    for w in tables:
        by_len.setdefault(len(w), []).append(w)
    for ln in by_len:
        by_len[ln].sort()

    def as_word(idx_tuple):
        return Word(tuple(vocab[k] for k in idx_tuple))

    for total in range(2, max_len + 1):
        for lv in range(1, total):
            lw = total - lv
            for v in by_len[lv]:
                for w in by_len[lw]:
                    if (lw, w) < (lv, v):
                        continue  # unordered pair already tested
                    tvw = tables[v + w]
                    twv = tables[w + v]
                    if tvw == twv:
                        continue
                    for k in anchors:
                        a, b = tvw[k], twv[k]
                        if a != -1 and b != -1 and a != b:
                            return CommutativityReport(
                                False, max_len, (M.elements[k], as_word(v), as_word(w)), len(anchors)
                            )
    return CommutativityReport(True, max_len, None, len(anchors))


@dataclass
class RegularityReport:
    holds: bool
    max_len: int
    witness: tuple | None  # (index_fixed, element, index_moved, element, Word)
    anchors: tuple

    @property
    def verdict(self):
        return "holds_up_to_bounds" if self.holds else "fails_with_witness"


def strong_regularity_check(family, max_len):
    """Fixed-point status of every word agrees across the whole family."""
    _check_max_len(max_len)
    if not family:
        return RegularityReport(True, max_len, None, ())
    lang = family[0].language
    for M in family[1:]:
        if M.language != lang:
            raise LanguageMismatch(lang, M.language)
    for M in family:
        eq = equational_check(M)
        if not eq.holds:
            raise NotEquational(eq.witness)
    vocab = step_vocabulary(lang)
    if not vocab or max_len < 1:
        return RegularityReport(True, max_len, None, tuple(0 for _ in family))

    all_tables = [_word_tables(M, vocab, max_len) for M in family]
    anchor_sets = [list(enumerate(M._depth_list())) for M in family]

    def as_word(idx_tuple):
        return Word(tuple(vocab[k] for k in idx_tuple))

    words = sorted((w for w in all_tables[0] if w), key=lambda w: (len(w), w))
    for w in words:
        ln = len(w)
        fixed = None
        moved = None
        for mi, M in enumerate(family):
            table = all_tables[mi][w]
            for k, depth in anchor_sets[mi]:
                if depth < ln:
                    continue
                img = table[k]
                if img == -1:
                    continue
                if img == k:
                    if fixed is None:
                        fixed = (mi, M.elements[k])
                else:
                    if moved is None:
                        moved = (mi, M.elements[k])
                if fixed is not None and moved is not None:
                    return RegularityReport(
                        False,
                        max_len,
                        (fixed[0], fixed[1], moved[0], moved[1], as_word(w)),
                        tuple(len(a) for a in anchor_sets),
                    )
    return RegularityReport(True, max_len, None, tuple(len(a) for a in anchor_sets))


# ---------------------------------------------------------------------------
# Quotients.


def _as_mapping(auto):
    if hasattr(auto, "mapping"):
        return dict(auto.mapping)
    return dict(auto)


def _verify_automorphism(M, mapping):
    ids = M._positions().keys()
    if ids != set(mapping):
        raise NotAutomorphism("domain", sorted(ids ^ set(mapping))[:5])
    if ids != set(mapping.values()):
        raise NotAutomorphism("bijection", None)
    for sym, t in M.all_tuples():
        image = tuple(mapping[x] for x in t)
        if not M.has_tuple(sym, image):
            raise NotAutomorphism("preservation", (sym, t, image))
    # A total bijection preserving all tuples of a finite structure also
    # reflects them: it permutes each symbol's finite tuple set.
    return mapping


@dataclass
class QuotientResult:
    structure: Structure
    surjection: dict
    group_size: int


def quotient(M, automorphisms, group_bound=20000):
    """Orbit structure under the group generated by the given maps.

    Elements are orbits, named by their least member; a tuple holds on
    orbits iff some choice of representatives holds in M.
    """
    if M.frontier:
        raise NonClosedWindow("quotient")
    gens = []
    for auto in automorphisms:
        mapping = _verify_automorphism(M, _as_mapping(auto))
        gens.append(mapping)
        gens.append({v: k for k, v in mapping.items()})

    ident = {e: e for e in M.elements}

    def freeze(g):
        return tuple(g[e] for e in M.elements)

    group = {freeze(ident): ident}
    queue = [ident]
    while queue:
        g = queue.pop()
        for h in gens:
            comp = {x: h[g[x]] for x in M.elements}
            key = freeze(comp)
            if key not in group:
                if len(group) >= group_bound:
                    raise GroupClosureExceedsBound(group_bound)
                group[key] = comp
                queue.append(comp)

    rep = {}
    for x in M.elements:
        orbit = {g[x] for g in group.values()}
        rep[x] = min(orbit)
    q_elements = sorted(set(rep.values()))
    q_tuples = []
    for sym, t in M.all_tuples():
        q_tuples.append((sym, tuple(rep[x] for x in t)))
    Q = Structure(M.language, q_elements, q_tuples, frontier=())

    for sym, t in M.all_tuples():
        if not Q.has_tuple(sym, tuple(rep[x] for x in t)):
            raise VerificationFailed("quotient-homomorphism", (sym, t))
    return QuotientResult(Q, rep, len(group))
