"""Symmetry detection, periods, and partial-isomorphism extension.

A symmetry candidate is a pair (target element, orientation). Candidates are
grown layer by layer on the parent window; because a pointed isomorphism at
radius r restricts to every smaller radius, a death certified at a faithful
layer kills the candidate for all larger radii, while survival to the window
limit yields a verified automorphism-approximant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .errors import (
    InvariantViolation,
    GluingConflict,
    NoOrbitRepresentative,
    RankBoundExceeded,
    VerificationFailed,
    WindowExhausted,
)
from .iso import (
    PartialIso,
    _chain_word,
    _layout,
    extraction_compare,
    windowed_pointed_iso,
)


@dataclass
class SymmetryReport:
    tested_radius: int
    displacement_bound: int
    anchor: str
    found: list  # verified PartialIso approximants
    verdict: str  # found | none_found | window_exhausted
    candidates: list = field(default_factory=list)  # (target, reversed, outcome, radius)

    def translations(self):
        return [p for p in self.found if not p.reversed_target]

    def reversals(self):
        return [p for p in self.found if p.reversed_target]


def _word_step(wx, wy, radius):
    """Compare two upward chain words and certify the candidate either way.

    The pointed h-ball of a chain element is decided by its first h slot
    labels, so a definite disagreement at position g is a death at radius
    g+1, and agreement through `radius` witnessed labels certifies a
    survivor. Both certificates ride chains that outrun the window's ball
    depth. Returns ("dead", layer), ("found", layer), or None when the
    visible chains are too short to decide.
    """
    n = min(len(wx), len(wy))
    mismatch = None
    for i in range(n):
        if wx[i] != wy[i]:
            mismatch = i
            break
    g = n if mismatch is None else mismatch
    if g >= radius:
        return ("found", g)
    if mismatch is not None:
        return ("dead", g + 1)
    return None


def find_symmetries(
    M,
    displacement,
    radius,
    include_reversals=True,
    include_identity=False,
    anchor=None,
):
    """Pointed-ball symmetries anchored at one deep element.

    Each candidate y in B(anchor, displacement), in either orientation, gets
    one engine search with target len(M), which reads layers only as far as
    the candidate stays alive and certifies it at the smaller depth of
    anchor and y (len(M) on a closed window). Deaths are monotone, so a
    candidate killed at a certified layer is ruled out at `radius` even
    when the window is shallower than that; a candidate alive at a window
    limit below `radius` leaves the verdict exhausted rather than negative.
    Where the window's layout, detected once per window by iso._layout,
    carries chain arrays (uniform forests, two-relation tilings, uncoloured
    paths and cycles), upward chain words decide candidates directly
    (either way), which reaches radii far past the window's ball depth. The
    identity candidate (anchor, forward) is skipped unless requested, so
    reported maps are nontrivial.

    With an explicit anchor the search is local: one search around the
    anchor, to radius `displacement`, yields the candidates and reads the
    anchor's depth off its layers, and the engine's layers are read from
    the Gaifman rows they reach. The neighbour index is built whole only
    once an eighth of the window has rows, and the depth list not at all.
    Without an anchor, picking the deepest element reads every depth.
    """
    negative = " and ".join(
        f"{name} {v}" for name, v in (("displacement", displacement), ("radius", radius)) if v < 0
    )
    if negative:
        raise InvariantViolation("radius", f"negative {negative}")
    if anchor is None:
        anchor = M.deepest_element()
    # a depth below displacement is exact
    reached, depth_x = M._reach(M._position(anchor, "depth lookup"), displacement)
    if depth_x < displacement:
        raise WindowExhausted(
            f"anchor depth {depth_x} below displacement {displacement}", displacement
        )
    x = anchor
    candidates = sorted(map(M.elements.__getitem__, reached))
    orientations = [False] + ([True] if include_reversals else [])
    # a chain death at radius 1 says nothing about radius 0
    layout = _layout(M) if radius >= 1 else None
    chain = None if layout is None else layout.chain
    if chain is not None:
        par, lab, forked = chain
        pos = M._positions()
        word_x = _chain_word(par, lab, pos[x], radius + 1)
    found = []
    detail = []
    for y in candidates:
        for rev in orientations:
            if y == x and not rev and not include_identity:
                continue
            step = None
            if chain is not None:
                if not rev:
                    step = _word_step(word_x, _chain_word(par, lab, pos[y], radius + 1), radius)
                elif pos[x] in forked:
                    step = ("dead", 1)
            if step is not None and step[0] == "dead":
                detail.append((y, rev, "dead", step[1]))
                continue
            full = windowed_pointed_iso(M, x, M, y, len(M), rev)
            if full.status == "dead":
                detail.append((y, rev, "dead", full.radius))
                continue
            limit = full.radius
            p = PartialIso(M, M, full.mapping, x, limit, rev)
            p.verify()
            found.append(p)
            if step is not None:  # chain-certified past the window's ball depth
                detail.append((y, rev, "found", step[1]))
            else:
                outcome = "found" if limit >= radius else "alive_at_window_limit"
                detail.append((y, rev, outcome, limit))
    fully = [d for d in detail if d[2] == "found"]
    alive = [d for d in detail if d[2] == "alive_at_window_limit"]
    if fully:
        verdict = "found"
    elif alive:
        verdict = "window_exhausted"
    else:
        verdict = "none_found"
    return SymmetryReport(
        tested_radius=radius,
        displacement_bound=displacement,
        anchor=x,
        found=found,
        verdict=verdict,
        candidates=detail,
    )


# ---------------------------------------------------------------------------
# Periods.


@dataclass
class PeriodReport:
    rank: int | None  # None encodes "no period <= bound"
    bound: int
    period: tuple
    generators: list
    weakly_connected: bool
    orbit_cover: str  # covers_interior | uncovered | no_generators
    transport: dict = field(default_factory=dict, repr=False)

    def rank_label(self):
        return self.rank if self.rank is not None else f"no period <= {self.bound}"


def detect_periodicity(M, rank_bound, radius=None, automorphisms=None):
    """Greedy period construction from small-displacement translations.

    A weakly connected set A is grown from the deepest anchor, one orbit per
    element; when the orbits of A cover the deep interior, rank = |A|.
    """
    if rank_bound < 0:
        raise InvariantViolation("rank-bound", f"negative rank bound {rank_bound}")
    if radius is not None and radius < 0:
        raise InvariantViolation("radius", f"negative radius {radius}")
    if automorphisms is None:
        if radius is None:
            if M.is_closed():
                radius = len(M)
            else:
                radius = int(M.max_depth()) - rank_bound
        if radius < 1:
            raise WindowExhausted("window too shallow for period detection")
        rep = find_symmetries(
            M, rank_bound, radius, include_reversals=False, include_identity=False
        )
        gens = rep.found
    else:
        gens = list(automorphisms)
        for g in gens:
            g.verify()

    if not gens:
        return PeriodReport(
            rank=None,
            bound=rank_bound,
            period=(),
            generators=[],
            weakly_connected=False,
            orbit_cover="no_generators",
        )

    edges = {}  # element -> list of (neighbor, gen index, sign)
    for gi, g in enumerate(gens):
        for u, v in g.mapping.items():
            edges.setdefault(u, []).append((v, gi, +1))
            edges.setdefault(v, []).append((u, gi, -1))
    orbit = {}  # element -> the id-least element of its orbit
    for e in M.elements:  # sorted, so each walk starts at its orbit's least element
        if e not in orbit:
            orbit[e] = e
            stack = [e]
            while stack:
                for v, _, _ in edges.get(stack.pop(), ()):
                    if v not in orbit:
                        orbit[v] = e
                        stack.append(v)

    anchor = M.deepest_element()
    pos, nbrs, at = M._positions(), M._gaifman(), M.elements.__getitem__
    period = [anchor]
    covered = {orbit[anchor]}
    while True:
        # the least position is the id-least candidate
        candidates = [j for u in period for j in nbrs[pos[u]] if orbit[at(j)] not in covered]
        if not candidates:
            break
        nxt = at(min(candidates))
        period.append(nxt)
        covered.add(orbit[nxt])
        if len(period) > rank_bound:
            raise RankBoundExceeded(rank_bound)

    depths = M._depth_list()
    uncovered = [
        e for e, d in zip(M.elements, depths) if d >= rank_bound and orbit[e] not in covered
    ]
    if uncovered:
        return PeriodReport(
            rank=None,
            bound=rank_bound,
            period=tuple(sorted(period)),
            generators=gens,
            weakly_connected=True,
            orbit_cover="uncovered",
        )

    # Transport table: one generator hop per element, stepping toward A.
    hop = {e: None for e in period}
    queue = list(period)
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for v, gi, sign in edges.get(u, ()):
            if v not in hop:
                # Applying generator gi with -sign moves v back to u.
                hop[v] = (u, gi, -sign)
                queue.append(v)

    return PeriodReport(
        rank=len(period),
        bound=rank_bound,
        period=tuple(sorted(period)),
        generators=gens,
        weakly_connected=True,
        orbit_cover="covers_interior",
        transport=hop,
    )


def extend_to_automorphism(M, period_report, rho):
    """Spread a seed map over the window along the period's orbits.

    For each element y, the transport chain moves y into the period set A;
    the seed maps it, and the reversed chain carries the image back. The
    seed must be defined on all of A.
    """
    if period_report.rank is None:
        raise InvariantViolation("period", "no finite period available")
    if rho.certified_radius < period_report.rank:
        raise InvariantViolation(
            "seed-radius", f"seed radius {rho.certified_radius} below rank {period_report.rank}"
        )
    mapping = rho.mapping
    for z in period_report.period:
        if z not in mapping:
            raise NoOrbitRepresentative(z)
    gens = period_report.generators
    inverses = [{v: k for k, v in g.mapping.items()} for g in gens]
    hop = period_report.transport

    out = {}
    for y in M.elements:
        if y not in hop:
            continue
        chain = []
        z = y
        while hop[z] is not None:
            nxt, gi, sign = hop[z]
            chain.append((gi, sign))
            z = nxt
        w = mapping.get(z)
        if w is None:
            raise NoOrbitRepresentative(y)
        ok = True
        for gi, sign in reversed(chain):
            table = inverses[gi] if sign == +1 else gens[gi].mapping
            w = table.get(w)
            if w is None:
                ok = False
                break
        if ok:
            out[y] = w

    if rho.anchor not in out:
        raise NoOrbitRepresentative(rho.anchor)
    result = PartialIso(
        source=M,
        target=M,
        mapping=out,
        anchor=rho.anchor,
        certified_radius=rho.certified_radius,
        reversed_target=rho.reversed_target,
    )
    result.verify()
    return result


# ---------------------------------------------------------------------------
# One-step extension by gluing.


def _word_between(M, a, b, bound):
    """A step word from a to b through the Gaifman graph, if short enough."""
    from .algebra import Step, Word

    if a == b:
        return Word(())
    dist = M.ball_elements(a, bound)
    if b not in dist:
        return None
    # Walk back from b. The neighbour one step closer with the least BFS
    # rank is the one that discovered it.
    rank = {e: i for i, e in enumerate(dist)}
    pos, at = M._positions(), M.elements.__getitem__
    path = [b]
    while path[-1] != a:
        d = dist[path[-1]] - 1
        back = (at(j) for j in M._rows()[pos[path[-1]]])
        path.append(min((v for v in back if dist.get(v) == d), key=rank.__getitem__))
    path.reverse()
    steps = []
    for u, v in zip(path, path[1:]):
        found = None
        for sym, t in M.incident(u):
            if v in t:
                found = Step(sym, t.index(u) + 1, t.index(v) + 1)
                break
        if found is None:
            return None
        steps.append(found)
    return Word(tuple(steps))


def extend_partial_iso(M, N, rho, neighbors=None):
    """Extend rho from B(x,r) to B(x,r+1) by gluing one-step maps.

    neighbors maps each element y of the domain to a one-step map on
    B_M(y,1) agreeing with rho at y; when omitted, one-step maps are
    searched on the windows. Any disagreement between overlapping one-step
    maps is a GluingConflict, reported with a connecting word (the gluing
    argument uses words of length at most 2r+3).
    """
    x = rho.anchor
    r = rho.certified_radius
    word_bound = 2 * r + 3
    glued = dict(rho.mapping)
    dom = sorted(rho.mapping)

    for y in dom:
        if neighbors is not None:
            local = neighbors[y]
            local = local.mapping if hasattr(local, "mapping") else dict(local)
            if local.get(y) != rho.mapping[y]:
                raise GluingConflict(y, (rho.mapping[y], local.get(y)), _word_between(M, x, y, word_bound))
        else:
            res = windowed_pointed_iso(M, y, N, rho.mapping[y], 1, rho.reversed_target)
            if res.status == "dead":
                raise GluingConflict(
                    y, (rho.mapping[y],), _word_between(M, x, y, word_bound)
                )
            if res.status != "iso":
                raise WindowExhausted(
                    f"cannot certify a one-step map at {y}", 1
                )
            local = res.mapping
        for z, img in sorted(local.items()):
            prev = glued.get(z)
            if prev is None:
                glued[z] = img
            elif prev != img:
                raise GluingConflict(z, (prev, img), _word_between(M, x, z, word_bound))

    members = M.ball_elements(x, r + 1)
    out = {z: glued[z] for z in members if z in glued}
    missing = [z for z in members if z not in glued]
    if missing:
        raise WindowExhausted(f"no one-step map covered {missing[0]}", r + 1)
    result = PartialIso(
        source=M,
        target=N,
        mapping=out,
        anchor=x,
        certified_radius=r + 1,
        reversed_target=rho.reversed_target,
    )
    try:
        result.verify()
    except VerificationFailed as exc:
        raise GluingConflict(exc.args[0] if exc.args else None, (), None) from exc
    return result


# ---------------------------------------------------------------------------
# Periodic target isomorphism.


def periodic_isomorphism(M, N, pre_radius=1, period_report=None):
    """Layered search for an isomorphism-approximant M -> N.

    A census comparison at pre_radius filters the hopeless case cheaply;
    otherwise every target anchor gets one engine search with target
    max(len(M), len(N)), which stops at the first layer where it dies and
    certifies up to the smaller depth of the two anchors. Survival to a
    certified radius of at least pre_radius returns a verified
    approximant, and otherwise the search returns None. Periodicity of N
    is what justifies reading the window-limit certificate as evidence for
    a full isomorphism; the search does not need N's period report.
    period_report is ignored and deprecated: passing one emits a
    DeprecationWarning.
    """
    if period_report is not None:
        warnings.warn(
            "periodic_isomorphism ignores period_report; the parameter will be removed",
            DeprecationWarning,
            stacklevel=2,
        )
    if not M.elements or not N.elements:
        return None
    compare = extraction_compare(M, N, pre_radius)
    if not compare.locally_isomorphic():
        return None
    a = M.deepest_element()
    profile = M.unary_profile(a)
    # deepest targets first, so a survivor carries the strongest certificate
    ranked = sorted((-min(d, len(N)), e) for e, d in zip(N.elements, N._depth_list()))
    for _, b in ranked:
        if N.unary_profile(b) != profile:
            continue
        full = windowed_pointed_iso(M, a, N, b, max(len(M), len(N)))
        if full.status != "dead" and full.radius >= pre_radius:
            p = PartialIso(M, N, full.mapping, a, full.radius, False)
            p.verify()
            return p
    return None
