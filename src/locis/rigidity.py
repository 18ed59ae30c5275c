"""Rigidity characterization and the constructive rigid-limit trace.

Rigidity here is always bounded: "(M,y) ≅ (M,z)" is approximated by
s-ball equivalence, and every verdict carries the (r, s) pair it was
certified at. The limit construction iterates: find a radius r at which the
current step ball recurs everywhere, find a fresh anchor whose 2r-ball has
no s-equivalent pair, and re-anchor on a copy of the step ball near it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import accumulate

from .core import Structure
from .errors import (
    CharacterizationFails,
    HypothesisUnverified,
    InvariantViolation,
    VerificationFailed,
    WindowExhausted,
)
from .iso import (
    PartialIso,
    _layout,
    _least_recurrence_k,
    _linear_tokens,
    class_ids,
    extraction_compare,
    lip_check,
    windowed_pointed_iso,
)
from . import textio


@dataclass
class QReport:
    r: int
    s: int
    holds: bool
    witness_anchor: str | None  # first anchor with no s-equivalent pair
    anchors_tested: int

    @property
    def verdict(self):
        return "holds_up_to_bounds" if self.holds else "fails_with_witness"


def property_Q_check(M, r, s):
    """True at (r,s) iff every faithful anchor has an s-equivalent pair
    of distinct elements within its r-ball."""
    if min(r, s) < 0:
        raise InvariantViolation("radius", f"negative radius {min(r, s)}")
    anchors = sum(1 for d in M._depth_list() if d >= r + s)
    x = _pair_free_anchor(M, s, r, r + s)
    return QReport(r, s, x is None, x, anchors)


@dataclass
class RigidityReport:
    radii_tested: list
    s: int
    per_radius: list  # (r, outcome, payload)
    verdict: str  # characterization_holds_up_to_bounds | property_P_detected | inconclusive
    lip_k: int | None
    ulf_witness: tuple


def rigidity_characterization(M, radii, s, lip_radius=1):
    """Per radius r, search for an anchor whose r-ball has pairwise
    s-distinguishable elements.

    The local-isomorphism hypothesis is gated first (at a symbolic radius;
    no finite check exhausts it); without it the characterization says
    nothing and HypothesisUnverified is raised. An element is usable as an
    anchor at r when every member of its r-ball carries a certified
    s-class token.
    """
    radii = sorted(set(int(r) for r in radii))
    if not radii:
        raise InvariantViolation("radii", "empty radius list")
    if radii[0] < 0:
        raise InvariantViolation("radius", f"negative radius {radii[0]}")
    lip = lip_check(M, lip_radius)
    if lip.verdict != "holds_up_to_bounds":
        raise HypothesisUnverified("local isomorphism property", lip.witness)
    ulf = M.local_finiteness_witness()

    ids = class_ids(M, s, extended=True)
    per_radius = []
    witnesses = 0
    for r in radii:
        tested = 0
        good = None
        example_pair = None
        for x in M.elements:
            members = sorted(M.ball_elements(x, r))
            if any(y not in ids for y in members):
                continue
            tested += 1
            seen = {}
            pair = None
            for y in members:
                tok = ids[y]
                if tok in seen:
                    pair = (seen[tok], y)
                    break
                seen[tok] = y
            if pair is None:
                good = x
                break
            if example_pair is None:
                example_pair = (x, pair[0], pair[1])
        if tested == 0:
            raise WindowExhausted(f"no anchors with certified {s}-classes at r={r}", r + s)
        if good is not None:
            per_radius.append((r, "witness_anchor", good))
            witnesses += 1
        else:
            per_radius.append((r, "equivalent_pairs_everywhere", example_pair))
    if witnesses == len(radii):
        verdict = "characterization_holds_up_to_bounds"
    elif witnesses == 0:
        verdict = "property_P_detected"
    else:
        verdict = "inconclusive"
    return RigidityReport(radii, s, per_radius, verdict, lip.k, ulf)


# ---------------------------------------------------------------------------
# The constructive limit.


@dataclass
class TraceStep:
    anchor: str
    r: int
    s: int
    window: Structure  # B(anchor, r+s) with the outer sphere as frontier
    theta: dict | None = None  # map onto the next step's copy, on this window


@dataclass
class RigidLimitTrace:
    steps: list
    verification: dict = field(default_factory=dict)

    def save(self, dirpath):
        os.makedirs(dirpath, exist_ok=True)
        manifest = {"locis_rigid_limit": 1, "steps": []}
        for n, st in enumerate(self.steps):
            fname = f"step{n:03d}.locis"
            textio.save(st.window, os.path.join(dirpath, fname))
            manifest["steps"].append(
                {
                    "anchor": st.anchor,
                    "r": st.r,
                    "s": st.s,
                    "window_file": fname,
                    "theta": dict(sorted(st.theta.items())) if st.theta else None,
                }
            )
        manifest["verification"] = self.verification
        path = os.path.join(dirpath, "manifest.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _pair_free_anchor(M, s, radius, need):
    """Id-least element of depth >= need whose radius-ball holds no two
    elements of equal s-class; None when every such element has a pair.
    Elements without a certified s-class never form a pair.

    One linear pass over position-ordered tokens on path and cycle layouts,
    one class_ids call and one ball per anchor otherwise. Raises
    WindowExhausted when no element has depth >= need.
    """
    layout = _layout(M)
    if layout is not None and layout.kind in ("path", "cycle"):
        return _linear_pair_free_anchor(M, _linear_tokens(s, layout), layout, radius, need)
    return _ball_pair_free_anchor(M, class_ids(M, s), radius, need)


def _ball_pair_free_anchor(M, ids, radius, need):
    """_pair_free_anchor over an id-keyed token dict, one ball per anchor."""
    found_any = False
    for x, d in zip(M.elements, M._depth_list()):
        if d < need:
            continue
        found_any = True
        seen = set()
        ok = True
        for y in M.ball_elements(x, radius):
            tok = ids.get(y)
            if tok is None:
                continue
            if tok in seen:
                ok = False
                break
            seen.add(tok)
        if ok:
            return x
    if not found_any:
        raise WindowExhausted(f"no anchors of depth {need}", need)
    return None


def _linear_pair_free_anchor(M, toks, layout, radius, need):
    """Position i is bad iff some token repeats inside [i-radius, i+radius].

    toks[i] is the token of layout position i, None for none. It suffices
    to look at each position k and the previous position j holding its
    token: the pair lies in the ball of i exactly when
    k - radius <= i <= j + radius, so every such interval is marked in a
    difference array, indexed from -radius so that no interval needs
    clipping. On a cycle, positions are cyclic and j may wrap around, and
    the centres marked past either end fold back onto the cycle; a ball
    with 2*radius + 1 >= n is the whole cycle.
    """
    order, deps = layout.order, layout.deps
    n = len(order)
    cyclic = layout.kind == "cycle"
    if cyclic and 2 * radius + 1 >= n:
        present = [t for t in toks if t is not None]
        hits = [len(set(present)) != len(present)] * n
    else:
        span = 2 * radius
        last = {}
        if cyclic:
            # each token's last position, one turn back, precedes its first
            for k, tok in enumerate(toks):
                if tok is not None:
                    last[tok] = k - n
        cover = [0] * (n + span + 1)
        for k, tok in enumerate(toks):
            if tok is None:
                continue
            j = last.get(tok)
            last[tok] = k
            if j is not None and k - j <= span:
                cover[k] += 1  # centre k - radius
                cover[j + span + 1] -= 1  # one past centre j + radius
        acc = list(accumulate(cover))
        hits = acc[radius : radius + n]
        if cyclic:
            for i in range(radius):
                hits[i] += acc[i + n + radius]
            for i in range(n - radius, n):
                hits[i] += acc[i - n + radius]
    if M.max_depth() < need:
        raise WindowExhausted(f"no anchors of depth {need}", need)
    good = [e for e, hit, d in zip(order, hits, deps) if not hit and d >= need]
    return min(good) if good else None


def _search_separation(M, r2, s_floor):
    """Smallest s >= s_floor admitting a pairwise-distinguished anchor.

    Distinctness is monotone in s, so the minimal s is located by doubling
    then bisection; each candidate is re-validated directly by one
    _pair_free_anchor probe.
    """
    max_depth = M.max_depth() if not M.is_closed() else len(M.elements)
    s_max = int(max_depth) - 2 * r2
    if s_max < s_floor:
        raise WindowExhausted(f"window too shallow for separation beyond r={r2}", 2 * r2 + s_floor)

    def probe(s):
        return _pair_free_anchor(M, s, 2 * r2, 2 * r2 + s)

    lo_bad = s_floor - 1
    hi = s_floor
    gap = 1
    anchor = probe(hi)
    while anchor is None:
        lo_bad = hi
        if hi >= s_max:
            return None
        gap *= 2
        hi = min(hi + gap, s_max)
        anchor = probe(hi)
    while hi - lo_bad > 1:
        mid = (lo_bad + hi) // 2
        cand = probe(mid)
        if cand is None:
            lo_bad = mid
        else:
            hi, anchor = mid, cand
    return hi, anchor


def rigid_limit(M, steps, seed, verify=True):
    """Execute the inductive re-anchoring at desk scale.

    Step n to n+1: (a) the class of the current step ball recurs within
    some radius r; (b) a separation radius s and anchor with no s-equivalent
    pair in its 2r-ball are found, smallest s first; (c) the next anchor is
    the nearest copy of the step ball inside the separated anchor's r-ball,
    and the copy map is recorded.

    Step (b) bisects over s with one separation probe per candidate: O(n)
    on path and cycle windows, one ball BFS per anchor otherwise.
    """
    if steps < 0:
        raise InvariantViolation("steps", f"negative step count {steps}")
    if seed not in M:
        raise InvariantViolation("membership", f"{seed!r} is not an element")
    x, r, s = seed, 0, 0
    trace = [TraceStep(x, 0, 0, M.restrict([x], frontier=[x]))]
    for n in range(steps):
        h = r + s
        ids_h = class_ids(M, h)
        if x not in ids_h:
            raise WindowExhausted(f"step {n}: anchor lost faithfulness at {h}", h)
        token = ids_h[x]
        members = sorted(e for e, t in ids_h.items() if t == token)
        khat, _ = _least_recurrence_k(M, members)
        if khat is None:
            raise WindowExhausted(f"step {n + 1}: no recurrence radius inside the window")
        r2 = max(r + 1, khat)

        sep = _search_separation(M, r2, s + 1)
        if sep is None:
            raise CharacterizationFails(
                f"step {n + 1} separation",
                f"every anchor keeps an s-equivalent pair in its {2 * r2}-ball "
                f"up to the window separation limit",
            )
        s2, xstar = sep

        near = M.ball_elements(xstar, r2)
        cands = sorted(
            (d, y) for y, d in near.items() if ids_h.get(y) == token
        )
        if not cands:
            raise VerificationFailed(
                "rigid-limit-(c)", f"no step-ball copy within {r2} of {xstar}"
            )
        xn1 = cands[0][1]

        link = windowed_pointed_iso(M, x, M, xn1, h)
        if link.status != "iso":
            raise VerificationFailed("rigid-limit-theta", (x, xn1, h, link.status))
        theta = PartialIso(M, M, link.mapping, x, h)
        theta.verify()
        trace[-1].theta = dict(link.mapping)

        ball = M.ball_elements(xn1, r2 + s2)
        rim = [e for e, d in ball.items() if d == r2 + s2]
        trace.append(TraceStep(xn1, r2, s2, M.restrict(ball, frontier=rim)))
        x, r, s = xn1, r2, s2

    result = RigidLimitTrace(trace)
    if verify:
        result.verification = _post_verify(M, result)
    return result


def _post_verify(M, trace):
    """Independent re-checks of every emitted step.

    Class presence: all radius-r_n classes of the step window occur in M.
    Separation: the step's own (r_n, s_n) pair-freeness, recomputed afresh.
    Links: every theta re-verified as a pointed isomorphism.
    """
    presence = []
    separation = []
    links = []
    for n, st in enumerate(trace.steps):
        cmp_report = extraction_compare(st.window, M, st.r)
        presence.append(bool(cmp_report.forward))
        if not cmp_report.forward:
            raise VerificationFailed(
                "rigid-limit-presence", (n, cmp_report.missing_in_target[:3])
            )
        if n >= 1:
            ids = class_ids(M, st.s)
            toks = [ids[y] for y in M.ball_elements(st.anchor, st.r)]
            ok = len(set(toks)) == len(toks)
            separation.append(ok)
            if not ok:
                raise VerificationFailed("rigid-limit-separation", n)
        if st.theta is not None:
            nxt = trace.steps[n + 1]
            p = PartialIso(M, M, st.theta, st.anchor, st.r + st.s)
            p.verify()
            if st.theta[st.anchor] != nxt.anchor:
                raise VerificationFailed("rigid-limit-link", n)
            links.append(True)
    return {
        "class_presence": presence,
        "separation": separation,
        "links": links,
    }
