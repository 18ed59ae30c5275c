"""Bounded rigidity checks and the re-anchoring limit trace.

Ground truths used here: a periodic coloring has equivalent pairs
everywhere (it can never separate), while an aperiodic column coloring
separates once the class radius outgrows the recurrence gap. The trace
steps are re-verified from the saved artifacts, not from in-memory state.
"""

import hashlib
import json
import os
import random
import typing

import pytest

from locis import textio
from locis.core import Language, Structure
from locis.errors import (
    CharacterizationFails,
    HypothesisUnverified,
    InvariantViolation,
    WindowExhausted,
)
from locis.generators import (
    AddressSequence,
    checkerboard_colormap,
    gen_grid,
    gen_kary_tree,
    gen_sturmian,
)
from locis.iso import _layout, _least_recurrence_k, class_ids, lip_check
from locis.rigidity import (
    TraceStep,
    _ball_pair_free_anchor,
    _linear_pair_free_anchor,
    _pair_free_anchor,
    property_Q_check,
    rigid_limit,
    rigidity_characterization,
)

from conftest import colored_line


def pair_free_outcome(probe, M, tokens, radius, need):
    try:
        return probe(M, tokens, radius, need)
    except WindowExhausted:
        return "exhausted"


def linear_probe(M, ids, radius, need):
    """The one-pass probe over the tokens of an id-keyed dict, laid out in
    path or cycle order."""
    layout = _layout(M)
    return _linear_pair_free_anchor(M, [ids.get(e) for e in layout.order], layout, radius, need)


def period2_line(width=80):
    return gen_grid(
        (width,), mode="window", periods=(2,),
        colormap={(0,): "White", (1,): "Black"},
    )


class TestPropertyQ:
    def test_periodic_coloring_has_pairs_everywhere(self):
        M = period2_line()
        rep = property_Q_check(M, r=3, s=2)
        assert rep.holds
        assert rep.witness_anchor is None
        assert rep.verdict == "holds_up_to_bounds"
        assert rep.anchors_tested > 0

    def test_aperiodic_coloring_fails_with_witness(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 120)
        rep = property_Q_check(M, r=2, s=6)
        assert not rep.holds
        assert rep.witness_anchor in M.elements
        # recheck the witness by hand: all 6-class tokens in its 2-ball
        # really are distinct
        from locis.iso import class_ids

        ids = class_ids(M, 6)
        toks = [ids[y] for y in M.ball_elements(rep.witness_anchor, 2)]
        assert len(set(toks)) == len(toks)

    def test_window_too_shallow(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 10)
        with pytest.raises(WindowExhausted):
            property_Q_check(M, r=8, s=6)

    def test_negative_radius_is_rejected(self, sqrt2):
        periods, cmap = checkerboard_colormap()
        board = gen_grid((4, 4), periods=periods, colormap=cmap)
        for M in (gen_sturmian(sqrt2, 0, 200), board):  # linear and generic probes
            for r, s in ((-1, 2), (2, -1)):
                with pytest.raises(InvariantViolation) as err:
                    property_Q_check(M, r=r, s=s)
                assert err.value.invariant == "radius"


class TestLinearProbe:
    """The one-pass probe on path and cycle layouts against the per-anchor
    ball loop, which stays the reference."""

    RS = [(0, 1), (1, 1), (1, 3), (2, 2), (3, 4), (5, 1)]

    def windows(self):
        rng = random.Random(20091)
        for trial in range(40):
            colors = 1 + trial % 3
            n = rng.randrange(3, 60)
            if trial % 2 == 0:
                yield colored_line(rng, n, colors, frontier=(0, n - 1))
            else:
                # closed cycles, and cycles cut open by one frontier element
                cut = (rng.randrange(n),) if trial % 4 == 1 else ()
                yield colored_line(rng, n, colors, cycle=True, frontier=cut)

    def test_agrees_with_ball_loop_on_random_paths_and_cycles(self):
        rng = random.Random(3)
        kinds = set()
        whole_cycle_balls = 0
        for M in self.windows():
            kind = _layout(M).kind
            kinds.add(kind)
            for r, s in self.RS:
                ids = class_ids(M, s)
                # elements without a token never form a pair
                sparse = {e: t for e, t in ids.items() if rng.random() < 0.7}
                for radius, need in ((2 * r, 2 * r + s), (r, r + s), (r, 0)):
                    for toks in (ids, sparse):
                        got = pair_free_outcome(linear_probe, M, toks, radius, need)
                        want = pair_free_outcome(_ball_pair_free_anchor, M, toks, radius, need)
                        assert got == want, (kind, len(M), r, s, radius)
                    if kind == "cycle" and 2 * radius + 1 >= len(M) and got != "exhausted":
                        whole_cycle_balls += 1
        assert kinds == {"path", "cycle"}
        assert whole_cycle_balls > 0

    def test_position_tokens_probe_like_the_ball_loop(self):
        # the separation search probes with position-ordered tokens
        for M in self.windows():
            for r, s in self.RS:
                ids = class_ids(M, s)
                for radius, need in ((2 * r, 2 * r + s), (r, r + s), (r, 0)):
                    got = pair_free_outcome(_pair_free_anchor, M, s, radius, need)
                    want = pair_free_outcome(_ball_pair_free_anchor, M, ids, radius, need)
                    assert got == want, (_layout(M).kind, len(M), r, s, radius)

    def test_outcomes_cover_found_none_and_exhausted(self):
        outcomes = set()
        for M in self.windows():
            for r, s in self.RS:
                got = pair_free_outcome(_pair_free_anchor, M, s, 2 * r, 2 * r + s)
                outcomes.add(got if got in (None, "exhausted") else "found")
        assert outcomes == {"found", None, "exhausted"}

    def test_no_deep_anchor_is_exhaustion_on_both(self):
        M = colored_line(random.Random(5), 12, 2, frontier=(0, 11))
        with pytest.raises(WindowExhausted):
            _pair_free_anchor(M, 2, 6, 8)
        with pytest.raises(WindowExhausted):
            _ball_pair_free_anchor(M, class_ids(M, 2), 6, 8)

    def test_striped_line_has_pairs_everywhere(self):
        M = period2_line(width=400)
        assert _layout(M).kind == "path"
        for r, s in self.RS[1:]:
            assert _pair_free_anchor(M, s, 2 * r, 2 * r + s) is None
            assert _ball_pair_free_anchor(M, class_ids(M, s), 2 * r, 2 * r + s) is None

    def test_property_q_matches_ball_loop_on_paths(self):
        rng = random.Random(77)
        for trial in range(30):
            n = rng.randrange(10, 80)
            M = colored_line(rng, n, 1 + trial % 3, frontier=(0, n - 1))
            for r, s in self.RS:
                want = pair_free_outcome(_ball_pair_free_anchor, M, class_ids(M, s), r, r + s)
                if want == "exhausted":
                    with pytest.raises(WindowExhausted):
                        property_Q_check(M, r, s)
                    continue
                rep = property_Q_check(M, r, s)
                assert rep.witness_anchor == want
                assert rep.holds == (want is None)
                depths = M.depths()
                assert rep.anchors_tested == sum(depths[e] >= r + s for e in M.elements)


class TestRecurrence:
    def test_unreached_components_are_skipped_by_lip_only(self):
        # A frontier path plus a closed 2-cycle the frontier cannot reach:
        # lip_check skips the cycle's infinite-depth elements, the rigid
        # limit's recurrence radius counts them at the window bound.
        lang = Language([("Succ", 2), ("White", 1), ("Black", 1)])
        path = [f"p{i}" for i in range(9)]
        tuples = [("Succ", (a, b)) for a, b in zip(path, path[1:])]
        tuples += [("Succ", ("qa", "qb")), ("Succ", ("qb", "qa"))]
        tuples += [("Black" if i % 3 == 0 else "White", (e,)) for i, e in enumerate(path)]
        tuples += [("White", ("qa",)), ("White", ("qb",))]
        M = Structure(lang, path + ["qa", "qb"], tuples, frontier=("p0", "p8"))
        rep = lip_check(M, 1)
        assert [(rep_, k) for _, rep_, k in rep.per_class] == [
            ("p1", 1), ("p2", 2), ("p3", 2), ("qa", None)
        ]
        assert rep.witness[1:] == ("qa", "p2")
        assert rep.window_bound == 4
        members = ["p1", "p4", "p7"]
        assert _least_recurrence_k(M, members, count_unreached=False)[0] == 1
        assert _least_recurrence_k(M, members)[0] is None


class TestCharacterization:
    def test_aperiodic_tree_characterization_holds(self):
        M = gen_kary_tree(2, AddressSequence.thue_morse(1, 2), depth=200, halo=8)
        rep = rigidity_characterization(M, radii=[1, 2, 3], s=10)
        assert rep.verdict == "characterization_holds_up_to_bounds"
        assert all(outcome == "witness_anchor" for _, outcome, _ in rep.per_radius)
        assert rep.lip_k is not None
        assert rep.ulf_witness[0] >= 3

    def test_periodic_line_detects_property_p(self):
        M = period2_line()
        rep = rigidity_characterization(M, radii=[1, 2, 3], s=4)
        assert rep.verdict == "property_P_detected"
        for _, outcome, payload in rep.per_radius:
            assert outcome == "equivalent_pairs_everywhere"
            anchor, y, z = payload
            assert y != z

    def test_lip_hypothesis_is_gated(self):
        # a window violating LIP cannot support the characterization
        lang = Language([("Succ", 2), ("White", 1), ("Black", 1)])
        n = 100
        tuples = [("Succ", (str(i), str(i + 1))) for i in range(n - 1)]
        for i in range(n):
            tuples.append(("Black" if i == 2 else "White", (str(i),)))
        M = Structure(lang, [str(i) for i in range(n)], tuples,
                      frontier=("0", str(n - 1)))
        with pytest.raises(HypothesisUnverified):
            rigidity_characterization(M, radii=[1], s=2)

    def test_empty_radius_list_rejected(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 50)
        with pytest.raises(InvariantViolation):
            rigidity_characterization(M, radii=[], s=2)


class TestRigidLimit:
    def test_two_steps_on_aperiodic_columns(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 4000)
        trace = rigid_limit(M, 2, "0")
        assert len(trace.steps) == 3  # seed step plus two constructed steps
        # radii and separations strictly escalate
        rs = [(st.r, st.s) for st in trace.steps]
        assert all(a < b for a, b in zip(rs, rs[1:]))
        # every step window is a closed ball with the advertised anchor
        for st in trace.steps:
            assert st.anchor in st.window
        # theta links chain the anchors
        for cur, nxt in zip(trace.steps, trace.steps[1:]):
            assert cur.theta is not None
            assert cur.theta[cur.anchor] == nxt.anchor
        # post-verification ran and passed
        assert all(trace.verification["class_presence"])
        assert all(trace.verification["separation"])
        assert all(trace.verification["links"])

    def test_trace_save_roundtrip(self, sqrt2, tmp_path):
        M = gen_sturmian(sqrt2, 0, 4000)
        trace = rigid_limit(M, 2, "0")
        manifest_path = trace.save(tmp_path / "trace")
        with open(manifest_path) as fh:
            manifest = json.loads(fh.read())
        assert manifest["locis_rigid_limit"] == 1
        assert len(manifest["steps"]) == 3
        for n, entry in enumerate(manifest["steps"]):
            stored = textio.load(tmp_path / "trace" / entry["window_file"])
            assert stored == trace.steps[n].window
            assert entry["anchor"] == trace.steps[n].anchor
        assert manifest["verification"]["class_presence"] == [True, True, True]

    def test_saved_trace_bytes_are_pinned(self, sqrt2, tmp_path):
        # Digest of the files RigidLimitTrace.save writes, taken from the
        # per-anchor implementation before the linear probe replaced it.
        M = gen_sturmian(sqrt2, 0, 2000)
        out = tmp_path / "trace"
        rigid_limit(M, 3, "0").save(out)
        digest = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            digest.update(name.encode())
            digest.update((out / name).read_bytes())
        assert digest.hexdigest() == (
            "453cb86c7b1283a507bd0c1f5d355959ba38f053b2f59c6eda6bddd0db8e22de"
        )

    def test_periodic_line_characterization_fails(self):
        M = period2_line(width=400)
        with pytest.raises(CharacterizationFails):
            rigid_limit(M, 1, "0")

    def test_bad_seed_rejected(self, sqrt2):
        M = gen_sturmian(sqrt2, 0, 100)
        with pytest.raises(InvariantViolation):
            rigid_limit(M, 1, "nowhere")

    def test_window_exhaustion_is_not_a_failure_verdict(self, sqrt2):
        # a too-small aperiodic window runs out of room: that is reported
        # as exhaustion, never as a rigidity verdict
        M = gen_sturmian(sqrt2, 0, 40)
        with pytest.raises(WindowExhausted):
            rigid_limit(M, 3, "0")


def test_trace_step_annotations_resolve():
    hints = typing.get_type_hints(TraceStep)
    assert hints["window"] is Structure
