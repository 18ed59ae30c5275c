"""Spans and counters around the library's public functions.

`Tracer.install` wraps the functions listed in LAYERS and rebinds every
reference to them in the loaded `locis` modules, so calls between modules are
seen too. Spans (name, start, end, parent, job) are kept in memory;
`summarize` turns them into per-layer counts and self times, where a span's
self time is its duration minus the durations of its direct children.

Three Structure methods are called millions of times per pass; they get
count-only wrappers. The lazily cached accessors `depths` and `adjacency` are
spanned only on their first call per Structure, the one that computes.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter

from locis import algebra, cli, core, generators, iso, reports, rigidity, symmetry, textio

GENERATORS = ("gen_sturmian", "gen_kary_tree", "gen_binary_hyperbolic", "gen_cayley_free",
              "gen_grid")

# (metric name prefix, owner, attribute, kind). kind is "span", "first" (span
# the first call per instance) or "count".
LAYERS = [
    ("iso.windowed_pointed_iso", iso, "windowed_pointed_iso", "span"),
    ("iso.signature", iso, "signature", "span"),
    ("iso.class_ids", iso, "class_ids", "span"),
    ("iso.census", iso, "census", "span"),
    ("iso.lip_check", iso, "lip_check", "span"),
    ("iso.extraction_compare", iso, "extraction_compare", "span"),
    ("iso.PartialIso.verify", iso.PartialIso, "verify", "span"),
    ("core.Structure", core.Structure, "__init__", "span"),
    ("core.ball_elements", core.Structure, "ball_elements", "span"),
    ("core.ball", core.Structure, "ball", "span"),
    ("core.depths", core.Structure, "depths", "first"),
    ("core.adjacency", core.Structure, "adjacency", "first"),
    ("core.unary_profile", core.Structure, "unary_profile", "count"),
    ("core.has_tuple", core.Structure, "has_tuple", "count"),
    ("core.incident", core.Structure, "incident", "count"),
    ("symmetry.find_symmetries", symmetry, "find_symmetries", "span"),
    ("symmetry.detect_periodicity", symmetry, "detect_periodicity", "span"),
    ("rigidity.rigid_limit", rigidity, "rigid_limit", "span"),
    ("rigidity.rigidity_characterization", rigidity, "rigidity_characterization", "span"),
    ("algebra.equational_check", algebra, "equational_check", "span"),
    ("algebra.strong_commutativity_check", algebra, "strong_commutativity_check", "span"),
    ("algebra.strong_regularity_check", algebra, "strong_regularity_check", "span"),
    ("textio.loads", textio, "loads", "span"),
    ("textio.save", textio, "save", "span"),
    ("reports.dumps_report", reports, "dumps_report", "span"),
    ("cli.main", cli, "main", "span"),
] + [(f"generators.{g}", generators, g, "span") for g in GENERATORS]

# Layers whose span count is reported as `.calls`.
SPAN_CALLS = ("iso.windowed_pointed_iso", "iso.signature", "iso.class_ids",
              "iso.PartialIso.verify", "core.ball_elements", "core.ball", "core.Structure")


class Tracer:
    """In-memory span store plus the per-job state the ratio metrics need."""

    def __init__(self):
        self.names = []  # span name per name id
        self.spans = []  # (name id, start, end, parent index, job)
        self.stack = []  # indices of the open spans
        self.job = None  # (round, job label)
        self.tallies = {}  # round -> Counter of counts and ratio numerators
        self.tally = None
        self.codes = set()  # signature codes seen in the current job
        self.class_keys = {}  # class_ids arguments seen in the current job

    def start_job(self, job):
        """Attribute what follows to `job`, a (round, label) pair; None ends."""
        if self.job is not None:
            self.tally["signature.distinct"] += len(self.codes)
        self.codes, self.class_keys = set(), {}
        self.job = job
        if job is not None:
            self.tally = self.tallies.setdefault(job[0], Counter())

    def _span(self, name, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.job)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _first(self, name, fn):
        spanned = self._span(name, fn)
        seen = set()

        def wrapper(obj):
            key = id(obj)
            if key in seen:
                return fn(obj)
            seen.add(key)
            weakref.finalize(obj, seen.discard, key)
            return spanned(obj)

        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Hooks for the ratio metrics, called with each call's arguments and result.

    def _after_engine(self, args, kwargs, result):
        self.tally[f"engine.{result.status}"] += 1

    def _after_signature(self, args, kwargs, result):
        self.codes.add(result.code)

    def _after_class_ids(self, args, kwargs, result):
        M = args[0]
        h = args[1] if len(args) > 1 else kwargs["h"]
        extended = args[2] if len(args) > 2 else kwargs.get("extended", False)
        key = (id(M), h, bool(extended))
        if key in self.class_keys:
            self.tally["class_ids.repeat"] += 1
        else:
            self.class_keys[key] = M  # keeps M alive, so its id stays unique in the job

    def _after_find_symmetries(self, args, kwargs, result):
        self.tally["symmetry.candidates"] += len(result.candidates)

    def install(self):
        """Wrap every layer function and rebind all references to it."""
        hooks = {
            "iso.windowed_pointed_iso": self._after_engine,
            "iso.signature": self._after_signature,
            "iso.class_ids": self._after_class_ids,
            "symmetry.find_symmetries": self._after_find_symmetries,
        }
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "locis"]
        for name, owner, attr, kind in LAYERS:
            fn = getattr(owner, attr)
            if kind == "span":
                wrapped = self._span(name, fn, hooks.get(name))
            elif kind == "first":
                wrapped = self._first(name, fn)
            else:
                wrapped = self._count(name, fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)

    def summarize(self, walls):
        """Per-layer metrics of each round, as {round: {metric: value}}.

        `walls` maps each round to its wall time (set-up and pass).
        """
        self.start_job(None)
        names = self.names
        calls = {r: Counter() for r in walls}
        self_s = {r: Counter() for r in walls}
        top = Counter()
        engine_direct = Counter()  # engine calls made by find_symmetries itself
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name_id, start, end, parent, job) in enumerate(self.spans):
            r, name = job[0], names[name_id]
            calls[r][name] += 1
            self_s[r][name] += end - start - child[idx]
            if parent < 0:
                top[r] += end - start
            elif (name == "iso.windowed_pointed_iso"
                  and names[self.spans[parent][0]] == "symmetry.find_symmetries"):
                engine_direct[r] += 1
        out = {}
        for r in walls:
            tally = self.tallies.get(r, Counter())
            m = {f"{name}.calls": calls[r][name] for name in SPAN_CALLS}
            for name, _, _, kind in LAYERS:
                if kind == "count":
                    m[f"{name}.calls"] = tally[name]
                else:
                    m[f"{name}.self_s"] = self_s[r][name]
            m["iso.windowed_pointed_iso.iso_ratio"] = _ratio(
                tally["engine.iso"], calls[r]["iso.windowed_pointed_iso"])
            m["iso.signature.distinct_ratio"] = _ratio(
                tally["signature.distinct"], calls[r]["iso.signature"])
            m["iso.class_ids.repeat_ratio"] = _ratio(
                tally["class_ids.repeat"], calls[r]["iso.class_ids"])
            m["symmetry.engine_calls_per_candidate"] = _ratio(
                engine_direct[r], tally["symmetry.candidates"])
            m["trace.unattributed_s"] = walls[r] - top[r]
            out[r] = m
        return out

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, job."""
        with open(path, "w", encoding="ascii") as fh:
            for name_id, start, end, parent, job in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent, list(job)]) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
