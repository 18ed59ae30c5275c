"""Command-line entry point.

Every analysis subcommand prints a versioned JSON report to stdout (and to
--report PATH when given) and exits 0 when a verdict was produced, 2 when the
window was too small to decide, 1 on errors. Structure-producing subcommands
(gen, ball, quotient) additionally write a structure file.

Each subcommand handler returns a (verdict, bounds, result) triple. `main`
alone builds the report around it: it adds the command name and the input
files, writes the document, and maps the verdict to the exit code. A handler
that raises a window-too-small error gets the same treatment, with the
command-line bounds and the reason as its triple. The --report file is
written before stdout, so a path that cannot be written ends, like any other
error, in one `error:` line and exit 1.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import textio
from .algebra import (
    equational_check,
    quotient,
    strong_commutativity_check,
    strong_regularity_check,
)
from .errors import (
    CharacterizationFails,
    HypothesisUnverified,
    InvariantViolation,
    LocisError,
    NoFaithfulElements,
    UnfaithfulRadius,
    WindowExhausted,
)
from .generators import (
    AddressSequence,
    QuadraticIrrational,
    checkerboard_colormap,
    gen_binary_hyperbolic,
    gen_cayley_free,
    gen_grid,
    gen_kary_tree,
    gen_sturmian,
)
from .iso import census, extraction_compare, lip_check
from .reports import dumps_report, partial_iso_summary, report_document, write_report
from .rigidity import rigid_limit, rigidity_characterization
from .symmetry import detect_periodicity, find_symmetries


def _parse_radii(text):
    """'1..6' or '1,3,5' or '4'."""
    try:
        text = text.strip()
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(p) for p in text.split(",") if p]
    except ValueError:
        raise InvariantViolation("radii", f"malformed radii {text!r}") from None


def _parse_ints(text, option):
    """The integers of a comma list such as '8,8', given to `option`."""
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise InvariantViolation(option, f"malformed integer list {text!r}") from None


def _structure_stats(M):
    import hashlib

    digest = hashlib.sha256(repr(M.content_key()).encode()).hexdigest()[:16]
    return {
        "elements": len(M),
        "tuples": M.tuple_count(),
        "frontier": len(M.frontier),
        "content": digest,
    }


_BOUND_KEYS = (
    "h",
    "radius",
    "displacement",
    "s",
    "max_len",
    "steps",
    "rank_bound",
    "radii",
    "lip_radius",
    "width",
    "depth",
    "levels",
    "half_width",
    "group_bound",
)


def _inputs(args):
    """The structure files a subcommand reads, in command-line order."""
    paths = [getattr(args, k, None) for k in ("path", "left", "right")]
    return [p for p in paths if p is not None] + list(getattr(args, "others", None) or [])


def _arg_bounds(args):
    out = {}
    for k in _BOUND_KEYS:
        v = getattr(args, k, None)
        if v is not None:
            out[k] = v
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns a (verdict, bounds, result) triple.


def _cmd_gen(args):
    fam = args.family
    if fam == "sturmian":
        r = QuadraticIrrational.parse(args.r)
        s = QuadraticIrrational.parse(args.s)
        M = gen_sturmian(r, s, args.width)
        bounds = {"family": fam, "r": str(r), "s": str(s), "half_width": args.width}
    elif fam == "tree":
        addr = AddressSequence.parse(args.address)
        M = gen_kary_tree(args.k, addr, args.depth, halo=args.halo)
        bounds = {
            "family": fam,
            "k": args.k,
            "address": addr.describe(),
            "depth": args.depth,
            "halo": args.halo,
        }
    elif fam == "hyperbolic":
        addr = AddressSequence.parse(args.address)
        M = gen_binary_hyperbolic(
            addr, args.levels, args.half_width, support_radius=args.support_radius
        )
        bounds = {
            "family": fam,
            "address": addr.describe(),
            "levels": args.levels,
            "half_width": args.half_width,
            "support_radius": args.support_radius,
        }
    elif fam == "cayley":
        M = gen_cayley_free(args.k, args.radius)
        bounds = {"family": fam, "k": args.k, "radius": args.radius}
    elif fam == "grid":
        dims = _parse_ints(args.dims, "dims")
        periods = cmap = None
        if args.colors == "checkerboard":
            periods, cmap = checkerboard_colormap(len(dims))
        phase = _parse_ints(args.phase, "phase") if args.phase else None
        M = gen_grid(dims, mode=args.mode, periods=periods, colormap=cmap, phase=phase)
        bounds = {
            "family": fam,
            "dims": list(dims),
            "mode": args.mode,
            "colors": args.colors or "none",
            "phase": list(phase) if phase else None,
        }
    textio.save(M, args.out)
    result = _structure_stats(M)
    result["out"] = args.out
    return "holds_up_to_bounds", bounds, result


def _cmd_validate(args):
    try:
        M = textio.load(args.path)
    except LocisError as exc:
        return "fails_with_witness", {"path": args.path}, {"valid": False, "reason": str(exc)}
    result = _structure_stats(M)
    result["valid"] = True
    result["connected"] = M.is_connected()
    bound, witness = M.local_finiteness_witness()
    result["ball1_bound"] = bound
    result["ball1_witness"] = witness
    return "holds_up_to_bounds", {"path": args.path, "window": len(M)}, result


def _cmd_ball(args):
    M = textio.load(args.path)
    center = args.center if args.center is not None else M.deepest_element()
    pb = M.ball(center, args.h)
    textio.save(pb.structure, args.out)
    result = _structure_stats(pb.structure)
    result["out"] = args.out
    result["center"] = center
    return "holds_up_to_bounds", {"h": args.h, "window": len(M)}, result


def _cmd_census(args):
    M = textio.load(args.path)
    table = census(M, args.h)
    entries = [
        {
            "signature": e.signature.hex(),
            "multiplicity": e.multiplicity,
            "representative": e.representative,
        }
        for e in table.entries
    ]
    return (
        "holds_up_to_bounds",
        {"h": args.h, "window": len(M), "censused": table.censused},
        {"classes": len(entries), "entries": entries},
    )


def _cmd_lip(args):
    M = textio.load(args.path)
    rep = lip_check(M, args.h)
    body = {
        "k": rep.k,
        "per_class": [
            {"signature": sig.hex(), "representative": r, "k_c": k}
            for sig, r, k in rep.per_class
        ],
    }
    if rep.witness is not None:
        sig, r, bad = rep.witness
        body["witness"] = {
            "signature": sig.hex(),
            "representative": r,
            "uncovered_element": bad,
        }
    return rep.verdict, {"h": args.h, "window": len(M), "window_bound": rep.window_bound}, body


def _cmd_compare(args):
    M = textio.load(args.left)
    N = textio.load(args.right)
    rep = extraction_compare(M, N, args.h)
    verdict = "holds_up_to_bounds" if rep.locally_isomorphic() else "fails_with_witness"
    body = {
        "forward": rep.forward,
        "backward": rep.backward,
        "missing_in_target": [list(w) for w in rep.missing_in_target],
        "missing_in_source": [list(w) for w in rep.missing_in_source],
        "multiplicities": {k: list(v) for k, v in rep.multiplicities.items()},
    }
    return (
        verdict,
        {"h": args.h, "windows": [len(M), len(N)], "censused": list(rep.censused)},
        body,
    )


def _cmd_algebra(args):
    M = textio.load(args.path)
    bounds = {"window": len(M), "check": args.check}
    if args.check == "equational":
        rep = equational_check(M)
        body = {"witness": list(rep.witness) if rep.witness else None}
    elif args.check == "commutativity":
        bounds["max_len"] = args.max_len
        rep = strong_commutativity_check(M, args.max_len)
        body = {"anchors": rep.anchors}
        if rep.witness:
            x, v, w = rep.witness
            body["witness"] = {"element": x, "v": str(v), "w": str(w)}
    else:  # regularity
        bounds["max_len"] = args.max_len
        family = [M] + [textio.load(p) for p in args.others]
        rep = strong_regularity_check(family, args.max_len)
        body = {"family": 1 + len(args.others)}
        if rep.witness:
            mi_f, x, mi_m, y, w = rep.witness
            body["witness"] = {
                "fixed_in": mi_f,
                "fixed_at": x,
                "moved_in": mi_m,
                "moved_at": y,
                "word": str(w),
            }
    return rep.verdict, bounds, body


def _verdict(outcome, holds, fails):
    """The report verdict for a library outcome: `holds` and `fails` name
    the outcomes that hold and fail up to bounds; any other is inconclusive."""
    if outcome == holds:
        return "holds_up_to_bounds"
    if outcome == fails:
        return "fails_with_witness"
    return "inconclusive"


def _cmd_symmetries(args):
    M = textio.load(args.path)
    rep = find_symmetries(
        M,
        args.displacement,
        args.radius,
        include_reversals=not args.no_reversals,
        include_identity=args.include_identity,
        anchor=args.anchor,
    )
    verdict = _verdict(rep.verdict, "found", "none_found")
    layer_of = {(y, rev): rad for y, rev, out, rad in rep.candidates if out == "found"}
    summaries = []
    for p in rep.found:
        s = partial_iso_summary(p)
        layer = layer_of.get((p.mapping[p.anchor], p.reversed_target))
        if layer is not None:
            s["certified_layer"] = layer
        summaries.append(s)
    kills = [rad for _, _, out, rad in rep.candidates if out == "dead"]
    counts = {}
    for _, _, out, _ in rep.candidates:
        counts[out] = counts.get(out, 0) + 1
    survivors = [
        {"target": y, "reversed": rev, "outcome": out, "radius": rad}
        for y, rev, out, rad in rep.candidates
        if out != "dead"
    ]
    body = {
        "anchor": rep.anchor,
        "outcome": rep.verdict,
        "found": summaries,
        "candidate_outcomes": counts,
        "max_kill_radius": max(kills) if kills else None,
        "survivors": survivors[:200],
    }
    return (
        verdict,
        {"window": len(M), "displacement": args.displacement, "radius": args.radius},
        body,
    )


def _cmd_periods(args):
    M = textio.load(args.path)
    rep = detect_periodicity(M, args.rank_bound, radius=args.radius)
    verdict = _verdict(rep.orbit_cover, "covers_interior", "no_generators")
    body = {
        "rank": rep.rank,
        "rank_label": str(rep.rank_label()),
        "orbit_cover": rep.orbit_cover,
        "period": list(rep.period),
        "generators": [partial_iso_summary(g) for g in rep.generators],
        "weakly_connected": rep.weakly_connected,
    }
    return (
        verdict,
        {"window": len(M), "rank_bound": args.rank_bound, "radius": args.radius},
        body,
    )


def _cmd_rigidity(args):
    M = textio.load(args.path)
    radii = _parse_radii(args.radii)
    rep = rigidity_characterization(M, radii, args.s, lip_radius=args.lip_radius)
    verdict = _verdict(rep.verdict, "characterization_holds_up_to_bounds", "property_P_detected")
    body = {
        "outcome": rep.verdict,
        "lip_k": rep.lip_k,
        "ball1_bound": rep.ulf_witness[0],
        "per_radius": [
            {
                "r": r,
                "outcome": out,
                "payload": list(payload) if isinstance(payload, tuple) else payload,
            }
            for r, out, payload in rep.per_radius
        ],
    }
    return (
        verdict,
        {"window": len(M), "radii": radii, "s": args.s, "lip_radius": args.lip_radius},
        body,
    )


def _cmd_rigid_limit(args):
    M = textio.load(args.path)
    seed = args.seed if args.seed is not None else M.deepest_element()
    try:
        trace = rigid_limit(M, args.steps, seed, verify=not args.no_verify)
    except CharacterizationFails as exc:
        return (
            "fails_with_witness",
            {"window": len(M), "steps": args.steps, "seed": seed},
            {"stage": exc.stage, "detail": str(exc.detail)},
        )
    body = {
        "steps": [
            {"anchor": st.anchor, "r": st.r, "s": st.s, "window": len(st.window)}
            for st in trace.steps
        ],
        "verification": trace.verification,
    }
    if args.trace:
        body["trace_dir"] = args.trace
        trace.save(args.trace)
    return (
        "holds_up_to_bounds",
        {"window": len(M), "steps": args.steps, "seed": seed},
        body,
    )


def _cmd_quotient(args):
    M = textio.load(args.path)
    radius = args.radius if args.radius is not None else len(M)
    rep = find_symmetries(
        M, args.displacement, radius, include_reversals=False, include_identity=False
    )
    res = quotient(M, rep.found, group_bound=args.group_bound)
    if args.out:
        textio.save(res.structure, args.out)
    body = _structure_stats(res.structure)
    body["group_size"] = res.group_size
    body["surjection_sample"] = dict(sorted(res.surjection.items())[:10])
    if args.out:
        body["out"] = args.out
    return (
        "holds_up_to_bounds",
        {
            "window": len(M),
            "displacement": args.displacement,
            "radius": radius,
            "group_bound": args.group_bound,
        },
        body,
    )


# ---------------------------------------------------------------------------
# Parser.


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The locis argument parser, built once per process: parsing leaves it
    unchanged, so in-process callers (tests, the benchmark, notebooks) do
    not rebuild it on every main call."""
    parser = argparse.ArgumentParser(
        prog="locis",
        description="Finite-window analyses of uniformly locally finite relational structures.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--report", help="also write the report document to this path")
        return p

    p = add("gen", _cmd_gen, help="generate a window of an example family")
    fam = p.add_subparsers(dest="family", required=True)
    # Options every family takes. A --report given before the family name
    # is parsed by gen; the suppressed default keeps the family parser from
    # overwriting it with None.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True)
    common.add_argument(
        "--report", default=argparse.SUPPRESS, help="also write the report document to this path"
    )

    q = fam.add_parser("sturmian", parents=[common])
    q.add_argument("--r", required=True, help="slope literal, e.g. '(0+1*sqrt(2))/1'")
    q.add_argument("--s", required=True, help="intercept literal, e.g. '0' or '(0+1*sqrt(2))/2'")
    q.add_argument("--width", type=int, required=True, help="half-width of the window")

    q = fam.add_parser("tree", parents=[common])
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--address", required=True, help="e.g. 'constant:0', 'periodic:011', 'tm'")
    q.add_argument("--depth", type=int, required=True, help="length of the address chain")
    q.add_argument("--halo", type=int, default=14, help="faithful thickness near the base")

    q = fam.add_parser("hyperbolic", parents=[common])
    q.add_argument("--address", required=True)
    q.add_argument("--levels", type=int, required=True)
    q.add_argument("--half-width", dest="half_width", type=int, required=True)
    q.add_argument("--support-radius", dest="support_radius", type=int, default=10)

    q = fam.add_parser("cayley", parents=[common])
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--radius", type=int, required=True)

    q = fam.add_parser("grid", parents=[common])
    q.add_argument("--dims", required=True, help="comma list, e.g. '8,8'")
    q.add_argument("--mode", choices=["window", "torus"], default="window")
    q.add_argument("--colors", choices=["checkerboard"], default=None)
    q.add_argument("--phase", default=None, help="comma list shifting the coloring")

    p = add("validate", _cmd_validate, help="check a structure file")
    p.add_argument("path")

    p = add("ball", _cmd_ball, help="extract a faithful pointed ball")
    p.add_argument("path")
    p.add_argument("--center", default=None)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("census", _cmd_census, help="isomorphism classes of h-balls")
    p.add_argument("path")
    p.add_argument("--h", type=int, required=True)

    p = add("lip", _cmd_lip, help="local isomorphism property at radius h")
    p.add_argument("path")
    p.add_argument("--h", type=int, required=True)

    p = add("compare", _cmd_compare, help="extraction preorder between two windows")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--h", type=int, required=True)

    p = add("algebra", _cmd_algebra, help="equational / commutativity / regularity checks")
    p.add_argument("path")
    p.add_argument(
        "--check",
        choices=["equational", "commutativity", "regularity"],
        required=True,
    )
    p.add_argument("--max-len", dest="max_len", type=int, default=4)
    p.add_argument("--others", nargs="*", default=[], help="further family members (regularity)")

    p = add("symmetries", _cmd_symmetries, help="anchored symmetry-approximant search")
    p.add_argument("path")
    p.add_argument("--displacement", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--no-reversals", action="store_true")
    p.add_argument("--include-identity", action="store_true")
    p.add_argument("--anchor", default=None)

    p = add("periods", _cmd_periods, help="period construction from translations")
    p.add_argument("path")
    p.add_argument("--rank-bound", dest="rank_bound", type=int, required=True)
    p.add_argument("--radius", type=int, default=None)

    p = add("rigidity", _cmd_rigidity, help="rigidity characterization over radii")
    p.add_argument("path")
    p.add_argument("--radii", required=True, help="'1..4' or comma list")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--lip-radius", dest="lip_radius", type=int, default=1)

    p = add("rigid-limit", _cmd_rigid_limit, help="constructive re-anchoring trace")
    p.add_argument("path")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", default=None)
    p.add_argument("--trace", default=None, help="directory for step windows + manifest")
    p.add_argument("--no-verify", action="store_true")

    p = add("quotient", _cmd_quotient, help="quotient a closed window by detected translations")
    p.add_argument("path")
    p.add_argument("--displacement", type=int, required=True)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--group-bound", dest="group_bound", type=int, default=20000)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        try:
            verdict, bounds, result = args.handler(args)
        except (WindowExhausted, UnfaithfulRadius, NoFaithfulElements, HypothesisUnverified) as exc:
            verdict, bounds, result = "inconclusive", _arg_bounds(args), {"reason": str(exc)}
            needed = getattr(exc, "needed_radius", None)
            if needed is not None:
                result["needed_radius"] = needed
        doc = report_document(args.cmd, verdict, bounds, result, _inputs(args))
        if args.report:
            write_report(doc, args.report)
    except (LocisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(dumps_report(doc))
    return 2 if verdict == "inconclusive" else 0


if __name__ == "__main__":
    sys.exit(main())
