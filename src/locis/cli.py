"""Command-line entry point.

Every analysis subcommand prints a versioned JSON report to stdout (and to
--report PATH when given) and exits 0 when a verdict was produced, 2 when the
window was too small to decide, 1 on errors. Structure-producing subcommands
(gen, ball, quotient) additionally write a structure file.
"""

from __future__ import annotations

import argparse
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
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in text.split(",") if p]


def _parse_ints(text):
    return tuple(int(p) for p in text.split(",") if p)


def _structure_stats(M):
    import hashlib

    digest = hashlib.sha256(repr(M.content_key()).encode()).hexdigest()[:16]
    return {
        "elements": len(M),
        "tuples": M.tuple_count(),
        "frontier": len(M.frontier),
        "content": digest,
    }


def _emit(args, doc):
    sys.stdout.write(dumps_report(doc))
    if getattr(args, "report", None):
        write_report(doc, args.report)


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
# Subcommand handlers. Each returns a finished report document.


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
        dims = _parse_ints(args.dims)
        periods = cmap = None
        if args.colors == "checkerboard":
            periods, cmap = checkerboard_colormap(len(dims))
        phase = _parse_ints(args.phase) if args.phase else None
        M = gen_grid(dims, mode=args.mode, periods=periods, colormap=cmap, phase=phase)
        bounds = {
            "family": fam,
            "dims": list(dims),
            "mode": args.mode,
            "colors": args.colors or "none",
            "phase": list(phase) if phase else None,
        }
    else:  # pragma: no cover - argparse restricts choices
        raise LocisError(f"unknown family {fam}")
    textio.save(M, args.out)
    result = _structure_stats(M)
    result["out"] = args.out
    return report_document("gen", "holds_up_to_bounds", bounds, result)


def _cmd_validate(args):
    try:
        M = textio.load(args.path)
    except LocisError as exc:
        return report_document(
            "validate",
            "fails_with_witness",
            {"path": args.path},
            {"valid": False, "reason": str(exc)},
            inputs=_inputs(args),
        )
    result = _structure_stats(M)
    result["valid"] = True
    result["connected"] = M.is_connected()
    bound, witness = M.local_finiteness_witness()
    result["ball1_bound"] = bound
    result["ball1_witness"] = witness
    return report_document(
        "validate",
        "holds_up_to_bounds",
        {"path": args.path, "window": len(M)},
        result,
        inputs=_inputs(args),
    )


def _cmd_ball(args):
    M = textio.load(args.path)
    center = args.center if args.center is not None else M.deepest_element()
    pb = M.ball(center, args.h)
    textio.save(pb.structure, args.out)
    result = _structure_stats(pb.structure)
    result["out"] = args.out
    result["center"] = center
    return report_document(
        "ball",
        "holds_up_to_bounds",
        {"h": args.h, "window": len(M)},
        result,
        inputs=_inputs(args),
    )


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
    return report_document(
        "census",
        "holds_up_to_bounds",
        {"h": args.h, "window": len(M), "censused": table.censused},
        {"classes": len(entries), "entries": entries},
        inputs=_inputs(args),
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
    return report_document(
        "lip",
        rep.verdict,
        {"h": args.h, "window": len(M), "window_bound": rep.window_bound},
        body,
        inputs=_inputs(args),
    )


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
    return report_document(
        "compare",
        verdict,
        {"h": args.h, "windows": [len(M), len(N)], "censused": list(rep.censused)},
        body,
        inputs=_inputs(args),
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
    return report_document(
        "algebra", rep.verdict, bounds, body, inputs=_inputs(args)
    )


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
    if rep.verdict == "found":
        verdict = "holds_up_to_bounds"
    elif rep.verdict == "none_found":
        verdict = "fails_with_witness"
    else:
        verdict = "inconclusive"
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
    return report_document(
        "symmetries",
        verdict,
        {
            "window": len(M),
            "displacement": args.displacement,
            "radius": args.radius,
        },
        body,
        inputs=_inputs(args),
    )


def _cmd_periods(args):
    M = textio.load(args.path)
    rep = detect_periodicity(M, args.rank_bound, radius=args.radius)
    if rep.orbit_cover == "covers_interior":
        verdict = "holds_up_to_bounds"
    elif rep.orbit_cover == "no_generators":
        verdict = "fails_with_witness"
    else:
        verdict = "inconclusive"
    body = {
        "rank": rep.rank,
        "rank_label": str(rep.rank_label()),
        "orbit_cover": rep.orbit_cover,
        "period": list(rep.period),
        "generators": [partial_iso_summary(g) for g in rep.generators],
        "weakly_connected": rep.weakly_connected,
    }
    return report_document(
        "periods",
        verdict,
        {"window": len(M), "rank_bound": args.rank_bound, "radius": args.radius},
        body,
        inputs=_inputs(args),
    )


def _cmd_rigidity(args):
    M = textio.load(args.path)
    radii = _parse_radii(args.radii)
    rep = rigidity_characterization(M, radii, args.s, lip_radius=args.lip_radius)
    if rep.verdict == "characterization_holds_up_to_bounds":
        verdict = "holds_up_to_bounds"
    elif rep.verdict == "property_P_detected":
        verdict = "fails_with_witness"
    else:
        verdict = "inconclusive"
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
    return report_document(
        "rigidity",
        verdict,
        {"window": len(M), "radii": radii, "s": args.s, "lip_radius": args.lip_radius},
        body,
        inputs=_inputs(args),
    )


def _cmd_rigid_limit(args):
    M = textio.load(args.path)
    seed = args.seed if args.seed is not None else M.deepest_element()
    try:
        trace = rigid_limit(M, args.steps, seed, verify=not args.no_verify)
    except CharacterizationFails as exc:
        return report_document(
            "rigid-limit",
            "fails_with_witness",
            {"window": len(M), "steps": args.steps, "seed": seed},
            {"stage": exc.stage, "detail": str(exc.detail)},
            inputs=_inputs(args),
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
    return report_document(
        "rigid-limit",
        "holds_up_to_bounds",
        {"window": len(M), "steps": args.steps, "seed": seed},
        body,
        inputs=_inputs(args),
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
    return report_document(
        "quotient",
        "holds_up_to_bounds",
        {
            "window": len(M),
            "displacement": args.displacement,
            "radius": radius,
            "group_bound": args.group_bound,
        },
        body,
        inputs=_inputs(args),
    )


# ---------------------------------------------------------------------------
# Parser.


def _build_parser():
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.cmd
    try:
        doc = args.handler(args)
    except (WindowExhausted, UnfaithfulRadius, NoFaithfulElements, HypothesisUnverified) as exc:
        body = {"reason": str(exc)}
        needed = getattr(exc, "needed_radius", None)
        if needed is not None:
            body["needed_radius"] = needed
        doc = report_document(command, "inconclusive", _arg_bounds(args), body, _inputs(args))
        _emit(args, doc)
        return 2
    except LocisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, doc)
    return 2 if doc["verdict"] == "inconclusive" else 0


if __name__ == "__main__":
    sys.exit(main())
