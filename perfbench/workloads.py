"""Workload inputs, job lists and expected answers.

A workload is a set-up step, which generates its windows and writes them as
structure files, and a fixed list of CLI jobs over those files. Every
expected answer below is fixed by theory, so it holds for every seed:

- a checkerboard grid has 2 ball classes at every radius, is locally
  isomorphic to its phase shift, and has the local isomorphism property;
- a closed star has 2 classes (centre and leaf);
- the 4x4 rook graph and the Shrikhande graph are vertex-transitive, so each
  has 1 class; their 1-balls differ (two triangles against a hexagon around
  the centre), so at h=1 each misses the other's class;
- a Sturmian column has 2h+2 classes at radius h, and all columns of one
  irrational slope share their factors, so they are locally isomorphic;
- periodic trees and tilings have symmetries; Thue-Morse ones have none, and
  every candidate dies by radius 13 (tree) or 10 (tiling);
- a checkerboard torus has period rank 2 and its orbits cover the interior;
- the rigid limit of a column escalates strictly through 4 steps and passes
  its own verification;
- the Thue-Morse tree satisfies the rigidity characterization;
- the free group fails strong commutativity; the torus satisfies it and
  strong regularity; trees and columns are equational.

The seed chooses two column intercepts (from a pool sharing the slope sqrt 2;
the rigid limit's column keeps intercept 0), the grid phase, and a
relabelling of element ids. The relabelling keeps the lexicographic order of
ids: the library breaks ties by id order (anchors, representatives, engine
candidate order), so an order-preserving relabelling keeps every verdict and
the amount of work the same. Names have a length fixed by the window size,
so only the names themselves change with the seed. Anchors given on the
command line are mapped through it.
"""

from __future__ import annotations

import os
import random
import time

from locis import generators, textio
from locis.core import Structure
from locis.generators import AddressSequence, QuadraticIrrational, checkerboard_colormap

SQRT2 = "(0+1*sqrt(2))/1"
# Intercepts the seed draws from; the rigid limit's column always uses 0.
INTERCEPTS = (
    "1/3",
    "1/4",
    "1/5",
    "2/3",
    "3/4",
    "(0+1*sqrt(2))/2",
    "(1+1*sqrt(2))/3",
)
GRID_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))


def relabel(M, rng):
    """Copy of M under a random order-preserving renaming of its elements."""
    n = len(M.elements)
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(2))
    width = len(f"{8 * n:x}")
    codes = sorted(rng.sample(range(8 * n), n))
    names = dict(zip(M.elements, (f"{tag}{c:0{width}x}" for c in codes)))
    tuples = [(sym, tuple(names[a] for a in t)) for sym, t in M.all_tuples()]
    frontier = [names[e] for e in M.frontier]
    return Structure(M.language, names.values(), tuples, frontier=frontier), names


def _graph(edges):
    """Closed structure of an undirected graph over one symmetric relation."""
    elements = sorted({v for e in edges for v in e})
    tuples = [("E", (a, b)) for a, b in edges] + [("E", (b, a)) for a, b in edges]
    return Structure([("E", 2)], elements, tuples)


def star(leaves):
    return _graph([("c", f"l{i}") for i in range(leaves)])


def rook(n):
    cells = [(i, j) for i in range(n) for j in range(n)]
    return _graph(
        [
            (f"r{i}_{j}", f"r{k}_{m}")
            for (i, j) in cells
            for (k, m) in cells
            if (i, j) < (k, m) and (i == k or j == m)
        ]
    )


def shrikhande():
    steps = {(1, 0), (0, 1), (1, 1), (3, 0), (0, 3), (3, 3)}
    cells = [(i, j) for i in range(4) for j in range(4)]
    return _graph(
        [
            (f"s{i}_{j}", f"s{k}_{m}")
            for (i, j) in cells
            for (k, m) in cells
            if (i, j) < (k, m) and ((k - i) % 4, (m - j) % 4) in steps
        ]
    )


# ---------------------------------------------------------------------------
# Set-up: window name -> (builder, anchor). The anchor is the generated
# window's deepest element, the one the CLI picks when none is given; None
# where no job names one.


def _tree(address, halo):
    return lambda: generators.gen_kary_tree(2, AddressSequence.parse(address), 2000, halo=halo)


def _tiling(address):
    return lambda: generators.gen_binary_hyperbolic(AddressSequence.parse(address), 40, 64)


def _column(intercept):
    slope, s = QuadraticIrrational.parse(SQRT2), QuadraticIrrational.parse(intercept)
    return lambda: generators.gen_sturmian(slope, s, 5000)


def _board(dims, mode, phase=None):
    periods, cmap = checkerboard_colormap()
    return lambda: generators.gen_grid(dims, mode=mode, periods=periods, colormap=cmap, phase=phase)


def _windows_symmetry(rng):
    return {
        "tree_periodic": (_tree("periodic:122", 12), "c0"),
        "tree_tm": (_tree("tm12", 14), "c0"),
        "tiling_periodic": (_tiling("periodic:01"), "L-1o-1"),
        "tiling_tm": (_tiling("tm"), "L-1o-1"),
        "torus_board": (_board((8, 8), "torus"), None),
    }


def _windows_census(rng):
    phase = rng.choice(GRID_PHASES)
    shifted = ((phase[0] + 1) % 2, phase[1])
    return {
        "grid": (_board((21, 21), "window", phase), None),
        "grid_shifted": (_board((21, 21), "window", shifted), None),
        "star": (lambda: star(7), None),
        "rook": (lambda: rook(4), None),
        "shrikhande": (shrikhande, None),
    }


def _windows_rigidity(rng):
    # The rigid limit's scales, and so its work, depend on the intercept, so
    # its column keeps criterion 8's intercept 0; the other two vary.
    b, c = rng.sample(INTERCEPTS, 2)
    return {
        "column_a": (_column("0"), "0"),
        "column_b": (_column(b), None),
        "column_c": (_column(c), None),
        "tree_tm": (_tree("tm12", 14), None),
        "cayley": (lambda: generators.gen_cayley_free(2, 6), None),
        "torus": (lambda: generators.gen_grid((8, 8), mode="torus"), None),
    }


def setup(workload, seed, directory):
    """Generate the workload's windows and save them under `directory`.

    Returns ({window name: (path, relabelled anchor or None)}, seconds). The
    seconds count generating and saving only, not the relabelling between
    them, which is the benchmark's own work.
    """
    rng = random.Random(f"{workload}:{seed}")
    builders = WINDOWS[workload](rng)
    files, seconds = {}, 0.0
    for name, (build, anchor) in builders.items():
        t0 = time.perf_counter()
        M = build()
        seconds += time.perf_counter() - t0
        M, names = relabel(M, rng)
        path = os.path.join(directory, name + ".locis")
        t0 = time.perf_counter()
        textio.save(M, path)
        seconds += time.perf_counter() - t0
        files[name] = (path, names[anchor] if anchor is not None else None)
    return files, seconds


# ---------------------------------------------------------------------------
# Checks. Each returns None when the report agrees with theory, else a
# reason.


def _verdict(doc, want):
    if doc["verdict"] != want:
        return f"verdict {doc['verdict']}, expected {want}"
    return None


def _census_classes(n):
    def check(doc):
        got = doc["result"]["classes"]
        if got != n:
            return f"{got} classes, expected {n}"
        return _verdict(doc, "holds_up_to_bounds")

    return check


def _locally_isomorphic(classes):
    def check(doc):
        res = doc["result"]
        if not (res["forward"] and res["backward"]):
            return "windows not locally isomorphic"
        mult = res["multiplicities"]
        if len(mult) != classes or not all(a > 0 and b > 0 for a, b in mult.values()):
            return f"class table {mult}, expected {classes} shared classes"
        return _verdict(doc, "holds_up_to_bounds")

    return check


def _lip_holds(classes):
    def check(doc):
        got = len(doc["result"]["per_class"])
        if got != classes:
            return f"{got} classes, expected {classes}"
        return _verdict(doc, "holds_up_to_bounds")

    return check


def _disjoint_single_classes(doc):
    res = doc["result"]
    mult = sorted(tuple(v) for v in res["multiplicities"].values())
    if res["forward"] or res["backward"] or len(mult) != 2 or mult[0][0] or mult[1][1]:
        return f"class table {mult}, expected one class per side and none shared"
    return _verdict(doc, "fails_with_witness")


def _symmetry_found(doc):
    if doc["result"]["outcome"] != "found" or not doc["result"]["found"]:
        return f"outcome {doc['result']['outcome']}, expected found"
    return _verdict(doc, "holds_up_to_bounds")


def _no_symmetry(max_kill):
    def check(doc):
        res = doc["result"]
        if res["outcome"] != "none_found":
            return f"outcome {res['outcome']}, expected none_found"
        kill = res["max_kill_radius"]
        if kill is None or kill > max_kill:
            return f"max kill radius {kill}, expected at most {max_kill}"
        return _verdict(doc, "fails_with_witness")

    return check


def _period_rank_2(doc):
    res = doc["result"]
    if res["rank"] != 2 or res["orbit_cover"] != "covers_interior":
        return f"rank {res['rank']} cover {res['orbit_cover']}, expected 2 covering the interior"
    return _verdict(doc, "holds_up_to_bounds")


def _rigid_limit_escalates(doc):
    res = doc["result"]
    scales = [(st["r"], st["s"]) for st in res.get("steps", [])]
    if len(scales) != 4 or scales != sorted(set(scales)):
        return f"scales {scales}, expected 4 strictly escalating steps"
    flags = res["verification"]
    if not flags or not all(all(v) for v in flags.values()):
        return f"verification {flags}"
    return _verdict(doc, "holds_up_to_bounds")


def _characterization_holds(doc):
    if doc["result"]["outcome"] != "characterization_holds_up_to_bounds":
        return f"outcome {doc['result']['outcome']}"
    return _verdict(doc, "holds_up_to_bounds")


def _word_length(text):
    return 0 if text == "id" else text.count(",") + 1


def _commutativity_fails(max_len):
    def check(doc):
        w = doc["result"].get("witness")
        if w is None:
            return "no commutativity witness"
        if _word_length(w["v"]) + _word_length(w["w"]) > max_len:
            return f"witness words {w['v']} / {w['w']} longer than {max_len}"
        return _verdict(doc, "fails_with_witness")

    return check


def _holds(doc):
    return _verdict(doc, "holds_up_to_bounds")


# A job is a command line and its check. "{name}" stands for the path of the
# set-up window `name`, "@name" for its relabelled anchor.
JOBS = {
    "symmetry": [
        ("symmetries {tree_periodic} --displacement 3 --radius 50 --anchor @tree_periodic",
         _symmetry_found),
        ("symmetries {tree_tm} --displacement 8 --radius 50 --anchor @tree_tm", _no_symmetry(13)),
        ("symmetries {tiling_periodic} --displacement 4 --radius 12 --anchor @tiling_periodic",
         _symmetry_found),
        ("symmetries {tiling_tm} --displacement 4 --radius 12 --anchor @tiling_tm",
         _no_symmetry(10)),
        ("periods {torus_board} --rank-bound 2", _period_rank_2),
    ],
    "census": [
        ("census {grid} --h 3", _census_classes(2)),
        ("compare {grid} {grid_shifted} --h 2", _locally_isomorphic(2)),
        ("lip {grid} --h 2", _lip_holds(2)),
        ("census {star} --h 1", _census_classes(2)),
        ("compare {rook} {shrikhande} --h 1", _disjoint_single_classes),
    ],
    "rigidity": [
        ("rigid-limit {column_a} --steps 3 --seed @column_a", _rigid_limit_escalates),
        ("compare {column_a} {column_b} --h 8", _locally_isomorphic(18)),
        ("compare {column_b} {column_c} --h 8", _locally_isomorphic(18)),
        ("lip {column_c} --h 3", _lip_holds(8)),
        ("rigidity {tree_tm} --radii 1..4 --s 20", _characterization_holds),
        ("algebra {tree_tm} --check equational", _holds),
        ("algebra {column_a} --check equational", _holds),
        ("algebra {cayley} --check commutativity --max-len 4", _commutativity_fails(4)),
        ("algebra {torus} --check commutativity --max-len 6", _holds),
        ("algebra {torus} --check regularity --max-len 6", _holds),
    ],
}

WINDOWS = {
    "symmetry": _windows_symmetry,
    "census": _windows_census,
    "rigidity": _windows_rigidity,
}


def jobs(workload, files):
    """The workload's jobs over the set-up files: [(command, argv, check)]."""
    out = []
    for line, check in JOBS[workload]:
        argv = []
        for token in line.split():
            if token.startswith("{"):
                token = files[token[1:-1]][0]
            elif token.startswith("@"):
                token = files[token[1:]][1]
            argv.append(token)
        out.append((argv[0], argv, check))
    return out
