"""Command-line interface: exit codes, report documents, determinism.

Exit code contract: 0 when a verdict was reached (either way), 2 when the
window could not support the question, 1 on user error. Reports are JSON
with stable key order; two runs of the same command differ only in the
generated_at stamp.
"""

import json
import os
import subprocess
import sys

import pytest

import locis
from locis import textio
from locis.cli import main
from locis.core import Language, Structure

from conftest import looping_forest_window


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip() else None
    return code, doc


def assert_user_error(capsys, *argv):
    """Exit 1 with an `error:` line on stderr and no report."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.fixture
def sturmian_file(tmp_path, capsys):
    path = str(tmp_path / "sturmian.locis")
    code, _ = run(
        capsys, "gen", "sturmian",
        "--r", "(0+1*sqrt(2))/1", "--s", "0", "--width", "150", "--out", path,
    )
    assert code == 0
    return path


@pytest.fixture
def board_file(tmp_path, capsys):
    path = str(tmp_path / "board.locis")
    code, _ = run(
        capsys, "gen", "grid", "--dims", "6,6", "--mode", "torus",
        "--colors", "checkerboard", "--out", path,
    )
    assert code == 0
    return path


class TestGenAndValidate:
    def test_gen_writes_loadable_window(self, tmp_path, capsys):
        path = str(tmp_path / "w.locis")
        code, doc = run(
            capsys, "gen", "sturmian",
            "--r", "(0+1*sqrt(2))/1", "--s", "1/3", "--width", "40", "--out", path,
        )
        assert code == 0
        assert doc["command"] == "gen"
        assert doc["verdict"] == "holds_up_to_bounds"
        M = textio.load(path)
        assert len(M) == 81
        assert doc["result"]["elements"] == 81

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "tree", "--k", "2", "--address", "tm12", "--depth", "12",
             "--halo", "4", "--out", "{out}"),
            ("gen", "hyperbolic", "--address", "tm", "--levels", "6",
             "--half-width", "16", "--support-radius", "3", "--out", "{out}"),
            ("gen", "cayley", "--k", "2", "--radius", "3", "--out", "{out}"),
            ("gen", "grid", "--dims", "5", "--mode", "window", "--out", "{out}"),
        ],
    )
    def test_gen_families(self, tmp_path, capsys, argv):
        path = str(tmp_path / "w.locis")
        argv = [a.format(out=path) for a in argv]
        code, doc = run(capsys, *argv)
        assert code == 0
        assert textio.load(path).tuple_count() > 0

    def test_validate_good_window(self, sturmian_file, capsys):
        code, doc = run(capsys, "validate", sturmian_file)
        assert code == 0
        assert doc["result"]["valid"] is True
        assert doc["result"]["connected"] is True
        assert doc["result"]["ball1_bound"] == 3

    def test_validate_corrupted_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.locis"
        bad.write_text("%locis structure v1\nlanguage:\nE/2\nelements:\n0\ntuples:\nE(0,9)\n")
        code, doc = run(capsys, "validate", str(bad))
        assert code == 0
        assert doc["verdict"] == "fails_with_witness"
        assert doc["result"]["valid"] is False

    def test_missing_file_is_an_error(self, capsys):
        code = main(["validate", "/nonexistent/file.locis"])
        assert code == 1

    def test_non_ascii_file_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.locis"
        bad.write_bytes("%locis structure v1\nlanguage:\nE/2\nelements:\n\u00e9\n".encode())
        code = main(["census", str(bad), "--h", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: line 5: non-ASCII byte: '\u00e9'\n"
        assert captured.out == ""


class TestBallAndCensus:
    def test_ball_extraction(self, sturmian_file, tmp_path, capsys):
        out = str(tmp_path / "ball.locis")
        code, doc = run(capsys, "ball", sturmian_file, "--center", "0",
                        "--h", "3", "--out", out)
        assert code == 0
        ball = textio.load(out)
        assert len(ball) == 7
        assert ball.is_closed()

    def test_ball_beyond_depth_is_inconclusive(self, sturmian_file, tmp_path, capsys):
        out = str(tmp_path / "ball.locis")
        code, doc = run(capsys, "ball", sturmian_file, "--center", "149",
                        "--h", "30", "--out", out)
        assert code == 2
        assert doc["verdict"] == "inconclusive"

    def test_census_checkerboard(self, board_file, capsys):
        code, doc = run(capsys, "census", board_file, "--h", "1")
        assert code == 0
        assert doc["result"]["classes"] == 2
        mults = [e["multiplicity"] for e in doc["result"]["entries"]]
        assert sorted(mults) == [18, 18]
        hexes = {e["signature"] for e in doc["result"]["entries"]}
        assert len(hexes) == 2  # distinct classes have distinct digests

    def test_census_column_window(self, sturmian_file, capsys):
        code, doc = run(capsys, "census", sturmian_file, "--h", "4")
        assert code == 0
        assert doc["result"]["classes"] == 10  # 2h+2

    def test_census_splits_a_looping_forest_window(self, tmp_path, capsys):
        # forest-kind, but f05's parent chain loops: the two 1-balls differ
        path = str(tmp_path / "loop.locis")
        textio.save(looping_forest_window(), path)
        code, doc = run(capsys, "census", path, "--h", "1")
        assert code == 0
        assert doc["result"]["classes"] == 2
        assert [e["multiplicity"] for e in doc["result"]["entries"]] == [1, 1]

    def test_census_negative_radius_is_an_error(self, board_file, capsys):
        assert_user_error(capsys, "census", board_file, "--h", "-1")

    def test_inconclusive_reports_name_their_inputs(self, tmp_path, capsys):
        paths = [str(tmp_path / f"g{i}.locis") for i in range(2)]
        for path in paths:
            run(capsys, "gen", "grid", "--dims", "4,4", "--out", path)
        code, doc = run(capsys, "census", paths[0], "--h", "2")
        assert code == 0 and doc["inputs"] == paths[:1]
        for argv, inputs in [
            (("census", paths[0], "--h", "9"), paths[:1]),
            (("compare", *paths, "--h", "9"), paths),
        ]:
            code, doc = run(capsys, *argv)
            assert code == 2
            assert doc["verdict"] == "inconclusive"
            assert doc["inputs"] == inputs


class TestLipAndCompare:
    def test_lip_holds_on_columns(self, sturmian_file, capsys):
        code, doc = run(capsys, "lip", sturmian_file, "--h", "1")
        assert code == 0
        assert doc["verdict"] == "holds_up_to_bounds"
        assert doc["result"]["k"] >= 1

    def test_lip_failure_carries_witness(self, tmp_path, capsys):
        lang = Language([("Succ", 2), ("White", 1), ("Black", 1)])
        n = 90
        tuples = [("Succ", (str(i), str(i + 1))) for i in range(n - 1)]
        tuples += [("Black" if i == 2 else "White", (str(i),)) for i in range(n)]
        M = Structure(lang, [str(i) for i in range(n)], tuples,
                      frontier=("0", str(n - 1)))
        path = str(tmp_path / "blemish.locis")
        textio.save(M, path)
        code, doc = run(capsys, "lip", path, "--h", "1")
        assert code == 0
        assert doc["verdict"] == "fails_with_witness"
        assert "witness" in doc["result"]

    def test_compare_shifted_intercepts(self, sturmian_file, tmp_path, capsys):
        other = str(tmp_path / "third.locis")
        run(capsys, "gen", "sturmian", "--r", "(0+1*sqrt(2))/1", "--s", "1/3",
            "--width", "150", "--out", other)
        code, doc = run(capsys, "compare", sturmian_file, other, "--h", "3")
        assert code == 0
        assert doc["verdict"] == "holds_up_to_bounds"
        assert doc["result"]["forward"] and doc["result"]["backward"]

    def test_compare_language_mismatch_is_error(self, sturmian_file, board_file, capsys):
        code = main(["compare", sturmian_file, board_file, "--h", "1"])
        assert code == 1


class TestAlgebraCommand:
    def test_equational_tree(self, tmp_path, capsys):
        path = str(tmp_path / "tree.locis")
        run(capsys, "gen", "tree", "--k", "2", "--address", "periodic:122",
            "--depth", "10", "--halo", "4", "--out", path)
        code, doc = run(capsys, "algebra", path, "--check", "equational")
        assert code == 0
        assert doc["verdict"] == "holds_up_to_bounds"

    def test_commutativity_witness_on_cayley(self, tmp_path, capsys):
        path = str(tmp_path / "cayley.locis")
        run(capsys, "gen", "cayley", "--k", "2", "--radius", "5", "--out", path)
        code, doc = run(capsys, "algebra", path, "--check", "commutativity",
                        "--max-len", "4")
        assert code == 0
        assert doc["verdict"] == "fails_with_witness"
        assert "witness" in doc["result"]

    def test_regularity_family(self, tmp_path, capsys):
        a = str(tmp_path / "t8.locis")
        b = str(tmp_path / "t6.locis")
        run(capsys, "gen", "grid", "--dims", "8,8", "--mode", "torus", "--out", a)
        run(capsys, "gen", "grid", "--dims", "6,6", "--mode", "torus", "--out", b)
        code, doc = run(capsys, "algebra", a, "--check", "regularity",
                        "--max-len", "6", "--others", b)
        assert code == 0
        assert doc["verdict"] == "fails_with_witness"
        assert doc["result"]["witness"]["word"]

    @pytest.mark.parametrize("check", ["commutativity", "regularity"])
    def test_negative_max_len_is_an_error(self, board_file, capsys, check):
        # Without the check, commutativity reported holds_up_to_bounds over
        # 36 anchors with no word checked.
        assert_user_error(capsys, "algebra", board_file, "--check", check, "--max-len", "-2")


class TestSymmetriesCommand:
    def test_mirror_found(self, sturmian_file, capsys):
        code, doc = run(capsys, "symmetries", sturmian_file,
                        "--displacement", "4", "--radius", "50", "--anchor", "0")
        assert code == 0
        assert doc["verdict"] == "holds_up_to_bounds"
        assert doc["result"]["found"]
        for entry in doc["result"]["found"]:
            assert entry["reversed"] is True
            assert entry["certified_layer"] >= 50

    def test_none_found(self, tmp_path, capsys):
        path = str(tmp_path / "quarter.locis")
        run(capsys, "gen", "sturmian", "--r", "(0+1*sqrt(2))/1", "--s", "1/4",
            "--width", "150", "--out", path)
        code, doc = run(capsys, "symmetries", path,
                        "--displacement", "4", "--radius", "50", "--anchor", "0")
        assert code == 0
        assert doc["verdict"] == "fails_with_witness"
        assert doc["result"]["max_kill_radius"] <= 50

    def test_shallow_window_inconclusive(self, tmp_path, capsys):
        path = str(tmp_path / "bare.locis")
        run(capsys, "gen", "grid", "--dims", "10", "--mode", "window", "--out", path)
        code, doc = run(capsys, "symmetries", path,
                        "--displacement", "2", "--radius", "50")
        assert code == 2
        assert doc["verdict"] == "inconclusive"
        assert doc["result"]["survivors"]

    def test_negative_displacement_is_an_error(self, board_file, capsys):
        assert_user_error(capsys, "symmetries", board_file, "--displacement", "-1", "--radius", "3")


class TestPeriodsRigidityQuotient:
    def test_periods_checkerboard(self, board_file, capsys):
        code, doc = run(capsys, "periods", board_file, "--rank-bound", "2")
        assert code == 0
        assert doc["verdict"] == "holds_up_to_bounds"
        assert doc["result"]["rank"] == 2
        assert len(doc["result"]["period"]) == 2

    def test_periods_aperiodic(self, sturmian_file, capsys):
        code, doc = run(capsys, "periods", sturmian_file,
                        "--rank-bound", "2", "--radius", "40")
        assert code == 0
        assert doc["verdict"] == "fails_with_witness"
        assert doc["result"]["orbit_cover"] == "no_generators"

    def test_periods_negative_radius_is_an_error(self, board_file, capsys):
        # Not exit 2 "window too shallow": the bound itself is invalid.
        assert_user_error(capsys, "periods", board_file, "--rank-bound", "2", "--radius", "-3")

    def test_periods_negative_rank_bound_is_named(self, board_file, capsys):
        assert main(["periods", board_file, "--rank-bound", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: invariant 'rank-bound' violated: negative rank bound -1\n"
        )
        assert captured.out == ""

    def test_rigidity_negative_radius_is_an_error(self, board_file, capsys):
        assert_user_error(capsys, "rigidity", board_file, "--radii=0,-2", "--s", "1")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rigidity", "{board}", "--radii", "x..3", "--s", "1"],
             "invariant 'radii' violated: malformed radii 'x..3'"),
            (["rigidity", "{board}", "--radii", "1,b", "--s", "1"],
             "invariant 'radii' violated: malformed radii '1,b'"),
            (["gen", "grid", "--dims", "4,a", "--out", "{out}"],
             "invariant 'dims' violated: malformed integer list '4,a'"),
            (["gen", "grid", "--dims", "4,4", "--phase", "1,x", "--colors", "checkerboard",
              "--out", "{out}"],
             "invariant 'phase' violated: malformed integer list '1,x'"),
        ],
        ids=["radii-range", "radii-list", "dims", "phase"],
    )
    def test_malformed_integer_list_is_named(self, board_file, tmp_path, capsys, argv, message):
        out = str(tmp_path / "unused.locis")
        argv = [a.format(board=board_file, out=out) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not os.path.exists(out)

    @pytest.mark.parametrize("phase", ["1", "1,2,3"])
    def test_gen_grid_phase_of_the_wrong_length_is_named(self, tmp_path, capsys, phase):
        out = str(tmp_path / "unused.locis")
        argv = ["gen", "grid", "--dims", "3,3", "--colors", "checkerboard", "--phase", phase,
                "--out", out]
        assert main(argv) == 1
        captured = capsys.readouterr()
        length = len(phase.split(","))
        assert captured.err == (
            f"error: invariant 'phase' violated: phase of length {length} for 2 dimensions\n"
        )
        assert captured.out == ""
        assert not os.path.exists(out)

    def test_rigid_limit_negative_steps_is_an_error(self, sturmian_file, capsys):
        assert_user_error(capsys, "rigid-limit", sturmian_file, "--steps", "-1", "--seed", "0")

    def test_rigidity_tree(self, tmp_path, capsys):
        path = str(tmp_path / "tmtree.locis")
        run(capsys, "gen", "tree", "--k", "2", "--address", "tm12",
            "--depth", "200", "--halo", "8", "--out", path)
        code, doc = run(capsys, "rigidity", path, "--radii", "1..3", "--s", "10")
        assert code == 0
        assert doc["verdict"] == "holds_up_to_bounds"
        assert [e["r"] for e in doc["result"]["per_radius"]] == [1, 2, 3]

    def test_rigid_limit_with_trace(self, tmp_path, capsys):
        path = str(tmp_path / "w.locis")
        run(capsys, "gen", "sturmian", "--r", "(0+1*sqrt(2))/1", "--s", "0",
            "--width", "2000", "--out", path)
        trace_dir = str(tmp_path / "trace")
        code, doc = run(capsys, "rigid-limit", path, "--steps", "2",
                        "--seed", "0", "--trace", trace_dir)
        assert code == 0
        assert doc["verdict"] == "holds_up_to_bounds"
        assert len(doc["result"]["steps"]) == 3
        manifest = json.loads((tmp_path / "trace" / "manifest.json").read_text())
        assert len(manifest["steps"]) == 3

    def test_rigid_limit_periodic_fails(self, tmp_path, capsys):
        lang = Language([("Succ", 2), ("White", 1), ("Black", 1)])
        n = 201
        tuples = [("Succ", (str(i), str(i + 1))) for i in range(n - 1)]
        tuples += [("Black" if i % 2 else "White", (str(i),)) for i in range(n)]
        M = Structure(lang, [str(i) for i in range(n)], tuples,
                      frontier=("0", str(n - 1)))
        path = str(tmp_path / "per2.locis")
        textio.save(M, path)
        code, doc = run(capsys, "rigid-limit", path, "--steps", "1", "--seed", "100")
        assert code == 0
        assert doc["verdict"] == "fails_with_witness"
        assert "separation" in doc["result"]["stage"]

    def test_quotient_checkerboard(self, board_file, tmp_path, capsys):
        out = str(tmp_path / "q.locis")
        code, doc = run(capsys, "quotient", board_file,
                        "--displacement", "2", "--out", out)
        assert code == 0
        Q = textio.load(out)
        assert len(Q) == 2  # one orbit per color
        assert doc["result"]["group_size"] == 18  # even sublattice of Z6 x Z6

    def test_quotient_negative_displacement_is_named_alone(self, board_file, capsys):
        # The default radius is the window size, which is not negative.
        assert main(["quotient", board_file, "--displacement", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: invariant 'radius' violated: negative displacement -1\n"
        )


class TestUnknownIds:
    @pytest.mark.parametrize(
        "argv, lookup",
        [
            (["symmetries", "--displacement", "1", "--radius", "2", "--anchor", "nope"],
             "depth lookup"),
            (["ball", "--center", "nope", "--h", "1", "--out", "unused.locis"], "ball centre"),
        ],
        ids=["symmetries-anchor", "ball-center"],
    )
    def test_unknown_id_is_named_as_missing(self, board_file, capsys, argv, lookup):
        assert main([argv[0], board_file, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: element 'nope' is not in the window ({lookup})\n"
        assert captured.out == ""


class TestParserBuiltOnce:
    """main reuses one parser per process; no call may leave state in it."""

    def test_one_parser_per_process(self):
        assert locis.cli._build_parser() is locis.cli._build_parser()

    def test_others_default_does_not_leak(self, board_file, tmp_path, capsys):
        other = str(tmp_path / "board4.locis")
        run(capsys, "gen", "grid", "--dims", "4,4", "--mode", "torus",
            "--colors", "checkerboard", "--out", other)
        argv = ("algebra", board_file, "--check", "regularity", "--max-len", "2")
        _, doc = run(capsys, *argv, "--others", other)
        assert doc["inputs"] == [board_file, other]
        assert doc["result"]["family"] == 2
        _, doc = run(capsys, *argv)
        assert doc["inputs"] == [board_file]
        assert doc["result"]["family"] == 1

    def test_usage_error_leaves_later_reports_unchanged(self, board_file, capsys):
        def report(*argv):
            assert main(list(argv)) == 0
            out = capsys.readouterr().out
            return "".join(line for line in out.splitlines(True) if '"generated_at"' not in line)

        before = report("census", board_file, "--h", "1")
        with pytest.raises(SystemExit) as exc:
            main(["census", board_file, "--h", "one"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert report("census", board_file, "--h", "1") == before


class TestReportPlumbing:
    def test_reports_are_deterministic(self, board_file, capsys):
        _, doc1 = run(capsys, "census", board_file, "--h", "1")
        _, doc2 = run(capsys, "census", board_file, "--h", "1")
        doc1.pop("generated_at")
        doc2.pop("generated_at")
        assert doc1 == doc2

    def test_report_flag_writes_same_document(self, board_file, tmp_path, capsys):
        rp = str(tmp_path / "report.json")
        code, doc = run(capsys, "census", board_file, "--h", "1", "--report", rp)
        assert code == 0
        with open(rp) as fh:
            stored = json.loads(fh.read())
        assert stored == doc

    @pytest.mark.parametrize("before_family", [True, False])
    def test_gen_report_flag_in_either_place(self, tmp_path, capsys, before_family):
        rp = str(tmp_path / "report.json")
        family = ["grid", "--dims", "3", "--out", str(tmp_path / "g.locis")]
        argv = ["gen", "--report", rp, *family] if before_family else ["gen", *family, "--report", rp]
        code, doc = run(capsys, *argv)
        assert code == 0
        with open(rp) as fh:
            assert json.loads(fh.read()) == doc

    def test_unwritable_report_path_is_an_error(self, tmp_path, capsys):
        rp = str(tmp_path / "missing" / "report.json")
        assert_user_error(capsys, "gen", "grid", "--dims", "3", "--out",
                          str(tmp_path / "g.locis"), "--report", rp)
        assert not os.path.exists(rp)

    def test_workers_flag_rejected(self, board_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--workers", "4", "census", board_file, "--h", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""  # no report

    def test_console_script_entry_point(self, tmp_path):
        out = str(tmp_path / "w.locis")
        proc = subprocess.run(
            [sys.executable, "-m", "locis.cli", "gen", "grid", "--dims", "4,4",
             "--mode", "torus", "--out", out],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["command"] == "gen"


# (argv, the files it reads, verdict). Files are named by their key in
# envelope_files; {out} is a fresh output path.
ENVELOPE_JOBS = [
    (["gen", "grid", "--dims", "4,4", "--out", "{out}"], [], "holds_up_to_bounds"),
    (["validate", "{column}"], ["column"], "holds_up_to_bounds"),
    (["validate", "{corrupt}"], ["corrupt"], "fails_with_witness"),
    (["ball", "{column}", "--center", "0", "--h", "3", "--out", "{out}"], ["column"],
     "holds_up_to_bounds"),
    (["census", "{board}", "--h", "1"], ["board"], "holds_up_to_bounds"),
    (["lip", "{column}", "--h", "1"], ["column"], "holds_up_to_bounds"),
    (["compare", "{shifted}", "{column}", "--h", "3"], ["shifted", "column"],
     "holds_up_to_bounds"),
    (["algebra", "{torus8}", "--check", "regularity", "--max-len", "6",
      "--others", "{torus6}", "{torus4}"], ["torus8", "torus6", "torus4"], "fails_with_witness"),
    (["symmetries", "{column}", "--displacement", "4", "--radius", "50", "--anchor", "0"],
     ["column"], "holds_up_to_bounds"),
    (["periods", "{board}", "--rank-bound", "2"], ["board"], "holds_up_to_bounds"),
    (["rigidity", "{tree}", "--radii", "1..2", "--s", "4"], ["tree"], "holds_up_to_bounds"),
    (["rigid-limit", "{column}", "--steps", "1", "--seed", "0"], ["column"],
     "holds_up_to_bounds"),
    (["rigid-limit", "{per2}", "--steps", "1", "--seed", "100"], ["per2"],
     "fails_with_witness"),
    (["quotient", "{board}", "--displacement", "2", "--out", "{out}"], ["board"],
     "holds_up_to_bounds"),
    (["census", "{grid}", "--h", "99"], ["grid"], "inconclusive"),
]


@pytest.fixture
def envelope_files(tmp_path, capsys, sturmian_file, board_file):
    paths = {"column": sturmian_file, "board": board_file}
    specs = {
        "shifted": ["sturmian", "--r", "(0+1*sqrt(2))/1", "--s", "1/3", "--width", "150"],
        "torus8": ["grid", "--dims", "8,8", "--mode", "torus"],
        "torus6": ["grid", "--dims", "6,6", "--mode", "torus"],
        "torus4": ["grid", "--dims", "4,4", "--mode", "torus"],
        "tree": ["tree", "--k", "2", "--address", "tm12", "--depth", "40", "--halo", "6"],
        "grid": ["grid", "--dims", "4,4"],
    }
    for name, spec in specs.items():
        paths[name] = str(tmp_path / f"{name}.locis")
        assert main(["gen", *spec, "--out", paths[name]]) == 0
    lang = Language([("Succ", 2), ("White", 1), ("Black", 1)])
    n = 201
    tuples = [("Succ", (str(i), str(i + 1))) for i in range(n - 1)]
    tuples += [("Black" if i % 2 else "White", (str(i),)) for i in range(n)]
    paths["per2"] = str(tmp_path / "per2.locis")
    textio.save(Structure(lang, [str(i) for i in range(n)], tuples, frontier=("0", str(n - 1))),
                paths["per2"])
    paths["corrupt"] = str(tmp_path / "corrupt.locis")
    with open(paths["corrupt"], "w") as fh:
        fh.write("%locis structure v1\nlanguage:\nE/2\nelements:\n0\ntuples:\nE(0,9)\n")
    capsys.readouterr()
    return paths


@pytest.mark.parametrize(
    "argv, inputs, verdict",
    ENVELOPE_JOBS,
    ids=[f"{i:02d}-{job[0][0]}" for i, job in enumerate(ENVELOPE_JOBS)],
)
def test_report_envelope(envelope_files, tmp_path, capsys, argv, inputs, verdict):
    # main alone builds the envelope: the command and inputs come from the
    # command line, the exit code from the verdict, and --report gets the
    # bytes that stdout printed.
    rp = tmp_path / "report.json"
    argv = [a.format(out=str(tmp_path / "out.locis"), **envelope_files) for a in argv]
    code = main([*argv, "--report", str(rp)])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["command"] == argv[0]
    assert doc["inputs"] == [envelope_files[name] for name in inputs]
    assert doc["verdict"] == verdict
    assert code == (2 if verdict == "inconclusive" else 0)
    assert rp.read_text() == out


HASH_SEED_JOBS = [
    ["symmetries", "{tree}", "--displacement", "3", "--radius", "12"],
    ["symmetries", "{board}", "--displacement", "2", "--radius", "4"],
    ["census", "{grid}", "--h", "2"],
    ["lip", "{grid}", "--h", "1"],
    ["compare", "{grid}", "{board}", "--h", "1"],
    ["rigid-limit", "{column}", "--steps", "2", "--seed", "0"],
    ["rigidity", "{tree}", "--radii", "1..2", "--s", "4"],
    ["periods", "{board}", "--rank-bound", "2"],
]

HASH_SEED_SCRIPT = """
import contextlib, io, json, sys
from locis.cli import main
docs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    doc = json.loads(out.getvalue())
    doc.pop("generated_at")
    docs.append([code, doc])
print(json.dumps(docs, sort_keys=True))
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path, capsys):
    # Set iteration order changes with PYTHONHASHSEED; BFS sources come from
    # the frontier frozenset, so every report is compared across two seeds.
    files = {
        "tree": ["tree", "--k", "2", "--address", "tm12", "--depth", "40", "--halo", "6"],
        "board": ["grid", "--dims", "6,6", "--mode", "torus", "--colors", "checkerboard"],
        "grid": ["grid", "--dims", "9,9", "--colors", "checkerboard"],
        "column": ["sturmian", "--r", "(0+1*sqrt(2))/1", "--s", "0", "--width", "400"],
    }
    paths = {}
    for name, spec in files.items():
        paths[name] = str(tmp_path / f"{name}.locis")
        assert main(["gen", *spec, "--out", paths[name]]) == 0
    capsys.readouterr()
    jobs = [[arg.format(**paths) for arg in argv] for argv in HASH_SEED_JOBS]
    src = os.path.dirname(os.path.dirname(os.path.abspath(locis.__file__)))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT, json.dumps(jobs)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert [code for code, _ in json.loads(outputs[0])] == [0, 0, 0, 0, 0, 0, 0, 0]
    assert outputs[0] == outputs[1]
