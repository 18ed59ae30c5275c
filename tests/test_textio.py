"""Serialization round-trips and parse failures."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locis import textio
from locis.core import Language, Structure
from locis.errors import ArityMismatch, DanglingElement, ParseError, UnknownSymbol
from locis.generators import (
    AddressSequence,
    gen_binary_hyperbolic,
    gen_kary_tree,
    gen_sturmian,
)

from conftest import LANG2, mk, reference_loads


def test_roundtrip_small():
    M = mk([("P", ("0", "1")), ("Q", ("1", "2"))], n=3, frontier=("0",))
    assert textio.loads(textio.dumps(M)) == M


def test_dumps_is_canonical():
    a = Structure(
        Language([("E", 2), ("C", 1)]),
        ["b", "a"],
        [("C", ("a",)), ("E", ("b", "a")), ("E", ("a", "b"))],
        frontier=("b",),
    )
    text = textio.dumps(a)
    # canonical: dump of the parse reproduces the text exactly
    assert textio.dumps(textio.loads(text)) == text
    # elements and tuples appear sorted
    assert text.index("\na\n") < text.index("\nb\n")
    assert text.index("E(a,b)") < text.index("E(b,a)")


def test_roundtrip_generated_windows():
    tree = gen_kary_tree(2, AddressSequence.thue_morse(1, 2), depth=6, halo=4)
    stur = gen_sturmian(textio_sqrt2(), 0, 30)
    for M in (tree, stur):
        assert textio.loads(textio.dumps(M)) == M


def test_a_loaded_window_holds_each_id_once():
    """Every id a loaded window's tuple views and frontier hand out, also
    after a restrict, is the id object in `elements`; and with its tuples
    as integer columns the window holds under 300 bytes per element (as
    id tuples, over 350)."""
    tiling = gen_binary_hyperbolic(AddressSequence.parse("tm"), 12, 32, support_radius=6)
    tree = gen_kary_tree(2, AddressSequence.parse("tm12"), 1000, halo=6)
    for W in (tiling, tree):
        text = textio.dumps(W)
        textio.loads(text)  # compiles and caches the line patterns
        gc.collect()
        tracemalloc.start()
        try:
            M = textio.loads(text)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert M == W and held < 300 * len(M)
        sub = M.restrict(M.ball_elements(M.deepest_element(), 3), frontier=())
        for N in (M, sub):
            at, pos = N.elements, N._positions()
            assert all(a is at[pos[a]] for _, t in N.all_tuples() for a in t)
            assert all(e is at[pos[e]] for e in N.frontier)


def textio_sqrt2():
    from locis.generators import QuadraticIrrational

    return QuadraticIrrational.sqrt(2)


def test_save_load(tmp_path):
    M = mk([("P", ("0", "1"))], n=2)
    p = tmp_path / "w.locis"
    textio.save(M, p)
    assert textio.load(p) == M


def test_load_names_the_line_of_a_non_ascii_byte(tmp_path):
    M = mk([("P", ("0", "1"))], n=2)
    lines = textio.dumps(M).splitlines()
    p = tmp_path / "w.locis"
    # line 6 is the first entry of the elements section; "\r\n" is one line
    # break, and so are "\r" and "\x0c"
    assert lines[4:6] == ["elements:", "0"]
    lines[5] = "caf\u00e9"
    seps = ["\r\n", "\r", "\n", "\x0c"] * len(lines)
    p.write_bytes("".join(line + sep for line, sep in zip(lines, seps)).encode("utf-8"))
    with pytest.raises(ParseError) as exc:
        textio.load(p)
    err = exc.value
    assert (err.line_no, err.line, err.reason) == (6, "caf\u00e9", "non-ASCII byte")
    p.write_bytes(b"\xff" + textio.dumps(M).encode())
    with pytest.raises(ParseError) as exc:
        textio.load(p)
    assert (exc.value.line_no, exc.value.reason) == (1, "non-ASCII byte")
    assert exc.value.line == "\\xff" + lines[0]


def test_load_reads_any_line_break(tmp_path):
    M = mk([("P", ("0", "1"))], n=2, frontier=("1",))
    p = tmp_path / "w.locis"
    for sep in ("\r\n", "\r", "\x0c"):
        p.write_bytes(textio.dumps(M).replace("\n", sep).encode())
        assert textio.load(p) == M


def test_comments_and_blank_lines_ignored():
    M = mk([("P", ("0", "1"))], n=2, frontier=("1",))
    lines = textio.dumps(M).splitlines()
    noisy = [lines[0], "# a comment", ""] + lines[1:] + ["  ", "# end"]
    assert textio.loads("\n".join(noisy)) == M


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace("%locis structure v1", "%locis structure v2"),
        lambda t: t.replace("P/2", "P/two"),
        lambda t: t.replace("tuples:", "relations:"),
        lambda t: "\n".join(t.splitlines()[1:]),  # missing header
        lambda t: t.replace("P(0,1)", "P(0,1"),   # unbalanced parens
        lambda t: "",
    ],
)
def test_malformed_documents_raise_parse_error(mutate):
    M = mk([("P", ("0", "1"))], n=2)
    with pytest.raises(ParseError):
        textio.loads(mutate(textio.dumps(M)))


@pytest.mark.parametrize(
    "suffix, exc",
    [
        ("P(0)", ArityMismatch),       # wrong tuple width
        ("Q(9,9)", DanglingElement),   # unknown element ids
        ("R(0,1)", UnknownSymbol),     # symbol not in the language
    ],
)
def test_semantic_errors_surface_as_core_exceptions(suffix, exc):
    # Syntactically fine documents that violate structure invariants raise
    # the structured core exceptions, not ParseError.
    M = mk([("P", ("0", "1"))], n=2)
    with pytest.raises(exc):
        textio.loads(textio.dumps(M) + suffix + "\n")


# ---------------------------------------------------------------------------
# Differential tests against reference_loads, the line-by-line parser in
# conftest: equal structures, or the same exception type and message (for a
# ParseError: line number, reason and raw line).


def outcome(load, text):
    try:
        return ("ok", load(text).content_key())
    except Exception as exc:  # the exception is the outcome under comparison
        return (type(exc).__name__, str(exc))


def assert_same_outcome(text):
    assert outcome(textio.loads, text) == outcome(reference_loads, text)


def generated_windows():
    from locis.generators import (
        QuadraticIrrational,
        checkerboard_colormap,
        gen_binary_hyperbolic,
        gen_cayley_free,
        gen_grid,
    )

    periods, cmap = checkerboard_colormap()
    return [
        gen_sturmian(QuadraticIrrational.sqrt(2), 0, 12),
        gen_kary_tree(2, AddressSequence.thue_morse(1, 2), depth=5, halo=3),
        gen_kary_tree(3, AddressSequence.parse("periodic:122"), depth=4, halo=2),
        gen_binary_hyperbolic(AddressSequence.thue_morse(), levels=5, half_width=6,
                              support_radius=2),
        gen_cayley_free(2, 3),
        gen_grid((4, 4), mode="torus", periods=periods, colormap=cmap),
        gen_grid((3,), mode="window"),
        Structure(Language([("T", 3), ("U", 1)]), ["a", "b.1", "c-2"],
                  [("T", ("a", "a", "b.1")), ("U", ("c-2",))]),
        Structure(Language([("E", 2)]), [], []),
    ]


def test_canonical_dumps_of_every_generator_load_as_the_reference():
    for M in generated_windows():
        text = textio.dumps(M)
        assert textio.loads(text) == reference_loads(text) == M


def _noisy_variants(text):
    lines = text.splitlines()
    head, lang_at = lines[0], lines.index("language:")
    el_at, fr_at, tu_at = (lines.index(s) for s in ("elements:", "frontier:", "tuples:"))
    sections = {
        "language": lines[lang_at:el_at],
        "elements": lines[el_at:fr_at],
        "frontier": lines[fr_at:tu_at],
        "tuples": lines[tu_at:],
    }
    yield "\n".join(lines)  # no final newline
    yield "\n".join(["# leading comment", "", head] + lines[1:] + ["", "# trailing:"])
    yield "\n".join(f" \t{line}\t " for line in lines) + "\n"
    yield "\n".join([head] + [f"{line}\n# c:\n  \n\t" for line in lines[1:]])
    for sep in ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        yield sep.join(lines) + sep
    yield "\n".join([head] + sections["tuples"] + sections["frontier"]
                    + sections["language"] + sections["elements"]) + "\n"
    yield "\n".join([head] + sections["elements"] + sections["language"]
                    + sections["tuples"] + sections["frontier"])
    body = lambda name: sections[name][1:]  # noqa: E731
    yield "\n".join([head] + sections["language"]
                    + ["elements:"] + body("elements")[::-1] + body("elements")[:2]
                    + ["frontier:"] + body("frontier") * 2
                    + ["tuples:"] + body("tuples")[::-1] + body("tuples")[:3]) + "\n"
    yield "\n".join([head] + sections["language"] + sections["elements"]
                    + ["frontier:", "tuples:"]) + "\n"
    yield "\n".join([head] + sections["language"] + sections["elements"] + ["frontier:"])
    yield "\n".join([head] + sections["language"] + sections["elements"])
    yield "\u3000" + "\n\xa0".join(lines) + "\x1f\n"


def test_noisy_documents_load_as_the_reference():
    for M in generated_windows():
        for text in _noisy_variants(textio.dumps(M)):
            assert_same_outcome(text)


CORRUPTIONS = [
    "", "  ", "#", "# note:", ":", "x:", "language:", "elements:", "frontier:", "tuples:",
    "%locis structure v1", "E/2", "E/x", "Z/1", "E/0", "E/2:", "a", "a b", "a:", "9",
    "E(0,1)", "E(0,,1)", "E()", "E(0,1", "E(0,9999)", "Z(0)", "E(0)", "E(,)", "E(0,)",
    "E(0,1))", "E((0,1)", "E(0,1) x", "Succ(0,1)", "Black(0)", "P1(0,1)",
]


def test_single_line_corruptions_fail_like_the_reference():
    for M in (mk([("P", ("0", "1")), ("Q", ("1", "2"))], n=3, frontier=("0",)),
              gen_sturmian(textio_sqrt2(), 0, 2)):
        lines = textio.dumps(M).splitlines()
        for i in range(len(lines) + 1):
            for bad in CORRUPTIONS:
                assert_same_outcome("\n".join(lines[:i] + [bad] + lines[i + 1:]) + "\n")
                assert_same_outcome("\n".join(lines[:i] + [bad] + lines[i:]))


SYMBOL_POOL = ("P", "P1", "Q", "R_2")  # P and P1 share a prefix
ID_POOL = ("a", "b.1", "c-2", "d+e", "0", "P", "x_9")
MALFORMED = ("P(a,b", "P1(a,)", "Q((a))", "P(a) x", "R_2[a]", "P(a b)", "P()", "(a)")


@st.composite
def documents(draw):
    """(fault kind or None, a document of random symbols of arity 1-3 whose
    tuple lines are shuffled and duplicated, with comments, padding and
    mixed line breaks, and with at most one injected fault)."""
    rnd = draw(st.randoms(use_true_random=False))
    symbols = draw(st.permutations(SYMBOL_POOL))
    arities = {name: draw(st.integers(1, 3)) for name in symbols}
    elements = draw(st.lists(st.sampled_from(ID_POOL), min_size=1, unique=True))
    frontier = [e for e in elements if rnd.random() < 0.3]

    def tuple_line(name, width):
        return f"{name}({','.join(rnd.choice(elements) for _ in range(width))})"

    tuples = [tuple_line(name, arities[name])
              for name in draw(st.lists(st.sampled_from(symbols), max_size=12))]
    tuples += [rnd.choice(tuples) for _ in range(rnd.randrange(3))] if tuples else []
    rnd.shuffle(tuples)
    fault = draw(st.sampled_from([None, "malformed", "unknown", "arity", "dangling"]))
    name = rnd.choice(symbols)
    bad = {
        None: None,
        "malformed": rnd.choice(MALFORMED),
        "unknown": tuple_line("Z", 1),
        "arity": tuple_line(name, arities[name] + rnd.choice((-1, 1))),
        "dangling": f"{name}({','.join(['zz'] * arities[name])})",
    }[fault]
    if bad is not None:
        tuples.insert(rnd.randrange(len(tuples) + 1), bad)

    body = (["language:"] + [f"{n}/{arities[n]}" for n in symbols]
            + ["elements:"] + elements + ["frontier:"] + frontier + ["tuples:"] + tuples)
    for _ in range(rnd.randrange(4)):
        body.insert(rnd.randrange(len(body) + 1), rnd.choice(("# note", "", " \t", "#x:")))
    lines = ["%locis structure v1"] + body
    pad = lambda: "".join(rnd.choice(" \t\x1f") for _ in range(rnd.randrange(3)))  # noqa: E731
    lines = [pad() + line + pad() if rnd.random() < 0.3 else line for line in lines]
    return fault, "".join(line + rnd.choice(("\n", "\r\n", "\r")) for line in lines)


def test_random_documents_load_as_the_reference(monkeypatch):
    # Every valid document is read by the per-symbol pass alone; a document
    # with a fault falls back to the streaming pass, which names the error.
    streamed = []

    def counted(text, heads, stops):
        streamed.append(text)
        return stream(text, heads, stops)

    stream = textio._streamed
    monkeypatch.setattr(textio, "_streamed", counted)
    kinds = set()

    @given(documents())
    @settings(max_examples=400, deadline=None)
    def check(doc):
        fault, text = doc
        del streamed[:]
        got = outcome(textio.loads, text)
        assert got == outcome(reference_loads, text)
        assert bool(streamed) == (got[0] != "ok")
        kinds.add((fault, got[0]))

    check()
    assert {(None, "ok"), ("malformed", "ParseError"), ("unknown", "UnknownSymbol"),
            ("arity", "ArityMismatch"), ("dangling", "DanglingElement")} <= kinds


def test_empty_and_headless_documents():
    for text in ("", "\n\n", "# only a comment\n", "%locis structure v1\n",
                 "%locis structure v1\nelements:\na\n", "language:\n", "a\n"):
        assert_same_outcome(text)
    with pytest.raises(ParseError) as exc:
        textio.loads("# c\n  \n")
    assert exc.value.line_no == 0


# ---------------------------------------------------------------------------
# Error precedence and positions.


def test_syntax_error_after_a_dangling_first_tuple_wins():
    # The tuples stream into the constructor, which meets the dangling id
    # first; the malformed line further down must still be the error.
    M = mk([("P", ("0", "1"))], n=2)
    lines = textio.dumps(M).splitlines()
    at = lines.index("tuples:") + 1
    lines[at:at] = ["P(0,404)"] + ["P(1,0)"] * 50 + ["P(0,1"]
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as exc:
        textio.loads(text)
    assert exc.value.line_no == at + 52
    assert_same_outcome(text)


def test_syntax_error_in_an_earlier_tuples_section_wins():
    text = ("%locis structure v1\nlanguage:\nP/2\ntuples:\nP(0,1\nelements:\n0\nbad id\n"
            "frontier:\n")
    with pytest.raises(ParseError) as exc:
        textio.loads(text)
    assert exc.value.line_no == 5
    assert_same_outcome(text)


def test_malformed_line_deep_in_a_long_tuples_section_reports_its_line():
    n = 10_000
    M = Structure(Language([("S", 2)]), [str(i) for i in range(n + 1)],
                  [("S", (str(i), str(i + 1))) for i in range(n)])
    lines = textio.dumps(M).splitlines()
    bad_at = lines.index("tuples:") + 1 + 7_654  # 0-based index of the tuple line
    lines[bad_at] = lines[bad_at].replace(")", "]")
    with pytest.raises(ParseError) as exc:
        textio.loads("\n".join(lines) + "\n")
    assert exc.value.line_no == bad_at + 1
    assert exc.value.line == lines[bad_at]
    assert exc.value.reason == "expected symbol(elem,...)"


@pytest.mark.parametrize(
    "tuples",
    [
        [("P", ("0", "1")), ("P", ("0", "7")), ("Z", ("0", "1")), ("P", ("0",))],
        [("P", ("0", "1")), ("Z", ("0", "1")), ("P", ("0", "7"))],
        [("P", ("0", "1")), ("P", ("0",)), ("Z", ("0", "1"))],
        [("P", (0, 1)), ("Q", ["1", "0"]), ("P", ("1", "1", "1"))],
    ],
)
def test_one_shot_generator_raises_the_first_error_of_the_list(tuples):
    def first_error(source):
        with pytest.raises(Exception) as exc:
            Structure(LANG2, ["0", "1"], source)
        return type(exc.value), str(exc.value)

    assert first_error(tuples) == first_error(t for t in tuples)


def test_first_dangling_frontier_id_in_input_order_is_named():
    with pytest.raises(DanglingElement) as exc:
        Structure(LANG2, ["0", "1"], [], frontier=iter(["1", "x", "0", "y"]))
    assert exc.value.element == "x"


def test_constructor_accepts_any_iterable_once():
    pairs = [("P", (0, 1)), ("P", ["1", "0"]), ("Q", iter(("0", "0"))), ("P", ("0", "1"))]
    M = Structure(LANG2, iter(["1", "0"]), iter(pairs), frontier=iter(["1"]))
    assert M.elements == ("0", "1")
    assert M.tuples_by_symbol == {"P": (("0", "1"), ("1", "0")), "Q": (("0", "0"),)}
    assert M.frontier == frozenset({"1"})
    assert M.has_tuple("P", ["1", "0"]) and not M.has_tuple("Q", ("0", "1"))
