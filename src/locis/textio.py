"""Text serialization for structures.

One document per structure. Grammar (line oriented, '#' starts a comment
line, blank lines ignored):

    %locis structure v1
    language:
    Succ/2
    Black/1
    elements:
    0
    1
    frontier:
    0
    tuples:
    Succ(0,1)
    Black(0)

Sections appear in the order language, elements, frontier, tuples. Symbol
lines are name/arity; symbol order in the file is the language's declaration
order. Element ids match [A-Za-z0-9_.+-]+. dump() emits the canonical form:
elements and frontier sorted lexicographically, tuples sorted by (symbol
declaration index, argument vector). parse() accepts entries in any order,
so dump(parse(s)) == s exactly when s is canonical.

Loading splits the text into no list of lines. Lines are those of
str.splitlines(), stripped of whitespace. One compiled pattern per section
matches each of its lines whole, so a section is clean exactly when the
pattern matches once per line. The tuples section is read one declared
symbol at a time: each symbol's pattern yields its argument tuples directly,
and Structure checks and sorts each symbol's list in bulk, so a canonical
file sorts in linear time. Only a document that fails some check is parsed
again, by the streaming pass: it feeds the tuple lines to the Structure
constructor one by one and raises the first error in document order. The
first syntax error is the one reported, and it comes
before any error the Structure constructor finds (unknown symbol, arity,
dangling id). load() reads a file as ASCII; a non-ASCII byte is a
ParseError on its line, before any other error.
"""

from __future__ import annotations

import re

from .core import ELEMENT_CHARS, ELEMENT_RE, Language, Structure
from .errors import LocisError, ParseError

HEADER = "%locis structure v1"
_SECTIONS = ("language", "elements", "frontier", "tuples")
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_ID = rf"{ELEMENT_CHARS}+"
# What str.strip() removes from a line, short of the newline.
_WS = r"[^\S\n]"
_TUPLE_LINE = re.compile(rf"({_NAME})\((.*)\)\Z")
# The line breaks of str.splitlines() other than "\n"; loads maps each to "\n".
_BREAKS = re.compile(r"\r\n?|[\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
# The colon that ends a line; the line is a section header unless a comment.
_COLON_EOL = re.compile(rf":{_WS}*$", re.M)


def _line(entry):
    """A whole line of a section: an entry (whose groups are `entry`'s), a
    comment or a blank."""
    return re.compile(rf"^{_WS}*(?:{entry}{_WS}*|#[^\n]*)?$", re.M)


_LINES = {
    "preamble": _line(r"([^\s#][^\n]*?)"),  # any entry; loads checks it
    "language": _line(rf"({_NAME})/(\d+)"),
    "elements": _line(rf"({_ID})"),
    "frontier": _line(rf"({_ID})"),
    "tuples": _line(rf"({_NAME})\(((?:{_ID}(?:,{_ID})*)?)\)"),
}
# A comment or blank line of the tuples section, with the line break before it.
_SKIPPED = re.compile(rf"\n{_WS}*(?:#[^\n]*)?$", re.M)
_REASONS = {
    "language": "expected name/arity",
    "elements": "bad element id",
    "frontier": "bad element id",
    "tuples": "expected symbol(elem,...)",
}


def dumps(M):
    lines = [HEADER, "language:"]
    for name, arity in M.language.symbols:
        lines.append(f"{name}/{arity}")
    lines.append("elements:")
    lines.extend(M.elements)
    lines.append("frontier:")
    lines.extend(sorted(M.frontier))
    lines.append("tuples:")
    for name, _ in M.language.symbols:
        for t in M.tuples_by_symbol[name]:
            lines.append(f"{name}({','.join(t)})")
    return "\n".join(lines) + "\n"


def _parse_error(text, pos, reason):
    """ParseError for the line of `text` that starts at offset `pos`."""
    eol = text.find("\n", pos)
    raw = text[pos:] if eol < 0 else text[pos:eol]
    return ParseError(text.count("\n", 0, pos) + 1, raw, reason)


def _bad_line(section, text, pos, end):
    """ParseError for the first line of text[pos:end] that the pattern of
    `section` does not match."""
    for m in _LINES[section].finditer(text, pos, end):
        if m.start() != pos:
            break
        pos = m.end() + 1
    err = _parse_error(text, pos, _REASONS[section])
    shape = _TUPLE_LINE.match(err.line.strip()) if section == "tuples" else None
    if shape:  # a tuple line but for its element ids
        bad = next(a for a in shape.group(2).split(",") if not ELEMENT_RE.match(a))
        err = _parse_error(text, pos, f"bad element id {bad!r} in tuple")
    return err


def _check_lines(section, text, pos, end, matches):
    """Raise the first bad line of text[pos:end], if there is one.

    A line pattern matches a whole line or nothing, so a body is clean
    exactly when `matches`, its pattern's match count, is one per line; the
    bad line is looked for only when it is not. (An empty body at the end of
    a text without a final newline has no line and no match.)
    """
    if matches <= text.count("\n", pos, end) and pos < end:
        raise _bad_line(section, text, pos, end)


def _entries(section, text, pos, end):
    """Match objects of the entry lines of text[pos:end], in order, then a
    ParseError if some line is bad."""
    matches = 0
    for m in _LINES[section].finditer(text, pos, end):
        matches += 1
        if m.lastindex:
            yield m
    _check_lines(section, text, pos, end, matches)


def _ids(section, text, pos, end):
    """The element ids of an elements or frontier section body."""
    ids = _LINES[section].findall(text, pos, end)
    _check_lines(section, text, pos, end, len(ids))
    return filter(None, ids)  # a comment or blank line gives ""


def _tuple_pairs(entries):
    """(symbol, argument list) for each tuple line."""
    for m in entries:
        args = m[2]
        yield m[1], args.split(",") if args else ()


def _sections(text, heads, stops, tuples):
    """{section name: its parsed body} of the document after the preamble.

    `tuples(pos, end)` parses the body of the tuples section, text[pos:end];
    the other sections are parsed and checked here, in document order.
    """
    sections = {}
    for (start, end, name), stop in zip(heads, stops[1:]):
        if name not in _SECTIONS:
            raise _parse_error(text, start, f"unknown section {name!r}")
        if name in sections:
            raise _parse_error(text, start, f"duplicate section {name!r}")
        pos = min(end + 1, stop)
        if name == "language":
            sections[name] = [(m[1], int(m[2])) for m in _entries(name, text, pos, stop)]
        elif name == "tuples":
            sections[name] = tuples(pos, stop)
        else:
            sections[name] = _ids(name, text, pos, stop)
    if "language" not in sections:
        raise ParseError(0, "", "missing language section")
    return sections


def _symbol_lists(text, language, span):
    """{symbol: its argument tuples in document order} of the tuples body
    text[pos:end], or None when some line of it is not a declared symbol's
    tuple of the declared arity, a comment or a blank.

    Each pattern matches a line together with the line break before it, so
    the body is clean exactly when the matches of all patterns add up to the
    body's line breaks, counting the one before its first line.
    """
    lists = {}
    pos, end = span
    if pos == end:
        return lists
    matches = len(_SKIPPED.findall(text, pos - 1, end))
    for name, arity in language.symbols:
        # A wider symbol's line is one group, split here; its width is
        # checked with the list's.
        args = ",".join([f"({_ID})"] * arity) if arity <= 2 else rf"({_ID}(?:,{_ID})*)"
        ts = re.compile(rf"\n{_WS}*{name}\({args}\){_WS}*$", re.M).findall(text, pos - 1, end)
        if arity == 1:
            ts = list(zip(ts))
        elif arity > 2:
            ts = [tuple(a.split(",")) for a in ts]
        lists[name] = ts
        matches += len(ts)
    return lists if matches == text.count("\n", pos - 1, end) else None


def _bulk(text, heads, stops):
    """The document's structure, each symbol's tuples read by one pattern
    and checked as one list; None when the document has an error."""
    try:
        sections = _sections(text, heads, stops, lambda pos, end: (pos, end))
        language = Language(sections["language"])
        lists = _symbol_lists(text, language, sections.get("tuples", (0, 0)))
        if lists is None:
            return None
        return Structure._from_symbol_lists(
            language, sections.get("elements", ()), lists, frontier=sections.get("frontier", ())
        )
    except LocisError:
        return None


def _streamed(text, heads, stops):
    """The document's structure, its tuples streamed line by line into the
    constructor; raises the document's first error."""
    tuples = ()

    def stream(pos, end):
        nonlocal tuples
        tuples = _tuple_pairs(_entries("tuples", text, pos, end))
        return tuples

    try:
        sections = _sections(text, heads, stops, stream)
        # Validation errors (unknown symbols, arity, dangling ids) surface as
        # the structured core exceptions, not ParseError.
        return Structure(
            Language(sections["language"]),
            sections.get("elements", ()),
            tuples,
            frontier=sections.get("frontier", ()),
        )
    except LocisError:
        # A bad tuple line surfaces only when the stream reaches it. Every
        # error that can be at hand here comes from a later line, from a
        # missing section or from the constructor, so the bad line goes
        # first: finish the stream, which raises it.
        for _ in tuples:
            pass
        raise


def loads(text):
    """Parse one document; see the module docstring for the error order."""
    # Make "\n" the only line break. Testing for the others is a few fast
    # scans; the rewrite copies the text.
    if not text.isascii() or any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e"):
        text = _BREAKS.sub("\n", text)
    heads = []  # (start, end, name) of each section header line
    for m in _COLON_EOL.finditer(text):
        start = text.rfind("\n", 0, m.start()) + 1
        name = text[start : m.start()].lstrip()
        if not name.startswith("#"):
            heads.append((start, m.end(), name))
    stops = [start for start, _, _ in heads] + [len(text)]

    saw_header = False
    for m in _entries("preamble", text, 0, stops[0]):
        if saw_header:
            raise _parse_error(text, m.start(), "entry before any section")
        if m[1] != HEADER:
            raise _parse_error(text, m.start(), f"expected header {HEADER!r}")
        saw_header = True
    if not saw_header:
        if heads:
            raise _parse_error(text, heads[0][0], f"expected header {HEADER!r}")
        raise ParseError(0, "", "empty document")
    M = _bulk(text, heads, stops)
    return _streamed(text, heads, stops) if M is None else M


def save(M, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(M))


def _read_ascii(path):
    """The text of an ASCII file. A ParseError names the line that holds the
    first other byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        pos = exc.start
    head = _BREAKS.sub("\n", data[:pos].decode("ascii"))
    start = head.rfind("\n") + 1
    tail = re.split(rb"[\n\r\x0b\x0c\x1c-\x1e]", data[pos:], maxsplit=1)[0]
    raw = head[start:] + tail.decode("utf-8", "backslashreplace")
    raise ParseError(head.count("\n") + 1, raw, "non-ASCII byte")


def load(path):
    return loads(_read_ascii(path))
