"""The comparing readers against the line-at-a-time readers they replaced.

formats takes the text of B_{n,k} and K_{n,k} graphs, colorings and
certificates unparsed where it spells what the writer would write,
learning the host from a coloring's opening lines, and takes the values
of an sc file's lines as the table while each names the next subset in
lexicographic order as the writer spells it.  The readers below are the
ones they replaced, verbatim but for their names: every file, canonical
or mangled, must give the same value, or the same error message, both
ways, with the new reader cut into blocks of a few characters so that
chunks and lines straddle block boundaries.
"""

import random
import tracemalloc
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from functools import partial
from itertools import accumulate, chain
from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bipartite_ramsey import (  # noqa: E402
    InducedCopyWitness,
    ParameterError,
    SubsetColoring,
    ValidationError,
    complete_bipartite,
    make_graph,
    random_coloring,
    set_bipartite,
)
from bipartite_ramsey import formats  # noqa: E402
from bipartite_ramsey.formats import (  # noqa: E402
    _MAX_INDEX,
    _SECTIONS,
    _blocks,
    _complete_host,
    _int,
    _parse_subset,
    _set_host,
)
from bipartite_ramsey.graphs import (  # noqa: E402
    BipartiteGraph,
    Color,
    _dense_table,
    _packed,
    set_graph_arity,
)
from bipartite_ramsey.hypergraph import _rank_table  # noqa: E402

SETTINGS = hypothesis.settings(deadline=None)
_BLOCK = 1 << 16
BLOCKS = [1, 3, 8, 16, 32, 64, 128, 512, 1 << 16]  # block sizes, in characters


# -- the line-at-a-time readers, as they were --------------------------------


def reference_content_lines(source):
    """The stripped lines of a str or an open text file that are neither
    blank nor '#' comments, split exactly as str.splitlines splits."""
    if isinstance(source, str):
        blocks = (source[i : i + _BLOCK] for i in range(0, len(source), _BLOCK))
    else:
        blocks = _blocks(source)
    tail = ""
    for block in blocks:
        lines = (tail + block).splitlines(True)
        tail = lines.pop()  # kept with its line break: it may go on in the next block
        for raw in lines:
            line = raw.strip()
            if line and line[0] != "#":
                yield line
    line = tail.strip()
    if line and line[0] != "#":
        yield line


def reference_read_graph(lines, sections=()):
    """(graph, the line that ended it or None) from content lines: the
    header, then rlabel and e lines up to one whose first word is in sections."""
    header = next(lines, "")
    if not header.startswith("bipartite"):
        raise ValidationError("graph text must start with a 'bipartite' header")
    fields = header.split()
    if len(fields) != 3:
        raise ValidationError(f"bad graph header {header!r}")
    left_count, right_count = _int(fields[1], "left count"), _int(fields[2], "right count")
    if not (0 <= left_count <= _MAX_INDEX and 0 <= right_count <= _MAX_INDEX):
        raise ValidationError(f"bad graph header {header!r}: counts must be 0..{_MAX_INDEX}")
    labels = list(range(1, right_count + 1))
    neighborhoods = [[] for _ in labels]  # lefts per right, as read
    for line in lines:
        parts = line.split()
        if parts[0] == "e" and len(parts) == 3:
            left, idx = _int(parts[1], "left"), _int(parts[2], "right index")
            if not 1 <= idx <= right_count:
                raise ValidationError(f"edge right index {idx} out of range")
            neighborhoods[idx - 1].append(left)
        elif parts[0] == "rlabel" and len(parts) in (2, 3):  # the empty subset has no field
            idx = _int(parts[1], "rlabel index")
            if not 1 <= idx <= right_count:
                raise ValidationError(f"rlabel index {idx} out of range")
            labels[idx - 1] = _parse_subset(parts[2]) if len(parts) == 3 else ()
        elif parts[0] in sections:
            break
        else:
            raise ValidationError(f"unrecognized graph line {line!r}")
    else:
        line = None
    labels = tuple(labels)
    neighborhoods = tuple(tuple(sorted(set(lefts))) for lefts in neighborhoods)  # drop repeats
    k = set_graph_arity(left_count, labels, neighborhoods)
    if k:  # text that is exactly B_{n,k} reads as the lazy host
        return set_bipartite(left_count, k), line
    return BipartiteGraph(left_count, labels, neighborhoods), line


_BIT_OF_LETTER = {"R": 0, "B": 1}


def reference_read_coloring(lines, sections=()):
    """((lefts, right indices, color bits), the line that ended them or
    None): the c lines of an edge coloring as two array('i') columns and a
    bytearray, up to a line whose first word is in sections."""
    lefts, rights, bits = array("i"), array("i"), bytearray()
    add_left, add_right, add_bit = lefts.append, rights.append, bits.append
    # Fields are converted inline, not through _int: files run to 10^6+ lines.
    for line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "c":
            if parts[0] in sections:
                return (lefts, rights, bits), line
            raise ValidationError(f"unrecognized coloring line {line!r}")
        try:
            add_left(int(parts[1]))
            add_right(int(parts[2]))
            add_bit(_BIT_OF_LETTER[parts[3]])
        except (KeyError, ValueError):
            raise ValidationError(f"bad coloring line {line!r}: need integers and R or B")
        except OverflowError:
            raise ValidationError(f"bad coloring line {line!r}: vertex index out of range")
    return (lefts, rights, bits), None


def reference_pack_coloring(graph, colored_edges):
    """EdgeColoring from (left, 1-based right index, color) triples, one
    per edge, in any order, as _packed's digits: "?" until colored.

    Raises ValidationError for a pair that is not an edge, an edge
    colored twice, a value that is not a color, or an edge left out.
    """
    # Every edge's left in mask bit order; right index i's run is starts[i - 1]:starts[i].
    lefts = _dense_table(chain.from_iterable(graph.neighborhoods), 0, graph.left_count)
    starts = list(accumulate(map(len, graph.neighborhoods), initial=0))
    text = bytearray(b"?") * len(lefts)
    for left, index, color in colored_edges:
        try:
            e = starts[index]
            p = bisect_left(lefts, left, starts[index - 1], e)
            bad = p == e or lefts[p] != left or index < 1
        except (IndexError, TypeError):
            bad = True  # no such right, or a left that is not an int
        if bad:
            raise ValidationError(f"({left!r}, right {index!r}) is not an edge of the graph")
        if text[p] != 63 or color not in (0, 1):  # 63 is "?"; 0 and 1 are RED and BLUE
            raise ValidationError(f"edge ({left}, right {index}) colored twice or not by a color")
        text[p] = 48 + color  # ASCII 0 or 1
    if b"?" in text:
        raise ValidationError(f"coloring is not total: {text.count(b'?')} edges are uncolored")
    return _packed(graph, text)


def reference_subset_coloring_from_text(source):
    lines = reference_content_lines(source)
    header = next(lines, "")
    if not header.startswith("subsetcoloring"):
        raise ValidationError("subset-coloring text must start with a 'subsetcoloring' header")
    fields = header.split()
    if len(fields) != 4:
        raise ValidationError(f"bad subset-coloring header {header!r}")
    n, arity, palette = (_int(x, "subset-coloring header field") for x in fields[1:])
    if max(n, arity) > _MAX_INDEX:  # C(n, arity) alone could take hours
        raise ValidationError(f"bad subset-coloring header {header!r}: past {_MAX_INDEX}")
    return SubsetColoring(n, arity, palette, _rank_table(n, arity, reference_subset_values(lines)))


def reference_subset_values(lines):
    for line in lines:
        parts = line.split()
        if len(parts) not in (2, 3) or parts[0] != "sc":  # the empty subset has no field
            raise ValidationError(f"unrecognized subset-coloring line {line!r}")
        yield _parse_subset(parts[1]) if len(parts) == 3 else (), _int(parts[-1], "subset value")


def reference_certificate_from_text(source):
    """Parse a certificate in one pass; returns (host, coloring_or_None, witness).
    Each section's lines go straight to its parser; none is kept as text."""
    lines = reference_content_lines(source)
    sections = {}
    claimed = None
    line = next(lines, None)
    while line is not None:
        parts = line.split()
        first = parts[0]
        if first not in _SECTIONS:  # only the first line can be outside a section
            raise ValidationError(f"certificate line {line!r} outside any section")
        if first in sections:
            raise ValidationError(f"duplicate certificate section {first!r}")
        if first == "coloring":
            sections[first], line = reference_read_coloring(lines, _SECTIONS)
        elif first == "witness":
            if len(parts) != 2 or parts[1] not in ("R", "B", "-"):
                raise ValidationError(f"bad witness section header {line!r}")
            claimed = None if parts[1] == "-" else Color.from_letter(parts[1])
            sections[first], line = reference_read_witness(lines)
        else:
            sections[first], line = reference_read_graph(lines, _SECTIONS)
    for required in ("host", "pattern", "witness"):
        if required not in sections:
            raise ValidationError(f"certificate is missing the {required!r} section")

    host, pattern, (lefts, rights) = sections["host"], sections["pattern"], sections["witness"]
    coloring = (
        reference_pack_coloring(host, zip(*sections["coloring"])) if "coloring" in sections
        else None
    )
    if sorted(lefts) != list(range(1, pattern.left_count + 1)):
        raise ValidationError("wleft lines must cover pattern lefts 1..c exactly")
    if sorted(rights) != list(range(1, len(pattern.right_labels) + 1)):
        raise ValidationError("wright lines must cover pattern rights 1..d exactly")

    def label(token):  # a bare int names an opaque right, else a 1-subset the host has
        single = isinstance(token, int) and not host.has_right_label(token)
        return (token,) if single and host.has_right_label((token,)) else token

    return host, coloring, InducedCopyWitness(
        pattern,
        [lefts[i] for i in range(1, pattern.left_count + 1)],
        [label(rights[j]) for j in range(1, pattern.right_count + 1)],
        claimed,
    )


def reference_read_witness(lines):
    """(({pattern left: host left}, {pattern right: host label}), the line
    that ended them or None) from wleft and wright lines."""
    lefts, rights = {}, {}
    for line in lines:
        parts = line.split()
        if parts[0] in _SECTIONS:
            return (lefts, rights), line
        if (parts[0], len(parts)) not in {("wleft", 3), ("wright", 3), ("wright", 2)}:
            raise ValidationError(f"unrecognized witness line {line!r}")
        index = _int(parts[1], "witness index")
        if parts[0] == "wleft":
            if index in lefts:
                raise ValidationError(f"duplicate wleft {index}")
            lefts[index] = _int(parts[2], "witness left")
        elif index in rights:
            raise ValidationError(f"duplicate wright {index}")
        elif len(parts) == 2:  # the empty subset has no field
            rights[index] = ()
        else:
            token = parts[2]
            rights[index] = _parse_subset(token) if "," in token else _int(token, "witness right")
    return (lefts, rights), None


def reference_columns(source):
    return reference_read_coloring(reference_content_lines(source))[0]


# Each reader, new and reference, on (text, host): host is the graph a
# coloring is read against, or the arity k of a set graph.
READERS = {
    "graph": (
        lambda text, host: formats.graph_from_text(text),
        lambda text, host: reference_read_graph(reference_content_lines(text))[0],
    ),
    "coloring": (
        formats.coloring_from_text,
        lambda text, host: reference_pack_coloring(host, zip(*reference_columns(text))),
    ),
    "complete coloring": (
        lambda text, host: formats.complete_coloring_from_text(text),
        lambda text, host: reference_pack_coloring(
            _complete_host(*reference_columns(text)[:2]), zip(*reference_columns(text))
        ),
    ),
    "set coloring": (
        formats.set_coloring_from_text,
        lambda text, k: reference_pack_coloring(
            _set_host(reference_columns(text)[0], k), zip(*reference_columns(text))
        ),
    ),
    "subset coloring": (
        lambda text, host: formats.subset_coloring_from_text(text),
        lambda text, host: reference_subset_coloring_from_text(text),
    ),
    "certificate": (
        lambda text, host: formats.certificate_from_text(text),
        lambda text, host: reference_certificate_from_text(text),
    ),
}


@contextmanager
def block_size(size):
    saved, formats._BLOCK = formats._BLOCK, size
    try:
        yield
    finally:
        formats._BLOCK = saved


def outcome(read, text, host):
    try:
        return read(text, host)
    except (ValidationError, ParameterError) as exc:
        return type(exc).__name__, str(exc)


# -- generated files -----------------------------------------------------------


def hosts(draw):
    """A small B_{n,k}, K_{n,k} or other graph, with its name.  B_{n,k}
    also comes with k = 8, the widest the bit-plane packer takes, and 9."""
    kind = draw(st.sampled_from(["set", "complete", "other"]))
    n = draw(st.integers(1, 6))
    if kind == "set":
        if draw(st.integers(0, 3)):
            return kind, set_bipartite(n, draw(st.integers(1, n)))
        k = draw(st.integers(8, 9))
        return kind, set_bipartite(draw(st.integers(k, 10)), k)
    if kind == "complete":
        return kind, complete_bipartite(n, draw(st.integers(1, 4)))
    labels = sorted(draw(st.sets(st.integers(1, 9), max_size=5)))
    pairs = [(x, y) for x in range(1, n + 1) for y in labels]
    return kind, make_graph(n, labels, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


def mask_order_lines(graph, coloring, word):
    """A graph's edge lines (word "e") or a coloring's c lines right by
    right, neighbours increasing: mask bit order, as the bench writes."""
    lines = []
    for index, lefts in enumerate(graph.neighborhoods, 1):
        mask = coloring.masks[index - 1] if coloring is not None else 0
        for p, left in enumerate(lefts):
            letter = f" {'RB'[mask >> p & 1]}" if coloring is not None else ""
            lines.append(f"{word} {left} {index}{letter}")
    return lines


DIGIT_SWAPS = ["0{}", "+{}", "00{}", "{}"]
BIG = ["0", "-1", "2147483647", "2147483648", "4294967296", "99999999999999999999"]
INSERTS = ["# a comment", "", "   ", "\t", "host", "coloring", "pattern", "witness R",
           "bipartite 2 2", "c 1 1", "e 1 x", "rlabel 1 1,1", "rlabel 1 1,x", "sc 1 1", "é 3"]


def mangle(draw, lines):
    """The lines with one to six random changes, each a kind of line the
    comparing reader must hand to the line parser: comments, blank lines,
    CRLF ends and tabs; other spellings of a number; indices past 2^31 - 1 or
    out of range; duplicate, missing and out-of-order lines; section lines;
    a color letter flipped, lowercase, or not a color."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 6))):
        if not lines:
            break
        at = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        line = lines[at]
        action = draw(st.sampled_from(
            ["insert", "crlf", "tab", "spell", "nonascii", "big", "bump", "dup", "drop", "swap",
             "flip", "letter", "lower"]
        ))
        numbers = [i for i, c in enumerate(line) if c.isdigit() and not line[i - 1 : i].isdigit()]
        if action == "insert":
            lines.insert(at, draw(st.sampled_from(INSERTS)))
        elif action == "crlf":
            lines[at] = line + "\r"
        elif action == "tab":
            lines[at] = draw(st.sampled_from([line + "\t", line.replace(" ", "\t", 1), " " + line]))
        elif action == "dup":
            lines.insert(at, line)
        elif action == "drop":
            del lines[at]
        elif action == "swap" and at + 1 < len(lines):
            lines[at], lines[at + 1] = lines[at + 1], line
        elif action in ("flip", "letter", "lower") and line[-2:] in (" R", " B"):
            letter = {"flip": "BR"[line[-1] == "B"], "letter": "G", "lower": line[-1].lower()}
            lines[at] = line[:-1] + letter[action]
        elif numbers and action in ("spell", "nonascii", "big", "bump"):
            i = draw(st.sampled_from(numbers))
            j = i
            while j < len(line) and line[j].isdigit():
                j += 1
            if action == "spell":
                number = draw(st.sampled_from(DIGIT_SWAPS)).format(line[i:j])
            elif action == "nonascii":
                number = "".join(chr(0x660 + int(c)) for c in line[i:j])  # Arabic-Indic digits
            elif action == "bump":  # one past a count or an index, or one short of it
                number = str(int(line[i:j]) + draw(st.sampled_from([1, -1])))
            elif line.startswith(("bipartite", "subsetcoloring")):
                number = line[i:j]  # a header past 2^31 - 1 would only test the header check
            else:
                number = draw(st.sampled_from(BIG))
            lines[at] = line[:i] + number + line[j:]
    return lines


@st.composite
def files(draw):
    """(reader name, text, host) for a writer's text or the bench's mask
    bit order, mangled or not."""
    kind, graph = hosts(draw)
    coloring = random_coloring(graph, random.Random(draw(st.integers(0, 99))))
    what = draw(st.sampled_from(["graph", "coloring", "subset coloring", "certificate"]))
    host = graph
    if what == "graph":
        text = formats.graph_to_text(graph)
        if draw(st.booleans()):  # e lines in mask bit order
            lines = [line for line in text.splitlines() if not line.startswith("e ")]
            text = "\n".join(lines + mask_order_lines(graph, None, "e"))
    elif what == "coloring":
        if draw(st.booleans()):
            text = formats.coloring_to_text(coloring)
        else:
            text = "\n".join(mask_order_lines(graph, coloring, "c"))
        if kind == "set":
            what, host = "set coloring", graph.right_labels.k
        elif kind == "complete" and draw(st.booleans()):
            what = "complete coloring"
    elif what == "subset coloring":
        arity = draw(st.integers(0, 3))
        n = draw(st.integers(arity, 6))
        palette = draw(st.integers(1, 300))
        values = draw(st.lists(st.integers(1, palette), min_size=comb(n, arity),
                               max_size=comb(n, arity)))
        text = formats.subset_coloring_to_text(SubsetColoring(n, arity, palette, values))
    else:
        pattern = draw(st.sampled_from([complete_bipartite(1, 1), make_graph(2, [1, 2], [(1, 1)])]))
        hypothesis.assume(pattern.left_count <= graph.left_count)
        hypothesis.assume(pattern.right_count <= graph.right_count)
        rng = random.Random(draw(st.integers(0, 99)))
        witness = InducedCopyWitness(
            pattern,
            rng.sample(range(1, graph.left_count + 1), pattern.left_count),
            rng.sample(list(graph.right_labels), pattern.right_count),
        )
        colored = coloring if draw(st.booleans()) else None
        text = formats.certificate_to_text(graph, witness, colored)
    lines = text.splitlines()
    if draw(st.integers(0, 3)):
        lines = mangle(draw, lines)
    return what, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"])), host


def test_run_readers_agree_with_the_line_readers():
    @SETTINGS
    @hypothesis.given(files(), st.sampled_from(BLOCKS))
    def check(file, block):
        what, text, host = file
        new, reference = READERS[what]
        expected = outcome(reference, text, host)
        with block_size(block):
            assert outcome(new, text, host) == expected, (what, text)

    check()


COLORING_52 = "".join(f"c {x} {i} R\n" for i, X in enumerate(set_bipartite(5, 2).right_labels, 1)
                      for x in X)  # mask bit order


@pytest.mark.parametrize("what, text, host", [
    # one canonical line between two others that are not: the line parser's message
    ("coloring", "c 1 1 R\n# x\nc 2147483648 2 B\n# y\n", complete_bipartite(2, 2)),
    ("coloring", "c 1 1 R\nc 2147483648 2 B\nc 1 2 R\n", complete_bipartite(2, 2)),
    ("coloring", "c 1 1 R\nc 0 2 B\nc 1 2 R\nc 2 1 R\n", complete_bipartite(2, 2)),
    ("set coloring", COLORING_52.replace("c 2 1 R", "c 2 1 B"), 2),
    ("set coloring", COLORING_52.replace("c 5 10 R", "c 5 11 R"), 2),
    # an index one past the count, or 0, inside a run of e lines or among rlabel lines
    ("graph", formats.graph_to_text(set_bipartite(4, 2)).replace("\ne 4 6", "\ne 4 7"), None),
    ("graph", formats.graph_to_text(set_bipartite(4, 2)).replace("\ne 4 6", "\ne 4 0"), None),
    ("graph", formats.graph_to_text(set_bipartite(4, 2)).replace("rlabel 6 ", "rlabel 7 "), None),
    ("graph", formats.graph_to_text(set_bipartite(4, 2)).replace("rlabel 6 ", "rlabel 5 "), None),
    ("graph", formats.graph_to_text(set_bipartite(4, 2)).replace("\ne 1 1", "\ne 2147483648 1"), None),
    ("graph", "bipartite 2 2\nrlabel 1 1,x\nbogus\n", None),  # the first bad line speaks
    ("graph", "bipartite 2 2\ne 1 3\ne 1 1\ne 2 5\nbogus\n", None),  # an e run's first bad index
    # a ten-digit number, zero-padded or past 2^31 - 1, in what would be a run
    ("coloring", "c 1 1 R\nc 1 0000000002 B\nc 2 1 R\nc 2 2 R\n", complete_bipartite(2, 2)),
    ("graph", formats.graph_to_text(set_bipartite(4, 2)).replace("\ne 4 6", "\ne 4 0000000006"),
     None),
    ("graph", formats.graph_to_text(set_bipartite(4, 2)).replace("\ne 4 6", "\ne 4 0000000007"),
     None),
    ("graph", "bipartite 2 2\ne 1 1\ne 1 2\ne 2147483648 1\n", None),
    # K_{3,2}'s lines and one more, one left short, or under a header of one left more
    ("graph", formats.graph_to_text(complete_bipartite(3, 2)) + "rlabel 1 5\n", None),
    ("graph", formats.graph_to_text(complete_bipartite(3, 2)) + "e 1 3\n", None),
    ("graph", formats.graph_to_text(complete_bipartite(3, 2)) + "e 1 1\n", None),
    ("graph", formats.graph_to_text(complete_bipartite(3, 2)).replace("e 3 1\ne 3 2\n", ""), None),
    ("graph", formats.graph_to_text(complete_bipartite(3, 2)).replace(" 3 2\n", " 4 2\n", 1), None),
    # B_{4,2}'s lines under a header of one right fewer or more than C(4, 2)
    ("graph", formats.graph_to_text(set_bipartite(4, 2)).replace(" 4 6\n", " 4 5\n", 1), None),
    ("graph", formats.graph_to_text(set_bipartite(4, 2)).replace(" 4 6\n", " 4 7\n", 1), None),
    # a number past int()'s 4,300 digits, in what would be a run
    ("coloring", f"c 1 1 R\nc {'1' * 5000} 2 R\nc 1 2 R\n", complete_bipartite(2, 2)),
    ("graph", f"bipartite 2 2\ne 1 1\ne 1 {'2' * 5000}\n", None),
    ("graph", f"bipartite 2 2\nrlabel 1 1\nrlabel 2 {'2' * 5000}\nbogus\n", None),
    ("subset coloring", f"subsetcoloring 2 1 2\nsc 1 1\nsc 2 {'1' * 5000}\n", None),
    # sc lines in lexicographic order, one short, one value outside the palette
    ("subset coloring", "subsetcoloring 4 2 2\nsc 1,2 1\nsc 1,3 3\nsc 1,4 1\nsc 2,3 1\nsc 2,4 1\n",
     None),
    ("subset coloring", "subsetcoloring 4 2 2\nsc 1,2 1\nsc 1,3 1\nsc 1,4 1\nsc 2,3 1\nsc 2,4 1\n"
     "sc 3,4 1\nsc 3,4 1\n", None),
    # a line of the writer's form but for its keyword; values int() reads, though not as written
    ("subset coloring", "subsetcoloring 2 1 2\nsc 1 1\nxc 2 1\n", None),
    ("subset coloring", "subsetcoloring 2 1 3\nsc 1 1\nsc 2 +2\n", None),
    ("subset coloring", "subsetcoloring 2 1 3\nsc 1 1\nsc 2 \u0662\n", None),
])
def test_run_readers_agree_on_chosen_files(what, text, host):
    new, reference = READERS[what]
    expected = outcome(reference, text, host)
    for block in BLOCKS:
        with block_size(block):
            assert outcome(new, text, host) == expected, block


def test_nothing_is_taken_while_lines_of_a_batch_are_pending():
    lines = formats._Lines("#\n" * 40 + "a\nb\nc\n")
    assert next(lines) == "a"  # b was split off with it, after forty comment lines
    assert lines.take("b\n") is None and lines.take("#\n") is None
    assert list(lines) == ["b", "c"]


def certificate_lines(host):
    """A certificate of host, a random coloring and a one-edge witness, as
    certificate_to_text writes it: {section: its lines, header included}."""
    coloring = random_coloring(host, random.Random(7))
    witness = InducedCopyWitness(complete_bipartite(1, 1), [1], [host.right_labels[-1]])
    sections, name = {}, None
    for line in formats.certificate_to_text(host, witness, coloring).splitlines():
        name = line if line in ("host", "coloring", "pattern") else name
        sections.setdefault(name, []).append(line)
    return sections


def departed(host, section, change):
    """certificate_lines(host) with change(that section's lines) in place of them."""
    sections = certificate_lines(host)
    sections[section] = change(sections[section])
    return "\n".join(chain.from_iterable(sections.values())) + "\n"


def swapped(first, second):
    def change(lines):
        lines = lines[:]
        lines[first], lines[second] = lines[second], lines[first]
        return lines
    return change


B63 = set_bipartite(6, 3)  # 20 rights, 60 edges: rlabel lines 2-21, e lines 22-81, c lines 1-60


@pytest.mark.parametrize("text", [
    # departs from the writer's text at its first left, or at its last
    departed(B63, "host", swapped(22, 23)),
    departed(B63, "coloring", swapped(1, 2)),
    departed(B63, "host", swapped(-1, -2)),
    departed(B63, "coloring", swapped(-1, -2)),
    departed(B63, "coloring", lambda lines: lines[:-1] + [lines[-1] + "\t"]),
    # only in the coloring section: a letter that is not a color, lowercase, flipped
    departed(B63, "coloring", lambda lines: lines[:30] + [lines[30][:-1] + "G"] + lines[31:]),
    departed(B63, "coloring", lambda lines: lines[:30] + [lines[30][:-1] + "r"] + lines[31:]),
    departed(B63, "coloring",
             lambda lines: lines[:30] + [lines[30][:-1] + "BR"[lines[30][-1] == "B"]] + lines[31:]),
    # a line after the last chunk, and a digit more on a chunk's last line
    departed(B63, "host", lambda lines: lines + [lines[-1]]),
    departed(B63, "coloring", lambda lines: lines + [lines[-1]]),
    departed(B63, "coloring", lambda lines: lines + ["c 1 1 R"]),
    departed(B63, "host", lambda lines: lines[:-1] + [lines[-1] + "0"]),
    departed(B63, "coloring", lambda lines: lines[:10] + [lines[10] + "B"] + lines[11:]),
    departed(B63, "host", lambda lines: lines[:21] + [lines[21] + "0"] + lines[22:]),
    # the coloring before the host, and a coloring section under another host
    "\n".join(chain.from_iterable(
        certificate_lines(B63)[name] for name in ("coloring", "host", "pattern"))),
    departed(complete_bipartite(3, 4), "coloring", swapped(-1, -5)),
    departed(complete_bipartite(3, 4), "coloring", lambda lines: lines[:-1]),
    departed(complete_bipartite(3, 4), "host", swapped(2, 3)),
    departed(complete_bipartite(3, 4), "host", swapped(-1, -5)),
    departed(complete_bipartite(3, 4), "host", lambda lines: lines + ["rlabel 2 7"]),
    departed(complete_bipartite(3, 4), "host", lambda lines: lines[:-1]),
    departed(set_bipartite(5, 4), "coloring", lambda lines: lines + ["# the end"]),
])
def test_certificates_that_depart_from_the_writer_read_as_the_reference_reads(text):
    new, reference = READERS["certificate"]
    expected = outcome(reference, text, None)
    for block in BLOCKS:
        with block_size(block):
            assert outcome(new, text, None) == expected, block


@pytest.mark.parametrize("host", [B63, set_bipartite(5, 4), set_bipartite(4, 2),
                                  set_bipartite(513, 1), complete_bipartite(3, 4),
                                  complete_bipartite(1, 1), complete_bipartite(5, 1),
                                  complete_bipartite(1, 5), complete_bipartite(512, 8)])
def test_the_writers_text_is_taken_whole(host, monkeypatch):
    """Graph text of B_{n,k} (k > n/2 included, and k = 1 where n - k is
    past _SPELL) or K_{n,k}, a coloring of it and a certificate of it
    read as the writer wrote them, without the generic parse; a K_{n,k}
    coloring with its host learned from its lines."""
    coloring = random_coloring(host, random.Random(1))
    graph_text, coloring_text = formats.graph_to_text(host), formats.coloring_to_text(coloring)
    sections = certificate_lines(host)
    certificate = "\n".join(chain.from_iterable(sections.values()))
    expected = reference_certificate_from_text(certificate)

    def generic(*args):
        raise AssertionError("read line by line")

    for name in ("_read_coloring", "pack_coloring", "set_graph_arity"):
        monkeypatch.setattr(formats, name, generic)
    assert formats.coloring_from_text(coloring_text, host) == coloring
    got = formats.certificate_from_text(certificate)
    assert got[1].masks == expected[1].masks and got[0] == expected[0]
    assert formats.graph_from_text(graph_text) == host
    if not host.membership_arity:
        assert formats.complete_coloring_from_text(coloring_text) == coloring


@pytest.mark.parametrize("n, arity, palette", [(1, 1, 1), (9, 1, 9), (12, 2, 10), (7, 3, 300),
                                               (13, 2, 300), (40, 3, 10)])
def test_the_writers_sc_text_is_taken_whole(n, arity, palette, monkeypatch):
    """An sc file as subset_coloring_to_text writes it is read without a
    line parsed or a rank taken, whatever its values' widths; C(40, 3)'s
    lines run to 131,674 characters, past one _BLOCK."""
    rng = random.Random(n)
    sc = SubsetColoring(n, arity, palette, [rng.randint(1, palette) for _ in range(comb(n, arity))])
    text = formats.subset_coloring_to_text(sc)

    def generic(*args):
        raise AssertionError("read line by line")

    monkeypatch.setattr(formats, "_subset_value", generic)
    monkeypatch.setattr(formats, "_rank_table", generic)
    for block in BLOCKS:
        with block_size(block):
            assert formats.subset_coloring_from_text(text) == sc, block


def set_coloring_lines(coloring, order):
    """A coloring's c lines right by right (mask bit order) or left by left
    (as the writers list them)."""
    if order == "right by right":
        return mask_order_lines(coloring.graph, coloring, "c")
    return formats.coloring_to_text(coloring).splitlines()


def opening_and_chunk(host, order, batch):
    """(the lines the reader learns n from, the lines of the first chunk
    after them) for B_{n,k} in that order when _BATCH is batch."""
    n, k = host.left_count, host.right_labels.k
    if order == "right by right":  # rights {1..k-1, x}, then batches of rights
        return (n - k + 1) * k, max(1, batch // k) * k
    degree = comb(n - 1, k - 1)  # left 1's lines, then a left's first batch, or whole lefts
    return degree, batch if degree >= batch else -(-batch // degree) * degree


DEPARTURES = {
    "swap": lambda lines, at: lines[:at] + lines[at + 1 : at + 2] + [lines[at]] + lines[at + 2 :],
    "drop": lambda lines, at: lines[:at] + lines[at + 1 :],
    "repeat": lambda lines, at: lines[: at + 1] + lines[at:],
    "letter": lambda lines, at: lines[:at] + [lines[at][:-1] + "G"] + lines[at + 1 :],
    "comment": lambda lines, at: lines[:at] + ["# here"] + lines[at:],
    "digit": lambda lines, at: lines[:at] + [lines[at].replace(" ", " 0", 1)] + lines[at + 1 :],
}
LEARNED = [(set_bipartite(7, 3), 8), (set_bipartite(6, 2), 4), (set_bipartite(6, 1), 2),
           (set_bipartite(4, 4), 2), (set_bipartite(5, 5), 1 << 12), (set_bipartite(9, 3), 64)]


@pytest.mark.parametrize("order", ["right by right", "left by left"])
@pytest.mark.parametrize("host, batch", LEARNED)
def test_learned_set_colorings_that_depart_read_as_the_reference_reads(host, batch, order,
                                                                       monkeypatch):
    """A departure inside the lines n is learned from, at the first chunk
    compared, on each side of a chunk boundary and in the last chunk; one
    right short; a c line after the last right: k = 1 and k = n too."""
    monkeypatch.setattr(formats, "_BATCH", batch)
    lines = set_coloring_lines(random_coloring(host, random.Random(3)), order)
    k = host.right_labels.k
    opening, chunk = opening_and_chunk(host, order, batch)
    spots = {1, opening - 1, opening, opening + chunk - 1, opening + chunk, len(lines) - 2,
             len(lines) - 1}
    texts = [change(lines, at) for change in DEPARTURES.values() for at in spots
             if 0 <= at < len(lines)]
    short = [line for line in lines if line.split()[2] != str(host.right_count)]
    texts += [short, lines + ["c 1 1 R"], lines + [lines[-1]], lines]
    new, reference = READERS["set coloring"]
    for text in ("\n".join(text) + "\n" for text in texts):
        expected = outcome(reference, text, k)
        for block in BLOCKS:
            with block_size(block):
                assert outcome(new, text, k) == expected, (block, text)


@pytest.mark.parametrize("order", ["right by right", "left by left"])
@pytest.mark.parametrize("host", [set_bipartite(24, 5), set_bipartite(7, 3), set_bipartite(6, 1),
                                  set_bipartite(4, 4), set_bipartite(9, 2)])
def test_a_set_coloring_in_either_order_is_taken_whole(host, order, monkeypatch):
    """B_{n,k}'s coloring, right by right or left by left, is read without
    a line parsed: n is learned from its opening lines, and every later
    chunk is compared."""
    coloring = random_coloring(host, random.Random(5))
    text = "\n".join(set_coloring_lines(coloring, order)) + "\n"

    def generic(*args):
        raise AssertionError("read line by line")

    monkeypatch.setattr(formats, "_read_coloring", generic)
    monkeypatch.setattr(formats, "pack_coloring", generic)
    got = formats.set_coloring_from_text(text, host.right_labels.k)
    assert got == coloring


@pytest.mark.parametrize("host, batch", [
    (complete_bipartite(5, 3), 4), (complete_bipartite(1, 4), 2), (complete_bipartite(6, 1), 2),
    (complete_bipartite(4, 4), 1 << 12), (complete_bipartite(9, 2), 8)])
def test_learned_complete_colorings_that_depart_read_as_the_reference_reads(host, batch,
                                                                            monkeypatch):
    """A departure at every line: inside left 1, which k is learned from,
    and at every later left, which n is learned from, on each side of a
    chunk boundary; left 1 one line long, so that k would be learned one
    high; one left more or short, so that n would be one off; a line after
    the last left; n = 1 and k = 1 too."""
    monkeypatch.setattr(formats, "_BATCH", batch)
    lines = formats.coloring_to_text(random_coloring(host, random.Random(3))).splitlines()
    n, k = host.left_count, host.right_count
    texts = [change(lines, at) for change in DEPARTURES.values() for at in range(len(lines))]
    texts += [lines[:k] + [f"c 1 {k + 1} R"] + lines[k:], lines + [f"c {n + 1} {i} B" for i in
              range(1, k + 1)], lines[:-k], lines[:k] + lines[2 * k :], lines + ["c 1 1 R"],
              lines + [lines[-1]], lines + [f"c {n} {k + 1} R"], lines]
    new, reference = READERS["complete coloring"]
    for text in ("\n".join(text) + "\n" for text in texts):
        expected = outcome(reference, text, None)
        for block in BLOCKS:
            with block_size(block):
                assert outcome(new, text, None) == expected, (block, text)


def test_opening_chunks_stop_doubling_at_a_batch(monkeypatch):
    """The chunks _opening takes double up to the first power of two of at
    least _BATCH lines: K_{64,3}'s lefts and K_{1,40}'s left 1 (the only
    chunks a K coloring compares), and B_{40,2}'s opening rights."""
    monkeypatch.setattr(formats, "_BATCH", 8)
    sizes, take = [], formats._Lines.take

    def counted(lines, chunk, masked=False):
        text = take(lines, chunk, masked)
        sizes.extend([chunk.count("\n")] if text else [])
        return text

    monkeypatch.setattr(formats._Lines, "take", counted)
    complete, set_2 = formats.complete_coloring_from_text, partial(formats.set_coloring_from_text, k=2)
    for host, read, order in [(complete_bipartite(64, 3), complete, "left by left"),
                              (complete_bipartite(1, 40), complete, "left by left"),
                              (set_bipartite(40, 2), set_2, "right by right")]:
        coloring = random_coloring(host, random.Random(2))
        text = "\n".join(set_coloring_lines(coloring, order)) + "\n"
        del sizes[:]
        assert read(text) == coloring
        assert 8 <= max(sizes) < 16, host


def test_a_run_under_a_wide_header_is_refused_without_its_subsets():
    # One element a line: one 60000-subset of [65536] is spelled, for the
    # first line to be compared with; the lines are then counted, not ranked.
    text = "subsetcoloring 65536 60000 2\n" + "".join(f"sc {i} 1\n" for i in range(1, 3000))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="subsets, got 2999$"):
            formats.subset_coloring_from_text(text)
        assert tracemalloc.get_traced_memory()[1] < 16 << 20
    finally:
        tracemalloc.stop()
