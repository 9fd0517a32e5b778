"""Line-oriented text formats for graphs, colorings, subset colorings,
and witness certificates, and Graphviz DOT rendering (export_dot).

Graph:
    bipartite <left_count> <right_count>
    rlabel <index> <comma-separated-ints>     (subset-labeled rights only)
    e <left> <right_index>

Rights default to the opaque label equal to their 1-based index; rlabel
lines replace a right's label with a subset.  Edge coloring (always read
against a known graph; totality is validated on load):
    c <left> <right_index> <R|B>

Subset coloring:
    subsetcoloring <n> <arity> <palette>
    sc <comma-separated subset> <value>

Homogeneous set (value omitted when the set is smaller than the arity;
a bare list of integers is read as the members alone):
    homogeneous <v1> <v2> ...
    value <palette value>

Witness certificate (self-contained: host, optional coloring, pattern,
and the mapping, so a certificate file can be checked on its own):
    host
    <graph lines>
    coloring
    <c lines>
    pattern
    <graph lines>
    witness <R|B|->
    wleft <pattern_left> <host_left>
    wright <pattern_right> <host label: int or comma-separated ints>

Blank lines and lines starting with '#' are ignored everywhere.

Every reader takes the text as a str or as an open text file and reads
it once, in blocks of 64 KiB characters split exactly as str.splitlines
splits, so a file is never held whole.  c, e and sc lines come a run at a
time (see _Lines): two or more lines as the writers emit them (one space
between fields, numbers of at most nine ASCII digits, "\n"), which the
line parser reads to the same values.  A run is split once, converted a
column at a time (a left column one int() per distinct field) and never
read twice; an e run refuses its first index out of range as the line
parser would.  Any other line goes to the line parser.  An edge coloring
is read into three columns (lefts, right indices, color bits), from which
complete_coloring_from_text and set_coloring_from_text also infer the
host; pack_coloring packs columns in mask bit order, or left by left as
every writer lists edges, without a search per edge.
B_{n,k}'s subsets have one spelling, _subset_names: it writes rlabel and
sc lines, and recognizes sc lines in lexicographic order, which are then
the value table as read.  Every writer is a generator of chunks, one per
left for edge lines (from BipartiteGraph.edge_rows, walked once for a
certificate) and one per batch of lines otherwise; each *_to_text (and
export_dot) is the join of its generator.

A reader that knows its host compares the text with the chunks the
writer would write for it (_Lines.take), and takes each chunk the text
spells whole, unparsed: in a certificate's coloring section after its
host section, in coloring_from_text, and in graph text whose header gives
C(n, k) rights (B_{n,k} or B_{n,n-k}, as the first rlabel chunk says).
A c chunk is compared with its letters read as R, and the letters are
then read out as bits and _dealt to mask bit order.  From the first chunk
that differs, the section goes to the run and line parsers, the chunks
taken standing in for their lines.  A certificate is read section by
section, its host's edge_rows text shared by its e and c chunks.
"""

import re
from array import array
from functools import partial
from itertools import chain, combinations, count, islice, repeat

from .constructions import complete_bipartite, set_bipartite
from .errors import ParameterError, ValidationError
from .graphs import _DIGIT, BipartiteGraph, Color, InducedCopyWitness, _dealt, _packed, _resolve
from .graphs import pack_coloring, set_graph_arity
from .hypergraph import SubsetColoring, _rank_table
from .subsets import SubsetSequence, is_subset_count

_BLOCK = 1 << 16  # characters read at a time
_BATCH = 4096  # lines per chunk where there is no left to chunk by
_SPELL = 1 << 18  # most subset elements in a first rlabel chunk built to be compared
_MAX_INDEX = (1 << 31) - 1  # vertex indices are 4-byte, as in array("i") columns and rows
_SECTIONS = ("host", "coloring", "pattern", "witness")


class _Lines:
    """The content lines of a str or an open text file: stripped, neither
    blank nor '#' comments, split exactly as str.splitlines splits.  A
    parser may set pattern, a regex for two or more of its c, e or sc lines
    in the writers' form (numbers of at most nine digits, each line ending
    in "\n"): where it matches, the match comes whole and once, a run with
    its line breaks (lines are stripped, so only a run ends in one).
    Elsewhere the reader goes on line by line, one line and then twice as
    many characters before each next try.  Between two items a parser may
    take a chunk of text it expects (see take)."""

    def __init__(self, source):
        self.pattern = None
        if isinstance(source, str):
            self._blocks = (source[i : i + _BLOCK] for i in range(0, len(source), _BLOCK))
        else:
            self._blocks = _blocks(source)
        self._text, self._pos, self._size = "", 0, 1  # the text at hand is _text[_pos:]
        self._items = self._scan()

    def __iter__(self):
        return self._items

    def __next__(self):
        return next(self._items)

    def take(self, chunk, masked=False):
        """The text ahead, consumed, when it spells chunk (with each "B" read
        as "R" if masked) from the line after the last item; else None, and
        nothing is consumed.  Blocks are read only while they spell it."""
        text, pos = self._text, self._pos
        if pos is None:  # lines split off with the last item are still to come
            return None
        blocks, seen, piece = [], 0, text[pos : pos + len(chunk)]
        while chunk.startswith(piece.replace("B", "R") if masked else piece, seen):
            seen += len(piece)
            if seen == len(chunk):
                if blocks:
                    text, pos = "".join([text[pos:], *blocks]), 0
                self._text, self._pos, self._size = text, pos + len(chunk), 1
                return text[pos : pos + len(chunk)]
            blocks.append(next(self._blocks, ""))
            piece = blocks[-1][: len(chunk) - seen]
            if not piece:  # the text ends inside the chunk
                break
        if blocks:
            self._text, self._pos = "".join([text[pos:], *blocks]), 0
        return None

    def _scan(self):
        while True:
            text, pos = self._text, self._pos
            run = self.pattern and self.pattern.match(text, pos)
            if run:
                self._pos, self._size = run.end(), 1
                yield run.group()
                continue
            end = text.find("\n", pos + self._size) + 1  # 0 when no line ends past pos + size
            if end:
                self._size *= 2
                yield from self._hand_out(text[pos:end].splitlines(), text, end)
                continue
            raws = text[pos:].splitlines(True)
            tail = raws.pop() if raws else ""  # it may go on in the next block
            yield from self._hand_out(raws, tail, 0)
            block = next(self._blocks, "")
            if not block:
                yield from self._hand_out(self._text[self._pos :].splitlines(), "", 0)
                return
            self._text, self._pos, self._size = self._text[self._pos :] + block, 0, 1

    def _hand_out(self, raws, text, pos):
        """The content lines of raws; the text at hand is text[pos:] from the last one."""
        lines = [line for line in map(str.strip, raws) if line and line[0] != "#"]
        self._pos = None
        yield from lines[:-1]
        self._text, self._pos = text, pos
        yield from lines[-1:]


def _blocks(file):
    """The text of an open file in blocks of _BLOCK characters."""
    try:
        yield from iter(partial(file.read, _BLOCK), "")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{getattr(file, 'name', 'input')!r} is not {exc.encoding} text")


def _batches(items):
    """Lists of up to _BATCH consecutive items."""
    items = iter(items)
    return iter(lambda: list(islice(items, _BATCH)), [])


def _int(token, what):
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"bad {what} {token!r}: expected an integer")


def _left_column(tokens):
    """array('i') of a run's lefts, few of them distinct: one int() each."""
    ints = dict.fromkeys(tokens)
    ints.update(zip(ints, map(int, ints)))
    return array("i", list(map(ints.__getitem__, tokens)))


def _parse_subset(token):
    try:
        return tuple(map(int, token.split(",")))
    except ValueError:
        raise ValidationError(f"bad subset token {token!r}")


def _format_label(label):
    if isinstance(label, tuple):
        return ",".join(map(str, label))
    return str(label)


# -- graphs ------------------------------------------------------------


def graph_chunks(graph, rows=None):
    """graph_to_text a chunk at a time: header, rlabel lines, each left's e
    lines.  rows, if given, is each left's right indices as _index_lines
    formats them (certificate_chunks shares them with the c lines)."""
    labels = graph.right_labels
    yield f"bipartite {graph.left_count} {len(labels)}\n"
    if type(labels) is SubsetSequence:  # not iterated: its iterator holds [n]
        names = enumerate(_subset_names(labels.n, labels.k), 1)
    else:
        names = ((i, _format_label(x)) for i, x in enumerate(labels, 1) if isinstance(x, tuple))
    for batch in _batches(names):
        yield "".join([f"rlabel {i} {name}\n" for i, name in batch])
    for left, text in enumerate(map(_index_lines, graph.edge_rows()[0]) if rows is None else rows):
        if text:
            yield f"e {left} " + text.replace("\n", f"\ne {left} ") + "\n"


def _index_lines(row):
    """A left's right indices, one a line (with no final line break)."""
    return "\n".join(map(str, row))


def _edge_texts(graph, masks=None):
    """graph.edge_rows(masks) with each row replaced by its _index_lines
    text as it is reached: the rows a certificate's e and c lines share."""
    rows, bits = graph.edge_rows(masks)
    for left, row in enumerate(rows):  # each row's array goes as its text comes
        rows[left] = _index_lines(row)
    return rows, bits


def _kept(rows, graph):
    """_edge_texts(graph)'s rows, computed when first asked for and kept in rows."""
    rows += _edge_texts(graph)[0]
    yield from rows


def graph_to_text(graph):
    return "".join(graph_chunks(graph))


def graph_from_text(source):
    return _read_graph(_Lines(source))[0]


def _spelled_set_graph(lines, n, right_count):
    """(B_{n,k}, its _kept rows, how many of the chunks graph_chunks writes
    for it after the header lines takes, whether that is all of them), for
    k, then n - k, with C(n, k) = right_count, the first whose first chunk
    lines takes and holds at most _SPELL subset elements; else no host."""
    k, count = 0, 1  # count is C(n, k)
    while 2 * k < n and count < right_count:
        k, count = k + 1, count * (n - k) // (k + 1)
    arities = dict.fromkeys((k, n - k)) if count == right_count else ()
    for k in (j for j in arities if j and j * min(right_count, _BATCH) <= _SPELL):
        host, rows, taken = set_bipartite(n, k), [], 0
        for chunk in islice(graph_chunks(host, _kept(rows, host)), 1, None):
            if not lines.take(chunk):
                break
            taken += 1
        else:
            return host, rows, taken, True
        if taken:
            return host, rows, taken, False
    return None, None, 0, False


# Run patterns take numbers of nine digits at most: each fits array("i"), and
# int() reads it as its line parser does.  A longer one is for that parser.
_GRAPH_RUN = re.compile(r"(?:e [0-9]{1,9} [0-9]{1,9}\n){2,}")


def _read_graph(lines, sections=()):
    """(graph, the line that ended it or None, its _edge_texts rows or None)
    from content lines: the header, then rlabel and e lines, read into
    columns, up to one whose first word is in sections.  B_{n,k}'s chunks,
    where the header names it, are taken first; unless all are, and then
    such a line or the end, they are read again: rlabel lines one by one,
    each left's e lines as a run."""
    lines.pattern = None
    header = next(lines, "")
    if not header.startswith("bipartite"):
        raise ValidationError("graph text must start with a 'bipartite' header")
    fields = header.split()
    if len(fields) != 3:
        raise ValidationError(f"bad graph header {header!r}")
    left_count, right_count = _int(fields[1], "left count"), _int(fields[2], "right count")
    if not (0 <= left_count <= _MAX_INDEX and 0 <= right_count <= _MAX_INDEX):
        raise ValidationError(f"bad graph header {header!r}: counts must be 0..{_MAX_INDEX}")
    host, rows, taken, whole = _spelled_set_graph(lines, left_count, right_count)
    line = host and next(lines, None)
    if whole and (line is None or line.split()[0] in sections):
        return host, line, rows
    taken = islice(graph_chunks(host, rows), 1, taken + 1) if host else ()
    taken = chain.from_iterable(c.splitlines() if c[0] == "r" else [c] for c in taken)
    lefts, rights = array("i"), array("i")  # per e line
    labeled, subsets = array("i"), []  # per rlabel line: its index and its subset
    lines.pattern = _GRAPH_RUN
    for line in chain(taken, [line] if line else (), lines):
        parts = line.split()
        if parts[0] == "e" and len(parts) == 3:
            left, idx = _int(parts[1], "left"), _int(parts[2], "right index")
            if not 1 <= idx <= right_count:
                raise ValidationError(f"edge right index {idx} out of range")
            try:
                lefts.append(left)
            except OverflowError:  # no left of any graph: BipartiteGraph names it
                lefts = [*lefts, left]
            rights.append(idx)
        elif parts[0] == "rlabel" and len(parts) in (2, 3):  # the empty subset has no field
            idx = _int(parts[1], "rlabel index")
            if not 1 <= idx <= right_count:
                raise ValidationError(f"rlabel index {idx} out of range")
            labeled.append(idx)
            subsets.append(_parse_subset(parts[2]) if len(parts) == 3 else ())
        elif line[-1] == "\n":  # a run of e lines, three fields each
            run = array("i", list(map(int, parts[2::3])))
            if min(run) < 1 or max(run) > right_count:  # the first such line's message
                idx = next(i for i in run if not 1 <= i <= right_count)
                raise ValidationError(f"edge right index {idx} out of range")
            lefts += _left_column(parts[1::3])
            rights += run
        elif parts[0] in sections:
            break
        else:
            raise ValidationError(f"unrecognized graph line {line!r}")
    else:
        line = None
    labels = list(range(1, right_count + 1))
    for idx, subset in zip(labeled, subsets):
        labels[idx - 1] = subset
    neighborhoods = [[] for _ in labels]  # lefts per right, as read
    for left, idx in zip(lefts, rights):
        neighborhoods[idx - 1].append(left)
    labels = tuple(labels)
    neighborhoods = tuple(tuple(sorted(set(adjacent))) for adjacent in neighborhoods)
    k = set_graph_arity(left_count, labels, neighborhoods)
    if k:  # text that is exactly B_{n,k} reads as the lazy host
        return set_bipartite(left_count, k), line, None
    return BipartiteGraph(left_count, labels, neighborhoods), line, None


def _subset_names(n, k):
    """The k-subsets of [n] (k >= 0) in lexicographic order, spelled as
    rlabel and sc lines spell them: one join per subset of the elements,
    each spelled once.  Below k = 2 no list of [n] is built."""
    if k < 2:
        yield from map(str, range(1, n + 1)) if k else [""]
        return
    yield from map(",".join, combinations([str(x) for x in range(1, n + 1)], k))


# -- edge colorings ----------------------------------------------------


_LETTER = (" R", " B")  # by color bit


def coloring_chunks(coloring, rows=None, bits=None):
    """coloring_to_text a chunk at a time: each left's c lines.  rows and
    bits, if given, are the graph's as certificate_chunks has them."""
    graph = coloring.graph
    if not graph.edge_count:
        yield "\n"  # an edgeless coloring's text is one empty line
    if rows is None:
        rows, bits = graph.edge_rows(coloring.masks)
        rows = map(_index_lines, rows)
    for left, text in enumerate(rows):
        if text:
            sep = f"\nc {left} "
            lines = map(str.__add__, text.split("\n"), map(_LETTER.__getitem__, bits[left]))
            yield sep[1:] + sep.join(lines) + "\n"


def coloring_to_text(coloring):
    return "".join(coloring_chunks(coloring))


_BIT_OF_LETTER = {"R": 0, "B": 1}
_BIT_OF_BYTE = bytes.maketrans(b"RB", b"\0\1")
_NOT_A_LETTER = bytes(sorted({*range(256)} - {*b"RB"}))
_C_RUN = re.compile(r"(?:c [0-9]{1,9} [0-9]{1,9} [RB]\n){2,}")


def _read_coloring(lines, sections=()):
    """((lefts, right indices, color bits), the line that ended them or
    None): the c lines of an edge coloring as two array('i') columns and a
    bytearray, up to a line whose first word is in sections."""
    lefts, rights, bits = array("i"), array("i"), bytearray()
    add_left, add_right, add_bit = lefts.append, rights.append, bits.append
    lines.pattern = _C_RUN
    # Fields are converted inline, not through _int: files run to 10^6+ lines.
    for line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "c":
            if line[-1] == "\n":  # a run of c lines, four fields each
                lefts += _left_column(parts[1::4])
                rights += array("i", list(map(int, parts[2::4])))
                bits += "".join(parts[3::4]).encode().translate(_BIT_OF_BYTE)
                continue
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


def _read_colors(lines, graph, rows, sections=()):
    """(a function that packs the coloring of graph read, the line that
    ended it or None), given graph's _edge_texts rows: each left's c lines
    as coloring_chunks writes them, taken while the text spells them, then
    what _read_coloring reads, the lefts taken ahead as columns."""
    taken, whole = [], True  # each left's rights text and color bits
    for left, text in enumerate(rows):
        sep = f" R\nc {left} "
        got = text and lines.take(sep[3:] + text.replace("\n", sep) + " R\n", masked=True)
        if got is None:
            whole = False
            break
        taken.append((text, got.encode().translate(_BIT_OF_BYTE, _NOT_A_LETTER)))
    (lefts, rights, bits), line = _read_coloring(lines, sections)
    if whole and not bits:
        digits = bytes(_dealt(graph, [iter(row_bits) for _, row_bits in taken])).translate(_DIGIT)
        return partial(_packed, graph, digits), line
    lefts[:0] = array("i", chain.from_iterable(map(repeat, count(), (len(b) for _, b in taken))))
    rights[:0] = array("i", map(int, chain.from_iterable(text.split() for text, _ in taken)))
    bits[:0] = b"".join(row_bits for _, row_bits in taken)
    return partial(pack_coloring, graph, lefts, rights, bits), line


def coloring_from_text(source, graph):
    rows = map(_index_lines, graph.edge_rows()[0])
    return _read_colors(_Lines(source), graph, rows)[0]()  # validates totality


def infer_complete_host(source):
    """Reconstruct K_{n,k} from a total coloring file of a complete host."""
    (lefts, rights, _), _ = _read_coloring(_Lines(source))
    return _complete_host(lefts, rights)


def complete_coloring_from_text(source):
    """The coloring of K_{n,k} in a total coloring file, parsed in one pass."""
    columns, _ = _read_coloring(_Lines(source))
    return pack_coloring(_complete_host(*columns[:2]), *columns)


def _complete_host(lefts, rights):
    """K_{n,k} for a coloring's columns, checked before it is built."""
    if not lefts:
        raise ValidationError("coloring file contains no coloring lines")
    for what, column in (("left", lefts), ("right index", rights)):
        if min(column) < 1:
            raise ValidationError(f"coloring {what} {min(column)} is below 1")
    n, k = max(lefts), max(rights)
    if len(lefts) != n * k:
        raise ValidationError(
            f"coloring has {len(lefts)} lines, a total coloring of K_({n},{k}) needs {n * k}"
        )
    return complete_bipartite(n, k)


def infer_set_host(source, k):
    """Reconstruct B_{n,k} from a total coloring file of a set-membership host."""
    (lefts, _, _), _ = _read_coloring(_Lines(source))
    return _set_host(lefts, k)


def set_coloring_from_text(source, k):
    """The coloring of B_{n,k} in a total coloring file, parsed in one pass."""
    columns, _ = _read_coloring(_Lines(source))
    return pack_coloring(_set_host(columns[0], k), *columns)


def _set_host(lefts, k):
    if k < 1:
        raise ParameterError(f"a set graph needs arity k >= 1, got {k}")
    n = max(lefts, default=0)
    if n < k:
        raise ValidationError(f"coloring file too small for a set graph of arity {k}")
    if len(lefts) % k or not is_subset_count(len(lefts) // k, n, k):
        raise ValidationError(  # by formula: k * C(n, k) can run past str()'s 4,300 digits
            f"coloring has {len(lefts)} lines, a total coloring of B_({n},{k}) "
            f"needs {k}*C({n},{k})"
        )
    return set_bipartite(n, k)


# -- subset colorings ---------------------------------------------------


def subset_coloring_chunks(sc):
    """subset_coloring_to_text a chunk at a time: header, then batches of sc lines."""
    yield f"subsetcoloring {sc.n} {sc.arity} {sc.palette_size}\n"
    for batch in _batches(zip(_subset_names(sc.n, sc.arity), sc.values)):
        yield "".join([f"sc {name} {value}\n" for name, value in batch])


def subset_coloring_to_text(sc):
    return "".join(subset_coloring_chunks(sc))


def subset_coloring_from_text(source):
    lines = _Lines(source)
    header = next(lines, "")
    if not header.startswith("subsetcoloring"):
        raise ValidationError("subset-coloring text must start with a 'subsetcoloring' header")
    fields = header.split()
    if len(fields) != 4:
        raise ValidationError(f"bad subset-coloring header {header!r}")
    n, arity, palette = (_int(x, "subset-coloring header field") for x in fields[1:])
    if max(n, arity) > _MAX_INDEX:  # C(n, arity) alone could take hours
        raise ValidationError(f"bad subset-coloring header {header!r}: past {_MAX_INDEX}")
    return SubsetColoring(n, arity, palette, _subset_table(lines, n, arity))


_SC_RUN = re.compile(r"(?:sc [0-9]{1,9}(?:,[0-9]{1,9})* [0-9]{1,9}\n){2,}")


def _subset_table(lines, n, arity):
    """Values by subset rank: the values read, while the sc lines name the
    arity-subsets of [n] in lexicographic order; from the first line that
    does not, or at a count that is not C(n, arity), _rank_table's."""
    if min(n, arity) < 0 or n > 1 << 16:  # combinations holds [n] as a tuple
        return _rank_table(n, arity, map(_subset_value, lines))
    spelled, values = _subset_names(n, arity), []  # the subsets in order, as text
    lines.pattern = _SC_RUN
    for line in lines:
        parts = line.split()
        if line[-1] == "\n":  # a run: only subsets of the fields' sizes are spelled
            names = parts[1::3]
            if {*map(str.count, names, repeat(","))} == {arity - 1}:
                if list(islice(spelled, len(names))) == names:
                    values += map(int, parts[2::3])
                    continue
        elif _format_label((pair := _subset_value(line))[0]) == next(spelled, None):
            values.append(pair[1])
            continue
        break
    else:
        if is_subset_count(len(values), n, arity):
            return values
        line = ""
    lines.pattern = None
    read = zip(islice(combinations(range(1, n + 1), arity), len(values)), values)
    return _rank_table(n, arity, chain(read, map(_subset_value, chain(line.splitlines(), lines))))


def _subset_value(line):
    parts = line.split()
    if len(parts) not in (2, 3) or parts[0] != "sc":  # the empty subset has no field
        raise ValidationError(f"unrecognized subset-coloring line {line!r}")
    return _parse_subset(parts[1]) if len(parts) == 3 else (), _int(parts[-1], "subset value")


# -- homogeneous sets ----------------------------------------------------


def homogeneous_to_text(vertices, value):
    text = "homogeneous " + " ".join(str(v) for v in vertices) + "\n"
    return text + (f"value {value}\n" if value is not None else "")


def homogeneous_from_text(source):
    """(sorted members, palette value or None) from homogeneous-set text."""
    members = set()
    value = None
    for line in _Lines(source):
        tokens = line.replace(",", " ").split()
        if not tokens:
            raise ValidationError(f"bad homogeneous-set line {line!r}")
        if tokens[0] == "value":
            if len(tokens) != 2 or value is not None:
                raise ValidationError(f"bad value line {line!r}")
            value = _int(tokens[1], "value")
            continue
        if tokens[0] == "homogeneous":
            tokens = tokens[1:]
        members.update(_int(token, "member") for token in tokens)
    return sorted(members), value


# -- witness certificates -----------------------------------------------


def certificate_chunks(host, witness, coloring=None):
    """certificate_to_text a chunk at a time.  The host's edges are walked
    once, and each left's right indices formatted once, for its e lines and
    its c lines; ValidationError for a coloring of another graph."""
    _resolve(host, coloring)
    rows, bits = _edge_texts(host, None if coloring is None else coloring.masks)
    yield "host\n"
    yield from graph_chunks(host, rows)
    if coloring is not None:
        yield "coloring\n"
        yield from coloring_chunks(coloring, rows, bits)
    yield "pattern\n"
    yield from graph_chunks(witness.pattern)
    claimed = witness.claimed_color.letter if witness.claimed_color is not None else "-"
    yield f"witness {claimed}\n"
    yield "".join(f"wleft {i} {host_left}\n" for i, host_left in enumerate(witness.host_left, 1))
    yield "".join(
        f"wright {j} {_format_label(label)}\n" for j, label in enumerate(witness.host_right, 1)
    )


def certificate_to_text(host, witness, coloring=None):
    return "".join(certificate_chunks(host, witness, coloring))


def certificate_from_text(source):
    """Parse a certificate in one pass; returns (host, coloring_or_None, witness).
    Each section's lines go straight to its parser; none is kept as text.  A
    coloring section after the host section is read against the host."""
    lines = _Lines(source)
    sections = {}
    claimed = rows = None
    line = next(lines, None)
    while line is not None:
        parts = line.split()
        first = parts[0]
        if first not in _SECTIONS:  # only the first line can be outside a section
            raise ValidationError(f"certificate line {line!r} outside any section")
        if first in sections:
            raise ValidationError(f"duplicate certificate section {first!r}")
        if first == "coloring" and "host" in sections:
            host = sections["host"]
            rows = rows or map(_index_lines, host.edge_rows()[0])
            sections[first], line = _read_colors(lines, host, rows, _SECTIONS)
        elif first == "coloring":  # packed once the host is read
            columns, line = _read_coloring(lines, _SECTIONS)
            sections[first] = lambda: pack_coloring(sections["host"], *columns)
        elif first == "witness":
            if len(parts) != 2 or parts[1] not in ("R", "B", "-"):
                raise ValidationError(f"bad witness section header {line!r}")
            claimed = None if parts[1] == "-" else Color.from_letter(parts[1])
            sections[first], line = _read_witness(lines)
        else:
            sections[first], line, texts = _read_graph(lines, _SECTIONS)
            rows = texts if first == "host" else rows
    for required in ("host", "pattern", "witness"):
        if required not in sections:
            raise ValidationError(f"certificate is missing the {required!r} section")

    host, pattern, (lefts, rights) = sections["host"], sections["pattern"], sections["witness"]
    coloring = sections["coloring"]() if "coloring" in sections else None
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


def _read_witness(lines):
    """(({pattern left: host left}, {pattern right: host label}), the line
    that ended them or None) from wleft and wright lines."""
    lefts, rights = {}, {}
    lines.pattern = None
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


# -- DOT rendering -------------------------------------------------------


def export_dot(graph, coloring=None, witness=None):
    """Graphviz text for a bipartite graph in the two-column style:
    lefts in one rank, rights in another, edges red/blue when colored
    and black otherwise, witness vertices and edges drawn bold."""
    return "".join(dot_chunks(graph, coloring, witness))


def dot_chunks(graph, coloring=None, witness=None):
    """export_dot a chunk at a time.  The witness and the coloring are
    checked here, before the first chunk is asked for."""
    rights = _resolve(graph, coloring, witness)
    marked_lefts = set(witness.host_left) if witness is not None else set()
    return _dot_chunks(graph, coloring, marked_lefts, {r + 1 for r in rights})  # 1-based


def _dot_chunks(graph, coloring, marked_lefts, marked_rights):
    yield "graph bipartite {\n  rankdir=LR;\n  node [shape=circle];\n"
    # Left x is node Lx labelled x; the right at 1-based index i is node Ri.
    sides = (("L", graph.lefts, marked_lefts), ("R", graph.right_labels, marked_rights))
    for side, labels, marked in sides:
        if labels:
            yield "  { rank=same;\n"
            for batch in _batches(enumerate(labels, 1)):
                yield "".join([
                    f'    {side}{i} [label="{_format_label(label)}"'
                    f'{" style=bold penwidth=2" if i in marked else ""}];\n'
                    for i, label in batch
                ])
            yield "  }\n"
    rows, bits = graph.edge_rows(None if coloring is None else coloring.masks)
    for left, row in enumerate(rows):
        colors = repeat("black") if bits is None else map(("red", "blue").__getitem__, bits[left])
        bold = marked_rights if left in marked_lefts else ()
        yield "".join([
            f"  L{left} -- R{i} [color={color}{' penwidth=2' if i in bold else ''}];\n"
            for i, color in zip(row, colors)
        ])
    yield "}\n"


# -- small file helpers --------------------------------------------------


def save_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()
