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
splits, so a file is never held whole.  Every writer is a generator of
chunks, one per left for edge lines (from BipartiteGraph.edge_rows,
walked once for a certificate) and one per batch of lines otherwise;
each *_to_text (and export_dot) is the join of its generator.  B_{n,k}'s
subsets have one spelling, _subset_names, for rlabel and sc lines.

A reader compares the text with the chunks the writer would write
(_Lines.take), and takes each chunk the text spells whole, unparsed:
where it knows the host (a certificate's coloring section after its host
section, coloring_from_text), in graph text whose header names B_{n,k}
(C(n, k) rights: B_{n,k} or B_{n,n-k}, as the first rlabel chunk says)
or K_{n,m}, and in colorings whose host it learns from their opening
lines (_opening): set_coloring_from_text's B_{n,k}, right by right (mask
bit order) or left by left, and complete_coloring_from_text's K_{n,k},
from left 1 and the lefts after it.  A left's e lines, and its c lines
with their letters read as R, have one spelling, _edge_lines.  A c
chunk's letters are read out as bits, _dealt to mask bit order when
taken left by left, all through _by_left.  From the first chunk that
differs, the section goes to the line parser, the chunks taken
re-spelled from the host (as columns, for a coloring) ahead of it; a
coloring not compared is three columns (lefts, right indices, color
bits), from which the host may be inferred, packed by pack_coloring.
A certificate is read section by section, its host's rows shared by its
e and c chunks.
An sc file's values cannot be spelled: its lines are split one by one,
and their values taken as the table while each names the next subset as
_subset_names spells it.
"""

from array import array
from functools import partial
from itertools import accumulate, chain, combinations, count, islice, pairwise, repeat
from math import comb

from .constructions import complete_bipartite, set_bipartite
from .errors import ParameterError, ValidationError
from .graphs import _DIGIT, BipartiteGraph, Color, InducedCopyWitness, _dealt, _packed, _resolve
from .graphs import pack_coloring, set_graph_arity
from .hypergraph import SubsetColoring, _rank_table
from .subsets import SubsetSequence, is_subset_count

_BLOCK = 1 << 16  # characters read at a time
_BATCH = 4096  # lines per batch, and about per chunk compared
_SPELL = 1 << 18  # most subset elements spelled for a first chunk compared
_MAX_INDEX = (1 << 31) - 1  # vertex indices are 4-byte, as in array("i") columns and rows
_SECTIONS = ("host", "coloring", "pattern", "witness")


class _Lines:
    """The content lines of a str or an open text file: stripped, neither
    blank nor '#' comments, split exactly as str.splitlines splits: one
    line, then twice as many characters before each next split.  Between
    two items a parser may take a chunk of text it expects (see take)."""

    def __init__(self, source):
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


def _batches(items, size=_BATCH):
    """Lists of up to size consecutive items."""
    items = iter(items)
    return iter(lambda: list(islice(items, size)), [])


def _int(token, what):
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"bad {what} {token!r}: expected an integer")


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
            yield _edge_lines("e", left, text)


def _index_lines(row):
    """A left's right indices, one a line (with no final line break)."""
    return "\n".join(map(str, row))


def _edge_lines(word, left, text, end="\n"):
    """A left's e lines, or with end=" R\n" its c lines read as R, from its _index_lines text."""
    return f"{word} {left} " + text.replace("\n", f"{end}{word} {left} ") + end


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


def _spelled_graph(lines, n, right_count):
    """(a function of a line giving (graph, line, _edge_texts rows), the
    chunks after the header lines that lines takes, spelled again, whether
    that is all of them) for the first candidate whose first such chunk
    lines takes: B_{n,k} for k, then n - k, with C(n, k) = right_count and
    at most _SPELL subset elements in that chunk; then K_{n,right_count}
    for 1 <= right_count <= _SPELL, built only when asked for, its lefts
    about _BATCH lines a chunk.  Else (None, (), False)."""
    k, count = 0, 1  # count is C(n, k)
    while 2 * k < n and count < right_count:
        k, count = k + 1, count * (n - k) // (k + 1)
    arities = dict.fromkeys((k, n - k)) if count == right_count else ()
    for k in (j for j in arities if j and j * min(right_count, _BATCH) <= _SPELL):
        host, rows = set_bipartite(n, k), []
        taken, whole = _took(lines, islice(graph_chunks(host, _kept(rows, host)), 1, None))
        if taken:
            return (lambda line: (host, line, rows),
                    islice(graph_chunks(host, rows), 1, taken + 1), whole)
    if not (1 <= right_count <= _SPELL and n):
        return None, (), False
    row = _index_lines(range(1, right_count + 1))  # every left's right indices
    chunks = lambda: map("".join, _batches(
        (_edge_lines("e", x, row) for x in range(1, n + 1)), max(1, _BATCH // right_count)))
    taken, whole = _took(lines, chunks())
    return (lambda line: (complete_bipartite(n, right_count), line, ["", *repeat(row, n)]),
            islice(chunks(), taken), whole)


def _took(lines, chunks):
    """(how many of chunks lines takes, up to the first it does not, whether that is all)."""
    taken = 0
    for taken, chunk in enumerate(chunks, 1):
        if not lines.take(chunk):
            return taken - 1, False
    return taken, True


def _read_graph(lines, sections=()):
    """(graph, the line that ended it or None, its _edge_texts rows or None)
    from content lines: the header, then rlabel and e lines, read into
    columns, up to one whose first word is in sections.  The chunks of
    B_{n,k} or K_{n,m}, where the header names it, are taken first; unless
    all are, and then such a line or the end, they are read again line by
    line."""
    header = next(lines, "")
    if not header.startswith("bipartite"):
        raise ValidationError("graph text must start with a 'bipartite' header")
    fields = header.split()
    if len(fields) != 3:
        raise ValidationError(f"bad graph header {header!r}")
    left_count, right_count = _int(fields[1], "left count"), _int(fields[2], "right count")
    if not (0 <= left_count <= _MAX_INDEX and 0 <= right_count <= _MAX_INDEX):
        raise ValidationError(f"bad graph header {header!r}: counts must be 0..{_MAX_INDEX}")
    built, taken, whole = _spelled_graph(lines, left_count, right_count)
    line = next(lines, None) if whole else None
    if whole and (line is None or line.split()[0] in sections):
        return built(line)
    taken = chain.from_iterable(map(str.splitlines, taken))  # replayed line by line
    lefts, rights = array("i"), array("i")  # per e line
    labeled, subsets = array("i"), []  # per rlabel line: its index and its subset
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


def _read_coloring(lines, sections=(), line=None):
    """((lefts, right indices, color bits), the line that ended them or
    None): the c lines of an edge coloring, line first if given, as two
    array('i') columns and a bytearray, up to a line whose first word is in
    sections."""
    lefts, rights, bits = array("i"), array("i"), bytearray()
    add_left, add_right, add_bit = lefts.append, rights.append, bits.append
    # Fields are converted inline, not through _int: files run to 10^6+ lines.
    for line in chain([line] if line else (), lines):
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


def _taken(lines, chunks, got):
    """Whether the text spells every chunk, letters read as R: each chunk it
    spells is taken, up to the first it does not, its color bits to got."""
    for chunk in chunks:
        text = lines.take(chunk, masked=True)
        if text is None:
            return False
        got.append(text.encode().translate(_BIT_OF_BYTE, _NOT_A_LETTER))
    return True


def _opening(lines, spell, got, width=1):
    """How many units of an endless sequence the text spells, each taken,
    where spell(a, b) spells units a..b-1 of width lines each: a chunk of
    them doubles while the text spells it, up to the first power of two of
    at least _BATCH lines, then halves."""
    taken, size = 0, 1
    while _taken(lines, [spell(taken + 1, taken + size + 1)], got):
        taken, size = taken + size, size << (size * width < _BATCH)
    while size > 1:
        size //= 2
        if _taken(lines, [spell(taken + 1, taken + size + 1)], got):
            taken += size
    return taken


def _left_chunks(rows, sizes):
    """Lefts' c lines as coloring_chunks writes them, letters R, from left
    len(sizes) on, given each one's right indices in rows, as an array or
    as their _index_lines text, dropped from rows once spelled: at least
    _BATCH lines a chunk but the last, small lefts joined whole and an array
    cut every _BATCH indices.  Each left's line count goes to sizes."""
    parts, size = [], 0
    for left in range(len(sizes), len(rows)):
        row, rows[left] = rows[left], None
        texts = [row] if type(row) is str else [
            _index_lines(row[i : i + _BATCH]) for i in range(0, len(row), _BATCH)]
        sizes.append(0)
        for text in texts:
            parts.append(_edge_lines("c", left, text, " R\n") if text else "")
            added = parts[-1].count("\n")
            sizes[-1], size = sizes[-1] + added, size + added
            if size >= _BATCH:
                yield "".join(parts)
                parts, size = [], 0
    yield "".join(parts)


def _compared(lines, graph, chunks, got, respelled, sizes=None, sections=()):
    """(graph's digits for _packed, None, the line after the chunks or None)
    when the text spells every chunk (_taken; none for no graph) and no c
    line follows them; else (None, every c line's columns, the line that
    ended them or None): the chunks taken, respelled(edges) giving their
    lefts and right indices, then what _read_coloring reads.  Chunks are in
    mask bit order, or left by left with sizes[left] lines each."""
    whole = graph is not None and _taken(lines, chunks, got)
    bits = b"".join(got)
    got.clear()  # the bits are held once
    line = next(lines, None)
    if whole and (line is None or line.split()[0] in sections):
        digits = bits.translate(_DIGIT)
        if sizes is not None:
            view, spans = memoryview(digits), pairwise(accumulate(sizes, initial=0))
            digits = bytes(_dealt(graph, [iter(view[a:b]) for a, b in spans]))
        return digits, None, line
    columns, line = _read_coloring(lines, sections, line)
    for column, ahead in zip(columns, (*respelled(len(bits)), bits)):
        column[:0] = ahead
    return None, columns, line


def _columns(groups, edges, first):
    """array('i') columns of the first edges of groups: each group's index,
    counted from first, once per item of it, and its items."""
    owners = chain.from_iterable(map(repeat, count(first), map(len, groups)))
    return array("i", islice(owners, edges)), array("i", islice(chain.from_iterable(groups), edges))


def _by_left(lines, graph, rows, got, sizes, sections=()):
    """_compared with graph's c lines left by left from left len(sizes) on,
    given each one's rights in rows as _left_chunks takes them; the chunks
    taken are re-spelled from graph's edge_rows, or from rows for no graph."""
    respelled = lambda edges: _columns(graph.edge_rows()[0] if graph else rows, edges, 0)
    return _compared(lines, graph, _left_chunks(rows, sizes), got, respelled, sizes, sections)


def _read_colors(lines, graph, rows=None, sections=()):
    """(a function that packs graph's coloring as read, the line that ended
    it or None): _by_left from left 0, over rows or else graph's edge_rows."""
    digits, columns, line = _by_left(lines, graph, rows or graph.edge_rows()[0], [], [], sections)
    return partial(pack_coloring, graph, *columns) if columns else partial(_packed, graph, digits), line


def coloring_from_text(source, graph):
    return _read_colors(_Lines(source), graph)[0]()  # validates totality


def infer_complete_host(source):
    """Reconstruct K_{n,k} from a total coloring file of a complete host."""
    (lefts, rights, _), _ = _read_coloring(_Lines(source))
    return _complete_host(lefts, rights)


def complete_coloring_from_text(source):
    """The coloring of K_{n,k} in a total coloring file, left by left as
    the writers list it: left 1's lines give k, and the lefts after it, each
    the same row under its own number, give n (_opening).  From the first
    chunk that differs, the host is inferred from every line's columns
    (_compared)."""
    lines, got = _Lines(source), []
    k = _opening(lines, _first_left, got)
    row = _index_lines(range(1, k + 1))
    n = 1 + (k and _opening(lines, lambda a, b: "".join(  # lefts a + 1..b, each one row
        [_edge_lines("c", x, row, " R\n") for x in range(a + 1, b + 1)]), got, k))
    host = complete_bipartite(n, k) if k else None
    digits, columns, _ = _by_left(lines, host, (), got, [0] + [k] * n)  # _opening took every left
    if columns:
        return pack_coloring(_complete_host(*columns[:2]), *columns)
    return _packed(host, digits)


def _first_left(a, b):
    """Left 1's c lines to rights a..b-1 (a < b), letters R, as the writers list them."""
    return _edge_lines("c", 1, _index_lines(range(a, b)), " R\n")


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
    """The coloring of B_{n,k} in a total coloring file.  Its opening lines,
    compared with what every B_{N,k} spells (_opening), give n: the rights
    {1..k-1, x}, x = k..n, right by right in mask bit order, or left 1's
    C(n-1, k-1) lines, left by left as the writers list them.  B_{n,k}'s
    later chunks in that order are then compared; from the first that
    differs, the host is inferred from every line's columns (_compared)."""
    lines, got, t = _Lines(source), [], 1 <= k <= _SPELL
    t = t and _opening(lines, lambda a, b: "".join(
        [f"c {x} {i} R\n" for i in range(a, b) for x in (*range(1, k), k - 1 + i)]), got, k)
    if t:  # right by right: the other rights from their names, _BATCH lines a chunk
        n = k - 1 + t
        host, names = set_bipartite(n, k), islice(_subset_names(n, k), t, None)
        spelled = ("c " + name.replace(",", sep) + sep[:-2]
                   for i, name in enumerate(names, t + 1) for sep in [f" {i} R\nc "])
        chunks = map("".join, _batches(spelled, max(1, _BATCH // k)))
        digits, columns, _ = _compared(
            lines, host, chunks, got, lambda edges: _columns(host.neighborhoods, edges, 1)[::-1])
    else:  # left by left: left 1's lines are rights 1..C(n-1, k-1), then the other lefts
        t = 1 < k <= _SPELL and _opening(lines, _first_left, got)
        n = next(m for m in count(k) if comb(m - 1, k - 1) >= t) if t else 0
        host = set_bipartite(n, k) if t and comb(n - 1, k - 1) == t else None
        digits, columns, _ = _by_left(
            lines, host, host.edge_rows()[0] if host else [(), range(1, t + 1)], got, [0, t])
    if columns:
        return pack_coloring(_set_host(columns[0], k), *columns)
    return _packed(host, digits)


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
    return SubsetColoring(n, arity, palette, _subset_table(lines, n, arity, palette))


def _subset_table(lines, n, arity, palette):
    """Values by subset rank, a byte each for a palette of at most 255: the
    values read while the sc lines name the arity-subsets of [n] in lex order;
    from the first line that does not, or at a count not C(n, arity), _rank_table's."""
    if min(n, arity) < 0 or n > 1 << 16:  # combinations holds [n] as a tuple
        return _rank_table(n, arity, map(_subset_value, lines))
    spelled, values = _subset_names(n, arity), bytearray() if palette <= 255 else []
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "sc" or parts[1] != next(spelled, None):
            break
        try:
            values.append(int(parts[2]))
        except ValueError:  # not an int (_subset_value words it), or past a byte
            break
    else:
        if is_subset_count(len(values), n, arity):
            return values
        line = ""
    read = zip(islice(combinations(range(1, n + 1), arity), len(values)), values)
    rest = chain([line] if line else (), lines)
    return _rank_table(n, arity, chain(read, map(_subset_value, rest)))


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
            sections[first], line = _read_colors(lines, sections["host"], rows, _SECTIONS)
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
