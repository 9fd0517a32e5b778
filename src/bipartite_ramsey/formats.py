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
splits, so a file is never held whole.  An edge coloring is read into
three columns (lefts, right indices, color bits), from which
complete_coloring_from_text and set_coloring_from_text also infer the
host; a certificate is read section by section.  Every writer is a
generator of chunks, one per left for edge lines (from
BipartiteGraph.edge_rows) and one per batch of lines otherwise; each
*_to_text (and export_dot) is the join of its generator.
"""

from array import array
from functools import partial
from itertools import islice, repeat

from .constructions import complete_bipartite, set_bipartite
from .errors import ParameterError, ValidationError
from .graphs import BipartiteGraph, Color, InducedCopyWitness, _resolve, pack_coloring
from .graphs import set_graph_arity
from .hypergraph import SubsetColoring, _rank_table
from .subsets import is_subset_count

_BLOCK = 1 << 16  # characters read at a time
_BATCH = 4096  # lines per chunk where there is no left to chunk by
_MAX_INDEX = (1 << 31) - 1  # vertex indices are 4-byte, as in array("i") columns and rows
_SECTIONS = ("host", "coloring", "pattern", "witness")


def _content_lines(source):
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


def graph_chunks(graph):
    """graph_to_text a chunk at a time: header, rlabel lines, each left's e lines."""
    yield f"bipartite {graph.left_count} {len(graph.right_labels)}\n"
    for batch in _batches(enumerate(graph.right_labels, 1)):
        yield "".join([
            f"rlabel {i} {_format_label(label)}\n" for i, label in batch if isinstance(label, tuple)
        ])
    rows, _ = graph.edge_rows()
    for left, row in enumerate(rows):
        if row:
            sep = f"\ne {left} "
            yield sep[1:] + sep.join(map(str, row)) + "\n"


def graph_to_text(graph):
    return "".join(graph_chunks(graph))


def graph_from_text(source):
    return _read_graph(_content_lines(source))[0]


def _read_graph(lines, sections=()):
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


# -- edge colorings ----------------------------------------------------


_LETTER = (" R", " B")  # by color bit


def coloring_chunks(coloring):
    """coloring_to_text a chunk at a time: each left's c lines."""
    graph = coloring.graph
    if not graph.edge_count:
        yield "\n"  # an edgeless coloring's text is one empty line
    rows, bits = graph.edge_rows(coloring.masks)
    for left, row in enumerate(rows):
        if row:
            sep = f"\nc {left} "
            lines = map(str.__add__, map(str, row), map(_LETTER.__getitem__, bits[left]))
            yield sep[1:] + sep.join(lines) + "\n"


def coloring_to_text(coloring):
    return "".join(coloring_chunks(coloring))


_BIT_OF_LETTER = {"R": 0, "B": 1}


def _read_coloring(lines, sections=()):
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


def coloring_from_text(source, graph):
    columns, _ = _read_coloring(_content_lines(source))
    return pack_coloring(graph, zip(*columns))  # validates totality


def infer_complete_host(source):
    """Reconstruct K_{n,k} from a total coloring file of a complete host."""
    (lefts, rights, _), _ = _read_coloring(_content_lines(source))
    return _complete_host(lefts, rights)


def complete_coloring_from_text(source):
    """The coloring of K_{n,k} in a total coloring file, parsed in one pass."""
    columns, _ = _read_coloring(_content_lines(source))
    return pack_coloring(_complete_host(*columns[:2]), zip(*columns))


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
    (lefts, _, _), _ = _read_coloring(_content_lines(source))
    return _set_host(lefts, k)


def set_coloring_from_text(source, k):
    """The coloring of B_{n,k} in a total coloring file, parsed in one pass."""
    columns, _ = _read_coloring(_content_lines(source))
    return pack_coloring(_set_host(columns[0], k), zip(*columns))


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
    for batch in _batches(sc.items()):
        yield "".join([f"sc {','.join(map(str, subset))} {value}\n" for subset, value in batch])


def subset_coloring_to_text(sc):
    return "".join(subset_coloring_chunks(sc))


def subset_coloring_from_text(source):
    lines = _content_lines(source)
    header = next(lines, "")
    if not header.startswith("subsetcoloring"):
        raise ValidationError("subset-coloring text must start with a 'subsetcoloring' header")
    fields = header.split()
    if len(fields) != 4:
        raise ValidationError(f"bad subset-coloring header {header!r}")
    n, arity, palette = (_int(x, "subset-coloring header field") for x in fields[1:])
    if max(n, arity) > _MAX_INDEX:  # C(n, arity) alone could take hours
        raise ValidationError(f"bad subset-coloring header {header!r}: past {_MAX_INDEX}")
    return SubsetColoring(n, arity, palette, _rank_table(n, arity, _subset_values(lines)))


def _subset_values(lines):
    for line in lines:
        parts = line.split()
        if len(parts) not in (2, 3) or parts[0] != "sc":  # the empty subset has no field
            raise ValidationError(f"unrecognized subset-coloring line {line!r}")
        yield _parse_subset(parts[1]) if len(parts) == 3 else (), _int(parts[-1], "subset value")


# -- homogeneous sets ----------------------------------------------------


def homogeneous_to_text(vertices, value):
    text = "homogeneous " + " ".join(str(v) for v in vertices) + "\n"
    return text + (f"value {value}\n" if value is not None else "")


def homogeneous_from_text(source):
    """(sorted members, palette value or None) from homogeneous-set text."""
    members = set()
    value = None
    for line in _content_lines(source):
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
    """certificate_to_text a chunk at a time."""
    yield "host\n"
    yield from graph_chunks(host)
    if coloring is not None:
        yield "coloring\n"
        yield from coloring_chunks(coloring)
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
    Each section's lines go straight to its parser; none is kept as text."""
    lines = _content_lines(source)
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
            sections[first], line = _read_coloring(lines, _SECTIONS)
        elif first == "witness":
            if len(parts) != 2 or parts[1] not in ("R", "B", "-"):
                raise ValidationError(f"bad witness section header {line!r}")
            claimed = None if parts[1] == "-" else Color.from_letter(parts[1])
            sections[first], line = _read_witness(lines)
        else:
            sections[first], line = _read_graph(lines, _SECTIONS)
    for required in ("host", "pattern", "witness"):
        if required not in sections:
            raise ValidationError(f"certificate is missing the {required!r} section")

    host, pattern, (lefts, rights) = sections["host"], sections["pattern"], sections["witness"]
    coloring = pack_coloring(host, zip(*sections["coloring"])) if "coloring" in sections else None
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
