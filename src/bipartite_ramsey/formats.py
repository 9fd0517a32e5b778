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
"""

from math import comb

from .constructions import complete_bipartite, set_bipartite
from .errors import ParameterError, ValidationError
from .graphs import BipartiteGraph, Color, InducedCopyWitness, pack_coloring, set_graph_arity
from .hypergraph import SubsetColoring, _rank_table


def _content_lines(text):
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


def _int(token, what):
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"bad {what} {token!r}: expected an integer")


def _parse_subset(token):
    try:
        return tuple(int(x) for x in token.split(","))
    except ValueError:
        raise ValidationError(f"bad subset token {token!r}")


def _format_label(label):
    if isinstance(label, tuple):
        return ",".join(map(str, label))
    return str(label)


# -- graphs ------------------------------------------------------------


def graph_to_text(graph):
    lines = [f"bipartite {graph.left_count} {len(graph.right_labels)}"]
    for idx, label in enumerate(graph.right_labels, 1):
        if isinstance(label, tuple):
            lines.append(f"rlabel {idx} {_format_label(label)}")
    for left, index, _ in graph.indexed_edges():
        lines.append(f"e {left} {index}")
    return "\n".join(lines) + "\n"


def graph_from_text(text):
    lines = list(_content_lines(text))
    return _parse_graph(lines)


def _parse_graph(lines):
    if not lines or not lines[0].startswith("bipartite"):
        raise ValidationError("graph text must start with a 'bipartite' header")
    header = lines[0].split()
    if len(header) != 3:
        raise ValidationError(f"bad graph header {lines[0]!r}")
    left_count, right_count = _int(header[1], "left count"), _int(header[2], "right count")
    if left_count < 0 or right_count < 0:
        raise ValidationError(f"bad graph header {lines[0]!r}: negative vertex count")
    labels = list(range(1, right_count + 1))
    neighborhoods = [[] for _ in labels]  # lefts per right, as read
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "rlabel" and len(parts) == 3:
            idx = _int(parts[1], "rlabel index")
            if not 1 <= idx <= right_count:
                raise ValidationError(f"rlabel index {idx} out of range")
            labels[idx - 1] = _parse_subset(parts[2])
        elif parts[0] == "e" and len(parts) == 3:
            left, idx = _int(parts[1], "left"), _int(parts[2], "right index")
            if not 1 <= idx <= right_count:
                raise ValidationError(f"edge right index {idx} out of range")
            neighborhoods[idx - 1].append(left)
        else:
            raise ValidationError(f"unrecognized graph line {line!r}")
    labels = tuple(labels)
    neighborhoods = tuple(tuple(sorted(set(lefts))) for lefts in neighborhoods)  # drop repeats
    k = set_graph_arity(left_count, labels, neighborhoods)
    if k:  # text that is exactly B_{n,k} reads as the lazy host
        return set_bipartite(left_count, k)
    return BipartiteGraph(left_count, labels, neighborhoods)


# -- edge colorings ----------------------------------------------------


def coloring_to_text(coloring):
    lines = [f"c {left} {index} {'RB'[bit]}" for left, index, bit in coloring.edge_bits()]
    return "\n".join(lines) + "\n"


_COLOR_OF_LETTER = {color.letter: color for color in Color}


def _coloring_lines(lines):
    """(left, right index, color) per content line of an edge coloring."""
    # Fields are converted inline, not through _int: files run to 10^5+ lines.
    for line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "c":
            raise ValidationError(f"unrecognized coloring line {line!r}")
        try:
            left, index, color = int(parts[1]), int(parts[2]), _COLOR_OF_LETTER[parts[3]]
        except (KeyError, ValueError):
            raise ValidationError(f"bad coloring line {line!r}: need integers and R or B")
        yield left, index, color


def coloring_from_text(text, graph):
    return pack_coloring(graph, _coloring_lines(_content_lines(text)))  # validates totality


def infer_complete_host(text):
    """Reconstruct K_{n,k} from a total coloring file of a complete host;
    the line count is checked before the host is built."""
    n = k = count = 0
    for left, index, _ in _coloring_lines(_content_lines(text)):
        n, k, count = max(n, left), max(k, index), count + 1
    if n < 1 or k < 1:
        raise ValidationError("coloring file contains no coloring lines")
    if count != n * k:
        raise ValidationError(
            f"coloring has {count} lines, a total coloring of K_({n},{k}) needs {n * k}"
        )
    return complete_bipartite(n, k)


def infer_set_host(text, k):
    """Reconstruct B_{n,k} from a total coloring file of a set-membership host."""
    return _set_host([left for left, _, _ in _coloring_lines(_content_lines(text))], k)


def set_coloring_from_text(text, k):
    """The coloring of B_{n,k} in a total coloring file, parsed in one pass."""
    colored = list(_coloring_lines(_content_lines(text)))
    return pack_coloring(_set_host([left for left, _, _ in colored], k), colored)


def _set_host(lefts, k):
    if k < 1:
        raise ParameterError(f"a set graph needs arity k >= 1, got {k}")
    n = max(lefts, default=0)
    if n < k:
        raise ValidationError(f"coloring file too small for a set graph of arity {k}")
    if len(lefts) != k * comb(n, k):
        raise ValidationError(
            f"coloring has {len(lefts)} lines, a total coloring of B_({n},{k}) "
            f"needs {k * comb(n, k)}"
        )
    return set_bipartite(n, k)


# -- subset colorings ---------------------------------------------------


def subset_coloring_to_text(sc):
    lines = [f"subsetcoloring {sc.n} {sc.arity} {sc.palette_size}"]
    for subset, value in sc.items():
        lines.append(f"sc {_format_label(subset)} {value}")
    return "\n".join(lines) + "\n"


def subset_coloring_from_text(text):
    lines = list(_content_lines(text))
    if not lines or not lines[0].startswith("subsetcoloring"):
        raise ValidationError("subset-coloring text must start with a 'subsetcoloring' header")
    header = lines[0].split()
    if len(header) != 4:
        raise ValidationError(f"bad subset-coloring header {lines[0]!r}")
    n, arity, palette = (_int(x, "subset-coloring header field") for x in header[1:])
    values = _rank_table(n, arity, _subset_values(lines[1:]), len(lines) - 1)
    return SubsetColoring(n, arity, palette, values)


def _subset_values(lines):
    for line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "sc":
            raise ValidationError(f"unrecognized subset-coloring line {line!r}")
        yield _parse_subset(parts[1]), _int(parts[2], "subset value")


# -- homogeneous sets ----------------------------------------------------


def homogeneous_to_text(vertices, value):
    text = "homogeneous " + " ".join(str(v) for v in vertices) + "\n"
    return text + (f"value {value}\n" if value is not None else "")


def homogeneous_from_text(text):
    """(sorted members, palette value or None) from homogeneous-set text."""
    members = set()
    value = None
    for line in _content_lines(text):
        tokens = line.replace(",", " ").split()
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


def certificate_to_text(host, witness, coloring=None):
    parts = ["host\n", graph_to_text(host)]
    if coloring is not None:
        parts.append("coloring\n")
        parts.append(coloring_to_text(coloring))
    parts.append("pattern\n")
    parts.append(graph_to_text(witness.pattern))
    claimed = witness.claimed_color.letter if witness.claimed_color is not None else "-"
    parts.append(f"witness {claimed}\n")
    for i, host_left in enumerate(witness.host_left, 1):
        parts.append(f"wleft {i} {host_left}\n")
    for j, label in enumerate(witness.host_right, 1):
        parts.append(f"wright {j} {_format_label(label)}\n")
    return "".join(parts)


def certificate_from_text(text):
    """Parse a certificate; returns (host, coloring_or_None, witness)."""
    sections = {}
    current = None
    claimed = None
    for line in _content_lines(text):
        first = line.split()[0]
        if first in ("host", "coloring", "pattern", "witness"):
            if first in sections:
                raise ValidationError(f"duplicate certificate section {first!r}")
            if first == "witness":
                parts = line.split()
                if len(parts) != 2 or parts[1] not in ("R", "B", "-"):
                    raise ValidationError(f"bad witness section header {line!r}")
                claimed = None if parts[1] == "-" else Color.from_letter(parts[1])
            current = first
            sections[current] = []
            continue
        if current is None:
            raise ValidationError(f"certificate line {line!r} outside any section")
        sections[current].append(line)
    for required in ("host", "pattern", "witness"):
        if required not in sections:
            raise ValidationError(f"certificate is missing the {required!r} section")

    host = _parse_graph(sections["host"])
    pattern = _parse_graph(sections["pattern"])
    coloring = None
    if "coloring" in sections:
        coloring = pack_coloring(host, _coloring_lines(sections["coloring"]))

    lefts = {}
    rights = {}
    for line in sections["witness"]:
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("wleft", "wright"):
            raise ValidationError(f"unrecognized witness line {line!r}")
        index = _int(parts[1], "witness index")
        if parts[0] == "wleft":
            if index in lefts:
                raise ValidationError(f"duplicate wleft {index}")
            lefts[index] = _int(parts[2], "witness left")
        else:
            if index in rights:
                raise ValidationError(f"duplicate wright {index}")
            token = parts[2]
            rights[index] = _parse_subset(token) if "," in token else _int(token, "witness right")
    if sorted(lefts) != list(range(1, pattern.left_count + 1)):
        raise ValidationError("wleft lines must cover pattern lefts 1..c exactly")
    if sorted(rights) != list(range(1, len(pattern.right_labels) + 1)):
        raise ValidationError("wright lines must cover pattern rights 1..d exactly")

    host_right = []
    for j in range(1, len(pattern.right_labels) + 1):
        label = rights[j]
        # A single int names an opaque label; resolve it against subset-labeled
        # hosts as a 1-element subset if needed.
        if isinstance(label, int) and not host.has_right_label(label):
            if host.has_right_label((label,)):
                label = (label,)
        host_right.append(label)
    witness = InducedCopyWitness(
        pattern=pattern,
        host_left=tuple(lefts[i] for i in range(1, pattern.left_count + 1)),
        host_right=tuple(host_right),
        claimed_color=claimed,
    )
    return host, coloring, witness


# -- DOT rendering -------------------------------------------------------


_DOT_COLOR = {Color.RED: "red", Color.BLUE: "blue", None: "black"}


def export_dot(graph, coloring=None, witness=None):
    """Graphviz text for a bipartite graph in the two-column style:
    lefts in one rank, rights in another, edges red/blue when colored
    and black otherwise, witness vertices and edges drawn bold."""
    marked_lefts, marked_rights = set(), set()  # rights by 1-based index
    if witness is not None:
        for left in witness.host_left:
            if not (isinstance(left, int) and 1 <= left <= graph.left_count):
                raise ValidationError(f"witness references unknown left {left!r}")
        marked_lefts = set(witness.host_left)
        marked_rights = {graph.right_index(label) for label in witness.host_right}
    if coloring is None:
        edges = ((left, index, None) for left, index, _ in graph.indexed_edges())
    elif coloring.graph is graph or coloring.graph == graph:
        edges = coloring.edge_bits()
    else:
        raise ValidationError("coloring refers to a different graph")

    lines = ["graph bipartite {", "  rankdir=LR;", "  node [shape=circle];"]
    # Left x is node Lx labelled x; the right at 1-based index i is node Ri.
    sides = (("L", graph.lefts, marked_lefts), ("R", graph.right_labels, marked_rights))
    for side, labels, marked in sides:
        if labels:
            lines.append("  { rank=same;")
            for i, label in enumerate(labels, 1):
                style = " style=bold penwidth=2" if i in marked else ""
                lines.append(f'    {side}{i} [label="{_format_label(label)}"{style}];')
            lines.append("  }")
    for left, index, bit in edges:
        attrs = [f"color={_DOT_COLOR[bit]}"]
        if left in marked_lefts and index in marked_rights:
            attrs.append("penwidth=2")
        lines.append(f'  L{left} -- R{index} [{" ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- small file helpers --------------------------------------------------


def save_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()
