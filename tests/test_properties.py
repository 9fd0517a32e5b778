"""Properties of the text formats, on random objects and random texts.

Every reader takes a str or an open file, and a file is read in blocks:
both must give the same value, or raise the same exception type, for
any text, including lines cut by a block boundary and every line break
str.splitlines knows.  Every writer's text reads back as what it wrote.

Every pipeline witness also passes a second checker, text_verdict, that
reads only the certificate text and shares no code with the package.
"""

import io
import os
import random
import resource
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bipartite_ramsey import (  # noqa: E402
    BLUE,
    RED,
    EdgeColoring,
    InducedCopyWitness,
    ParameterError,
    SubsetColoring,
    ValidationError,
    coloring_from_map,
    complete_bipartite,
    derive_coloring,
    encode_derived,
    find_induced_mono_pattern,
    find_induced_monochromatic,
    majority_positions,
    make_graph,
    random_coloring,
    set_bipartite,
    verify_witness,
)
from bipartite_ramsey import formats  # noqa: E402
from bipartite_ramsey.cli import main  # noqa: E402
from bipartite_ramsey.subsets import capped_comb  # noqa: E402
from conftest import position_rule_coloring  # noqa: E402

# Example counts come from the Hypothesis profile: 100 by default, more
# under the "deep" profile that tests/conftest.py registers.
SETTINGS = hypothesis.settings(deadline=None)
CLI_SETTINGS = hypothesis.settings(
    deadline=None, max_examples=hypothesis.settings.default.max_examples // 4
)
BREAKS = ["\n", "\r\n", "\r", "\f", "\x1c", " ", "\n\n", "\n  # a comment\n", "\n \t \n"]


@st.composite
def graphs(draw):
    left_count = draw(st.integers(0, 5))
    if left_count and draw(st.booleans()):
        k = draw(st.integers(1, left_count))
        if draw(st.booleans()):
            return set_bipartite(left_count, k)
        subsets = list(combinations(range(1, left_count + 1), k))
        labels = sorted(draw(st.lists(st.sampled_from(subsets), max_size=6, unique=True)))
    else:  # the text names an opaque right by its index, so its label is that index
        labels = list(range(1, draw(st.integers(0, 5)) + 1))
    pairs = [(x, y) for x in range(1, left_count + 1) for y in labels]
    return make_graph(left_count, labels, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


def colorings(draw, graph):
    return random_coloring(graph, random.Random(draw(st.integers(0, 99))))


@st.composite
def subset_colorings(draw):
    arity = draw(st.integers(0, 3))
    n = draw(st.integers(arity, 6))
    palette = draw(st.integers(1, 300))
    size = comb(n, arity)
    return SubsetColoring(
        n, arity, palette, draw(st.lists(st.integers(1, palette), min_size=size, max_size=size))
    )


@st.composite
def certificates(draw):
    host = draw(graphs())
    pattern = draw(graphs())
    hypothesis.assume(
        pattern.left_count <= host.left_count and pattern.right_count <= host.right_count
    )
    rng = random.Random(draw(st.integers(0, 99)))
    witness = InducedCopyWitness(
        pattern,
        rng.sample(range(1, host.left_count + 1), pattern.left_count),
        rng.sample(list(host.right_labels), pattern.right_count),
        draw(st.sampled_from([None, RED, BLUE])),
    )
    coloring = colorings(draw, host) if draw(st.booleans()) else None
    return host, coloring, witness


@st.composite
def texts(draw):
    """A writer's text, or a mangled one: lines joined by any line break,
    padded, commented, dropped, repeated or replaced by junk."""
    kind = draw(st.sampled_from(["graph", "coloring", "subsets", "homogeneous", "certificate"]))
    if kind == "graph":
        text = formats.graph_to_text(draw(graphs()))
    elif kind == "coloring":
        text = formats.coloring_to_text(colorings(draw, draw(graphs())))
    elif kind == "subsets":
        text = formats.subset_coloring_to_text(draw(subset_colorings()))
    elif kind == "homogeneous":
        members = draw(st.lists(st.integers(-2, 9), max_size=5))
        text = formats.homogeneous_to_text(members, draw(st.none() | st.integers(0, 9)))
    else:
        host, coloring, witness = draw(certificates())
        text = formats.certificate_to_text(host, witness, coloring)
    lines = text.splitlines()
    junk = st.sampled_from(["", ",", "#", "c 1 1", "e 1 x", "host", "witness R", "sc 1 1",
                            "value 2", "bipartite 1 1", "c 0 5 R", "rlabel 1 1,1", "é 3"])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["junk", "drop", "repeat", "pad"]))
        if action == "junk":
            lines.insert(at, draw(junk))
        elif lines and at < len(lines):
            if action == "drop":
                del lines[at]
            elif action == "repeat":
                lines.insert(at, lines[at])
            else:
                lines[at] = f"  {lines[at]}\t"
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + sep for line, sep in zip(lines, breaks))


READERS = {
    "graph": formats.graph_from_text,
    "coloring of K_{2,2}": lambda src: formats.coloring_from_text(src, complete_bipartite(2, 2)),
    "complete host": formats.infer_complete_host,
    "complete coloring": formats.complete_coloring_from_text,
    "set coloring": lambda src: formats.set_coloring_from_text(src, 2),
    "subset coloring": formats.subset_coloring_from_text,
    "homogeneous": formats.homogeneous_from_text,
    "certificate": formats.certificate_from_text,
}


@contextmanager
def block_size(size):
    saved, formats._BLOCK = formats._BLOCK, size
    try:
        yield
    finally:
        formats._BLOCK = saved


def outcome(read, source):
    try:
        return read(source)
    except (ValidationError, ParameterError) as exc:
        return type(exc)


@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    return tmp_path_factory.mktemp("formats") / "input.txt"


def test_str_and_file_readers_agree(text_file):
    @SETTINGS
    @hypothesis.given(texts(), st.sampled_from([1, 2, 3, 7, 64, 1 << 16]))
    def check(text, block):
        text_file.write_bytes(text.encode("utf-8"))
        for name, read in READERS.items():
            expected = outcome(read, text)
            with block_size(block):
                assert outcome(read, text) == expected, name
                for newline in (None, ""):  # as rw opens it, and untranslated
                    with open(text_file, encoding="utf-8", newline=newline) as fh:
                        assert outcome(read, fh) == expected, (name, newline)

    check()


def test_a_line_cut_by_the_block_boundary(text_file):
    graph = set_bipartite(9, 4)
    text = formats.graph_to_text(graph)
    for cut in (formats._BLOCK - 1, formats._BLOCK, formats._BLOCK + 1):
        # pad so that a line, and then a "\r\n" pair, straddles the boundary
        head = "# " + "x" * (cut - 4) + "\r\n"
        for padded in (head + text, head[:-1] + text.replace("\n", "\r\n")):
            text_file.write_bytes(padded.encode("utf-8"))
            assert len(padded) > formats._BLOCK
            with open(text_file, encoding="utf-8", newline="") as fh:
                assert formats.graph_from_text(fh) == graph
            assert formats.graph_from_text(padded) == graph


@SETTINGS
@hypothesis.given(st.data())
def test_writers_read_back(data):
    graph = data.draw(graphs())
    empty_label = make_graph(2, [(), (1, 2)], [(1, (1, 2))])  # an rlabel line with no subset
    for g in (graph, empty_label):
        assert formats.graph_from_text(formats.graph_to_text(g)) == g
    coloring = colorings(data.draw, graph)
    assert formats.coloring_from_text(formats.coloring_to_text(coloring), graph) == coloring
    sc = data.draw(subset_colorings())
    assert formats.subset_coloring_from_text(formats.subset_coloring_to_text(sc)) == sc
    host, coloring, witness = data.draw(certificates())
    text = formats.certificate_to_text(host, witness, coloring)
    assert formats.certificate_from_text(text) == (host, coloring, witness)
    assert "".join(formats.certificate_chunks(host, witness, coloring)) == text


def test_a_witness_right_labelled_by_the_empty_subset_reads_back(tmp_path):
    host = make_graph(2, [(), (1, 2)], [(1, (1, 2))])
    witness = InducedCopyWitness(make_graph(1, [1, 2], [(1, 2)]), (1,), ((), (1, 2)), RED)
    coloring = EdgeColoring(host, [0, 0])  # all RED
    text = formats.certificate_to_text(host, witness, coloring)
    assert "wright 1 \n" in text  # the empty subset has no field
    assert formats.certificate_from_text(text) == (host, coloring, witness)
    assert text_verdict(text) is verify_witness(host, witness, coloring) is True
    cert = tmp_path / "cert.txt"
    cert.write_text(text)
    assert main(["verify", str(cert)]) == 0


INPUT = "<the input file>"  # stands for the random file in every reading command
READING_COMMANDS = [
    ["params", INPUT],
    ["embed", INPUT],
    ["dot", INPUT, "--coloring", INPUT],
    ["dot", INPUT, "--certificate", INPUT],
    ["extract-complete", INPUT, "--a", "1", "--b", "1"],
    ["derive-coloring", INPUT, "--b", "2"],
    ["find-homogeneous", INPUT, "--s", "3"],
    ["extract-induced", INPUT, "--a", "1", "--b", "2", "--homogeneous", INPUT],
    ["find-induced", INPUT, INPUT],
    ["verify", INPUT],
]


def test_rw_on_random_file_contents_exits_0_to_3(text_file):
    """No file content makes a reading command raise: rw answers it with
    an exit code, 3 for malformed input."""

    @CLI_SETTINGS
    @hypothesis.given(
        st.binary(max_size=300) | st.text(max_size=300).map(str.encode)
        | texts().map(str.encode)
    )
    def check(content):
        text_file.write_bytes(content)
        path = str(text_file)
        for command in READING_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([path if arg == INPUT else arg for arg in command])
            assert code in (0, 1, 2, 3), (command, err.getvalue())

    check()


# Each format's header words, the words that begin its other lines, and
# each word's field count.  Fields are the ints 0..9, commas, letters, and
# counts far past the 4-byte index bound only.  A legal count too large for
# memory must never be drawn; were the bound's check to go, these would
# fail to allocate at once rather than fill the memory.
FORMAT_WORDS = {
    "graph": (["bipartite"], ["rlabel", "e"]),
    "coloring": ([], ["c"]),
    "subsets": (["subsetcoloring"], ["sc"]),
    "homogeneous": ([], ["homogeneous", "value"]),
    "certificate": (["host", "bipartite"], ["e", "rlabel", "coloring", "c", "pattern",
                                            "bipartite", "witness", "wleft", "wright"]),
}
FIELDS = {"bipartite": 2, "rlabel": 2, "e": 2, "c": 3, "subsetcoloring": 3, "sc": 2,
          "homogeneous": 3, "value": 1, "host": 0, "coloring": 0, "pattern": 0,
          "witness": 1, "wleft": 2, "wright": 2}
FIELD = (st.sampled_from(["99999999999", str(1 << 64)]) | st.integers(0, 9).map(str)
         | st.sampled_from(["R", "B", "-", ","])
         | st.lists(st.integers(0, 9).map(str), min_size=1, max_size=3).map(",".join))
WORD_READERS = {**READERS, "set host": lambda src: formats.infer_set_host(src, 2)}


@st.composite
def word_texts(draw):
    """A format's header with its field counts, then lines of its words,
    each with one field more or less than its count, or just that count."""
    header, words = FORMAT_WORDS[draw(st.sampled_from(sorted(FORMAT_WORDS)))]
    lines = header + draw(st.lists(st.sampled_from(words), max_size=6))
    counts = [max(0, FIELDS[word] + (i >= len(header) and draw(st.integers(-1, 1))))
              for i, word in enumerate(lines)]
    return "".join(" ".join([word, *draw(st.lists(FIELD, min_size=n, max_size=n))]) + "\n"
                   for word, n in zip(lines, counts))


@SETTINGS
@hypothesis.given(word_texts())
def test_readers_take_any_text_of_words(text):
    """Every reader returns or refuses a text of its own words with
    ValidationError or ParameterError, never another exception."""
    for read in WORD_READERS.values():
        outcome(read, text)  # anything else propagates and fails the test


def test_homogeneous_sets_read_back(text_file):
    @SETTINGS
    @hypothesis.given(st.lists(st.integers(-9, 1 << 40)), st.none() | st.integers(0, 1 << 40))
    def check(members, value):
        text = formats.homogeneous_to_text(members, value)
        expected = (sorted(set(members)), value)
        assert formats.homogeneous_from_text(text) == expected
        text_file.write_text(text, encoding="utf-8")
        with open(text_file, encoding="utf-8") as fh:
            assert formats.homogeneous_from_text(fh) == expected

    check()


@pytest.mark.xfail(strict=True, reason="graph text names an opaque right by its index alone")
def test_opaque_labels_other_than_the_index_read_back():
    graph = make_graph(1, (2, 5), [(1, 5)])
    assert formats.graph_from_text(formats.graph_to_text(graph)) == graph


# -- a second checker that reads only the certificate text ---------------------


def text_verdict(text):
    """Check a witness certificate from its text alone, with set membership
    and none of the package's code: True iff each mapped (left, right) pair
    is a host edge exactly when it is a pattern edge and, when the witness
    claims a color and the text colors the host, every such edge has it.
    ValueError or KeyError for a certificate that is not well formed."""
    graphs, colors, wleft, wright, section, claim = {}, {}, {}, {}, None, None
    for line in text.splitlines():
        f = line.split()
        if not f or f[0].startswith("#"):
            continue
        if f[0] in ("host", "coloring", "pattern"):
            section = f[0]
        elif f[0] == "witness":
            claim = f[1]
        elif f[0] == "bipartite":  # lefts, right index -> label text, edges
            graphs[section] = (int(f[1]), {i: str(i) for i in range(1, int(f[2]) + 1)}, set())
        elif f[0] == "rlabel":
            graphs[section][1][int(f[1])] = f[2] if len(f) == 3 else ""
        elif f[0] == "e":
            graphs[section][2].add((int(f[1]), int(f[2])))
        elif f[0] == "c":
            colors[int(f[1]), int(f[2])] = f[3]
        elif f[0] in ("wleft", "wright"):
            (wleft if f[0] == "wleft" else wright)[int(f[1])] = f[2] if len(f) == 3 else ""
        else:
            raise ValueError(f"not a certificate line: {line!r}")
    n, host_labels, host_edges = graphs["host"]
    c, pattern_labels, pattern_edges = graphs["pattern"]
    index = {label: i for i, label in host_labels.items()}
    if len(index) != len(host_labels):
        raise ValueError("two host rights share a label text")
    lefts = {i: int(x) for i, x in wleft.items()}
    rights = {j: index[label] for j, label in wright.items()}
    if sorted(lefts) != list(range(1, c + 1)) or sorted(rights) != sorted(pattern_labels):
        raise ValueError("the witness does not map the pattern")
    if len(set(lefts.values())) < c or len(set(rights.values())) < len(rights):
        raise ValueError("the witness is not injective")
    if not all(1 <= x <= n for x in lefts.values()):
        raise ValueError("the witness names a left outside the host")
    for i, x in lefts.items():
        for j, y in rights.items():
            edge = (x, y) in host_edges
            if edge != ((i, j) in pattern_edges):
                return False
            if edge and colors and claim in ("R", "B") and colors[x, y] != claim:
                return False
    return True


def test_text_checker_accepts_the_golden_certificates():
    golden = sorted((Path(__file__).parent / "golden").glob("*.cert.txt"))
    assert len(golden) == 2
    for path in golden:
        text = path.read_text(encoding="utf-8")
        assert text_verdict(text) is True
        claim = next(line for line in text.splitlines() if line.startswith("witness "))
        flipped = "witness " + {"R": "B", "B": "R"}[claim[-1]]
        assert text_verdict(text.replace(claim, flipped)) is False


def test_text_checker_agrees_with_rw_verify_on_the_rw_tests_certificates(tmp_path, capsys):
    """Each certificate that tests/test_cli.py has rw write, valid or
    tampered, gets the verdict rw verify gives it."""
    import test_cli

    pattern = test_cli.write(tmp_path / "pattern.txt", "bipartite 1 1\ne 1 1\n")
    runs = {
        "embed": lambda d: test_cli.test_embed_and_verify(d, pattern),
        "extract-complete": test_cli.test_extract_complete_and_verify,
        "tampered": test_cli.test_verify_rejects_tampered_certificate,
        "extract-induced": lambda d: test_cli.test_derive_find_extract_chain(d, capsys),
        "find-induced": lambda d: test_cli.test_find_induced_pipeline(d, pattern),
        "dot": lambda d: test_cli.test_input_error_writes_no_output(d, capsys),
    }
    verdicts = []
    for name, run in runs.items():
        (tmp_path / name).mkdir()
        run(tmp_path / name)
        for path in sorted((tmp_path / name).glob("*.txt")):
            text = path.read_text(encoding="utf-8")
            if text.startswith("host\n"):
                code = main(["verify", str(path)])
                assert code in (0, 1) and text_verdict(text) is (code == 0), path
                verdicts.append(code == 0)
    assert verdicts.count(True) == 6 and verdicts.count(False) == 1


@st.composite
def pipeline_cases(draw, k):
    """A pattern for the pipeline on B_{n,k} (c = (k-1)/2 lefts) and a
    coloring of B_{n,k}, n >= s: position_rule_coloring's, the same rule
    planted on a random s-set only, or random_coloring's."""
    b = (k + 1) // 2
    c, d = b - 1, draw(st.integers(1, 3 if k == 3 else 1))
    pairs = [(i, j) for i in range(1, c + 1) for j in range(1, d + 1)]
    pattern = make_graph(c, range(1, d + 1), draw(st.sets(st.sampled_from(pairs))))
    s = (2 * c + d) * b + b - 1
    host = set_bipartite(draw(st.integers(s, s + 2 if k == 3 else s)), k)
    rng = random.Random(draw(st.integers(0, 999)))
    kind = draw(st.sampled_from(["planted", "planted on an s-set", "random"]))
    random_masks = random_coloring(host, rng).masks
    if kind == "random":
        return pattern, EdgeColoring(host, random_masks), False
    color = draw(st.sampled_from([RED, BLUE]))
    positions = draw(st.sampled_from(list(combinations(range(1, k + 1), b))))
    rule = position_rule_coloring(host, color, positions)
    if kind == "planted":
        return pattern, rule, True
    planted = set(rng.sample(host.lefts, s))
    masks = [rule.masks[r] if planted.issuperset(X) else random_masks[r]
             for r, X in enumerate(host.right_labels)]
    return pattern, EdgeColoring(host, masks), True


def both_checkers(host, witness, coloring):
    """The verdicts of verify_witness and of text_verdict on a witness."""
    text = formats.certificate_to_text(host, witness, coloring)
    return verify_witness(host, witness, coloring), text_verdict(text)


@hypothesis.settings(deadline=None, max_examples=hypothesis.settings.default.max_examples // 4)
@hypothesis.given(pipeline_cases(3))
def test_pipeline_witnesses_pass_both_checkers_and_the_oracle_agrees_on_b_n3(case):
    pattern, coloring, planted = case
    host = coloring.graph
    witness = find_induced_mono_pattern(pattern, coloring)
    assert witness is not None or not planted  # a planted s-set is homogeneous
    if witness is not None:
        assert both_checkers(host, witness, coloring) == (True, True)
        if pattern.edge_count:  # the other color is a false claim
            other = BLUE if witness.claimed_color is RED else RED
            false_claim = InducedCopyWitness(pattern, witness.host_left, witness.host_right, other)
            assert both_checkers(host, false_claim, coloring) == (False, False)
        oracle = find_induced_monochromatic(host, coloring, pattern)
        assert oracle is not None and both_checkers(host, oracle, coloring) == (True, True)


@hypothesis.settings(deadline=None, max_examples=hypothesis.settings.default.max_examples // 50)
@hypothesis.given(pipeline_cases(5))
def test_pipeline_witnesses_pass_both_checkers_on_b_n5(case):
    pattern, coloring, planted = case
    witness = find_induced_mono_pattern(pattern, coloring)
    assert witness is not None or not planted
    if witness is not None:
        assert both_checkers(coloring.graph, witness, coloring) == (True, True)


@st.composite
def packer_cases(draw):
    """A host and a plain dict coloring each of its edges: a random generic
    graph (int or subset labels, rights of degree 0 and above 8), K_{n,k},
    or B_{n,k} lazy or explicit, k odd and so a derive_coloring host."""
    kind = draw(st.sampled_from(["generic", "complete", "lazy set", "explicit set"]))
    if kind == "generic":
        left_count = draw(st.integers(1, 12))
        if draw(st.booleans()):
            labels = draw(st.lists(st.integers(-5, 30), min_size=1, max_size=6, unique=True))
        else:
            subsets = st.lists(st.integers(1, left_count), min_size=1, max_size=3, unique=True)
            labels = draw(st.lists(subsets.map(lambda X: tuple(sorted(X))), min_size=1,
                                   max_size=6, unique=True))
        density = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))
        rng = random.Random(draw(st.integers(0, 999)))
        pairs = [(x, y) for x in range(1, left_count + 1) for y in labels if rng.random() < density]
        host = make_graph(left_count, labels, pairs)
    elif kind == "complete":
        host = complete_bipartite(draw(st.integers(1, 10)), draw(st.integers(1, 5)))
    else:
        k = draw(st.sampled_from([1, 3, 5]))
        n = draw(st.integers(k, 9 if k == 5 else 7))
        host = set_bipartite(n, k)
        if kind == "explicit set":
            host = make_graph(n, host.right_labels, [(x, X) for X in host.right_labels for x in X])
    rng = random.Random(draw(st.integers(0, 999)))
    edges = [(x, label) for label, lefts in zip(host.right_labels, host.neighborhoods)
             for x in lefts]
    return host, {edge: rng.choice((RED, BLUE)) for edge in edges}, rng


@SETTINGS
@hypothesis.given(packer_cases())
def test_packed_colorings_agree_with_a_plain_edge_dict(case):
    host, colors, rng = case
    index = {label: r for r, label in enumerate(host.right_labels, 1)}
    lines = [f"c {x} {index[label]} {'RB'[color]}\n" for (x, label), color in colors.items()]
    rng.shuffle(lines)
    from_map = coloring_from_map(host, colors)
    colorings = [
        from_map,
        formats.coloring_from_text(formats.coloring_to_text(from_map), host),
        formats.coloring_from_text("".join(lines), host),  # the dict's own text
    ]
    for coloring in colorings:
        for (x, label), color in colors.items():
            assert coloring.color_of(x, label) is color
        rows, bits = host.edge_rows(coloring.masks)
        assert [(x, r, bit) for x, row in enumerate(rows) for r, bit in zip(row, bits[x])] == [
            (x, index[label], color) for (x, label), color in sorted(
                colors.items(), key=lambda item: (item[0][0], index[item[0][1]]))
        ]
    k = host.membership_arity
    if k and k % 2:  # B_{n,2b-1}: the derived colorings agree with the dict's majorities
        b = (k + 1) // 2
        expected = [encode_derived(majority_positions([colors[(x, X)] for x in X], b), b)
                    for X in host.right_labels]
        for coloring in colorings:
            assert list(derive_coloring(coloring, b).values) == expected


# -- refusals cost what the input costs -----------------------------------------

MAX_INDEX = 2**31 - 1  # the largest count a file may name
NUMBERS = st.integers(0, MAX_INDEX)
# Each run ends with an exit code 0-3 and no traceback within REFUSAL_S
# seconds.  On a 2-core x86-64 container the slowest of 500 runs took
# 0.1 s, Python's start-up included (0.06 s on average); the bound leaves
# twenty times that for CI's slowest matrix entry, and is still below the
# 1 s to minutes these refusals used to take.
REFUSAL_S = 2
SRC = str(Path(__file__).resolve().parent.parent / "src")


@st.composite
def subset_coloring_runs(draw):
    """rw find-homogeneous on a header of any shape and up to two lines,
    each naming a run of consecutive vertices."""
    n = draw(NUMBERS)
    arity = draw(st.integers(0, n))
    palette = draw(st.integers(1, MAX_INDEX))
    lines = [f"subsetcoloring {n} {arity} {palette}\n"]
    for _ in range(draw(st.integers(0, 2))):
        size = min(arity, draw(st.integers(0, 20_000)))
        first = draw(st.integers(1, max(1, n - size + 1)))
        vertices = ",".join(map(str, range(first, first + size)))
        lines.append(f"sc {vertices} {draw(st.integers(1, palette))}\n")
    s = str(draw(st.integers(0, 9)))
    return ["find-homogeneous", "sc.txt", "--s", s], {"sc.txt": "".join(lines)}


@st.composite
def ramsey_runs(draw):
    options = [str(draw(NUMBERS)), str(draw(st.integers(1, MAX_INDEX)))]
    options += [str(draw(NUMBERS)), str(draw(NUMBERS))]
    names = ["--arity", "--palette", "--size", "--max-n"]
    return ["ramsey-number", *(word for pair in zip(names, options) for word in pair)], {}


@st.composite
def coloring_runs(draw):
    """A reading command on up to three c lines and, for extract-induced,
    a homogeneous set, with every number and option drawn up to MAX_INDEX."""
    lines = draw(st.lists(st.tuples(NUMBERS, NUMBERS, st.sampled_from("RB")), max_size=3))
    a, b = str(draw(NUMBERS)), str(draw(NUMBERS))
    command = draw(st.sampled_from([
        ["derive-coloring", "c.txt", "--b", b],
        ["extract-complete", "c.txt", "--a", a, "--b", b],
        ["extract-induced", "c.txt", "--a", a, "--b", b, "--homogeneous", "h.txt"],
    ]))
    members = draw(st.lists(NUMBERS, max_size=4))
    return command, {
        "c.txt": "".join(f"c {x} {y} {color}\n" for x, y, color in lines),
        "h.txt": formats.homogeneous_to_text(members, draw(st.none() | NUMBERS)),
    }


@st.composite
def params_runs(draw):
    """rw params on a pattern of up to MAX_INDEX lefts (the palette passes
    str()'s 4,300 digits from about 7,200) and one to three rights and up
    to three edges.  Many rights stay out: the graph reader still builds a
    list per right from the header's count."""
    lefts, rights = draw(NUMBERS | st.integers(6_000, 10_000)), draw(st.integers(1, 3))
    edges = draw(st.lists(st.tuples(st.integers(1, max(1, lefts)), st.integers(1, rights)),
                          max_size=3))
    text = f"bipartite {lefts} {rights}\n" + "".join(f"e {x} {y}\n" for x, y in edges)
    return ["params", "p.txt"], {"p.txt": text}


# A host that fits the header limit is written whole, however long its text
# (B_{33,16} has 1.2 * 10^9 rights), so the embed and build draws are either
# past the limit, to be refused, or small enough to be written at once.
SMALL_HOST = 10_000  # most edges of a host the draws below let rw write


@st.composite
def embed_runs(draw):
    """rw embed on a pattern of c lefts and one to three rights: its host
    B_{2c+d,c+1} has more than MAX_INDEX rights from c = 17, and at most
    45,045 edges up to c = 6."""
    lefts, rights = draw(st.integers(1, 6) | st.integers(17, MAX_INDEX)), draw(st.integers(1, 3))
    edges = draw(st.lists(st.tuples(st.integers(1, lefts), st.integers(1, rights)), max_size=3))
    text = f"bipartite {lefts} {rights}\n" + "".join(f"e {x} {y}\n" for x, y in edges)
    return ["embed", "p.txt", "-o", "cert.txt"], {"p.txt": text, "cert.txt": ""}


@st.composite
def build_runs(draw):
    """rw build of a host past the header limit, or of at most SMALL_HOST edges."""
    kind = draw(st.sampled_from(["complete", "setgraph"]))
    n, k = draw(st.integers(-1, 2**40)), draw(st.integers(-1, 2**40))
    edges = n * k if kind == "complete" else k * capped_comb(n, k, SMALL_HOST + 1)
    past = max(n, k if kind == "complete" else capped_comb(n, k, MAX_INDEX + 1)) > MAX_INDEX
    hypothesis.assume(past or edges <= SMALL_HOST)
    return ["build", kind, "--n", str(n), "--k", str(k), "-o", "g.txt"], {"g.txt": ""}


HUGE_K = "bipartite 2147483647 2\ne 1 1\ne 1 2\n"  # K_{2^31-1,2}'s first left: no host is built


def test_huge_numbers_end_in_an_exit_code_at_once(tmp_path_factory):
    """ROADMAP item 9: a few bytes of input cost a refusal no more than
    their own size.  Each run is a fresh rw process of at most 1 GiB, so
    a run that would fill the memory fails at once, and one that hangs
    is stopped.  A budget of 10^4 keeps every enumeration it allows short,
    so only a refusal could be slow."""
    folder = tmp_path_factory.mktemp("refusals")
    env = {**os.environ, "RW_BUDGET": "10000",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

    def one_gib():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    @hypothesis.settings(deadline=None, max_examples=hypothesis.settings.default.max_examples // 2)
    @hypothesis.given(subset_coloring_runs() | ramsey_runs() | coloring_runs() | params_runs()
                      | embed_runs() | build_runs())
    @hypothesis.example((["params", "p.txt"], {"p.txt": HUGE_K}))  # K's lefts 1 of 2^31 - 1
    @hypothesis.example((["verify", "c.txt"], {"c.txt": f"host\n{HUGE_K}pattern\nbipartite 1 1\n"
                                                         "witness -\nwleft 1 1\nwright 1 1\n"}))
    def check(run):
        argv, files = run
        for name, text in files.items():
            (folder / name).write_text(text, encoding="utf-8")
        argv = [str(folder / word) if word in files else word for word in argv]
        proc = subprocess.run([sys.executable, "-m", "bipartite_ramsey.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=REFUSAL_S,
                              preexec_fn=one_gib)
        assert proc.returncode in (0, 1, 2, 3), (argv, proc.stderr[-500:])
        assert "Traceback" not in proc.stderr, (argv, proc.stderr[-500:])

    check()
