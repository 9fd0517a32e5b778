"""The rw command line: subcommands, files, exit codes."""

import os
import random
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from bipartite_ramsey import (
    RED,
    ParameterError,
    InducedCopyWitness,
    SubsetColoring,
    complete_bipartite,
    constant_coloring,
    random_coloring,
    set_bipartite,
)
from bipartite_ramsey import formats
from bipartite_ramsey.cli import _check_host, main
from bipartite_ramsey.formats import (
    certificate_from_text,
    certificate_to_text,
    coloring_to_text,
    graph_to_text,
    subset_coloring_from_text,
    subset_coloring_to_text,
)
from conftest import position_rule_coloring


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def single_edge_pattern(tmp_path):
    return write(tmp_path / "pattern.txt", "bipartite 1 1\ne 1 1\n")


def test_build_complete(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["build", "complete", "--n", "3", "--k", "3", "-o", str(out)]) == 0
    assert out.read_text() == graph_to_text(complete_bipartite(3, 3))


def test_build_setgraph_stdout(capsys):
    assert main(["build", "setgraph", "--n", "4", "--k", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "bipartite 4 6"
    assert "rlabel 1 1,2" in captured.out


def test_build_bad_parameters(capsys):
    assert main(["build", "setgraph", "--n", "2", "--k", "5"]) == 3


def test_the_host_limit_is_the_readers_header_limit():
    _check_host("a host", formats._MAX_INDEX, formats._MAX_INDEX)  # what a header may name
    for lefts, rights in ((formats._MAX_INDEX + 1, 0), (0, formats._MAX_INDEX + 1)):
        with pytest.raises(ParameterError):
            _check_host("a host", lefts, rights)


@pytest.mark.parametrize("argv", [
    ["build", "setgraph", "--n", "40", "--k", "20"],  # C(40, 20) rights
    ["build", "setgraph", "--n", "2147483647", "--k", "2"],
    ["build", "complete", "--n", "3000000000", "--k", "1"],
    ["build", "complete", "--n", "1", "--k", "3000000000"],
    ["embed", "bipartite 20 1\ne 1 1\n"],  # into B_{41,21}
    ["embed", "bipartite 2147483647 1\ne 1 1\n"],  # into B_{2^32 - 1, 2^31}
])
def test_a_host_past_the_header_limit_is_refused_before_it_is_built(argv, tmp_path):
    """In a process of its own, stopped after 10 s: a host that is not
    refused is written whole, for hours."""
    if argv[0] == "embed":
        argv = ["embed", write(tmp_path / "p.txt", argv[1])]
    out = tmp_path / "out.txt"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "bipartite_ramsey.cli", *argv, "-o", str(out)],
                          capture_output=True, env={**os.environ, "PYTHONPATH": path},
                          text=True, timeout=10)
    assert proc.returncode == 3
    assert "more than 2147483647 lefts or rights" in proc.stderr
    assert not out.exists()


def test_embed_and_verify(tmp_path, single_edge_pattern):
    cert = tmp_path / "cert.txt"
    assert main(["embed", single_edge_pattern, "-o", str(cert)]) == 0
    assert main(["verify", str(cert)]) == 0


def test_extract_complete_and_verify(tmp_path):
    g = complete_bipartite(32, 4)
    coloring = random_coloring(g, random.Random(2))
    colfile = write(tmp_path / "col.txt", coloring_to_text(coloring))
    cert = tmp_path / "cert.txt"
    dot = tmp_path / "out.dot"
    code = main(
        ["extract-complete", colfile, "--a", "2", "--b", "2", "-o", str(cert), "--dot", str(dot)]
    )
    assert code == 0
    assert main(["verify", str(cert)]) == 0
    assert "graph" in dot.read_text()


def test_extract_complete_parses_its_file_once(tmp_path, monkeypatch, capsys):
    """The writer's text is compared, not parsed; text that departs from it
    is parsed once, from the first chunk that differs."""
    reads = []
    read_coloring = formats._read_coloring
    monkeypatch.setattr(formats, "_read_coloring", lambda *a: reads.append(1) or read_coloring(*a))
    coloring = random_coloring(complete_bipartite(32, 4), random.Random(2))
    lines = coloring_to_text(coloring).splitlines(True)
    for text, parses in ((lines, 0), (lines[:-2] + lines[:-3:-1], 1)):
        del reads[:]
        colfile = write(tmp_path / "col.txt", "".join(text))
        assert main(["extract-complete", colfile, "--a", "2", "--b", "2", "-o", "-"]) == 0
        assert len(reads) == parses
    out = capsys.readouterr().out.split("host\n")
    assert len(out) == 3 and out[1] == out[2]  # the same certificate both times


def test_verify_rejects_tampered_certificate(tmp_path):
    g = complete_bipartite(32, 4)
    coloring = constant_coloring(g, RED)
    colfile = write(tmp_path / "col.txt", coloring_to_text(coloring))
    cert = tmp_path / "cert.txt"
    assert main(["extract-complete", colfile, "--a", "2", "--b", "2", "-o", str(cert)]) == 0
    # Claim BLUE instead of RED: still well-formed, no longer valid.
    tampered = cert.read_text().replace("witness R", "witness B")
    bad = write(tmp_path / "bad.txt", tampered)
    assert main(["verify", bad]) == 1


def test_verify_malformed_certificate(tmp_path):
    bad = write(tmp_path / "bad.txt", "witness R\nwleft 1 1\n")
    assert main(["verify", bad]) == 3


def test_derive_find_extract_chain(tmp_path, capsys):
    host = set_bipartite(9, 3)
    coloring = position_rule_coloring(host, RED, (1, 3))
    colfile = write(tmp_path / "col.txt", coloring_to_text(coloring))

    scfile = tmp_path / "sc.txt"
    assert main(["derive-coloring", colfile, "--b", "2", "-o", str(scfile)]) == 0
    sc = subset_coloring_from_text(scfile.read_text())
    assert sc.n == 9 and sc.arity == 3 and sc.palette_size == 6

    homfile = tmp_path / "hom.txt"
    assert main(["find-homogeneous", str(scfile), "--s", "9", "-o", str(homfile)]) == 0
    text = homfile.read_text()
    assert text.splitlines()[0] == "homogeneous 1 2 3 4 5 6 7 8 9"

    members = write(tmp_path / "H.txt", " ".join(text.split()[1:10]))
    cert = tmp_path / "cert.txt"
    code = main(
        ["extract-induced", colfile, "--a", "4", "--b", "2", "--homogeneous", members,
         "-o", str(cert)]
    )
    assert code == 0
    assert main(["verify", str(cert)]) == 0
    _, _, witness = certificate_from_text(cert.read_text())
    assert witness.host_left == (2, 4, 6, 8)


def test_find_homogeneous_absent(tmp_path):
    host = set_bipartite(6, 3)
    coloring = random_coloring(host, random.Random(8))
    colfile = write(tmp_path / "col.txt", coloring_to_text(coloring))
    scfile = tmp_path / "sc.txt"
    assert main(["derive-coloring", colfile, "--b", "2", "-o", str(scfile)]) == 0
    assert main(["find-homogeneous", str(scfile), "--s", "6"]) == 1


def test_find_induced_pipeline(tmp_path, single_edge_pattern):
    host = set_bipartite(7, 3)
    colfile = write(
        tmp_path / "col.txt", coloring_to_text(constant_coloring(host, RED))
    )
    cert = tmp_path / "cert.txt"
    assert main(["find-induced", single_edge_pattern, colfile, "-o", str(cert)]) == 0
    assert main(["verify", str(cert)]) == 0


def test_find_induced_absent(tmp_path, single_edge_pattern):
    host = set_bipartite(6, 3)
    colfile = write(
        tmp_path / "col.txt",
        coloring_to_text(random_coloring(host, random.Random(3))),
    )
    assert main(["find-induced", single_edge_pattern, colfile]) == 1


def test_ramsey_number_exit_codes(capsys, monkeypatch):
    assert main(["ramsey-number", "--arity", "2", "--palette", "2", "--size", "3", "--max-n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["ramsey-number", "--arity", "2", "--palette", "2", "--size", "3", "--max-n", "5"]) == 1
    # 10^C(40,3) is past the 4,300 digits str() converts: still exit 2.
    assert main(["ramsey-number", "--arity", "3", "--palette", "10", "--size", "40",
                 "--max-n", "40"]) == 2
    assert "10^C(40,3) colorings" in capsys.readouterr().err
    start = time.perf_counter()  # 10^C(40,7) alone takes about 30 s to compute
    assert main(["ramsey-number", "--arity", "7", "--palette", "10", "--size", "40",
                 "--max-n", "40"]) == 2
    assert time.perf_counter() - start < 1
    assert "10^C(40,7) colorings" in capsys.readouterr().err
    monkeypatch.setenv("RW_BUDGET", "50")
    assert main(["ramsey-number", "--arity", "2", "--palette", "2", "--size", "4", "--max-n", "9"]) == 2


def test_find_homogeneous_budget_exit_code(tmp_path, monkeypatch):
    # Equal-parity pairs get value 1: the search for a homogeneous 6-set
    # of [12] makes more than 5 lookups before it reaches (1, 3, ..., 11).
    mapping = {pair: 1 + sum(pair) % 2 for pair in combinations(range(1, 13), 2)}
    scfile = write(
        tmp_path / "sc.txt", subset_coloring_to_text(SubsetColoring.from_map(12, 2, 2, mapping))
    )
    assert main(["find-homogeneous", scfile, "--s", "6"]) == 0
    monkeypatch.setenv("RW_BUDGET", "5")
    assert main(["find-homogeneous", scfile, "--s", "6"]) == 2


def test_params_output(tmp_path, capsys):
    pattern = write(
        tmp_path / "p.txt", "bipartite 3 2\ne 1 1\ne 2 1\ne 3 1\ne 1 2\ne 3 2\n"
    )
    assert main(["params", pattern]) == 0
    lines = dict(
        line.split(None, 1) for line in capsys.readouterr().out.splitlines()
    )
    assert lines["a"] == "8" and lines["b"] == "4"
    assert lines["s"] == "35" and lines["palette"] == "70"
    assert lines["n"] == "R_{7,70}(35)"


@pytest.mark.parametrize("lefts", [5000, 8000, 2**31 - 1])
def test_params_spells_a_palette_past_10000_bits_by_formula(tmp_path, capsys, lefts):
    # 2*C(2b-1, b) runs past the 4,300 digits str() prints at about b = 7,200,
    # and takes too long to compute long before 2^31 lefts.
    pattern = write(tmp_path / "p.txt", f"bipartite {lefts} 1\ne 1 1\n")
    assert main(["params", pattern]) == 0
    lines = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    k, b = 2 * lefts + 1, lefts + 1
    palette = str(2 * comb(k, b)) if lefts == 5000 else f"2*C({k},{b})"
    assert lines["palette"] == palette
    assert lines["n"] == f"R_{{{k},{palette}}}({(2 * lefts + 1) * b + b - 1})"


def test_dot_subcommand(tmp_path, capsys):
    gfile = write(tmp_path / "g.txt", graph_to_text(set_bipartite(4, 2)))
    assert main(["dot", gfile]) == 0
    out = capsys.readouterr().out
    assert out.count(" -- ") == 12


def test_input_error_writes_no_output(tmp_path, capsys):
    graph = write(tmp_path / "g.txt", graph_to_text(complete_bipartite(2, 2)))
    pattern = complete_bipartite(1, 1)
    outside = InducedCopyWitness(pattern, (3,), (1,))  # left 3 is not in K_{2,2}
    cert = write(tmp_path / "cert.txt", certificate_to_text(complete_bipartite(3, 1), outside))
    out = tmp_path / "out.dot"
    assert main(["dot", graph, "--certificate", cert, "-o", str(out)]) == 3
    assert "unknown left 3" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_is_input_error(capsys):
    assert main(["params", "/no/such/file.txt"]) == 3


def test_console_script_installed():
    src = str(Path(__file__).resolve().parent.parent / "src")  # installed or not
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bipartite_ramsey.cli", "build", "complete", "--n", "2", "--k", "2"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "bipartite 2 2"


def test_extract_induced_reads_find_homogeneous_output_verbatim(tmp_path):
    host = set_bipartite(9, 3)
    coloring = position_rule_coloring(host, RED, (1, 3))
    colfile = write(tmp_path / "col.txt", coloring_to_text(coloring))
    scfile, homfile, cert = (str(tmp_path / name) for name in ("sc.txt", "hom.txt", "cert.txt"))
    assert main(["derive-coloring", colfile, "--b", "2", "-o", scfile]) == 0
    assert main(["find-homogeneous", scfile, "--s", "9", "-o", homfile]) == 0
    assert Path(homfile).read_text().splitlines()[1].startswith("value ")
    code = main(
        ["extract-induced", colfile, "--a", "4", "--b", "2", "--homogeneous", homfile, "-o", cert]
    )
    assert code == 0
    assert main(["verify", cert]) == 0
    _, _, witness = certificate_from_text(Path(cert).read_text())
    assert witness.host_left == (2, 4, 6, 8)


def test_set_graph_commands_read_either_edge_order_alike(tmp_path):
    """derive-coloring, extract-induced and find-induced write the same
    bytes and exit alike whether a B_{n,5} coloring lists its edges left by
    left, right by right (mask bit order), or right by right with its last
    two lines swapped, which departs from what the reader compares."""
    host = set_bipartite(20, 5)
    coloring = position_rule_coloring(host, RED, (1, 2, 4))
    by_right = [f"c {x} {i} {'RB'[coloring.masks[i - 1] >> p & 1]}"
                for i, subset in enumerate(host.right_labels, 1) for p, x in enumerate(subset)]
    texts = [coloring_to_text(coloring), "\n".join(by_right) + "\n",
             "\n".join(by_right[:-2] + by_right[:-3:-1]) + "\n"]
    pattern = write(tmp_path / "pattern.txt", "bipartite 2 2\ne 1 1\ne 2 2\n")
    members = write(tmp_path / "hom.txt", " ".join(map(str, range(1, 21))))
    results = []
    for number, text in enumerate(texts):
        colfile, result = write(tmp_path / f"col{number}.txt", text), []
        for argv in (["derive-coloring", colfile, "--b", "3"],
                     ["extract-induced", colfile, "--a", "6", "--b", "3", "--homogeneous", members],
                     ["find-induced", pattern, colfile]):
            out = tmp_path / f"{argv[0]}{number}.txt"
            result.append((main([*argv, "-o", str(out)]), out.read_bytes()))
        results.append(result)
    assert results[0] == results[1] == results[2]
    assert [code for code, _ in results[0]] == [0, 0, 0]


INPUT = "<the input file>"  # stands for the case's own file in a later argument
SHORT_OF_N = {
    "derive-short-of-n": (["derive-coloring", "--b", "100000"], "c 2147483647 1 R\n"),
    "subset-short-of-n": (
        ["find-homogeneous", "--s", "2"], "subsetcoloring 2147483647 400000 2\n"
    ),
    # One line of 20,000 vertices, 108 KB: C(n, k) >= 2^63, so no line is ranked.
    "subset-past-a-slot": (
        ["find-homogeneous", "--s", "3"],
        f"subsetcoloring 2147483647 20000 2\nsc {','.join(map(str, range(1, 20001)))} 1\n",
    ),
}
MALFORMED = {
    "graph-left-token": (["dot"], "bipartite 2 2\ne 1 x\n"),
    "graph-negative-rights": (["dot"], "bipartite 2 -1\n"),
    "graph-huge-rights": (["params"], "bipartite 0 99999999999\n"),
    "certificate-huge-host": (["verify"], "host\nbipartite 0 99999999999\n"),
    "coloring-left-token": (["extract-complete", "--a", "1", "--b", "1"], "c 1 1 R\nc q 1 R\n"),
    "coloring-right-token": (["extract-complete", "--a", "1", "--b", "1"], "c 1 q R\n"),
    "subset-not-arity": (["find-homogeneous", "--s", "2"], "subsetcoloring 3 2 2\nsc 1,3,2 1\n"),
    "subset-negative-n": (["find-homogeneous", "--s", "2"], "subsetcoloring -1 2 2\n"),
    "subset-huge-header": (["find-homogeneous", "--s", "2"], "subsetcoloring 100000 50 2\n"),
    "subset-header-past-index": (
        ["find-homogeneous", "--s", "2"], f"subsetcoloring {1 << 64} 99999999999 2\n"
    ),
    "derive-b-zero": (["derive-coloring", "--b", "0"], "c 1 1 R\n"),
    "derive-b-negative": (["derive-coloring", "--b", "-1"], "c 1 1 R\n"),
    "extract-b-zero": (
        ["extract-induced", "--a", "1", "--b", "0", "--homogeneous", INPUT], "c 1 1 R\n"
    ),
    "pattern-no-rights": (["find-induced", INPUT], "bipartite 2 0\n"),
    # Line counts whose refusal names k*C(n,k) or C(n,k) past str()'s 4,300 digits.
    "derive-huge-host": (["derive-coloring", "--b", "10000"], "c 2 1 R\nc 40000 1 R\n"),
    "subset-huge-count": (["find-homogeneous", "--s", "3"], "subsetcoloring 20000 10000 2\n"),
    # Fewer lines than C(n,k) >= n allows for 0 < k < n: refused before comb.
    **SHORT_OF_N,
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_is_input_error(tmp_path, capsys, case):
    command, text = MALFORMED[case]
    path = write(tmp_path / "input.txt", text)
    assert main([command[0], path, *(path if arg == INPUT else arg for arg in command[1:])]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(SHORT_OF_N))
def test_a_short_file_is_refused_before_comb(tmp_path, capsys, case):
    # comb(2**31 - 1, 199999) or comb(2**31 - 1, 400000) takes 10-20 s.
    command, text = SHORT_OF_N[case]
    path = write(tmp_path / "input.txt", text)
    start = time.perf_counter()
    assert main([command[0], path, *command[1:]]) == 3
    assert time.perf_counter() - start < 1
    assert "C(2147483647," in capsys.readouterr().err


def test_usage_errors_are_input_errors(capsys):
    for argv in (["build", "setgraph", "--n", "x", "--k", "3"], ["build", "setgraph", "--n", "3"],
                 ["no-such-command"], []):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: rw") and "Traceback" not in err
    assert main(["--help"]) == 0 and capsys.readouterr().out.startswith("usage: rw")


@pytest.mark.parametrize("command", [["params"], ["derive-coloring", "--b", "2"], ["verify"]])
def test_file_that_is_not_utf8_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "input.txt"
    path.write_bytes(b"bipartite 1 1\n\xff\n")
    assert main([command[0], str(path), *command[1:]]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {str(path)!r} is not utf-8 text\n"
