"""Mutation check: each mutant breaks one rule, and the tests must notice.

    python3 tests/mutants.py [--only NAME]

For each mutant, src/ is copied with tests/, demos/ and pyproject.toml to
a temporary directory, the mutant's old text in its file is replaced by
its new text, and `pytest -x -q` runs on the copy's test files, those in
FIRST first: it stops at the first failure, and most mutants fail in
one of them.  A failing run kills the mutant; a passing one lets it
survive.  One line per mutant says which, with the seconds taken; the
exit status is 1 if any survived.
An old text that does not occur exactly once in its file is an error
before anything runs, so a refactor that moves the code must move its
mutants too.  Hypothesis runs with a fixed seed, so a run repeats.  A
run still going after TIMEOUT seconds is stopped and kills its mutant (a
mutant can make rw write a host without end); pytest's temporary files
go in the copy, and go with it.

Stdlib only (pytest is what it runs), and not collected by pytest: its
name does not start with test_.  Each fast path with a reference in the
tests adds its mutants here.
"""

import argparse
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")
TIMEOUT = 600  # seconds; the tests take under a minute on a 2-core container
FIRST = (  # the files that kill most mutants, each in a few seconds
    "test_runs.py", "test_bulk.py", "test_set_host.py", "test_packed.py", "test_hypergraph.py",
)

Mutant = namedtuple("Mutant", "name file old new rule")

GRAPHS = "src/bipartite_ramsey/graphs.py"
FORMATS = "src/bipartite_ramsey/formats.py"
CLI = "src/bipartite_ramsey/cli.py"
HYPERGRAPH = "src/bipartite_ramsey/hypergraph.py"

MUTANTS = [
    Mutant("planes-little-endian", GRAPHS,
           '''text[p::d].translate(_PLANE[p]), "big")''',
           '''text[p::d].translate(_PLANE[p]), "little")''',
           "the plane packer keeps the rights in order"),
    Mutant("plane-shifted", GRAPHS,
           '''int.from_bytes(text[p::d]''',
           '''int.from_bytes(text[(p + 1) % d :: d]''',
           "plane p holds each right's digit p"),
    Mutant("planes-at-degree-9", GRAPHS,
           '''if d <= 8 and len(text)''',
           '''if d <= 9 and len(text)''',
           "a mask of more than 8 bits is not a byte"),
    Mutant("planes-for-irregular", GRAPHS,
           '''len(text) == graph.edge_count == d * rights''',
           '''len(text) == graph.edge_count''',
           "bit planes exist only where every right has the same degree"),
    Mutant("per-right-digits-unreversed", GRAPHS,
           '''int(text[o:e][::-1] or b"0", 2)''',
           '''int(text[o:e] or b"0", 2)''',
           "a right's first digit is its mask's lowest bit"),
    Mutant("names-from-zero", FORMATS,
           '''[str(x) for x in range(1, n + 1)]''',
           '''[str(x) for x in range(n)]''',
           "a subset's elements are spelled from 1"),
    Mutant("names-of-one-from-a-list", FORMATS,
           '''    if k < 2:
        yield from map(str, range(1, n + 1))''',
           '''    if k < 1:
        yield from map(str, range(1, n + 1))''',
           "names of one element build no list of [n]"),
    Mutant("left-range-first-key-only", FORMATS,
           '''return _column(ints.values()) and''',
           '''return _column(list(ints.values())[:1]) and''',
           "every left in a run is checked to be in 1..2^31 - 1"),
    Mutant("taken-bits-not-dealt", FORMATS,
           '''bytes(_dealt(graph, [iter(row_bits) for _, row_bits in taken]))''',
           '''b"".join(row_bits for _, row_bits in taken)''',
           "colors taken left by left go to mask bit order"),
    Mutant("comparison-ignores-last-character", FORMATS,
           '''while chunk.startswith(piece.replace("B", "R") if masked else piece, seen):''',
           '''while chunk[:-1].startswith((piece.replace("B", "R") if masked else piece)'''
           '''[: len(chunk) - 1 - seen], seen):''',
           "a chunk is taken only where the text spells all of it"),
    Mutant("fallback-drops-taken-columns", FORMATS,
           '''    rights[:0] = array("i", map(int, chain.from_iterable(text.split() for text, _ in taken)))
    bits[:0] = b"".join(row_bits for _, row_bits in taken)''',
           '''    pass''',
           "the lefts taken before the text departs stand in for their columns"),
    Mutant("k-and-n-minus-k-swapped", FORMATS,
           '''host, rows, taken = set_bipartite(n, k), [], 0''',
           '''host, rows, taken = set_bipartite(n, n - k), [], 0''',
           "the chunks compared are those of the arity being tried"),
    Mutant("graph-chunks-not-replayed", FORMATS,
           '''for line in chain(taken, [line] if line else (), lines):''',
           '''for line in chain([line] if line else (), lines):''',
           "graph chunks taken before the text departs are read as runs"),
    Mutant("letters-not-masked", FORMATS,
           '''piece.replace("B", "R") if masked else piece''',
           '''piece''',
           "a c chunk is taken whatever its colors"),
    Mutant("take-with-lines-pending", FORMATS,
           '''        if pos is None:  # lines split off with the last item are still to come
            return None''',
           '''        if pos is None:  # lines split off with the last item are still to come
            pos = 0''',
           "a chunk is compared from the line after the last item"),
    Mutant("whole-graph-past-a-line", FORMATS,
           '''(line is None or line.split()[0] in sections)''',
           '''(line is None or line.split()[0] in sections or line[0] == "e")''',
           "a graph is B_{n,k} only if no line follows its chunks"),
    Mutant("whole-coloring-past-a-line", FORMATS,
           '''if whole and not bits:''',
           '''if whole:''',
           "a coloring is taken whole only if no c line follows its chunks"),
    Mutant("no-n-minus-k", FORMATS,
           '''arities = dict.fromkeys((k, n - k))''',
           '''arities = dict.fromkeys((k,))''',
           "B_{n,k} with k > n/2 is taken too"),
    Mutant("any-count-a-candidate", FORMATS,
           '''dict.fromkeys((k, n - k)) if count == right_count else ()''',
           '''dict.fromkeys((k, n - k))''',
           "B_{n,k}'s chunks are compared only under a header of C(n, k) rights"),
    Mutant("regular-starts-one-short", GRAPHS,
           '''starts = range(0, d * (graph.right_count + 1), d)''',
           '''starts = range(0, d * graph.right_count, d)''',
           "the regular-degree starts run to the last right's end"),
    Mutant("packer-bisects-from-zero", GRAPHS,
           '''p = bisect_left(table, left, starts[index - 1], e)''',
           '''p = bisect_left(table, left, 0, e)''',
           "an edge is looked up among its own right's lefts"),
    Mutant("oracle-candidates-not-induced", GRAPHS,
           '''if adjacent & left_set == need''',
           '''if need <= adjacent''',
           "a candidate's neighbourhood among the mapped lefts is exactly the needed one"),
    Mutant("verify-reads-the-pattern-position", GRAPHS,
           '''masks[r] >> _bit(neighbors, lefts[i - 1]) & 1 != color''',
           '''masks[r] >> i - 1 & 1 != color''',
           "an edge's color is read at its host left's bit"),
    Mutant("vote-table-bits-reversed", HYPERGRAPH,
           '''(RED, BLUE)[m >> p & 1] for p in range(k)''',
           '''(RED, BLUE)[m >> (k - 1 - p) & 1] for p in range(k)''',
           "bit p of a subset's mask votes for its position p + 1"),
    Mutant("rank-sums-one-low", HYPERGRAPH,
           '''c = comb(n - v, k - t + 1)''',
           '''c = comb(n - v, k - t)''',
           "a prefix's rank sums add C(n - v, k - t + 1) for a vertex at position t - 1"),
    Mutant("host-limit-off-by-one", CLI,
           '''if max(lefts, rights) > formats._MAX_INDEX:''',
           '''if max(lefts, rights) > formats._MAX_INDEX + 1:''',
           "rw build and embed refuse a host past 2^31 - 1 lefts or rights"),
]


def check(mutants):
    for m in mutants:
        found = (ROOT / m.file).read_text(encoding="utf-8").count(m.old)
        if found != 1:
            sys.exit(f"mutant {m.name}: its old text occurs {found} times in {m.file}, not once")


def ordered_files():
    """Every test file, as pytest is given them: FIRST, then the rest by name."""
    rest = sorted(p.name for p in (ROOT / "tests").glob("test_*.py") if p.name not in FIRST)
    return [f"tests/{name}" for name in (*FIRST, *rest)]


def run(mutant):
    """True when the tests fail on the mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as folder:
        copy = Path(folder)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        target = copy / mutant.file
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                          encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--hypothesis-seed=0", "--basetemp", str(copy / "pytest-tmp"), *ordered_files()],
                cwd=copy, capture_output=True, text=True, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return True
        if proc.returncode in (3, 4, 5):  # pytest's own failure, not the tests'
            sys.exit(f"mutant {mutant.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
        return proc.returncode != 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=[m.name for m in MUTANTS], help="run this mutant alone")
    args = parser.parse_args()
    mutants = [m for m in MUTANTS if args.only in (None, m.name)]
    check(mutants)
    survived = 0
    start = perf_counter()
    for mutant in mutants:
        began = perf_counter()
        killed = run(mutant)
        survived += not killed
        print(f"{'killed' if killed else 'SURVIVED':8} {perf_counter() - began:6.1f} s  "
              f"{mutant.name}: {mutant.rule}", flush=True)
    print(f"{len(mutants) - survived} of {len(mutants)} killed in {perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
