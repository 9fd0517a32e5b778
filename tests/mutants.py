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
    Mutant("taken-bits-not-dealt", FORMATS,
           '''digits = bytes(_dealt(graph, [iter(view[a:b]) for a, b in spans]))''',
           '''digits = bytes(view)''',
           "colors taken left by left go to mask bit order"),
    Mutant("left-sizes-one-short", FORMATS,
           '''sizes[-1], size = sizes[-1] + added, size + added''',
           '''sizes[-1], size = sizes[-1] + added - (added > 1), size + added''',
           "each left's colors are dealt from its own stretch of the bits taken"),
    Mutant("comparison-ignores-last-character", FORMATS,
           '''while chunk.startswith(piece.replace("B", "R") if masked else piece, seen):''',
           '''while chunk[:-1].startswith((piece.replace("B", "R") if masked else piece)'''
           '''[: len(chunk) - 1 - seen], seen):''',
           "a chunk is taken only where the text spells all of it"),
    Mutant("fallback-drops-taken-columns", FORMATS,
           '''        column[:0] = ahead''',
           '''        pass''',
           "the chunks taken before the text departs stand in for their columns"),
    Mutant("fallback-repeats-taken-columns", FORMATS,
           '''        column[:0] = ahead''',
           '''        column[:0] = ahead * 2''',
           "the chunks taken before the text departs stand in once"),
    Mutant("taken-rights-respelled-one-short", FORMATS,
           '''_columns(host.neighborhoods, edges, 1)[::-1]''',
           '''_columns(host.neighborhoods, max(edges - k, 0), 1)[::-1]''',
           "every right taken before the text departs is re-spelled"),
    Mutant("learned-n-one-high", FORMATS,
           '''        n = k - 1 + t''',
           '''        n = k + t''',
           "right by right, the opening rights {1..k-1, x} end at x = n"),
    Mutant("learned-n-one-low", FORMATS,
           '''        n = k - 1 + t''',
           '''        n = max(k - 2 + t, k)''',
           "right by right, the opening rights {1..k-1, x} end at x = n"),
    Mutant("learned-left-n-one-high", FORMATS,
           '''host = set_bipartite(n, k) if t and comb(n - 1, k - 1) == t else None''',
           '''host = set_bipartite(n + 1, k) if t and comb(n - 1, k - 1) == t else None''',
           "left by left, left 1's C(n-1, k-1) lines give n"),
    Mutant("learned-left-n-one-low", FORMATS,
           '''host = set_bipartite(n, k) if t and comb(n - 1, k - 1) == t else None''',
           '''host = set_bipartite(max(n - 1, k), k) if t and comb(n - 1, k - 1) == t else None''',
           "left by left, left 1's C(n-1, k-1) lines give n"),
    Mutant("complete-k-learned-one-high", FORMATS,
           '''k = _opening(lines, _first_left, got)''',
           '''k = _opening(lines, _first_left, got) + 1''',
           "K_{n,k}'s k is the count of left 1's lines"),
    Mutant("complete-k-learned-one-low", FORMATS,
           '''k = _opening(lines, _first_left, got)''',
           '''k = max(0, _opening(lines, _first_left, got) - 1)''',
           "K_{n,k}'s k is the count of left 1's lines"),
    Mutant("complete-n-learned-one-high", FORMATS,
           '''n = 1 + (k and _opening(''',
           '''n = 2 + (k and _opening(''',
           "K_{n,k}'s n is left 1 and the lefts after it"),
    Mutant("complete-n-learned-one-low", FORMATS,
           '''n = 1 + (k and _opening(''',
           '''n = 0 + (k and _opening(''',
           "K_{n,k}'s n is left 1 and the lefts after it"),
    Mutant("complete-row-one-short", FORMATS,
           '''row = _index_lines(range(1, k + 1))''',
           '''row = _index_lines(range(1, k))''',
           "K_{n,k}'s later lefts are spelled from left 1's whole row"),
    Mutant("opening-uncapped", FORMATS,
           '''size << (size * width < _BATCH)''',
           '''size << 1''',
           "an opening chunk stops doubling at about _BATCH lines"),
    Mutant("right-speller-one-rank-off", FORMATS,
           '''islice(_subset_names(n, k), t, None)''',
           '''islice(_subset_names(n, k), t + 1, None)''',
           "right by right, right i is spelled from the subset of rank i - 1"),
    Mutant("taken-chunks-compared-unmasked", FORMATS,
           '''text = lines.take(chunk, masked=True)''',
           '''text = lines.take(chunk)''',
           "a c chunk is compared with its letters read as R"),
    Mutant("taken-letters-unfiltered", FORMATS,
           '''got.append(text.encode().translate(_BIT_OF_BYTE, _NOT_A_LETTER))''',
           '''got.append(text.encode().translate(_BIT_OF_BYTE))''',
           "only the letters of a chunk taken are its color bits"),
    Mutant("k-and-n-minus-k-swapped", FORMATS,
           '''host, rows = set_bipartite(n, k), []''',
           '''host, rows = set_bipartite(n, n - k), []''',
           "the chunks compared are those of the arity being tried"),
    Mutant("graph-chunks-not-replayed", FORMATS,
           '''for line in chain(taken, [line] if line else (), lines):''',
           '''for line in chain([line] if line else (), lines):''',
           "graph chunks taken before the text departs are read again"),
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
           '''(line is None or line.split()[0] in sections):
        return built(line)''',
           '''(line is None or line.split()[0] in sections or line[0] == "e"):
        return built(line)''',
           "a graph is B_{n,k} only if no line follows its chunks"),
    Mutant("complete-graph-past-a-line", FORMATS,
           '''(line is None or line.split()[0] in sections):
        return built(line)''',
           '''(line is None or line.split()[0] in sections or line[0] == "r"):
        return built(line)''',
           "a graph is K_{n,m} only if no line follows its lefts"),
    Mutant("complete-graph-row-one-short", FORMATS,
           '''row = _index_lines(range(1, right_count + 1))''',
           '''row = _index_lines(range(1, right_count))''',
           "K_{n,m}'s e chunks are spelled from its lefts' whole row"),
    Mutant("text-past-the-last-chunk-accepted", FORMATS,
           '''(line is None or line.split()[0] in sections):
        digits = bits.translate(_DIGIT)''',
           '''(line is None or line.split()[0] in sections or line[0] == "c"):
        digits = bits.translate(_DIGIT)''',
           "a coloring is taken whole only if no c line follows its last chunk"),
    Mutant("no-n-minus-k", FORMATS,
           '''arities = dict.fromkeys((k, n - k))''',
           '''arities = dict.fromkeys((k,))''',
           "B_{n,k} with k > n/2 is taken too"),
    Mutant("any-count-a-candidate", FORMATS,
           '''dict.fromkeys((k, n - k)) if count == right_count else ()''',
           '''dict.fromkeys((k, n - k))''',
           "B_{n,k}'s chunks are compared only under a header of C(n, k) rights"),
    Mutant("taken-colors-swapped", FORMATS,
           '''_BIT_OF_BYTE = bytes.maketrans(b"RB", b"\\0\\1")''',
           '''_BIT_OF_BYTE = bytes.maketrans(b"RB", b"\\1\\0")''',
           "a taken chunk's R is color bit 0 and its B is 1"),
    Mutant("rlabel-range-one-past", FORMATS,
           '''"rlabel index")
            if not 1 <= idx <= right_count:''',
           '''"rlabel index")
            if not 1 <= idx <= right_count + 1:''',
           "an rlabel line refuses an index past the right count"),
    Mutant("rlabel-kept-as-text", FORMATS,
           '''subsets.append(_parse_subset(parts[2]) if len(parts) == 3 else ())''',
           '''subsets.append(parts[2] if len(parts) == 3 else ())''',
           "an rlabel line's subset is parsed, and refused in line order"),
    Mutant("taken-chunks-not-split", FORMATS,
           '''    taken = chain.from_iterable(map(str.splitlines, taken))  # replayed line by line
''',
           '''''',
           "graph chunks taken before the text departs are read again line by line"),
    Mutant("sc-line-unchecked", FORMATS,
           '''or parts[1] != next(spelled, None):''',
           '''or next(spelled, None) is None:''',
           "an sc line's value is taken only where it names the next subset"),
    Mutant("sc-keyword-unchecked", FORMATS,
           '''if len(parts) != 3 or parts[0] != "sc" or''',
           '''if len(parts) != 3 or''',
           "an sc line's value is taken only where its keyword is sc"),
    Mutant("sc-value-error-escapes", FORMATS,
           '''except ValueError:  # not an int (_subset_value words it), or past a byte''',
           '''except ZeroDivisionError:''',
           "a value int() refuses is refused as the line parser refuses it"),
    Mutant("certificate-rows-reversed", FORMATS,
           '''rows[left] = _index_lines(row)''',
           '''rows[left] = _index_lines(row[::-1])''',
           "a certificate lists each left's rights increasing, as edge_rows does"),
    Mutant("sc-count-unchecked", FORMATS,
           '''if is_subset_count(len(values), n, arity):''',
           '''if True:''',
           "sc values taken in order are the table only at C(n, arity) of them"),
    Mutant("edge-lines-end-dropped", FORMATS,
           '''text.replace("\\n", f"{end}{word} {left} ") + end''',
           '''text.replace("\\n", f"{end}{word} {left} ") + "\\n"''',
           "a left's last c line is spelled with its letter, as the writers spell it"),
    Mutant("regular-starts-one-short", GRAPHS,
           '''starts = range(0, d * (graph.right_count + 1), d)''',
           '''starts = range(0, d * graph.right_count, d)''',
           "the regular-degree starts run to the last right's end"),
    Mutant("packer-bisects-from-zero", GRAPHS,
           '''p = bisect_left(table, left, starts[index - 1], e)''',
           '''p = bisect_left(table, left, 0, e)''',
           "an edge is looked up among its own right's lefts"),
    Mutant("packer-run-start-shifted", GRAPHS,
           '''bisect_left(table, left, starts[index - 1], e)''',
           '''bisect_left(table, left, starts[index - 1] + 1, e)''',
           "an edge is looked up from its right's first left"),
    Mutant("packer-starts-from-one", GRAPHS,
           '''starts = list(accumulate(map(len, graph.neighborhoods), initial=0))''',
           '''starts = list(accumulate(map(len, graph.neighborhoods), initial=1))''',
           "the first right's edges start at 0"),
    Mutant("packer-colored-twice-unchecked", GRAPHS,
           '''if text[p] != 63 or color not in (0, 1):''',
           '''if color not in (0, 1):''',
           "an edge colored twice is refused"),
    Mutant("packer-index-below-one", GRAPHS,
           '''bad = p == e or table[p] != left or index < 1''',
           '''bad = p == e or table[p] != left''',
           "right index 0 names no edge"),
    Mutant("mask-bit-past-degree", GRAPHS,
           '''if graph.edge_count != graph._max_degree * len(masks) and any(''',
           '''if False and any(''',
           "a mask bit past its right's degree is refused"),
    Mutant("arity-check-count-unguarded", GRAPHS,
           '''counted = k and is_subset_count(len(labels), left_count, k)''',
           '''counted = k''',
           "a graph's right count rules out B_{n,k} before any C(n, k) is computed"),
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
    Mutant("palette-one-dropped", HYPERGRAPH,
           '''if palette == 1:  # its one coloring''',
           '''if False:  # its one coloring''',
           "a palette-1 question is answered before any count"),
    Mutant("palette-one-widened", HYPERGRAPH,
           '''if palette == 1:  # its one coloring''',
           '''if palette <= 2:  # its one coloring''',
           "only palette 1 is answered without a search"),
    Mutant("estimate-shown-past-str-digits", HYPERGRAPH,
           '''if estimate and estimate.bit_length() < 10_000 else ""''',
           '''if estimate else ""''',
           "an estimate past str()'s digit limit is named by formula"),
    Mutant("usage-errors-reraised", CLI,
           '''return EXIT_INPUT if exc.code == 2 else exc.code''',
           '''raise''',
           "a usage error exits 3, not argparse's 2"),
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
