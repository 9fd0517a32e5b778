"""The benchmark's workloads: seeded inputs, fixed op lists, pinned
expected outcomes and the stage-by-stage replay used by traced runs.

An op is what a user pays for one answer: host and coloring construction
plus one library call, or one ``rw`` command.  Every op's result is
described as an outcome dict and compared with the outcome pinned for it
(see ``run_op``).  Every failure counts as a failed op and makes the
run incorrect, except the one documented defect an op may pin in
``known_defect``: that failure, exactly as pinned, is counted as failed
but leaves the run correct, so that it shows in ``error_rate`` until it
is fixed.
"""

import contextlib
import io
import os
import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb
from time import perf_counter
from typing import Callable, Optional

import bipartite_ramsey as br
from bipartite_ramsey import cli, formats

from tracing import rss_mb

# Sizes of each workload.  "full" is what the benchmark measures; "toy"
# runs every code path in well under a second (smoke mode and self-test).
# c, d: pattern lefts and rights; extra: ground-set elements before the
# planted homogeneous set, so the search walks every earlier candidate.
SIZES = {
    "full": {
        # c=3, d=1 on B_{31,7}: the headline's code paths at n = s = 31,
        # because the c=3, d=2 headline on B_{35,7} takes about 65 s an op.
        "setgraph-constant": {"c": 3, "d": 1},
        "setgraph-planted": {"c": 2, "d": 2, "extra": 6, "ops": 4},  # B_{26,5}
        # n=22, s=8: a random coloring of pairs has no homogeneous 8-set
        # with probability above 0.99, so every seed walks all C(22,8)
        # candidates and the cost does not depend on the seed.
        "search-micro": {"n": 22, "s": 8, "colorings": 5},
        "cli-files": {"c": 2, "d": 2, "extra": 4, "a": 2, "k": 8},  # B_{24,5}, K_{512,8}
    },
    "toy": {
        "setgraph-constant": {"c": 1, "d": 1},  # B_{7,3}
        "setgraph-planted": {"c": 1, "d": 1, "extra": 2, "ops": 2},  # B_{9,3}
        "search-micro": {"n": 10, "s": 5, "colorings": 2},
        "cli-files": {"c": 1, "d": 1, "extra": 2, "a": 2, "k": 4},  # B_{9,3}, K_{32,4}
    },
}

WORKLOADS = tuple(SIZES["full"])

# demos/03: the first counterexample for R_{2,2}(3) at n = 5, a 5-cycle.
FIVE_CYCLE = [1, 1, 2, 2, 2, 1, 2, 2, 1, 1]

# README exit codes of rw.
EXIT_FOUND = 0
EXIT_INPUT = 3
# Recorded as a command's exit code when rw dies with a traceback; no
# README exit code is negative.
EXIT_RAISED = -1


@dataclass
class Op:
    name: str
    run: Callable  # run(tracer) -> result
    describe: Callable  # describe(result) -> outcome dict
    expect: dict  # pinned: every key here must match the outcome
    verify: Optional[Callable] = None  # verify(result, tracer) -> failure reason or None
    replay: Optional[Callable] = None  # replay(result, tracer) -> failure reason or None
    known_defect: Optional[dict] = None  # outcome keys of a documented failure


@dataclass
class OpRecord:
    name: str
    seconds: float
    outcome: dict
    failure: Optional[str] = None
    known: bool = False  # the failure is the op's pinned known_defect


@dataclass
class Workload:
    ops: list
    before_pass: Callable = lambda: None


def params(c, d):
    """The pipeline's constants for a pattern with c lefts and d rights."""
    a, b = 2 * c + d, c + 1
    return {"a": a, "b": b, "k": 2 * b - 1, "s": a * b + b - 1}


# -- running and judging one op ---------------------------------------------


def describe_error(exc):
    if isinstance(exc, br.BudgetExceededError):
        return {"outcome": "budget", "used": exc.used, "limit": exc.limit}
    allowed = isinstance(exc, (br.ParameterError, br.ValidationError))
    kind = "contract-error" if allowed else "exception"
    return {"outcome": kind, "type": type(exc).__name__, "error": f"{type(exc).__name__}: {exc}"}


def run_op(op, tracer, replay=False):
    """Time one op, describe its result and judge it against the pin."""
    tracer.op_id = op.name
    start = perf_counter()
    with tracer.span("op"):
        try:
            result = op.run(tracer)
        except Exception as exc:  # counted as a failed op; the run goes on
            result = exc
    seconds = perf_counter() - start
    outcome = describe_error(result) if isinstance(result, Exception) else op.describe(result)
    record = OpRecord(op.name, seconds, outcome, judge(op, result, outcome, tracer, replay))
    record.known = record.failure is not None and op.known_defect is not None and all(
        outcome.get(key) == value for key, value in op.known_defect.items()
    )
    return record


def judge(op, result, outcome, tracer, replay):
    """The reason the op failed, or None when it met its pin and checks."""
    if outcome["outcome"] == "exception":
        return "raised " + outcome["error"]
    mismatch = {key: outcome.get(key) for key in op.expect if outcome.get(key) != op.expect[key]}
    if mismatch:
        return f"expected {op.expect}, got {mismatch}"
    if isinstance(result, Exception):
        return None  # an expected refusal
    for check in (op.verify, op.replay if replay else None):
        try:
            reason = check(result, tracer) if check else None
        except Exception as exc:  # e.g. ValidationError on a malformed witness
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            return reason
    return None


def candidates_walked(found, n, s):
    """Candidates find_homogeneous_set examines: the lexicographic rank of
    its answer plus one, or all C(n, s) when there is none."""
    if found is None:
        return comb(n, s)
    return br.subset_rank(found[0], n) + 1


def describe_set(found, n, s):
    if found is None:
        return {"outcome": "none", "reason": "n < s" if n < s else "no homogeneous set"}
    vertices, value = found
    return {"outcome": "set", "vertices": list(vertices), "value": value}


# -- the pipeline and its replay ---------------------------------------------


@dataclass
class PipelineResult:
    pattern: object
    host: object
    coloring: object
    witness: object


def random_pattern_edges(rng, c, d):
    """A seeded pattern edge set; (1, 1) is always an edge."""
    cells = [(i, j) for i in range(1, c + 1) for j in range(1, d + 1)]
    return {(1, 1)} | {cell for cell in cells if rng.random() < 0.5}


def planted_bits(rng, n, k, s):
    """One color bit (0 = RED) per edge of B_{n,k}, in the order of the
    k-subsets X and then the positions p in X.  Subsets of the last
    s-set {n-s+1, ..., n} follow the position rule (RED exactly at odd
    p), which makes that set homogeneous; every other edge is random."""
    low = n - s + 1
    rule = bytes(0 if p % 2 else 1 for p in range(1, k + 1))
    out = bytearray()
    for X in combinations(range(1, n + 1), k):
        if X[0] >= low:
            out += rule
        else:
            word = rng.getrandbits(k)
            out += bytes((word >> p) & 1 for p in range(k))
    return bytes(out)


def run_pipeline(tracer, n, k, pattern, make_coloring):
    with tracer.span("constructions.set_bipartite") as counts:
        host = br.set_bipartite(n, k)
        counts["rss_mb"] = rss_mb()
    with tracer.span("graphs.coloring") as counts:
        coloring = make_coloring(host)
        counts["edges"] = host.edge_count
        counts["rss_mb"] = rss_mb()
    with tracer.span("pipeline.find_induced_mono_pattern"):
        witness = br.find_induced_mono_pattern(pattern, coloring)
    return PipelineResult(pattern, host, coloring, witness)


def describe_pipeline(result):
    witness = result.witness
    if witness is None:
        s = br.required_parameters(result.pattern).s
        reason = "n < s" if result.host.left_count < s else "no homogeneous set"
        return {"outcome": "none", "reason": reason}
    return {
        "outcome": "witness",
        "color": witness.claimed_color.letter,
        "host_left": list(witness.host_left),
    }


def verify_span(tracer, host, witness, coloring):
    with tracer.span("graphs.verify_witness") as counts:
        counts["calls"] = 1
        return br.verify_witness(host, witness, coloring)


def verify_pipeline(result, tracer):
    if result.witness is not None and not verify_span(
        tracer, result.host, result.witness, result.coloring
    ):
        return "witness fails verify_witness"
    return None


def replay_pipeline(tracer, pattern, host, coloring, expected, planted=None):
    """Run the pipeline's stages one at a time, in pipeline.py's order.

    Returns a failure reason when the search misses the planted set or
    the replayed witness differs from ``expected``, else None.
    """
    p = br.required_parameters(pattern)
    witness = None
    with tracer.span("replay"):
        with tracer.span("constructions.embed_into_set_bipartite"):
            embedding = br.embed_into_set_bipartite(pattern)
        with tracer.span("hypergraph.derive_coloring") as counts:
            derived = br.derive_coloring(coloring, p.b)
            counts["subsets"] = len(derived.values)
        with tracer.span("hypergraph.find_homogeneous_set") as counts:
            found = br.find_homogeneous_set(derived, p.s)
            counts["candidates"] = candidates_walked(found, host.left_count, p.s)
        if found is not None:
            members, value = found
            if planted is not None and members != planted:
                return f"search returned {members}, not the planted set"
            with tracer.span("hypergraph.decode_derived"):
                color = br.decode_derived(value, p.b)
            with tracer.span("extraction.extract_induced") as counts:
                inner = br.extract_induced(members, color, p.a, p.b, host, coloring)
                counts["rechecks"] = comb(p.s, p.k)
            # Compose the embedding with the extracted copy, as the pipeline does.
            witness = br.InducedCopyWitness(
                pattern,
                tuple(inner.host_left[embedding.left_map[i] - 1] for i in range(1, p.c + 1)),
                tuple(
                    inner.host_right[br.subset_rank(embedding.right_map[j], p.a)]
                    for j in range(1, p.d + 1)
                ),
                color.color,
            )
            if not verify_span(tracer, host, witness, coloring):
                return "replayed witness fails verify_witness"
    if witness != expected:
        return "replayed witness differs from the pipeline's"
    return None


def pipeline_op(name, run, expect_left, planted=None):
    def replay(result, tracer):
        return replay_pipeline(
            tracer, result.pattern, result.host, result.coloring, result.witness, planted
        )

    return Op(
        name,
        run=run,
        describe=describe_pipeline,
        expect={"outcome": "witness", "color": "R", "host_left": expect_left},
        verify=verify_pipeline,
        replay=replay,
    )


# -- setgraph-constant ----------------------------------------------------------


def constant_inputs(rng, size, workdir):
    return {"pattern": br.make_graph(size["c"], range(1, size["d"] + 1),
                                     random_pattern_edges(rng, size["c"], size["d"]))}


def constant_workload(inputs, size):
    p = params(size["c"], size["d"])
    run = partial(
        run_pipeline,
        n=p["s"],
        k=p["k"],
        pattern=inputs["pattern"],
        make_coloring=lambda host: br.constant_coloring(host, br.RED),
    )
    # The whole ground set is homogeneous, so the copy's lefts sit at
    # ranks b, 2b, ..., cb of [n].
    expect_left = [p["b"] * i for i in range(1, size["c"] + 1)]
    return Workload([pipeline_op("constant", run, expect_left)])


# -- setgraph-planted -------------------------------------------------------


def planted_inputs(rng, size, workdir):
    p = params(size["c"], size["d"])
    n = p["s"] + size["extra"]
    cases = []
    for i in range(size["ops"]):
        op_rng = random.Random(rng.getrandbits(64))
        edges = random_pattern_edges(op_rng, size["c"], size["d"])
        pattern = br.make_graph(size["c"], range(1, size["d"] + 1), edges)
        cases.append((pattern, planted_bits(op_rng, n, p["k"], p["s"])))
    return {"n": n, "cases": cases}


def coloring_from_bits(host, bits, n, k):
    colors = (br.RED, br.BLUE)
    edges = ((z, X) for X in combinations(range(1, n + 1), k) for z in X)
    return br.coloring_from_map(host, dict(zip(edges, map(colors.__getitem__, bits))))


def planted_workload(inputs, size):
    p = params(size["c"], size["d"])
    n, k, s, b = inputs["n"], p["k"], p["s"], p["b"]
    planted = tuple(range(n - s + 1, n + 1))
    expect_left = [planted[b * i - 1] for i in range(1, size["c"] + 1)]
    ops = []
    for i, (pattern, bits) in enumerate(inputs["cases"]):
        run = partial(
            run_pipeline,
            n=n,
            k=k,
            pattern=pattern,
            make_coloring=partial(coloring_from_bits, bits=bits, n=n, k=k),
        )
        ops.append(pipeline_op(f"planted/{i}", run, expect_left, planted))
    return Workload(ops)


# -- search-micro -------------------------------------------------------------


def search_inputs(rng, size, workdir):
    n = size["n"]
    return {
        "colorings": [
            br.SubsetColoring(n, 2, 2, tuple(rng.randint(1, 2) for _ in range(comb(n, 2))))
            for _ in range(size["colorings"])
        ]
    }


def reference_homogeneous(coloring, s):
    """Lexicographically first homogeneous s-set of a coloring of pairs,
    found independently of the library: the least, over the palette, of
    the first s-clique of each color class in increasing-vertex order."""
    n = coloring.n
    best = None
    for color in range(1, coloring.palette_size + 1):
        adjacent = [0] * (n + 1)
        for (u, v), value in zip(combinations(range(1, n + 1), 2), coloring.values):
            if value == color:
                adjacent[u] |= 1 << v
                adjacent[v] |= 1 << u

        def extend(chosen, candidates):
            if len(chosen) == s:
                return tuple(chosen)
            while bin(candidates).count("1") >= s - len(chosen):
                v = (candidates & -candidates).bit_length() - 1
                candidates &= candidates - 1
                found = extend(chosen + [v], candidates & adjacent[v])
                if found:
                    return found
            return None

        found = extend([], sum(1 << v for v in range(1, n + 1)))
        if found and (best is None or found < best[0]):
            best = (found, color)
    return best


def find_homogeneous(tracer, coloring, s):
    with tracer.span("hypergraph.find_homogeneous_set") as counts:
        found = br.find_homogeneous_set(coloring, s)
        counts["candidates"] = candidates_walked(found, coloring.n, s)
    return found


def describe_value(value):
    return {"outcome": "value", "value": value}


def call_span(name, fn, *args):
    def run(tracer):
        with tracer.span(name):
            return fn(*args)

    return run


def search_workload(inputs, size):
    n, s = size["n"], size["s"]
    describe = partial(describe_set, n=n, s=s)
    ops = [
        Op(
            f"homogeneous/{i}",
            run=partial(find_homogeneous, coloring=coloring, s=s),
            describe=describe,
            expect=describe(reference_homogeneous(coloring, s)),
        )
        for i, coloring in enumerate(inputs["colorings"])
    ]
    ramsey = "hypergraph.ramsey_number_exact"
    ops += [
        Op("ramsey(2,2,3,6)", call_span(ramsey, br.ramsey_number_exact, 2, 2, 3, 6),
           describe_value, describe_value(6)),
        Op("ramsey(1,2,6,12)", call_span(ramsey, br.ramsey_number_exact, 1, 2, 6, 12),
           describe_value, describe_value(11)),
        Op("lower_bound(2,2,3,5)",
           call_span("hypergraph.lower_bound_coloring", br.lower_bound_coloring, 2, 2, 3, 5),
           lambda found: {"outcome": "coloring", "values": list(found.values)},
           {"outcome": "coloring", "values": FIVE_CYCLE}),
        # Refused up front: 2^C(8,2) colorings at n = 8 exceed the default budget.
        Op("ramsey(2,2,4,18)", call_span(ramsey, br.ramsey_number_exact, 2, 2, 4, 18),
           describe_value, {"outcome": "budget", "limit": br.DEFAULT_BUDGET}),
    ]
    return Workload(ops)


# -- cli-files ----------------------------------------------------------------


def cli_inputs(rng, size, workdir):
    c, d = size["c"], size["d"]
    p = params(c, d)
    n, k = p["s"] + size["extra"], p["k"]
    bits = planted_bits(rng, n, k, p["s"])
    lines = []
    labels = combinations(range(1, n + 1), k)
    for index, X in enumerate(labels, 1):
        base = (index - 1) * k
        lines.extend(f"c {z} {index} {'RB'[bits[base + q]]}" for q, z in enumerate(X))
    files = {"coloring": "\n".join(lines) + "\n"}
    pattern_edges = sorted(random_pattern_edges(rng, c, d))
    files["pattern"] = f"bipartite {c} {d}\n" + "".join(f"e {i} {j}\n" for i, j in pattern_edges)
    k_rights = size["k"]
    files["complete"] = "".join(
        f"c {x} {y} {'RB'[rng.getrandbits(1)]}\n"
        for x in range(1, size["a"] * 2**k_rights + 1)
        for y in range(1, k_rights + 1)
    )
    paths = {}
    for name, text in files.items():
        paths[name] = os.path.join(workdir, name + ".txt")
        formats.save_text(paths[name], text)
    return {"n": n, "paths": paths, "workdir": workdir}


@dataclass
class RwResult:
    exit: int
    message: str
    first_line: Optional[str]


def first_line(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readline().rstrip("\n")
    except OSError:
        return None


def rw(tracer, argv, output=None):
    """Run one rw command in-process; stdout and stderr are captured."""
    sink = io.StringIO()
    with tracer.span("cli." + argv[0]) as counts:
        counts["exit"] = EXIT_RAISED  # stays if main raises
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code
        counts["exit"] = code
    messages = sink.getvalue().strip().splitlines()
    return RwResult(code, messages[-1] if messages else "", output and first_line(output))


def describe_rw(result):
    outcome = {"outcome": "exit", "exit": result.exit, "message": result.message}
    if result.first_line is not None:
        outcome["first_line"] = result.first_line
    return outcome


def formats_call(tracer, name, *args):
    """formats.<name>(*args) in a span that counts the text bytes parsed or emitted."""
    with tracer.span("formats." + name) as counts:
        result = getattr(formats, name)(*args)
        counts["bytes"] = len(result if isinstance(result, str) else args[0])
    return result


OUTPUTS = ("subsets", "homogeneous", "cert-extract", "cert-find", "cert-complete")


def cli_workload(inputs, size):
    p = params(size["c"], size["d"])
    n, b, s = inputs["n"], p["b"], p["s"]
    paths = dict(inputs["paths"])
    paths.update((name, os.path.join(inputs["workdir"], name + ".txt")) for name in OUTPUTS)
    planted = tuple(range(n - s + 1, n + 1))
    palette = 2 * comb(p["k"], b)

    def before_pass():
        for name in OUTPUTS:
            with contextlib.suppress(FileNotFoundError):
                os.remove(paths[name])

    def command(name, argv, output=None, replay=None, known_defect=None, **expect):
        return Op(
            name,
            run=lambda tr: rw(tr, argv, output),
            describe=describe_rw,
            expect={"outcome": "exit", "exit": EXIT_FOUND, **expect},
            replay=replay,
            known_defect=known_defect,
        )

    def replay_search(result, tracer):
        text = formats.load_text(paths["subsets"])
        derived = formats_call(tracer, "subset_coloring_from_text", text)
        if formats_call(tracer, "subset_coloring_to_text", derived) != text:
            return "subset coloring does not round-trip through its text form"
        found = find_homogeneous(tracer, derived, s)
        if found is None or found[0] != planted:
            return f"replayed search returned {found}, not the planted set"
        return None

    def replay_certificate(tracer, name):
        text = formats.load_text(paths[name])
        host, coloring, witness = formats_call(tracer, "certificate_from_text", text)
        if formats_call(tracer, "certificate_to_text", host, witness, coloring) != text:
            return None, "certificate does not round-trip through its text form"
        return witness, None

    def replay_pipeline_files(result, tracer):
        text = formats.load_text(paths["coloring"])
        host = formats_call(tracer, "infer_set_host", text, p["k"])
        coloring = formats_call(tracer, "coloring_from_text", text, host)
        pattern = formats.graph_from_text(formats.load_text(paths["pattern"]))
        witness, reason = replay_certificate(tracer, "cert-find")
        return reason or replay_pipeline(tracer, pattern, host, coloring, witness, planted)

    def replay_complete(result, tracer):
        text = formats.load_text(paths["complete"])
        coloring = formats_call(
            tracer, "coloring_from_text", text, formats.infer_complete_host(text)
        )
        with tracer.span("pigeonhole.extract_monochromatic_complete"):
            witness = br.extract_monochromatic_complete(coloring, size["a"], 2)
        expected, reason = replay_certificate(tracer, "cert-complete")
        if reason or witness != expected:
            return reason or "replayed complete witness differs from rw's"
        return None

    ops = [
        command("derive-coloring",
                ["derive-coloring", paths["coloring"], "--b", str(b), "-o", paths["subsets"]],
                paths["subsets"], first_line=f"subsetcoloring {n} {p['k']} {palette}"),
        command("find-homogeneous",
                ["find-homogeneous", paths["subsets"], "--s", str(s), "-o", paths["homogeneous"]],
                paths["homogeneous"], replay=replay_search,
                first_line="homogeneous " + " ".join(map(str, planted))),
        # Fed find-homogeneous's output verbatim, as the README documents.
        # Known defect: rw cannot parse that file's "homogeneous" header
        # and dies with a bare ValueError, so it writes no certificate and
        # the verify of that certificate is an input error.  Any other
        # failure of these two ops makes the run incorrect.
        command("extract-induced",
                ["extract-induced", paths["coloring"], "--a", str(p["a"]), "--b", str(b),
                 "--homogeneous", paths["homogeneous"], "-o", paths["cert-extract"]],
                known_defect={"outcome": "exception", "type": "ValueError"}),
        command("verify/extract", ["verify", paths["cert-extract"]],
                known_defect={"outcome": "exit", "exit": EXIT_INPUT}),
        command("find-induced",
                ["find-induced", paths["pattern"], paths["coloring"], "-o", paths["cert-find"]],
                replay=replay_pipeline_files),
        command("verify/find", ["verify", paths["cert-find"]]),
        command("extract-complete",
                ["extract-complete", paths["complete"], "--a", str(size["a"]), "--b", "2",
                 "-o", paths["cert-complete"]],
                replay=replay_complete),
        command("verify/complete", ["verify", paths["cert-complete"]]),
    ]
    return Workload(ops, before_pass)


# -- entry points ---------------------------------------------------------------

_BUILDERS = {
    "setgraph-constant": (constant_inputs, constant_workload),
    "setgraph-planted": (planted_inputs, planted_workload),
    "search-micro": (search_inputs, search_workload),
    "cli-files": (cli_inputs, cli_workload),
}


def make_inputs(name, seed, size, workdir):
    """The workload's raw inputs, generated from the seed alone."""
    return _BUILDERS[name][0](random.Random(seed), SIZES[size][name], workdir)


def build(name, inputs, size):
    """The workload's fixed op list over those inputs, with its pins."""
    return _BUILDERS[name][1](inputs, SIZES[size][name])
