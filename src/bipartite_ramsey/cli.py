"""Command-line front end.

Exit codes: 0 = witness found / verified, 1 = definitively absent (or a
certificate that checks as invalid), 2 = enumeration budget exceeded,
3 = input error, a usage error included.  The environment variable
RW_BUDGET overrides the default enumeration cap.
"""

import argparse
import os
import sys

from . import formats
from .constructions import complete_bipartite, embed_into_set_bipartite, set_bipartite
from .constructions import required_parameters
from .errors import BudgetExceededError, ParameterError, ValidationError
from .extraction import extract_induced
from .graphs import verify_witness
from .hypergraph import (
    decode_derived,
    derive_coloring,
    find_homogeneous_set,
    ramsey_number_exact,
)
from .pigeonhole import extract_monochromatic_complete
from .pipeline import find_induced_mono_pattern
from .subsets import capped_comb

EXIT_FOUND = 0
EXIT_ABSENT = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


def _budget():
    raw = os.environ.get("RW_BUDGET")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"RW_BUDGET must be an integer, got {raw!r}")


def _read(parse, path, *args):
    """parse(the open UTF-8 text file at path, *args)."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh, *args)


def _save(chunks, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _emit(chunks, path):
    """Write a writer's chunks to path, or to stdout when path is None or
    '-'.  Every input check is done before this opens the output."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        _save(chunks, path)


def _emit_certificate(args, host, witness, coloring=None):
    dot = None
    if getattr(args, "dot", None):
        dot = formats.dot_chunks(host, coloring, witness)  # checks the witness first
    _emit(formats.certificate_chunks(host, witness, coloring), args.output)
    if dot is not None:
        _save(dot, args.dot)


def _check_host(name, lefts, rights):
    """ParameterError, before anything is built, for a host with more lefts
    or rights than a graph file may name (rights as capped_comb counts them)."""
    if max(lefts, rights) > formats._MAX_INDEX:
        raise ParameterError(f"{name} has more than {formats._MAX_INDEX} lefts or rights")


def cmd_build(args):
    complete = args.kind == "complete"
    rights = args.k if complete else capped_comb(args.n, args.k, formats._MAX_INDEX + 1)
    _check_host(f"{'K' if complete else 'B'}_({args.n},{args.k})", args.n, rights)
    graph = (complete_bipartite if complete else set_bipartite)(args.n, args.k)
    _emit(formats.graph_chunks(graph), args.output)
    return EXIT_FOUND


def cmd_embed(args):
    pattern = _read(formats.graph_from_text, args.pattern)
    p = required_parameters(pattern)
    _check_host(f"B_({p.a},{p.b})", p.a, capped_comb(p.a, p.b, formats._MAX_INDEX + 1))
    result = embed_into_set_bipartite(pattern)
    host = set_bipartite(result.a, result.b)
    print(f"embedded into B_({result.a},{result.b})", file=sys.stderr)
    _emit_certificate(args, host, result.witness)
    return EXIT_FOUND


def cmd_extract_complete(args):
    coloring = _read(formats.complete_coloring_from_text, args.coloring)
    witness = extract_monochromatic_complete(coloring, args.a, args.b)
    _emit_certificate(args, coloring.graph, witness, coloring)
    return EXIT_FOUND


def cmd_derive_coloring(args):
    coloring = _read(formats.set_coloring_from_text, args.coloring, 2 * args.b - 1)
    derived = derive_coloring(coloring, args.b)
    _emit(formats.subset_coloring_chunks(derived), args.output)
    return EXIT_FOUND


def cmd_find_homogeneous(args):
    sc = _read(formats.subset_coloring_from_text, args.subsetcoloring)
    found = find_homogeneous_set(sc, args.s, budget=_budget())
    if found is None:
        print(f"no homogeneous set of size {args.s}", file=sys.stderr)
        return EXIT_ABSENT
    _emit([formats.homogeneous_to_text(*found)], args.output)
    return EXIT_FOUND


def cmd_extract_induced(args):
    coloring = _read(formats.set_coloring_from_text, args.coloring, 2 * args.b - 1)
    members, value = _read(formats.homogeneous_from_text, args.homogeneous)
    if value is None:
        if len(members) < 2 * args.b - 1:
            raise ParameterError(f"homogeneous set too small: {members}")
        # Take the value of the set's first subset; extract_induced
        # re-verifies that every other subset agrees before building anything.
        value = derive_coloring(coloring, args.b).value_of(tuple(members[: 2 * args.b - 1]))
    derived = decode_derived(value, args.b)
    witness = extract_induced(members, derived, args.a, args.b, coloring.graph, coloring)
    _emit_certificate(args, coloring.graph, witness, coloring)
    return EXIT_FOUND


def cmd_find_induced(args):
    pattern = _read(formats.graph_from_text, args.pattern)
    k = required_parameters(pattern).k
    coloring = _read(formats.set_coloring_from_text, args.coloring, k)
    witness = find_induced_mono_pattern(pattern, coloring, budget=_budget())
    if witness is None:
        print("no homogeneous set; no witness at this ground-set size", file=sys.stderr)
        return EXIT_ABSENT
    _emit_certificate(args, coloring.graph, witness, coloring)
    return EXIT_FOUND


def cmd_verify(args):
    host, coloring, witness = _read(formats.certificate_from_text, args.certificate)
    if verify_witness(host, witness, coloring):
        print("witness OK", file=sys.stderr)
        return EXIT_FOUND
    print("witness INVALID", file=sys.stderr)
    return EXIT_ABSENT


def cmd_ramsey_number(args):
    value = ramsey_number_exact(
        args.arity, args.palette, args.size, args.max_n, budget=_budget()
    )
    if value is None:
        print(f"no n <= {args.max_n} suffices", file=sys.stderr)
        return EXIT_ABSENT
    print(value)
    return EXIT_FOUND


def cmd_params(args):
    report = required_parameters(_read(formats.graph_from_text, args.pattern))
    for name in ("c", "d", "a", "b", "k", "s"):
        print(f"{name} {getattr(report, name)}")
    print(f"palette {report.palette_text}")
    print(f"n {report.n_formula}")
    return EXIT_FOUND


def cmd_dot(args):
    graph = _read(formats.graph_from_text, args.graph)
    coloring = None
    if args.coloring:
        coloring = _read(formats.coloring_from_text, args.coloring, graph)
    witness = None
    if args.certificate:
        _, _, witness = _read(formats.certificate_from_text, args.certificate)
    _emit(formats.dot_chunks(graph, coloring, witness), args.output)
    return EXIT_FOUND


def _add_output(p, dot=True):
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    if dot:
        p.add_argument("--dot", default=None, help="also write a DOT rendering here")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rw",
        description="Certificate-producing bipartite Ramsey constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a complete or set-membership graph")
    p.add_argument("kind", choices=("complete", "setgraph"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_output(p, dot=False)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("embed", help="embed a pattern induced into a set graph")
    p.add_argument("pattern")
    _add_output(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser(
        "extract-complete",
        help="monochromatic complete subgraph from a colored complete host",
    )
    p.add_argument("coloring", help="edge-coloring file of some K_(n,k)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=cmd_extract_complete)

    p = sub.add_parser("derive-coloring", help="subset coloring derived from a colored set graph")
    p.add_argument("coloring", help="edge-coloring file of some B_(n,2b-1)")
    p.add_argument("--b", type=int, required=True)
    _add_output(p, dot=False)
    p.set_defaults(func=cmd_derive_coloring)

    p = sub.add_parser("find-homogeneous", help="first homogeneous set of a subset coloring")
    p.add_argument("subsetcoloring")
    p.add_argument("--s", type=int, required=True)
    _add_output(p, dot=False)
    p.set_defaults(func=cmd_find_homogeneous)

    p = sub.add_parser(
        "extract-induced",
        help="induced monochromatic set graph from a homogeneous set",
    )
    p.add_argument("coloring", help="edge-coloring file of some B_(n,2b-1)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--homogeneous", required=True, help="file listing the homogeneous set")
    _add_output(p)
    p.set_defaults(func=cmd_extract_induced)

    p = sub.add_parser("find-induced", help="full pipeline for an arbitrary pattern")
    p.add_argument("pattern")
    p.add_argument("coloring")
    _add_output(p)
    p.set_defaults(func=cmd_find_induced)

    p = sub.add_parser("verify", help="check a witness certificate")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ramsey-number", help="exact micro-scale Ramsey number")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--palette", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=cmd_ramsey_number)

    p = sub.add_parser("params", help="pipeline constants for a pattern")
    p.add_argument("pattern")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("dot", help="DOT rendering of a graph")
    p.add_argument("graph")
    p.add_argument("--coloring", default=None)
    p.add_argument("--certificate", default=None, help="highlight this certificate's witness")
    _add_output(p, dot=False)
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValidationError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
