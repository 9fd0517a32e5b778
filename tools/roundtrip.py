#!/usr/bin/env python3
"""The headline round trip through rw: write it, read it back, check it.

    python3 tools/roundtrip.py [--n 28] [--dir DIR]

Writes the constant RED coloring of B_{n,7} and the c=3, d=2 pattern
(three lefts, two rights, five edges) to a temporary directory, then
runs, each in a fresh process:

  rw find-induced   pattern and coloring -> certificate;
  rw extract-induced --a A --b 4, on the set [1..n], when n is below the
                    pattern's s = 35 and find-induced (exit 1) writes no
                    certificate: A = (n - 3) // 4 is the largest copy
                    whose s = 4A + 3 fits, when A >= 4 (n >= 19);
  rw verify         the certificate.

It prints each command's exit code, seconds and peak RSS (the child's
ru_maxrss), then the certificate's size and SHA-1, and deletes its
files.  n = 35 is the headline: a 686 MB coloring and a 1.5 GB
certificate.  Exit status 0 when every command exits as expected (0, or
1 for find-induced below n = 35), 1 otherwise.  Run from the root of a
checkout; the library is imported from its src/.  Standard library only.
"""

import argparse
import hashlib
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
K, B, S = 7, 4, 35  # the pattern's host arity, b and homogeneous-set size


def write_inputs(paths, n):
    """The pattern, the coloring and the homogeneous set [1..n], written in
    a process of their own, so that this one stays small: a child started
    by vfork counts the parent's peak RSS as its own."""
    sys.path.insert(0, str(SRC))
    from bipartite_ramsey import RED, constant_coloring, formats, make_graph, set_bipartite

    start = perf_counter()
    pattern = make_graph(3, (1, 2), {(1, 1), (2, 1), (3, 1), (1, 2), (3, 2)})
    coloring = constant_coloring(set_bipartite(n, K), RED)
    members = formats.homogeneous_to_text(range(1, n + 1), None)
    for name, chunks in (("pattern", formats.graph_chunks(pattern)),
                         ("coloring", formats.coloring_chunks(coloring)),
                         ("homogeneous", [members])):
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    print(f"B_{{{n},{K}}}: {coloring.graph.right_count:,} rights, "
          f"{coloring.graph.edge_count:,} edges, coloring of "
          f"{os.path.getsize(paths['coloring']):,} bytes written in "
          f"{perf_counter() - start:.2f} s", flush=True)


def rw(*argv):
    """Run one rw command in a fresh process, print its exit code, seconds
    and peak RSS, and return the exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("RW_BUDGET", None)
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "bipartite_ramsey.cli", *argv], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = perf_counter() - start
    peak = usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    shown = " ".join(Path(word).name for word in argv)  # file names without their directory
    print(f"rw {shown}: exit {proc.returncode}, {seconds:.2f} s, peak {peak:.1f} MB", flush=True)
    return proc.returncode


def sha1(path):
    digest = hashlib.sha1()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=28, help="ground set of the host B_{n,7}")
    parser.add_argument("--dir", default=None, help="where the files go (default: a temp dir)")
    args = parser.parse_args()
    if args.n < K:
        parser.error(f"--n must be at least {K}")

    with tempfile.TemporaryDirectory(dir=args.dir) as work:
        paths = {name: os.path.join(work, name + ".txt")
                 for name in ("pattern", "coloring", "homogeneous", "certificate")}
        writer = multiprocessing.get_context("spawn").Process(
            target=write_inputs, args=(paths, args.n)
        )
        writer.start()
        writer.join()
        if writer.exitcode:
            return 1

        expected = {"find": 0 if args.n >= S else 1}
        codes = {"find": rw("find-induced", paths["pattern"], paths["coloring"],
                            "-o", paths["certificate"])}
        a = (args.n - 3) // B
        if codes["find"] == 1 and not os.path.exists(paths["certificate"]) and a >= B:
            expected["extract"] = 0
            codes["extract"] = rw("extract-induced", paths["coloring"], "--a", str(a),
                                  "--b", str(B), "--homogeneous", paths["homogeneous"],
                                  "-o", paths["certificate"])
        if os.path.exists(paths["certificate"]):
            expected["verify"] = 0
            codes["verify"] = rw("verify", paths["certificate"])
            print(f"certificate: {os.path.getsize(paths['certificate']):,} bytes, "
                  f"sha1 {sha1(paths['certificate'])}")
        else:
            print(f"no certificate: n = {args.n} is below {4 * B + 3}, the least s of a copy")
    return 0 if codes == expected else 1


if __name__ == "__main__":
    sys.exit(main())
