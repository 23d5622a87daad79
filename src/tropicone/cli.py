"""Command line front end.

Subcommands: graph, cone, check, oracle. Exit codes: 0 success, 1 bad
input (a usage error and an index outside [1, n] included), a failed check,
the vertex cap of a graph build, running out of memory, recursion too deep
for the interpreter or an output path that cannot be written, 2 unsupported
index without --force (oracle forces the cones it censuses, so it never
exits 2), 3 internal assertion failure.
Identical invocations produce byte-identical output. JSON output is
json.dumps(payload, indent=2) plus a newline, byte for byte, spelled out by
jsontext.emit; --out writes the same bytes as stdout, atomically next to
their final path.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from array import array

from . import decograph, oracle, stringcone
from .decograph import GraphError, UnsupportedIndex, VertexCapExceeded, build_graph, to_dot, to_json_dict
from .jsontext import emit
from .oracle import MixedSigns
from .rootsystem import CartanType, cartan_matrix, root_table
from .stringcone import cone_from_graphs, dual_kostant_count, string_cone, weight_census, weights_up_to
from .wordtools import LimitExceeded, enumerate_w0_letters, parse_letters, parse_word, validate_word

OUTDIR_ENV = "TROPICONE_OUTDIR"


def _out_path(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _out_arg(value: str) -> str:
    """An --out value; an empty one names no file, so it is a usage error."""
    if not value:
        raise argparse.ArgumentTypeError("must name a file")
    return value


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    path = _out_path(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    data = memoryview(text.encode())
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tropicone-")
    try:
        try:
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load(type_str: str, word_str: str):
    cd = cartan_matrix(CartanType.parse(type_str))
    return cd, parse_word(cd, word_str)


def cmd_graph(args) -> int:
    cd, w = _load(args.type, args.word)
    if args.i is not None:
        g = build_graph(cd, w, args.i, force=args.force)
        text = to_dot(g) if args.format == "dot" else emit(to_json_dict(g))
    else:
        if args.format == "dot":
            raise ValueError("--i is required with dot output")
        bundle = {
            "type": str(cd.ctype),
            "word": list(w.letters),
            "graphs": [
                to_json_dict(build_graph(cd, w, i, force=args.force))
                for i in range(1, cd.n + 1)
            ],
        }
        text = emit(bundle)
    _write_output(text, args.out)
    return 0


def cmd_cone(args) -> int:
    cd, w = _load(args.type, args.word)
    cone = string_cone(cd, w, force=args.force)
    _write_output(stringcone.render(cone, args.format), args.out)
    return 0


def cmd_check(args) -> int:
    cd, w = _load(args.type, args.word)
    indices = [args.i] if args.i is not None else list(range(1, cd.n + 1))
    reports = []
    for i in indices:
        g = build_graph(cd, w, i, force=args.force)
        reports.append({"i": i, "verify": decograph.verify_graph(g), "violations": []})
    status = "pass" if all(r["verify"]["status"] == "pass" for r in reports) else "fail"
    payload = {
        "input": {"type": str(cd.ctype), "word": list(w.letters)},
        "graphs": reports,
        "status": status,
    }
    _write_output(emit(payload), args.out)
    return 0 if status == "pass" else 1


def _letter_array(rank: int) -> array:
    """An empty array of the smallest item type that holds every letter 1..rank."""
    return array(next(c for c in "BHILQ" if rank < 1 << 8 * array(c).itemsize))


def _all_letters(cd, limit: int):
    """Every reduced word of w0 laid end to end in one flat array, and the word length N.

    A kept word costs N small integers, not a tuple, and its item type
    (_letter_array) leaves no rank with a letter it cannot store.
    """
    letters = _letter_array(cd.n)
    for word in enumerate_w0_letters(cd, limit=limit):
        letters.extend(word)
    return letters, root_table(cd).positive


def cmd_oracle(args) -> int:
    if args.census_bound < 0:
        raise ValueError("--census-bound must be nonnegative")
    if args.word_limit < 1:
        raise ValueError("--word-limit must be positive")
    cd = cartan_matrix(CartanType.parse(args.type))
    if args.all_words:
        letters, N = _all_letters(cd, args.word_limit)
        count = len(letters) // N
    else:
        letters = parse_letters(args.word)
        N, count = len(letters), 1

    agreement = []
    census_failures = []
    census_checked = 0
    census_at = {0, count // 3, 2 * count // 3, count - 1}
    covered = oracle.covered_indices(cd)
    bound = args.census_bound
    mvecs = weights_up_to(cd.n, bound)

    def built(w, i):
        """The forced graph of w for i, compared with the oracles first when i is covered."""
        g = build_graph(cd, w, i, force=True)
        if i in covered:
            agreement.append(oracle.agreement_report(g))
        return g

    for k in range(count):
        if k not in census_at and not covered:
            continue  # neither an agreement nor a census word
        # each word is validated when it is used: where no index is covered most words never are
        w = validate_word(cd, letters[k * N : (k + 1) * N])
        if k not in census_at:
            for i in covered:
                built(w, i)
            continue
        # forced: each count is checked against Kostant, so an unproven cone is tested, not trusted;
        # its graphs are built as the cone draws them, so one is alive at a time
        cone = cone_from_graphs(cd, w, (built(w, i) for i in range(1, cd.n + 1)))
        for mv in mvecs:
            got = weight_census(cone, mv)
            want = dual_kostant_count(cd, mv)
            census_checked += 1
            if got != want:
                census_failures.append(
                    {"word": list(w.letters), "mvec": list(mv), "census": got, "kostant": want}
                )

    status = "pass" if (
        all(r["status"] == "pass" for r in agreement) and not census_failures
    ) else "fail"
    payload = {
        "input": {"type": str(cd.ctype), "words": count, "census_bound": bound},
        "agreement": agreement,
        "census_checked": census_checked,
        "census_failures": census_failures,
        "status": status,
    }
    _write_output(emit(payload), args.out)
    return 0 if status == "pass" else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="tropicone",
        description="Monomial graphs and string cone inequality systems over reduced words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True, help="Cartan type, e.g. C3")
        p.add_argument("--word", required=True, help="comma-separated reduced word of w0")
        p.add_argument("--out", type=_out_arg, default=None, help="output file (default stdout)")
        p.add_argument("--force", action="store_true", help="build even without a proven description")

    g = sub.add_parser("graph", help="build the monomial graph for one index")
    common(g)
    g.add_argument("--i", type=int, default=None, help="index; omit for a JSON bundle of all")
    g.add_argument("--format", choices=("dot", "json"), default="dot")
    g.set_defaults(func=cmd_graph)

    c = sub.add_parser("cone", help="emit the full inequality system")
    common(c)
    c.add_argument("--format", choices=("text", "json", "latex"), default="text")
    c.set_defaults(func=cmd_cone)

    k = sub.add_parser("check", help="run the invariant suite on a word")
    common(k)
    k.add_argument("--i", type=int, default=None, help="restrict to one index")
    k.set_defaults(func=cmd_check)

    o = sub.add_parser("oracle", help="brute-force agreement and census sweeps")
    o.add_argument("--type", required=True, help="Cartan type, e.g. A3")
    which = o.add_mutually_exclusive_group(required=True)
    which.add_argument("--word", help="single word to sweep")
    which.add_argument("--all-words", action="store_true", help="sweep every reduced word")
    o.add_argument("--word-limit", type=int, default=100000)
    o.add_argument("--census-bound", type=int, default=2, help="max letter-sum for the census")
    o.add_argument("--out", type=_out_arg, default=None)
    o.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, a code kept here for unproven indices
        return 1 if e.code else 0
    try:
        return args.func(args)
    except UnsupportedIndex as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (VertexCapExceeded, LimitExceeded, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (GraphError, MixedSigns, AssertionError) as e:
        print(f"internal assertion failed: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 1
    except RecursionError:
        # the word search and the Kostant count recurse once per positive root: past about 1,000 (A45)
        print(f"error: recursion too deep running {args.command}", file=sys.stderr)
        return 1
    except OSError as e:
        target = "stdout" if args.out is None else _out_path(args.out)
        print(f"error: cannot write {target}: {e.strerror or e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
