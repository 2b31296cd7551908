"""Command line front end.

Subcommands: build, build-mixed, verify, partition, formula, search,
encode, decode, catalog.  Every subcommand accepts --json for
machine-readable output.  GRC files are the only medium between commands.

Exit codes: 0 pass / witness / SAT-decoded, 1 fail / exhausted /
UNSAT-claim / rainbow input, 2 usage or domain error, which includes
malformed or non-ASCII GRC, DIMACS and model files.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import _MODULE_OF

# the handlers look library names up here, through __getattr__, so each is
# imported on first use and a wrapper patched onto this module is the one called
_lib = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


_R2_HELP = ("two-color Ramsey number; only for a fan; must match R2_TABLE, "
            "else 2m+1 <= r2 <= 2(m^2-m+1)")

# the most digits a printed formula value may have: CPython's default limit
# on int-to-str conversion, which is what --json and the human line both need
_VALUE_DIGITS = 4300


def _forbid_pair(text: str) -> tuple[int, str]:
    color, sep, pid = text.partition("=")
    if not sep or not pid:
        raise argparse.ArgumentTypeError(f"expected <color>=<patternId>, got {text!r}")
    try:
        c = int(color)
    except ValueError:
        raise argparse.ArgumentTypeError(f"color must be an integer, got {color!r}")
    if c < 1:
        raise argparse.ArgumentTypeError("color must be >= 1")
    return c, pid


def _per_color_list(text: str) -> tuple[str | None, ...]:
    # "h10,h10" -> ("h10","h10"); "none" or "-" leaves a color unconstrained
    out: list[str | None] = []
    for token in text.split(","):
        token = token.strip()
        out.append(None if token in ("", "none", "-") else token)
    return tuple(out)


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _write_if_requested(args: argparse.Namespace, coloring) -> None:
    if getattr(args, "out", None):
        _lib.write_grc(coloring, args.out)


def _emit_built(args: argparse.Namespace, c) -> int:
    _write_if_requested(args, c)
    used = [color for color in range(1, c.k + 1) if color in c.colors]
    payload = {"size": c.n, "colors_used": used, "certified": not args.no_certify}
    _emit(args, payload, f"size {c.n}, colors used {used}, certified {payload['certified']}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    return _emit_built(
        args, _lib.build_lower(args.target, args.k, r2=args.r2, certify=not args.no_certify)
    )


def _cmd_build_mixed(args: argparse.Namespace) -> int:
    return _emit_built(args, _lib.build_mixed(args.k, args.s, certify=not args.no_certify))


def _cmd_verify(args: argparse.Namespace) -> int:
    c = _lib.read_grc(args.file)
    per_color: dict[int, str] = {}
    if args.forbid_all is not None:
        pid = _lib.canonical_id(args.forbid_all)
        per_color = {color: pid for color in range(1, c.k + 1)}
    for color, pid in args.forbid or []:
        if pid == "none":
            per_color.pop(color, None)
        else:
            per_color[color] = _lib.canonical_id(pid)
    spec = _lib.AvoidanceSpec.from_map(per_color, require_gallai=args.gallai)
    report = _lib.verify(c, spec)
    payload = {
        "passed": report.passed,
        "rainbow_witness": list(report.rainbow_witness) if report.rainbow_witness else None,
        "mono_witnesses": [
            {"color": e.color, "vertices": list(e.map)} for e in report.mono_witnesses
        ],
        "stats": {
            "pairs_scanned": report.stats.pairs_scanned,
            "embedding_nodes": report.stats.embedding_nodes,
            "patterns_checked": report.stats.patterns_checked,
        },
    }
    if report.passed:
        human = "pass"
    else:
        bits = []
        if report.rainbow_witness:
            bits.append(f"rainbow triangle {report.rainbow_witness}")
        for e in report.mono_witnesses:
            bits.append(f"color {e.color} copy on {e.map}")
        human = "fail: " + "; ".join(bits)
    _emit(args, payload, human)
    return 0 if report.passed else 1


def _cmd_partition(args: argparse.Namespace) -> int:
    c = _lib.read_grc(args.file)
    try:
        gp = _lib.gallai_partition(c)
    except _lib.RainbowTriangleError as exc:
        payload = {"rainbow_witness": list(exc.witness)}
        _emit(args, payload, f"rainbow triangle {exc.witness}")
        return 1
    payload = {
        "parts": [list(p) for p in gp.parts],
        "quotient_colors": list(gp.quotient.colors),
        "ell": gp.ell,
    }
    human = f"ell {gp.ell}, parts " + " ".join(
        "{" + ",".join(map(str, p)) + "}" for p in gp.parts
    )
    _emit(args, payload, human)
    return 0


def _cmd_formula(args: argparse.Namespace) -> int:
    if args.r2 is not None and not args.conjecture:
        raise _lib.FormulaError("--r2 applies only with --conjecture")
    if args.s is not None and args.conjecture:
        raise _lib.FormulaError("--s selects the mixed family, not the conjecture")
    if args.conjecture:
        m = _lib.fan_param(args.target)
        if m is None:
            raise _lib.FormulaError(f"--conjecture needs a kipas target, got {args.target!r}")
        gv = _lib.conjecture_kipas(m, args.k, r2=args.r2)
    elif args.s is not None:
        if _lib.fan_param(_lib.canonical_id(args.target)) != 4:
            raise _lib.FormulaError("--s selects the mixed family; target must be kipas(4)")
        gv = _lib.gr_mixed_value(args.k, args.s)
    else:
        gv = _lib.gr_value(args.target, args.k)
    if gv.value >= 10 ** _VALUE_DIGITS:
        raise _lib.FormulaError(f"the value has more than {_VALUE_DIGITS} digits, "
                                f"the bound on a printed value")
    payload = {
        "value": gv.value,
        "branch": gv.case_tag,
        "lower_construction_size": gv.value - 1,
    }
    _emit(args, payload,
          f"{gv.value}  branch {gv.case_tag}  lower construction {gv.value - 1} vertices")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    problem = _lib.SearchProblem(args.n, args.per_color, require_gallai=args.gallai)
    outcome = _lib.exhaustive_check(problem, max_nodes=args.max_nodes)
    payload = {
        "kind": outcome.kind,
        "nodes_explored": outcome.nodes_explored,
        "symmetry_reduced": outcome.symmetry_reduced,
    }
    if outcome.kind == "witness":
        payload["witness_colors"] = list(outcome.witness.colors)
        if args.out:
            _lib.write_grc(outcome.witness, args.out)
            payload["out"] = args.out
        _emit(args, payload,
              f"witness after {outcome.nodes_explored} nodes"
              + (f", written to {args.out}" if args.out else ""))
        return 0
    _emit(args, payload, f"exhausted after {outcome.nodes_explored} nodes, no coloring")
    return 1


def _cmd_encode(args: argparse.Namespace) -> int:
    k = len(args.per_color)
    if args.k is not None and args.k != k:
        raise _lib.CnfError(f"--k {args.k} disagrees with --per-color arity {k}")
    problem = _lib.SearchProblem(args.n, args.per_color, require_gallai=args.gallai)
    doc = _lib.encode_cnf(problem)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(doc.to_dimacs())
    payload = {
        "n": doc.n,
        "k": doc.k,
        "vars": doc.num_vars,
        "clauses": doc.num_clauses,
        "out": args.out,
    }
    _emit(args, payload,
          f"{doc.num_vars} vars, {doc.num_clauses} clauses written to {args.out}")
    return 0


def _read_ascii(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _lib.CnfError(f"{path}: non-ASCII byte at offset {exc.start}") from None


def _cmd_decode(args: argparse.Namespace) -> int:
    doc = _lib.parse_dimacs(_read_ascii(args.cnf), args.n, args.k)
    model = _lib.parse_model(_read_ascii(args.model))
    if model is None:
        _emit(args, {"kind": "unsat"}, "UNSAT claim, nothing to decode")
        return 1
    c = _lib.decode_assignment(doc, model)
    if not _lib.assignment_satisfies(doc, model):
        raise _lib.CnfError("model does not satisfy the formula it came with")
    _write_if_requested(args, c)
    payload = {"kind": "sat", "n": c.n, "k": c.k, "colors": list(c.colors)}
    if args.out:
        payload["out"] = args.out
    _emit(args, payload,
          "decoded satisfying coloring"
          + (f", written to {args.out}" if args.out else ""))
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    rows = []
    for cid, pattern in _lib.catalog():
        rows.append({
            "id": cid,
            "vertices": pattern.m,
            "edges": [list(e) for e in sorted(pattern.edges)],
            "chromatic_number": _lib.chromatic_number(pattern),
        })
    if args.json:
        print(json.dumps(rows))
    else:
        for row in rows:
            edges = " ".join(f"{a}{b}" for a, b in row["edges"])
            print(f"{row['id']}: {row['vertices']} vertices, "
                  f"chi {row['chromatic_number']}, edges {edges}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gallaikit",
        description="Build, verify, and search rainbow-triangle-free edge colorings.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("build", help="materialize a lower-bound coloring")
    p.add_argument("--target", required=True, help="pattern id, e.g. h10 or kipas(4)")
    p.add_argument("--k", type=int, required=True, help="number of colors")
    p.add_argument("--r2", type=int, help=_R2_HELP)
    p.add_argument("--out", help="write the coloring to this GRC file")
    p.add_argument("--no-certify", action="store_true",
                   help="skip the avoidance re-check (sizes still validated)")
    p.set_defaults(func=_cmd_build)

    p = subparsers.add_parser("build-mixed",
                              help="materialize a mixed-family lower-bound coloring")
    p.add_argument("--k", type=int, required=True, help="number of colors")
    p.add_argument("--s", type=int, required=True,
                   help="colors forbidding kipas(4); the rest forbid path(3)")
    p.add_argument("--out", help="write the coloring to this GRC file")
    p.add_argument("--no-certify", action="store_true",
                   help="skip the avoidance re-check (sizes still validated)")
    p.set_defaults(func=_cmd_build_mixed)

    p = subparsers.add_parser("verify", help="check a GRC file against avoidance flags")
    p.add_argument("file", help="GRC input")
    p.add_argument("--gallai", action="store_true", help="also forbid rainbow triangles")
    p.add_argument("--forbid", type=_forbid_pair, action="append", metavar="C=ID",
                   help="forbid pattern ID in color C (repeatable; ID 'none' unsets)")
    p.add_argument("--forbid-all", metavar="ID", help="forbid pattern ID in every color")
    p.set_defaults(func=_cmd_verify)

    p = subparsers.add_parser("partition", help="compute a Gallai partition of a GRC file")
    p.add_argument("file", help="GRC input")
    p.set_defaults(func=_cmd_partition)

    p = subparsers.add_parser("formula", help="evaluate a Gallai-Ramsey closed form")
    p.add_argument("--target", required=True, help="pattern id")
    p.add_argument("--k", type=int, required=True, help="number of colors")
    p.add_argument("--s", type=int,
                   help="mixed family: colors forbidding kipas(4) out of k")
    p.add_argument("--r2", type=int, help=_R2_HELP + " (with --conjecture)")
    p.add_argument("--conjecture", action="store_true",
                   help="evaluate the general kipas conjecture instead of a theorem")
    p.set_defaults(func=_cmd_formula)

    p = subparsers.add_parser("search", help="backtracking search for an avoiding coloring")
    p.add_argument("--n", type=int, required=True, help="host vertices")
    p.add_argument("--per-color", type=_per_color_list, required=True, metavar="ID,ID,...",
                   help="pattern per color; 'none' or '-' leaves a color free")
    p.add_argument("--gallai", action="store_true", help="also forbid rainbow triangles")
    p.add_argument("--mode", choices=("first", "exhaust"), default="first",
                   help="ignored: both values run the same search; kept for existing scripts")
    p.add_argument("--max-nodes", type=int, help="abort after this many search nodes")
    p.add_argument("--out", help="write a found witness to this GRC file")
    p.set_defaults(func=_cmd_search)

    p = subparsers.add_parser("encode", help="emit a DIMACS CNF for the same question")
    p.add_argument("--n", type=int, required=True, help="host vertices")
    p.add_argument("--k", type=int, help="number of colors (checked against --per-color)")
    p.add_argument("--per-color", type=_per_color_list, required=True, metavar="ID,ID,...",
                   help="pattern per color; 'none' or '-' leaves a color free")
    p.add_argument("--gallai", action="store_true", help="also forbid rainbow triangles")
    p.add_argument("--out", required=True, help="DIMACS output file")
    p.set_defaults(func=_cmd_encode)

    p = subparsers.add_parser("decode", help="turn a solver model back into a GRC file")
    p.add_argument("--cnf", required=True, help="DIMACS file the solver ran on")
    p.add_argument("--model", required=True, help="solver output file")
    p.add_argument("--n", type=int, required=True, help="host vertices")
    p.add_argument("--k", type=int, required=True, help="number of colors")
    p.add_argument("--out", help="write the decoded coloring to this GRC file")
    p.set_defaults(func=_cmd_decode)

    p = subparsers.add_parser("catalog", help="list the five-vertex pattern catalog")
    p.set_defaults(func=_cmd_catalog)

    for p in subparsers.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        # a bad file or a library error is the input's fault; anything else is a bug
        if not (isinstance(exc, OSError) or type(exc).__module__.startswith("gallaikit.")):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_main() -> None:
    """Entry point of a short-lived process: `python -m gallaikit.cli` and the
    console script.  The cyclic garbage collector would only walk what the
    imports built, in young passes during the run and again in the collection
    at interpreter shutdown, so it stays off and the heap is frozen (moved out
    of its sight) before exit.  main() leaves the collector alone, for callers
    that run it in process."""
    gc.disable()
    code = main(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    cli_main()
