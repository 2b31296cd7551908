"""Command line front end.  One table, COMMANDS, is the only source of what
each subcommand parses and of what its -h/--help prints; every subcommand
takes --json for machine-readable output.  GRC files are the only medium
between commands.  A handler prints nothing: it returns its exit code, its
JSON payload and its human line, and main prints one of the two, the
payload under --json.

Exit codes: 0 pass / witness / SAT-decoded, 1 fail / exhausted /
UNSAT-claim / rainbow input, 2 usage or domain error, which includes
malformed or non-ASCII GRC, DIMACS and model files.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import re
import sys
from types import SimpleNamespace

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


_R2_HELP = "two-color Ramsey number, fans only; must match R2_TABLE, else 2m+1 <= r2 <= 2(m^2-m+1)"

# the most digits a printed formula value may have: CPython's default limit
# on int-to-str conversion, which is what --json and the human line both need
_VALUE_DIGITS = 4300


# the integers of the command line follow the rule of every input file:
# ASCII -?[0-9]+, so '+3', ' 3', '1_0' and non-ASCII digits, which int()
# would read, are usage errors
_INTEGER = re.compile(r"-?[0-9]+").fullmatch


def _integer(text: str) -> int:
    if not _INTEGER(text):
        raise ValueError(f"expected an integer, -?[0-9]+, got {text!r}")
    return int(text)


def _forbid_pair(text: str) -> tuple[int, str]:
    color, sep, pid = text.partition("=")
    if not sep or not pid:
        raise ValueError(f"expected <color>=<patternId>, got {text!r}")
    if not _INTEGER(color):
        raise ValueError(f"color must be an integer, -?[0-9]+, got {color!r}")
    if int(color) < 1:
        raise ValueError("color must be >= 1")
    return int(color), pid


def _per_color_list(text: str) -> tuple[str | None, ...]:
    # "h10,h10" -> ("h10","h10"); "none" or "-" leaves a color unconstrained
    out: list[str | None] = []
    for token in text.split(","):
        token = token.strip()
        out.append(None if token in ("", "none", "-") else token)
    return tuple(out)


def _write_out(args: SimpleNamespace, coloring) -> tuple[dict, str]:
    """Write the coloring to --out, if given: the payload's out key and the
    human line's tail that say so."""
    if not args.out:
        return {}, ""
    _lib.write_grc(coloring, args.out)
    return {"out": args.out}, f", written to {args.out}"


def _built(args: SimpleNamespace, c):
    _write_out(args, c)  # the build payloads name no file, as CI pins them
    used = [color for color in range(1, c.k + 1) if color in c.colors]
    payload = {"size": c.n, "colors_used": used, "certified": not args.no_certify}
    return 0, payload, f"size {c.n}, colors used {used}, certified {payload['certified']}"


def _cmd_build(args: SimpleNamespace):
    return _built(args, _lib.build_lower(args.target, args.k, r2=args.r2,
                                         certify=not args.no_certify))


def _cmd_build_mixed(args: SimpleNamespace):
    return _built(args, _lib.build_mixed(args.k, args.s, certify=not args.no_certify))


def _cmd_verify(args: SimpleNamespace):
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
        return 0, payload, "pass"
    bits = [f"rainbow triangle {report.rainbow_witness}"] if report.rainbow_witness else []
    bits += [f"color {e.color} copy on {e.map}" for e in report.mono_witnesses]
    return 1, payload, "fail: " + "; ".join(bits)


def _cmd_partition(args: SimpleNamespace):
    c = _lib.read_grc(args.file)
    try:
        gp = _lib.gallai_partition(c)
    except _lib.RainbowTriangleError as exc:
        return 1, {"rainbow_witness": list(exc.witness)}, f"rainbow triangle {exc.witness}"
    payload = {
        "parts": [list(p) for p in gp.parts],
        "quotient_colors": list(gp.quotient.colors),
        "ell": gp.ell,
    }
    return 0, payload, f"ell {gp.ell}, parts " + " ".join(
        "{" + ",".join(map(str, p)) + "}" for p in gp.parts)


def _cmd_formula(args: SimpleNamespace):
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
    return 0, payload, (f"{gv.value}  branch {gv.case_tag}  "
                        f"lower construction {gv.value - 1} vertices")


def _cmd_search(args: SimpleNamespace):
    problem = _lib.SearchProblem(args.n, args.per_color, require_gallai=args.gallai)
    outcome = _lib.exhaustive_check(problem, max_nodes=args.max_nodes)
    payload = {
        "kind": outcome.kind,
        "nodes_explored": outcome.nodes_explored,
        "symmetry_reduced": outcome.symmetry_reduced,
    }
    if outcome.kind != "witness":
        return 1, payload, f"exhausted after {outcome.nodes_explored} nodes, no coloring"
    out, tail = _write_out(args, outcome.witness)
    payload.update(witness_colors=list(outcome.witness.colors), **out)
    return 0, payload, f"witness after {outcome.nodes_explored} nodes{tail}"


def _cmd_encode(args: SimpleNamespace):
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
    return 0, payload, f"{doc.num_vars} vars, {doc.num_clauses} clauses written to {args.out}"


def _read_ascii(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _lib.CnfError(f"{path}: non-ASCII byte at offset {exc.start}") from None


def _cmd_decode(args: SimpleNamespace):
    doc = _lib.parse_dimacs(_read_ascii(args.cnf), args.n, args.k)
    model = _lib.parse_model(_read_ascii(args.model))
    if model is None:
        return 1, {"kind": "unsat"}, "UNSAT claim, nothing to decode"
    c = _lib.decode_assignment(doc, model)
    if not _lib.assignment_satisfies(doc, model):
        raise _lib.CnfError("model does not satisfy the formula it came with")
    out, tail = _write_out(args, c)
    payload = {"kind": "sat", "n": c.n, "k": c.k, "colors": list(c.colors), **out}
    return 0, payload, "decoded satisfying coloring" + tail


def _cmd_catalog(args: SimpleNamespace):
    rows, lines = [], []
    for cid, pattern in _lib.catalog():
        edges = [list(e) for e in sorted(pattern.edges)]
        chi = _lib.chromatic_number(pattern)
        rows.append({"id": cid, "vertices": pattern.m, "edges": edges, "chromatic_number": chi})
        lines.append(f"{cid}: {pattern.m} vertices, chi {chi}, edges "
                     + " ".join(f"{a}{b}" for a, b in edges))
    return 0, rows, "\n".join(lines)


# command: (help, handler, positionals as (name, help), options), and every
# command also takes --json and -h/--help.  An option is (name, kind, need,
# help): its kind is _integer, str, bool (a flag), a tuple of choices or a
# function of the text that raises ValueError; its need is _REQUIRED,
# _REPEATED (the values are appended to a list) or its default.
_REQUIRED, _REPEATED = object(), object()
_K = ("--k", _integer, _REQUIRED, "number of colors")
_N = ("--n", _integer, _REQUIRED, "host vertices")
_GALLAI = ("--gallai", bool, False, "also forbid rainbow triangles")
_NO_CERTIFY = ("--no-certify", bool, False, "skip the avoidance re-check (sizes still validated)")
_GRC_OUT = ("--out", str, None, "write the coloring to this GRC file")
_PER_COLOR = ("--per-color", _per_color_list, _REQUIRED,
              "pattern per color, ID,ID,...; 'none' or '-' leaves a color free")
_FILE = (("file", "GRC input"),)
_JSON = ("--json", bool, False, "machine-readable output")
_HELP = ("-h", "--help")
COMMANDS = {
    "build": ("materialize a lower-bound coloring", _cmd_build, (), (
        ("--target", str, _REQUIRED, "pattern id, e.g. h10 or kipas(4)"), _K,
        ("--r2", _integer, None, _R2_HELP), _GRC_OUT, _NO_CERTIFY)),
    "build-mixed": ("materialize a mixed-family lower-bound coloring", _cmd_build_mixed, (), (
        _K, ("--s", _integer, _REQUIRED, "colors forbidding kipas(4); the rest forbid path(3)"),
        _GRC_OUT, _NO_CERTIFY)),
    "verify": ("check a GRC file against avoidance flags", _cmd_verify, _FILE, (
        _GALLAI, ("--forbid", _forbid_pair, _REPEATED,
                  "C=ID: forbid pattern ID in color C (repeatable; ID 'none' unsets)"),
        ("--forbid-all", str, None, "forbid pattern ID in every color"))),
    "partition": ("compute a Gallai partition of a GRC file", _cmd_partition, _FILE, ()),
    "formula": ("evaluate a Gallai-Ramsey closed form", _cmd_formula, (), (
        ("--target", str, _REQUIRED, "pattern id"), _K,
        ("--s", _integer, None, "mixed family: colors forbidding kipas(4) out of k"),
        ("--r2", _integer, None, _R2_HELP + " (with --conjecture)"),
        ("--conjecture", bool, False, "evaluate the general kipas conjecture, not a theorem"))),
    "search": ("backtracking search for an avoiding coloring", _cmd_search, (), (
        _N, _PER_COLOR, _GALLAI, ("--mode", ("first", "exhaust"), "first",
                                  "first or exhaust; ignored, both run the same search"),
        ("--max-nodes", _integer, None, "abort after this many search nodes"), _GRC_OUT)),
    "encode": ("emit a DIMACS CNF for the same question", _cmd_encode, (), (
        _N, ("--k", _integer, None, "number of colors (checked against --per-color)"),
        _PER_COLOR, _GALLAI, ("--out", str, _REQUIRED, "DIMACS output file"))),
    "decode": ("turn a solver model back into a GRC file", _cmd_decode, (), (
        ("--cnf", str, _REQUIRED, "DIMACS file the solver ran on"),
        ("--model", str, _REQUIRED, "solver output file"), _N, _K, _GRC_OUT)),
    "catalog": ("list the five-vertex pattern catalog", _cmd_catalog, (), ()),
}


class UsageError(Exception):
    """A command line that COMMANDS does not accept (exit 2)."""


def _option(token: str, names) -> str | None:
    """The option a token names, by name or unique prefix ("" if it names none
    or several), or None for a value: a token not starting with "-", "-"
    itself, a negative number such as -3, -.5 or -1.5, or text with a space."""
    if token[:1] != "-" or token == "-":
        return None
    name = token.partition("=")[0]
    found = [n for n in names if n.startswith(name) and (n == name or name[:2] == "--" != name)]
    if len(found) == 1 or name in found:
        return name if name in found else found[0]
    number = token[1:].replace(".", "", 1).isdecimal() and token[-1] != "."
    return None if not found and (number or " " in token) else ""


def _help(command: str | None):
    """The help of a command, or of the program if command is None."""
    if command is None:
        usage, summary = "COMMAND", "Build, verify and search rainbow-triangle-free colorings."
        rows = [(name, spec[0]) for name, spec in COMMANDS.items()]
    else:
        summary, _, positionals, options = COMMANDS[command]
        usage = " ".join((command, "[options]", *(name for name, _ in positionals)))
        rows = [*positionals, *((name + " VALUE" * (kind is not bool),
                                 text + " (required)" * (need is _REQUIRED))
                                for name, kind, need, text in (*options, _JSON))]
    rows.append((", ".join(_HELP), "show this help and exit"))
    return 0, None, "\n".join([f"usage: gallaikit {usage}", "", summary, ""]
                              + [f"  {left:<22}  {text}" for left, text in rows])


def _parse(argv: list[str]):
    """The handler of a command line and its argument, which for -h/--help are
    _help and the command; raises UsageError for a line COMMANDS refuses."""
    if not argv or argv[0] not in COMMANDS:
        if argv and _option(argv[0], _HELP) in _HELP:
            return _help, None
        raise UsageError(f"argument command: {repr(argv[0]) if argv else 'required'}, "
                         f"choose from {', '.join(COMMANDS)}")
    _, handler, positionals, options = COMMANDS[argv[0]]
    table = {option[0]: option for option in (*options, _JSON)}
    values = {name: None if need is _REPEATED else need for name, _, need, _ in table.values()}
    values.update((name, _REQUIRED) for name, _ in positionals)
    given, tokens = [], iter(argv[1:])
    for token in tokens:
        name = _option(token, (*table, *_HELP))
        if name in _HELP:
            return _help, argv[0]
        if name is None:
            given.append(token)
            continue
        if not name:
            raise UsageError(f"argument {token}: no such option, or not a unique prefix of one")
        _, kind, need, _ = table[name]
        _, eq, text = token.partition("=")
        if kind is bool and eq:
            raise UsageError(f"argument {name}: takes no value")
        if kind is not bool and not eq:
            text = next(tokens, None)
            if text is None or _option(text, (*table, *_HELP)) is not None:
                raise UsageError(f"argument {name}: expected one value")
        if type(kind) is tuple and text not in kind:
            raise UsageError(f"argument {name}: {text!r} is not one of {', '.join(kind)}")
        try:
            value = True if kind is bool else text if type(kind) is tuple else kind(text)
        except ValueError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
        values[name] = (values[name] or []) + [value] if need is _REPEATED else value
    values.update(zip((name for name, _ in positionals), given))
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if len(given) > len(positionals):
        raise UsageError(f"unrecognized arguments: {' '.join(given[len(positionals):])}")
    return handler, SimpleNamespace(**{name.lstrip("-").replace("-", "_"): value
                                       for name, value in values.items()})


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        code, payload, human = handler(args)
        # the one stdout write: help has no payload, and --json prints the payload
        print(human if payload is None or not args.json else json.dumps(payload))
        return code
    except Exception as exc:
        # a usage, file or library error is the input's fault; anything else is a bug
        if not (isinstance(exc, (UsageError, OSError))
                or type(exc).__module__.startswith("gallaikit.")):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_main() -> None:
    """Entry point of a short-lived process: `python -m gallaikit.cli` and the
    console script.  The cyclic garbage collector would only walk what the
    imports built, so it stays off.  Once main() returns, the atexit handlers
    run and stdout and stderr are flushed; then os._exit ends the process,
    which skips the module teardown and the freeing of every object that a
    normal exit would do, work whose result nobody reads.  Every file a
    command writes is closed by its with block before main() returns.  A
    stdout flush that fails, such as on a closed pipe, or a stdout closed
    from the start, is reported like an OSError inside main(): one error
    line and exit code 2.  main() leaves the collector alone, for callers
    that run it in process, and an exception it raises propagates as from
    any call."""
    gc.disable()
    code = main(sys.argv[1:])
    atexit._run_exitfuncs()
    try:
        if sys.stdout is None:  # fd 1 was closed at start, so print() wrote nothing
            raise OSError("stdout is closed")
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    cli_main()
