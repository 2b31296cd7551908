"""The CLI's option table against the argparse parser it replaced.

conftest.argparse_cli_parser() is the former parser, with the CLI's integer
type in place of int.  On every line argparse accepts, the table's parser
must give the same handler and the same value, of the same type, in every
field; on every line argparse refuses, both must exit 2 and print nothing
on stdout.  The corpus is each CLI line of the CI workflow and the README,
the argv forms the benchmark's workloads run, and variants of them.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest
from conftest import argparse_cli_parser

from gallaikit import cli
from gallaikit.cli import main
from gallaikit.formulas import ANCHORS

ROOT = Path(__file__).resolve().parents[1]
NINES = "9" * 5000

# the CLI lines of .github/workflows/tests.yml, its shell variables filled in
WORKFLOW = [
    'search --n 9 --per-color "kipas(4),kipas(4)" --out w.grc',
    "decode --cnf ramsey_kipas4_n9_sat.cnf --model w.model --n 9 --k 2 --out back.grc",
    "decode --cnf bad.cnf --model bad.model --n 3 --k 1",
    "decode --cnf empty.cnf --model bad.model --n 3 --k 1",
    'build --target "kipas(6)" --k 2 --r2 13',
    'build --target "kipas(5)" --k 2 --r2 12 --json',
    f'formula --target "kipas({NINES})" --k 3',
    f'search --n 3 --per-color "kipas({NINES}),none"',
    "formula --target h1 --k 100000",
    "formula --target h1 --k 100000 --json",
    "formula --target h1 --k 100000000",
    "build --target h1 --k 100000000",
    "search --n 100000 --per-color none,none",
    "encode --n 400 --per-color none,none,none --gallai --out big.cnf",
    "encode --n 60 --per-color none,none,none,none,none,none,none,none,none,none"
    " --gallai --out big.cnf",
    "build --target h10 --k 8 --out t.grc",
    "partition --json t.grc",
    "partition --json wide.grc",
    "partition bad.grc",
    "verify prime.grc --gallai --json",
    "partition prime.grc --json",
    "build --target h1 --k 9 --out big.grc",
    "verify big.grc --gallai --forbid-all h1 --json",
    "partition big.grc --json",
    "search --n 6 --per-color k3,k3 --json",
    "catalog --json",
] + [  # the extremal searches, one pair per formulas.ANCHORS entry
    f"search --n {n} --per-color {','.join(per_color)} {'--gallai' * gallai} --json"
    for per_color, gallai, value in ANCHORS for n in (value - 1, value)
]

# the argv forms of gkbench/workloads.py, over its TOWERS, SEARCHES and
# ENCODES tables; the benchmark's traced runs add --json to each
WORKLOADS = [
    *(f"build --target {t} --k {k} --out {t}-k{k}.out.grc"
      for t, k in (("h1", 6), ("kipas(4)", 6), ("h10", 8), ("kipas(2)", 2), ("h10", 3))),
    *(f"verify {tag}.grc --gallai --forbid-all {p}"
      for tag, p in (("h1", "h1"), ("kipas4", "kipas(4)"), ("p600-rb", "h1"), ("h10-k3", "h10"))),
    *(f"partition {tag}.grc" for tag in ("h10", "j1000", "j1000-rb")),
    *(f"search --n {n} --per-color {p},{p} --mode {mode}" + f" --out search-{p}-n{n}.grc" * out
      for p, n, mode, out in (("h1", 9, "first", False), ("h10", 7, "exhaust", False),
                              ("kipas(4)", 9, "first", True), ("h5", 9, "first", True),
                              ("k3", 6, "exhaust", False))),
    *(f"encode --n {n} --k {k} --per-color {','.join([p] * k)} --out {name}.cnf"
      + " --gallai" * gallai
      for name, n, k, p, gallai in (("kipas4_n9", 9, 2, "kipas(4)", False),
                                    ("h10_n11", 11, 3, "h10", True), ("k3_n5", 5, 2, "k3", False))),
    *(f"decode --cnf dec-{name}.cnf --model dec-{name}.model --n {n} --k {k} --out dec-{name}.grc"
      for name, n, k in (("kipas4_n9", 9, 2), ("h10_n10", 10, 3), ("k3_n5", 5, 2))),
]


def readme_lines() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    return [line[len("gallaikit "):] for block in blocks for line in block.splitlines()
            if line.startswith("gallaikit ")]


def corpus() -> list[list[str]]:
    lines = [shlex.split(line, comments=True) for line in WORKFLOW + readme_lines()]
    lines += [shlex.split(line) + extra for line in WORKLOADS for extra in ([], ["--json"])]
    return lines


def oracle_options(command: str) -> dict[str, argparse.Action]:
    parser = argparse_cli_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(sub.choices[command]._option_string_actions)


def units(argv: list[str]) -> list[list[str]]:
    """A line's options with their values, flags and positionals, in order."""
    actions, out, rest = oracle_options(argv[0]), [], iter(argv[1:])
    for token in rest:
        takes_value = token in actions and actions[token].nargs != 0
        out.append([token, next(rest)] if takes_value else [token])
    return out


def variants(argv: list[str]) -> list[list[str]]:
    """The same line as --name=value, reordered, by unique prefixes, with
    each option given twice, and with each int option negative."""
    actions, parts = oracle_options(argv[0]), units(argv)

    def prefix(name: str) -> str:
        for size in range(3, len(name)):
            if [other for other in actions if other.startswith(name[:size])] == [name]:
                return name[:size]
        return name

    def earlier(unit: list[str]) -> list[str]:
        # a first value the second overrides; --forbid appends both
        first = {"--mode": "exhaust", "--forbid": "1=h1"}.get(unit[0], "1")
        return [unit[0], first] if len(unit) == 2 else unit

    def flat(us: list[list[str]]) -> list[str]:
        return [argv[0]] + [token for unit in us for token in unit]

    return [
        [argv[0]] + ["=".join(u) if len(u) == 2 else u[0] for u in parts],
        flat(parts[::-1]),
        flat([[prefix(u[0]), *u[1:]] if u[0] in actions else u for u in parts]),
        flat([earlier(u) for u in parts if u[0] in actions] + parts),
        flat([[u[0], "-3"] if u[0] in actions and actions[u[0]].type is cli._integer else u
              for u in parts]),
    ]


def both_accept(argv: list[str]) -> None:
    namespace = argparse_cli_parser().parse_args(argv)
    handler, args = cli._parse(argv)
    want = {key: (type(value), value) for key, value in vars(namespace).items()
            if key not in ("command", "func")}
    assert handler is namespace.func, argv
    assert {key: (type(value), value) for key, value in vars(args).items()} == want, argv


# lines argparse accepts that the corpus does not reach: negative values,
# a value "-", an empty one or one with a space, prefixes and repeats
EDGE_LINES = [
    ["search", "--n", "5", "--per-color", "k3,k3", "--max-nodes", "-1"],
    ["search", "--max-nodes=-1", "--n=-5", "--per-color", "-"],
    ["search", "--n", "5", "--per-color", "- ,k3", "--max-nodes", "-0"],
    ["verify", "-5", "--forbid", "1=h1", "--forbid=2=none", "--forbid-all", "-"],
    ["verify", "--forbid-a", "h1", "--forbid", "3=k3", "c.grc", "--gallai", "--gal"],
    ["formula", "--tar=h10", "--k", "3", "--k", "5", "--conj", "--s=2", "--r", "9"],
    ["encode", "--n", "4", "--out", "a", "--per-color", "k3", "--out", "b", "--k", "-2"],
    ["decode", "--cnf", "a b", "--model", "", "--n", "1", "--k", "1", "--out=x=y"],
    ["build", "--target", "-.5", "--k", "-7", "--no-certify", "--no-c"],
    ["build-mixed", "--k", "3", "--s", "-1", "--no", "--no-certify"],
    ["catalog", "--json", "--js"],
]


def test_corpus_covers_every_command_and_option():
    lines = corpus()
    assert len(lines) >= 60
    assert {argv[0] for argv in lines} == set(cli.COMMANDS)
    given = {(argv[0], token) for argv in lines + EDGE_LINES for token in argv}
    assert given >= {(command, option[0]) for command, spec in cli.COMMANDS.items()
                     for option in spec[3]}


def test_every_corpus_line_and_variant_parses_as_argparse_does():
    checked = 0
    for argv in corpus():
        for line in [argv, *variants(argv)]:
            both_accept(line)
            checked += 1
    assert checked >= 300


def test_valued_options_take_negative_numbers_and_repeat():
    for argv in EDGE_LINES:
        both_accept(argv)
    # an exact name wins over a longer name it is a prefix of
    assert cli._option("--n", ("--n", "--no-certify")) == "--n"
    assert cli._option("--n=5", ("--no-certify", "--n")) == "--n"
    assert cli._option("--no", ("--n", "--no-certify")) == "--no-certify"
    assert cli._option("--m", ("--mode", "--max-nodes")) == ""
    assert [cli._option(t, ("--n",)) for t in ("-1", "-.5", "-1.5", "- x", "-", "")] == [None] * 6
    assert [cli._option(t, ("--n",)) for t in ("-1.", "-x", "--", "---n", "-n")] == [""] * 5


# lines argparse refuses, one for each kind of usage error, with the name
# the one error line must give
MALFORMED = [
    ([], "command"),
    (["bogus"], "bogus"),
    (["--json", "catalog"], "--json"),
    (["search", "--bogus"], "--bogus"),
    (["search", "--n", "5", "--per-color", "k3,k3", "--m", "first"], "--m"),
    (["build", "--target", "h10"], "--k"),
    (["build-mixed", "--k", "3"], "--s"),
    (["verify", "--gallai"], "file"),
    (["partition", "a.grc", "b.grc"], "b.grc"),
    (["catalog", "extra"], "extra"),
    (["search", "--n", "x", "--per-color", "k3,k3"], "--n"),
    (["formula", "--target", "h10", "--k", "3.0"], "--k"),
    (["search", "--n", "5", "--per-color", "k3,k3", "--mode", "fast"], "--mode"),
    (["verify", "c.grc", "--forbid", "0=h1"], "--forbid"),
    (["verify", "c.grc", "--forbid", "h1"], "--forbid"),
    (["verify", "c.grc", "--forbid=x=h1"], "--forbid"),
    (["search", "--n", "--per-color", "k3,k3"], "--n"),
    (["search", "--n", "5", "--per-color", "k3,k3", "--max-nodes", "-x"], "--max-nodes"),
    (["search", "--n", "5", "--per-color", "k3,k3", "--out"], "--out"),
    (["search", "--n", "5", "--per-color", "k3,k3", "--gallai=yes"], "--gallai"),
    (["decode", "--cnf", "f.cnf", "--model", "m", "--n", "4", "--k", "-1.5"], "--k"),
    # int() reads these; the integer type takes ASCII -?[0-9]+ only
    (["search", "--n", "+3", "--per-color", "k3,k3"], "--n"),
    (["search", "--n", "٣", "--per-color", "k3,k3"], "--n"),
    (["search", "--n", "-٣", "--per-color", "k3,k3"], "--n"),
    (["verify", "c.grc", "--forbid", "١=h1"], "--forbid"),
]


def test_malformed_lines_exit_two_with_one_error_line(capsys):
    for argv, name in MALFORMED:
        with pytest.raises(SystemExit) as refused:
            argparse_cli_parser().parse_args(argv)
        assert refused.value.code == 2 and capsys.readouterr().out == "", argv
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        assert name in err, (argv, err)
    # argparse read "--" as the end of the options; the table has no such form
    assert main(["partition", "--", "t.grc"]) == 2
    assert capsys.readouterr() == ("", "error: argument --: no such option, "
                                       "or not a unique prefix of one\n")


def test_help_exits_zero_anywhere_and_names_every_option(capsys):
    assert main(["--help"]) == 0 and main(["-h", "bogus"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and all(out.count(f"  {command} ") == 2 for command in cli.COMMANDS)
    for command, (summary, _, positionals, options) in cli.COMMANDS.items():
        for argv in ([command, "--help"], [command, "-h", "--bogus"],
                     [command, "--json", "--hel"], [command, "x", "-h"]):
            with pytest.raises(SystemExit) as helped:
                argparse_cli_parser().parse_args(argv)
            assert helped.value.code == 0 and capsys.readouterr().out, argv
            assert main(argv) == 0, argv
            out, err = capsys.readouterr()
            assert err == "" and out.startswith(f"usage: gallaikit {command} "), argv
            for name in (summary, "--json", "--help", *(p for p, _ in positionals),
                         *(option[0] for option in options)):
                assert name in out, (argv, name)
