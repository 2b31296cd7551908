import gc
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gallaikit
from gallaikit import cli
from gallaikit.cli import main
from gallaikit.coloring import EdgeColoring, read_grc, write_grc
from gallaikit.decompose import DecompositionInvariantError
from gallaikit.formulas import R2_TABLE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_build_prints_size_and_certification(capsys, tmp_path):
    out_path = tmp_path / "g.grc"
    code, payload, _ = run_json(
        capsys, "build", "--target", "h10", "--k", "4", "--out", str(out_path))
    assert code == 0
    assert payload == {"size": 25, "colors_used": [1, 2, 3, 4], "certified": True}
    assert read_grc(out_path).n == 25


def test_build_without_certify_flags_it(capsys):
    code, payload, _ = run_json(
        capsys, "build", "--target", "kipas(3)", "--k", "3", "--no-certify")
    assert code == 0
    assert payload["size"] == 18 and payload["certified"] is False


def test_build_mixed(capsys):
    code, payload, _ = run_json(capsys, "build-mixed", "--k", "4", "--s", "3")
    assert code == 0
    assert payload["size"] == 20


def test_verify_pass_and_fail_exit_codes(capsys, tmp_path):
    path = tmp_path / "c.grc"
    assert main(["build", "--target", "h1", "--k", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    code, payload, _ = run_json(
        capsys, "verify", str(path), "--gallai", "--forbid-all", "h1")
    assert code == 0 and payload["passed"] is True
    assert payload["mono_witnesses"] == [] and payload["rainbow_witness"] is None
    assert set(payload["stats"]) == {
        "pairs_scanned", "embedding_nodes", "patterns_checked"}
    # the same artifact holds a mono path(3) somewhere
    code, payload, _ = run_json(
        capsys, "verify", str(path), "--forbid", "1=path(3)")
    assert code == 1 and payload["passed"] is False
    assert payload["mono_witnesses"]


def test_verify_forbid_none_unsets(capsys, tmp_path):
    path = tmp_path / "c.grc"
    main(["build", "--target", "h10", "--k", "3", "--out", str(path)])
    capsys.readouterr()
    code, payload, _ = run_json(
        capsys, "verify", str(path),
        "--forbid-all", "path(3)", "--forbid", "1=none",
        "--forbid", "2=none", "--forbid", "3=none")
    assert code == 0 and payload["passed"] is True


def test_verify_refuses_a_color_above_k(capsys, tmp_path):
    path = tmp_path / "t.grc"
    path.write_text("grc 1 3 2\n1 2\n1\n", encoding="ascii")
    for extra in ((), ("--json",), ("--forbid-all", "k3")):
        code, out, err = run(capsys, "verify", str(path), "--forbid", "300=h1", *extra)
        assert (code, out) == (2, "")
        assert err == "error: color 300 outside 1..2\n"
    # 'none' only unsets a color, so it names no class and is still accepted
    code, payload, _ = run_json(
        capsys, "verify", str(path), "--forbid-all", "k3", "--forbid", "3=none")
    assert code == 0 and payload["passed"] is True
    assert payload["stats"]["patterns_checked"] == 2


def test_partition_json_schema(capsys, tmp_path):
    path = tmp_path / "c.grc"
    main(["build", "--target", "kipas(4)", "--k", "3", "--out", str(path)])
    capsys.readouterr()
    code, payload, _ = run_json(capsys, "partition", str(path))
    assert code == 0
    assert set(payload) == {"parts", "quotient_colors", "ell"}
    assert payload["ell"] == len(payload["parts"]) >= 2


def test_partition_rainbow_exits_one(capsys, tmp_path):
    path = tmp_path / "r.grc"
    path.write_text("grc 1 3 3\n1 2\n3\n", encoding="ascii")
    code, payload, _ = run_json(capsys, "partition", str(path))
    assert code == 1
    assert payload == {"rainbow_witness": [0, 1, 2]}


def test_formula_theorem_value(capsys):
    code, payload, _ = run_json(capsys, "formula", "--target", "kipas(4)",
                                "--k", "5", "--s", "5")
    assert code == 0
    assert payload["value"] == 101
    assert payload["lower_construction_size"] == 100
    assert isinstance(payload["branch"], str)


def test_formula_human_output_leads_with_value(capsys):
    code, out, _ = run(capsys, "formula", "--target", "h10", "--k", "3")
    assert code == 0
    assert out.startswith("11")


def test_formula_conjecture_needs_fan(capsys):
    code, _, err = run(capsys, "formula", "--target", "h10", "--k", "3",
                       "--conjecture")
    assert code == 2 and "kipas" in err


def test_formula_conjecture_reads_fans_past_the_size_cap(capsys):
    code, payload, _ = run_json(capsys, "formula", "--target", "kipas(20)", "--k", "3",
                                "--conjecture", "--r2", "50")
    assert code == 0 and payload["value"] == 101
    code, _, err = run(capsys, "formula", "--target", "kipas(1)", "--k", "3",
                       "--conjecture", "--r2", "50")
    assert code == 2 and err.startswith("error:")


def test_formula_r2_without_conjecture_is_usage_error(capsys):
    code, out, err = run(capsys, "formula", "--target", "kipas(4)", "--k", "3",
                         "--r2", "12")
    assert code == 2 and out == "" and "--r2" in err


def test_build_r2_for_a_non_fan_is_domain_error(capsys, tmp_path):
    out_path = tmp_path / "h1.grc"
    code, out, err = run(capsys, "build", "--target", "h1", "--k", "3", "--r2", "99",
                         "--out", str(out_path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not out_path.exists()


@pytest.mark.parametrize("argv, named", [
    (("build", "--target", "kipas(4)", "--k", "3", "--r2", "14"), "10"),
    (("build", "--target", "h12", "--k", "3", "--r2", "14"), "10"),
    (("formula", "--target", "kipas(4)", "--k", "3", "--conjecture", "--r2", "14"), "10"),
    (("build", "--target", "kipas(6)", "--k", "3", "--r2", "5"), "13"),
    (("formula", "--target", "kipas(6)", "--k", "3", "--conjecture", "--r2", "5"), "13"),
])
def test_r2_against_the_rule_is_domain_error(capsys, tmp_path, argv, named):
    # a listed fan's r2 must equal R2_TABLE; an unlisted one's is >= 2m+1
    # (13 for kipas(6))
    out_path = tmp_path / "o.grc"
    if argv[0] == "build":
        argv += ("--out", str(out_path))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")
    assert named in err
    assert not out_path.exists()


def test_build_over_the_image_budget_fails_closed(capsys, tmp_path):
    # kipas(6) has no seed, so build searches K_12 for it: 2520 * C(12, 7)
    # images are refused before any is built, and no file is written
    out_path = tmp_path / "k6.grc"
    code, out, err = run(capsys, "build", "--target", "kipas(6)", "--k", "2",
                         "--r2", "13", "--out", str(out_path))
    assert code == 2 and out == "" and err.startswith("error:")
    assert "524288" in err
    assert not out_path.exists()


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("gallaikit ")]
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if argv[0] == "decode":  # needs a solver's model file
            continue
        said = re.search(r"# exits (\d)", line)
        want = int(said.group(1)) if said else 0
        code, _, err = run(capsys, *argv)
        assert code == want, (line, err)
        ran += 1
    assert ran >= 11, lines


def test_formula_uncovered_target_is_domain_error(capsys):
    code, _, err = run(capsys, "formula", "--target", "h7", "--k", "3")
    assert code == 2 and err.startswith("error:")


def test_oversized_arguments_are_domain_errors(capsys, tmp_path):
    # each would otherwise end in a ValueError or MemoryError traceback (exit 1),
    # or not end at all while it grows a power of 5
    nines = "9" * 5000
    for argv, message in (
        (("formula", "--target", f"kipas({nines})", "--k", "3"), "has 5000 digits"),
        (("search", "--n", "3", "--per-color", f"kipas({nines}),none"), "has 5000 digits"),
        (("formula", "--target", "h1", "--k", "100000"), "more than 4300 digits"),
        (("formula", "--target", "h1", "--k", "12304", "--json"), "more than 4300 digits"),
        # k over formulas.MAX_K is refused before a power 5^(k/2) is computed
        (("formula", "--target", "h1", "--k", "100000000"), "need 1 <= k <= 100000"),
        (("build", "--target", "h1", "--k", "100000000"), "need 1 <= k <= 100000"),
        (("build-mixed", "--k", "100000000", "--s", "99999999"), "need 1 <= k <= 100000"),
        (("search", "--n", "100000", "--per-color", "none,none"), "edge slots"),
        (("encode", "--n", "400", "--per-color", "none,none,none", "--gallai",
          "--out", str(tmp_path / "big.cnf")), "rainbow triangles"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and message in err, argv
    assert not (tmp_path / "big.cnf").exists()
    # the largest printable value still prints, whole
    code, payload, _ = run_json(capsys, "formula", "--target", "h1", "--k", "12303")
    assert code == 0 and len(str(payload["value"])) == 4300


def test_search_witness_and_exhaust_codes(capsys, tmp_path):
    out_path = tmp_path / "w.grc"
    code, payload, _ = run_json(
        capsys, "search", "--n", "4", "--per-color", "path(3),kipas(4)",
        "--gallai", "--out", str(out_path))
    assert code == 0 and payload["kind"] == "witness"
    assert read_grc(out_path).colors == bytes(payload["witness_colors"])
    code, payload, _ = run_json(
        capsys, "search", "--n", "5", "--per-color", "path(3),kipas(4)",
        "--gallai", "--mode", "exhaust")
    assert code == 1 and payload["kind"] == "exhausted"
    assert payload["symmetry_reduced"] is False


def test_search_mode_values_run_the_same_search(capsys):
    # --mode stays for existing scripts; h10 at n=9 has 2^36 states
    argv = ("search", "--n", "9", "--per-color", "h10,h10", "--json")
    first = run(capsys, *argv, "--mode", "first")
    assert first[0] == 1 and json.loads(first[1])["kind"] == "exhausted"
    assert run(capsys, *argv, "--mode", "exhaust") == first


def test_encode_decode_pipeline(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    code, payload, _ = run_json(
        capsys, "encode", "--n", "4", "--per-color", "path(3),kipas(4)",
        "--gallai", "--out", str(cnf))
    assert code == 0 and payload["vars"] == 12
    model = tmp_path / "model.out"
    model.write_text("SAT\n1 -2 -3 4 -5 6 -7 8 -9 10 11 -12 0\n", encoding="ascii")
    decoded = tmp_path / "w.grc"
    code, payload, _ = run_json(
        capsys, "decode", "--cnf", str(cnf), "--model", str(model),
        "--n", "4", "--k", "2", "--out", str(decoded))
    assert code == 0 and payload["kind"] == "sat"
    assert tuple(read_grc(decoded).colors) == (1, 2, 2, 2, 2, 1)


def test_decode_unsat_exits_one(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    main(["encode", "--n", "3", "--per-color", "k3,k3", "--out", str(cnf)])
    capsys.readouterr()
    model = tmp_path / "model.out"
    model.write_text("s UNSATISFIABLE\n", encoding="ascii")
    code, payload, _ = run_json(
        capsys, "decode", "--cnf", str(cnf), "--model", str(model),
        "--n", "3", "--k", "2")
    assert code == 1 and payload == {"kind": "unsat"}


def test_encode_k_mismatch_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "encode", "--n", "4", "--k", "3",
                       "--per-color", "k3,k3", "--out", str(tmp_path / "f.cnf"))
    assert code == 2 and "--k" in err


def test_colors_over_the_palette_fail_closed_before_any_work(capsys, tmp_path):
    # every witness and decoded model is an EdgeColoring, which takes at most
    # 255 colors: encode and search refuse 256 with exit 2, and no file is written
    cnf = tmp_path / "f.cnf"
    none256 = ",".join(["none"] * 256)
    for argv in (("encode", "--n", "3", "--per-color", none256, "--out", str(cnf)),
                 ("search", "--n", "4", "--per-color", none256)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: k=256 exceeds 255, the most colors a byte holds\n"
    assert not cnf.exists()
    none255 = ",".join(["none"] * 255)
    code, _, _ = run(capsys, "encode", "--n", "3", "--per-color", none255, "--out", str(cnf))
    assert code == 0 and cnf.exists()


def test_catalog_lists_all_patterns(capsys):
    code, rows, _ = run_json(capsys, "catalog")
    assert code == 0 and len(rows) == 12
    for row in rows:
        assert set(row) == {"id", "vertices", "edges", "chromatic_number"}
        assert row["vertices"] == 5 and row["chromatic_number"] == 3


def test_build_verify_pipeline_every_target(capsys, tmp_path):
    # end-to-end smoke: build | verify succeeds for each supported target
    for cid in sorted(R2_TABLE):
        path = tmp_path / f"{cid.replace('(', '_').rstrip(')')}.grc"
        assert main(["build", "--target", cid, "--k", "3",
                     "--out", str(path), "--no-certify"]) == 0
        assert main(["verify", str(path), "--gallai",
                     "--forbid-all", cid]) == 0
    capsys.readouterr()


def test_build_names_the_k_it_was_given(capsys, tmp_path):
    # the towers recurse on k - 2, so a late check would name k=298
    out_path = tmp_path / "o.grc"
    for argv in (("build", "--target", "h10", "--k", "300"),
                 ("build-mixed", "--k", "300", "--s", "150")):
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert code == 2 and out == "", argv
        assert err == "error: k=300 exceeds 255, the most colors a byte holds\n", argv
        assert not out_path.exists()


def test_negative_node_budget_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--n", "5", "--per-color", "k3,k3",
                         "--max-nodes", "-1")
    assert code == 2 and out == ""
    assert err == "error: node budget must be >= 0, got -1\n"
    # a budget of 0 is legal; the search runs out of it at the first node
    code, _, err = run(capsys, "search", "--n", "5", "--per-color", "k3,k3",
                       "--max-nodes", "0")
    assert code == 2 and err == "error: node budget 0 exhausted\n"


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["build", "--target", "h10"]) == 2


def test_unknown_pattern_is_domain_error(capsys):
    code, _, err = run(capsys, "build", "--target", "gadget", "--k", "3")
    assert code == 2 and err.startswith("error:")


def test_decode_non_integer_dimacs_is_domain_error(capsys, tmp_path):
    model = tmp_path / "model.out"
    model.write_text("SAT\n1 -2 -3 0\n", encoding="ascii")
    for text in ("p cnf x 3\n1 2 3 0\n", "p cnf 3 1\n1 two 0\n", "p cnf 3 abc\n1 2 3 0\n",
                 "p cnf 3 7\n1 2 3 0\n", "p cnf 3 1\n1 2 3 0\np cnf 3 1\n",
                 "1 2 3 0\np cnf 3 1\n",
                 # int() reads each of these; DIMACS tokens are -?[0-9]+
                 "p cnf 3 1\n+1 2 3 0\n", "p cnf 3 1\n0_1 2 3 0\n", "p cnf 3 1\n1 2 3 0_0\n",
                 "p cnf +3 1\n1 2 3 0\n"):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(text, encoding="ascii")
        code, _, err = run(capsys, "decode", "--cnf", str(cnf), "--model",
                           str(model), "--n", "3", "--k", "1")
        assert code == 2 and err.startswith("error:"), text
    # the model 1 2 3 decodes; listing -1 as well gives variable 1 both
    # signs, which must fail closed rather than drop one of them
    cnf.write_text("p cnf 3 1\n1 2 3 0\n", encoding="ascii")
    for text, want in (("SAT\n1 2 3 0\n", 0), ("SAT\n1 2 3 -1 0\n", 2),
                       ("c solver comment\nv 1 2 3 0\n", 0),
                       # int() reads these as 1 2 3 as well: model tokens are -?[0-9]+
                       ("v 0_1 2 3 0\n", 2), ("SAT\n+1 2 3 0\n", 2), ("v 1 2 3 0 x\n", 2)):
        model.write_text(text, encoding="ascii")
        code, _, err = run(capsys, "decode", "--cnf", str(cnf), "--model",
                           str(model), "--n", "3", "--k", "1")
        assert code == want, (text, err)


def test_non_ascii_grc_is_domain_error(capsys, tmp_path):
    path = tmp_path / "c.grc"
    path.write_bytes("grc 1 3 2\n1 2\n1 \u00e9\n".encode("utf-8"))
    for argv in (("verify", str(path), "--gallai"), ("partition", str(path))):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:"), argv


def test_non_decimal_grc_token_is_domain_error(capsys, tmp_path):
    # int() would read this as the rainbow 1, 10, 2
    path = tmp_path / "c.grc"
    path.write_text("grc 1 3 10\n+1 1_0\n2\n", encoding="ascii")
    for argv in (("verify", str(path), "--gallai"), ("partition", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "bad color token '+1'" in err, argv


def test_more_than_255_colors_is_domain_error(capsys, tmp_path):
    grc = tmp_path / "c.grc"
    grc.write_text("grc 1 3 256\n1 1\n1\n", encoding="ascii")
    code, _, err = run(capsys, "partition", str(grc))
    assert code == 2 and "k=256 exceeds 255" in err
    for k, want in ((255, 0), (256, 2)):
        cnf, model = tmp_path / f"{k}.cnf", tmp_path / f"{k}.model"
        cnf.write_text(f"p cnf {k} 1\n1 0\n", encoding="ascii")
        model.write_text("SAT\n1 " + " ".join(str(-v) for v in range(2, k + 1)) + " 0\n",
                         encoding="ascii")
        code, _, _ = run(capsys, "decode", "--cnf", str(cnf), "--model", str(model),
                         "--n", "2", "--k", str(k))
        assert code == want, k


def test_decode_non_ascii_model_is_domain_error(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    main(["encode", "--n", "3", "--per-color", "k3,k3", "--out", str(cnf)])
    capsys.readouterr()
    model = tmp_path / "model.out"
    model.write_bytes("SAT\n1 -2 \u00e9 0\n".encode("utf-8"))
    code, _, err = run(capsys, "decode", "--cnf", str(cnf), "--model", str(model),
                       "--n", "3", "--k", "2")
    assert code == 2 and err.startswith("error:")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# what python -m gallaikit.cli runs, plus a list of sys.modules at exit
_AS_MAIN = """import atexit, runpy, sys
atexit.register(lambda: print("modules:", *sys.modules, file=sys.stderr))
runpy.run_module("gallaikit.cli", run_name="__main__", alter_sys=True)
"""


def _child(*argv, cwd=None, code=_AS_MAIN):
    """Python code, by default the CLI, in a fresh interpreter."""
    src = str(Path(gallaikit.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)


def test_subcommands_import_only_their_modules(tmp_path):
    assert main(["build", "--target", "h10", "--k", "3", "--out", str(tmp_path / "c.grc"),
                 "--no-certify"]) == 0
    assert main(["encode", "--n", "4", "--per-color", "path(3),kipas(4)", "--gallai",
                 "--out", str(tmp_path / "f.cnf")]) == 0
    (tmp_path / "model.out").write_text("SAT\n1 -2 -3 4 -5 6 -7 8 -9 10 11 -12 0\n",
                                        encoding="ascii")
    # the library modules each subcommand loads, exactly; no subcommand
    # loads dataclasses or inspect, which the value records do without, or
    # argparse, gettext or locale, which the option table does without
    loads = {
        ("build", "--target", "h10", "--k", "3"):
            {"coloring", "patterns", "decompose", "detect", "formulas", "construct"},
        ("build-mixed", "--k", "3", "--s", "1"):
            {"coloring", "patterns", "decompose", "detect", "formulas", "construct"},
        ("verify", "c.grc", "--gallai", "--forbid-all", "h10"):
            {"coloring", "patterns", "decompose", "detect"},
        ("partition", "c.grc"): {"coloring", "decompose"},
        ("formula", "--target", "h10", "--k", "3"): {"patterns", "formulas"},
        # a witness is certified by verify; an exhausted search has nothing to check
        ("search", "--n", "5", "--per-color", "k3,k3"):
            {"coloring", "patterns", "decompose", "detect", "search"},
        ("search", "--n", "6", "--per-color", "k3,k3"): {"coloring", "patterns", "search"},
        ("encode", "--n", "5", "--per-color", "k3,k3", "--out", "g.cnf"):
            {"coloring", "patterns", "search", "cnf"},
        ("decode", "--cnf", "f.cnf", "--model", "model.out", "--n", "4", "--k", "2"):
            {"coloring", "cnf"},
        ("catalog",): {"patterns"},
    }
    assert {argv[0] for argv in loads} == set(cli.COMMANDS)
    for argv, modules in loads.items():
        child = _child(*argv, cwd=tmp_path)
        exhausted = argv[:3] == ("search", "--n", "6")
        assert child.returncode == (1 if exhausted else 0), child.stderr
        loaded = set(child.stderr.rpartition("modules:")[2].split())
        library = {m.partition(".")[2] for m in loaded if m.startswith("gallaikit.")}
        assert library - {"_record"} == modules, argv
        assert not loaded & {"dataclasses", "inspect"}, argv
        assert not loaded & {"argparse", "gettext", "locale"}, argv


# the CLI again, with the collector's state printed by the last atexit handler
_GC_AT_EXIT = """import atexit, gc, runpy, sys
atexit.register(lambda: print("gc:", gc.isenabled(), file=sys.stderr))
runpy.run_module("gallaikit.cli", run_name="__main__", alter_sys=True)
"""


def test_cli_process_runs_without_the_collector_and_runs_atexit_handlers(tmp_path):
    # the child ends by os._exit, after its atexit handlers, which find the
    # collector still off, and after its streams are flushed
    for argv, code in ((("catalog", "--json"), 0),
                       (("search", "--n", "6", "--per-color", "k3,k3", "--json"), 1)):
        child = _child(*argv, cwd=tmp_path, code=_GC_AT_EXIT)
        assert child.returncode == code, child.stderr
        assert child.stdout.endswith("\n") and json.loads(child.stdout), argv
        assert child.stderr.splitlines()[-1] == "gc: False", argv
    # in process, main() leaves the collector as it found it
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["search", "--n", "6", "--per-color", "k3,k3", "--json"]) == 1
    assert main(["catalog"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_cli_process_reports_a_failed_stdout_flush_and_delivers_a_large_payload(
        capsys, tmp_path):
    # block-buffered stdout, so the output is written by the flush at exit
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(gallaikit.__file__).resolve().parents[1])

    def child(code, *argv, **kwargs):
        return subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, **kwargs)

    rng = random.Random(600)
    c = EdgeColoring(600, 2, bytes(rng.randint(1, 2) for _ in range(600 * 599 // 2)))
    write_grc(c, tmp_path / "c.grc")
    as_main = 'runpy.run_module("gallaikit.cli", run_name="__main__", alter_sys=True)'
    # stdout closed, or a pipe with no reader, before the CLI writes: one
    # error line, exit 2, no traceback; a payload larger than the buffer
    # fails inside main(), which reports it, and leaves nothing to flush
    closed = "error: [Errno 9] Bad file descriptor"
    broken = "error: [Errno 32] Broken pipe"
    no_reader = "r, w = os.pipe(); os.close(r); os.dup2(w, 1)"
    for setup, argv, line in (("os.close(1)", ("catalog", "--json"), closed),
                              (no_reader, ("catalog", "--json"), broken),
                              (no_reader, ("partition", "c.grc", "--json"), broken)):
        out = child(f"import os, runpy\n{setup}\n{as_main}\n", *argv)
        assert (out.returncode, out.stderr) == (2, line + "\n"), (setup, argv)
    # fd 1 closed before the interpreter starts, so sys.stdout is None
    out = child(f"import runpy\n{as_main}\n", "catalog", preexec_fn=lambda: os.close(1))
    assert (out.returncode, out.stderr) == (2, "error: stdout is closed\n")
    # partition of a 600-vertex coloring prints about 540 kB through a pipe,
    # many times its buffer: all of it arrives, and the exit code is 0
    out = child(f"import runpy\n{as_main}\n", "partition", "c.grc", "--json")
    assert out.returncode == 0 and out.stderr == ""
    assert len(out.stdout) > 500_000
    assert out.stdout == run(capsys, "partition", str(tmp_path / "c.grc"), "--json")[1]


def test_bad_input_exits_two_in_a_fresh_interpreter(tmp_path):
    (tmp_path / "bad.grc").write_text("grc 1 3 10\n+1 1_0\n2\n", encoding="ascii")
    (tmp_path / "bad.cnf").write_text("p cnf 3 1\n1 two 0\n", encoding="ascii")
    (tmp_path / "model.out").write_text("SAT\n1 -2 -3 0\n", encoding="ascii")
    for argv in (("verify", "bad.grc", "--gallai"), ("partition", "bad.grc"),
                 ("decode", "--cnf", "bad.cnf", "--model", "model.out", "--n", "3",
                  "--k", "1")):
        child = _child(*argv, cwd=tmp_path)
        assert child.returncode == 2 and child.stdout == "", argv
        assert child.stderr.startswith("error: ") and "Traceback" not in child.stderr, argv
    # usage errors that argparse cannot see, each with its one stderr line
    usage = {
        ("formula", "--target", "h10", "--k", "3", "--r2", "9"):
            "error: --r2 applies only with --conjecture",
        ("formula", "--target", "h10", "--k", "3", "--conjecture"):
            "error: --conjecture needs a kipas target, got 'h10'",
        ("formula", "--target", "h10", "--k", "3", "--s", "1"):
            "error: --s selects the mixed family; target must be kipas(4)",
        ("formula", "--target", "kipas(4)", "--k", "3", "--conjecture", "--s", "1"):
            "error: --s selects the mixed family, not the conjecture",
        ("encode", "--n", "3", "--k", "3", "--per-color", "k3,k3", "--out", "f.cnf"):
            "error: --k 3 disagrees with --per-color arity 2",
    }
    for argv, line in usage.items():
        child = _child(*argv, cwd=tmp_path)
        assert child.returncode == 2 and child.stdout == "", argv
        assert child.stderr.partition("modules:")[0] == line + "\n", argv
    assert not (tmp_path / "f.cnf").exists()


def test_only_library_and_os_errors_exit_two(capsys, tmp_path, monkeypatch):
    grc = str(tmp_path / "c.grc")
    assert main(["build", "--target", "h10", "--k", "2", "--out", grc]) == 0
    capsys.readouterr()

    def fails(exc):
        def call(*args, **kwargs):
            raise exc
        return call

    # a file that cannot be read, or an error class of any library module,
    # is the input's fault
    code, out, err = run(capsys, "verify", str(tmp_path / "missing.grc"))
    assert (code, out) == (2, "") and err.startswith("error: [Errno 2] No such file")
    monkeypatch.setattr(cli, "verify", fails(DecompositionInvariantError("walk")))
    assert run(capsys, "verify", grc) == (2, "", "error: walk\n")
    # anything else is a bug and keeps its traceback
    monkeypatch.setattr(cli, "verify", fails(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        main(["verify", grc])


def test_package_names_resolve():
    # dir() lists the public names before any of them is first used
    fresh = _child(code="import gallaikit\n"
                        "assert set(gallaikit.__all__) <= set(dir(gallaikit))\n"
                        "assert len(gallaikit.__all__) == 78")
    assert fresh.returncode == 0, fresh.stderr
    for name in gallaikit.__all__:
        assert getattr(gallaikit, name) is not None
    scope: dict = {}
    exec("from gallaikit import *", scope)
    assert set(gallaikit.__all__) <= set(scope)
    assert scope["verify"] is gallaikit.detect.verify
    with pytest.raises(AttributeError):
        gallaikit.no_such_name


def test_handlers_call_the_module_attributes(capsys, tmp_path, monkeypatch):
    # tracing wraps these attributes of cli; the handlers must call the wrappers
    calls = []
    for name in ("exhaustive_check", "verify", "encode_cnf"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, name=name, **kw:
                            calls.append(name) or real(*a, **kw))
    grc = str(tmp_path / "c.grc")
    assert main(["search", "--n", "5", "--per-color", "k3,k3", "--out", grc]) == 0
    assert main(["verify", grc, "--forbid-all", "k3"]) == 0
    assert main(["encode", "--n", "4", "--per-color", "k3,k3",
                 "--out", str(tmp_path / "f.cnf")]) == 0
    capsys.readouterr()
    assert calls == ["exhaustive_check", "verify", "encode_cnf"]
    with pytest.raises(AttributeError):
        cli.no_such_name
