import contextlib
import gc
import hashlib
import io
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


def test_integer_options_take_ascii_digits_only(capsys, tmp_path):
    # int() reads each of these values; a command-line integer, like every
    # number in an input file, is ASCII -?[0-9]+
    cnf = tmp_path / "f.cnf"
    for argv, name in (
        (("search", "--n", "٣", "--per-color", "k3,k3"), "--n"),
        (("search", "--n", "+3", "--per-color", "k3,k3"), "--n"),
        (("search", "--n", " 3", "--per-color", "k3,k3"), "--n"),
        (("search", "--n", "1_0", "--per-color", "k3,k3"), "--n"),
        (("search", "--n", "5", "--per-color", "k3,k3", "--max-nodes", "1_000"), "--max-nodes"),
        (("formula", "--target", "h10", "--k", "٣"), "--k"),
        (("formula", "--target", "kipas(4)", "--k", "3", "--s", "+1"), "--s"),
        (("build", "--target", "kipas(4)", "--k", "2", "--r2", "1_0"), "--r2"),
        (("build-mixed", "--k", "3", "--s", "1 "), "--s"),
        (("encode", "--n", "4", "--k", "２", "--per-color", "k3,k3", "--out", str(cnf)),
         "--k"),
        (("decode", "--cnf", "f.cnf", "--model", "m", "--n", "+4", "--k", "2"), "--n"),
        (("verify", "c.grc", "--forbid", "١=h1"), "--forbid"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: argument {name}: ") and "-?[0-9]+" in err, argv
    assert not cnf.exists()
    # a negative value is an integer, which the library refuses itself
    code, out, err = run(capsys, "search", "--n", "-1", "--per-color", "k3,k3")
    assert (code, out, err) == (2, "", "error: need n >= 1, got -1\n")


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


def test_decode_refuses_an_empty_clause(capsys, tmp_path):
    # a 0 line added to an encoding is an empty clause, so the formula is
    # UNSAT whether or not the problem line counts it: exit 2, nothing printed
    cnf, model = tmp_path / "f.cnf", tmp_path / "model.out"
    assert main(["encode", "--n", "3", "--per-color", "none,none", "--out", str(cnf)]) == 0
    capsys.readouterr()
    encoded = cnf.read_text(encoding="ascii")
    assert "\np cnf 6 6\n" in encoded
    model.write_text("v 1 -2 3 -4 5 -6 0\n", encoding="ascii")
    argv = ("decode", "--cnf", str(cnf), "--model", str(model), "--n", "3", "--k", "2")
    assert run(capsys, *argv)[0] == 0  # the model satisfies the encoding itself
    for text in (encoded + "0\n", encoded.replace("p cnf 6 6", "p cnf 6 7") + "0\n"):
        cnf.write_text(text, encoding="ascii")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "empty clause" in err, text


def test_decode_refuses_a_model_the_formula_rejects(capsys, tmp_path):
    # every edge of K_9 in color 1: each edge has exactly one color, so the
    # model decodes, but a color-1 kipas(4) image is complete and its clause fails
    cnf, model, grc = tmp_path / "f.cnf", tmp_path / "model.out", tmp_path / "d.grc"
    assert main(["encode", "--n", "9", "--per-color", "kipas(4),kipas(4)",
                 "--out", str(cnf)]) == 0
    capsys.readouterr()
    model.write_text("v " + " ".join(f"{2 * e + 1} {-2 * e - 2}" for e in range(36)) + " 0\n",
                     encoding="ascii")
    code, out, err = run(capsys, "decode", "--cnf", str(cnf), "--model", str(model),
                         "--n", "9", "--k", "2", "--out", str(grc))
    assert (code, out) == (2, "") and "does not satisfy the formula it came with" in err
    assert not grc.exists()


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


# each subcommand on both its exit paths (pass and fail, witness and
# exhausted, sat and unsat, a rainbow input), --out, help and a usage and a
# domain error; each line runs as given and again with --json, in order, so
# the files the early lines write are the inputs of the later ones
PRINTED_LINES = [
    "build --target h10 --k 3 --out h10.grc",
    "build --target kipas(3) --k 3 --no-certify",
    "build-mixed --k 4 --s 3 --out mixed.grc",
    "verify h10.grc --gallai --forbid-all h10",
    "verify h10.grc --forbid 1=path(3)",
    "verify rainbow.grc --gallai",
    "verify mixed.grc --gallai --forbid 1=kipas(4) --forbid 4=path(3)",
    "partition h10.grc",
    "partition rainbow.grc",
    "formula --target h10 --k 3",
    "formula --target kipas(4) --k 5 --s 5",
    "formula --target kipas(6) --k 3 --r2 14 --conjecture",
    "search --n 5 --per-color k3,k3 --out w.grc",
    "search --n 4 --per-color path(3),kipas(4) --gallai",
    "search --n 6 --per-color k3,k3 --mode exhaust",
    "encode --n 4 --per-color path(3),kipas(4) --gallai --out f.cnf",
    "decode --cnf f.cnf --model sat.model --n 4 --k 2 --out d.grc",
    "decode --cnf f.cnf --model sat.model --n 4 --k 2",
    "decode --cnf f.cnf --model unsat.model --n 4 --k 2",
    "catalog",
    "--help",
    "search --help",
    "search --n x --per-color k3,k3",
    "formula --target h7 --k 3",
]


def printed_digests() -> tuple[dict[str, str], dict[str, str]]:
    """Run PRINTED_LINES through main() in the current directory: the sha256
    of each run's exit code and stdout, and of each file the runs wrote."""
    inputs = {"rainbow.grc": "grc 1 3 3\n1 2\n3\n",
              "sat.model": "SAT\n1 -2 -3 4 -5 6 -7 8 -9 10 11 -12 0\n",
              "unsat.model": "s UNSATISFIABLE\n"}
    for name, text in inputs.items():
        Path(name).write_text(text, encoding="ascii")
    printed = {}
    for line in PRINTED_LINES:
        for extra in ([], ["--json"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(shlex.split(line) + extra)
            key = " ".join([line, *extra])
            printed[key] = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(Path().iterdir()) if path.name not in inputs}
    return printed, written


PRINTED = {
    "build --target h10 --k 3 --out h10.grc":
        "8f5104a508792aadea6348ede7043f2b3917ae206979f4d4d7b760c32859126d",
    "build --target h10 --k 3 --out h10.grc --json":
        "3755c605f893e064b751eb6ba102672947125968491b82d4ffd3a46e36f514a5",
    "build --target kipas(3) --k 3 --no-certify":
        "e08bdd9a1d2dde8a90061d8990fc3789ddb69dea67329a82d9722b2b7e5fbc74",
    "build --target kipas(3) --k 3 --no-certify --json":
        "ded210ba623f5a665f950fa0b7ca3734a9bb25849da1de5328aeb403ec46c567",
    "build-mixed --k 4 --s 3 --out mixed.grc":
        "10c5779d69ea0888b842de0fff08ce7af2973d8215d682f13fb07be8af945ddc",
    "build-mixed --k 4 --s 3 --out mixed.grc --json":
        "622fe1f13b67e58b66905c12705220b91e578d1fe1f4e0b5374a7e709f14aba6",
    "verify h10.grc --gallai --forbid-all h10":
        "8033b99268ff44addc9800db66eb0bb4edc1f6de335efbfa380b4bfddd3071f8",
    "verify h10.grc --gallai --forbid-all h10 --json":
        "34e01c9316e42a68baf06601ccac26704ac6113585e1b04ff5b4af9064dda1dc",
    "verify h10.grc --forbid 1=path(3)":
        "22b8fc53511dc43cc73f676dd147a06b38107d290fa8700ae99762892a3cd0b2",
    "verify h10.grc --forbid 1=path(3) --json":
        "aee9be309bb0bde1b5786d2b036e8f77e9535de0bbfa77d35729fc34856cbd0b",
    "verify rainbow.grc --gallai":
        "e1500f253398ba9c4000f161f16cd5efdbabba7d2e89bec03c2f1473ebc0b95a",
    "verify rainbow.grc --gallai --json":
        "25646b696e43760e3eb70b45ad67258b5ba845574c4aec24ea40dfd083bf2f38",
    "verify mixed.grc --gallai --forbid 1=kipas(4) --forbid 4=path(3)":
        "8033b99268ff44addc9800db66eb0bb4edc1f6de335efbfa380b4bfddd3071f8",
    "verify mixed.grc --gallai --forbid 1=kipas(4) --forbid 4=path(3) --json":
        "4c5f7da777442b0d7773c857d5c3056cfa14a0e1cf9ff7b21224fac83536b255",
    "partition h10.grc":
        "4a611d8c21c42afee9685341364dd404777bd552698301f52d81dd02e6fc9af5",
    "partition h10.grc --json":
        "44fb7bbb79c52802ea83981075cd1f33c99a981a9f6161fa84f7bf80345fd044",
    "partition rainbow.grc":
        "ec0a7d6c9b5c1d0750d2b7f18969b86f9799132a6a3ee45818e9901212752bd8",
    "partition rainbow.grc --json":
        "bbc276890f2a808d4ed33bbd5ba53c80364211e25235a8aee15a93fa22ce9b0a",
    "formula --target h10 --k 3":
        "d8c31d5470d1b604a32e644f9da0922999dc3854352834a82d50fa475fe8e7e8",
    "formula --target h10 --k 3 --json":
        "fb693ed714cb069440296440cd926cc65d0440bc410ba1bb2b28308e9ffbe16e",
    "formula --target kipas(4) --k 5 --s 5":
        "d842b566d7aed62a1690b368790ac685779e166bcbfd94536086b92d4e288f91",
    "formula --target kipas(4) --k 5 --s 5 --json":
        "5b9141979f7c399ce15d1e2b3229281d30fa71e90b51883eac30fc1185d01d7c",
    "formula --target kipas(6) --k 3 --r2 14 --conjecture":
        "851f13bb5ed4d8fc1651153f2b71cf624ee7b4a8513c8464a9846abe192745fc",
    "formula --target kipas(6) --k 3 --r2 14 --conjecture --json":
        "49e5703c8b7136897e50ffc4b44ccf49c67ef311c0642aecb1a40384a1048bcf",
    "search --n 5 --per-color k3,k3 --out w.grc":
        "8a90cfa28937791d25227057ccb8257876443635f52b68705b877d7e55488c28",
    "search --n 5 --per-color k3,k3 --out w.grc --json":
        "9cbd124ee24e0386dc8d2a5ec097064dcda80b69ea341b5dadd36ffb23cb0b5c",
    "search --n 4 --per-color path(3),kipas(4) --gallai":
        "2dce3312e074726d9955fde1bf4f19bd2711e4b114ef471b1697c619fb116f9b",
    "search --n 4 --per-color path(3),kipas(4) --gallai --json":
        "8fa412f7e760fa4af98acc24544cd92810f5bf9f9cb6eba1ace4782487813299",
    "search --n 6 --per-color k3,k3 --mode exhaust":
        "e8e327a892529af9cac333570f33d1e881be5378c379c8940c96fcfa2bf36eee",
    "search --n 6 --per-color k3,k3 --mode exhaust --json":
        "b2bcff240efdb28244e32ca4c14ff7610400dc3f5d3fccabdc7cf57965bcc472",
    "encode --n 4 --per-color path(3),kipas(4) --gallai --out f.cnf":
        "1613d7d3d83a16386789d9b9ec5aa41f7d19d009c563f24ca33e830c0196cb3d",
    "encode --n 4 --per-color path(3),kipas(4) --gallai --out f.cnf --json":
        "f24a5de4caa0ca3f7100ed910875f1abd34faa9076c04a564eca2dac4165005a",
    "decode --cnf f.cnf --model sat.model --n 4 --k 2 --out d.grc":
        "c69814605f6a18039dfb5dceddba5509e59c046f21304e2155c1186b4daedbf5",
    "decode --cnf f.cnf --model sat.model --n 4 --k 2 --out d.grc --json":
        "1e9614b403603fa2c59fac3f5e3fa043a435287b03e4fb629007d86089ff1ffe",
    "decode --cnf f.cnf --model sat.model --n 4 --k 2":
        "90ad7e871e0302254560c70c97ec5977edc3d3f3bc4b267d0f8b809fb576f81a",
    "decode --cnf f.cnf --model sat.model --n 4 --k 2 --json":
        "3805b4e5efc1aea96c312d40e1d866b17dda781e9758bdd340e2171e06582964",
    "decode --cnf f.cnf --model unsat.model --n 4 --k 2":
        "58c5e773d6eaf2745bc0c0b892a5c8d70bc84ed072f4c0fa2f11bfeb5ba04f45",
    "decode --cnf f.cnf --model unsat.model --n 4 --k 2 --json":
        "4793689166cb436b1ab98bf6c5d6dd09568c32c1256f10c3b488cd5e8b933be5",
    "catalog":
        "f773b1a94d21477e32cea3786c36f4155f4266adb749b65c6f41d3201aadf61f",
    "catalog --json":
        "58416f8c9ac7ea5e05c09d197c7cf38ad7cf508d9409310a24c8c3cfeeedf6eb",
    "--help":
        "117d33aba9df6b9b4f36bd5001fd81a9e177ed4419fde93cee4c6e206cf35ac4",
    "--help --json":
        "117d33aba9df6b9b4f36bd5001fd81a9e177ed4419fde93cee4c6e206cf35ac4",
    "search --help":
        "5f36bcbf8313f6f1bb99d0f677930f90a0dbc154384ba9da042f0dddd1d13145",
    "search --help --json":
        "5f36bcbf8313f6f1bb99d0f677930f90a0dbc154384ba9da042f0dddd1d13145",
    "search --n x --per-color k3,k3":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "search --n x --per-color k3,k3 --json":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "formula --target h7 --k 3":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "formula --target h7 --k 3 --json":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
}
WRITTEN = {
    "d.grc": "9a9a9f2fa80ea21042015be390e1e4c947f9f3b6223fbba0127e26c390461aee",
    "f.cnf": "e5134a8e53afaabc43c16ad06560335ff2995ee7729e921ab34dd92cf18189ea",
    "h10.grc": "28b74800876cb74eb8ab85185448c44f40cee1353586eabcc51828ab055ae733",
    "mixed.grc": "6b48832e922ea7914a7ebdac31af9ce9b86aa2c4f179ad493217c9ee7b809e4e",
    "w.grc": "272a2dd80e483f3633c5301eae86b2cd1b43e45c02b53334992048eb69cf8718",
}


def test_every_command_prints_the_pinned_bytes(tmp_path, monkeypatch):
    # the one output step prints what each handler printed for itself before
    monkeypatch.chdir(tmp_path)
    printed, written = printed_digests()
    assert printed == PRINTED
    assert written == WRITTEN


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
