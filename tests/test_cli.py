import json
import re
import shlex
from pathlib import Path

import pytest

from gallaikit.cli import main
from gallaikit.coloring import read_grc
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


def test_search_witness_and_exhaust_codes(capsys, tmp_path):
    out_path = tmp_path / "w.grc"
    code, payload, _ = run_json(
        capsys, "search", "--n", "4", "--per-color", "path(3),kipas(4)",
        "--gallai", "--out", str(out_path))
    assert code == 0 and payload["kind"] == "witness"
    assert read_grc(out_path).colors == tuple(payload["witness_colors"])
    code, payload, _ = run_json(
        capsys, "search", "--n", "5", "--per-color", "path(3),kipas(4)",
        "--gallai", "--mode", "exhaust")
    assert code == 1 and payload["kind"] == "exhausted"
    assert payload["symmetry_reduced"] is False


def test_search_scope_violation_is_usage_error(capsys):
    code, _, err = run(capsys, "search", "--n", "9", "--per-color", "h10,h10",
                       "--mode", "exhaust")
    assert code == 2 and "error:" in err


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
    assert read_grc(decoded).colors == (1, 2, 2, 2, 2, 1)


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


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["build", "--target", "h10"]) == 2


def test_unknown_pattern_is_domain_error(capsys):
    code, _, err = run(capsys, "build", "--target", "gadget", "--k", "3")
    assert code == 2 and err.startswith("error:")


def test_decode_non_integer_dimacs_is_domain_error(capsys, tmp_path):
    model = tmp_path / "model.out"
    model.write_text("SAT\n1 -2 -3 0\n", encoding="ascii")
    for text in ("p cnf x 3\n1 2 3 0\n", "p cnf 3 1\n1 two 0\n"):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(text, encoding="ascii")
        code, _, err = run(capsys, "decode", "--cnf", str(cnf), "--model",
                           str(model), "--n", "3", "--k", "1")
        assert code == 2 and err.startswith("error:"), text


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
