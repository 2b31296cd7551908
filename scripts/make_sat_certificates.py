"""Emit DIMACS certificates for the two solver-scale Ramsey anchors.

The in-package backtracking search certifies the small anchors directly,
but two tight values sit just past its enumeration budget:

  * two colors, both forbidding kipas(4), on 10 vertices (UNSAT would
    certify the two-color Ramsey number 10),
  * three colors, all forbidding h10, rainbow-triangle-free, on 11
    vertices (UNSAT would certify the three-color Gallai-Ramsey value 11).

This script writes the CNF files; hand them to any DIMACS solver.  With
--run it looks for a solver on PATH, runs it, and checks the outcome:
an UNSAT answer is the certificate, a SAT answer is decoded and
re-verified (and would be a genuine refutation).  Sanity companions at
one vertex below each bound are emitted too; those must come back SAT.
"""

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gallaikit.cnf import decode_assignment, encode_cnf, parse_model
from gallaikit.detect import verify
from gallaikit.search import SearchProblem

SOLVERS = ("kissat", "cadical", "cryptominisat5", "minisat", "glucose")

JOBS = (
    ("ramsey_kipas4_n9_sat", SearchProblem(9, ("kipas(4)", "kipas(4)")), "sat"),
    ("ramsey_kipas4_n10_unsat", SearchProblem(10, ("kipas(4)", "kipas(4)")), "unsat"),
    ("gallai_h10_n10_sat",
     SearchProblem(10, ("h10", "h10", "h10"), require_gallai=True), "sat"),
    ("gallai_h10_n11_unsat",
     SearchProblem(11, ("h10", "h10", "h10"), require_gallai=True), "unsat"),
)


def find_solver() -> str | None:
    for name in SOLVERS:
        if shutil.which(name):
            return name
    return None


def run_solver(solver: str, cnf_path: Path) -> str:
    # solvers use exit code 10 for SAT, 20 for UNSAT
    proc = subprocess.run(
        [solver, str(cnf_path)], capture_output=True, text=True, check=False
    )
    if proc.returncode == 20:
        return "unsat"
    if proc.returncode == 10:
        return "sat:" + proc.stdout
    raise RuntimeError(f"{solver} exited {proc.returncode}: {proc.stderr[:200]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="certificates", help="where to put .cnf files")
    parser.add_argument("--run", action="store_true", help="run a solver if one is on PATH")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    docs = {}
    for name, problem, expected in JOBS:
        doc = encode_cnf(problem)
        path = out_dir / f"{name}.cnf"
        path.write_text(doc.to_dimacs(), encoding="ascii")
        docs[name] = (doc, problem, expected, path)
        print(f"{path}: n={doc.n} k={doc.k} vars={doc.num_vars} clauses={len(doc.clauses)}"
              f" (expected {expected.upper()})")

    if not args.run:
        print("\nrun e.g.:  kissat", out_dir / "ramsey_kipas4_n10_unsat.cnf")
        return 0

    solver = find_solver()
    if solver is None:
        print("no solver on PATH (tried: " + ", ".join(SOLVERS) + ")", file=sys.stderr)
        return 2
    print(f"\nusing {solver}")

    failures = 0
    for name, (doc, problem, expected, path) in docs.items():
        outcome = run_solver(solver, path)
        if outcome == "unsat":
            got = "unsat"
        else:
            got = "sat"
            model = parse_model(outcome[4:])
            c = decode_assignment(doc, model)
            rep = verify(c, problem.spec)
            if not rep.passed:
                print(f"{name}: solver model FAILED re-verification", file=sys.stderr)
                failures += 1
                continue
        status = "ok" if got == expected else "UNEXPECTED"
        if got != expected:
            failures += 1
        print(f"{name}: {got.upper()} ({status})")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
