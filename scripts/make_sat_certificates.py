"""Emit DIMACS certificates for the two solver-scale Ramsey anchors.

The in-package backtracking search certifies every formulas.ANCHORS entry
in process; the two largest, named in EXPORTED, can also be certified by
an external solver on as many vertices as the ledger's value:

  * two colors, both forbidding kipas(4) (UNSAT would certify the
    two-color Ramsey number),
  * three colors, all forbidding h10, rainbow-triangle-free (UNSAT would
    certify the three-color Gallai-Ramsey value).

This script writes the CNF files; hand them to any DIMACS solver.  With
--run it looks for a solver on PATH, runs it, and checks the outcome:
an UNSAT answer is the certificate, a SAT answer is decoded and
re-verified (and would be a genuine refutation).  Sanity companions at
one vertex below each value are emitted too; those must come back SAT.
"""

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gallaikit import formulas
from gallaikit.cnf import decode_assignment, encode_cnf, parse_model
from gallaikit.detect import verify
from gallaikit.search import SearchProblem

SOLVERS = ("kissat", "cadical", "cryptominisat5", "minisat", "glucose")

# the formulas.ANCHORS entries written out, by their per-color patterns
EXPORTED = (("kipas(4)",) * 2, ("h10",) * 3)


def jobs() -> list[tuple[str, SearchProblem, str]]:
    """(file stem, problem, expected outcome): SAT one vertex below each
    exported entry's value and UNSAT at it, in ledger order.  A stem reads
    gallai_ or ramsey_, the pattern id without parentheses, _n<n>_ and the
    outcome."""
    out = []
    for per_color, gallai, value in formulas.ANCHORS:
        if per_color not in EXPORTED:
            continue
        pid = per_color[0].replace("(", "").replace(")", "")
        for n, expected in ((value - 1, "sat"), (value, "unsat")):
            name = f"{'gallai' if gallai else 'ramsey'}_{pid}_n{n}_{expected}"
            out.append((name, SearchProblem(n, per_color, require_gallai=gallai), expected))
    return out


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
    for name, problem, expected in jobs():
        doc = encode_cnf(problem)
        path = out_dir / f"{name}.cnf"
        path.write_text(doc.to_dimacs(), encoding="ascii")
        docs[name] = (doc, problem, expected, path)
        print(f"{path}: n={doc.n} k={doc.k} vars={doc.num_vars} clauses={len(doc.clauses)}"
              f" (expected {expected.upper()})")

    if not args.run:
        print(f"\nhand the .cnf files in {out_dir} to a DIMACS solver, e.g. kissat")
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
