"""Self-test of the benchmark: wrong outputs must count as failures, not crash it.

Run from the root of a checkout:

    python3 gkbench/selftest.py

It runs a few tiny CLI jobs through the benchmark's runner: a correct
verify, the same verify on a GRC file with one edge recolored, an encode
whose DIMACS file is then truncated, and a decode fed a garbage model.
It exits 0 when exactly the corrupted jobs are counted as failed.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from pathlib import Path

from grc import grc_text, read_grc
from run import Runner
from workloads import Job, clause_count, two_pentagons


def main() -> int:
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "gallaikit" / "cli.py").is_file():
        print("error: run from a checkout root", file=sys.stderr)
        return 2
    work = root / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    runner = Runner(work, env, deadline=time.perf_counter() + 120)

    good = two_pentagons()
    (work / "good.grc").write_text(grc_text(good), encoding="ascii")
    bad = read_grc(work / "good.grc")
    bad.rows[0][4] = 1  # edge (0, 5) leaves the join color: rainbow triangle (0, 5, 2)
    (work / "bad.grc").write_text(grc_text(bad), encoding="ascii")
    expect = {"pattern": "h10", "passed": True, "rainbow": False}
    ok_verify = Job("verify-good", ["verify", "good.grc", "--gallai", "--forbid-all", "h10"],
                    dict(expect, file="good.grc"))
    bad_verify = Job("verify-recolored", ["verify", "bad.grc", "--gallai", "--forbid-all", "h10"],
                     dict(expect, file="bad.grc"))
    encode = Job("encode-truncated",
                 ["encode", "--n", "6", "--k", "2", "--per-color", "h10,h10", "--out", "e.cnf"],
                 {"file": "e.cnf", "n": 6, "k": 2, "clauses": clause_count(6, 2, "h10", False)})
    (work / "junk.model").write_text("s SATISFIABLE\nv 1 2 3 0\n", encoding="ascii")
    decode = Job("decode-garbage",
                 ["decode", "--cnf", "e.cnf", "--model", "junk.model", "--n", "6", "--k", "2"],
                 {"colors": [1] * 15, "file": "unused.grc"})

    for job in (ok_verify, bad_verify, encode):
        runner.run(job)
    clean = len(runner.failures)
    text = (work / "e.cnf").read_text(encoding="ascii")
    (work / "e.cnf").write_text(text[: len(text) // 2], encoding="ascii")
    runner.record(encode, {"clauses": encode.expect["clauses"]})
    runner.run(decode)

    failed = sorted(line.split(":")[0] for line in runner.failures)
    want = ["decode-garbage", "encode-truncated", "verify-recolored"]
    share = len(runner.failures) / runner.attempted
    print(f"attempted={runner.attempted} failed={failed} fail_share={share:.3f}")
    for line in runner.failures:
        print(f"  {line}")
    if clean != 1 or failed != want or runner.attempted != 5:
        print("SELFTEST FAILED", file=sys.stderr)
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
