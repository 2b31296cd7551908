"""Output checks, one per CLI command, written with plain loops.

Each check gets the job, the parsed JSON the command printed (None if it
printed none) and the work directory, and returns None when the output is
right or a one-line reason when it is wrong.  The exit code is not looked
at: a search that exhausts exits 1 and is still a correct answer.
"""

from __future__ import annotations

import json

from grc import Dense, dimacs_counts, from_flat, mono_copy, read_grc
from workloads import PATTERNS, Job


def parse_output(text: str) -> dict | None:
    """The JSON object on the last line a CLI command printed, or None."""
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _rainbow(c: Dense, tri) -> bool:
    if len(tri) != 3 or len(set(tri)) != 3 or not all(0 <= v < c.n for v in tri):
        return False
    x, y, z = tri
    return len({c.color(x, y), c.color(x, z), c.color(y, z)}) == 3


def check_build(job: Job, out: dict, work) -> str | None:
    want = job.expect
    if out.get("size") != want["n"] or out.get("certified") is not True:
        return f"size {out.get('size')}, want {want['n']} certified"
    c = read_grc(work / job.argv[job.argv.index("--out") + 1])
    if (c.n, c.k) != (want["n"], want["k"]):
        return f"written file has n={c.n} k={c.k}"
    return None


def check_verify(job: Job, out: dict, work, c: Dense) -> str | None:
    want = job.expect
    if out.get("passed") is not want["passed"]:
        return f"verdict {out.get('passed')}, want {want['passed']}"
    tri = out.get("rainbow_witness")
    if want["rainbow"]:
        if tri is None or not _rainbow(c, tri):
            return f"rainbow witness {tri} is not a rainbow triangle"
    elif tri is not None:
        return f"unexpected rainbow witness {tri}"
    m, edges = PATTERNS[want["pattern"]]
    witnesses = out.get("mono_witnesses", [])
    if not want["passed"] and not want["rainbow"] and not witnesses:
        return "failed without a witness"
    for wit in witnesses:
        f, col = wit["vertices"], wit["color"]
        if len(f) != m or len(set(f)) != m or not all(0 <= v < c.n for v in f):
            return f"witness map {f} is not injective into the host"
        if any(c.color(f[a], f[b]) != col for a, b in edges):
            return f"witness {f} is not monochromatic in color {col}"
    return None


def check_partition(job: Job, out: dict, work, c: Dense) -> str | None:
    want = job.expect
    if want["rainbow"]:
        tri = out.get("rainbow_witness")
        return None if tri is not None and _rainbow(c, tri) else f"bad rainbow witness {tri}"
    parts = out.get("parts")
    if not parts or len(parts) != want["ell"] or out.get("ell") != want["ell"]:
        return f"ell {out.get('ell')}, want {want['ell']}"
    seen = sorted(v for p in parts for v in p)
    if seen != list(range(c.n)):
        return "parts do not cover the vertices exactly once"
    quotient = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            col = c.color(parts[a][0], parts[b][0])
            if any(c.color(i, j) != col for i in parts[a] for j in parts[b]):
                return f"parts {a} and {b} meet in more than one color"
            quotient.append(col)
    if quotient != out.get("quotient_colors") or len(set(quotient)) > 2:
        return "quotient is wrong or uses more than two colors"
    return None


def check_search(job: Job, out: dict, work) -> str | None:
    want = job.expect
    if out.get("kind") != want["kind"]:
        return f"kind {out.get('kind')}, want {want['kind']}"
    if want["kind"] != "witness":
        return None
    n = want["n"]
    colors = out.get("witness_colors") or []
    if len(colors) != n * (n - 1) // 2 or any(x not in (1, 2) for x in colors):
        return "witness has the wrong shape"
    c = from_flat(n, 2, colors)
    m, edges = PATTERNS[want["pattern"]]
    for col in (1, 2):
        if mono_copy(c, m, edges, col):
            return f"witness holds a monochromatic {want['pattern']} in color {col}"
    if read_grc(work / job.argv[job.argv.index("--out") + 1]).flat() != colors:
        return "written witness differs from the printed one"
    return None


def check_encode(job: Job, out: dict, work) -> str | None:
    want = job.expect
    if out.get("clauses") != want["clauses"]:
        return f"{out.get('clauses')} clauses, want {want['clauses']}"
    num_vars, header, present = dimacs_counts(work / want["file"])
    edges = want["n"] * (want["n"] - 1) // 2
    if num_vars != edges * want["k"] or header != want["clauses"] or present != header:
        return f"DIMACS file holds {present} of {header} clauses, want {want['clauses']}"
    return None


def check_decode(job: Job, out: dict, work) -> str | None:
    want = job.expect
    if out.get("kind") != "sat" or out.get("colors") != want["colors"]:
        return "decoded coloring differs from the one the model was written from"
    if read_grc(work / want["file"]).flat() != want["colors"]:
        return "written coloring differs from the decoded one"
    return None


def check(job: Job, out: dict | None, work, inputs: dict) -> str | None:
    """Check one job's output; inputs caches the parsed GRC inputs by file name."""
    if out is None:
        return "no JSON output"
    if job.command in ("verify", "partition"):
        name = job.expect["file"]
        if name not in inputs:
            inputs[name] = read_grc(work / name)
        fn = check_verify if job.command == "verify" else check_partition
        return fn(job, out, work, inputs[name])
    return {"build": check_build, "search": check_search,
            "encode": check_encode, "decode": check_decode}[job.command](job, out, work)
