"""In-process traced run: spans around calls into each module's public functions.

The traced run calls gallaikit.cli.main with the same arguments as the CLI
jobs, once untraced and once with every public function below wrapped in a
span.  Spans nest wherever one public function calls another (verify calls
color_neighbor_masks, exhaustive_check calls enumerate_pattern_images, and
so on), so a layer's self time is its span minus the spans nested in it.
Rainbow scan and embedding search share one public entry point, verify, so
after each verify job two probes split it: verify with no forbids (rainbow
scan plus masks) and verify on one color at a time (embedding plus masks).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import time
from math import comb, factorial

from checks import parse_output
from workloads import Job

perf = time.perf_counter


def _images_counts(args, result):
    pattern, n = args
    tried = comb(n, pattern.m) * factorial(pattern.m) if pattern.m <= n else 0
    return {"images": len(result), "tried": tried}


# (module, attribute, span name, counts taken from the call's arguments and result)
INSTRUMENTED = (
    ("coloring", "parse", "coloring.parse", lambda a, r: {"bytes": len(a[0])}),
    ("construct", "parse", "coloring.parse", lambda a, r: {"bytes": len(a[0])}),
    ("coloring", "serialize", "coloring.serialize", lambda a, r: {"bytes": len(r)}),
    ("cli", "build_lower", "construct.build_lower", None),
    ("construct", "verify", "construct.certify", None),
    ("cli", "verify", "detect.verify", None),
    ("search", "verify", "detect.verify", None),
    ("detect", "color_neighbor_masks", "detect.color_neighbor_masks", None),
    ("decompose", "color_neighbor_masks", "detect.color_neighbor_masks", None),
    ("decompose", "find_rainbow_triangle", "detect.find_rainbow_triangle", None),
    ("search", "enumerate_pattern_images", "detect.enumerate_pattern_images", _images_counts),
    ("cnf", "enumerate_pattern_images", "detect.enumerate_pattern_images", _images_counts),
    ("cli", "gallai_partition", "decompose.gallai_partition", lambda a, r: {"ell": r.ell}),
    ("cli", "exhaustive_check", "search.exhaustive_check",
     lambda a, r: {"nodes": r.nodes_explored}),
    ("cli", "encode_cnf", "cnf.encode_cnf", lambda a, r: {"clauses": len(r.clauses)}),
    ("cnf.CnfDocument", "to_dimacs", "cnf.to_dimacs", lambda a, r: {"bytes": len(r)}),
    ("cli", "parse_dimacs", "cnf.parse_dimacs", None),
    ("cli", "parse_model", "cnf.parse_model", None),
    ("cli", "decode_assignment", "cnf.decode_assignment", None),
    ("cli", "assignment_satisfies", "cnf.assignment_satisfies", None),
)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, job id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        rec = [name, perf(), None, parent, self.job, counts]
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            yield rec[5]
        finally:
            self.stack.pop()
            rec[2] = perf()

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(args, result))
            return result
        return traced

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path) -> None:
        names = ("name", "start", "end", "parent", "job", "counts")
        with open(path, "w", encoding="ascii") as fh:
            json.dump([dict(zip(names, s)) for s in self.spans], fh)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Patch the instrumented names for the duration of the block."""
    saved = []
    for where, attr, name, counter in INSTRUMENTED:
        mod_name, _, cls = where.partition(".")
        owner = importlib.import_module(f"gallaikit.{mod_name}")
        if cls:
            owner = getattr(owner, cls)
        if not hasattr(owner, attr):
            continue  # the program no longer has this entry point
        fn = owner.__dict__[attr] if cls else getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(fn, name, counter))
    try:
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def call_cli(argv: list[str]) -> dict | None:
    """Run the CLI in this process; returns the JSON it printed, if any."""
    from gallaikit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv + ["--json"])
    return parse_output(buf.getvalue())


def probe_verify(tracer: Tracer, job: Job, work) -> None:
    """Split a verify job: rainbow scan alone, then each color's embedding alone."""
    from gallaikit.coloring import read_grc
    from gallaikit.detect import AvoidanceSpec, verify
    from gallaikit.patterns import canonical_id

    with tracer.span("probe.verify"):
        c = read_grc(work / job.argv[1])
        pid = canonical_id(job.argv[job.argv.index("--forbid-all") + 1])
        with tracer.span("probe.rainbow") as counts:
            counts["pairs"] = verify(c, AvoidanceSpec((), True)).stats.pairs_scanned
        for color in range(1, c.k + 1):
            with tracer.span("probe.embed", color=color) as counts:
                report = verify(c, AvoidanceSpec(((color, pid),), False))
                counts["nodes"] = report.stats.embedding_nodes


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer self times (multiplied by scale) and counts, with their units."""
    own = tracer.self_times()
    in_probe = [False] * len(tracer.spans)
    for i, s in enumerate(tracer.spans):
        in_probe[i] = s[0].startswith("probe.") or (s[3] is not None and in_probe[s[3]])
    t: dict[str, float] = {}
    n: dict[str, float] = {}
    top: dict[object, float] = {}
    for i, (name, _, _, _, job, counts) in enumerate(tracer.spans):
        if in_probe[i] and not name.startswith("probe."):
            continue  # masks inside probes were already counted in the job itself
        t[name] = t.get(name, 0.0) + own[i] * scale
        for key, value in counts.items():
            n[f"{name}.{key}"] = n.get(f"{name}.{key}", 0) + value
        if name == "probe.embed":
            top[job] = max(top.get(job, 0.0), own[i] * scale)
    check_s = t.get("search.exhaustive_check", 0.0)
    nodes = n.get("search.exhaustive_check.nodes", 0)
    tried = n.get("detect.enumerate_pattern_images.tried", 0)
    images = n.get("detect.enumerate_pattern_images.images", 0)
    return {
        "coloring.parse_s": (t.get("coloring.parse", 0.0), "s"),
        "coloring.serialize_s": (t.get("coloring.serialize", 0.0), "s"),
        "coloring.grc_bytes": (n.get("coloring.parse.bytes", 0)
                               + n.get("coloring.serialize.bytes", 0), "bytes"),
        "construct.assemble_s": (t.get("construct.build_lower", 0.0), "s"),
        "construct.certify_s": (t.get("construct.certify", 0.0), "s"),
        "detect.masks_s": (t.get("detect.color_neighbor_masks", 0.0), "s"),
        "detect.rainbow_s": (t.get("probe.rainbow", 0.0)
                             + t.get("detect.find_rainbow_triangle", 0.0), "s"),
        "detect.rainbow_pairs": (n.get("probe.rainbow.pairs", 0), "count"),
        "detect.embed_s": (t.get("probe.embed", 0.0), "s"),
        "detect.embed_nodes": (n.get("probe.embed.nodes", 0), "count"),
        "detect.embed_top_color_s": (sum(top.values()), "s"),
        "detect.images_s": (t.get("detect.enumerate_pattern_images", 0.0), "s"),
        "detect.images_yield": (images / tried if tried else 0.0, "ratio"),
        "decompose.partition_self_s": (t.get("decompose.gallai_partition", 0.0), "s"),
        "decompose.ell": (n.get("decompose.gallai_partition.ell", 0), "count"),
        "search.check_s": (check_s, "s"),
        "search.nodes": (nodes, "count"),
        "search.nodes_per_s": (nodes / check_s if check_s > 0 else 0.0, "1/s"),
        "cnf.encode_s": (t.get("cnf.encode_cnf", 0.0), "s"),
        "cnf.clauses": (n.get("cnf.encode_cnf.clauses", 0), "count"),
        "cnf.dimacs_s": (t.get("cnf.to_dimacs", 0.0), "s"),
        "cnf.dimacs_bytes": (n.get("cnf.to_dimacs.bytes", 0), "bytes"),
        "cnf.parse_s": (t.get("cnf.parse_dimacs", 0.0) + t.get("cnf.parse_model", 0.0), "s"),
        "cnf.satisfies_s": (t.get("cnf.assignment_satisfies", 0.0), "s"),
        "cnf.decode_s": (t.get("cnf.decode_assignment", 0.0), "s"),
    }
