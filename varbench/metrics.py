"""Statistics and parsers shared by the benchmark's workloads."""

import json
import math
import re
import statistics

MIN_BEYOND = 10  # a percentile is reported only with this many samples past it


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank upper ``q``-quantile of ``values``, or None when
    fewer than ``min_beyond`` samples lie beyond it: the p90 of 100
    samples is the 90th smallest, with 10 beyond; of 99 it is None."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs) - 1e-9))
    if len(xs) - rank < min_beyond:
        return None
    return xs[rank - 1]


def median(values):
    return statistics.median(values) if values else None


_GC = re.compile(r"^allocated_words:\s*(\d+)\s*$", re.MULTILINE)


def allocated_words(stderr_text):
    """``allocated_words`` from the ``OCAMLRUNPARAM=v=0x400`` report a
    program prints to stderr at exit; None when absent."""
    found = _GC.findall(stderr_text)
    return int(found[-1]) if found else None


def parse_stats(line):
    """The fields of a ``varsim serve`` ``{"op":"stats"}`` response the
    benchmark reads, as a flat dict."""
    d = json.loads(line)
    if d.get("outcome") != "stats":
        raise ValueError("not a stats response")
    m = d.get("metrics", {})
    hist = m.get("histograms", {})
    req = hist.get("serve.request.seconds", {})
    return {
        "latency_p50_s": d["latency_s"]["p50"],
        "queue_p90_s": d["queue_s"]["p90"],
        "lanes": d["lanes"],
        "uptime_s": d["uptime_s"],
        "requests_ok": d["requests"]["ok"],
        "request_seconds_sum": req.get("sum", 0.0),
        "request_count": req.get("count", 0),
        "counters": m.get("counters", {}),
        "gauges": m.get("gauges", {}),
    }


# --- per-layer self time from a traced job's span tree

# span name -> per-layer metric that owns its self time; spans not
# listed fold into their nearest listed ancestor, or into other.self_s
LAYER_SPANS = {
    "spice.parse": "spice.parse.self_s",
    "spice.elab": "spice.elab.self_s",
    "spice.fingerprint": "spice.fingerprint.self_s",
    "spice.render": "spice.render.self_s",
    "cache.find": "cache.find.self_s",
    "cache.put": "cache.put.self_s",
    "analysis.prepare": "analysis.prepare.self_s",
    "pss.solve": "pss.solve.self_s",
    "pss_osc.solve": "pss.solve.self_s",
    "tran.run": "tran.run.self_s",
    "lptv.build": "lptv.build.self_s",
    "lptv.phi": "lptv.phi.self_s",
    "pnoise.analyze": "pnoise.analyze.self_s",
    "dc.solve": "dc.solve.self_s",
    "monte_carlo.run": "monte_carlo.run.self_s",
    "yield.estimate": "yield.estimate.self_s",
}
OTHER = "other.self_s"
VARIATION = "analysis.variation.self_s"


def layer_of(name):
    if name in LAYER_SPANS:
        return LAYER_SPANS[name]
    if name.startswith("analysis.") and "variation" in name:
        return VARIATION
    return None


# Obs stamps spans with the microsecond wall clock
SELF_EPS = 1e-6


def layer_selves(tree):
    """Self seconds per layer metric of one span tree (the dict form of
    ``Obs.metrics_json``'s root).  A span's self time is its wall time
    minus its children's; it is charged to the span's own layer or to
    its nearest listed ancestor's, so the values sum to the root's wall
    time by construction.  Raises ValueError when a span's children
    cover more time than the span itself."""
    out = {}

    def walk(node, owner):
        owner = layer_of(node["name"]) or owner
        children = node.get("children", [])
        own = node["wall_s"] - sum(c["wall_s"] for c in children)
        if own < -SELF_EPS:
            raise ValueError("span %s: children exceed its wall time by %.9f s"
                             % (node["name"], -own))
        out[owner] = out.get(owner, 0.0) + own
        for c in children:
            walk(c, owner)

    walk(tree, OTHER)
    return out
