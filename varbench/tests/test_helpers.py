"""Tests of the benchmark's own helpers.  Run from the repository root:

    python3 -m unittest discover -s varbench/tests
"""

import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import client  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
SCRATCH = os.path.join(ROOT, ".varbench", "test")

# the tail of a `varsim serve` stderr under OCAMLRUNPARAM=v=0x400
GC_REPORT = """varsim serve: drained, bye
allocated_words: 62927245
minor_words: 62824348
promoted_words: 525539
major_words: 628436
minor_collections: 244
major_collections: 6
heap_words: 756995
"""

# a `{"op":"stats"}` response, trimmed to the fields the parser reads
STATS_LINE = json.dumps({
    "outcome": "stats", "req": 7, "uptime_s": 0.978,
    "requests": {"ok": 6, "failed": 0, "timed_out": 0},
    "latency_s": {"p50": 0.00280761719, "p90": 0.1796875, "p99": 0.1796875},
    "queue_s": {"p50": 2.19e-05, "p90": 3.62e-05, "p99": 3.62e-05},
    "queue_depth": 0, "lanes": 2, "lanes_busy": 1,
    "metrics": {
        "counters": {"cache.result.hits": 2, "cache.result.misses": 4},
        "gauges": {"gc.minor_words": 62539182},
        "histograms": {"serve.request.seconds": {"count": 6,
                                                 "sum": 0.35060906}}}})


class Percentile(unittest.TestCase):
    def test_p90_needs_ten_beyond(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.percentile(xs, 0.9), 90)
        self.assertEqual(sum(1 for x in xs if x > 90), 10)
        self.assertIsNone(metrics.percentile(list(range(1, 100)), 0.9))

    def test_order_does_not_matter(self):
        xs = [(i * 37) % 200 for i in range(200)]
        self.assertEqual(metrics.percentile(xs, 0.9),
                         metrics.percentile(sorted(xs), 0.9))
        self.assertEqual(metrics.percentile(xs, 0.9), 179)

    def test_high_quantile_needs_more_samples(self):
        self.assertIsNone(metrics.percentile(list(range(999)), 0.99))
        self.assertEqual(metrics.percentile(list(range(1000)), 0.99), 989)


class Parsers(unittest.TestCase):
    def test_gc_line(self):
        self.assertEqual(metrics.allocated_words(GC_REPORT), 62927245)
        self.assertIsNone(metrics.allocated_words("no report\n"))

    def test_stats(self):
        s = metrics.parse_stats(STATS_LINE)
        self.assertEqual(s["latency_p50_s"], 0.00280761719)
        self.assertEqual(s["queue_p90_s"], 3.62e-05)
        self.assertEqual(s["lanes"], 2)
        self.assertEqual(s["requests_ok"], 6)
        self.assertEqual(s["request_seconds_sum"], 0.35060906)
        self.assertEqual(s["counters"]["cache.result.hits"], 2)

    def test_stats_rejects_run_response(self):
        with self.assertRaises(ValueError):
            metrics.parse_stats('{"id":"j1","outcome":"ok"}')


class LayerSelves(unittest.TestCase):
    TREE = {"name": "job", "wall_s": 1.0, "children": [
        {"name": "spice.parse", "wall_s": 0.1, "children": []},
        {"name": "spice.execute", "wall_s": 0.8, "children": [
            {"name": "pss.solve", "wall_s": 0.5, "children": [
                {"name": "pss.sweep", "wall_s": 0.2, "children": []},
                {"name": "tran.run", "wall_s": 0.25, "children": []}]},
            {"name": "analysis.dc_variation", "wall_s": 0.2,
             "children": []}]}]}

    def test_unlisted_spans_fold_into_listed_parent(self):
        s = metrics.layer_selves(self.TREE)
        self.assertAlmostEqual(s["pss.solve.self_s"], 0.25)  # 0.05 + sweep
        self.assertAlmostEqual(s["tran.run.self_s"], 0.25)
        self.assertAlmostEqual(s["analysis.variation.self_s"], 0.2)
        self.assertAlmostEqual(s["spice.parse.self_s"], 0.1)
        self.assertAlmostEqual(s["other.self_s"], 0.2)  # job + execute self
        self.assertAlmostEqual(sum(s.values()), 1.0)

    def test_children_longer_than_parent(self):
        tree = {"name": "job", "wall_s": 1.0, "children": [
            {"name": "spice.execute", "wall_s": 0.5, "children": [
                {"name": "pss.solve", "wall_s": 0.4, "children": []},
                {"name": "tran.run", "wall_s": 0.2, "children": []}]}]}
        with self.assertRaisesRegex(ValueError, "spice.execute"):
            metrics.layer_selves(tree)


class Checks(unittest.TestCase):
    OUT = ("* deck\n\ndc(vos) [V]: nominal = 7.47028e-19, sigma = 0.0144183  "
           "(0.002s)\n  m2  dVT S=+1\nDC match at out: sigma = 0.00707107 V\n")

    def test_readings(self):
        self.assertEqual(checks.readings(self.OUT),
                         [(7.47028e-19, 0.0144183), (None, 0.00707107)])

    def test_tolerance(self):
        ref = [[3e-18, 0.0144184], [None, 0.00707107]]
        self.assertIsNone(checks.check_readings(self.OUT, ref))
        self.assertIsNotNone(checks.check_readings(
            self.OUT, [[7.47028e-19, 0.0145], [None, 0.00707107]]))
        self.assertIsNotNone(checks.check_readings(self.OUT, ref[:1]))

    def test_yield(self):
        out = ("  P_fail = 6.144523e-05   95% CI [4.941237e-05, 7.347808e-05]\n"
               "  fom = 0.09991   ESS = 11.1   status = converged\n"
               "  samples = 9216 (144 batches)   hits = 801\n")
        self.assertIsNone(checks.check_yield(out, {"p_fail": 5e-05}))
        self.assertIsNotNone(checks.check_yield(out, {"p_fail": 4.8e-05}))
        y = checks.parse_yield(out)
        self.assertEqual(y["samples"], 9216)
        mc = {"p_fail": 4.824913537549407e-05,
              "ci": [3.879253070523226e-05, 5.770574004575588e-05]}
        self.assertAlmostEqual(checks.z_vs_mc(y, mc), 1.69, places=2)


class Generator(unittest.TestCase):
    def test_dac_deck_text(self):
        lines = gen.dac_deck(200).splitlines()
        self.assertTrue(lines[0].startswith("DAC string"))
        self.assertEqual(sum(1 for l in lines if l.startswith("R")), 512)
        self.assertEqual(sum(1 for l in lines if l.startswith("C")), 511)
        self.assertEqual(lines[-2], ".mismatch tap200 pss=1u")

    def test_dac_deck_has_513_unknowns(self):
        subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                        "./varbench/trace/vtrace.exe"], cwd=ROOT, check=True)
        os.makedirs(SCRATCH, exist_ok=True)
        path = os.path.join(SCRATCH, "dac.sp")
        with open(path, "w") as f:
            f.write(gen.dac_deck(200))
        out = subprocess.run(
            [os.path.join(ROOT, "_build/default/varbench/trace/vtrace.exe"),
             "unknowns", path], check=True, capture_output=True, text=True)
        self.assertEqual(int(out.stdout), gen.DAC_UNKNOWNS)

    def test_variant_changes_one_value(self):
        text = "title\nVDD vdd 0 1.2\nV2 a 0 1.2\n.end\n"
        v = gen.variant_deck(text, 1.0 + 3e-14)
        self.assertNotEqual(v, text)
        self.assertEqual(v.splitlines()[2:], text.splitlines()[2:])
        self.assertEqual(float(v.splitlines()[1].split()[-1]), 1.2 * (1 + 3e-14))

    def test_balanced_passes(self):
        import random
        pool = list(range(1, 65))
        cost = {k: 150 + 10 * ((k * 29) % 64) for k in pool}
        cost[17] = 1100  # one dear outlier stays in the pool
        passes = gen.balanced_passes(pool, cost)
        self.assertEqual(len(passes), gen.PASSES)
        self.assertEqual(sorted(k for p in passes for k in p), pool)
        self.assertEqual({len(p) for p in passes}, {16})
        sums = [sum(cost[k] for k in p) for p in passes]
        self.assertLess(max(sums) - min(sums), 0.01 * min(sums))
        meds = [statistics.median(cost[k] for k in p) for p in passes]
        self.assertLess(max(meds) - min(meds), 0.02 * min(meds))
        # the cheapest and dearest of a pass are neighbours, and so on
        for p in passes:
            ranked = sorted(p, key=lambda k: (cost[k], k))
            self.assertEqual(p[:2], [ranked[0], ranked[-1]])
            again = gen.pair_shuffled(p, random.Random(6))
            self.assertEqual({frozenset(q) for q in zip(again[::2], again[1::2])},
                             {frozenset(q) for q in zip(p[::2], p[1::2])})

    def test_serve_stream(self):
        a = gen.take(gen.serve_stream(7, 0), 140)
        b = gen.take(gen.serve_stream(7, 0), 140)
        self.assertEqual([(v.vid, v.factor, r) for v, r in a],
                         [(v.vid, v.factor, r) for v, r in b])
        other = gen.take(gen.serve_stream(7, 1), 140)
        self.assertFalse({v.vid for v, _ in a} & {v.vid for v, _ in other})
        self.assertFalse({v.factor for v, _ in a}
                         & {v.factor for v, _ in other})
        seen = set()
        for v, repeat in a:
            self.assertEqual(repeat, v.vid in seen)
            seen.add(v.vid)
        self.assertEqual(sum(r for _, r in a), 70)
        self.assertGreater(len(seen), 32)  # more than the memory tier holds


class FakeServer:
    """Line server on a Unix socket: answers each request after a short
    delay and records any request that arrived while the previous one
    on the same connection was still unanswered."""

    def __init__(self, path):
        self.path = path
        self.violations = []
        self.order = {}
        self.srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.srv.bind(path)
        self.srv.listen(4)
        self.thread = threading.Thread(target=self.accept, daemon=True)
        self.thread.start()

    def accept(self):
        while True:
            try:
                conn, _ = self.srv.accept()
            except OSError:
                return
            threading.Thread(target=self.serve, args=(conn,), daemon=True).start()

    def serve(self, conn):
        f = conn.makefile("rb")
        for raw in f:
            req = json.loads(raw)
            self.order.setdefault(req["id"].split("-")[0], []).append(req["id"])
            time.sleep(0.003)
            try:
                conn.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
                self.violations.append(req["id"])
            except BlockingIOError:
                pass
            conn.sendall((json.dumps({"id": req["id"], "outcome": "ok"})
                          + "\n").encode())
        conn.close()

    def close(self):
        self.srv.close()


class ClosedLoop(unittest.TestCase):
    def test_per_connection_ordering(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)
        path = os.path.relpath(os.path.join(SCRATCH, "s.sock"))
        srv = FakeServer(path)
        try:
            streams = [iter(range(1000)), iter(range(1000))]
            res = client.closed_loop(
                path, streams,
                lambda c, item, n: {"id": "c%d-%d" % (c, n)},
                time.perf_counter() + 0.3)
        finally:
            srv.close()
        self.assertEqual(srv.violations, [])
        for conn, records in enumerate(res):
            self.assertGreater(len(records), 5)
            ids = ["c%d-%d" % (conn, n) for n in range(len(records))]
            self.assertEqual([req["id"] for _, req, _, _, _ in records], ids)
            self.assertEqual([resp["id"] for _, _, resp, _, _ in records], ids)
            self.assertEqual(srv.order["c%d" % conn], ids)
            self.assertTrue(all(dt > 0.002 for _, _, _, dt, _ in records))


if __name__ == "__main__":
    unittest.main()
