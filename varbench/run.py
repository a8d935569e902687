#!/usr/bin/env python3
"""varsim benchmark: end-to-end job metrics through the real ``varsim``
binary, and a traced pass that times each layer.

    python3 varbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 varbench/run.py --record      # re-record varbench/reference.json
    python3 varbench/run.py --manifest    # print BENCHMARK.json

Run from the root of a varsim checkout: the benchmark builds varsim
there with dune (build time is not measured), writes its scratch files
under ``.varbench/`` and prints one JSON result as its last line.  Every
job's output is checked against ``reference.json``; the exit code is 1
when any check fails.  See varbench/METRICS.md for every metric.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import client  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402

VARSIM = "_build/default/bin/varsim.exe"
VTRACE = "_build/default/varbench/trace/vtrace.exe"
WORK = ".varbench"
REFERENCE = os.path.join(HERE, "reference.json")
JOB_TIMEOUT = 60.0
RUN_SECONDS = 25  # BENCHMARK.json run_seconds
SETUPS = 5  # set-up runs per benchmark run; setup_s is their median
STARTUP_RUNS = 20  # `varsim version` runs behind cli.startup_s
SERVE_LANES = 2
# serve_mixed runs fixed-work sessions: this many request rounds per
# connection on a fresh daemon each.  The daemon's heap grows with the
# requests it has served, so its peak RSS compares only at equal work.
SERVE_ROUNDS = 10
SERVE_REPLAY = 98  # serve_mixed requests replayed in-process (7 rounds)

YIELD_ARGS = ["-o", "q", "--above", "0.6", "-n", "32768", "--fom", "0.1",
              "--scale", "0.25"]

WORKLOADS = {
    "cli_small": "the 7 small decks, one varsim run process each: process "
                 "start, the spice front end and the dense engine path",
    "cli_dac512": "a 513-unknown DAC-string deck per varsim run: sparse LU, "
                  "GMRES shooting, LPTV step factors and 1023 PNOISE transfers",
    "yield_sram": "varsim yield on the SRAM read deck over seeded IS seeds: "
                  "DC Newton with its rung escapes, Monte_carlo and lib/yield",
    "serve_mixed": "closed loop on 2 connections to varsim serve --lanes 2: "
                   "half repeats, so cache hits from memory and disk, and misses",
}

END_TO_END = [
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("alloc_mwords_per_job", "Mwords", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# name, unit, better
PER_LAYER = [
    ("cli.startup_s", "s", "lower"),
    ("spice.parse.self_s", "s/job", "lower"),
    ("spice.elab.self_s", "s/job", "lower"),
    ("spice.fingerprint.self_s", "s/job", "lower"),
    ("spice.render.self_s", "s/job", "lower"),
    ("spice.mwords", "Mwords/job", "lower"),
    ("analysis.prepare.self_s", "s/job", "lower"),
    ("analysis.variation.self_s", "s/job", "lower"),
    ("pss.solve.self_s", "s/job", "lower"),
    ("tran.run.self_s", "s/job", "lower"),
    ("lptv.build.self_s", "s/job", "lower"),
    ("lptv.phi.self_s", "s/job", "lower"),
    ("pnoise.analyze.self_s", "s/job", "lower"),
    ("dc.solve.self_s", "s/job", "lower"),
    ("monte_carlo.run.self_s", "s/job", "lower"),
    ("yield.estimate.self_s", "s/job", "lower"),
    ("cache.find.self_s", "s/job", "lower"),
    ("cache.put.self_s", "s/job", "lower"),
    ("other.self_s", "s/job", "lower"),
    ("job.traced_s", "s/job", "lower"),
    ("tran.steps", "count/job", "lower"),
    ("pss.sweep_steps", "count/job", "lower"),
    ("pss.shooting_iterations", "count/job", "lower"),
    ("pnoise.transfers", "count/job", "lower"),
    ("newton.iterations", "count/job", "lower"),
    ("newton.failures", "count/job", "lower"),
    ("newton.iters_per_solve", "ratio", "lower"),
    ("ladder.escape_ratio", "ratio", "lower"),
    ("linsys.fact.dense", "count/job", "lower"),
    ("linsys.fact.sparse", "count/job", "lower"),
    ("gmres.iterations", "count/job", "lower"),
    ("gmres.restarts", "count/job", "lower"),
    ("symbolic.plan", "count/job", "lower"),
    ("plan_cache.hit_ratio", "ratio", "higher"),
    ("yield.samples", "count/job", "lower"),
    ("yield.samples_per_s", "1/s", "higher"),
    ("yield.ess", "count/job", "higher"),
    ("yield.z_vs_mc", "z", "lower"),
    ("cache.result.hit_ratio", "ratio", "higher"),
    ("cache.disk.hits", "count/job", "higher"),
    ("cache.disk.writes", "count/job", "lower"),
    ("cache.hit_p50_s", "s", "lower"),
    ("cache.miss_p50_s", "s", "lower"),
    ("serve.latency_p50_s", "s", "lower"),
    ("serve.queue_p90_s", "s", "lower"),
    ("serve.lane_busy_ratio", "ratio", "lower"),
    ("serve.protocol_s", "s", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
]

# engine counters reported per job, and those that must repeat exactly
COUNTS = ["tran.steps", "pss.sweep_steps", "pnoise.transfers",
          "newton.iterations", "newton.failures", "linsys.fact.dense",
          "linsys.fact.sparse", "gmres.iterations", "gmres.restarts",
          "symbolic.plan", "yield.samples"]
EXACT_COUNTS = ["newton.iterations", "linsys.fact.dense",
                "linsys.fact.sparse", "gmres.iterations", "pnoise.transfers",
                "yield.samples"]


def die(msg):
    print("varbench: " + msg, file=sys.stderr)
    sys.exit(2)


def manifest():
    return {
        "command": ["python3", "varbench/run.py"],
        "paths": ["varbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d}
                       for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


# --------------------------------------------------------------- processes

def build():
    for f in ("dune-project", "bin/varsim.ml", "decks/sram_read.sp",
              "varbench/trace/dune"):
        if not os.path.exists(f):
            die("run from the root of a varsim checkout (no %s here)" % f)
    p = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                        "./bin/varsim.exe", "./varbench/trace/vtrace.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        die("build failed")


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def spawn(argv, out_path, err_path):
    env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    return os.posix_spawn(argv[0], argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)])


def reap(pid, timeout):
    """Wait for ``pid``; SIGKILL it after ``timeout`` seconds.  Returns
    (exit code, rusage, timed out)."""
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    timed_out = False
    try:
        _, status, ru = os.wait4(pid, 0)
    except Timeout:
        timed_out = True
        os.kill(pid, signal.SIGKILL)
        _, status, ru = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return os.waitstatus_to_exitcode(status), ru, timed_out


def read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def run_cli(argv, work):
    """One varsim process, timed from spawn to exit."""
    out, err = os.path.join(work, "job.out"), os.path.join(work, "job.err")
    t0 = time.perf_counter()
    pid = spawn(argv, out, err)
    code, ru, timed_out = reap(pid, JOB_TIMEOUT)
    dt = time.perf_counter() - t0
    stderr = read(err)
    return {"seconds": dt, "code": code, "timed_out": timed_out,
            "stdout": read(out), "alloc": metrics.allocated_words(stderr),
            "rss_mb": ru.ru_maxrss / 1024.0}


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


# --------------------------------------------------------------- workloads

class CliWorkload:
    """Jobs in passes; each pass holds the same inputs in a new order.
    A job is (label, varsim arguments, output check, vtrace job line)."""

    def __init__(self, name, seed, ref):
        self.name, self.seed, self.ref = name, seed, ref
        self.work = os.path.join(WORK, name)
        self.rng = random.Random("%s/%d" % (name, seed))

    def setup(self):
        fresh_dir(self.work)
        self.generate()
        self.run_job(self.warmup)  # discarded

    def run_job(self, job):
        label, argv, check, _ = job
        r = run_cli([VARSIM] + argv, self.work)
        r["label"] = label
        if r["timed_out"]:
            r["error"] = "timed out"
        elif r["code"] != 0:
            r["error"] = "exit %d" % r["code"]
        else:
            r["error"] = check(r["stdout"])
        return r

    def next_pass(self):
        return gen.shuffled(self.jobs, self.rng)

    def trace_jobs(self):
        """(vtrace job line, checker) of the jobs the traced pass replays:
        the whole first pass."""
        return [(line, check) for _, _, check, line in self.jobs]


class Balanced(CliWorkload):
    """Passes over one of ``gen.balanced_passes`` keep its cheap/dear
    pairs together."""

    def __init__(self, name, seed, ref):
        super().__init__(name, seed, ref)
        # a constant of the reference pool, not of the seed, so it is
        # worked out once here rather than in each timed set-up
        self.cost = self.pool_cost()
        self.passes = gen.balanced_passes(sorted(self.cost), self.cost)

    def seeded_pass(self):
        """The seed's pass, in a seeded order."""
        p = self.passes[self.rng.randrange(len(self.passes))]
        return gen.pair_shuffled(p, self.rng)

    def next_pass(self):
        return gen.pair_shuffled(self.jobs, self.rng)

    def trace_jobs(self):
        """Half a pass, whole mirrored pairs: still a balanced mix, and
        two traced replays of it fit a run."""
        return super().trace_jobs()[:len(self.jobs) // 2]


class CliSmall(CliWorkload):
    def generate(self):
        self.jobs = []
        for d in gen.SMALL_DECKS:
            path = "decks/%s.sp" % d
            ref = self.ref["decks"][d]
            self.jobs.append(
                (d, ["run", path],
                 lambda out, ref=ref: checks.check_readings(out, ref),
                 "run\t" + path))
        self.warmup = self.jobs[gen.SMALL_DECKS.index("comparator")]


class CliDac(Balanced):
    def pool_cost(self):
        return {t: self.ref["dac"][str(t)]["alloc"] for t in gen.DAC_TAP_POOL}

    def generate(self):
        pool = self.ref["dac"]
        self.jobs = []
        for t in self.seeded_pass():
            path = os.path.join(self.work, "dac512_tap%d.sp" % t)
            with open(path, "w") as f:
                f.write(gen.dac_deck(t))
            ref = pool[str(t)]["readings"]
            self.jobs.append(
                ("tap%d" % t, ["run", path],
                 lambda out, ref=ref: checks.check_readings(out, ref),
                 "run\t" + path))
        self.warmup = self.jobs[0]


class YieldSram(Balanced):
    def pool_cost(self):
        return {s: self.ref["yield"][str(s)]["alloc"] for s in gen.YIELD_POOL}

    def generate(self):
        self.jobs = [self.job(s) for s in self.seeded_pass()]
        cheapest = min(self.cost, key=lambda s: (self.cost[s], s))
        self.warmup = self.job(cheapest)

    def job(self, s):
        ref = self.ref["yield"][str(s)]
        return ("seed%d" % s,
                ["yield", "decks/sram_read.sp"] + YIELD_ARGS + ["--seed", str(s)],
                lambda out: checks.check_yield(out, ref),
                "yield\tdecks/sram_read.sp\t%d" % s)


def measure_cli(w, seconds):
    """Jobs until ``seconds`` have passed (and at least one whole pass).
    Returns the job records and the measured wall time."""
    records = []
    t0 = time.perf_counter()
    p = 0
    while True:
        for job in w.next_pass():
            records.append(w.run_job(job))
            if p > 0 and time.perf_counter() - t0 >= seconds:
                return records, time.perf_counter() - t0
        p += 1
        if time.perf_counter() - t0 >= seconds:
            return records, time.perf_counter() - t0


def cli_e2e(records, wall, pass_size):
    ok = [r for r in records if r["error"] is None]
    # allocation over whole passes only: each pass holds the same jobs,
    # so the mean repeats exactly however many passes fit the time
    whole = len(records) // pass_size * pass_size
    allocs = [r["alloc"] for r in records[:whole] if r["alloc"] is not None]
    times = [r["seconds"] for r in records]
    return {
        "jobs_per_s": len(ok) / wall,
        "job_p50_s": statistics.median(times),
        "job_p90_s": metrics.percentile(times, 0.9),
        "alloc_mwords_per_job": (statistics.fmean(allocs) / 1e6
                                 if allocs else None),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


# -------------------------------------------------------------- serve_mixed

class Daemon:
    def __init__(self, work):
        self.work = work
        self.sock = os.path.join(work, "s.sock")
        self.err = os.path.join(work, "daemon.err")
        self.pid = spawn([VARSIM, "serve", "--lanes", str(SERVE_LANES),
                          "--cache", os.path.join(work, "cache"),
                          "--socket", self.sock],
                         os.path.join(work, "daemon.out"), self.err)
        self.done = None
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                client.Connection(self.sock, 1.0).close()
                return
            except OSError:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise RuntimeError("varsim serve did not start")
                time.sleep(0.002)

    def stop(self):
        """SIGTERM (drain) and reap; returns (exit code, rusage, stderr)."""
        if self.done is None:
            try:
                os.kill(self.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            code, ru, _ = reap(self.pid, JOB_TIMEOUT)
            self.done = (code, ru, read(self.err))
        return self.done


class ServeMixed:
    def __init__(self, name, seed, ref):
        self.seed, self.ref = seed, ref
        self.work = os.path.join(WORK, name)
        self.daemon = None
        self.texts = {d: read("decks/%s.sp" % d) for d in gen.SMALL_DECKS}

    def setup(self):
        if self.daemon:
            self.daemon.stop()
        fresh_dir(self.work)
        self.daemon = Daemon(self.work)
        c = client.Connection(self.daemon.sock, JOB_TIMEOUT)
        try:
            c.request({"op": "run", "id": "warmup",
                       "deck": self.texts["comparator"]})
        finally:
            c.close()

    def deck_text(self, variant):
        return gen.variant_deck(self.texts[variant.deck], variant.factor)

    def request(self, conn, item, n):
        variant, _ = item
        return {"op": "run", "id": "c%d-%d" % (conn, n),
                "deck": self.deck_text(variant)}

    def session(self):
        """One session on the set-up daemon: SERVE_ROUNDS rounds of each
        connection's stream, then the daemon is stopped.  Returns a dict
        of the checked records, the wall time, the ``stats`` response,
        and the daemon's peak RSS (MB) and allocated words."""
        n = SERVE_ROUNDS * 2 * len(gen.SMALL_DECKS)
        streams = [gen.take(gen.serve_stream(self.seed, c), n)
                   for c in range(gen.SERVE_CONNECTIONS)]
        t0 = time.perf_counter()
        per_conn = client.closed_loop(self.daemon.sock, streams, self.request,
                                      float("inf"), timeout=JOB_TIMEOUT)
        wall = time.perf_counter() - t0
        stats = metrics.parse_stats(client.stats(self.daemon.sock))
        records = []
        for results in per_conn:
            misses = {}  # variant id -> output of its miss
            for (variant, _), req, resp, dt, err in results:
                records.append(self.check(variant, req, resp, dt, err, misses))
        _, ru, err = self.daemon.stop()
        return {"records": records, "wall": wall, "stats": stats,
                "rss_mb": ru.ru_maxrss / 1024.0,
                "alloc": metrics.allocated_words(err)}

    def measure(self, seconds):
        """Sessions until ``seconds`` have passed; each after the first
        starts on a freshly set-up daemon (not timed)."""
        t_end = time.perf_counter() + seconds
        sessions = [self.session()]
        while time.perf_counter() < t_end:
            self.setup()
            sessions.append(self.session())
        return sessions

    def check(self, variant, req, resp, dt, err, misses):
        r = {"seconds": dt, "hit": None, "error": err}
        if err is not None:
            return r
        r["hit"] = resp.get("cache_hit") is True
        if resp.get("id") != req["id"]:
            r["error"] = "response id %r for request %r" % (resp.get("id"),
                                                            req["id"])
        elif resp.get("outcome") not in ("ok", "degraded"):
            r["error"] = "outcome %r" % resp.get("outcome")
        elif r["hit"]:
            if misses.get(variant.vid) != resp.get("output"):
                r["error"] = "hit differs from the miss of its fingerprint"
        else:
            r["error"] = checks.check_readings(resp.get("output", ""),
                                               self.ref["decks"][variant.deck])
            misses[variant.vid] = resp.get("output")
        return r


def serve_e2e(sessions):
    records = [r for s in sessions for r in s["records"]]
    ok = [r for r in records if r["error"] is None]
    times = [r["seconds"] for r in records]
    hits = [r["seconds"] for r in records if r["hit"]]
    misses = [r["seconds"] for r in records if r["hit"] is False]
    allocs = [s["alloc"] for s in sessions]
    return {
        "jobs_per_s": len(ok) / sum(s["wall"] for s in sessions),
        "job_p50_s": statistics.median(times),
        "job_p90_s": metrics.percentile(times, 0.9),
        "hit_p50_s": metrics.median(hits),
        "miss_p50_s": metrics.median(misses),
        # daemon words over its life (warm-up included) per request served
        "alloc_mwords_per_job": (
            sum(allocs) / sum(s["stats"]["requests_ok"] for s in sessions)
            / 1e6 if None not in allocs else None),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sessions),
    }


WORKLOAD_CLASSES = {"cli_small": CliSmall, "cli_dac512": CliDac,
                    "yield_sram": YieldSram, "serve_mixed": ServeMixed}


# ------------------------------------------------------------ traced pass

def vtrace(mode, lines, seconds, work):
    jobs = os.path.join(work, "trace.jobs")
    with open(jobs, "w") as f:
        f.write("\n".join(lines) + "\n")
    out, err = os.path.join(work, "trace.out"), os.path.join(work, "trace.err")
    pid = spawn([VTRACE, "replay", "--mode", mode, "--jobs", jobs,
                 "--seconds", repr(seconds),
                 "--cache-dir", os.path.join(work, "trace-cache")], out, err)
    code, _, timed_out = reap(pid, 150.0)
    if code != 0 or timed_out:
        raise RuntimeError("vtrace failed (exit %d): %s" % (code, read(err)))
    with open(out) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_wall(tree, name):
    return (tree["wall_s"] if tree["name"] == name else 0.0) + sum(
        span_wall(c, name) for c in tree.get("children", []))


def layer_report(records, lines, checkers, mc):
    """Per-layer metrics of the vtrace records of job list ``lines``;
    returns (metrics, attempted, failures)."""
    failures = []
    misses = {}  # (pass, job line) -> output of its miss
    for r in records:
        key = (r["pass"], lines[r["job"]])
        if r["error"]:
            err = r["error"]
        elif r["hit"]:
            err = (None if misses.get(key) == r["output"]
                   else "hit differs from the miss of its fingerprint")
        else:
            err = checkers[r["job"]](r["output"])
            misses[key] = r["output"]
        if err:
            failures.append("pass %d job %d: %s" % (r["pass"], r["job"], err))
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    n = len(traced)
    out = {k: 0.0 for k, _, _ in PER_LAYER}
    totals = {}
    counters = {}
    words = 0.0
    yield_wall = 0.0
    for r in traced:
        tree = r["obs"]["root"]
        try:
            selves = metrics.layer_selves(tree)
        except ValueError as e:
            failures.append("pass %d job %d: %s" % (r["pass"], r["job"], e))
            selves = {}
        for k, v in selves.items():
            totals[k] = totals.get(k, 0.0) + v
        for k, v in r["obs"]["counters"].items():
            counters[k] = counters.get(k, 0) + v
        words += sum(v for k, v in r["words"].items()
                     if k.startswith("spice.") and k != "spice.execute")
        yield_wall += span_wall(tree, "yield.estimate")
    for k, v in totals.items():
        out[k] = v / n
    job_s = statistics.fmean(r["obs"]["root"]["wall_s"] for r in traced)
    out["job.traced_s"] = job_s

    def c(name):
        return counters.get(name, 0)

    for k in COUNTS:
        out[k] = c(k) / n
    out["pss.shooting_iterations"] = (c("pss.shooting_iterations")
                                      + c("pss_osc.shooting_iterations")) / n
    out["newton.iters_per_solve"] = (c("newton.iterations") / c("newton.solves")
                                     if c("newton.solves") else 0.0)
    escapes = c("ladder.dc.damped") + c("ladder.dc.gmin") + c("ladder.dc.source")
    out["ladder.escape_ratio"] = escapes / c("dc.solves") if c("dc.solves") else 0.0
    plan = c("cache.plan.hits") + c("cache.plan.misses")
    out["plan_cache.hit_ratio"] = c("cache.plan.hits") / plan if plan else 0.0
    out["spice.mwords"] = words / n / 1e6
    out["yield.samples_per_s"] = c("yield.samples") / yield_wall if yield_wall else 0.0
    ys = [checks.parse_yield(r["output"]) for r in traced]
    ys = [y for y in ys if y]
    if ys:
        out["yield.ess"] = statistics.fmean(y["ess"] for y in ys)
        out["yield.z_vs_mc"] = statistics.median(checks.z_vs_mc(y, mc) for y in ys)
    # totals, not medians: serve replays mix 0.3 ms hits with misses
    # 50 times longer, and a median lands on either kind
    out["obs.overhead_ratio"] = (sum(r["wall_s"] for r in traced)
                                 / sum(r["wall_s"] for r in untraced) - 1.0)

    # the exact counts of a job repeat from one traced pass to the next
    first = {}
    for r in traced:
        got = [r["obs"]["counters"].get(k, 0) for k in EXACT_COUNTS]
        want = first.setdefault(r["job"], got)
        if got != want:
            failures.append("pass %d job %d: counts %r != %r"
                            % (r["pass"], r["job"], got, want))
    return out, len(records), failures


def startup_seconds(work):
    runs = [run_cli([VARSIM, "version"], work) for _ in range(STARTUP_RUNS)]
    bad = [r for r in runs if r["code"] != 0]
    return statistics.median(r["seconds"] for r in runs), len(runs), len(bad)


# ----------------------------------------------------------- entry point

def report(workload, values, units, names, ok, attempted, failed, failures):
    """Print every measured value, then the JSON result line holding
    exactly the metrics ``names``."""
    for name, value in values.items():
        print("%-12s %-26s %14.6g %s" % (workload, name, value, units[name]))
    print("%-12s %-26s %14.6g %s" % (workload, "fail_ratio",
                                     failed / attempted, "ratio"))
    for f in failures[:20]:
        print("check failed: " + f)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values.get(k), "unit": units[k]}
                                  for k in names}}))


def run_untraced(name, seed, seconds, ref):
    units = {n: u for n, u, _, _ in END_TO_END}
    units.update(job_p90_s="s", hit_p50_s="s", miss_p50_s="s")
    w = WORKLOAD_CLASSES[name](name, seed, ref)
    setups = []
    try:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            w.setup()
            setups.append(time.perf_counter() - t0)
        if name == "serve_mixed":
            sessions = w.measure(seconds)
            records = [r for s in sessions for r in s["records"]]
            values = serve_e2e(sessions)
        else:
            records, wall = measure_cli(w, seconds)
            values = cli_e2e(records, wall, len(w.jobs))
    finally:
        if name == "serve_mixed" and w.daemon:
            w.daemon.stop()
    values["setup_s"] = statistics.median(setups)
    failures = ["%s: %s" % (r.get("label", "request"), r["error"])
                for r in records if r["error"]]
    missing = [n for n, _, _, _ in END_TO_END if values.get(n) is None]
    failures += ["metric %s not measured" % n for n in missing]
    values = {k: v for k, v in values.items() if v is not None}
    report(name, values, units, [n for n, _, _, _ in END_TO_END],
           not failures, len(records), len(failures), failures)
    return not failures


def run_traced(name, seed, seconds, ref):
    units = {n: u for n, u, _ in PER_LAYER}
    work = fresh_dir(os.path.join(WORK, name + "-trace"))
    startup, attempted, bad = startup_seconds(work)
    values = {}
    failures = ["varsim version failed"] * bad
    w = WORKLOAD_CLASSES[name](name, seed, ref)
    if name == "serve_mixed":
        try:
            w.setup()
            sessions = w.measure(seconds / 2)
        finally:
            if w.daemon:
                w.daemon.stop()
        failures += [r["error"] for s in sessions for r in s["records"]
                     if r["error"]]
        attempted += sum(len(s["records"]) for s in sessions)
        # the serve and cache layers as one whole session saw them
        last = sessions[-1]
        records, stats, e2e = last["records"], last["stats"], serve_e2e([last])
        items = []
        for conn in range(gen.SERVE_CONNECTIONS):
            items += gen.take(gen.serve_stream(seed, conn),
                              SERVE_REPLAY // gen.SERVE_CONNECTIONS)
        lines, checkers = [], []
        for variant, _ in items:
            path = os.path.join(work, "v%d.sp" % variant.vid)
            with open(path, "w") as f:
                f.write(w.deck_text(variant))
            lines.append("run\t" + path)
            ref_r = ref["decks"][variant.deck]
            checkers.append(lambda out, ref_r=ref_r:
                            checks.check_readings(out, ref_r))
        layer, n, fails = layer_report(vtrace("serve", lines, seconds / 2, work),
                                       lines, checkers, ref["mc"])
        values.update(layer)
        c = stats["counters"]
        jobs = stats["requests_ok"]
        values.update({
            "cache.result.hit_ratio": sum(1 for r in records if r["hit"])
            / len(records),
            "cache.disk.hits": c.get("cache.disk.hits", 0) / jobs,
            "cache.disk.writes": c.get("cache.disk.writes", 0) / jobs,
            "cache.hit_p50_s": e2e["hit_p50_s"],
            "cache.miss_p50_s": e2e["miss_p50_s"],
            "serve.latency_p50_s": stats["latency_p50_s"],
            "serve.queue_p90_s": stats["queue_p90_s"],
            "serve.lane_busy_ratio": stats["request_seconds_sum"]
            / (stats["lanes"] * stats["uptime_s"]),
            "serve.protocol_s": e2e["job_p50_s"] - stats["latency_p50_s"],
        })
    else:
        w.work = work
        w.generate()
        lines = [line for line, _ in w.trace_jobs()]
        checkers = [check for _, check in w.trace_jobs()]
        layer, n, fails = layer_report(vtrace("cli", lines, seconds, work),
                                       lines, checkers, ref["mc"])
        values.update(layer)
    values["cli.startup_s"] = startup
    failures += fails
    attempted += n
    report(name, values, units, [n for n, _, _ in PER_LAYER],
           not failures, attempted, len(failures), failures)
    return not failures


def record():
    """Re-record reference.json from the current build."""
    work = fresh_dir(os.path.join(WORK, "record"))
    ref = {"decks": {}, "dac": {}, "yield": {},
           # plain Monte Carlo on decks/sram_read.sp, 2,072,576 samples
           # (BENCH_yield.json, sram_read "mc" case)
           "mc": {"p_fail": 4.824913537549407e-05,
                  "ci": [3.879253070523226e-05, 5.770574004575588e-05]}}
    for d in gen.SMALL_DECKS:
        r = run_cli([VARSIM, "run", "decks/%s.sp" % d], work)
        assert r["code"] == 0, d
        ref["decks"][d] = checks.readings(r["stdout"])
    for t in gen.DAC_TAP_POOL:
        path = os.path.join(work, "dac.sp")
        with open(path, "w") as f:
            f.write(gen.dac_deck(t))
        r = run_cli([VARSIM, "run", path], work)
        assert r["code"] == 0, t
        ref["dac"][str(t)] = {"readings": checks.readings(r["stdout"]),
                              "alloc": r["alloc"]}
    for s in gen.YIELD_POOL:
        r = run_cli([VARSIM, "yield", "decks/sram_read.sp"] + YIELD_ARGS
                    + ["--seed", str(s)], work)
        assert r["code"] == 0, s
        y = checks.parse_yield(r["stdout"])
        ref["yield"][str(s)] = {"p_fail": y["p_fail"], "ci": y["ci"],
                                "samples": y["samples"],
                                "status": y["status"], "alloc": r["alloc"]}
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--manifest", action="store_true")
    a = ap.parse_args()
    if a.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    build()
    if a.record:
        record()
        return 0
    if not a.workload:
        die("--workload is required")
    ref = load_reference()
    run = run_traced if a.trace else run_untraced
    return 0 if run(a.workload, a.seed, a.seconds, ref) else 1


if __name__ == "__main__":
    sys.exit(main())
