"""Output checks: every measured job's output is compared with a
reference recorded in ``reference.json`` (``run.py --record``)."""

import math
import re

# varsim prints readings with 6 significant digits, so one unit in the
# last printed place is up to 1e-5 relative; the tolerance sits above
# that and far above the 1e-9 dense-oracle parity of the solvers
RTOL = 2e-5

_NOMINAL = re.compile(r"nominal = (\S+), sigma = (\S+?)\s")
_DCMATCH = re.compile(r"DC match at \S+: sigma = (\S+) V")
_PFAIL = re.compile(r"P_fail = (\S+)\s+95% CI \[(\S+), (\S+)\]")
_SAMPLES = re.compile(r"samples = (\d+)")
_ESS = re.compile(r"ESS = (\S+)")
_STATUS = re.compile(r"status = (.+?)\s*$", re.MULTILINE)


def readings(text):
    """(nominal, sigma) of every mismatch / DC-match reading in a
    rendered output, in order; nominal is None for DC match cards."""
    out = []
    for line in text.splitlines():
        m = _NOMINAL.search(line + " ")
        if m:
            out.append((float(m.group(1)), float(m.group(2))))
            continue
        m = _DCMATCH.search(line)
        if m:
            out.append((None, float(m.group(1))))
    return out


def _close(a, b, scale):
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def check_readings(text, ref):
    """None when ``text`` reproduces the reference readings ``ref``
    (list of [nominal|None, sigma]), else a one-line reason.  A nominal
    is compared on the scale of its sigma, so an offset that is zero up
    to rounding (the comparator's) is not held to a relative bound."""
    got = readings(text)
    if len(got) != len(ref):
        return "expected %d readings, got %d" % (len(ref), len(got))
    for (nom, sig), (rnom, rsig) in zip(got, ref):
        if not _close(sig, rsig, 0.0):
            return "sigma %r != reference %r" % (sig, rsig)
        if (nom is None) != (rnom is None):
            return "reading kind differs from reference"
        if nom is not None and not _close(nom, rnom, rsig):
            return "nominal %r != reference %r" % (nom, rnom)
    return None


def parse_yield(text):
    """P_fail, its 95% CI, samples, ESS and status of a yield report, or
    None."""
    m = _PFAIL.search(text)
    s = _SAMPLES.search(text)
    e = _ESS.search(text)
    st = _STATUS.search(text)
    if not (m and s and e and st):
        return None
    p, lo, hi = (float(x) for x in m.groups())
    return {"p_fail": p, "ci": [lo, hi], "samples": int(s.group(1)),
            "ess": float(e.group(1)), "status": st.group(1)}


def check_yield(text, ref):
    """None when the job's P_fail matches the same-seed reference within
    the job's own 95% CI, else a reason."""
    y = parse_yield(text)
    if y is None:
        return "no yield report"
    lo, hi = y["ci"]
    if not lo <= ref["p_fail"] <= hi:
        return "reference P_fail %r outside the job's CI [%r, %r]" % (
            ref["p_fail"], lo, hi)
    return None


def z_vs_mc(y, mc):
    """Distance of an IS estimate from the plain-MC reference in units
    of their combined standard error (each from its 95% CI)."""
    se = (y["ci"][1] - y["ci"][0]) / (2 * 1.96)
    se_mc = (mc["ci"][1] - mc["ci"][0]) / (2 * 1.96)
    return (y["p_fail"] - mc["p_fail"]) / math.hypot(se, se_mc)
