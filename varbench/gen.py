"""Seeded input generation for the varsim benchmark.

Everything here is a pure function of its arguments and a
``random.Random`` built from the workload seed, so the same seed always
gives the same decks, the same job order and the same request streams.
varsim itself only ever sees the generated files and request lines.
"""

import random
import re
import statistics

SMALL_DECKS = ["bandgap", "comparator", "current_mirror", "divider",
               "logic_path", "ota", "ring_osc"]

# the DAC string of Dac_string.testbench ~params:scale_params
DAC_CODES = 512
DAC_UNKNOWNS = 513  # 511 taps + vref + the VREF branch current

# reference pools: every input a run may draw has a recorded reference.
# The yield pool is seeds 1..64 whatever their status: a seed whose
# estimate hits the -n cap costs several times the others and stays
# in, so estimator work that helps it shows.
DAC_TAP_POOL = [4 + 8 * i for i in range(64)]
YIELD_POOL = list(range(1, 65))

# the pools split into this many passes of equal size and cost; the
# workload seed picks one
PASSES = 4

# serve_mixed: per connection and round, one new variant of every
# small deck plus as many repeats of earlier variants
SERVE_CONNECTIONS = 2
HOT_WINDOW = 8  # a "hot" repeat draws from the last HOT_WINDOW variants


def dac_deck(tap):
    """SPICE text of the 513-unknown DAC string with a .mismatch card
    on ``tap``.  The first line is the title: the parser takes the first
    non-comment line as the title, whatever it says."""
    if not 1 <= tap < DAC_CODES:
        raise ValueError("tap out of range: %d" % tap)

    def node(k):
        return "0" if k == 0 else ("vref" if k == DAC_CODES else "tap%d" % k)

    lines = ["DAC string, %d codes, %d MNA unknowns" % (DAC_CODES, DAC_UNKNOWNS),
             "VREF vref 0 SIN(1 0.02 1meg)"]
    lines += ["R%d %s %s 1k tol=0.01" % (k, node(k), node(k - 1))
              for k in range(1, DAC_CODES + 1)]
    lines += ["C%d tap%d 0 1p tol=0.01" % (k, k) for k in range(1, DAC_CODES)]
    lines += [".mismatch tap%d pss=1u" % tap, ".end"]
    return "\n".join(lines) + "\n"


def balanced_passes(pool, cost, n=PASSES):
    """``pool`` split into ``n`` passes of equal size whose summed and
    median ``cost`` are as even as pairwise swaps make them, so whichever
    pass a seed picks, a run does the same work with the same typical
    job.  The ranked pool is dealt out in a snake, then a swap is kept
    whenever it narrows the sum's and the median's relative ranges.
    Each pass lists its cheapest input beside its dearest, its second
    cheapest beside its second dearest, and so on."""
    size = len(pool) // n
    ranked = sorted(pool, key=lambda k: (cost[k], k))
    passes = [[] for _ in range(n)]
    for i, k in enumerate(ranked[:size * n]):
        row, col = divmod(i, n)
        passes[col if row % 2 == 0 else n - 1 - col].append(k)

    def unevenness():
        sums = [sum(cost[k] for k in p) for p in passes]
        meds = [statistics.median([cost[k] for k in p]) for p in passes]
        return ((max(sums) - min(sums)) / min(sums)
                + (max(meds) - min(meds)) / min(meds))

    best = unevenness()
    improved = True
    while improved:
        improved = False
        for a in range(n):
            for b in range(a + 1, n):
                pa, pb = passes[a], passes[b]
                for i in range(size):
                    for j in range(size):
                        pa[i], pb[j] = pb[j], pa[i]
                        u = unevenness()
                        if u < best:
                            best, improved = u, True
                        else:
                            pa[i], pb[j] = pb[j], pa[i]
    out = []
    for p in passes:
        p.sort(key=lambda k: (cost[k], k))
        out.append([k for i in range(size // 2) for k in (p[i], p[-1 - i])])
    return out


def pair_shuffled(items, rng):
    """``items`` (an even number) as pairs of neighbours, the pairs and
    the two members of each in shuffled order: a run that stops inside
    a pass of ``balanced_passes`` still ran a balanced prefix."""
    pairs = [[items[i], items[i + 1]] for i in range(0, len(items), 2)]
    rng.shuffle(pairs)
    for pair in pairs:
        rng.shuffle(pair)
    return [k for pair in pairs for k in pair]


def shuffled(items, rng):
    out = list(items)
    rng.shuffle(out)
    return out


_SOURCE = re.compile(r"^(V\S*\s+\S+\s+\S+\s+(?:DC\s+)?)([-+0-9.eE]+)\s*$",
                     re.IGNORECASE)


def variant_deck(text, factor):
    """``text`` with its first DC voltage-source value multiplied by
    ``factor``, written with all 17 digits so the change reaches the
    circuit (and its fingerprint) exactly."""
    out = text.splitlines()
    for i, line in enumerate(out):
        m = _SOURCE.match(line)
        if m:
            value = float(m.group(2)) * factor
            out[i] = m.group(1) + repr(value)
            return "\n".join(out) + "\n"
    raise ValueError("deck has no plain DC voltage source")


class Variant:
    """One serve_mixed deck variant: its id is unique over all
    connections, so two connections never share a fingerprint."""

    def __init__(self, vid, deck, factor):
        self.vid = vid
        self.deck = deck
        self.factor = factor


def serve_stream(seed, conn, connections=SERVE_CONNECTIONS):
    """Endless request stream of connection ``conn``: (variant, repeat)
    pairs.  Each round holds one new variant of every small deck and as
    many repeats of this connection's earlier variants, in shuffled
    order, so half the requests after the first repeat a fingerprint.
    A repeat draws from the last few variants (served from the memory
    tier) or from all earlier ones (past the 32-entry tier, so read
    from disk) with equal odds.  Repeats only name variants this
    connection already sent; in a closed loop their miss has completed,
    so every repeat is a hit.  A variant's factor is 1 + (offset +
    vid)·1e-14 with one offset for all connections, so distinct vids
    always have distinct factors."""
    offset = random.Random("serve/%d" % seed).randint(1, 100000)
    rng = random.Random("serve/%d/%d" % (seed, conn))
    seen = []
    n_new = 0
    while True:
        slots = [True] * len(SMALL_DECKS) + [False] * len(SMALL_DECKS)
        rng.shuffle(slots)
        if not seen:
            slots.remove(True)
            slots.insert(0, True)
        decks = shuffled(SMALL_DECKS, rng)
        for new in slots:
            if new:
                vid = n_new * connections + conn
                n_new += 1
                v = Variant(vid, decks.pop(), 1.0 + (offset + vid) * 1e-14)
                seen.append(v)
                yield v, False
            else:
                pool = seen[-HOT_WINDOW:] if rng.random() < 0.5 else seen
                yield rng.choice(pool), True


def take(stream, n):
    return [next(stream) for _ in range(n)]
