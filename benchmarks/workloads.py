"""Seeded request lists for the three benchmark workloads.

A request is a JSON-able dict: ``{"op": "cli", "argv": [...]}`` runs
``semidp.cli.cli_dispatch(argv)``; ``{"op": "accounting", "levels": [...],
"rows": [...]}`` runs the invariant-accounting pipeline on one dataset.

One request list is one pass. Every request takes well under a second, and
request counts are set so that a pass takes 1.5-3 s on an unloaded 2-core
x86 box and up to a dozen passes fit in ``REFERENCE_SECONDS``: the runner
times each request at its fastest pass, and that needs many passes of
short requests.
Counts scale with the requested run length, so a smoke-size run stays
quick. Inputs whose cost varies widely (table totals, margins, sample
counts) are drawn stratified, so every seed gets the same spread of sizes
and the work per pass stays nearly constant across seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

REFERENCE_SECONDS = 32.0

#: Largest conforming set a request may have: (3,3) levels, n = 6, balanced margins.
MAX_STATES = 8_100

#: indistinguishable_pairs is a pure-Python pair loop; run it only up to this |S|.
PAIRS_LIMIT = 1_000


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _cli(*argv) -> dict:
    return {"op": "cli", "argv": [str(a) for a in argv]}


def _cells(rng: np.random.Generator, count: int, high: int = 50) -> str:
    return ",".join(str(int(v)) for v in rng.integers(0, high, count))


def _noise_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _stratified(rng: np.random.Generator, k: int) -> np.ndarray:
    """k points in [0, 1), one in each of k equal strata, in random order."""
    return (rng.permutation(k) + rng.random(k)) / k


def _stratified_loguniform(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    return np.exp(math.log(lo) + _stratified(rng, k) * math.log(hi / lo))


FAMILIES = ("gdp", "eps", "eps_delta")


def _tradeoffs(rng: np.random.Generator, k: int, start: int = 0) -> list[str]:
    """k tradeoff specs; families take turns from ``start``, and each family's
    parameters are stratified over their range, so a CND's set-up cost has
    the same spread for every seed."""
    family = [FAMILIES[(start + i) % len(FAMILIES)] for i in range(k)]
    specs = [""] * k
    for name in FAMILIES:
        slots = [i for i in range(k) if family[i] == name]
        strength = 0.5 + 1.5 * _stratified(rng, len(slots))
        delta = 10 ** (-6 + 4 * _stratified(rng, len(slots)))
        for i, a, d in zip(slots, strength, delta):
            if name == "gdp":
                specs[i] = f"gdp:{a:.4g}"
            elif name == "eps":
                specs[i] = f"eps:{a:.4g}"
            else:
                specs[i] = f"eps:{a:.4g},{d:.3g}"
    return specs


def release(seed: int, scale: float) -> list[dict]:
    """Mechanism draws, experiments and sensitivity summaries on tables.

    Hull-sampler draws cost a geometric number of LP tries, whose spread
    grows with its mean. Tables up to 3x3 need fewer than five rejections a
    draw, so many draws sum to a steady cost. A 3x4 draw needs about 115
    (0.6 ms each) and eight of them summed to between 0.2 and 1.1 s across
    five seeds; a 4x4 draw needs about 6,100. Neither is issued, so one
    seed's luck does not decide its time.
    """
    rng = np.random.default_rng([seed, 1])
    reqs = []
    small = ((2, 3), (2, 4), (3, 3))
    for i in range(_count(90, scale)):
        r, c = small[i % len(small)]
        reqs.append(_cli("mech", "--query", _cells(rng, r * c), "--kind", "knorm",
                         "--eps", f"{rng.uniform(0.2, 2.0):.4g}", "--r", r, "--c", c,
                         "--seed", _noise_seed(rng)))
    for i in range(_count(24, scale)):
        k = 3 + i % 8
        reqs.append(_cli("mech", "--query", _cells(rng, k * k), "--kind", "gaussian",
                         "--mu", f"{rng.uniform(0.5, 2.0):.4g}", "--seed", _noise_seed(rng)))
    for i in range(_count(8, scale)):
        if i % 2:
            reqs.append(_cli("experiment", "knorm", "--k", 2 + (i // 2) % 2,
                             "--eps", f"{rng.uniform(0.2, 2.0):.4g}", "--model", "I",
                             "--replicates", 20, "--seed", _noise_seed(rng)))
        else:
            reqs.append(_cli("experiment", "gaussian", "--k", 3 + (3 * i) % 8,
                             "--mu", f"{rng.uniform(0.5, 2.0):.4g}", "--model", "II",
                             "--replicates", 30, "--seed", _noise_seed(rng)))
    kinds = ("l1", "l2", "linf", "naive-gaussian", "naive-l1", "naive-l2", "naive-linf")
    for i in range(_count(14, scale)):
        kind = kinds[i % len(kinds)]
        flag = "--mu" if kind == "naive-gaussian" else "--eps"
        reqs.append(_cli("mech", "--query", _cells(rng, 9), "--kind", kind,
                         flag, f"{rng.uniform(0.2, 2.0):.4g}", "--seed", _noise_seed(rng)))
    for i in range(_count(8, scale)):
        r, c = 2 + i % 3, 2 + (i // 3) % 3
        reqs.append(_cli("sens", "--r", r, "--c", c, "--space", ("semi", "dp")[i % 2]))
    return [reqs[i] for i in rng.permutation(len(reqs))]


def _spread_order(k: int) -> np.ndarray:
    """A permutation of range(k) whose consecutive entries lie far apart."""
    step = max(1, round(0.618 * k))
    while math.gcd(step, k) != 1:
        step += 1
    return (np.arange(k) * step) % k


def _support_fraction(p: np.ndarray) -> np.ndarray:
    """Length of the x11 support over n, for 2x2 cell probabilities p (rows)."""
    r1, c1 = p[:, 0] + p[:, 1], p[:, 0] + p[:, 2]
    return np.minimum(r1, c1) - np.maximum(0.0, c1 - (1.0 - r1))


#: Request counts per pass and the range of the test tables' totals. A test
#: costs 35-90 ms plus about 2 ms per unit of n on a 2-core x86 box, so the
#: totals stop at 150 to keep a pass near 3 s. CDF/quantile requests (3-17
#: ms, rising towards the tails) are three quarters of the requests, so the
#: median request is one of them, and their number is large enough that the
#: median of their costs is nearly the same for every seed; the 90th
#: percentile falls among tests and large samples.
TESTS = 30
TEST_TOTALS = (20, 150)
CND_SAMPLES = 24
CND_EVALS = 150


def private_test(seed: int, scale: float) -> list[dict]:
    """Private odds-ratio tests on 2x2 tables plus CND evaluation and sampling."""
    rng = np.random.default_rng([seed, 2])
    reqs = []
    n_test = _count(TESTS, scale)
    totals = np.sort(np.round(_stratified_loguniform(rng, *TEST_TOTALS, n_test)).astype(int))
    probs = rng.dirichlet([2.0] * 4, size=n_test)
    # A test's cost follows the length of the x11 support, n times the support
    # fraction, so totals and cell probabilities are paired such that every
    # run of neighbouring totals gets fractions from across their range; each
    # marginal distribution is unchanged. Families rotate along the totals.
    probs = probs[np.argsort(_support_fraction(probs))[_spread_order(n_test)]]
    specs = _tradeoffs(rng, n_test, start=int(rng.integers(len(FAMILIES))))
    alphas = rng.permutation(np.resize([0.01, 0.05, 0.1], n_test))
    for rank, n in enumerate(totals):
        cells = rng.multinomial(int(n), probs[rank])
        reqs.append(_cli("test", "--table", ",".join(str(int(v)) for v in cells),
                         "--f", specs[rank], "--alpha", alphas[rank], "--seed", _noise_seed(rng)))
    n_sample = _count(CND_SAMPLES, scale)
    counts = np.round(_stratified_loguniform(rng, 100, 10_000, n_sample)).astype(int)
    for f, count in zip(_tradeoffs(rng, n_sample), counts):
        reqs.append(_cli("cnd", "--f", f, "--sample", int(count), "--seed", _noise_seed(rng)))
    n_eval = _count(CND_EVALS, scale)
    xs = -6.0 + 12.0 * _stratified(rng, n_eval)
    us = 0.001 + 0.998 * _stratified(rng, n_eval)
    for f, x, u in zip(_tradeoffs(rng, n_eval), xs, us):
        reqs.append(_cli("cnd", "--f", f, "--cdf", f"{x:.4g}", "--quantile", f"{u:.4g}"))
    return [reqs[i] for i in rng.permutation(len(reqs))]


#: (levels, n) of the accounting requests by size class. The margins at
#: quantile midpoints keep every request under 0.5 s; |S| = 3,600 at (3,3),
#: n = 6 takes 4-5 s and would decide a pass's time, so it is left out.
SMALL_SPACES = (((2, 2), 4), ((2, 2), 5), ((2, 2), 6), ((2, 3), 4), ((2, 3), 5),
                ((3, 3), 4), ((2, 2, 2), 4), ((2, 4), 4))
MEDIUM_SPACES = (((3, 3), 5), ((2, 2, 2), 5), ((2, 4), 5))


def conforming_count(n: int, margins) -> int:
    """|S| for one-way margins on every feature: a product of multinomials."""
    out = 1
    for vec in margins:
        out *= math.factorial(n) // math.prod(math.factorial(c) for c in vec)
    return out


def _margin_law(levels, n) -> tuple[list, np.ndarray]:
    """Every one-way margin value under n uniform random records, ordered by |S|,
    with its probability."""
    per_feature = []
    for l in levels:
        vecs = [v for v in itertools.product(range(n + 1), repeat=l) if sum(v) == n]
        per_feature.append([(v, conforming_count(n, [v]) / l**n) for v in vecs])
    law = sorted((conforming_count(n, [v for v, _ in combo]), [v for v, _ in combo],
                  math.prod(p for _, p in combo))
                 for combo in itertools.product(*per_feature))
    return [m for _, m, _ in law], np.cumsum([p for _, _, p in law])


def _accounting(rng: np.random.Generator, levels, margins) -> dict:
    """A dataset with the given margins, records paired up at random."""
    columns = [rng.permutation([level + 1 for level, c in enumerate(vec) for _ in range(c)])
               for vec in margins]
    rows = [[int(col[i]) for col in columns] for i in range(len(columns[0]))]
    states = conforming_count(len(rows), margins)
    if states > MAX_STATES:
        raise ValueError(f"generated invariant has |S| = {states} > {MAX_STATES}")
    return {"op": "accounting", "levels": list(levels), "rows": rows,
            "states": states}


def accounting(seed: int, scale: float) -> list[dict]:
    """Invariant accounting: conforming set, a(t), sensitivity space, pairs.

    The program's work depends only on the margins t, and its cost mostly
    on |S|. The k requests sharing a (levels, n) take the margins at the k
    quantile midpoints of the law of n uniform random records, ordered by
    |S|, so every seed runs the same set of t; the seed decides how the
    records pair up within each dataset and the order of the requests.
    The median request sits between discrete |S| values with different
    costs, and margins drawn at random would move it from one to the next.
    """
    rng = np.random.default_rng([seed, 3])
    reqs = []
    for spaces, count in ((SMALL_SPACES, _count(100, scale)), (MEDIUM_SPACES, _count(3, scale))):
        for j, (levels, n) in enumerate(spaces):
            k = len(range(j, count, len(spaces)))
            if not k:
                continue
            law, cdf = _margin_law(levels, n)
            for u in (np.arange(k) + 0.5) / k:
                margins = law[min(int(np.searchsorted(cdf, u * cdf[-1])), len(law) - 1)]
                reqs.append(_accounting(rng, levels, margins))
    return [reqs[i] for i in rng.permutation(len(reqs))]


WORKLOADS = {"release": release, "private_test": private_test, "accounting": accounting}


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    return WORKLOADS[workload](seed, seconds / REFERENCE_SECONDS)


def digest(requests: list[dict]) -> str:
    blob = json.dumps(requests, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
