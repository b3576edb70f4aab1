"""Seeded, deterministic inputs for the four workloads.

Generation uses only the standard library and `algebra`, never
`tamedeg`, so the inputs of a seed stay byte-identical across versions
of the library.  An op spec is either a sorted degree triple (`scan`,
called as `decision.decide(triple)`) or a `tamedeg` argv whose file
arguments are names relative to the run's work directory.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import algebra

NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class Inputs:
    """One pass of ops, the files they read, and what the oracles need."""

    ops: list
    files: dict = field(default_factory=dict)
    context: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps({"ops": self.ops, "files": self.files}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


# ---- scan: the whole table d3 <= SCAN_MAX, one decide per triple ----

SCAN_MAX = 24


def scan_inputs(seed: int) -> Inputs:
    """Every 1 <= d1 <= d2 <= d3 <= SCAN_MAX in (d3, d2, d1) order; the table
    has one input, so the seed is not used."""
    ops = [[d1, d2, d3] for d3 in range(1, SCAN_MAX + 1)
           for d2 in range(1, d3 + 1) for d1 in range(1, d2 + 1)]
    return Inputs(ops)


# ---- deep: single large-d3 decisions through the CLI ----

DEEP_PER_D1 = 70
DEEP_D1 = range(3, 13)
DEEP_D2_MAX = 30
DEEP_D3 = (100, 600)
_GOLDEN = (5 ** 0.5 - 1) / 2


def deep_triples(seed: int) -> list[tuple[int, int, int]]:
    """d1 in 3..12 equally often; d3 stratified over [100, 600] for each d1
    and d2 in (d1, 30] on a shifted golden-ratio sequence.  The strata keep
    the cost mix of one seed close to that of any other: cost grows with
    d3/d1, so plain uniform draws swing the pass time by a quarter."""
    rng = random.Random(seed)
    lo, hi = DEEP_D3
    out = []
    for d1 in DEEP_D1:
        shift = rng.random()
        for j in range(DEEP_PER_D1):
            d3 = lo + int((j + rng.random()) * (hi - lo + 1) / DEEP_PER_D1)
            d2 = d1 + 1 + int(((j * _GOLDEN + shift) % 1.0) * (DEEP_D2_MAX - d1))
            out.append((d1, d2, d3))
    rng.shuffle(out)
    return out


def deep_inputs(seed: int) -> Inputs:
    ops = [["decide", str(d1), str(d2), str(d3), "--witness", "--json"]
           for d1, d2, d3 in deep_triples(seed)]
    return Inputs(ops)


# ---- example: the paper's (10, 23, 25) map ----


def example_map() -> list[algebra.Poly]:
    """(f1, f2, h) of the paper, expanded here independently of tamedeg."""
    x, y, z = (algebra.var(i, 3) for i in range(3))
    add, mul, pw, sc = algebra.add, algebra.mul, algebra.power, algebra.scale
    g = add(z, add(sc(mul(mul(x, x), y), 3), add(sc(mul(x, pw(y, 3, 3)), 3), pw(y, 5, 3))))
    w = add(x, mul(y, y))
    f1 = add(w, sc(mul(g, g), -1))
    h = y
    h = add(h, sc(mul(mul(w, w), g), -6))
    h = add(h, sc(mul(w, pw(g, 3, 3)), 8))
    h = add(h, sc(pw(g, 5, 3), Fraction(-16, 5)))
    f2 = add(sc(pw(f1, 5, 3), Fraction(256, 25)), add(g, mul(h, h)))
    return [f1, f2, h]


EXAMPLE_FILES = ("f1.txt", "f2.txt", "f3.txt")
EXAMPLE_MAP = "map.txt"


def example_inputs(seed: int) -> Inputs:
    """One cycle: verify-example, the bracket of each component pair, and
    the multidegree of the whole map.  The map is fixed, so the seed is
    not used.

    The last call makes five calls of distinct costs, so the median op
    falls in the middle of one call's latencies.  With four it would sit
    on the edge between two of them and jump with every slow call."""
    comps = example_map()
    files = {name: algebra.format_poly(p, NAMES) + "\n" for name, p in zip(EXAMPLE_FILES, comps)}
    files[EXAMPLE_MAP] = algebra.format_map(comps, NAMES)
    ops = [["verify-example", "--json"]]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        ops.append(["bracket", EXAMPLE_FILES[a], EXAMPLE_FILES[b], "--file", "--json"])
    ops.append(["mdeg", EXAMPLE_MAP, "--json"])
    return Inputs(ops, files, {"components": comps})


# ---- reduce: elementary-reduction search on map files ----

REDUCE_MAPS = 160
# The maps come from this fixed stream.  The seed substitutes -x_i for
# x_i in some variables of each map and draws the op order.  Such a
# substitution multiplies each equation of the reduction system by +-1, so
# the search does the same work on every seed: kernel sizes, SUBSET_BUDGET
# hits and coefficient growth follow the map.  Drawing coefficients or a
# variable permutation from the seed instead moved the p90 latency by up to
# a fifth between seeds.
# SUBSET_BUDGET hits: over the 4,800 maps of streams 1-30 (160 each),
# 24 exhausted the budget, 0.50% of all maps (1.1% of 3-step words, 0.3%
# of 2-step words, no random map), so 0.8 per set of 160.  This stream's
# set has one, the whole number nearest that rate; it is the tail that a
# change to the subset search must move.
MAP_SEED = 4


def _coefficient(rng: random.Random) -> Fraction:
    return rng.choice((-1, 1)) * Fraction(rng.randint(1, 5), rng.randint(1, 4))


def word_map(rng: random.Random) -> tuple[list[algebra.Poly], bool]:
    """A tame word of 2-3 degree-raising elementary steps; shifts have 1-3
    terms with exponents <= 2 in the two other components.

    Also says whether the last step is an elementary reduction of the map
    that the default support cap, twice the target degree, admits:
    F_t - shift(F_j, F_k) is the component before that step, so it is one
    when that component's degree lies below deg F_t."""
    comps = [algebra.var(i, 3) for i in range(3)]
    degrees = [1, 1, 1]
    wanted = rng.randint(2, 3)
    steps = 0
    while steps < wanted:
        index = rng.randrange(3)
        others = [i for i in range(3) if i != index]
        monomials = set()
        for _ in range(rng.randint(1, 3)):
            exps = [0, 0, 0]
            exps[others[0]] = rng.randint(0, 2)
            exps[others[1]] = rng.randint(0, 2)
            if any(exps):
                monomials.add(tuple(exps))
        if not monomials:
            continue
        raised = max(sum(m[i] * degrees[i] for i in others) for m in monomials)
        if raised <= degrees[index]:
            continue
        shift = {m: _coefficient(rng) for m in sorted(monomials)}
        last = (index, others, comps[index], shift)
        comps[index] = algebra.add(comps[index], algebra.compose(shift, comps, 3))
        degrees[index] = raised
        steps += 1
    t, (j, k), before, shift = last
    d = [algebra.degree(c) for c in comps]
    reducible = (1 <= algebra.degree(before) < d[t]
                 and all(m[j] * d[j] + m[k] * d[k] <= 2 * d[t] for m in shift))
    return comps, reducible


def random_map(rng: random.Random) -> list[algebra.Poly]:
    """Three nonconstant, pairwise distinct polynomials of 1-3 terms with
    integer coefficients and exponents <= 2; mostly not automorphisms."""
    while True:
        comps = []
        for _ in range(3):
            monomials = sorted({tuple(rng.randint(0, 2) for _ in range(3))
                                for _ in range(rng.randint(1, 3))})
            comps.append({m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 3)) for m in monomials})
        nonconstant = all(any(sum(m) for m in c) for c in comps)
        if nonconstant and all(comps[a] != comps[b] for a in range(3) for b in range(a + 1, 3)):
            return comps


def flip_signs(poly: algebra.Poly, flips) -> algebra.Poly:
    """poly with -x_i substituted for x_i wherever flips[i] is set."""
    return {m: -c if sum(e for e, f in zip(m, flips) if f) % 2 else c for m, c in poly.items()}


def reduce_inputs(seed: int) -> Inputs:
    """Three word maps for every random map, written as map files.  The
    context names the word maps whose last step is a reduction."""
    rng = random.Random(MAP_SEED)
    maps, reducible = [], set()
    for i in range(REDUCE_MAPS):
        if i % 4 == 3:
            maps.append(random_map(rng))
            continue
        comps, has_reduction = word_map(rng)
        maps.append(comps)
        if has_reduction:
            reducible.add(f"map{i:03d}.txt")
    draws = random.Random(seed)
    maps = [[flip_signs(c, flips) for c in m] for m, flips in
            ((m, [draws.random() < 0.5 for _ in range(3)]) for m in maps)]
    order = list(range(REDUCE_MAPS))
    draws.shuffle(order)
    files = {f"map{i:03d}.txt": algebra.format_map(maps[i], NAMES) for i in order}
    ops = [["reduce", f"map{i:03d}.txt"] for i in order]
    return Inputs(ops, files, {"maps": {f"map{i:03d}.txt": maps[i] for i in order},
                               "reducible": reducible})


GENERATORS = {
    "scan": scan_inputs,
    "deep": deep_inputs,
    "example": example_inputs,
    "reduce": reduce_inputs,
}
SEEDED = {"scan": False, "deep": True, "example": False, "reduce": True}
