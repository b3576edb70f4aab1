"""Classify sorted degree triples as Tame, NotTame, or Unknown.

`decide` answers with the first rule that fires, and the rule's tag is
the stable reason identifier used in CSV/JSON output.  The Tame rules
come first, written out in `decide`, then the two exclusion rules of
the table `EXCLUSIONS`; when neither exclusion applies the verdict is
Unknown with reason HypothesesFail, listing every unmet hypothesis.
The order matters: the triple (10, 23, 25) meets the first exclusion
rule's shape except for the ratio condition d1/gcd(d1, d3) != 2, and it
is realizable, so exclusions must never answer before the catalog.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import automorphisms, semigroup
from .automorphisms import TameStep

TAME = "Tame"
NOT_TAME = "NotTame"
UNKNOWN = "Unknown"

# Realizable triples established by explicit constructions that the
# sufficiency rules cannot reach, each with its word builder or None.
KNOWN_INSTANCES = {(10, 23, 25): automorphisms.example_word, (22, 47, 55): None}


@dataclass(frozen=True)
class Decision:
    triple: tuple[int, int, int]
    verdict: str
    reason: str
    witness: tuple[TameStep, ...] | None = None
    representation: tuple[int, int] | None = None
    failed_hypotheses: tuple[str, ...] = ()


def normalize_triple(values: Sequence[int]) -> tuple[int, int, int]:
    """Sort a degree triple ascending; each degree must be a positive int, not a bool."""
    if len(values) != 3:
        raise ValueError(f"expected three degrees, got {len(values)}")
    for v in values:
        if type(v) is not int or v < 1:
            raise ValueError(f"degrees must be positive integers, got {values!r}")
    a, b, c = sorted(values)
    return (a, b, c)


# Sorenson and Webster (Math. Comp. 86, 2017, 985-1003): strong
# probable-prime tests to the first 13 prime bases decide primality
# exactly below this bound.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < _PRIME_BOUND.

    Raises ValueError at or above the bound, where no fixed set of bases
    is proved to decide primality.
    """
    if n >= _PRIME_BOUND:
        raise ValueError(f"primality of {n} is decided exactly only below {_PRIME_BOUND}")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _theorem3_unmet(tag: str, d1: int, d2: int, d3: int) -> tuple[str, ...]:
    """Theorem 3: d2 prime and d1/gcd(d1, d3) != 2."""
    unmet = () if _is_prime(d2) else (f"{tag} needs a prime d2; {d2} is composite",)
    if d1 == 2 * (gcd13 := math.gcd(d1, d3)):
        unmet += (f"{tag} needs d1/gcd(d1, d3) != 2; {d1}/{gcd13} = 2",)
    return unmet


def _theorem4_unmet(tag: str, d1: int, d2: int, d3: int) -> tuple[str, ...]:
    """Theorem 4: d3 prime and gcd(d1, d2) = 1."""
    unmet = () if _is_prime(d3) else (f"{tag} needs a prime d3; {d3} is composite",)
    if (gcd12 := math.gcd(d1, d2)) != 1:
        unmet += (f"{tag} needs gcd(d1, d2) = 1; gcd({d1}, {d2}) = {gcd12}",)
    return unmet


# The NotTame rules, (tag, unmet) in the order decide tries them.  unmet
# returns the text of each unmet hypothesis, built only when unmet, and
# the rule fires when there is none.  decide reaches them only after
# every Tame rule failed, as the theorems need.
EXCLUSIONS = (
    ("Theorem3Exclusion", _theorem3_unmet),
    ("Theorem4Exclusion", _theorem4_unmet),
)


def decide(triple: Sequence[int]) -> Decision:
    """Decision for a sorted triple d1 <= d2 <= d3; first rule wins.

    The Tame rules come first, then the rules of EXCLUSIONS; when none
    fires, HypothesesFail (Unknown) lists the unmet hypotheses of
    EXCLUSIONS, in order, as "<tag> needs <hypothesis>; <why not>".

    Raises on unsorted input; use normalize_triple first.  Every Tame
    answer through SemigroupMember or EqualFirstPair, and d1 = 1 and
    (10, 23, 25), carries a witness word already verified to have the
    right multidegree (automorphisms._checked).  The check reads the
    multidegree off the leading forms of the steps, as term mappings:
    each step composes only its shift's top-degree monomials with the
    forms (polynomials._compose).  For SemigroupMember and d1 = 1 words
    every shift and every form substituted into it has one term, which
    _compose applies directly, scaling exponents and powering
    coefficients, with no power table, _product or _term_power; so the
    check takes a fixed number of term operations, independent of d3.
    Where a top form cancels at or above the degree of the component
    it replaces, as in every EqualFirstPair word and in the
    (10, 23, 25) word, it composes the word in full instead.
    The exclusion rules test d2 and d3 for primality once each, with
    the deterministic Miller-Rabin test of _is_prime; a degree at or
    above its bound raises ValueError when these rules reach it.
    """
    d1, d2, d3 = triple
    if normalize_triple(triple) != (d1, d2, d3):
        raise ValueError(f"triple {tuple(triple)!r} is not sorted ascending; normalize first")
    triple = (d1, d2, d3)

    if d1 < 3:
        witness = tuple(automorphisms.witness_linear_first(d2, d3)) if d1 == 1 else None
        return Decision(triple, TAME, "TrivialSmallDegree", witness=witness)

    rep = semigroup.membership(d3, d1, d2)
    if rep is not None:
        witness = tuple(automorphisms.witness_semigroup(d1, d2, rep))
        return Decision(triple, TAME, "SemigroupMember", witness=witness, representation=rep)

    if d1 == d2:
        witness = tuple(automorphisms.witness_equal_pair(d1, d3))
        return Decision(triple, TAME, "EqualFirstPair", witness=witness)

    if triple in KNOWN_INSTANCES:
        build = KNOWN_INSTANCES[triple]
        witness = build and tuple(automorphisms._checked(build(), triple))
        return Decision(triple, TAME, "KnownInstance", witness=witness)

    failed = ()
    for tag, unmet in EXCLUSIONS:
        if not (texts := unmet(tag, d1, d2, d3)):
            return Decision(triple, NOT_TAME, tag)
        failed += texts
    return Decision(triple, UNKNOWN, "HypothesesFail", failed_hypotheses=failed)


def sorted_triples(max_degree: int) -> Iterable[tuple[int, int, int]]:
    """All 1 <= d1 <= d2 <= d3 <= max_degree, ordered by (d3, d2, d1)."""
    for d3 in range(1, max_degree + 1):
        for d2 in range(1, d3 + 1):
            for d1 in range(1, d2 + 1):
                yield (d1, d2, d3)


def _cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The table is built whole before it is returned: 200 gives 1,353,400
# triples, where 1000 would ask for 167,167,000.
SCAN_MAX_DEGREE = 200


def scan(max_degree: int) -> list[Decision]:
    """Decisions for every sorted triple with d3 <= max_degree.

    Output order is deterministic, ascending in (d3, d2, d1).  The scan
    runs on min(cores, number of triples) worker processes, where cores
    is the number of CPUs this process may run on; with one worker it
    runs in this process.  The result never depends on the count.
    max_degree must lie in 3..SCAN_MAX_DEGREE, else ValueError.  On
    platforms that spawn worker processes instead of forking them, a
    script that calls scan must guard its entry point with
    `if __name__ == "__main__":`.
    """
    if not isinstance(max_degree, int) or max_degree < 3:
        raise ValueError(f"scan needs max_degree >= 3, got {max_degree!r}")
    if max_degree > SCAN_MAX_DEGREE:
        raise ValueError(f"scan needs max_degree <= {SCAN_MAX_DEGREE}, got {max_degree}")
    triples = list(sorted_triples(max_degree))
    # The pool forks all its workers at the first submit; more than one
    # per triple would sit idle.
    workers = min(_cores(), len(triples))
    if workers == 1:
        return [decide(t) for t in triples]
    # Imported only here, so that a process that never forks a pool
    # does not load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(triples) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(decide, triples, chunksize=chunk))


SCAN_COLUMNS = ("d1", "d2", "d3", "verdict", "reason", "s", "t", "witness_len")


def scan_rows(decisions: Iterable[Decision]) -> list[dict]:
    """Flat row mapping per decision, keys in SCAN_COLUMNS order, for CSV/JSON."""
    rows = []
    for d in decisions:
        s, t = d.representation if d.representation is not None else (None, None)
        witness_len = len(d.witness) if d.witness is not None else None
        rows.append(dict(zip(SCAN_COLUMNS, (*d.triple, d.verdict, d.reason, s, t, witness_len))))
    return rows
