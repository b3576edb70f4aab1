"""Triple classification: rule order, witnesses, exclusions, scans."""

from __future__ import annotations

import concurrent.futures
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

from tamedeg import (
    automorphisms,
    compose_word,
    decide,
    decision,
    normalize_triple,
    scan,
    scan_rows,
    variables,
)
from tamedeg.decision import KNOWN_INSTANCES, sorted_triples

ROOT = Path(__file__).resolve().parent.parent

# psi_12 = 318665857834031151167461, the least strong pseudoprime to
# every prime base up to 37
PSI12 = 399165290221 * 798330580441


def assert_witness_realizes(decision):
    assert decision.witness is not None
    assert compose_word(list(decision.witness)).mdeg() == decision.triple


class TestDecide:
    def test_first_exclusion_rule(self):
        d = decide((3, 5, 7))
        assert d.verdict == "NotTame"
        assert d.reason == "Theorem3Exclusion"
        assert d.witness is None
        assert d.representation is None
        assert d.failed_hypotheses == ()

    def test_second_exclusion_rule(self):
        # d2 = 4 is composite, so the first rule passes; d3 = 5 is prime
        # and gcd(3, 4) = 1
        d = decide((3, 4, 5))
        assert d.verdict == "NotTame"
        assert d.reason == "Theorem4Exclusion"

    def test_semigroup_member(self):
        d = decide((3, 5, 11))
        assert d.verdict == "Tame"
        assert d.reason == "SemigroupMember"
        assert d.representation == (2, 1)
        assert_witness_realizes(d)

    def test_equal_first_pair(self):
        d = decide((5, 5, 7))
        assert d.verdict == "Tame"
        assert d.reason == "EqualFirstPair"
        assert d.representation is None
        assert_witness_realizes(d)

    def test_small_first_degree(self):
        d = decide((1, 4, 9))
        assert d.verdict == "Tame"
        assert d.reason == "TrivialSmallDegree"
        assert_witness_realizes(d)
        # degree-two first entries are realizable but ship no word
        d = decide((2, 4, 9))
        assert d.verdict == "Tame"
        assert d.reason == "TrivialSmallDegree"
        assert d.witness is None

    def test_catalogued_counterexample_triple(self):
        # (10, 23, 25) fits the first exclusion shape apart from the
        # ratio condition, and the catalog must answer before either
        # exclusion gets a say
        d = decide((10, 23, 25))
        assert d.verdict == "Tame"
        assert d.reason == "KnownInstance"
        assert len(d.witness) == 5
        assert_witness_realizes(d)

    def test_catalogued_triple_without_witness(self):
        d = decide((22, 47, 55))
        assert d.verdict == "Tame"
        assert d.reason == "KnownInstance"
        assert d.witness is None

    def test_unknown_lists_every_unmet_hypothesis(self):
        d = decide((4, 6, 11))
        assert d.verdict == "Unknown"
        assert d.reason == "HypothesesFail"
        assert d.failed_hypotheses == (
            "Theorem3Exclusion needs a prime d2; 6 is composite",
            "Theorem4Exclusion needs gcd(d1, d2) = 1; gcd(4, 6) = 2",
        )

    def test_unknown_ratio_hypothesis(self):
        # d2 = 7 is prime but d1 = 2 * gcd(6, 15); d3 = 15 is composite
        d = decide((6, 7, 15))
        assert d.verdict == "Unknown"
        assert d.failed_hypotheses == (
            "Theorem3Exclusion needs d1/gcd(d1, d3) != 2; 6/3 = 2",
            "Theorem4Exclusion needs a prime d3; 15 is composite",
        )

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            decide((5, 3, 7))

    def test_membership_wins_over_equal_pair(self):
        # 10 = 2*5, so the membership rule answers before d1 = d2 does
        d = decide((5, 5, 10))
        assert d.reason == "SemigroupMember"
        assert d.representation == (2, 0)
        assert_witness_realizes(d)


class TestLargeTail:
    """SemigroupMember and d1 = 1 witnesses are checked from leading
    forms, so a huge d3 costs O(log d3) products and no composition."""

    @pytest.fixture(autouse=True)
    def forbid_composition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compose_word must not run for this witness")

        monkeypatch.setattr(automorphisms, "compose_word", refuse)

    @pytest.mark.parametrize("triple, representation", [
        ((3, 5, 10**6), (333330, 2)),
        ((7, 11, 10**12), (142857142854, 2)),
    ])
    def test_semigroup_member(self, triple, representation):
        d1, d2, d3 = triple
        d = decide(triple)
        assert (d.verdict, d.reason, d.representation) == ("Tame", "SemigroupMember", representation)
        s, t = representation
        assert s * d1 + t * d2 == d3
        x, y, z = variables(3)
        assert [step.shift for step in d.witness] == [z**d1, z**d2, x**s * y**t]

    def test_linear_first(self):
        d = decide((1, 4, 10**9))
        assert (d.verdict, d.reason, d.representation) == ("Tame", "TrivialSmallDegree", None)
        x, _, _ = variables(3)
        assert [step.shift for step in d.witness] == [x**4, x**10**9]


class TestRuleOrder:
    @pytest.mark.parametrize("triple, reason", [
        ((3, 5, 10**30), "SemigroupMember"),
        ((1, 4, 10**30), "TrivialSmallDegree"),
        ((5, 5, 7), "EqualFirstPair"),
        ((10, 23, 25), "KnownInstance"),
    ])
    def test_tame_answers_test_no_primality(self, triple, reason, monkeypatch):
        # _is_prime raises at or above its bound, so a Tame answer there
        # shows the exclusion rules were never reached
        assert 10**30 >= decision._PRIME_BOUND
        tested = []
        monkeypatch.setattr(decision, "_is_prime", tested.append)
        d = decide(triple)
        assert (d.verdict, d.reason) == ("Tame", reason)
        assert tested == []


def exclusion_oracle(d1, d2, d3):
    """(verdict, reason, failed hypotheses) of the two exclusion theorems
    for 3 <= d1 < d2 <= d3 with d3 outside d1N + d2N, from sympy and gcd."""
    d2_prime, d3_prime = sympy.isprime(d2), sympy.isprime(d3)
    ratio = d1 // math.gcd(d1, d3)
    if d2_prime and ratio != 2:
        return ("NotTame", "Theorem3Exclusion", ())
    if d3_prime and math.gcd(d1, d2) == 1:
        return ("NotTame", "Theorem4Exclusion", ())
    failed = []
    if not d2_prime:
        failed.append(f"Theorem3Exclusion needs a prime d2; {d2} is composite")
    if ratio == 2:
        failed.append(f"Theorem3Exclusion needs d1/gcd(d1, d3) != 2; {d1}/{d1 // 2} = 2")
    if not d3_prime:
        failed.append(f"Theorem4Exclusion needs a prime d3; {d3} is composite")
    if math.gcd(d1, d2) != 1:
        failed.append(f"Theorem4Exclusion needs gcd(d1, d2) = 1; gcd({d1}, {d2}) = {math.gcd(d1, d2)}")
    return ("Unknown", "HypothesesFail", tuple(failed))


class TestExclusionOracle:
    def test_every_non_member_up_to_60(self):
        reasons = set()
        for d3 in range(3, 61):
            for d2 in range(4, d3 + 1):
                for d1 in range(3, d2):
                    member = any((d3 - s * d1) % d2 == 0 for s in range(d3 // d1 + 1))
                    if member or (d1, d2, d3) in KNOWN_INSTANCES:
                        continue
                    d = decide((d1, d2, d3))
                    expected = exclusion_oracle(d1, d2, d3)
                    assert (d.verdict, d.reason, d.failed_hypotheses) == expected, (d1, d2, d3)
                    assert (d.witness, d.representation) == (None, None)
                    reasons.add(d.reason)
        assert reasons == {"Theorem3Exclusion", "Theorem4Exclusion", "HypothesesFail"}


class TestOpenCase:
    def test_theorem1_open_case_count(self):
        # Theorem 1's open case, d2 prime and d1/gcd(d1, d3) = 2, among
        # the Unknown triples with d3 <= 40; d1 = d2 is always Tame, so
        # only d1 < d2 with d2 prime can hold it
        triples = [(d1, d2, d3) for d1, d2, d3 in sorted_triples(40) if d1 < d2 and sympy.isprime(d2)]
        ratio = "Theorem3Exclusion needs d1/gcd(d1, d3) != 2"
        from_reasons = [t for t in triples if (d := decide(t)).verdict == "Unknown"
                        and any(text.startswith(ratio) for text in d.failed_hypotheses)]
        from_arithmetic = [(d1, d2, d3) for d1, d2, d3 in triples
                           if d1 >= 3 and d1 == 2 * math.gcd(d1, d3)
                           and not any((d3 - t * d2) % d1 == 0 for t in range(d3 // d2 + 1))
                           and (d1, d2, d3) not in KNOWN_INSTANCES]
        assert from_reasons == from_arithmetic
        assert len(from_reasons) == 115
        assert from_reasons[:6] == [(4, 5, 6), (6, 7, 9), (4, 7, 10), (8, 11, 12), (4, 11, 14), (4, 13, 14)]


class TestPrimality:
    def test_matches_sympy(self):
        ours = [n for n in range(1, 20_001) if decision._is_prime(n)]
        assert ours == [n for n in range(1, 20_001) if sympy.isprime(n)]

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051, PSI12])
    def test_strong_pseudoprimes_are_composite(self, n, time_limit):
        # strong pseudoprimes to the prime bases up to 7, up to 23 and,
        # psi_12, up to 37: only base 41 finds psi_12 composite
        with time_limit(5):
            assert not decision._is_prime(n)

    def test_psi12_second_degree_is_not_excluded(self, time_limit):
        # a prime d2 here would make Theorem 3 answer NotTame
        with time_limit(5):
            d = decide((10, PSI12, PSI12 + 1))
        assert (d.verdict, d.reason) == ("Unknown", "HypothesesFail")
        assert d.failed_hypotheses == (
            f"Theorem3Exclusion needs a prime d2; {PSI12} is composite",
            f"Theorem4Exclusion needs a prime d3; {PSI12 + 1} is composite",
        )

    def test_exact_up_to_the_bound(self):
        bound = decision._PRIME_BOUND
        for n in range(bound - 200, bound):
            assert decision._is_prime(n) == sympy.isprime(n)
        with pytest.raises(ValueError, match=str(bound)):
            decision._is_prime(bound)

    @pytest.mark.parametrize("start", [10**12, 10**16, 10**18])
    def test_large_prime_tail(self, start, time_limit):
        p = sympy.nextprime(start)
        with time_limit(5):
            d = decide((4, 6, p))
        assert (d.verdict, d.reason) == ("Unknown", "HypothesesFail")
        assert d.failed_hypotheses == (
            "Theorem3Exclusion needs a prime d2; 6 is composite",
            "Theorem4Exclusion needs gcd(d1, d2) = 1; gcd(4, 6) = 2",
        )

    def test_each_degree_tested_once(self, monkeypatch):
        tested = []
        is_prime = decision._is_prime
        monkeypatch.setattr(decision, "_is_prime", lambda n: tested.append(n) or is_prime(n))
        d = decide((4, 6, 3215031751))
        assert "Theorem4Exclusion needs a prime d3; 3215031751 is composite" in d.failed_hypotheses
        assert tested == [6, 3215031751]


class TestNormalize:
    def test_sorts_ascending(self):
        assert normalize_triple((25, 10, 23)) == (10, 23, 25)
        assert normalize_triple([7, 5, 3]) == (3, 5, 7)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            normalize_triple((1, 2))

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            normalize_triple((0, 2, 3))

    def test_noninteger(self):
        with pytest.raises(ValueError):
            normalize_triple((2.5, 3, 4))

    @pytest.mark.parametrize("triple", [(True, 2, 3), (2, 3, True), (1, 2, False)])
    def test_bool_rejected(self, triple):
        with pytest.raises(ValueError, match="degrees must be positive integers"):
            normalize_triple(triple)
        with pytest.raises(ValueError, match="degrees must be positive integers"):
            decide(sorted(triple))


class TestScan:
    def test_row_count_and_order(self):
        results = scan(10)
        triples = [d.triple for d in results]
        assert len(triples) == 220
        assert triples == list(sorted_triples(10))
        assert triples == sorted(triples, key=lambda t: (t[2], t[1], t[0]))

    def test_verdict_reason_pairing(self):
        tame = {"TrivialSmallDegree", "SemigroupMember", "EqualFirstPair", "KnownInstance"}
        for d in scan(10):
            if d.verdict == "Tame":
                assert d.reason in tame
            elif d.verdict == "NotTame":
                assert d.reason in {"Theorem3Exclusion", "Theorem4Exclusion"}
                assert d.witness is None
            else:
                assert d.verdict == "Unknown"
                assert d.reason == "HypothesesFail"
                assert d.failed_hypotheses

    def test_witnesses_realize_their_triples(self):
        for d in scan(12):
            if d.witness is not None:
                assert compose_word(list(d.witness)).mdeg() == d.triple

    def test_core_count_does_not_change_results(self, monkeypatch):
        results = []
        for cores in (1, 2):
            monkeypatch.setattr(decision, "_cores", lambda: cores)
            results.append(scan(8))
        assert results[0] == results[1]

    def test_pool_size_follows_cores(self, monkeypatch):
        # the pool forks all of max_workers at its first submit, so a
        # 10-triple scan must not ask for 64; the fake maps serially and
        # starts no process
        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        # scan imports the pool when it forks, so the fake goes where it looks
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(decision, "_cores", lambda: 64)
        pooled = scan(3)
        assert len(pooled) == 10
        assert requested == [10]
        monkeypatch.setattr(decision, "_cores", lambda: 1)
        assert scan(3) == pooled
        assert requested == [10]

    def test_only_a_forking_scan_loads_the_pool(self):
        # decide, reduce, bracket and verify-example never fork, so they
        # do not pay for importing multiprocessing
        code = ("import sys, tamedeg.cli; from tamedeg import decide, scan; decide((3, 5, 7)); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_max_degree_validation(self, time_limit):
        with pytest.raises(ValueError):
            scan(2)
        with pytest.raises(ValueError):
            scan("10")
        # refused before any triple is built
        with time_limit(1):
            for max_degree in (201, 10**6):
                with pytest.raises(ValueError, match=f"max_degree <= 200, got {max_degree}"):
                    scan(max_degree)

    def test_catalog_entries_only_fire_on_their_triples(self):
        hits = [d.triple for d in scan(25) if d.reason == "KnownInstance"]
        assert hits == [t for t in KNOWN_INSTANCES if t[2] <= 25]


class TestScanRows:
    def test_key_order(self):
        rows = scan_rows(scan(5))
        assert list(rows[0].keys()) == ["d1", "d2", "d3", "verdict", "reason", "s", "t", "witness_len"]

    def test_representation_and_witness_columns(self):
        rows = {(r["d1"], r["d2"], r["d3"]): r for r in scan_rows(scan(11))}
        member = rows[(3, 5, 11)]
        assert member["verdict"] == "Tame"
        assert member["reason"] == "SemigroupMember"
        assert (member["s"], member["t"]) == (2, 1)
        assert member["witness_len"] == len(decide((3, 5, 11)).witness)
        excluded = rows[(3, 5, 7)]
        assert excluded["verdict"] == "NotTame"
        assert excluded["s"] is None and excluded["t"] is None
        assert excluded["witness_len"] is None
