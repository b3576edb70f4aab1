"""Numerical semigroup membership and the Frobenius gap."""

from __future__ import annotations

import math
import random

import pytest

from tamedeg import frobenius, membership


def brute_force_member(l: int, a: int, b: int) -> bool:
    return any(
        (l - t * b) % a == 0
        for t in range(l // b + 1)
    )


class TestMembership:
    def test_gap_of_three_five(self):
        assert membership(7, 3, 5) is None

    def test_zero_is_member(self):
        assert membership(0, 3, 5) == (0, 0)

    def test_smallest_t_representation(self):
        assert membership(11, 3, 5) == (2, 1)

    def test_multiple_representations_pick_smallest_t(self):
        # 30 = 10*3 = 5*6: t=0 wins
        assert membership(30, 3, 5) == (10, 0)

    def test_returned_representation_is_sound(self):
        rng = random.Random(51)
        for _ in range(300):
            a = rng.randint(1, 20)
            b = rng.randint(1, 20)
            l = rng.randint(0, 200)
            rep = membership(l, a, b)
            if rep is None:
                assert not brute_force_member(l, a, b)
            else:
                s, t = rep
                assert s >= 0 and t >= 0
                assert s * a + t * b == l

    def test_closed_form_matches_the_smallest_t_search(self):
        # the representation of the plain search over t = 0, 1, 2, ...
        for a in range(1, 21):
            for b in range(1, 21):
                for l in range(200):
                    expected = next(((l - t * b) // a, t) for t in range(l // b + 1) if (l - t * b) % a == 0) \
                        if brute_force_member(l, a, b) else None
                    assert membership(l, a, b) == expected, (l, a, b)

    def test_huge_target(self, time_limit):
        with time_limit(5):
            assert membership(1000000014999999935, 1000000007, 1000000009) == (500000064, 499999943)
        # gcd 6 is divided out before the inverse is taken
        assert membership(6 * 1000000014999999935, 6 * 1000000007, 6 * 1000000009) == (500000064, 499999943)

    def test_non_coprime_requires_gcd_divisibility(self):
        assert membership(7, 4, 6) is None
        assert membership(20, 4, 6) == (5, 0)
        rng = random.Random(52)
        for _ in range(200):
            a = rng.randint(2, 16) * 2
            b = rng.randint(2, 16) * 2
            l = rng.randint(0, 150)
            if l % math.gcd(a, b) != 0:
                assert membership(l, a, b) is None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            membership(5, 0, 3)
        with pytest.raises(ValueError):
            membership(-1, 3, 5)


class TestFrobenius:
    def test_known_gaps(self):
        assert frobenius(3, 5) == 7
        assert frobenius(2, 3) == 1
        assert frobenius(3, 7) == 11

    def test_closed_form_on_small_range(self):
        for a in range(2, 13):
            for b in range(a, 13):
                if math.gcd(a, b) != 1:
                    continue
                f = frobenius(a, b)
                assert f == a * b - a - b
                assert membership(f, a, b) is None
                assert membership(f + 1, a, b) is not None

    def test_gap_count_identity(self):
        # coprime pairs have exactly (a-1)(b-1)/2 gaps, the largest of
        # them the Frobenius number
        for a in range(2, 11):
            for b in range(a + 1, 11):
                if math.gcd(a, b) != 1:
                    continue
                gaps = [l for l in range(a * b + 1) if not brute_force_member(l, a, b)]
                assert len(gaps) == (a - 1) * (b - 1) // 2
                assert max(gaps) == frobenius(a, b)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            frobenius(4, 6)

    def test_unit_generator_rejected(self):
        with pytest.raises(ValueError):
            frobenius(1, 5)


@pytest.mark.parametrize("function, args", [(membership, (True, 3, 5)), (membership, (5, True, 2)),
                                            (frobenius, (2, True))])
def test_bool_arguments_rejected(function, args):
    with pytest.raises(ValueError):
        function(*args)
