"""Lexicographic ranking of k-subsets."""

from itertools import combinations
from math import comb

from bipartite_ramsey import subset_rank, subset_unrank
from bipartite_ramsey.subsets import capped_comb, is_subset_count


def test_rank_and_unrank_match_combinations_order_exhaustively():
    for n in range(11):
        for k in range(n + 1):
            for r, subset in enumerate(combinations(range(1, n + 1), k)):
                assert subset_rank(subset, n) == r
                assert subset_unrank(r, n, k) == subset


def test_capped_comb_is_comb_up_to_the_cap():
    for n in range(40):
        for k in range(n + 3):
            for cap in (0, 1, 2, 7, n, 1000, 1 << 63):
                assert capped_comb(n, k, cap) == min(comb(n, k), cap), (n, k, cap)
            for count in {0, comb(n, k) - 1, comb(n, k), comb(n, k) + 1} - {-1}:
                assert is_subset_count(count, n, k) is (count == comb(n, k))
    # C(2**31 - 1, 2**30) alone would take hours; capped, a few products.
    assert capped_comb(2**31 - 1, 2**30, 1 << 63) == 1 << 63
