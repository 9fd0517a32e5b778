"""Lexicographic ranking of k-subsets."""

from itertools import combinations

from bipartite_ramsey import subset_rank, subset_unrank


def test_rank_and_unrank_match_combinations_order_exhaustively():
    for n in range(11):
        for k in range(n + 1):
            for r, subset in enumerate(combinations(range(1, n + 1), k)):
                assert subset_rank(subset, n) == r
                assert subset_unrank(r, n, k) == subset
