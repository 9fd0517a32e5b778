"""Lexicographic ranking of k-subsets of {1, ..., n}.

Subsets are sorted tuples of 1-based integers, ordered lexicographically:
(1,2,3) < (1,2,4) < ... < (n-2,n-1,n).  Ranks are 0-based; flat indices
exposed to users (file formats, right-vertex indices) are rank + 1.
"""

from collections.abc import Sequence
from itertools import combinations
from math import comb
from operator import eq

from .errors import ValidationError


def k_subsets(n, k):
    """All k-subsets of {1,...,n} as sorted tuples, in lexicographic order."""
    return combinations(range(1, n + 1), k)


def subset_rank(subset, n):
    """0-based lexicographic rank of a sorted k-subset of {1,...,n}.

    Closed form: the k-subsets after X = {x_0 < ... < x_{k-1}} number
    sum_j C(n - x_j, k - j) (those agreeing with X before position j and
    larger at j), so rank(X) = C(n,k) - 1 - that sum.
    """
    k = len(subset)
    return comb(n, k) - 1 - sum(comb(n - x, k - j) for j, x in enumerate(subset))


def capped_comb(n, k, cap):
    """min(C(n, k), cap) for n, k >= 0, in at most cap.bit_length() + 1
    products however large n and k are, since C(n, j) >= 2^j for
    j <= n/2 (comb(2**31 - 1, 400000) alone takes seconds)."""
    if k > n:
        return 0
    count = 1
    for j in range(min(k, n - k)):
        if count >= cap:
            break
        count = count * (n - j) // (j + 1)  # C(n, j + 1)
    return min(count, cap)


def is_subset_count(count, n, k):
    """count == C(n, k), decided without computing a C(n, k) past count."""
    return capped_comb(n, k, count + 1) == count


def subset_unrank(rank, n, k):
    """Inverse of subset_rank: the k-subset of {1,...,n} at the given rank."""
    if not 0 <= rank < comb(n, k):
        raise ValueError(f"rank {rank} out of range for C({n},{k})")
    out = []
    prev = 0
    remaining = rank
    for j in range(k):
        v = prev + 1
        while True:
            block = comb(n - v, k - j - 1)
            if remaining < block:
                break
            remaining -= block
            v += 1
        out.append(v)
        prev = v
    return tuple(out)


def validate_subset(subset, n, k=None):
    """Check a sorted k-subset of {1,...,n}; return it as a tuple."""
    t = tuple(subset)
    if k is not None and len(t) != k:
        raise ValidationError(f"expected a {k}-subset, got {len(t)} elements")
    if any(not isinstance(x, int) for x in t):
        raise ValidationError(f"subset elements must be integers: {t}")
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValidationError(f"subset must be strictly increasing: {t}")
    if t and (t[0] < 1 or t[-1] > n):
        raise ValidationError(f"subset {t} not contained in [1,{n}]")
    return t


class SubsetSequence(Sequence):
    """tuple(k_subsets(n, k)) as a read-only sequence that stores none of
    its items: item r is subset_unrank(r, n, k) and a member's index is
    its subset_rank, so len, indexing, in and index cost O(n) whatever
    C(n,k) is.  It compares equal to that tuple and prints as it."""

    __slots__ = ("n", "k", "_len")

    def __init__(self, n, k):
        self.n, self.k, self._len = n, k, comb(n, k)

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        r = range(self._len)[i]  # negative indices, slices and errors as a tuple's
        if isinstance(r, range):
            return tuple(subset_unrank(j, self.n, self.k) for j in r)
        return subset_unrank(r, self.n, self.k)

    def __iter__(self):
        return k_subsets(self.n, self.k)

    def _rank(self, subset):
        """Rank of the item equal to subset, or -1 if there is none."""
        if not isinstance(subset, tuple):
            return -1
        try:  # as in a tuple, an element equal to an int (2.0, True) matches it
            t = tuple(map(int, subset))
            return subset_rank(validate_subset(t, self.n, self.k), self.n) if t == subset else -1
        except (TypeError, ValueError, OverflowError):  # ValidationError included
            return -1

    def __contains__(self, subset):
        return self._rank(subset) >= 0

    def index(self, subset, start=0, stop=None):
        r = self._rank(subset)
        if r not in range(self._len)[start:stop]:
            raise ValueError(f"{subset!r} is not in the sequence")
        return r

    def __eq__(self, other):
        if not isinstance(other, (tuple, SubsetSequence)):
            return NotImplemented
        if isinstance(other, SubsetSequence) and (self.n, self.k) == (other.n, other.k):
            return True
        return len(other) == self._len and all(map(eq, self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))
