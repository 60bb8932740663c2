"""Candidate-pair bookkeeping and certified pair elimination.

A PairSet holds, for every point i of the hat cloud, its admissible partners
j in the bar cloud together with certified squared-distance bounds
[c_lo, c_hi] valid over the current angle box. reduce_pairs removes pairs
that provably carry no weight at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PairSet:
    """Flat arrays of candidate pairs (i, j) with per-pair distance bounds."""

    n_hat: int
    i: np.ndarray
    j: np.ndarray
    c_lo: np.ndarray
    c_hi: np.ndarray

    def __post_init__(self) -> None:
        self.i = np.asarray(self.i, dtype=np.int64)
        self.j = np.asarray(self.j, dtype=np.int64)
        self.c_lo = np.asarray(self.c_lo, dtype=float)
        self.c_hi = np.asarray(self.c_hi, dtype=float)
        n = self.i.shape[0]
        if not (self.j.shape[0] == self.c_lo.shape[0] == self.c_hi.shape[0] == n):
            raise ValueError("pair arrays must have equal length")
        if np.any(self.i < 0) or np.any(self.i >= self.n_hat):
            raise ValueError("hat indices i must lie in [0, n_hat)")
        if np.any(self.j < 0):
            raise ValueError("bar indices j must be >= 0")
        # with 0 <= j <= max j, the key is unique exactly when (i, j) is
        if n and np.unique(self.i * (self.j.max() + 1) + self.j).shape[0] != n:
            raise ValueError("duplicate (i, j) pairs")
        if np.any(self.c_lo < 0) or np.any(self.c_lo > self.c_hi):
            raise ValueError("pair bounds must satisfy 0 <= c_lo <= c_hi")

    @classmethod
    def unchecked(cls, n_hat: int, i: np.ndarray, j: np.ndarray, c_lo: np.ndarray,
                  c_hi: np.ndarray) -> "PairSet":
        """A set of arrays known to be valid (int64 indices, float bounds),
        without the checks that construction runs."""
        out = object.__new__(cls)
        out.n_hat, out.i, out.j, out.c_lo, out.c_hi = n_hat, i, j, c_lo, c_hi
        return out

    @classmethod
    def dense(cls, n_hat: int, n_bar: int) -> "PairSet":
        """All n_hat * n_bar pairs with vacuous bounds [0, inf)."""
        i = np.repeat(np.arange(n_hat, dtype=np.int64), n_bar)
        j = np.tile(np.arange(n_bar, dtype=np.int64), n_hat)
        return cls.unchecked(n_hat, i, j, np.zeros(i.shape[0]), np.full(i.shape[0], np.inf))

    @property
    def size(self) -> int:
        return int(self.i.shape[0])

    def candidates_for(self, i: int) -> np.ndarray:
        return self.j[self.i == i]

    def min_c_lo_per_i(self) -> np.ndarray:
        out = np.full(self.n_hat, np.inf)
        np.minimum.at(out, self.i, self.c_lo)
        return out

    def min_c_hi_per_i(self) -> np.ndarray:
        out = np.full(self.n_hat, np.inf)
        np.minimum.at(out, self.i, self.c_hi)
        return out

    def covers_all_i(self) -> bool:
        present = np.zeros(self.n_hat, dtype=bool)
        present[self.i] = True
        return bool(present.all())

    def select(self, mask: np.ndarray) -> "PairSet":
        """The pairs where mask is true. A subset of a valid set is valid, so
        the result skips the checks that construction runs."""
        return PairSet.unchecked(self.n_hat, self.i[mask], self.j[mask], self.c_lo[mask],
                                 self.c_hi[mask])


@dataclass
class ReduceResult:
    pairs: PairSet
    infeasible: bool
    removed_objective: int
    removed_closest: int

    @property
    def removed_total(self) -> int:
        return self.removed_objective + self.removed_closest


def reduce_pairs(pairs: PairSet, f_upper: float) -> ReduceResult:
    """Certified pair elimination under a valid global upper bound f_upper.

    Objective rule: a pair whose distance lower bound already exceeds f_upper
    cannot carry weight in any solution at least as good as the incumbent.
    Closest-point rule: if some partner k of i is, over the whole box, always
    closer than pair (i, j) can ever be (c_lo_ij > min_k c_hi_ik), then j is
    never i's nearest point and the pair is dropped.

    Removals are strict-inequality only (ties retained); the bounds were
    already widened conservatively when computed. If any i loses all its
    candidates the node is infeasible: i cannot be assigned a partner.
    """
    if f_upper < 0:
        raise ValueError("f_upper must be >= 0")
    keep_obj = ~(pairs.c_lo > f_upper)
    n_obj = int((~keep_obj).sum())
    surviving = pairs.select(keep_obj)

    m = surviving.min_c_hi_per_i()
    keep_closest = ~(surviving.c_lo > m[surviving.i])
    n_closest = int((~keep_closest).sum())
    reduced = surviving.select(keep_closest)

    return ReduceResult(
        pairs=reduced,
        infeasible=not reduced.covers_all_i(),
        removed_objective=n_obj,
        removed_closest=n_closest,
    )
