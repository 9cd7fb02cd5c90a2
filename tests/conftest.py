import pathlib

import pytest

from hopfcyclic import cohomology
from hopfcyclic.cohomology import (B_matrix, b_matrix,
                                   one_minus_lambda_matrix)
from hopfcyclic.cyclic_ops import HopfCyclicModule, NormalizedModule
from hopfcyclic.linalg import stacked_ranks

PKG_ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = PKG_ROOT / "data"
GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture
def goldens_dir():
    return GOLDENS


def load_golden(name):
    """Parse a golden dimension table: lines 'HH d0 d1 ...' / 'HC d0 d1 ...'."""
    out = {}
    for line in (GOLDENS / f"{name}.txt").read_text().splitlines():
        if line.startswith("HH ") or line.startswith("HC "):
            key, *vals = line.split()
            out[key] = [int(v) for v in vals]
    return out


def differentials(module, N_max):
    """The matrices the dimension functions take for max degree N_max:
    {n: b_n} for 1 <= n <= N_max + 1 and {n: B_n} for 0 <= n < N_max."""
    return ({n: b_matrix(module, n) for n in range(1, N_max + 2)},
            {n: B_matrix(module, n) for n in range(N_max)})


def stacked_lambda_dimensions(b, minus):
    """HC(lambda) by the stacked formula, the oracle of the lambda stage:
    for A = 1 - lambda_n and K = ker A, rank(b_(n+1) on K) = rank [b_(n+1);
    A] - rank A and dim K = A.ncols - rank A, given the whole b = {n: b_n}
    for 1 <= n <= N+1 and minus = [A_0, ..., A_N]."""
    kernel_dims, image_ranks = [], []
    for n, A in enumerate(minus):
        rank_A = A.rank()
        kernel_dims.append(A.ncols - rank_A)
        image_ranks.append(stacked_ranks([b[n + 1], A])[1] - rank_A)
    return [size - image_ranks[n] - (image_ranks[n - 1] if n else 0)
            for n, size in enumerate(kernel_dims)]


def minus_lambda(module, n):
    """1 - lambda_n of a finite module, from its tau_n."""
    return one_minus_lambda_matrix(module.cyclic_matrix(n), n)


def lambda_oracle(delta, N_max):
    """stacked_lambda_dimensions on the whole b_1..b_(N+1) and 1 - lambda_n
    of the full module of delta, nothing restricted."""
    module = HopfCyclicModule(delta)
    return stacked_lambda_dimensions(
        {n: b_matrix(module, n) for n in range(1, N_max + 2)},
        [minus_lambda(module, n) for n in range(N_max + 1)])


@pytest.fixture
def perturbed_B1(monkeypatch):
    """cohomology.B_matrix with 1 added to entry (1, 1) of B_1, which breaks
    B^2 = 0 and bB + Bb = 0 on Sweedler's H4.  The report ranks the B of
    the normalized complex, whose B_1 is zero there, so no sign flip can
    break it."""
    def perturbed(module, n):
        matrix = B_matrix(module, n)
        if n == 1:
            matrix.cols[1][1] = matrix.cols[1].get(1, 0) + 1
        return matrix

    monkeypatch.setattr(cohomology, "B_matrix", perturbed)


@pytest.fixture
def corrupted_b2(monkeypatch):
    """cohomology.b_matrix with b_2 broken so that b^2 = 0 fails on
    Sweedler's H4.  The full b_2 has the sign of its last entry flipped.
    The normalized b_3 vanishes at every row where the normalized b_2 has
    an entry, so no sign flip breaks the normalized b^2 = 0; that b_2 gets
    1 added to its entry (2, 0) instead."""
    def corrupted(module, n):
        matrix = b_matrix(module, n)
        if n == 2 and isinstance(module, NormalizedModule):
            matrix.cols[0][2] = matrix.cols[0].get(2, 0) + 1
        elif n == 2:
            r, c = max(matrix.entries)
            matrix.cols[c][r] = -matrix.cols[c][r]
        return matrix

    monkeypatch.setattr(cohomology, "b_matrix", corrupted)
