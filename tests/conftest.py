import pathlib

import pytest

from hopfcyclic import cohomology
from hopfcyclic.cohomology import B_matrix, b_matrix

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


@pytest.fixture
def flipped_B1(monkeypatch):
    """cohomology.B_matrix with the sign of one entry of B_1 flipped, which
    breaks B^2 = 0 and bB + Bb = 0."""
    def flipped(module, n):
        matrix = B_matrix(module, n)
        if n == 1:
            r, c = min(matrix.entries)
            matrix.cols[c][r] = -matrix.cols[c][r]
        return matrix

    monkeypatch.setattr(cohomology, "B_matrix", flipped)


@pytest.fixture
def corrupted_b2(monkeypatch):
    """cohomology.b_matrix with the sign of the last entry of b_2 flipped,
    which breaks b^2 = 0 (and bB + Bb = 0) on Sweedler's H4."""
    def corrupted(module, n):
        matrix = b_matrix(module, n)
        if n == 2:
            r, c = max(matrix.entries)
            matrix.cols[c][r] = -matrix.cols[c][r]
        return matrix

    monkeypatch.setattr(cohomology, "b_matrix", corrupted)
