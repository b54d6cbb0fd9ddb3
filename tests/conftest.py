"""Shared fixtures: text shorthands and the worked states used across modules."""

from __future__ import annotations

import pytest

import boxball.bbs as bbs_mod
from boxball import BbsState, SemiStandardTableau, enumerate_tableaux, parse_state
from boxball.insertion import _column_bump
from boxball.insertion import knuth_neighbors  # noqa: F401  (re-exported for the test modules)


def T(text: str, n: int) -> SemiStandardTableau:
    return SemiStandardTableau.parse(text, n)


def cols(*texts: str, n: int) -> list[SemiStandardTableau]:
    return [SemiStandardTableau.parse(t, n) for t in texts]


def swapped_landing(swap: int):
    """A stand-in for ``_column_bump`` whose peel order, the reverse of the
    landing order, has its cells ``swap`` and ``swap + 1`` exchanged."""

    def swapped(rows, letters):
        order = _column_bump(rows, letters)[::-1]  # the peel order
        order[swap:swap + 2] = order[swap + 1], order[swap]
        return order[::-1]

    return swapped


def small_rectangles(n: int, kmax: int = 2, lmax: int = 2) -> list[SemiStandardTableau]:
    """Every k x l rectangle over 1..n with k <= min(kmax, n - 1) and l <= lmax,
    as a list: some callers iterate it twice."""
    out = []
    for k in range(1, min(kmax, n - 1) + 1):
        for l in range(1, lmax + 1):
            out.extend(enumerate_tableaux((l,) * k, n))
    return out


# Three-soliton state whose six evolution steps and scattering data are known
# in full, with the displayed states at every time step.
THREE_SOLITON_TEXT = "n=6 k=3 offset=0\n2/3/5 2/3/4 2/3/4 . . . 2/3/6 1/2/4 . . . 1/3/5\n"

THREE_SOLITON_TRAJECTORY = [
    (0, "2/3/5 2/3/4 2/3/4 . . . 2/3/6 1/2/4 . . . 1/3/5"),
    (3, "2/3/5 2/3/4 2/3/4 . . 2/3/6 1/2/4 . . 1/3/5"),
    (6, "2/3/5 2/3/4 2/3/4 . 2/3/6 1/2/4 . 1/3/5"),
    (9, "2/3/5 2/3/4 . 2/3/6 2/3/4 1/4/5"),
    (11, "2/3/5 2/3/4 . . 2/4/6 2/3/5 1/3/4"),
    (13, "2/3/5 2/3/4 . 1/2/4 . 2/3/6 2/3/5 1/3/4"),
    (15, "2/3/5 . 2/3/4 1/2/4 . . 2/3/6 2/3/5 1/3/4"),
]

INTRO_K1_TEXT = "n=3 k=1 offset=0\n3 3 2\n"
INTRO_K2_TEXT = "n=4 k=2 offset=0\n2/4 2/4 1/3\n"

SPECTRUM_TEXTS = {
    "a": "n=6 k=2 offset=0\n2/4 1/6\n",
    "b": "n=5 k=2 offset=0\n2/4 3/5 2/5\n",
    "c": "n=5 k=2 offset=0\n2/4 1/3 2/4 3/5 2/5\n",
}


@pytest.fixture
def three_soliton_state() -> BbsState:
    return parse_state(THREE_SOLITON_TEXT)


@pytest.fixture
def intro_k1_state() -> BbsState:
    return parse_state(INTRO_K1_TEXT)


@pytest.fixture
def intro_k2_state() -> BbsState:
    return parse_state(INTRO_K2_TEXT)


@pytest.fixture
def stuck_r(monkeypatch):
    """A sweep R whose carrier never comes back to rest: it always carries a
    lone 3 over n = 3, k = 1."""
    monkeypatch.setattr(bbs_mod, "_r_rows", lambda xrows, yrows, n: (yrows, ((3,),), 0))
