"""Schensted row bumping, its inverse, rectification, and Knuth equivalence."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable

from .tableau import SemiStandardTableau, TableauError


def _check_letter(a: int, n: int) -> None:
    if not 1 <= a <= n:
        raise TableauError(f"letter {a} outside 1..{n}")


def _bump(rows: list[list[int]], letters: Iterable[int]) -> None:
    """Row-insert the letters, in order, into mutable rows.

    At each row the incoming letter replaces the leftmost entry strictly
    larger than it (equal entries are passed over) and the replaced entry
    drops to the next row; with nothing larger, the letter lands at the end.
    """
    for a in letters:
        r = 0
        while True:
            if r == len(rows):
                rows.append([a])
                break
            row = rows[r]
            if row[-1] <= a:
                row.append(a)
                break
            i = bisect_right(row, a)
            a, row[i] = row[i], a
            r += 1


def _column_bump(rows: list[list[int]], letters: Iterable[int]) -> list[tuple[int, int]]:
    """Column-insert the letters, in order, into mutable rows; return the
    0-based (row, column) of the box each letter added, in insertion order.

    At each column the incoming letter replaces the topmost entry weakly
    larger than it and the replaced entry moves to the next column; with
    nothing that large, the letter lands below the column.  Column-inserting
    the letters of w right to left gives the tableau of w followed by the
    row word of the rows.

    A letter that meets an equal entry passes it unchanged, and the columns
    to its right are untouched and so strict: it passes that row's whole
    run of equal entries in one bisect.  Every other bump strictly raises
    the letter, so it makes at most n - 1 bumps however long the rows are.
    """
    cells = []
    for a in letters:
        i, j = len(rows), 0
        while True:
            # The bump path only climbs: move i up to the topmost entry >= a
            # of column j, or to the cell just below that column.
            while i and (len(rows[i - 1]) <= j or rows[i - 1][j] >= a):
                i -= 1
            if i == len(rows):
                rows.append([])
            row = rows[i]
            if len(row) == j:
                row.append(a)
                cells.append((i, j))
                break
            if row[j] > a:
                a, row[j] = row[j], a
                j += 1
            else:
                j = bisect_right(row, a, j)
    return cells


def _unbump(rows: list[list[int]], r: int) -> int:
    """Reverse :func:`_bump`: remove the last box of row ``r`` (0-based) from
    mutable rows and return the letter it ejects from the first row.

    The removed value climbs row by row, each time swapping with the
    rightmost entry strictly smaller than it.
    """
    v = rows[r].pop()
    for i in range(r - 1, -1, -1):
        row = rows[i]
        j = bisect_left(row, v) - 1
        v, row[j] = row[j], v
    return v


def insert_word(t: SemiStandardTableau, word: Iterable[int]) -> SemiStandardTableau:
    """Row-insert the word's letters into the tableau, left to right."""
    letters = [int(a) for a in word]
    for a in letters:
        _check_letter(a, t.n)
    rows = [list(row) for row in t.rows]
    _bump(rows, letters)
    return SemiStandardTableau(rows, t.n, validate=False)


def rectify(word: Iterable[int], n: int | None = None) -> SemiStandardTableau:
    """Tableau obtained by row-inserting the word into the empty tableau."""
    letters = tuple(int(a) for a in word)
    if n is None:
        n = max(letters, default=1)
    return insert_word(SemiStandardTableau.empty(n), letters)


def knuth_equivalent(u: Iterable[int], v: Iterable[int]) -> bool:
    """Words are Knuth-equivalent exactly when their rectifications agree."""
    return rectify(u).rows == rectify(v).rows


def knuth_neighbors(w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All words one elementary Knuth transposition away (both directions)."""
    out = []
    for i in range(len(w) - 2):
        p, q, r = w[i], w[i + 1], w[i + 2]
        if q < p <= r or r < p <= q:
            out.append(w[:i] + (p, r, q) + w[i + 3:])
        if p <= r < q or q <= r < p:
            out.append(w[:i] + (q, p, r) + w[i + 3:])
    return out
