"""Kashiwara raising/lowering operators on tensor products of rectangular
tableaux, computed with the signature rule, and the column-splitting map."""

from __future__ import annotations

from collections.abc import Iterable

from .tableau import SemiStandardTableau


class CrystalTensor:
    """Ordered tensor product of rectangular tableaux over a common alphabet.

    The operators act through the flattened letter sequence: factors left to
    right, each factor read column by column from its rightmost column, each
    column top to bottom.
    """

    __slots__ = ("factors", "n")

    def __init__(self, factors: Iterable[SemiStandardTableau], n: int | None = None):
        fs = tuple(factors)
        if n is None:
            if not fs:
                raise ValueError("an empty tensor needs an explicit alphabet bound")
            n = fs[0].n
        for t in fs:
            if t.num_rows == 0 or not t.is_rectangular:
                raise ValueError("tensor factors must be nonempty rectangular tableaux")
            if t.n != n:
                raise ValueError("tensor factors must share the alphabet bound")
        self.factors = fs
        self.n = int(n)

    def letters(self) -> tuple[int, ...]:
        out: list[int] = []
        for t in self.factors:
            for c in range(t.num_cols - 1, -1, -1):
                for row in t.rows:
                    out.append(row[c])
        return tuple(out)

    def _check_index(self, i: int) -> None:
        if i == 0:
            raise ValueError("operator index 0 is not supported")
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"operator index must lie in 1..{self.n - 1}, got {i}")

    def signature(self, i: int) -> str:
        """Per-letter symbols: ``+`` for letter i, ``-`` for i+1, ``0`` otherwise."""
        self._check_index(i)
        return "".join(
            "+" if a == i else "-" if a == i + 1 else "0" for a in self.letters()
        )

    def _unmatched(self, i: int) -> tuple[list[int], list[int]]:
        # One left-to-right pass cancels every (+, later -) pair; what survives
        # is the minus block followed by the plus block.
        plus: list[int] = []
        minus: list[int] = []
        for idx, s in enumerate(self.signature(i)):
            if s == "+":
                plus.append(idx)
            elif s == "-":
                if plus:
                    plus.pop()
                else:
                    minus.append(idx)
        return minus, plus

    def apply_f(self, i: int) -> "CrystalTensor | None":
        """Change the letter at the leftmost surviving ``+`` from i to i+1."""
        _, plus = self._unmatched(i)
        if not plus:
            return None
        return self._replace(plus[0], +1)

    def apply_e(self, i: int) -> "CrystalTensor | None":
        """Change the letter at the rightmost surviving ``-`` from i+1 to i."""
        minus, _ = self._unmatched(i)
        if not minus:
            return None
        return self._replace(minus[-1], -1)

    def is_highest(self, indices: Iterable[int]) -> bool:
        return all(self.apply_e(i) is None for i in indices)

    def _replace(self, flat_pos: int, delta: int) -> "CrystalTensor":
        fi, r, c = self._locate(flat_pos)
        t = self.factors[fi]
        rows = [list(row) for row in t.rows]
        rows[r][c] += delta
        new_factor = SemiStandardTableau(rows, t.n)
        return CrystalTensor(self.factors[:fi] + (new_factor,) + self.factors[fi + 1:], self.n)

    def _locate(self, flat_pos: int) -> tuple[int, int, int]:
        for fi, t in enumerate(self.factors):
            if flat_pos < t.size:
                col_from_right, r = divmod(flat_pos, t.num_rows)
                return fi, r, t.num_cols - 1 - col_from_right
            flat_pos -= t.size
        raise IndexError(flat_pos)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CrystalTensor):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __str__(self) -> str:
        return " * ".join(t.to_text() for t in self.factors)

    def __repr__(self) -> str:
        return f"CrystalTensor({self!s})"


def sp(t: SemiStandardTableau) -> CrystalTensor:
    """Split a rectangular tableau into its columns, rightmost first."""
    if t.num_rows == 0 or not t.is_rectangular:
        raise ValueError("sp needs a nonempty rectangular tableau")
    return CrystalTensor(
        [SemiStandardTableau.column(col, t.n) for col in reversed(t.columns())], t.n
    )


def unsplit(ct: CrystalTensor) -> SemiStandardTableau:
    """Inverse of :func:`sp`: reassemble single-column factors into a rectangle."""
    cols = []
    for t in ct.factors:
        if t.num_cols != 1:
            raise ValueError("unsplit expects single-column factors")
        cols.append(tuple(row[0] for row in t.rows))
    return SemiStandardTableau.from_columns(list(reversed(cols)), ct.n)
