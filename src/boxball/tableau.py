"""Semi-standard tableaux, row words, and letter-multiset utilities."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

Word = tuple[int, ...]
Shape = tuple[int, ...]


class TableauError(ValueError):
    """A filling violates the semi-standard tableau constraints."""


class SemiStandardTableau:
    """Partition-shaped filling: rows weakly increase, columns strictly increase.

    Entries are integers in ``1..n``; the alphabet bound ``n`` travels with the
    value and is checked at construction.  Equality and hashing compare the
    filling only, not ``n``.  Values are immutable: all operations return new
    tableaux, so sharing across threads is safe.
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows: Iterable[Sequence[int]], n: int, *, validate: bool = True):
        self.n = int(n)
        if validate:
            self.rows: tuple[tuple[int, ...], ...] = tuple(tuple(int(a) for a in row) for row in rows)
            self._validate()
        else:
            # Internal callers pass rows of ints that already form a tableau.
            self.rows = tuple(map(tuple, rows))

    def _validate(self) -> None:
        if self.n < 1:
            raise TableauError("alphabet bound must be positive")
        shape = self.shape
        if 0 in shape:
            raise TableauError("rows must be nonempty")
        if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
            raise TableauError(f"row lengths must weakly decrease, got {shape}")
        for r, row in enumerate(self.rows):
            for c, a in enumerate(row):
                if not 1 <= a <= self.n:
                    raise TableauError(f"entry {a} at ({r + 1},{c + 1}) outside 1..{self.n}")
                if c and row[c - 1] > a:
                    raise TableauError(f"row {r + 1} is not weakly increasing")
                if r and self.rows[r - 1][c] >= a:
                    raise TableauError(f"column {c + 1} is not strictly increasing")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "SemiStandardTableau":
        return cls((), n)

    @classmethod
    def column(cls, entries: Iterable[int], n: int) -> "SemiStandardTableau":
        """Single-column tableau from a strictly increasing letter sequence."""
        return cls(tuple((int(a),) for a in entries), n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], n: int) -> "SemiStandardTableau":
        """Rectangular tableau from equal-height columns listed left to right."""
        cols = [tuple(col) for col in columns]
        if not cols:
            return cls.empty(n)
        height = len(cols[0])
        if any(len(col) != height for col in cols):
            raise TableauError("columns must share a height")
        return cls(tuple(tuple(col[i] for col in cols) for i in range(height)), n)

    @classmethod
    def parse(cls, text: str, n: int) -> "SemiStandardTableau":
        """Inverse of :meth:`to_text` (also accepts the compact column form)."""
        rows = []
        for segment in text.strip().split("/"):
            segment = segment.strip()
            if not segment:
                raise TableauError(f"empty row in {text!r}")
            try:
                rows.append(tuple(int(tok) for tok in segment.split()))
            except ValueError:
                raise TableauError(f"bad entry in {text!r}") from None
        return cls(rows, n)

    # -- structure ---------------------------------------------------------

    @property
    def shape(self) -> Shape:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_rectangular(self) -> bool:
        return all(len(row) == len(self.rows[0]) for row in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [
            tuple(row[c] for row in self.rows if c < len(row))
            for c in range(self.num_cols)
        ]

    def row_word(self) -> Word:
        """Letters read bottom row first, each row left to right."""
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def content(self) -> Counter:
        return Counter(a for row in self.rows for a in row)

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Rows separated by ``/``, entries by single spaces."""
        return " / ".join(" ".join(str(a) for a in row) for row in self.rows)

    def to_column_text(self) -> str:
        """Compact ``a/b/c`` form for a single-column tableau."""
        if self.num_cols > 1:
            raise TableauError("column text form needs a single-column tableau")
        return "/".join(str(row[0]) for row in self.rows)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"SemiStandardTableau({self.to_text()!r}, n={self.n})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SemiStandardTableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)


def content(x) -> Counter:
    """Letter multiset of a tableau or of a plain word."""
    if isinstance(x, SemiStandardTableau):
        return x.content()
    return Counter(int(a) for a in x)


def restrict(word: Iterable[int], lo: int, hi: int) -> Word:
    """Subword of the letters lying in ``[lo, hi]``, order preserved."""
    if lo > hi:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    return tuple(a for a in word if lo <= a <= hi)


def enumerate_tableaux(shape: Sequence[int], n: int, weight: dict[int, int] | None = None) -> Iterator[SemiStandardTableau]:
    """Yield every tableau of ``shape`` over ``1..n``.

    With ``weight``, only fillings using exactly that letter multiset are
    produced.  Intended for small shapes (oracles and exhaustive tests).
    """
    shape = tuple(int(x) for x in shape)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or any(x < 1 for x in shape):
        raise ValueError(f"not a partition shape: {shape}")
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    if weight is not None and sum(weight.values()) != len(cells):
        return
    remaining = [len(cells) if weight is None else weight.get(v, 0) for v in range(n + 1)]
    rows = [[0] * length for length in shape]
    # Odometer over the cells in row-major order, so the fillings come out in
    # lexicographic order, which sampling draws from by index.
    idx = 0
    while idx >= 0:
        if idx == len(cells):
            yield SemiStandardTableau([tuple(row) for row in rows], n, validate=False)
            idx -= 1
            continue
        r, c = cells[idx]
        v = rows[r][c]
        if v:
            remaining[v] += 1
            v += 1
        else:
            v = max(rows[r][c - 1] if c else 1, rows[r - 1][c] + 1 if r else 1)
        while v <= n and remaining[v] <= 0:
            v += 1
        if v > n:
            rows[r][c] = 0
            idx -= 1
        else:
            rows[r][c] = v
            remaining[v] -= 1
            idx += 1
