"""The combinatorial R on pairs of rectangular tableaux, the energy function,
an independent brute-force oracle, and Yang-Baxter verification.

``apply_r`` sends x ⊗ y (shapes l^k and l'^k') to the unique pair x̃ ⊗ ỹ of
swapped shapes with the same row-insertion product, with the energy of x ⊗ y.
It peels the product in the reverse of the order in which y's letters landed
in it: no search, no fallback.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .insertion import _bump, _check_letter, _column_bump, _unbump, insert_word
from .tableau import SemiStandardTableau, Shape, enumerate_tableaux


class RResult(NamedTuple):
    left_out: SemiStandardTableau
    right_out: SemiStandardTableau
    energy: int


class RMatrixError(RuntimeError):
    """R failed: a peel check did not hold, or the oracle found no unique pair."""


def insertion_product(x: SemiStandardTableau, y: SemiStandardTableau) -> SemiStandardTableau:
    """Row-insert the row word of x into y."""
    return insert_word(y, x.row_word())


def _check_pair(x: SemiStandardTableau, y: SemiStandardTableau) -> None:
    if x.n != y.n:
        raise ValueError("operands must share the alphabet bound")
    if not (x.is_rectangular and y.is_rectangular):
        raise ValueError("operands must be rectangular")


def _energy_from_shape(shape: Shape, k: int, l: int, kp: int, lp: int) -> int:
    east = max(l, lp)
    overflow = sum(length - east for length in shape if length > east)
    return overflow - min(k, kp) * min(l, lp)


def energy_h(x: SemiStandardTableau, y: SemiStandardTableau) -> int:
    """Cells of the insertion product east of the wider width, normalized so
    the maximum over each component is 0.  Zero-row operands give 0."""
    _check_pair(x, y)
    if x.num_rows == 0 or y.num_rows == 0:
        return 0
    product = insertion_product(x, y)
    return _energy_from_shape(product.shape, x.num_rows, x.num_cols, y.num_rows, y.num_cols)


def apply_r(x: SemiStandardTableau, y: SemiStandardTableau) -> RResult:
    """Evaluate the combinatorial R on x ⊗ y.

    Builds the row-insertion product of x into y by column-inserting y's row
    word, right to left, into x, so none of x's letters is re-inserted and a
    sweep step's work does not grow with the carrier's width.  Then it
    reverse-bumps the boxes y's letters added, last landed first, and reads
    the left output off the ejected letters.  A failed check raises
    :class:`RMatrixError`; ``oracle_r`` is never consulted.
    """
    _check_pair(x, y)
    if x.num_rows == 0 or y.num_rows == 0:
        # Degenerate zero-row component: R swaps, with zero energy.
        return RResult(y, x, 0)
    k, l, kp, lp, n = x.num_rows, x.num_cols, y.num_rows, y.num_cols, x.n
    # Rows and columns increase, so two corners bound every letter of y.
    _check_letter(y.rows[0][0], n)
    _check_letter(y.rows[-1][-1], n)
    rows = [list(row) for row in x.rows]
    landed = _column_bump(rows, reversed(y.row_word()))
    product = [row[:] for row in rows]
    shape = tuple(map(len, rows))
    rows.append([])  # the empty row below the last one
    ejected = []
    # y's rows go in top row first, each right to left, and each adds a
    # horizontal strip; labelling the i-th strip i gives the one Littlewood-
    # Richardson filling of shape/(l^k) with content (lp^kp), as two
    # rectangles multiply without multiplicity.  So the peel removes the
    # boxes in the reverse of the order they landed, each then a corner.
    for r, c in reversed(landed):
        if len(rows[r]) != c + 1 or len(rows[r + 1]) > c:
            raise RMatrixError(f"peel cell ({r + 1},{c + 1}) is not a corner")
        ejected.append(_unbump(rows, r))
    # The peel ejects the left output's rows from the top, each right to left:
    # its columns strictly increase when each letter is less than the one lp
    # places after it.
    left_rows = [ejected[s:s + lp][::-1] for s in range(0, kp * lp, lp)]
    if not (1 <= min(ejected) and max(ejected) <= n and all(a < b for a, b in zip(ejected, ejected[lp:]))
            and all(row == sorted(row) for row in left_rows)):
        raise RMatrixError(f"the peeled letters {ejected} do not form a tableau over 1..{n}")
    left = SemiStandardTableau(left_rows, n, validate=False)
    del rows[k:]
    check = [row[:] for row in rows]
    _bump(check, reversed(ejected))  # the left output's row word
    if check != product:
        raise RMatrixError("re-inserting the left output does not give the product back")
    right = SemiStandardTableau(rows, n, validate=False)
    return RResult(left, right, _energy_from_shape(shape, k, l, kp, lp))


def oracle_r(x: SemiStandardTableau, y: SemiStandardTableau) -> RResult:
    """Brute-force R: enumerate every content-compatible pair of the swapped
    shapes and keep the one reproducing the insertion product.

    Raises :class:`RMatrixError` unless exactly one candidate matches.  Only
    feasible for small shapes; serves as the independent check on ``apply_r``.
    """
    _check_pair(x, y)
    if x.num_rows == 0 or y.num_rows == 0:
        return RResult(y, x, 0)
    k, l = x.num_rows, x.num_cols
    kp, lp = y.num_rows, y.num_cols
    product = insertion_product(x, y)
    total = x.content() + y.content()
    matches = []
    for left in enumerate_tableaux((lp,) * kp, x.n):
        cl = left.content()
        if any(cl[a] > total[a] for a in cl):
            continue
        need = Counter({a: total[a] - cl[a] for a in total})
        need = +need
        for right in enumerate_tableaux((l,) * k, x.n, weight=need):
            if insertion_product(left, right) == product:
                matches.append((left, right))
    if len(matches) != 1:
        raise RMatrixError(
            f"{len(matches)} candidates matched the insertion identity for "
            f"{x.to_text()!r} * {y.to_text()!r}"
        )
    left, right = matches[0]
    return RResult(left, right, _energy_from_shape(product.shape, k, l, kp, lp))


def yang_baxter_holds(x: SemiStandardTableau, y: SemiStandardTableau, z: SemiStandardTableau) -> bool:
    """Compare the two three-factor compositions of R on x ⊗ y ⊗ z."""

    def r12(a, b, c):
        res = apply_r(a, b)
        return res.left_out, res.right_out, c

    def r23(a, b, c):
        res = apply_r(b, c)
        return a, res.left_out, res.right_out

    return r12(*r23(*r12(x, y, z))) == r23(*r12(*r23(x, y, z)))
