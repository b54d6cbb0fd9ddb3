import random
from itertools import product

import pytest

from boxball import (
    SemiStandardTableau,
    enumerate_tableaux,
    insert_word,
    knuth_equivalent,
    rectify,
    restrict,
)
from boxball.insertion import _column_bump, _unbump
from conftest import T, knuth_neighbors


def all_small_tableaux(max_cells, n):
    shapes = {(): None}
    out = [SemiStandardTableau.empty(n)]
    # partitions with at most max_cells cells
    def partitions(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for m in range(1, max_cells + 1):
        for shape in partitions(m, m):
            out.extend(enumerate_tableaux(shape, n))
    return out


def added_cell(before, after):
    """1-based (row, column) of the one box ``after`` has beyond ``before``."""
    old = before.shape + (0,)
    r = next(r for r, m in enumerate(after.shape) if m != old[r])
    return r + 1, after.shape[r]


class TestInsertLetter:
    def test_into_empty(self):
        t = SemiStandardTableau.empty(5)
        out = insert_word(t, (5,))
        assert out == T("5", 5)
        assert added_cell(t, out) == (1, 1)

    def test_appends_without_bump(self):
        t = T("1", 3)
        out = insert_word(t, (1,))
        assert out == T("1 1", 3)
        assert added_cell(t, out) == (1, 2)

    def test_equal_entries_passed_over(self):
        # the bumped entry must be strictly larger
        t = T("1 2 2 3", 4)
        out = insert_word(t, (2,))
        assert out == T("1 2 2 2 / 3", 4)
        assert added_cell(t, out) == (2, 1)

    def test_worked_chain(self):
        t = insert_word(T("2/5", 6), (4, 4, 6, 2, 3, 5, 1, 2, 4))
        assert t == T("1 2 2 4 / 2 3 5 / 4 4 6 / 5", 6)

    def test_grows_one_cell_and_stays_valid(self):
        rng = random.Random(3)
        for t in all_small_tableaux(5, 4):
            a = rng.randint(1, 4)
            out = insert_word(t, (a,))
            assert out.size == t.size + 1
            SemiStandardTableau(out.rows, 4)  # revalidate
            r, c = added_cell(t, out)
            assert r == len(out.shape) or out.shape[r] < c  # a corner of out


class TestInsertWord:
    def test_empty_word_is_identity(self):
        t = T("1 2 / 3 4", 4)
        assert insert_word(t, ()) == t

    def test_reinsertion_equality(self):
        assert insert_word(T("1 2 3 / 2 4 5 / 4 5 6", 6), (4, 2)) == T(
            "1 2 2 4 / 2 3 5 / 4 4 6 / 5", 6)

    def test_vacuum_row_word_rectifies(self):
        assert insert_word(SemiStandardTableau.empty(2), (2, 2, 2, 1, 1, 1)) == T(
            "1 1 1 / 2 2 2", 2)


class TestUninsert:
    """``_unbump`` on row lists reverses one row insertion."""

    @staticmethod
    def unbump(t, r):
        rows = [list(row) for row in t.rows]
        a = _unbump(rows, r - 1)
        return SemiStandardTableau([row for row in rows if row], t.n), a

    def test_displayed_reversal(self):
        t, a = self.unbump(T("1 2 2 4 / 2 3 5 / 4 4 6 / 5", 6), 4)
        assert t == T("1 2 3 4 / 2 4 5 / 4 5 6", 6)
        assert a == 2

    def test_first_row_corner(self):
        t, a = self.unbump(T("1 2 3 4 / 2 4 5 / 4 5 6", 6), 1)
        assert t == T("1 2 3 / 2 4 5 / 4 5 6", 6)
        assert a == 4

    def test_round_trip_exhaustive(self):
        for t in all_small_tableaux(6, 4):
            for a in range(1, 5):
                forward = insert_word(t, (a,))
                back, letter = self.unbump(forward, added_cell(t, forward)[0])
                assert back == t
                assert letter == a


class TestRectify:
    def test_empty(self):
        assert rectify(()) == SemiStandardTableau.empty(1)

    def test_seeded_vs_prefixed(self):
        # inserting w into t equals rectifying row(t) followed by w
        t = T("2/5", 6)
        w = (4, 4, 6, 2, 3, 5, 1, 2, 4)
        assert insert_word(t, w) == rectify(t.row_word() + w, 6)

    def test_constant_on_knuth_classes(self):
        rng = random.Random(19)
        for _ in range(60):
            w = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 8)))
            v = w
            for _ in range(5):
                moves = knuth_neighbors(v)
                if not moves:
                    break
                v = rng.choice(moves)
            assert rectify(w, 4) == rectify(v, 4)


class TestColumnInsertion:
    """Column-inserting w right to left into t gives rectify(w + t.row_word()),
    and reports the box each letter added."""

    @staticmethod
    def column_insert(t, word):
        rows = [list(row) for row in t.rows]
        landed = _column_bump(rows, reversed(word))
        assert len(landed) == len(word)
        # Insert letter by letter: each returned cell is the one box that
        # letter added to the shape.
        step = [list(row) for row in t.rows]
        for a, (r, c) in zip(reversed(word), landed):
            shape = [len(row) for row in step] + [0]
            shape[r] += 1
            _column_bump(step, (a,))
            assert [len(row) for row in step] == [m for m in shape if m] and shape[r] == c + 1
        assert step == rows
        return tuple(map(tuple, rows))

    def test_exhaustive_small(self):
        checked = 0
        for n in (2, 3, 4):
            for t in all_small_tableaux(5, n):
                for length in range(4):
                    for w in product(range(1, n + 1), repeat=length):
                        assert self.column_insert(t, w) == rectify(w + t.row_word(), n).rows, (t, w)
                        checked += 1
        assert checked == 43595

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_long_runs_of_equal_entries(self, n):
        # Rows hundreds of boxes long with few distinct letters: every
        # inserted letter meets long runs of its own value.
        rng = random.Random(n)
        for _ in range(40):
            t = rectify([rng.randint(1, n) for _ in range(rng.randint(1, 900))], n)
            w = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 12)))
            assert self.column_insert(t, w) == rectify(w + t.row_word(), n).rows


class TestKnuthEquivalence:
    def test_reflexive(self):
        w = (3, 1, 2, 2)
        assert knuth_equivalent(w, w)

    def test_simple_inequivalent(self):
        assert not knuth_equivalent((1, 2), (2, 1))

    def test_restriction_preserves_equivalence(self):
        rng = random.Random(23)
        for _ in range(40):
            w = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 8)))
            v = w
            for _ in range(rng.randint(1, 4)):
                moves = knuth_neighbors(v)
                if not moves:
                    break
                v = rng.choice(moves)
            assert knuth_equivalent(w, v)
            for cut in range(1, 6):
                assert knuth_equivalent(restrict(w, 1, cut), restrict(v, 1, cut))

