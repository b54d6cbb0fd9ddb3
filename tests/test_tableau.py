import random
import sys
from collections import Counter
from itertools import product

import pytest

from boxball import SemiStandardTableau, TableauError, enumerate_tableaux, restrict
from conftest import T


class TestValidation:
    def test_valid_rectangle(self):
        t = T("1 2 4 / 2 3 5 / 4 4 6", 6)
        assert t.shape == (3, 3, 3)
        assert t.is_rectangular
        assert t.size == 9

    def test_partition_shape_allowed(self):
        t = T("1 2 2 4 / 2 3 5 / 4 4 6 / 5", 6)
        assert t.shape == (4, 3, 3, 1)
        assert not t.is_rectangular

    def test_row_must_weakly_increase(self):
        with pytest.raises(TableauError):
            T("2 1", 4)

    def test_column_must_strictly_increase(self):
        with pytest.raises(TableauError):
            T("1 2 / 1 3", 4)

    def test_letters_bounded(self):
        with pytest.raises(TableauError):
            T("1 5", 4)
        with pytest.raises(TableauError):
            SemiStandardTableau([(0,)], 4)

    def test_public_constructor_normalises_entries(self):
        t = SemiStandardTableau([["1", 2.0], [True + 1, "3"]], 3)
        assert t.rows == ((1, 2), (2, 3))
        assert all(type(a) is int for row in t.rows for a in row)
        with pytest.raises(ValueError):
            SemiStandardTableau([["1", "x"]], 3)
        with pytest.raises(TableauError):
            SemiStandardTableau([["3", "1"]], 3)
        with pytest.raises(TableauError):
            SemiStandardTableau([["1", "4"]], 3)

    def test_shape_must_be_partition(self):
        with pytest.raises(TableauError):
            SemiStandardTableau([(1,), (2, 3)], 4)

    def test_equality_ignores_alphabet_bound(self):
        assert T("1 2", 4) == T("1 2", 7)
        assert hash(T("1 2", 4)) == hash(T("1 2", 7))

    def test_column_constructor(self):
        t = SemiStandardTableau.column([1, 3, 5], 5)
        assert t.shape == (1, 1, 1)
        assert t.to_column_text() == "1/3/5"
        with pytest.raises(TableauError):
            SemiStandardTableau.column([3, 3], 5)

    def test_from_columns(self):
        t = SemiStandardTableau.from_columns([(1, 2), (1, 3), (2, 3)], 3)
        assert t == T("1 1 2 / 2 3 3", 3)
        with pytest.raises(TableauError):
            SemiStandardTableau.from_columns([(1, 2), (1,)], 3)


class TestTextForm:
    @pytest.mark.parametrize("text", ["1 2 4 / 2 3 5 / 4 4 6", "5", "1 1 2 / 2 3 3"])
    def test_row_form_round_trip(self, text):
        t = T(text, 6)
        assert t.to_text() == text
        assert T(t.to_text(), 6) == t

    def test_column_form_round_trip(self):
        t = SemiStandardTableau.column([2, 5], 6)
        assert t.to_column_text() == "2/5"
        assert T("2/5", 6) == t
        # the spaced row form denotes the same value
        assert T("2 / 5", 6) == t

    def test_column_text_rejects_wide(self):
        with pytest.raises(TableauError):
            T("1 2", 4).to_column_text()


class TestRowWord:
    def test_worked_example(self):
        assert T("1 2 4 / 2 3 5 / 4 4 6", 6).row_word() == (4, 4, 6, 2, 3, 5, 1, 2, 4)

    def test_single_box(self):
        assert T("1", 1).row_word() == (1,)

    def test_vacuum_rectangle(self):
        assert T("1 1 1 / 2 2 2", 2).row_word() == (2, 2, 2, 1, 1, 1)

    def test_injective_per_shape(self):
        # distinct tableaux of one shape have distinct row words
        for shape in [(1,), (2,), (3,), (2, 1), (2, 2), (3, 2), (3, 3), (2, 2, 2), (3, 3, 3), (1, 1, 1)]:
            seen = {}
            for t in enumerate_tableaux(shape, 4):
                w = t.row_word()
                assert w not in seen
                seen[w] = t


class TestContent:
    def test_direct_count(self):
        assert T("2/5", 6).content() == Counter({2: 1, 5: 1})

    def test_word_matches_tableau(self):
        for t in enumerate_tableaux((2, 2), 3):
            assert Counter(t.row_word()) == t.content()

    def test_r_example_sides_agree(self):
        left = T("1 2 4 / 2 3 5 / 4 4 6", 6).content() + T("2/5", 6).content()
        right = T("2/4", 6).content() + T("1 2 3 / 2 4 5 / 4 5 6", 6).content()
        assert left == right


class TestRestrict:
    def test_by_hand(self):
        assert restrict((4, 4, 6, 2, 3, 5, 1, 2, 4), 1, 2) == (2, 1, 2)

    def test_identity_range(self):
        w = (3, 1, 4, 1, 5)
        assert restrict(w, 1, 5) == w

    def test_empty(self):
        assert restrict((), 1, 3) == ()

    def test_bad_range(self):
        with pytest.raises(ValueError):
            restrict((1,), 2, 1)

    def test_splits_content(self):
        rng = random.Random(7)
        for _ in range(50):
            w = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 12)))
            a = rng.randint(1, 6)
            b = rng.randint(a, 6)
            inside = Counter(restrict(w, a, b))
            outside = Counter(x for x in w if not a <= x <= b)
            assert inside + outside == Counter(w)


class TestEnumeration:
    def test_counts_against_filter(self):
        # brute-force filter over all fillings agrees with the enumerator
        for shape, n in [((2, 2), 4), ((2, 1), 3), ((3,), 4), ((1, 1, 1), 4)]:
            cells = sum(shape)
            valid = 0
            for filling in product(range(1, n + 1), repeat=cells):
                rows = []
                pos = 0
                for length in shape:
                    rows.append(filling[pos:pos + length])
                    pos += length
                try:
                    SemiStandardTableau(rows, n)
                    valid += 1
                except TableauError:
                    pass
            assert len(list(enumerate_tableaux(shape, n))) == valid

    def test_weight_constraint(self):
        tabs = list(enumerate_tableaux((2, 2), 4, weight={1: 1, 2: 2, 3: 1}))
        assert all(t.content() == Counter({2: 2, 1: 1, 3: 1}) for t in tabs)
        assert tabs == [T("1 2 / 2 3", 4)]


class TestEnumerationOrder:
    @staticmethod
    def brute_force(shape, n, weight=None):
        # every filling in itertools.product order (row-major, first cell
        # most significant) that forms a tableau with the given content
        out = []
        for filling in product(range(1, n + 1), repeat=sum(shape)):
            if weight is not None and Counter(filling) != Counter(weight):
                continue
            rows = [filling[sum(shape[:r]):sum(shape[:r + 1])] for r in range(len(shape))]
            try:
                out.append(SemiStandardTableau(rows, n))
            except TableauError:
                pass
        return out

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)])
    def test_lexicographic_in_row_major_cells(self, shape):
        for n in range(1, 5):
            assert list(enumerate_tableaux(shape, n)) == self.brute_force(shape, n)

    def test_lexicographic_with_weight(self):
        for shape, n, weight in [
            ((2, 2), 4, {1: 1, 2: 2, 3: 1}),
            ((3, 1), 3, {1: 2, 2: 1, 3: 1}),
            ((2, 1, 1), 4, {1: 1, 2: 1, 3: 1, 4: 1}),
            ((3, 2), 3, {1: 2, 2: 2, 3: 1}),
        ]:
            expected = self.brute_force(shape, n, weight)
            assert expected
            assert list(enumerate_tableaux(shape, n, weight)) == expected

    def test_long_row_under_low_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            tabs = list(enumerate_tableaux((1100,), 2))
        finally:
            sys.setrecursionlimit(limit)
        assert len(tabs) == 1101
        assert tabs[0].rows == ((1,) * 1100,)
        assert tabs[-1].rows == ((2,) * 1100,)


class TestMutationFuzz:
    def test_single_cell_corruption_is_caught(self):
        rng = random.Random(11)
        caught = 0
        trials = 0
        for t in enumerate_tableaux((3, 2), 4):
            rows = [list(r) for r in t.rows]
            r = rng.randrange(len(rows))
            c = rng.randrange(len(rows[r]))
            old = rows[r][c]
            delta = rng.choice([-2, -1, 1, 2])
            rows[r][c] = old + delta
            trials += 1
            try:
                SemiStandardTableau(rows, 4)
            except TableauError:
                caught += 1
        # most random bumps break an inequality or the alphabet bound
        assert caught / trials > 0.5
