import random
import sys
from itertools import product

import pytest

from boxball import (
    CrystalTensor,
    RMatrixError,
    RResult,
    SemiStandardTableau,
    TableauError,
    apply_r,
    energy_h,
    enumerate_tableaux,
    insertion_product,
    oracle_r,
    yang_baxter_holds,
)
from boxball import rmatrix
from boxball.bbs import BbsState, Carrier, vacuum_block, vacuum_column
from boxball.insertion import _column_bump
from boxball.sampling import random_column
from conftest import T


def small_rectangles(n, kmax=2, lmax=2):
    for k in range(1, min(kmax, n - 1) + 1):
        for l in range(1, lmax + 1):
            yield from enumerate_tableaux((l,) * k, n)


def r_on_tensor(ct):
    res = apply_r(ct.factors[0], ct.factors[1])
    return CrystalTensor((res.left_out, res.right_out), ct.n)


class TestWorkedExample:
    def test_values(self):
        res = apply_r(T("1 2 4 / 2 3 5 / 4 4 6", 6), T("2/5", 6))
        assert res.left_out == T("2/4", 6)
        assert res.right_out == T("1 2 3 / 2 4 5 / 4 5 6", 6)
        assert res.energy == -1

    def test_oracle_agrees(self):
        x, y = T("1 2 4 / 2 3 5 / 4 4 6", 6), T("2/5", 6)
        assert oracle_r(x, y) == apply_r(x, y)

    def test_insertion_identity_holds(self):
        x, y = T("1 2 4 / 2 3 5 / 4 4 6", 6), T("2/5", 6)
        res = apply_r(x, y)
        assert insertion_product(res.left_out, res.right_out) == insertion_product(x, y)


class TestVacuum:
    @pytest.mark.parametrize("k,l,n", [(1, 1, 2), (2, 3, 4), (3, 2, 5)])
    def test_carrier_passes_vacuum(self, k, l, n):
        res = apply_r(vacuum_block(k, l, n), vacuum_column(k, n))
        assert res.left_out == vacuum_column(k, n)
        assert res.right_out == vacuum_block(k, l, n)

    @pytest.mark.parametrize("k,l,n", [(1, 2, 3), (2, 3, 4), (3, 3, 5)])
    def test_normalization(self, k, l, n):
        assert energy_h(vacuum_block(k, l, n), vacuum_column(k, n)) == 0


class TestWideExample:
    def test_three_row_pair(self):
        x = T("1 1 1 1 2 / 2 2 3 3 3 / 4 4 4 5 5", 7)
        y = T("1 1 2 / 2 3 3 / 5 6 7", 7)
        res = apply_r(x, y)
        assert res.left_out == T("1 1 2 / 3 3 3 / 4 5 5", 7)
        assert res.right_out == T("1 1 1 1 2 / 2 2 2 4 4 / 3 3 5 6 7", 7)


class TestZeroRowConvention:
    def test_two_empties(self):
        e = SemiStandardTableau.empty(4)
        assert apply_r(e, e) == RResult(e, e, 0)
        assert energy_h(e, e) == 0

    def test_one_empty_swaps(self):
        e = SemiStandardTableau.empty(4)
        t = T("1 2 / 2 3", 4)
        assert apply_r(t, e) == RResult(e, t, 0)
        assert apply_r(e, t) == RResult(t, e, 0)


class TestAgainstOracle:
    def test_exhaustive_small(self):
        for n in (2, 3):
            for x in small_rectangles(n):
                for y in small_rectangles(n):
                    assert apply_r(x, y) == oracle_r(x, y)


class TestProperties:
    def test_involution(self):
        for n in (2, 3):
            for x in small_rectangles(n):
                for y in small_rectangles(n):
                    res = apply_r(x, y)
                    back = apply_r(res.left_out, res.right_out)
                    assert (back.left_out, back.right_out) == (x, y)
                    assert back.energy == res.energy

    def test_content_conserved(self):
        rng = random.Random(2)
        pool = list(small_rectangles(4))
        for _ in range(200):
            x, y = rng.choice(pool), rng.choice(pool)
            res = apply_r(x, y)
            assert res.left_out.content() + res.right_out.content() == x.content() + y.content()
            assert res.left_out.shape == y.shape
            assert res.right_out.shape == x.shape

    def test_equivariance(self):
        rng = random.Random(4)
        pool = list(small_rectangles(4))
        for _ in range(150):
            x, y = rng.choice(pool), rng.choice(pool)
            ct = CrystalTensor((x, y), 4)
            for i in range(1, 4):
                lowered = ct.apply_f(i)
                swapped = r_on_tensor(ct)
                if lowered is None:
                    assert swapped.apply_f(i) is None
                else:
                    assert r_on_tensor(lowered) == swapped.apply_f(i)
                raised = ct.apply_e(i)
                if raised is None:
                    assert swapped.apply_e(i) is None
                else:
                    assert r_on_tensor(raised) == swapped.apply_e(i)

    def test_energy_invariant_under_classical_operators(self):
        rng = random.Random(6)
        pool = list(small_rectangles(4))
        for _ in range(150):
            x, y = rng.choice(pool), rng.choice(pool)
            h = energy_h(x, y)
            ct = CrystalTensor((x, y), 4)
            for i in range(1, 4):
                moved = ct.apply_e(i)
                if moved is not None:
                    assert energy_h(*moved.factors) == h
                moved = ct.apply_f(i)
                if moved is not None:
                    assert energy_h(*moved.factors) == h

    def test_energy_nonpositive_same_height(self):
        for n in (3, 4):
            for k in range(1, min(2, n - 1) + 1):
                for l, lp in product((1, 2), repeat=2):
                    for x in enumerate_tableaux((l,) * k, n):
                        for y in enumerate_tableaux((lp,) * k, n):
                            assert energy_h(x, y) <= 0


class TestValidation:
    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            apply_r(T("1", 3), T("1", 4))

    def test_non_rectangular(self):
        with pytest.raises(ValueError):
            apply_r(T("1 1 / 2", 4), T("1", 4))

    @pytest.mark.parametrize("rows", [((0, 1),), ((1, 5),)])
    def test_inserted_letters_outside_the_alphabet(self, rows):
        with pytest.raises(TableauError, match="outside 1..3"):
            apply_r(T("1 2", 3), SemiStandardTableau(rows, 3, validate=False))


class TestYangBaxter:
    def test_vacuum_triple(self):
        assert yang_baxter_holds(
            vacuum_block(2, 3, 4), vacuum_block(2, 2, 4), vacuum_block(2, 1, 4))

    def test_random_triples(self):
        rng = random.Random(8)
        for _ in range(40):
            k = rng.randint(1, 2)
            n = rng.randint(k + 1, 4)
            x, y, z = (
                rng.choice(list(enumerate_tableaux((rng.randint(1, 3),) * k, n)))
                for _ in range(3)
            )
            assert yang_baxter_holds(x, y, z)

    def test_soliton_internal_triple(self):
        x = T("2 2 2 / 3 3 3 / 4 4 5", 6)
        y = T("1 2 / 2 3 / 4 6", 6)
        z = T("1 / 3 / 5", 6)
        assert yang_baxter_holds(x, y, z)

    def test_braid_check_is_not_vacuous(self):
        assert rmatrix.braid_holds(lambda u, v: (v, u), 1, 2, 3)
        assert not rmatrix.braid_holds(lambda u, v: (v, u + v), 1, 2, 3)


def random_rectangle(rng, k, l, n):
    # Sorting each row across l random columns keeps the columns strictly increasing.
    cols = [sorted(rng.sample(range(1, n + 1), k)) for _ in range(l)]
    return SemiStandardTableau([sorted(col[i] for col in cols) for i in range(k)], n)


def lr_fillings(k, l, kp, lp, shape):
    """Every filling of shape/(l^k) with content (lp^kp), rows weak, columns
    strict and the reverse reading word a lattice word, found by search."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length - 1, (l if r < k else 0) - 1, -1)]
    filling, counts, found = {}, [0] * (kp + 1), []

    def extend(i):
        if i == len(cells):
            found.append(dict(filling))
            return
        r, c = cells[i]
        for v in range(1, kp + 1):
            if v > filling.get((r, c + 1), kp) or v <= filling.get((r - 1, c), 0):
                continue
            if counts[v] == lp or (v > 1 and counts[v - 1] == counts[v]):
                continue
            filling[r, c] = v
            counts[v] += 1
            extend(i + 1)
            counts[v] -= 1
            del filling[r, c]

    extend(0)
    return found


class TestDeterministicPeel:
    def test_exhaustive_sweep_against_oracle(self):
        pairs = 0
        for n in (2, 3, 4):
            for x in small_rectangles(n, kmax=n - 1, lmax=2):
                for y in small_rectangles(n, kmax=n - 1, lmax=3):
                    assert apply_r(x, y) == oracle_r(x, y)
                    pairs += 1
        assert pairs == 8505

    def test_landing_cells_are_the_unique_lr_filling(self):
        # apply_r peels in the reverse of the order y's letters land in x.
        # Labelling each landing cell with the row of y its letter came from
        # must give the one LR filling of the product shape minus l^k.
        fillings = {}

        def check(x, y):
            rows = [list(row) for row in x.rows]
            landed = _column_bump(rows, reversed(y.row_word()))
            key = (x.num_rows, x.num_cols, y.num_rows, y.num_cols, tuple(map(len, rows)))
            if key not in fillings:
                fillings[key] = lr_fillings(*key)
            lp = y.num_cols
            assert fillings[key] == [{cell: 1 + i // lp for i, cell in enumerate(landed)}]

        pairs = 0
        for n in (2, 3, 4):
            for x in small_rectangles(n, kmax=n - 1, lmax=2):
                for y in small_rectangles(n, kmax=n - 1, lmax=3):
                    check(x, y)
                    pairs += 1
        assert (pairs, len(fillings)) == (8505, 136)
        rng = random.Random(29)
        rectangles = [(k, l) for k in range(1, 7) for l in range(1, 7) if k * l <= 6]
        for _ in range(3000):
            n = rng.randint(2, 8)
            (k, l), (kp, lp) = (rng.choice([(k, l) for k, l in rectangles if k < n]) for _ in range(2))
            check(random_rectangle(rng, k, l, n), random_rectangle(rng, kp, lp, n))

    @pytest.mark.parametrize("k,l,kp,lp,n", [
        (1, 1100, 1, 1000, 3), (3, 60, 3, 50, 6), (1, 1100, 1, 1, 3), (3, 60, 3, 1, 6),
    ])
    def test_wide_pairs_need_no_recursion(self, k, l, kp, lp, n):
        rng = random.Random(k * 1000 + l)
        x, y = random_rectangle(rng, k, l, n), random_rectangle(rng, kp, lp, n)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            res = apply_r(x, y)
            back = apply_r(res.left_out, res.right_out)
        finally:
            sys.setrecursionlimit(limit)
        assert (back.left_out, back.right_out, back.energy) == (x, y, res.energy)
        assert res.left_out.content() + res.right_out.content() == x.content() + y.content()
        assert (res.left_out.shape, res.right_out.shape) == (y.shape, x.shape)
        assert res.energy == energy_h(x, y)

    @pytest.mark.parametrize("swap,message", [(0, "not a corner"), (2, "do not form a tableau")])
    def test_wrong_order_raises_without_oracle(self, monkeypatch, swap, message):
        x = T("1 1 1 1 2 / 2 2 3 3 3 / 4 4 4 5 5", 7)
        y = T("1 1 2 / 2 3 3 / 5 6 7", 7)

        def swapped(rows, letters):
            order = _column_bump(rows, letters)[::-1]  # the peel order
            order[swap:swap + 2] = order[swap + 1], order[swap]
            return order[::-1]

        def no_oracle(*args):
            raise AssertionError("apply_r fell back to oracle_r")

        monkeypatch.setattr(rmatrix, "_column_bump", swapped)
        monkeypatch.setattr(rmatrix, "oracle_r", no_oracle)
        with pytest.raises(RMatrixError, match=message):
            apply_r(x, y)

    def test_peeled_rows_must_weakly_increase(self, monkeypatch):
        # With the first two cells of this peel swapped, every cell is still
        # a corner and re-inserting still gives the product back, but the
        # left output's row comes out as 1 3 2.
        x, y = T("1 2", 3), T("1 3 3", 3)

        def swapped(rows, letters):
            order = _column_bump(rows, letters)[::-1]  # the peel order
            order[0:2] = order[1], order[0]
            return order[::-1]

        monkeypatch.setattr(rmatrix, "_column_bump", swapped)
        with pytest.raises(RMatrixError, match=r"\[2, 3, 1\] do not form a tableau"):
            apply_r(x, y)


def assert_is_r(x, y, res):
    """What defines R on x ⊗ y: tableaux of the swapped shapes whose
    row-insertion product is that of x ⊗ y, with the energy of x ⊗ y."""
    for t in res.left_out, res.right_out:
        SemiStandardTableau(t.rows, x.n)  # raises unless a tableau over 1..n
    assert (res.left_out.shape, res.right_out.shape) == (y.shape, x.shape)
    assert insertion_product(res.left_out, res.right_out) == insertion_product(x, y)
    assert res.energy == energy_h(x, y)


class TestSweepSteps:
    """R on a k×l carrier and a k-box column, the step of every sweep, and
    on seeded pairs of other shapes, against what defines R."""

    def test_exhaustive_small(self):
        pairs = 0
        for n in range(2, 6):
            for k in range(1, n):
                columns = list(enumerate_tableaux((1,) * k, n))
                for l in range(1, 5):
                    for x in enumerate_tableaux((l,) * k, n):
                        for y in columns:
                            assert_is_r(x, y, apply_r(x, y))
                            pairs += 1
        assert pairs == 17620

    def test_seeded_pairs(self):
        rng = random.Random(71)
        for _ in range(1500):
            n = rng.randint(2, 10)
            k, kp = rng.randint(1, n - 1), rng.randint(1, n - 1)
            x = random_rectangle(rng, k, rng.randint(1, 12), n)
            y = random_rectangle(rng, kp, rng.choice([1, 1, rng.randint(1, 6)]), n)
            assert_is_r(x, y, apply_r(x, y))

    @pytest.mark.parametrize("n,k,l", [(4, 1, 60), (6, 2, 60), (8, 3, 60), (10, 5, 40), (10, 9, 20)])
    def test_wide_carriers_met_in_sweeps(self, n, k, l):
        # Carriers a sweep of a dense state meets, far from rest.
        rng = random.Random(n * 100 + k * 10 + l)
        carrier = Carrier(n, k, l)
        carrier.sweep(BbsState(n, k, 0, [random_column(rng, k, n) for _ in range(2 * l)]))
        assert len(carrier.carriers) > l
        for x in carrier.carriers:
            y = random_column(rng, k, n)
            assert_is_r(x, y, apply_r(x, y))

    @pytest.mark.parametrize("rows,column,message", [
        (((2, 1),), (3,), "re-inserting"),
        (((1,), (1,)), (1, 2), "do not form a tableau"),
        (((4, 4),), (1,), r"\[4\] do not form a tableau over 1..3"),
    ])
    def test_carrier_that_is_no_tableau_raises(self, rows, column, message):
        x = SemiStandardTableau(rows, 3, validate=False)
        with pytest.raises(RMatrixError, match=message):
            apply_r(x, SemiStandardTableau.column(column, 3))
