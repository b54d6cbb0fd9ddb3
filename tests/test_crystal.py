import random
from collections import Counter

import pytest

from boxball import (
    CrystalTensor,
    SemiStandardTableau,
    enumerate_tableaux,
    sp,
    unsplit,
)
from boxball.bbs import vacuum_column
from conftest import T, cols


class TestSp:
    def test_splits_columns_reversed(self):
        ct = sp(T("1 1 2 / 2 3 3", 3))
        assert ct.factors == tuple(cols("2/3", "1/3", "1/2", n=3))

    def test_single_column(self):
        t = SemiStandardTableau.column([1, 3], 4)
        assert sp(t).factors == (t,)

    def test_vacuum_block(self):
        ct = sp(T("1 1 1 / 2 2 2", 4))
        assert all(f == vacuum_column(2, 4) for f in ct.factors)
        assert len(ct.factors) == 3

    def test_rejects_non_rectangular(self):
        with pytest.raises(ValueError):
            sp(T("1 2 / 3", 4))
        with pytest.raises(ValueError, match="rectangular"):
            CrystalTensor([T("1 2 / 3", 4)])
        with pytest.raises(ValueError, match="explicit alphabet bound"):
            CrystalTensor(())
        with pytest.raises(ValueError, match="share the alphabet bound"):
            CrystalTensor([T("1", 3), T("1", 4)])

    def test_unsplit_inverts(self):
        for t in enumerate_tableaux((2, 2), 4):
            assert unsplit(sp(t)) == t
        with pytest.raises(ValueError, match="single-column"):
            unsplit(CrystalTensor([T("1 2", 3)]))


class TestSignature:
    def test_worked_tensor(self):
        ct = CrystalTensor(cols("1/2", "2/3", "4/6", n=6))
        assert ct.signature(2) == "0++-00"

    def test_vacuum_column_cancels_internally(self):
        for k, n in [(2, 4), (3, 5)]:
            ct = CrystalTensor([vacuum_column(k, n)])
            for i in range(1, k):
                sig = ct.signature(i)
                assert sig.count("+") == 1 and sig.count("-") == 1
                assert sig.index("+") + 1 == sig.index("-")

    def test_all_zero_when_letters_absent(self):
        ct = CrystalTensor(cols("1/2", n=6))
        assert set(ct.signature(4)) == {"0"}
        assert ct.apply_f(4) is None and ct.apply_e(4) is None

    def test_index_zero_rejected(self):
        ct = CrystalTensor(cols("1/2", n=4))
        with pytest.raises(ValueError):
            ct.signature(0)
        with pytest.raises(ValueError):
            ct.apply_f(0)

    def test_index_out_of_range(self):
        ct = CrystalTensor(cols("1/2", n=4))
        with pytest.raises(ValueError):
            ct.apply_e(4)


class TestOperators:
    def test_worked_lowering(self):
        ct = CrystalTensor(cols("1/2", "2/3", "4/6", n=6))
        assert ct.apply_f(2) == CrystalTensor(cols("1/3", "2/3", "4/6", n=6))

    def test_worked_raising(self):
        ct = CrystalTensor(cols("1/3", "2/3", "4/6", n=6))
        assert ct.apply_e(2) == CrystalTensor(cols("1/2", "2/3", "4/6", n=6))

    def test_vacuum_killed_below_k(self):
        for k, n in [(2, 4), (3, 5)]:
            ct = CrystalTensor([vacuum_column(k, n)])
            for i in range(1, k):
                assert ct.apply_f(i) is None
                assert ct.apply_e(i) is None

    def test_vacuum_power_killed_off_k(self):
        k, n = 2, 4
        ct = CrystalTensor([vacuum_column(k, n)] * 4)
        for i in range(1, n):
            if i != k:
                assert ct.apply_e(i) is None

    def test_mutually_inverse(self):
        rng = random.Random(5)
        pool = list(enumerate_tableaux((1, 1), 4)) + list(enumerate_tableaux((2,), 4))
        for _ in range(80):
            ct = CrystalTensor([rng.choice(pool) for _ in range(rng.randint(1, 3))], 4)
            i = rng.randint(1, 3)
            down = ct.apply_f(i)
            if down is not None:
                assert down.apply_e(i) == ct
            up = ct.apply_e(i)
            if up is not None:
                assert up.apply_f(i) == ct

    def test_content_shift(self):
        rng = random.Random(9)
        pool = list(enumerate_tableaux((2, 2), 4))
        for _ in range(60):
            ct = CrystalTensor([rng.choice(pool) for _ in range(rng.randint(1, 3))], 4)
            i = rng.randint(1, 3)
            down = ct.apply_f(i)
            if down is None:
                continue
            before = Counter(ct.letters())
            after = Counter(down.letters())
            assert after - before == Counter({i + 1: 1})
            assert before - after == Counter({i: 1})

    def test_rectangular_action_stays_rectangular(self):
        # exhaustive over small rectangles: the induced action on one factor
        # lands back in the same set (or dies)
        for k in (1, 2):
            for l in (1, 2):
                for t in enumerate_tableaux((l,) * k, 4):
                    for i in range(1, 4):
                        ct = CrystalTensor((t,))
                        for moved in (ct.apply_f(i), ct.apply_e(i)):
                            if moved is not None:
                                out = moved.factors[0]
                                assert out.shape == t.shape
                                SemiStandardTableau(out.rows, 4)


class TestReductionConfluence:
    @staticmethod
    def _random_cancellation(sig, rng):
        """Cancel any adjacent +- pair (zeros transparent), in random order."""
        symbols = list(sig)
        while True:
            pairs = []
            live = [idx for idx, s in enumerate(symbols) if s != "0"]
            for a, b in zip(live, live[1:]):
                if symbols[a] == "+" and symbols[b] == "-":
                    pairs.append((a, b))
            if not pairs:
                break
            a, b = rng.choice(pairs)
            symbols[a] = symbols[b] = "0"
        minus = [i for i, s in enumerate(symbols) if s == "-"]
        plus = [i for i, s in enumerate(symbols) if s == "+"]
        return minus, plus

    def test_matches_stack_reduction(self):
        rng = random.Random(13)
        for _ in range(200):
            sig = "".join(rng.choice("+-0") for _ in range(rng.randint(0, 12)))
            minus, plus = self._random_cancellation(sig, rng)
            # reference single-pass stack reduction
            stack, unmatched = [], []
            for idx, s in enumerate(sig):
                if s == "+":
                    stack.append(idx)
                elif s == "-":
                    if stack:
                        stack.pop()
                    else:
                        unmatched.append(idx)
            assert (minus, plus) == (unmatched, stack)


class TestHighest:
    def test_vacuum_is_highest(self):
        ct = CrystalTensor([vacuum_column(3, 5)] * 3)
        assert ct.is_highest(i for i in range(1, 5) if i != 3)

    def test_block_soliton_state_is_highest(self):
        k, n = 2, 4
        zero = vacuum_column(k, n)
        one = SemiStandardTableau.column([1, 3], n)
        ct = CrystalTensor([zero] * 2 + [one] * 3 + [zero] * 2)
        assert ct.is_highest(i for i in range(1, n) if i != k)

    def test_generic_soliton_state_is_not(self):
        n = 5
        ct = CrystalTensor(cols("1/2/3", "2/3/5", "2/3/4", "1/2/4", "1/2/3", n=n))
        assert not ct.is_highest(i for i in range(1, n) if i != 3)
