import random
from fractions import Fraction
import pytest

from boxball import (
    BbsState,
    CrystalTensor,
    SemiStandardTableau,
    Soliton,
    SolitonConfig,
    SolitonDetectionError,
    VacuumAlphabet,
    apply_r,
    detect,
    encode,
    energy_e,
    energy_h,
    evolve,
    highest_weight_two_soliton,
    parse_state,
    phase_adjust,
    predict_final,
    predict_two_body,
    run_experiment,
    scattering_yang_baxter,
)
from boxball.bbs import vacuum_column
from boxball.sampling import random_soliton, random_two_soliton_config
from conftest import T, THREE_SOLITON_TEXT, cols


class TestDetect:
    def test_single_run(self):
        p = parse_state("n=5 k=3 offset=1\n2/3/5 2/3/4 1/2/4\n")
        cfg = detect(p)
        assert len(cfg.solitons) == 1
        s = cfg.solitons[0]
        assert (s.phase, s.length) == (1, 3)
        assert s.internal == T("1 2 2 / 2 3 3 / 4 4 5", 5)

    def test_three_soliton_state(self):
        cfg = detect(parse_state(THREE_SOLITON_TEXT))
        assert [(s.phase, s.length) for s in cfg.solitons] == [(0, 3), (6, 2), (11, 1)]
        assert cfg.solitons[0].internal == T("2 2 2 / 3 3 3 / 4 4 5", 6)
        assert cfg.solitons[1].internal == T("1 2 / 2 3 / 4 6", 6)
        assert cfg.solitons[2].internal == T("1 / 3 / 5", 6)
        assert cfg.separations == (3, 3)
        assert cfg.well_separated

    def test_vacuum(self):
        cfg = detect(BbsState(4, 2, 0, []))
        assert cfg.solitons == ()

    def test_mid_collision_rejected(self):
        # entries rise to the right inside the run
        p = parse_state("n=6 k=3 offset=9\n2/3/5 2/3/4 . 2/3/6 2/3/4 1/4/5\n")
        with pytest.raises(SolitonDetectionError):
            detect(p)

    def test_column_with_high_middle_letter_rejected(self):
        p = parse_state("n=6 k=3 offset=0\n2/4/6\n")
        with pytest.raises(SolitonDetectionError):
            detect(p)

    def test_build_round_trip(self):
        rng = random.Random(71)
        for _ in range(40):
            cfg = random_two_soliton_config(rng)
            assert detect(cfg.build_state()) == cfg


class TestEncode:
    def test_reverses_columns(self):
        run = cols("2/3/5", "2/3/4", "1/2/4", n=5)
        s = encode(run, phase=4)
        assert s.internal == T("1 2 2 / 2 3 3 / 4 4 5", 5)
        assert s.split_low == T("1 2 2 / 2 3 3", 5)
        assert s.split_high == T("4 4 5", 5)
        assert s.phase == 4

    def test_single_column(self):
        s = encode(cols("1/3/5", n=5))
        assert s.internal == T("1 / 3 / 5", 5)

    def test_decode_inverts(self):
        run = tuple(cols("2/3/5", "2/3/4", "1/2/4", n=5))
        assert encode(run).decode() == run

    def test_rejects_increasing_run(self):
        with pytest.raises(SolitonDetectionError):
            encode(cols("1/2/4", "2/3/4", n=5))
        with pytest.raises(ValueError, match="at least one column"):
            encode(())
        with pytest.raises(SolitonDetectionError, match="bottom letter must exceed 2"):
            encode([vacuum_column(2, 4)])

    @pytest.mark.parametrize("internal, message", [
        ("4 4 / 5", "nonempty rectangle"),
        ("1 3 / 4 5", "row 1 letters must be at most 2"),
        ("1 2 / 2 5", "bottom-row letters must exceed 2"),
    ])
    def test_soliton_rejects_bad_internal(self, internal, message):
        with pytest.raises(ValueError, match=message):
            Soliton(0, T(internal, 5))

    def test_config_rejects_overlap_and_mismatch(self):
        a, b = Soliton(0, T("4 4", 5)), Soliton(1, T("4", 5))
        with pytest.raises(ValueError, match="overlap"):
            SolitonConfig(5, 1, (a, b))
        with pytest.raises(ValueError, match="must match"):
            SolitonConfig(5, 2, (a,))
        with pytest.raises(ValueError, match="must match"):
            SolitonConfig(6, 1, (a,))

    def test_capacity_one_split(self):
        s = encode(cols("3", "2", n=3))
        assert s.split_low == SemiStandardTableau.empty(3)
        assert s.split_high == T("2 3", 3)


class TestVacuumAlphabet:
    def test_column_values(self):
        va = VacuumAlphabet(3, 5)
        assert va.zero() == T("1/2/3", 5)
        assert va.one() == T("1/2/4", 5)
        assert va.two("+") == T("1/3/4", 5)
        assert va.two("-") == T("1/2/5", 5)
        assert va.three() == T("1/3/5", 5)
        assert va.four() == T("1/4/5", 5)
        with pytest.raises(ValueError, match="sign"):
            VacuumAlphabet(2, 4).two("x")

    def test_capacity_one_degenerates(self):
        va = VacuumAlphabet(1, 3)
        assert va.zero() == T("1", 3)
        assert va.one() == T("2", 3)
        assert va.two("-") == T("3", 3)

    def test_xi_blocks(self):
        va = VacuumAlphabet(2, 4)
        assert va.xi(0, 3) == T("1 1 1 / 2 2 2", 4)
        assert va.xi(2, 3) == T("1 1 1 / 2 3 3", 4)
        with pytest.raises(ValueError):
            va.xi(4, 3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_carrier_relations(self, k):
        # loading, saturation, unloading, and rest, for every fill level
        n = k + 2
        va = VacuumAlphabet(k, n)
        for l in (1, 2, 3):
            for i in range(l + 1):
                if i < l:
                    assert apply_r(va.xi(i, l), va.one())[:2] == (va.zero(), va.xi(i + 1, l))
                if i > 0:
                    assert apply_r(va.xi(i, l), va.zero())[:2] == (va.one(), va.xi(i - 1, l))
            assert apply_r(va.xi(l, l), va.one())[:2] == (va.one(), va.xi(l, l))
            assert apply_r(va.xi(0, l), va.zero())[:2] == (va.zero(), va.xi(0, l))


class TestPredictTwoBody:
    def test_first_collision(self):
        s1 = Soliton(0, T("2 2 2 / 3 3 3 / 4 4 5", 6))
        s2 = Soliton(6, T("1 2 / 2 3 / 4 6", 6))
        out2, out1, delta = predict_two_body(s1, s2)
        assert delta == 3
        assert (out2.phase, out2.internal) == (3, T("2 2 / 3 3 / 4 5", 6))
        assert (out1.phase, out1.internal) == (3, T("1 2 2 / 2 3 3 / 4 4 6", 6))

    def test_zero_shift_collision(self):
        s1 = Soliton(3, T("1 2 2 / 2 3 3 / 4 4 6", 6))
        s2 = Soliton(11, T("1 / 3 / 5", 6))
        out2, out1, delta = predict_two_body(s1, s2)
        assert delta == 0
        assert (out2.phase, out2.internal) == (11, T("1 / 2 / 4", 6))
        assert (out1.phase, out1.internal) == (3, T("1 2 2 / 3 3 3 / 4 5 6", 6))

    def test_split_r_differs_from_full_r(self):
        # the component-wise exchange is not the full R on the stacked pair
        n = 7
        u = T("1 1 1 1 2 / 2 2 3 3 3 / 4 4 4 5 5", n)
        v = T("1 1 2 / 2 3 3 / 5 6 7", n)
        low = apply_r(T("1 1 1 1 2 / 2 2 3 3 3", n), T("1 1 2 / 2 3 3", n))
        high = apply_r(T("4 4 4 5 5", n), T("5 6 7", n))
        assert low.left_out == T("1 1 2 / 2 3 3", n)
        assert low.right_out == T("1 1 1 1 2 / 2 2 3 3 3", n)
        assert high.left_out == T("4 5 5", n)
        assert high.right_out == T("4 4 5 6 7", n)
        full = apply_r(u, v)
        split_left = SemiStandardTableau(low.left_out.rows + high.left_out.rows, n)
        split_right = SemiStandardTableau(low.right_out.rows + high.right_out.rows, n)
        assert full.left_out == T("1 1 2 / 3 3 3 / 4 5 5", n)
        assert full.right_out == T("1 1 1 1 2 / 2 2 2 4 4 / 3 3 5 6 7", n)
        assert (split_left, split_right) != (full.left_out, full.right_out)

    def test_rejects_equal_or_shorter_left(self):
        s = Soliton(0, T("4 4", 5))
        t = Soliton(5, T("4 4", 5))
        with pytest.raises(ValueError):
            predict_two_body(s, t)
        with pytest.raises(ValueError, match="share k"):
            predict_two_body(Soliton(0, T("1 1 1 / 4 4 4", 5)), t)


class TestScatteringYangBaxter:
    def test_three_soliton_state(self):
        cfg = detect(parse_state(THREE_SOLITON_TEXT))
        s1, s2, s3 = cfg.solitons
        assert scattering_yang_baxter(s1, s2, s3)

    def test_displayed_chain(self):
        cfg = detect(parse_state(THREE_SOLITON_TEXT))
        s1, s2, s3 = cfg.solitons
        # first bracketing: (12), (23), (12)
        b, a, d1 = predict_two_body(s1, s2)
        assert (b.phase, a.phase, d1) == (3, 3, 3)
        c, a2, d2 = predict_two_body(a, s3)
        assert (c.phase, c.internal) == (11, T("1 / 2 / 4", 6))
        assert (a2.phase, a2.internal) == (3, T("1 2 2 / 3 3 3 / 4 5 6", 6))
        top, mid, d3 = predict_two_body(b, c)
        assert (top.phase, top.internal) == (9, T("2 / 3 / 5", 6))
        assert (mid.phase, mid.internal) == (5, T("1 2 / 2 3 / 4 4", 6))
        # second bracketing: (23), (12), (23)
        c1, b1, e1 = predict_two_body(s2, s3)
        assert (c1.phase, c1.internal) == (11, T("1 / 2 / 4", 6))
        assert (b1.phase, b1.internal) == (6, T("1 2 / 3 3 / 5 6", 6))
        c2, a3, e2 = predict_two_body(s1, c1)
        assert (c2.phase, c2.internal) == (9, T("2 / 3 / 5", 6))
        assert (a3.phase, a3.internal) == (2, T("1 2 2 / 2 3 3 / 4 4 4", 6))
        b2, a4, e3 = predict_two_body(a3, b1)
        assert (b2.phase, b2.internal) == (5, T("1 2 / 2 3 / 4 4", 6))
        assert (a4.phase, a4.internal) == (3, T("1 2 2 / 3 3 3 / 4 5 6", 6))

    def test_minimal_internals(self):
        for k, n in [(1, 3), (2, 4), (3, 5)]:
            va = VacuumAlphabet(k, n)
            one = tuple(row[0] for row in va.one().rows)
            sols = []
            pos = 0
            for d in (4, 3, 1):
                sols.append(Soliton(pos, SemiStandardTableau.from_columns([one] * d, n)))
                pos += d + 4
            assert scattering_yang_baxter(*sols)

    def test_random_triples(self):
        rng = random.Random(81)
        for _ in range(25):
            k = rng.randint(1, 3)
            n = rng.randint(k + 2, 6)
            d1 = rng.randint(3, 4)
            d2 = rng.randint(2, d1 - 1)
            d3 = rng.randint(1, d2 - 1)
            pos = 0
            sols = []
            for d in (d1, d2, d3):
                sols.append(random_soliton(rng, k, d, n, pos))
                pos += d + d + 2
            assert scattering_yang_baxter(*sols)


class TestHighestWeightFamily:
    def test_block_case(self):
        p = highest_weight_two_soliton(4, 2, 0, 3, 5, 0, 2, 2, "+")
        cfg = detect(p)
        assert [s.length for s in cfg.solitons] == [3, 2]
        va = VacuumAlphabet(2, 4)
        assert all(col == va.one() for col in cfg.solitons[0].decode())
        assert all(col == va.one() for col in cfg.solitons[1].decode())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            highest_weight_two_soliton(5, 2, 0, 2, 5, 1, 3, 3, "+")
        with pytest.raises(ValueError):
            highest_weight_two_soliton(5, 2, 0, 3, 2, 0, 0, 2, "+")
        with pytest.raises(ValueError, match="alpha"):
            highest_weight_two_soliton(5, 2, 0, 3, 5, 2, 1, 2, "+")

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_killed_by_classical_raising(self, sign):
        n, k = 5, 2
        for d2 in (1, 2):
            for alpha in range(d2 + 1):
                for beta in range(d2 - alpha + 1):
                    p = highest_weight_two_soliton(n, k, 0, 3, 5, alpha, beta, d2, sign)
                    window = range(p.offset - 1, p.offset + p.support + 1)
                    tensor = CrystalTensor([p.column_at(i) for i in window], p.n)
                    assert tensor.is_highest(i for i in range(1, n) if i != k)

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_closed_form_scattering(self, sign):
        # R output and energies of both split components, and the total shift
        n, k = 6, 3
        mp = {"+": 1, "-": -1}[sign]
        for d1, d2 in [(2, 1), (3, 1), (3, 2), (4, 3)]:
            for alpha in range(d2 + 1):
                for beta in range(d2 - alpha + 1):
                    p = highest_weight_two_soliton(n, k, 0, d1, d1 + d2 + 1, alpha, beta, d2, sign)
                    s1, s2 = detect(p).solitons
                    half = Fraction(1, 2)
                    expect_high = (-half * (d2 - beta) - half * alpha) - mp * (
                        -half * (d2 - beta) + half * alpha)
                    expect_low = (-half * (d2 - beta) - half * alpha) + mp * (
                        -half * (d2 - beta) + half * alpha)
                    h_high = energy_h(s1.split_high, s2.split_high)
                    h_low = energy_h(s1.split_low, s2.split_low)
                    assert Fraction(h_high) == expect_high
                    assert Fraction(h_low) == expect_low
                    assert expect_high.denominator == 1 and expect_low.denominator == 1
                    out2, out1, delta = predict_two_body(s1, s2)
                    assert delta == d2 - alpha + beta
                    # outgoing internals keep the letter pattern, lengths swap
                    va = VacuumAlphabet(k, n)
                    symbols = [va.one()] * (d1 - d2 + beta) + \
                        [va.two(sign)] * (d2 - alpha - beta) + [va.three()] * alpha
                    expected_u = SemiStandardTableau.from_columns(
                        [tuple(r[0] for r in c.rows) for c in symbols], n)
                    expected_v = SemiStandardTableau.from_columns(
                        [tuple(r[0] for r in va.one().rows)] * d2, n)
                    assert out1.internal == expected_u
                    assert out2.internal == expected_v


class TestSpeedLaw:
    def test_random_single_solitons(self):
        rng = random.Random(91)
        for _ in range(30):
            k = rng.randint(1, 3)
            n = rng.randint(k + 2, 6)
            d = rng.randint(1, 4)
            c = rng.randint(0, 3)
            sol = random_soliton(rng, k, d, n, c)
            state = SolitonConfig(n, k, (sol,)).build_state()
            l = rng.randint(1, 4)
            for t in (1, 2, 3):
                state, _ = evolve(state, l)
                cfg = detect(state)
                assert len(cfg.solitons) == 1
                got = cfg.solitons[0]
                assert got.phase == c + min(d, l) * t
                assert got.internal == sol.internal

    def test_single_soliton_energy_criterion(self):
        # E_1 = 1 exactly characterizes one-soliton states (small exhaustive)
        from itertools import combinations, product as iproduct

        for k, n in [(1, 3), (2, 3)]:
            column_pool = [
                SemiStandardTableau.column(c, n)
                for c in combinations(range(1, n + 1), k)
            ]
            for support in range(1, 4):
                for cols_choice in iproduct(column_pool, repeat=support):
                    p = BbsState(n, k, 0, cols_choice)
                    if p.support != support:
                        continue  # canonicalization trimmed vacuum ends
                    try:
                        cfg = detect(p)
                        is_single = len(cfg.solitons) == 1
                    except SolitonDetectionError:
                        is_single = False
                    assert is_single == (energy_e(p, 1) == 1)


class TestExperiments:
    def test_three_soliton_run(self):
        cfg = detect(parse_state(THREE_SOLITON_TEXT))
        res = run_experiment(cfg, 3, steps=6)
        assert res.steps_run == 6
        assert [d is None for d in res.detections] == [
            False, False, False, True, True, False, False]
        assert res.observed is not None
        assert [(s.phase, s.length) for s in res.observed] == [(9, 1), (5, 2), (3, 3)]
        assert res.all_match

    def test_auto_stop_two_solitons(self):
        rng = random.Random(101)
        for _ in range(25):
            cfg = random_two_soliton_config(rng)
            l = rng.randint(cfg.solitons[1].length + 1, 5)
            res = run_experiment(cfg, l)
            assert res.observed is not None
            assert res.all_match, (cfg, l)

    def test_two_solitons_match_at_every_width(self):
        # A soliton of length d moves min(d, l) sites a step: at widths up to
        # the shorter length the two never meet, and the prediction keeps them.
        rng = random.Random(103)
        widths = met = 0
        for _ in range(60):
            cfg = random_two_soliton_config(rng, 6)
            d1, d2 = (s.length for s in cfg.solitons)
            for l in range(1, d1 + 2):
                res = run_experiment(cfg, l)
                assert res.all_match, (cfg, l)
                widths += 1
                met += l > d2
        assert met < widths

    def test_three_solitons_with_partly_tied_speeds(self):
        # At width l the speeds min(d, l) of three solitons can tie in part.
        # Detection cannot split two equal-speed solitons that end adjacent,
        # so there the evolved state is compared with the predicted
        # configuration instead.  Where the pairwise rule moves two
        # equal-length solitons onto each other it fails; both counts are
        # pinned, so that a fix or a new failure shows.
        rng = random.Random(107)
        partly_tied = merged = overlapping = 0
        for _ in range(300):
            k = rng.randint(1, 3)
            n = rng.randint(k + 2, min(k + 4, 6))
            lengths = [rng.randint(1, 5) for _ in range(3)]
            solitons, phase = [], rng.randint(0, 2)
            for d, right in zip(lengths, lengths[1:] + [0]):
                solitons.append(random_soliton(rng, k, d, n, phase))
                phase += d + right + rng.randint(0, 2)
            cfg = SolitonConfig(n, k, tuple(solitons))
            for l in range(1, max(lengths) + 2):
                speeds = [min(d, l) for d in lengths]
                if len(set(speeds)) != 2:
                    continue
                partly_tied += 1
                res = run_experiment(cfg, l)
                if res.all_match:
                    continue
                t = res.steps_run
                try:
                    final = SolitonConfig(n, k, tuple(
                        Soliton(s.phase + min(s.length, l) * t, s.internal) for s in res.predicted))
                except ValueError:
                    overlapping += 1
                    continue
                assert res.observed is None and final.build_state() == res.states[-1], (cfg, l)
                merged += 1
        assert partly_tied > 600
        assert (merged, overlapping) == (2, 4)

    def test_single_soliton_trivial(self):
        sol = Soliton(2, T("1 2 / 2 3 / 4 4", 6))
        cfg = SolitonConfig(6, 3, (sol,))
        res = run_experiment(cfg, 3)
        assert res.predicted == (sol,)
        assert res.observed == (sol,)
        assert res.all_match

    def test_phase_adjust(self):
        cfg = SolitonConfig(6, 3, (Soliton(8, T("1 / 3 / 5", 6)),))
        (adj,) = phase_adjust(cfg, 3, 4)
        assert adj.phase == 8 - 1 * 4


class TestPredictFinal:
    def test_sorted_input_unchanged(self):
        a = Soliton(0, T("4", 5))
        b = Soliton(3, T("4 4", 5))
        cfg = SolitonConfig(5, 1, (a, b))
        assert predict_final(cfg, 2) == (a, b)

    def test_matches_yang_baxter_route(self):
        cfg = detect(parse_state(THREE_SOLITON_TEXT))
        out = predict_final(cfg, 3)
        assert [(s.phase, s.length) for s in out] == [(9, 1), (5, 2), (3, 3)]
