import random
from itertools import product

import pytest

import boxball.bbs as bbs_mod
from boxball import (
    BbsState,
    CarrierError,
    CarrierTrace,
    RResult,
    SemiStandardTableau,
    apply_r,
    conserved_tableaux,
    energy_e,
    enumerate_tableaux,
    evolve,
    knuth_equivalent,
    parse_state,
    parse_trajectory,
    rectify,
    restrict,
    soliton_spectrum,
    state_to_tensor,
    window_word,
)
from boxball.bbs import (
    Carrier,
    StateParseError,
    format_columns,
    format_state,
    format_trajectory,
    vacuum_block,
    vacuum_column,
)
from boxball.cli import main
from boxball.sampling import random_column, random_state, random_two_soliton_config
from boxball.soliton import run_experiment
from conftest import (
    SPECTRUM_TEXTS,
    THREE_SOLITON_TEXT,
    THREE_SOLITON_TRAJECTORY,
    T,
)


class TestStateBasics:
    def test_canonicalization(self):
        vac = vacuum_column(2, 4)
        ball = SemiStandardTableau.column([2, 4], 4)
        p = BbsState(4, 2, 5, [vac, vac, ball, vac, ball, vac])
        assert p.offset == 7
        assert p.columns == (ball, vac, ball)
        assert p == BbsState(4, 2, 7, [ball, vac, ball])

    def test_vacuum_state_normalizes_offset(self):
        assert BbsState(4, 2, 9, []) == BbsState(4, 2, 0, [])
        assert BbsState(4, 2, 3, [vacuum_column(2, 4)]).is_vacuum()

    def test_column_shape_checked(self):
        with pytest.raises(ValueError):
            BbsState(4, 2, 0, [T("1 2", 4)])
        with pytest.raises(ValueError):
            BbsState(4, 2, 0, [SemiStandardTableau.column([1, 2], 5)])
        # A column equal as a tableau to one already checked, but over
        # another alphabet, is checked too.
        good = SemiStandardTableau.column([1, 3], 4)
        with pytest.raises(ValueError, match="alphabet"):
            BbsState(4, 2, 0, [good, good, SemiStandardTableau.column([1, 3], 5)])

    def test_k_range_checked(self):
        with pytest.raises(ValueError):
            BbsState(2, 2, 0, [])

    def test_column_at(self):
        p = parse_state("n=3 k=1 offset=2\n3 . 2\n")
        assert p.column_at(2) == T("3", 3)
        assert p.column_at(3) == vacuum_column(1, 3)
        assert p.column_at(100) == vacuum_column(1, 3)


class TestEvolveGoldens:
    def test_capacity_one_soliton(self, intro_k1_state):
        q, trace = evolve(intro_k1_state, 3)
        assert [c.to_text() for c in trace.carriers] == [
            "1 1 1", "1 1 3", "1 3 3", "2 3 3", "1 2 3", "1 1 2", "1 1 1"]
        assert [c.to_column_text() for c in trace.outputs] == ["1", "1", "1", "3", "3", "2"]
        assert q.offset == 3
        assert [c.to_column_text() for c in q.columns] == ["3", "3", "2"]

    def test_two_row_soliton(self, intro_k2_state):
        q, trace = evolve(intro_k2_state, 3)
        assert [c.to_text() for c in trace.carriers] == [
            "1 1 1 / 2 2 2", "1 1 2 / 2 2 4", "1 2 2 / 2 4 4",
            "1 2 2 / 3 4 4", "1 1 2 / 2 3 4", "1 1 1 / 2 2 3", "1 1 1 / 2 2 2"]
        assert [c.to_column_text() for c in trace.outputs] == [
            "1/2", "1/2", "1/2", "2/4", "2/4", "1/3"]
        assert q.offset == 3
        assert [c.to_column_text() for c in q.columns] == ["2/4", "2/4", "1/3"]

    def test_vacuum_fixed(self):
        p = BbsState(4, 2, 0, [])
        q, trace = evolve(p, 3)
        assert q == p
        assert trace.outputs == ()
        assert trace.carriers == (vacuum_block(2, 3, 4),)

    def test_three_soliton_trajectory(self, three_soliton_state):
        state = three_soliton_state
        for t, (offset, columns) in enumerate(THREE_SOLITON_TRAJECTORY):
            assert state.offset == offset, f"step {t}"
            assert format_columns(state) == columns, f"step {t}"
            if t < 6:
                state, _ = evolve(state, 3)

    def test_trace_endpoints_are_rest(self):
        rng = random.Random(31)
        for _ in range(25):
            k = rng.randint(1, 3)
            n = rng.randint(k + 1, 5)
            p = random_state(rng, n, k, 8)
            l = rng.randint(1, 4)
            _, trace = evolve(p, l)
            rest = vacuum_block(k, l, n)
            assert not trace.carriers or (trace.carriers[0] == rest and trace.carriers[-1] == rest)


def reference_evolve(p, l):
    """The defining sweep: R evaluated afresh at every site."""
    rest = vacuum_block(p.k, l, p.n)
    carrier = rest
    carriers, outputs, energies = [rest], [], []
    site = 0
    while site < len(p.columns) or carrier != rest:
        assert site <= len(p.columns) * (p.k + 1) + l + 8
        out, carrier, h = apply_r(carrier, p.column_at(p.offset + site))
        carriers.append(carrier)
        outputs.append(out)
        energies.append(h)
        site += 1
    trace = CarrierTrace(tuple(carriers), tuple(outputs), tuple(energies))
    return BbsState(p.n, p.k, p.offset, outputs), trace


def reference_pairs(p, l):
    """The next state and the distinct (carrier, column) pairs of the defining sweep."""
    q, trace = reference_evolve(p, l)
    pairs = {
        (trace.carriers[site].rows, p.column_at(p.offset + site).rows)
        for site in range(len(trace.outputs))
    }
    return q, pairs


def assert_one_evaluation_per_distinct_pair(calls, p, l, steps):
    """``calls``, the R evaluations of a ``steps``-step run from ``p``, are the
    union of the per-step pairs, each evaluated once; returns the final state."""
    per_step = []
    for _ in range(steps):
        p, pairs = reference_pairs(p, l)
        per_step.append(pairs)
    assert len(calls) == len(set(calls))
    assert set(calls) == set().union(*per_step)
    # Pairs recur from step to step, so one table per run saves evaluations.
    assert len(calls) < sum(map(len, per_step))
    return p


@pytest.fixture
def r_calls(monkeypatch):
    """Every (carrier rows, column rows) the sweeps hand to R, in order."""
    calls = []

    def counting_r(x, y):
        calls.append((x.rows, y.rows))
        return apply_r(x, y)

    monkeypatch.setattr(bbs_mod, "apply_r", counting_r)
    return calls


def assert_matches_reference(p, l):
    q, trace = evolve(p, l)
    q_ref, trace_ref = reference_evolve(p, l)
    assert q == q_ref
    assert trace == trace_ref
    # Equality ignores the alphabet bound, so check it separately.
    assert all(t.n == p.n for t in trace.carriers + trace.outputs)


class TestTransducer:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_per_site_sweep(self, n):
        rng = random.Random(1000 + n)
        for k in range(1, n):
            for l in range(1, 6):
                for _ in range(3):
                    assert_matches_reference(random_state(rng, n, k, 15), l)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_one_carrier_across_steps_matches_per_site_sweeps(self, n):
        rng = random.Random(2000 + n)
        for k in range(1, n):
            for l in range(1, 6):
                carrier = Carrier(n, k, l)
                p = random_state(rng, n, k, 12)
                for _ in range(4):
                    q, trace = carrier.sweep(p)
                    q_ref, trace_ref = reference_evolve(p, l)
                    assert q == q_ref
                    assert trace.carriers == trace_ref.carriers
                    assert trace.outputs == trace_ref.outputs
                    assert trace.site_energies == trace_ref.site_energies
                    assert all(t.n == n for t in trace.carriers + trace.outputs)
                    p = q

    def test_one_r_evaluation_per_distinct_pair(self, r_calls):
        rng = random.Random(7)
        p = BbsState(5, 2, 0, [vacuum_column(2, 5)] * 3 + list(random_state(rng, 5, 2, 40).columns) * 3)
        _, trace = reference_evolve(p, 3)
        _, pairs = reference_pairs(p, 3)
        assert evolve(p, 3)[1] == trace
        assert len(r_calls) == len(set(r_calls))
        assert set(r_calls) == pairs
        assert len(pairs) < len(trace.outputs)

    def test_one_r_evaluation_per_distinct_pair_per_experiment(self, r_calls):
        cfg = random_two_soliton_config(random.Random(11))
        l = cfg.solitons[0].length
        res = run_experiment(cfg, l, steps=6)
        final = assert_one_evaluation_per_distinct_pair(r_calls, cfg.build_state(), l, 6)
        assert res.states[-1] == final

    def test_one_r_evaluation_per_distinct_pair_per_cli_evolve(self, r_calls, tmp_path, capsys):
        path = tmp_path / "state.txt"
        path.write_text(THREE_SOLITON_TEXT)
        assert main(["evolve", "--input", str(path), "--l", "3", "--steps", "4"]) == 0
        final = assert_one_evaluation_per_distinct_pair(r_calls, parse_state(THREE_SOLITON_TEXT), 3, 4)
        assert parse_trajectory(capsys.readouterr().out)[-1] == final

    @pytest.mark.parametrize("invariant", ["energy", "commute"])
    def test_one_r_evaluation_per_distinct_pair_per_cli_check(self, monkeypatch, capsys, invariant):
        # The trials draw n from 2..5, and tableau equality ignores n, so a
        # pair is keyed by n as well.
        calls = []

        def counting_r(x, y):
            calls.append((x.n, x.rows, y.rows))
            return apply_r(x, y)

        monkeypatch.setattr(bbs_mod, "apply_r", counting_r)
        assert main(["check", "--invariant", invariant, "--trials", "40", "--seed", "3"]) == 0
        assert capsys.readouterr().out == f"check invariant={invariant} seed=3: PASS 40/40\n"
        assert calls and len(calls) == len(set(calls))

    def test_equal_fillings_over_different_alphabets(self):
        for text in ("n=3 k=1 offset=0\n3 3 2\n", "n=4 k=1 offset=0\n3 3 2\n",
                     "n=3 k=1 offset=0\n3 3 2\n"):
            p = parse_state(text)
            for l in (1, 3):
                assert_matches_reference(p, l)

    def test_carrier_refuses_another_alphabet(self):
        # Equal fillings over n = 3 and n = 4 compare equal as tableaux, so
        # one table must never serve both.
        for l in (1, 3):
            carrier = Carrier(3, 1, l)
            carrier.sweep(parse_state("n=3 k=1 offset=0\n3 3 2\n"))
            with pytest.raises(ValueError, match="n=4"):
                carrier.sweep(parse_state("n=4 k=1 offset=0\n3 3 2\n"))

    def test_carrier_error_at_the_stated_bound(self, monkeypatch):
        # An R whose carrier never comes back to rest trips the guard once
        # the sweep has visited support + l sites: 3 + 1 here.
        stuck = SemiStandardTableau.column([3], 3)
        monkeypatch.setattr(bbs_mod, "apply_r", lambda x, y: RResult(y, stuck, 0))
        p = parse_state("n=3 k=1 offset=0\n3 3 2\n")
        with pytest.raises(CarrierError, match="within 4 sites"):
            evolve(p, 1)


class TestSweepBound:
    # Fed vacuum, a carrier in B^{k,l} is back at rest within l sites; this
    # is what bounds a sweep at support + l sites.
    @pytest.mark.parametrize("n", range(2, 6))
    def test_vacuum_brings_every_carrier_to_rest_within_l_sites(self, n):
        for k in range(1, n):
            vac = vacuum_column(k, n)
            for l in range(1, 4):
                rest = vacuum_block(k, l, n)
                slowest = 0
                for c in enumerate_tableaux((l,) * k, n):
                    sites = 0
                    while c != rest:
                        assert sites < l, (k, l, c.rows)
                        c = apply_r(c, vac).right_out
                        sites += 1
                    slowest = max(slowest, sites)
                assert slowest == l, (k, l)

    def test_dense_sweeps_end_within_l_sites_past_the_support(self):
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(2, 10)
            k = rng.randint(1, n - 1)
            l = rng.randint(1, 6)
            p = random_state(rng, n, k, 30)
            _, trace = evolve(p, l)
            assert len(trace.outputs) <= p.support + l


class TestEnergy:
    def test_single_soliton_has_unit_base_energy(self):
        for text in ["n=3 k=1 offset=0\n3 3 2\n",
                     "n=5 k=3 offset=0\n2/3/5 2/3/4 1/2/4\n",
                     "n=4 k=2 offset=0\n1/3\n"]:
            assert energy_e(parse_state(text), 1) == 1

    def test_vacuum_energy_zero(self):
        p = BbsState(4, 2, 0, [])
        for l in (1, 2, 3):
            assert energy_e(p, l) == 0

    def test_composite_state_levels(self):
        p = parse_state(SPECTRUM_TEXTS["b"])
        assert energy_e(p, 1) == 2
        for l in (2, 3, 4):
            assert energy_e(p, l) == 4


def reference_spectrum(p):
    """The spectrum from E_1, E_2, ... swept until the sequence stops rising."""
    if p.is_vacuum():
        return {}
    energies = [0]
    for l in range(1, len(p.columns) + 2):
        energies.append(energy_e(p, l))
        if l >= 2 and energies[-1] == energies[-2]:
            break
    else:
        raise AssertionError("energy sequence failed to stabilize")
    counts = {d: 2 * energies[d] - energies[d - 1] - energies[d + 1] for d in range(1, len(energies) - 1)}
    assert min(counts.values()) >= 0
    return {d: c for d, c in counts.items() if c}


def balls(p):
    """The number of letters above k in the state."""
    return sum(a > p.k for col in p.columns for (a,) in col.rows)


def sparse_state(rng, n, k, max_support):
    """Seeded columns, each the vacuum column with probability one half."""
    vac = vacuum_column(k, n)
    cols = [vac if rng.random() < 0.5 else random_column(rng, k, n) for _ in range(rng.randint(1, max_support))]
    return BbsState(n, k, 0, cols)


def assert_spectrum_matches_reference(p):
    spectrum = soliton_spectrum(p)
    assert spectrum == reference_spectrum(p), format_state(p)
    assert sum(d * count for d, count in spectrum.items()) == balls(p)


# Two solitons, of lengths 5 and 1: E_l = min(l, 5) + min(l, 1).
LONG_AND_SHORT_TEXT = "n=3 k=1 offset=0\n3 3 3 3 3 . . 2\n"


class TestSpectrum:
    @pytest.mark.parametrize("key,expected", [
        ("a", {1: 2}), ("b", {2: 2}), ("c", {2: 3}),
    ])
    def test_worked_states(self, key, expected):
        assert soliton_spectrum(parse_state(SPECTRUM_TEXTS[key])) == expected

    def test_vacuum_empty(self):
        assert soliton_spectrum(BbsState(4, 2, 0, [])) == {}

    @pytest.mark.parametrize("n", range(2, 5))
    def test_equals_full_sweeps_on_all_small_states(self, n):
        for k in range(1, n):
            vac = vacuum_column(k, n)
            cols = list(enumerate_tableaux((1,) * k, n))
            support = 1
            while len(cols) ** support <= 400:
                for word in product(cols, repeat=support):
                    if word[0] != vac and word[-1] != vac:
                        assert_spectrum_matches_reference(BbsState(n, k, 0, word))
                support += 1

    def test_equals_full_sweeps_on_seeded_states(self):
        rng = random.Random(71)
        for n in range(2, 11):
            for k in range(1, n):
                for max_support in (6, 14, 30):
                    assert_spectrum_matches_reference(sparse_state(rng, n, k, max_support))

    @pytest.mark.slow
    def test_equals_full_sweeps_on_many_seeded_states(self):
        rng = random.Random(72)
        for i in range(4000):
            n = rng.randint(2, 10)
            k = rng.randint(1, min(n - 1, 6))
            draw = sparse_state if i % 2 else random_state
            assert_spectrum_matches_reference(draw(rng, n, k, 60))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_local_energy_is_at_most_the_balls_of_the_column(self, n):
        # soliton_spectrum's derivation: -H depends only on the carrier's
        # first column x and the column c, and is at most b, c's letters
        # above k, with equality when x is 1..k; so E_l <= T, and E_l = T
        # once l >= T.
        for k in range(1, n):
            vac = tuple(range(1, k + 1))
            cols = list(enumerate_tableaux((1,) * k, n))
            for l in (1, 2, 3):
                for x in enumerate_tableaux((l,) * k, n):
                    first = tuple(row[0] for row in x.rows)
                    for y in cols:
                        c = [a for (a,) in y.rows]
                        b = sum(a > k for a in c)
                        h = apply_r(x, y).energy
                        assert -h == max(0, *(sum(v < c[m] for v in first) - m for m in range(k)))
                        assert -h == b if first == vac else 0 <= -h <= b

    def test_energy_reaches_the_ball_count_at_width_t(self):
        rng = random.Random(73)
        for n in range(2, 9):
            for k in range(1, n):
                p = sparse_state(rng, n, k, 20)
                t = balls(p)
                assert energy_e(p, t) == t if t else p.is_vacuum()

    def test_fewer_sweeps_with_a_unique_longest_soliton(self, monkeypatch):
        p = parse_state(LONG_AND_SHORT_TEXT)
        full = reference_spectrum(p)
        assert full == {1: 1, 5: 1}
        widths = []
        monkeypatch.setattr(bbs_mod, "energy_e", lambda q, l: widths.append(l) or energy_e(q, l))
        assert soliton_spectrum(p) == full
        # E_1 = 2 and E_2 = 3: past l = 2 only the longest soliton is left,
        # where the full loop sweeps on to E_6 = E_5.
        assert widths == [1, 2]

    def test_single_soliton_takes_one_sweep(self, monkeypatch):
        widths = []
        monkeypatch.setattr(bbs_mod, "energy_e", lambda q, l: widths.append(l) or energy_e(q, l))
        assert soliton_spectrum(parse_state("n=5 k=3 offset=0\n2/3/5 2/3/4 1/2/4\n")) == {3: 1}
        assert widths == [1]

    @pytest.mark.parametrize("patched,error,message", [
        # Flat at E_2 = 2, below the six letters above k.
        (lambda e, l: min(e, 2), RuntimeError, "stopped rising at E_2 = 2"),
        (lambda e, l: e + 5, RuntimeError, "E_1 = 7 exceeds the 6 letters above k"),
        # E = 0, 2, 5, 6: N_1 = 4 - 0 - 5.
        (lambda e, l: (2, 5, 6)[l - 1], ValueError, "negative soliton count N_1 = -1"),
    ])
    def test_inconsistent_energies_raise(self, monkeypatch, patched, error, message):
        monkeypatch.setattr(bbs_mod, "energy_e", lambda q, l: patched(energy_e(q, l), l))
        with pytest.raises(error, match=message):
            soliton_spectrum(parse_state(LONG_AND_SHORT_TEXT))

    def test_invariant_under_evolution(self):
        rng = random.Random(41)
        for _ in range(15):
            k = rng.randint(1, 2)
            n = rng.randint(k + 1, 4)
            p = random_state(rng, n, k, 6)
            before = soliton_spectrum(p)
            q, _ = evolve(p, rng.randint(1, 3))
            assert soliton_spectrum(q) == before


class TestConservation:
    def test_evolutions_commute(self):
        rng = random.Random(51)
        for _ in range(30):
            k = rng.randint(1, 3)
            n = rng.randint(k + 1, 5)
            p = random_state(rng, n, k, 10)
            l, lp = rng.randint(1, 4), rng.randint(1, 4)
            a = evolve(evolve(p, l)[0], lp)[0]
            b = evolve(evolve(p, lp)[0], l)[0]
            assert a == b

    def test_energy_conserved(self):
        rng = random.Random(52)
        for _ in range(30):
            k = rng.randint(1, 3)
            n = rng.randint(k + 1, 5)
            p = random_state(rng, n, k, 10)
            l, lp = rng.randint(1, 4), rng.randint(1, 4)
            assert energy_e(evolve(p, lp)[0], l) == energy_e(p, l)

    def test_evolution_commutes_with_operators(self):
        rng = random.Random(53)
        trials = 0
        while trials < 30:
            k = rng.randint(1, 3)
            n = rng.randint(k + 2, 5)
            p = random_state(rng, n, k, 8)
            l = rng.randint(1, 3)
            i = rng.choice([j for j in range(1, n) if j != k])
            lowering = rng.random() < 0.5

            def act(state):
                tensor = state_to_tensor(state)
                moved = tensor.apply_f(i) if lowering else tensor.apply_e(i)
                if moved is None:
                    return None
                return BbsState(moved.n, state.k, state.offset, moved.factors)

            q = act(p)
            if q is None:
                continue
            trials += 1
            left = evolve(q, l)[0]
            right = act(evolve(p, l)[0])
            assert right is not None
            assert left == right


class TestConservedTableaux:
    def test_vacuum_high_empty(self):
        p = BbsState(4, 2, 0, [])
        low, high = conserved_tableaux(p, 2)
        assert high == SemiStandardTableau.empty(4)
        # window (2l columns) plus carrier block: six vacuum columns in all
        assert low == T("1 1 1 1 1 1 / 2 2 2 2 2 2", 4)

    def test_worked_high_component(self):
        # letters above k, read off the reversed columns: 5 2 | 5 3 | 4 2
        # restricts to (5, 5, 3, 4), which rectifies to the tableau below
        p = parse_state(SPECTRUM_TEXTS["b"])
        _, high = conserved_tableaux(p, 2)
        assert high == T("3 4 / 5 5", 5)

    def test_high_component_conserved(self):
        rng = random.Random(61)
        for _ in range(20):
            k = rng.randint(1, 3)
            n = rng.randint(k + 1, 5)
            p = random_state(rng, n, k, 8)
            l = rng.randint(1, 3)
            q, _ = evolve(p, l)
            assert conserved_tableaux(p, l)[1] == conserved_tableaux(q, l)[1]

    def test_cross_step_identity(self, three_soliton_state):
        p = three_soliton_state
        l = 3
        q, _ = evolve(p, l)
        lo = min(p.offset, q.offset) - 1
        hi = max(p.offset + len(p.columns), q.offset + len(q.columns)) + 1
        window = (lo, hi)
        low_t, high_t = conserved_tableaux(p, l, "right", window)
        low_t1, high_t1 = conserved_tableaux(q, l, "left", window)
        assert low_t == low_t1
        assert high_t == high_t1

    def test_cross_step_identity_random(self):
        rng = random.Random(62)
        for _ in range(15):
            k = rng.randint(1, 2)
            n = rng.randint(k + 1, 4)
            p = random_state(rng, n, k, 6)
            l = rng.randint(1, 3)
            q, _ = evolve(p, l)
            lo = min(p.offset, q.offset)
            hi = max(p.offset + len(p.columns), q.offset + len(q.columns))
            cw = vacuum_block(k, l, n).row_word()
            wt = window_word(p, lo, hi) + cw
            wt1 = cw + window_word(q, lo, hi)
            assert knuth_equivalent(wt, wt1)
            for cut in (k, n):
                assert rectify(restrict(wt, 1, cut), n) == rectify(restrict(wt1, 1, cut), n)


class TestTextFormat:
    def test_round_trip(self):
        p = parse_state("n=6 k=3 offset=4\n2/3/5 . 1/2/4\n")
        text = format_state(p)
        assert text == "n=6 k=3 offset=4\n2/3/5 . 1/2/4\n"
        assert parse_state(text) == p
        assert format_state(parse_state(text)) == text

    def test_non_canonical_input_normalizes(self):
        p = parse_state("n=6 k=3 offset=2\n. . 2/3/5 .\n")
        assert p.offset == 4
        assert format_state(p) == "n=6 k=3 offset=4\n2/3/5\n"

    def test_vacuum_state(self):
        p = parse_state("n=4 k=2 offset=0\n\n")
        assert p.is_vacuum()
        assert format_state(p) == "n=4 k=2 offset=0\n\n"

    def test_base_offset_padding(self):
        p = parse_state("n=3 k=1 offset=3\n3 3 2\n")
        assert format_columns(p, 0) == ". . . 3 3 2"
        with pytest.raises(ValueError):
            format_columns(p, 5)

    def test_shared_and_equal_columns_render_alike(self):
        ball = SemiStandardTableau.column([3], 3)
        columns = [ball, SemiStandardTableau.column([1], 3), ball, SemiStandardTableau.column([3], 3)]
        assert format_columns(BbsState(3, 1, 0, columns)) == "3 . 3 3"

    def test_trajectory_round_trip(self, three_soliton_state):
        states = [three_soliton_state]
        for _ in range(3):
            states.append(evolve(states[-1], 3)[0])
        text = format_trajectory(states)
        assert parse_trajectory(text) == states
        assert format_trajectory(parse_trajectory(text)) == text

    def test_header_errors(self):
        with pytest.raises(StateParseError) as err:
            parse_state("n=4 k=2\n\n")
        assert err.value.line == 1
        for parse in (parse_state, parse_trajectory):
            with pytest.raises(StateParseError, match="empty input") as err:
                parse("")
            assert (err.value.line, err.value.column) == (1, 1)

    def test_column_errors_carry_position(self):
        with pytest.raises(StateParseError) as err:
            parse_state("n=4 k=2 offset=0\n1/2 4/x\n")
        assert (err.value.line, err.value.column) == (2, 5)
        with pytest.raises(StateParseError) as err:
            parse_state("n=4 k=2 offset=0\n1/2/3\n")
        assert (err.value.line, err.value.column) == (2, 1)
        with pytest.raises(StateParseError) as err:
            parse_state("n=4 k=2 offset=0\n2/1\n")
        assert err.value.line == 2

    def test_header_needs_k_below_n(self):
        for header in ("n=3 k=3 offset=0", "n=3 k=4 offset=0", "n=3 k=0 offset=0"):
            with pytest.raises(StateParseError) as err:
                parse_state(header + "\n\n")
            assert err.value.line == 1

    def test_equal_tokens_share_one_tableau(self):
        p = parse_state("n=4 k=2 offset=0\n2/4 . 1/3 2/4 . 2/4\n")
        assert p.columns[0] is p.columns[3] is p.columns[5]
        assert p.columns[1] is vacuum_column(2, 4)
        with pytest.raises(StateParseError) as err:
            parse_state("n=4 k=2 offset=0\n2/4 2/4 2/5 2/4 2/5\n")
        assert (err.value.line, err.value.column) == (2, 9)

    def test_single_state_enforced(self):
        with pytest.raises(StateParseError):
            parse_state("n=4 k=2 offset=0\n1/3\n1/3\n")
