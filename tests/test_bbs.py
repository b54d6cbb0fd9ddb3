import gc
import operator
import random
import sys
import threading
import tracemalloc
from itertools import product
from math import comb

import pytest

import boxball.bbs as bbs_mod
import boxball.rmatrix as rmatrix
from boxball import (
    BbsState,
    CarrierError,
    CarrierTrace,
    CrystalTensor,
    RMatrixError,
    SemiStandardTableau,
    TableauError,
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
from boxball.rmatrix import _r_rows
from boxball.sampling import random_column, random_state, random_two_soliton_config
from boxball.soliton import run_experiment
from conftest import (
    SPECTRUM_TEXTS,
    THREE_SOLITON_TEXT,
    THREE_SOLITON_TRAJECTORY,
    T,
    swapped_landing,
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
    """The next state and the distinct (n, carrier rows, column rows) of the
    defining sweep."""
    q, trace = reference_evolve(p, l)
    pairs = {
        (p.n, trace.carriers[site].rows, p.column_at(p.offset + site).rows)
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
def r_calls(monkeypatch, cold_carriers):
    """Every (n, carrier rows, column rows) the sweeps hand to R, in order,
    from a cold carrier table.  Tableau equality ignores n, so a pair is
    keyed by n as well."""
    calls = []

    def counting_r(xrows, yrows, n):
        # A carrier hands R its rows as slices of its packed key.
        calls.append((n, tuple(map(tuple, xrows)), yrows))
        return _r_rows(xrows, yrows, n)

    monkeypatch.setattr(bbs_mod, "_r_rows", counting_r)
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
                emitted = {}
                for _ in range(4):
                    q, trace = carrier.sweep(p)
                    q_ref, trace_ref = reference_evolve(p, l)
                    assert q == q_ref
                    assert trace.carriers == trace_ref.carriers
                    assert trace.outputs == trace_ref.outputs
                    assert trace.site_energies == trace_ref.site_energies
                    assert all(t.n == n for t in trace.carriers + trace.outputs)
                    emitted.update((id(out), out) for out in trace.outputs)
                    p = q
                # Emitted columns are interned: one output object per filling.
                fillings = {out.rows for out in emitted.values()}
                assert len(emitted) == len(fillings) <= comb(n, k)

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
    def test_one_r_evaluation_per_distinct_pair_per_cli_check(self, r_calls, capsys, invariant):
        # The trials draw n from 2..5: the fixture keys each pair by n.
        assert main(["check", "--invariant", invariant, "--trials", "40", "--seed", "3"]) == 0
        assert capsys.readouterr().out == f"check invariant={invariant} seed=3: PASS 40/40\n"
        assert r_calls and len(r_calls) == len(set(r_calls))

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
        with pytest.raises(ValueError, match="width must be positive"):
            Carrier(3, 1, 0)

    def test_carrier_error_at_the_stated_bound(self, stuck_r):
        # An R whose carrier never comes back to rest trips the guard once
        # the sweep has visited support + l sites: 3 + 1 here.
        p = parse_state("n=3 k=1 offset=0\n3 3 2\n")
        with pytest.raises(CarrierError, match="within 4 sites"):
            evolve(p, 1)

    @pytest.mark.parametrize("swap,message", [(0, "do not form a tableau"), (1, "not a corner")])
    def test_sweep_keeps_every_peel_check_without_oracle(self, monkeypatch, three_soliton_state, swap, message):
        # The sweep's R runs the peel checks of apply_r, and a failed one
        # raises with no fallback.
        def no_oracle(*args):
            raise AssertionError("the sweep fell back to oracle_r")

        monkeypatch.setattr(rmatrix, "_column_bump", swapped_landing(swap))
        monkeypatch.setattr(rmatrix, "oracle_r", no_oracle)
        with pytest.raises(RMatrixError, match=message):
            Carrier(6, 3, 3).sweep(three_soliton_state)

    def test_sweep_checks_the_column_letters(self):
        # The state checks each column's shape and alphabet bound, not its
        # letters; the sweep's R checks them.
        p = BbsState(3, 1, 0, [SemiStandardTableau([(4,)], 3, validate=False)])
        with pytest.raises(TableauError, match="letter 4 outside 1..3"):
            Carrier(3, 1, 2).sweep(p)

    def test_equal_fillings_over_different_alphabets_share_no_tableau(self):
        # Equal fillings over n = 3 and n = 4 compare equal as tableaux; each
        # carrier must still emit and carry tableaux over its own alphabet.
        sides = []
        for n in (3, 4):
            carrier = Carrier(n, 1, 2)
            _, trace = carrier.sweep(parse_state(f"n={n} k=1 offset=0\n3 3 2\n"))
            assert all(t.n == n for t in trace.carriers + trace.outputs)
            objects = [*trace.carriers, *trace.outputs, *carrier._columns]
            # Kept alive with the ids, which a freed tableau could pass on.
            sides.append((trace, objects, {id(t) for t in objects}))
        (trace3, _, ids3), (trace4, _, ids4) = sides
        assert trace3 == trace4
        assert not ids3 & ids4


def registry_weight():
    return sum(c.weight for c in bbs_mod._registry.values())


def fresh_run(p, l, steps):
    """Trajectory bytes and E_l of ``p`` through private carriers."""
    carrier = Carrier(p.n, p.k, l)
    states = [p]
    for _ in range(steps):
        states.append(carrier.sweep(states[-1])[0])
    return format_trajectory(states), Carrier(p.n, p.k, l).energy(p)


def shared_run(p, l, steps):
    """The same through the shared carriers: ``evolve`` and ``energy_e``."""
    states = [p]
    for _ in range(steps):
        states.append(evolve(states[-1], l)[0])
    return format_trajectory(states), energy_e(p, l)


SHARED_CASES = [(n, k, l) for n in (3, 4, 6) for k in range(1, min(n, 4)) for l in (1, 2, 4)]


class TestSharedCarriers:
    """One carrier per (n, k, l) serves every sweep of the process, within a
    bound on the total weight."""

    def test_weight_stays_within_the_bound_after_every_fetch(self, monkeypatch, cold_carriers):
        bound = 44_000
        monkeypatch.setattr(bbs_mod, "CARRIER_WEIGHT_BOUND", bound)
        rng = random.Random(41)
        evictions = 0
        for _ in range(120):
            n, k, l = rng.choice(SHARED_CASES)
            before = set(bbs_mod._registry)
            c = bbs_mod.carrier(n, k, l)
            evictions += len(before - set(bbs_mod._registry) - {(n, k, l)})
            assert registry_weight() <= bound
            assert list(bbs_mod._registry)[-1:] in ([(n, k, l)], [])
            for _ in range(3):
                c.sweep(random_state(rng, n, k, 30))
        assert evictions > 10

    def test_running_total_equals_the_kept_weights(self, monkeypatch, cold_carriers):
        # Sweeps add what they grew by to the registry's total, and fetches
        # evict by it: after every fetch and every sweep it equals the kept
        # carriers' weights, and after every fetch it is within the bound.
        bound = 30_000
        monkeypatch.setattr(bbs_mod, "CARRIER_WEIGHT_BOUND", bound)
        rng = random.Random(43)
        fetched = []
        for _ in range(150):
            n, k, l = rng.choice(SHARED_CASES)
            fetched.append(bbs_mod.carrier(n, k, l))
            assert bbs_mod._registry_weight == registry_weight() <= bound
            # Sweep through carriers fetched earlier too, evicted or not.
            for c in rng.sample(fetched[-4:], min(2, len(fetched))):
                c.sweep(random_state(rng, c.n, c.k, 25))
                assert bbs_mod._registry_weight == registry_weight()
        assert registry_weight() > bound // 2

    def test_a_carrier_over_the_bound_at_its_fetch_starts_cold(self, monkeypatch, cold_carriers):
        bound = 1000
        monkeypatch.setattr(bbs_mod, "CARRIER_WEIGHT_BOUND", bound)
        rng = random.Random(5)
        small = bbs_mod.carrier(3, 1, 1)
        c = bbs_mod.carrier(5, 2, 3)
        c.sweep(random_state(rng, 5, 2, 60))
        assert c.weight > bound
        # Over the bound: the other carriers go first, then this one starts cold.
        again = bbs_mod.carrier(5, 2, 3)
        assert again is not c and again.weight == Carrier(5, 2, 3).weight
        assert list(bbs_mod._registry) == [(3, 1, 1), (5, 2, 3)]
        assert bbs_mod.carrier(3, 1, 1) is small
        # A rest carrier alone over the bound is handed out, never kept.
        wide = bbs_mod.carrier(3, 1, 1000)
        assert wide.weight == Carrier(3, 1, 1000).weight > bound
        assert (3, 1, 1000) not in bbs_mod._registry
        assert registry_weight() <= bound

    @pytest.mark.parametrize("bound", [0, 10**9], ids=["evict-every-fetch", "unbounded"])
    def test_output_equals_fresh_carriers(self, monkeypatch, cold_carriers, bound):
        # Bound 0 evicts every carrier at the next fetch, mid-spectrum too;
        # unbounded, every later state meets a warm table.
        monkeypatch.setattr(bbs_mod, "CARRIER_WEIGHT_BOUND", bound)
        rng = random.Random(19)
        for _ in range(2):
            for n, k, l in SHARED_CASES:
                p = random_state(rng, n, k, 12)
                assert shared_run(p, l, 3) == fresh_run(p, l, 3)
                assert soliton_spectrum(p) == reference_spectrum(p)

    def test_equal_fillings_over_two_alphabets_never_share_entries(self, cold_carriers):
        # Tableau equality ignores n: the n = 3 and n = 4 carriers, fetched in
        # turn, must keep apart every tableau they carry, emit or key by.
        # Traces build their carriers when read, so every tableau is kept
        # alive here: a freed one's id could be reused.
        seen = {3: set(), 4: set()}
        alive = []
        for _ in range(3):
            for n in (3, 4):
                c = bbs_mod.carrier(n, 1, 2)
                _, trace = evolve(parse_state(f"n={n} k=1 offset=0\n3 3 2 . 1 3\n"), 2)
                assert bbs_mod.carrier(n, 1, 2) is c
                assert all(t.n == n for t in trace.carriers + trace.outputs)
                objects = [*trace.carriers, *trace.outputs, *c._columns]
                assert all(t.n == n for t in objects)
                alive.extend(objects)
                seen[n] |= {id(t) for t in objects}
        assert bbs_mod.carrier(3, 1, 2) is not bbs_mod.carrier(4, 1, 2)
        assert not seen[3] & seen[4]

    def test_retained_keys_hold_one_rows_object_per_filling(self):
        # What a kept carrier holds must not keep the swept states alive: it
        # keeps one tableau per column filling, keyed by that tableau's rows,
        # and each carrier as its packed bytes key, one byte a letter here.
        rng = random.Random(3)
        c = Carrier(5, 2, 3)
        for _ in range(4):
            c.sweep(random_state(rng, 5, 2, 30))
        assert all(rows is c._columns[j].rows for rows, j in c._column_ids.items())
        assert len(c._column_ids) == len(c._columns) <= comb(5, 2)
        assert all(type(key) is bytes and len(key) == 2 * 3 for key in c._keys)
        assert all(map(operator.is_, c._key_ids, c._keys))

    def test_second_cli_evolve_makes_no_r_evaluation(self, r_calls, tmp_path, capsys):
        path = tmp_path / "state.txt"
        path.write_text(THREE_SOLITON_TEXT)
        argv = ["evolve", "--input", str(path), "--l", "3", "--steps", "4"]
        assert main(argv) == 0
        first, evaluated = capsys.readouterr().out, len(r_calls)
        assert evaluated
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert len(r_calls) == evaluated

    def test_threads_sharing_carriers_match_fresh_carriers(self, cold_carriers):
        # Many threads sweep through the same few shared carriers from a cold
        # start, switching often, so misses of one carrier interleave.
        rng = random.Random(23)
        jobs = [(random_state(rng, n, k, 40), l) for n, k, l in SHARED_CASES[:6] for _ in range(4)]
        expected = [fresh_run(p, l, 2) for p, l in jobs]
        results: dict = {}

        def work(i):
            results[i] = [shared_run(p, l, 2) for p, l in jobs[i::8]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [results[i % 8][i // 8] for i in range(len(jobs))] == expected


class TestCompactKeys:
    """A carrier packs its letters in the narrowest array typecode that holds
    n, or in fixed-width bytes past 64 bits, at any width."""

    @pytest.mark.parametrize("n,width", [(300, 2), (70_000, 4), (2**40, 8), (2**70, 9)])
    def test_large_alphabets_match_the_per_site_sweep(self, n, width):
        rng = random.Random(n % 1009)
        for k in (1, 2, 3):
            # Letters from 1..k+2 and from the top of each narrower typecode's
            # range up to n, so that fillings recur.
            pool = sorted({*range(1, k + 3), *(min(n, 2**b) for b in (8, 16, 32, 64)), n - 1, n})
            cols = [SemiStandardTableau.column(sorted(rng.sample(pool, k)), n) for _ in range(20)]
            p = BbsState(n, k, 0, cols)
            carrier = Carrier(n, k, 4)
            assert len(carrier._keys[0]) == k * 4 * width
            for _ in range(3):
                q, trace = carrier.sweep(p)
                assert (q, trace) == reference_evolve(p, 4)
                assert all(t.n == n for t in trace.carriers + trace.outputs)
                p = q

    @pytest.mark.parametrize("n,k", [(300, 1), (300, 2), (4, 2)])
    def test_wide_carrier_matches_the_per_site_sweep(self, n, k):
        l = 10_000
        rng = random.Random(n + k)
        vac = vacuum_column(k, n)
        p = BbsState(n, k, 0, [vac if rng.random() < 0.5 else random_column(rng, k, n) for _ in range(12)])
        q, trace = Carrier(n, k, l).sweep(p)
        q_ref, trace_ref = reference_evolve(p, l)
        assert q == q_ref
        assert trace.carriers == trace_ref.carriers
        assert trace.outputs == trace_ref.outputs
        assert trace.site_energies == trace_ref.site_energies
        assert all(t.n == n for t in trace.carriers + trace.outputs)

    def test_carrier_over_many_fillings_widens_its_table(self, monkeypatch):
        # n = 300, k = 2: C(n, k) = 44,850 slots a carrier would be 359 kB,
        # so the slots grow with the fillings met; they stay right, and a
        # widened table keeps every transition it knew.
        rng = random.Random(17)
        carrier = Carrier(300, 2, 3)
        states = [random_state(rng, 300, 2, 60) for _ in range(4)]
        for p in states:
            assert carrier.sweep(p) == reference_evolve(p, 3)
        assert 64 < len(carrier._columns) <= carrier._table[1] < comb(300, 2)
        monkeypatch.setattr(bbs_mod, "_r_rows", None)  # a miss would now raise
        for p in states:
            carrier.sweep(p)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("l", [3, 40, 300])
    def test_weight_is_the_retained_bytes(self, k, l):
        n = k + 3
        rng = random.Random(100 * k + l)
        # Built before tracing, which also fills the process-wide cache of
        # the vacuum column.
        states = [sparse_state(rng, n, k, 40) for _ in range(6)]
        tracemalloc.start()
        try:
            c = Carrier(n, k, l)
            for p in states:
                c.sweep(p)
            # Tableaux of the states stay alive: count only what the carrier holds.
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            weight = c.weight
            del c
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0.5 * weight <= retained <= 2 * weight, (retained, weight)


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

    def test_each_vacuum_site_brings_one_more_column_to_rest(self):
        # The per-site fact behind the bound: R against the vacuum column
        # leaves the carrier at least one fewer column that differs from 1..k.
        carriers = away = 0
        for n in range(2, 6):
            for k in range(1, n):
                vac, rest = vacuum_column(k, n), tuple(range(1, k + 1))
                for l in range(1, 4):
                    for c in enumerate_tableaux((l,) * k, n):
                        before = sum(col != rest for col in c.columns())
                        after = sum(col != rest for col in apply_r(c, vac).right_out.columns())
                        assert after <= max(before - 1, 0), (k, l, c.rows)
                        carriers += 1
                        away += before > 0
        assert (carriers, away) == (771, 741)

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
                tensor = CrystalTensor(state.columns, state.n)
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


class TestStress:
    @pytest.mark.slow
    def test_wide_carriers_over_large_alphabets(self):
        # Seeded states with n up to 10, every k < n and l up to 200: the
        # sweep against R at every site, conservation of E_l, commuting T_l
        # and the support + l bound.
        rng = random.Random(91)
        for n in range(2, 11):
            for k in range(1, n):
                widths = (rng.randint(1, 8), rng.randint(9, 199), 200)
                carriers = {l: Carrier(n, k, l) for l in widths}

                def step(p, l):
                    q, trace = carriers[l].sweep(p)
                    assert len(trace.outputs) <= p.support + l
                    return q, trace

                for draw in (random_state, sparse_state):
                    p = draw(rng, n, k, 150)
                    energies = {l: carriers[l].energy(p) for l in widths}
                    for l, lp in zip(widths, widths[1:] + widths[:1]):
                        q, trace = step(p, l)
                        assert (q, trace) == reference_evolve(p, l)
                        assert all(t.n == n for t in trace.carriers + trace.outputs)
                        assert {w: carriers[w].energy(q) for w in widths} == energies
                        assert step(q, lp)[0] == step(step(p, lp)[0], l)[0]
                        p = q


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
        with pytest.raises(ValueError, match="carrier_side"):
            conserved_tableaux(p, l, "middle")

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
        with pytest.raises(ValueError, match="empty trajectory"):
            format_trajectory([])
        other = parse_state("n=4 k=1 offset=0\n3 2\n")
        with pytest.raises(ValueError, match="share n and k"):
            format_trajectory([parse_state("n=5 k=1 offset=0\n3 2\n"), other])
        with pytest.raises(ValueError, match="share n and k"):
            format_trajectory([other, parse_state("n=4 k=2 offset=0\n3/4\n")])

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
