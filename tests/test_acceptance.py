"""Acceptance suite: every criterion is one test that prints a PASS line.

All comparisons are exact (integer/structural equality, tolerance zero).
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import pytest

from boxball import (
    BbsState,
    CrystalTensor,
    RResult,
    SemiStandardTableau,
    Soliton,
    SolitonConfig,
    apply_r,
    conserved_tableaux,
    detect,
    energy_e,
    energy_h,
    evolve,
    knuth_equivalent,
    oracle_r,
    parse_state,
    predict_final,
    rectify,
    restrict,
    run_experiment,
    scattering_yang_baxter,
    soliton_spectrum,
    window_word,
    yang_baxter_holds,
)
from boxball.bbs import format_columns, vacuum_block
from boxball.cli import main
from boxball.sampling import (
    random_rect_tableau,
    random_soliton,
    random_state,
    random_two_soliton_config,
)
from boxball.soliton import VacuumAlphabet
from conftest import (
    INTRO_K1_TEXT,
    INTRO_K2_TEXT,
    SPECTRUM_TEXTS,
    THREE_SOLITON_TEXT,
    THREE_SOLITON_TRAJECTORY,
    T,
    small_rectangles,
)

TRIALS = 100


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_combinatorial_r_golden():
    res = apply_r(T("1 2 4 / 2 3 5 / 4 4 6", 6), T("2/5", 6))
    assert res.left_out == T("2/4", 6)
    assert res.right_out == T("1 2 3 / 2 4 5 / 4 5 6", 6)
    assert res.energy == -1
    assert energy_h(T("1 2 4 / 2 3 5 / 4 4 6", 6), T("2/5", 6)) == -1
    report("1", "R and H on the worked pair")


def test_criterion_2_crystal_operator_golden():
    before = CrystalTensor(
        [T("1/2", 6), T("2/3", 6), T("4/6", 6)])
    after = CrystalTensor(
        [T("1/3", 6), T("2/3", 6), T("4/6", 6)])
    assert before.signature(2) == "0++-00"
    assert before.apply_f(2) == after
    assert after.apply_e(2) == before
    report("2", "lowering operator on the worked tensor")


def test_criterion_3_intro_evolution_goldens():
    p1 = parse_state(INTRO_K1_TEXT)
    q1, tr1 = evolve(p1, 3)
    assert [c.to_text() for c in tr1.carriers] == [
        "1 1 1", "1 1 3", "1 3 3", "2 3 3", "1 2 3", "1 1 2", "1 1 1"]
    assert [c.to_column_text() for c in tr1.outputs] == ["1", "1", "1", "3", "3", "2"]
    assert (q1.offset, format_columns(q1)) == (3, "3 3 2")

    p2 = parse_state(INTRO_K2_TEXT)
    q2, tr2 = evolve(p2, 3)
    assert [c.to_text() for c in tr2.carriers] == [
        "1 1 1 / 2 2 2", "1 1 2 / 2 2 4", "1 2 2 / 2 4 4",
        "1 2 2 / 3 4 4", "1 1 2 / 2 3 4", "1 1 1 / 2 2 3", "1 1 1 / 2 2 2"]
    assert [c.to_column_text() for c in tr2.outputs] == [
        "1/2", "1/2", "1/2", "2/4", "2/4", "1/3"]
    assert (q2.offset, format_columns(q2)) == (3, "2/4 2/4 1/3")
    report("3", "both carrier diagrams, carrier and output rows")


def test_criterion_4_three_soliton_trajectory():
    state = parse_state(THREE_SOLITON_TEXT)
    for t, (offset, columns) in enumerate(THREE_SOLITON_TRAJECTORY):
        assert state.offset == offset, f"vacuum prefix at step {t}"
        assert format_columns(state) == columns, f"columns at step {t}"
        if t < 6:
            state, _ = evolve(state, 3)
    report("4", "six evolution steps, prefixes 3 6 9 11 13 15")


def test_criterion_5_scattering_and_factorization():
    cfg = detect(parse_state(THREE_SOLITON_TEXT))
    assert [(s.phase, s.length) for s in cfg.solitons] == [(0, 3), (6, 2), (11, 1)]
    out = predict_final(cfg, 3)
    assert [(s.phase, s.length) for s in out] == [(9, 1), (5, 2), (3, 3)]
    assert out[0].internal == T("2 / 3 / 5", 6)
    assert out[1].internal == T("1 2 / 2 3 / 4 4", 6)
    assert out[2].internal == T("1 2 2 / 3 3 3 / 4 5 6", 6)
    assert scattering_yang_baxter(*cfg.solitons)
    res = run_experiment(cfg, 3, steps=6)
    assert res.all_match
    report("5", "final phases 9 5 3, internals, and both bracketings")


def test_criterion_6_spectrum_examples():
    expected = {"a": {1: 2}, "b": {2: 2}, "c": {2: 3}}
    for key, want in expected.items():
        assert soliton_spectrum(parse_state(SPECTRUM_TEXTS[key])) == want
    report("6", "N_1=2, N_2=2, N_2=3")


def test_criterion_7_split_r_vs_full_r():
    n = 7
    low = apply_r(T("1 1 1 1 2 / 2 2 3 3 3", n), T("1 1 2 / 2 3 3", n))
    high = apply_r(T("4 4 4 5 5", n), T("5 6 7", n))
    assert (low.left_out, low.right_out) == (
        T("1 1 2 / 2 3 3", n), T("1 1 1 1 2 / 2 2 3 3 3", n))
    assert (high.left_out, high.right_out) == (
        T("4 5 5", n), T("4 4 5 6 7", n))
    full = apply_r(
        T("1 1 1 1 2 / 2 2 3 3 3 / 4 4 4 5 5", n),
        T("1 1 2 / 2 3 3 / 5 6 7", n))
    assert (full.left_out, full.right_out) == (
        T("1 1 2 / 3 3 3 / 4 5 5", n),
        T("1 1 1 1 2 / 2 2 2 4 4 / 3 3 5 6 7", n))
    stacked_left = SemiStandardTableau(low.left_out.rows + high.left_out.rows, n)
    assert stacked_left != full.left_out
    report("7", "component-wise exchange differs from the full R")


def test_criterion_8i_energy_conservation():
    rng = random.Random(1001)
    for _ in range(TRIALS):
        k = rng.randint(1, 3)
        n = rng.randint(k + 1, 5)
        p = random_state(rng, n, k, 10)
        l, lp = rng.randint(1, 4), rng.randint(1, 4)
        assert energy_e(evolve(p, lp)[0], l) == energy_e(p, l)
    report("8i", f"{TRIALS} random states")


def test_criterion_8ii_evolutions_commute():
    rng = random.Random(1002)
    for _ in range(TRIALS):
        k = rng.randint(1, 3)
        n = rng.randint(k + 1, 5)
        p = random_state(rng, n, k, 10)
        l, lp = rng.randint(1, 4), rng.randint(1, 4)
        assert evolve(evolve(p, l)[0], lp)[0] == evolve(evolve(p, lp)[0], l)[0]
    report("8ii", f"{TRIALS} random states")


def test_criterion_8iii_r_matches_oracle_exhaustively():
    count = 0
    for n in (2, 3, 4):
        pool = small_rectangles(n)
        for x in pool:
            for y in pool:
                assert apply_r(x, y) == oracle_r(x, y)
                count += 1
    report("8iii", f"{count} pairs, exhaustive")


def test_criterion_8iv_involution_and_equivariance():
    def swap(ct):
        res = apply_r(ct.factors[0], ct.factors[1])
        return CrystalTensor((res.left_out, res.right_out), ct.n)

    pairs = 0
    for n in (2, 3, 4):
        pool = small_rectangles(n)
        for x in pool:
            for y in pool:
                res = apply_r(x, y)
                back = apply_r(res.left_out, res.right_out)
                assert (back.left_out, back.right_out) == (x, y)
                ct = CrystalTensor((x, y), n)
                for i in range(1, n):
                    for op in ("apply_f", "apply_e"):
                        moved = getattr(ct, op)(i)
                        image = getattr(swap(ct), op)(i)
                        if moved is None:
                            assert image is None
                        else:
                            assert swap(moved) == image
                pairs += 1
    report("8iv", f"{pairs} pairs, exhaustive")


def test_criterion_8v_yang_baxter_random():
    rng = random.Random(1005)
    for _ in range(TRIALS):
        k = rng.randint(1, 2)
        n = rng.randint(k + 1, 4)
        x, y, z = (random_rect_tableau(rng, k, rng.randint(1, 3), n) for _ in range(3))
        assert yang_baxter_holds(x, y, z)
    report("8v", f"{TRIALS} random triples")


def test_criterion_8vi_conserved_tableaux():
    rng = random.Random(1006)
    for _ in range(TRIALS):
        k = rng.randint(1, 3)
        n = rng.randint(k + 1, 5)
        p = random_state(rng, n, k, 8)
        l = rng.randint(1, 3)
        q, _ = evolve(p, l)
        # letters above k: identical tableaux before and after the step
        assert conserved_tableaux(p, l)[1] == conserved_tableaux(q, l)[1]
        # letters up to k: the cross-step words are Knuth-equivalent
        lo = min(p.offset, q.offset)
        hi = max(p.offset + p.support, q.offset + q.support)
        cw = vacuum_block(k, l, n).row_word()
        wt = window_word(p, lo, hi) + cw
        wt1 = cw + window_word(q, lo, hi)
        assert rectify(restrict(wt, 1, k), n) == rectify(restrict(wt1, 1, k), n)
        assert knuth_equivalent(wt, wt1)
    report("8vi", f"{TRIALS} random states")


def test_criterion_8vii_speed_law():
    rng = random.Random(1007)
    for _ in range(TRIALS):
        k = rng.randint(1, 3)
        n = rng.randint(k + 2, 6)
        d = rng.randint(1, 4)
        c = rng.randint(0, 3)
        sol = random_soliton(rng, k, d, n, c)
        state = SolitonConfig(n, k, (sol,)).build_state()
        l = rng.randint(1, 4)
        t = rng.randint(1, 3)
        for _ in range(t):
            state, _ = evolve(state, l)
        cfg = detect(state)
        assert len(cfg.solitons) == 1
        assert cfg.solitons[0].phase == c + min(d, l) * t
        assert cfg.solitons[0].internal == sol.internal
    report("8vii", f"{TRIALS} random one-soliton states")


def test_criterion_8viii_two_soliton_scattering():
    rng = random.Random(1008)
    for _ in range(TRIALS):
        cfg = random_two_soliton_config(rng, max_len=4)
        l = rng.randint(cfg.solitons[1].length + 1, 5)
        res = run_experiment(cfg, l)
        assert res.observed is not None
        assert res.all_match
    report("8viii", f"{TRIALS} random well-separated pairs")


def test_criterion_8ix_operators_commute_with_evolution():
    rng = random.Random(1009)
    done = 0
    while done < TRIALS:
        k = rng.randint(1, 3)
        n = rng.randint(k + 2, 5)
        p = random_state(rng, n, k, 8)
        l = rng.randint(1, 3)
        i = rng.choice([j for j in range(1, n) if j != k])
        lowering = rng.random() < 0.5

        def act(state):
            tensor = CrystalTensor(state.columns, state.n)
            moved = tensor.apply_f(i) if lowering else tensor.apply_e(i)
            return None if moved is None else BbsState(moved.n, state.k, state.offset, moved.factors)

        q = act(p)
        if q is None:
            continue
        done += 1
        after = act(evolve(p, l)[0])
        assert after is not None
        assert evolve(q, l)[0] == after
    report("8ix", f"{TRIALS} applicable operator instances")


def test_criterion_8x_carrier_column_relations():
    checked = 0
    for k in (1, 2, 3):
        va = VacuumAlphabet(k, k + 2)
        for l in (1, 2, 3):
            for i in range(l + 1):
                if i < l:
                    assert apply_r(va.xi(i, l), va.one())[:2] == (va.zero(), va.xi(i + 1, l))
                    checked += 1
                if i > 0:
                    assert apply_r(va.xi(i, l), va.zero())[:2] == (va.one(), va.xi(i - 1, l))
                    checked += 1
            assert apply_r(va.xi(l, l), va.one())[:2] == (va.one(), va.xi(l, l))
            assert apply_r(va.xi(0, l), va.zero())[:2] == (va.zero(), va.xi(0, l))
            checked += 2
    report("8x", f"{checked} carrier relations, exhaustive for l <= 3")


class TestCriterion9Cli:
    def _golden_commands(self, tmp_path):
        files = {
            "p3s": THREE_SOLITON_TEXT,
            "k1": INTRO_K1_TEXT,
            "c": SPECTRUM_TEXTS["c"],
        }
        paths = {}
        for name, text in files.items():
            target = tmp_path / f"{name}.txt"
            target.write_text(text)
            paths[name] = str(target)
        return [
            ["evolve", "--input", paths["k1"], "--l", "3", "--steps", "1"],
            ["evolve", "--input", paths["p3s"], "--l", "3", "--steps", "6"],
            ["scatter", "--input", paths["p3s"], "--l", "3", "--steps", "6"],
            ["spectrum", "--input", paths["c"]],
            ["check", "--invariant", "energy", "--trials", "20", "--seed", "9"],
        ]

    def test_goldens_byte_stable(self, tmp_path, capsys):
        first_pass = []
        for argv in self._golden_commands(tmp_path):
            assert main(argv) == 0
            first_pass.append(capsys.readouterr().out)
        assert "N_2=3\n" == first_pass[3]
        assert first_pass[2].count("match=true") == 3
        for argv, expected in zip(self._golden_commands(tmp_path), first_pass):
            assert main(argv) == 0
            assert capsys.readouterr().out == expected
        report("9a", "evolve/scatter/spectrum/check byte-stable")

    def test_mutation_flips_exit_status(self, capsys, monkeypatch):
        import boxball.cli as cli_mod

        monkeypatch.setattr(cli_mod, "apply_r", lambda x, y: RResult(y, x, 0))
        code = main(["check", "--invariant", "r-oracle", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        report("9b", "injected R violation exits nonzero")
