import os
import random
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import pytest

import boxball.bbs as bbs_mod
from boxball import (
    RResult,
    SolitonConfig,
    parse_state,
    parse_trajectory,
    predict_final,
)
from boxball.bbs import Carrier
from boxball.cli import main
from boxball.sampling import random_soliton
from conftest import INTRO_K1_TEXT, INTRO_K2_TEXT, SPECTRUM_TEXTS, THREE_SOLITON_TEXT

SCATTER_GOLDEN = """\
n=6 k=3 offset=0
2/3/5 2/3/4 2/3/4 . . . 2/3/6 1/2/4 . . . 1/3/5
. . . 2/3/5 2/3/4 2/3/4 . . 2/3/6 1/2/4 . . 1/3/5
. . . . . . 2/3/5 2/3/4 2/3/4 . 2/3/6 1/2/4 . 1/3/5
. . . . . . . . . 2/3/5 2/3/4 . 2/3/6 2/3/4 1/4/5
. . . . . . . . . . . 2/3/5 2/3/4 . . 2/4/6 2/3/5 1/3/4
. . . . . . . . . . . . . 2/3/5 2/3/4 . 1/2/4 . 2/3/6 2/3/5 1/3/4
. . . . . . . . . . . . . . . 2/3/5 . 2/3/4 1/2/4 . . 2/3/6 2/3/5 1/3/4

soliton 1: phase=9 d=1 internal=2 / 3 / 5
delta=-2 predicted=(9, 2 / 3 / 5) observed=(9, 2 / 3 / 5) match=true
soliton 2: phase=5 d=2 internal=1 2 / 2 3 / 4 4
delta=-1 predicted=(5, 1 2 / 2 3 / 4 4) observed=(5, 1 2 / 2 3 / 4 4) match=true
soliton 3: phase=3 d=3 internal=1 2 2 / 3 3 3 / 4 5 6
delta=3 predicted=(3, 1 2 2 / 3 3 3 / 4 5 6) observed=(3, 1 2 2 / 3 3 3 / 4 5 6) match=true
"""

EVOLVE_K1_GOLDEN = """\
n=3 k=1 offset=0
3 3 2
. . . 3 3 2

332...
...332
"""


@pytest.fixture
def state_file(tmp_path):
    def write(text, name="state.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvolve:
    def test_intro_k1_with_render(self, capsys, state_file):
        path = state_file(INTRO_K1_TEXT)
        code, out, _ = run(capsys, "evolve", "--input", path, "--l", "3", "--steps", "1", "--render")
        assert code == 0
        assert out == EVOLVE_K1_GOLDEN

    def test_intro_k2(self, capsys, state_file):
        path = state_file(INTRO_K2_TEXT)
        code, out, _ = run(capsys, "evolve", "--input", path, "--l", "3", "--steps", "1")
        assert code == 0
        assert out == "n=4 k=2 offset=0\n2/4 2/4 1/3\n. . . 2/4 2/4 1/3\n"

    def test_three_soliton_six_steps(self, capsys, state_file):
        path = state_file(THREE_SOLITON_TEXT)
        code, out, _ = run(capsys, "evolve", "--input", path, "--l", "3", "--steps", "6")
        assert code == 0
        assert out.count("\n") == 8
        states = parse_trajectory(out)
        assert [s.offset for s in states] == [0, 3, 6, 9, 11, 13, 15]

    def test_vacuum_input(self, capsys, state_file):
        path = state_file("n=4 k=2 offset=0\n\n")
        code, out, _ = run(capsys, "evolve", "--input", path, "--l", "2", "--steps", "2")
        assert code == 0
        assert out == "n=4 k=2 offset=0\n\n\n\n"

    def test_output_reparses(self, capsys, state_file):
        path = state_file(THREE_SOLITON_TEXT)
        _, out, _ = run(capsys, "evolve", "--input", path, "--l", "3", "--steps", "2")
        from boxball import evolve

        states = parse_trajectory(out)
        p = parse_state(THREE_SOLITON_TEXT)
        assert states[0] == p
        assert states[1] == evolve(p, 3)[0]


class TestScatter:
    def test_three_soliton_golden(self, capsys, state_file):
        path = state_file(THREE_SOLITON_TEXT)
        code, out, _ = run(capsys, "scatter", "--input", path, "--l", "3", "--steps", "6")
        assert code == 0
        assert out == SCATTER_GOLDEN

    def test_auto_steps(self, capsys, state_file):
        path = state_file(THREE_SOLITON_TEXT)
        code, out, _ = run(capsys, "scatter", "--input", path, "--l", "3")
        assert code == 0
        assert out.count("match=true") == 3

    def test_single_soliton(self, capsys, state_file):
        path = state_file("n=5 k=2 offset=2\n2/4 1/3\n")
        code, out, _ = run(capsys, "scatter", "--input", path, "--l", "3")
        assert code == 0
        assert "soliton 1: phase=2 d=2" in out
        assert out.count("match=true") == 1

    def test_highest_weight_pair(self, capsys, state_file):
        from boxball import highest_weight_two_soliton
        from boxball.bbs import format_state

        p = highest_weight_two_soliton(5, 2, 0, 3, 5, 1, 0, 2, "-")
        path = state_file(format_state(p))
        code, out, _ = run(capsys, "scatter", "--input", path, "--l", "3")
        assert code == 0
        assert out.count("match=true") == 2

    def test_auto_steps_after_evolve(self, capsys, state_file):
        # main parses every call with one shared parser; evolve's --steps
        # must not leak into the scatter that follows it
        path = state_file(THREE_SOLITON_TEXT)
        code, _, _ = run(capsys, "evolve", "--input", path, "--l", "3", "--steps", "2")
        assert code == 0
        code, out, _ = run(capsys, "scatter", "--input", path, "--l", "3")
        assert (code, out) == (0, SCATTER_GOLDEN)

    def test_equal_speeds_never_meet(self, capsys, state_file):
        # At --l 1 both solitons move one site a step: no collision is
        # predicted, and each is paired with its own start.
        path = state_file("n=3 k=1 offset=0\n3 2 . . 3\n")
        code, out, _ = run(capsys, "scatter", "--input", path, "--l", "1")
        assert code == 0
        assert out.endswith(
            "soliton 1: phase=0 d=2 internal=2 3\n"
            "delta=0 predicted=(0, 2 3) observed=(0, 2 3) match=true\n"
            "soliton 2: phase=4 d=1 internal=3\n"
            "delta=0 predicted=(4, 3) observed=(4, 3) match=true\n")

    def test_non_soliton_input(self, capsys, state_file):
        path = state_file("n=6 k=3 offset=0\n2/4/6\n")
        code, out, _ = run(capsys, "scatter", "--input", path, "--l", "3")
        assert code == 1
        assert "detection failure" in out

    def test_stopped_mid_collision(self, capsys, state_file):
        # After three steps the two leading solitons are merged into one run.
        path = state_file(THREE_SOLITON_TEXT)
        code, out, _ = run(capsys, "scatter", "--input", path, "--l", "3", "--steps", "3")
        assert code == 1
        trajectory = "\n".join(SCATTER_GOLDEN.split("\n")[:5])
        assert out == trajectory + "\n\nno soliton decomposition after 3 steps\n"

    def test_stable_sort_pairs_like_a_length_search(self):
        # Scatter prints each outgoing soliton's shift against the initial
        # soliton at the same place in the length-sorted order.  The search
        # it replaced matched each outgoing soliton to the first unused
        # initial soliton of its length.
        def search_pairing(initial, outgoing):
            used = [False] * len(initial)
            phases = []
            for s in outgoing:
                for i, s0 in enumerate(initial):
                    if not used[i] and s0.length == s.length:
                        used[i] = True
                        phases.append(s0.phase)
                        break
                else:
                    phases.append(None)
            return phases

        rng = random.Random(11)
        repeated = 0
        for _ in range(300):
            k = rng.randint(1, 3)
            n = rng.randint(k + 1, 7)
            sols, pos = [], rng.randint(0, 3)
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(1, 3)
                sols.append(random_soliton(rng, k, d, n, pos))
                pos += d + rng.randint(0, 3)
            initial = tuple(sols)
            # No soliton is longer than 3, so each moves its length at l = 3.
            outgoing = predict_final(SolitonConfig(n, k, initial), 3)
            lengths = [s.length for s in outgoing]
            assert lengths == sorted(lengths)
            starts = sorted(initial, key=attrgetter("length"))
            assert [s.phase for s in starts] == search_pairing(initial, outgoing)
            repeated += len(set(lengths)) < len(lengths)
        assert repeated >= 100


class TestSharedCarriers:
    """The commands of one process share carriers: their output must not
    depend on what an earlier command left in the table, or on eviction."""

    @pytest.mark.parametrize("bound", [0, None], ids=["evict-every-fetch", "default-bound"])
    def test_goldens_cold_and_warm(self, capsys, state_file, monkeypatch, cold_carriers, bound):
        if bound is not None:
            monkeypatch.setattr(bbs_mod, "CARRIER_WEIGHT_BOUND", bound)
        p3s, k1 = state_file(THREE_SOLITON_TEXT, "p3s.txt"), state_file(INTRO_K1_TEXT, "k1.txt")
        k2, c = state_file(INTRO_K2_TEXT, "k2.txt"), state_file(SPECTRUM_TEXTS["c"], "c.txt")
        goldens = [
            (["evolve", "--input", k1, "--l", "3", "--steps", "1", "--render"], EVOLVE_K1_GOLDEN),
            (["evolve", "--input", k2, "--l", "3", "--steps", "1"], "n=4 k=2 offset=0\n2/4 2/4 1/3\n. . . 2/4 2/4 1/3\n"),
            (["scatter", "--input", p3s, "--l", "3", "--steps", "6"], SCATTER_GOLDEN),
            (["spectrum", "--input", c], "N_2=3\n"),
            (["energy", "--input", c, "--l", "2"], "E_2=6\n"),
            (["check", "--invariant", "commute", "--trials", "25", "--seed", "5"],
             "check invariant=commute seed=5: PASS 25/25\n"),
        ]
        for _ in range(2):
            for argv, expected in goldens:
                assert run(capsys, *argv) == (0, expected, "")


class TestSmallCommands:
    def test_rmatrix_golden(self, capsys):
        code, out, _ = run(capsys, "rmatrix", "--left", "1 2 4 / 2 3 5 / 4 4 6", "--right", "2 / 5")
        assert code == 0
        assert out == "left_out = 2 / 4\nright_out = 1 2 3 / 2 4 5 / 4 5 6\nH = -1\n"

    def test_spectrum_golden(self, capsys, state_file):
        for key, expected in [("a", "N_1=2\n"), ("b", "N_2=2\n"), ("c", "N_2=3\n")]:
            path = state_file(SPECTRUM_TEXTS[key], f"{key}.txt")
            code, out, _ = run(capsys, "spectrum", "--input", path)
            assert code == 0
            assert out == expected

    def test_energy(self, capsys, state_file):
        path = state_file(SPECTRUM_TEXTS["b"])
        code, out, _ = run(capsys, "energy", "--input", path, "--l", "1")
        assert (code, out) == (0, "E_1=2\n")


class TestCheck:
    @pytest.mark.parametrize("invariant", ["energy", "commute", "yang-baxter", "knuth"])
    def test_invariants_pass(self, capsys, invariant):
        code, out, _ = run(capsys, "check", "--invariant", invariant, "--trials", "25", "--seed", "5")
        assert code == 0
        assert out == f"check invariant={invariant} seed=5: PASS 25/25\n"

    def test_energy_full_budget(self, capsys):
        code, out, _ = run(capsys, "check", "--invariant", "energy", "--trials", "100", "--seed", "42")
        assert code == 0
        assert out == "check invariant=energy seed=42: PASS 100/100\n"

    def test_r_oracle_exhaustive(self, capsys):
        code, out, _ = run(capsys, "check", "--invariant", "r-oracle", "--seed", "0")
        assert code == 0
        assert out.endswith("PASS 349/349\n")

    def test_seed_reproducibility(self, capsys):
        _, first, _ = run(capsys, "check", "--invariant", "energy", "--trials", "15", "--seed", "42")
        _, second, _ = run(capsys, "check", "--invariant", "energy", "--trials", "15", "--seed", "42")
        assert first == second

    def test_mutation_is_caught(self, capsys, monkeypatch):
        # inject a wrong R (bare swap) where the check reads it; the
        # independent oracle must flag it and the exit code must be nonzero
        import boxball.cli as cli_mod

        monkeypatch.setattr(cli_mod, "apply_r", lambda x, y: RResult(y, x, 0))
        code, out, _ = run(capsys, "check", "--invariant", "r-oracle", "--seed", "0")
        assert code == 1
        assert "FAIL" in out
        assert "trial" in out  # the failing instance is reported

    def test_failure_prints_instance(self, capsys, monkeypatch):
        # The energy check takes E_l through its carriers: skew it by the
        # offset, which the evolution moves.
        real = Carrier.energy
        monkeypatch.setattr(Carrier, "energy", lambda self, p: real(self, p) + p.offset)
        code, out, _ = run(capsys, "check", "--invariant", "energy", "--trials", "10", "--seed", "1")
        assert code == 1
        assert "n=" in out and "k=" in out  # state file format in the report


class TestRender:
    def test_two_row_blocks(self, capsys, state_file):
        path = state_file(INTRO_K2_TEXT)
        code, out, _ = run(capsys, "evolve", "--input", path, "--l", "3", "--steps", "1", "--render")
        assert code == 0
        diagram = out.split("\n\n", 1)[1]
        assert diagram == "221...\n443...\n\n...221\n...443\n"

    def test_wide_letters(self):
        from boxball.cli import render_diagram

        p = parse_state("n=12 k=1 offset=0\n11 10\n")
        assert render_diagram([p]) == "11 10\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "check", "--invariant", "energy", "--trials", "0")
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("evolve", "--l", "0"),
            ("energy", "--l", "0"),
            ("scatter", "--l", "0"),
            ("evolve", "--steps", "-1"),
            ("scatter", "--steps", "-1"),
        ],
    )
    def test_bound_violation(self, capsys, state_file, command, option, value):
        path = state_file(THREE_SOLITON_TEXT)
        code, out, err = run(capsys, command, "--input", path, option, value)
        assert (code, out) == (2, "")
        assert option in err

    def test_rmatrix_empty_operand(self, capsys):
        code, out, err = run(capsys, "rmatrix", "--left", "", "--right", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "evolve", "--input", "/nonexistent/state.txt")
        assert code == 2

    def test_parse_error_reports_position(self, capsys, state_file):
        path = state_file("n=4 k=2 offset=0\n2/x\n")
        code, _, err = run(capsys, "evolve", "--input", path)
        assert code == 2
        assert "line 2" in err
        path = state_file("", name="empty.txt")
        code, out, err = run(capsys, "spectrum", "--input", path)
        assert (code, out, err) == (2, "", "error: line 1, column 1: empty input\n")

    def test_header_k_not_below_n(self, capsys, state_file):
        path = state_file("n=3 k=3 offset=0\n\n")
        code, _, err = run(capsys, "evolve", "--input", path)
        assert code == 2
        assert err.startswith("error: line 1")

    def test_rmatrix_non_integer_letter(self, capsys):
        code, _, err = run(capsys, "rmatrix", "--left", "1 x", "--right", "2")
        assert code == 2
        assert err.startswith("error:")

    def test_rmatrix_non_rectangular(self, capsys):
        code, _, err = run(capsys, "rmatrix", "--left", "1 2 / 3", "--right", "2")
        assert code == 2
        assert err.startswith("error:") and "rectangular" in err

    @pytest.mark.parametrize("command", [["evolve", "--steps", "2"], ["scatter"]], ids=["evolve", "scatter"])
    def test_carrier_error_is_reported(self, capsys, stuck_r, state_file, command):
        # An R whose carrier never comes back to rest: the sweep gives up
        # after support + l sites.
        path = state_file(INTRO_K1_TEXT)
        code, out, err = run(capsys, *command, "--input", path, "--l", "2")
        assert (code, out) == (1, "")
        bound = parse_state(INTRO_K1_TEXT).support + 2
        assert err == f"error: carrier did not stabilize within {bound} sites\n"

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_module_runs_without_install(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-m", "boxball", "--help"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: boxball")

    @pytest.mark.parametrize("command", [
        ["evolve", "--l", "9999999999"],
        ["energy", "--l", "9999999999"],
        ["scatter", "--l", "9999999999"],
        ["spectrum"],
    ])
    def test_out_of_memory_is_a_usage_error(self, capsys, monkeypatch, cold_carriers, state_file, command):
        # A carrier holds l columns, so a huge --l cannot be allocated.  The
        # allocation is faked: a real width near 10^9 could overcommit and
        # get the process killed instead.
        def no_memory(n, k, l):
            raise MemoryError

        monkeypatch.setattr(bbs_mod, "Carrier", no_memory)
        path = state_file(THREE_SOLITON_TEXT)
        code, out, err = run(capsys, command[0], "--input", path, *command[1:])
        assert (code, out) == (2, "")
        assert err == "error: out of memory; is --l or the input too large?\n"

    def test_state_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "state.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "evolve", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "UTF-8" in err
