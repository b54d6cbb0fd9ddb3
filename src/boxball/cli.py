"""Command-line interface: evolve states, inspect conserved data, run
scattering experiments, and drive seeded invariant checks.

Exit codes: 0 success, 1 verification failure or a carrier that failed to
return to rest, 2 usage or parse error, or an input too large for memory.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import partial

from . import sampling
from .bbs import (
    BbsState,
    CarrierError,
    StateParseError,
    carrier,
    energy_e,
    format_state,
    format_trajectory,
    parse_state,
    soliton_spectrum,
    vacuum_column,
)
from .insertion import knuth_equivalent, knuth_neighbors
from .rmatrix import apply_r, oracle_r, yang_baxter_holds
from .soliton import SolitonDetectionError, detect, run_experiment, soliton_speed
from .tableau import SemiStandardTableau, TableauError, enumerate_tableaux, restrict

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


class UsageError(ValueError):
    pass


def _load_state(path: str) -> BbsState:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_state(text)


# -- rendering ----------------------------------------------------------------


def render_diagram(states) -> str:
    """Stacked-digit picture, one block of k text rows per step (a single row
    when k = 1), vacuum drawn as '.'; wide cells when letters exceed 9."""
    base = min(s.offset for s in states)
    hi = max(s.offset + len(s.columns) for s in states)
    hi = max(hi, base + 1)
    k = states[0].k
    width = 1
    for s in states:
        for col in s.columns:
            for row in col.rows:
                width = max(width, len(str(row[0])))
    joiner = "" if width == 1 else " "
    blocks = []
    for s in states:
        vac = vacuum_column(s.k, s.n)
        rows = []
        for r in range(k):
            cells = []
            for pos in range(base, hi):
                col = s.column_at(pos)
                cells.append("." if col == vac else str(col.rows[r][0]))
            rows.append(joiner.join(cell.rjust(width) for cell in cells))
        blocks.append("\n".join(rows))
    sep = "\n" if k == 1 else "\n\n"
    return sep.join(blocks) + "\n"


# -- commands -------------------------------------------------------------


def cmd_evolve(args: argparse.Namespace) -> int:
    state = _load_state(args.input)
    states = [state]
    sweep = carrier(state.n, state.k, args.l).sweep
    for _ in range(args.steps):
        state, _ = sweep(state)
        states.append(state)
    sys.stdout.write(format_trajectory(states))
    if args.render:
        sys.stdout.write("\n")
        sys.stdout.write(render_diagram(states))
    return EXIT_OK


def cmd_energy(args: argparse.Namespace) -> int:
    state = _load_state(args.input)
    print(f"E_{args.l}={energy_e(state, args.l)}")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    state = _load_state(args.input)
    for d, count in sorted(soliton_spectrum(state).items()):
        print(f"N_{d}={count}")
    return EXIT_OK


def cmd_rmatrix(args: argparse.Namespace) -> int:
    n = args.alphabet
    if n is None:
        try:
            n = max(int(tok) for text in (args.left, args.right) for tok in text.replace("/", " ").split())
        except ValueError:
            raise UsageError("--left and --right need integer letters") from None
    x = SemiStandardTableau.parse(args.left, n)
    y = SemiStandardTableau.parse(args.right, n)
    if not (x.is_rectangular and y.is_rectangular):
        raise UsageError("--left and --right must be rectangular tableaux")
    res = apply_r(x, y)
    print(f"left_out = {res.left_out}")
    print(f"right_out = {res.right_out}")
    print(f"H = {res.energy}")
    return EXIT_OK


def cmd_scatter(args: argparse.Namespace) -> int:
    state = _load_state(args.input)
    try:
        initial = detect(state)
    except SolitonDetectionError as exc:
        print(f"detection failure: {exc}")
        return EXIT_FAIL
    result = run_experiment(initial, args.l, args.steps)
    sys.stdout.write(format_trajectory(result.states))
    print()
    if result.observed is None:
        print(f"no soliton decomposition after {result.steps_run} steps")
        return EXIT_FAIL
    # Scattering keeps each soliton's length and predict_final only swaps a
    # strictly faster soliton past a slower one: it stable-sorts by speed.
    starts = sorted(initial.solitons, key=partial(soliton_speed, l=args.l))
    ok = len(result.observed) == len(result.predicted)
    for j, pred in enumerate(result.predicted):
        obs = result.observed[j] if j < len(result.observed) else None
        if obs is None:
            print(f"soliton {j + 1}: missing (predicted phase={pred.phase} d={pred.length})")
            ok = False
            continue
        print(f"soliton {j + 1}: phase={obs.phase} d={obs.length} internal={obs.internal}")
        match = obs == pred
        ok = ok and match
        print(
            f"delta={pred.phase - starts[j].phase} predicted=({pred.phase}, {pred.internal}) "
            f"observed=({obs.phase}, {obs.internal}) match={'true' if match else 'false'}"
        )
    return EXIT_OK if ok else EXIT_FAIL


# -- seeded invariant checks ------------------------------------------------


# The energy and commute checks draw (n, k, l) from a few dozen values and
# sweep through the shared carriers, so while those stay within their weight
# bound R is evaluated once per distinct pair of the whole command, and pairs
# met by earlier commands of the process are not evaluated again.
def _inv_carriers(rng, trials, holds):
    for _ in range(trials):
        k = rng.randint(1, 3)
        n = rng.randint(k + 1, 5)
        p = sampling.random_state(rng, n, k, 10)
        l, lp = rng.randint(1, 4), rng.randint(1, 4)
        ok = holds(carrier(n, k, l), carrier(n, k, lp), p)
        yield ok, None if ok else format_state(p) + f"l={l} l'={lp}\n"


def _energy_conserved(c, cp, p):
    return c.energy(cp.sweep(p)[0]) == c.energy(p)


def _sweeps_commute(c, cp, p):
    return cp.sweep(c.sweep(p)[0])[0] == c.sweep(cp.sweep(p)[0])[0]


def _inv_yang_baxter(rng, trials):
    for _ in range(trials):
        k = rng.randint(1, 2)
        n = rng.randint(k + 1, 4)
        x, y, z = (
            sampling.random_rect_tableau(rng, k, rng.randint(1, 3), n)
            for _ in range(3)
        )
        ok = yang_baxter_holds(x, y, z)
        detail = f"n={n}\nx = {x}\ny = {y}\nz = {z}\n"
        yield ok, None if ok else detail


def _inv_r_oracle(rng, trials):
    # Exhaustive over small shapes; the trial budget is ignored.
    for n in (2, 3):
        for k in range(1, min(2, n - 1) + 1):
            for kp in range(1, min(2, n - 1) + 1):
                for l in (1, 2):
                    for lp in (1, 2):
                        for x in enumerate_tableaux((l,) * k, n):
                            for y in enumerate_tableaux((lp,) * kp, n):
                                ok = apply_r(x, y) == oracle_r(x, y)
                                detail = f"n={n}\nx = {x}\ny = {y}\n"
                                yield ok, None if ok else detail


def _inv_knuth(rng, trials):
    for _ in range(trials):
        n = rng.randint(2, 4)
        w = sampling.random_word(rng, 8, n)
        v = w
        for _ in range(rng.randint(0, 4)):
            moves = knuth_neighbors(v)
            if not moves:
                break
            v = rng.choice(moves)
        ok = all(
            knuth_equivalent(restrict(w, 1, j), restrict(v, 1, j))
            for j in range(1, n + 1)
        )
        yield ok, None if ok else f"w = {w}\nv = {v}\n"


_INVARIANT_RUNNERS = {
    "energy": partial(_inv_carriers, holds=_energy_conserved),
    "commute": partial(_inv_carriers, holds=_sweeps_commute),
    "yang-baxter": _inv_yang_baxter,
    "r-oracle": _inv_r_oracle,
    "knuth": _inv_knuth,
}


def cmd_check(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    passed = total = 0
    for idx, (ok, detail) in enumerate(_INVARIANT_RUNNERS[args.invariant](rng, args.trials), 1):
        total += 1
        if ok:
            passed += 1
        else:
            print(f"trial {idx}: FAIL")
            if detail:
                sys.stdout.write(detail if detail.endswith("\n") else detail + "\n")
    verdict = "PASS" if passed == total else "FAIL"
    print(f"check invariant={args.invariant} seed={args.seed}: {verdict} {passed}/{total}")
    return EXIT_OK if passed == total else EXIT_FAIL


def _int_at_least(lo: int):
    """argparse ``type=``: an integer no smaller than ``lo``."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxball",
        description="Box-ball systems on column crystals: evolution, scattering, and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evolve", help="apply the carrier evolution repeatedly")
    ev.set_defaults(run=cmd_evolve)
    ev.add_argument("--input", required=True, help="state file")
    ev.add_argument("--l", type=_int_at_least(1), default=1, help="carrier width")
    ev.add_argument("--steps", type=_int_at_least(0), default=1)
    ev.add_argument("--render", action="store_true", help="append an ASCII diagram")

    en = sub.add_parser("energy", help="conserved energy of a state")
    en.set_defaults(run=cmd_energy)
    en.add_argument("--input", required=True)
    en.add_argument("--l", type=_int_at_least(1), default=1)

    spect = sub.add_parser("spectrum", help="soliton counts per length")
    spect.set_defaults(run=cmd_spectrum)
    spect.add_argument("--input", required=True)

    sc = sub.add_parser("scatter", help="scattering experiment: predicted vs observed")
    sc.set_defaults(run=cmd_scatter)
    sc.add_argument("--input", required=True)
    sc.add_argument("--l", type=_int_at_least(1), default=1)
    sc.add_argument("--steps", type=_int_at_least(0), default=None,
                    help="evolution steps (default: run until fully scattered)")

    rm = sub.add_parser("rmatrix", help="apply the combinatorial R to a pair")
    rm.set_defaults(run=cmd_rmatrix)
    rm.add_argument("--left", required=True, help="tableau text form")
    rm.add_argument("--right", required=True)
    rm.add_argument("--n", type=int, default=None, dest="alphabet",
                    help="alphabet bound (default: largest letter present)")

    ck = sub.add_parser("check", help="seeded invariant verification")
    ck.set_defaults(run=cmd_check)
    ck.add_argument("--invariant", required=True, choices=_INVARIANT_RUNNERS)
    ck.add_argument("--trials", type=_int_at_least(1), default=100)
    ck.add_argument("--seed", type=int, default=0)

    return parser


# Built once: parse_args keeps no state between calls.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.run(args)
    except (UsageError, StateParseError, TableauError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CarrierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except MemoryError:
        # A carrier holds l columns: a huge --l asks for more than there is.
        print("error: out of memory; is --l or the input too large?", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
