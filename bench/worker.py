"""One benchmark process: set up a workload, then drive ``boxball.cli.main``
in-process over its ops and report timings, digests and correctness.

``run.py`` starts each worker in a fresh interpreter, so every run pays
boxball's cold start as a CLI user does; module-level caches then persist
across the ops of the run, as in one library session.  Usage:

    python3 bench/worker.py --workload gas --seed 0 --mode run --seconds 10

Modes: ``setup`` stops where the first op would start; ``run`` times whole
passes; ``trace`` runs one pass with the tracer installed; ``record`` runs one
pass and reports each op's digest.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import resource
import shutil
import sys
import tempfile
import time
import traceback
from bisect import bisect_right
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

# Committed digests cover pass 0 of these sizes only.
DIGEST_SIZE = "full"


def op_digest(code: int | None, stdout: str) -> str:
    """Digest of one op's exit code and stdout bytes."""
    return hashlib.sha256(f"exit={code}\n{stdout}".encode()).hexdigest()[:16]


def pass_digest(op_digests: list[str]) -> str:
    return hashlib.sha256("\n".join(op_digests).encode()).hexdigest()


def load_expected(workload: str, seed: int, size: str) -> list[str] | None:
    if size != DIGEST_SIZE or not DIGESTS.exists():
        return None
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return committed.get(workload, {}).get(str(seed))


# -- self-checks ---------------------------------------------------------------
# They hold for every seed, so seeds without committed digests are checked too.
# The trajectory check reads the documented text form directly rather than
# trusting boxball's own parser.

_HEADER = re.compile(r"n=(\d+) k=(\d+) offset=(-?\d+)$")
_CHECK_PASS = re.compile(r"check invariant=\S+ seed=\d+: PASS (\d+)/(\d+)$")


def _argv_value(argv, flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _check_column_line(line: str, n: int, k: int) -> str | None:
    for token in line.split():
        if token == ".":
            continue
        try:
            letters = [int(a) for a in token.split("/")]
        except ValueError:
            return f"bad column {token!r}"
        if len(letters) != k or letters != sorted(set(letters)) or not 1 <= letters[0] <= letters[-1] <= n:
            return f"bad column {token!r}"
    return None


def _check_trajectory(lines: list[str], input_path: str, states: int | None) -> str | None:
    """The trajectory re-parses, has the expected length, and starts at the input."""
    state_text = Path(input_path).read_text(encoding="utf-8").splitlines()
    head = _HEADER.match(lines[0]) if lines else None
    in_head = _HEADER.match(state_text[0])
    if head is None or in_head is None or head.group(1, 2) != in_head.group(1, 2):
        return "trajectory header does not match the input"
    if len(lines) < 2 or states is not None and len(lines) - 1 != states:
        return f"expected {states or 'some'} states, got {len(lines) - 1}"
    n, k, base = (int(g) for g in head.groups())
    for line in lines[1:]:
        problem = _check_column_line(line, n, k)
        if problem:
            return problem
    first = ["."] * (int(in_head.group(3)) - base) + state_text[1].split()
    if lines[1].split() != first:
        return "first trajectory state differs from the input"
    return None


def self_check(argv, code: int | None, stdout: str) -> str | None:
    """Reason the op's output is wrong, or None."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    command = argv[0]
    if command == "evolve":
        return _check_trajectory(lines, _argv_value(argv, "--input"), int(_argv_value(argv, "--steps")) + 1)
    if command == "energy":
        return None if re.fullmatch(r"E_\d+=-?\d+\n", stdout) else "bad energy line"
    if command == "spectrum":
        ok = lines and all(re.fullmatch(r"N_\d+=[1-9]\d*", line) for line in lines)
        return None if ok else "bad spectrum"
    if command == "scatter":
        if "" not in lines:
            return "no scattering summary"
        blank = lines.index("")
        summary = [line for line in lines[blank + 1:] if line.startswith("delta=")]
        if len(summary) < 2 or not all(line.endswith(" match=true") for line in summary):
            return "scattering prediction not matched"
        return _check_trajectory(lines[:blank], _argv_value(argv, "--input"), None)
    if command == "check":
        m = _CHECK_PASS.fullmatch(lines[-1]) if lines else None
        return None if m and m.group(1) == m.group(2) else "check did not PASS"
    return f"no self-check for {command!r}"


# -- the op loop ---------------------------------------------------------------


def run_ops(main, ops, expected: list[str] | None = None):
    """Run the ops in order; yield (seconds, digest, failure, stdout bytes) each.

    Only the call to ``main`` is timed.  An op fails when it raises, exits
    non-zero, fails its self-check, or differs from its committed digest.
    """
    for i, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        code, failure = None, None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(list(argv))
            except Exception:  # the op failed; the run goes on to count it
                failure = "raised " + traceback.format_exc().strip().splitlines()[-1]
            seconds = time.perf_counter() - t0
        text = out.getvalue()
        digest = op_digest(code, text)
        if failure is None:
            failure = self_check(argv, code, text)
        if failure is None and expected is not None:
            if len(expected) != len(ops) or expected[i] != digest:
                failure = "digest differs from the committed one"
        yield seconds, digest, failure, len(text.encode())


# The shared machine's CPU speed drifts by 15-30% over minutes, which no run
# length averages away.  After every op (outside its timing) the worker times
# a fixed calibration loop; each pass's ops are also reported in reference
# milliseconds, scaled so that the loop takes CAL_REF_MS.
CAL_STEPS = 3000
CAL_REF_MS = 2.5
SETUP_CAL_RUNS = 40  # about 0.1 s of calibration after set-up


def calibrate() -> float:
    """Seconds the calibration loop takes right now.

    The loop row-bumps a fixed pseudo-random word into lists and freezes the
    rows into tuples: the kind of work boxball does, so that a machine that
    slows boxball slows the loop alike.  It calls nothing of boxball, so no
    change to the program can move it.
    """
    t0 = time.perf_counter()
    rows, frozen, x = [], [], 12345
    for _ in range(CAL_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a = x % 9 + 1
        r = 0
        while True:
            if r == len(rows):
                rows.append([a])
                break
            row = rows[r]
            if row[-1] <= a:
                row.append(a)
                break
            i = bisect_right(row, a)
            a, row[i] = row[i], a
            r += 1
        if len(rows[0]) > 10:
            frozen.append(tuple(tuple(row) for row in rows))
            rows = []
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def work(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import boxball
    from boxball import cli

    if not Path(boxball.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"boxball imported from {boxball.__file__}, not from {ROOT / 'src'}")
    from workloads import generate

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        ops = generate(args.workload, args.seed, 0, workdir, args.size)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        cals = [calibrate() for _ in range(SETUP_CAL_RUNS)]
        # Set-up is reported in reference seconds too, scaled by the machine's
        # speed just after it.
        result = {"ready": ready, "setup_scale": CAL_REF_MS / (sum(cals) / len(cals) * 1e3)}
        if args.mode == "setup":
            return result
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        main = cli.main  # looked up after install, so the traced run gets the wrapper
        expected = load_expected(args.workload, args.seed, args.size) if args.mode != "record" else None
        one_pass = args.mode != "run"
        latencies, ref_latencies, cal_ms, failures, pass_digests, op_digests = [], [], [], [], [], []
        stdout_bytes = 0
        busy = 0.0
        p = 0
        while True:
            if p:
                ops = generate(args.workload, args.seed, p, workdir, args.size)
            digests, pass_latencies, cals = [], [], []
            for i, (seconds, digest, failure, nbytes) in enumerate(
                    run_ops(main, ops, expected if p == 0 else None)):
                cals.append(calibrate())
                busy += seconds
                pass_latencies.append(seconds)
                digests.append(digest)
                stdout_bytes += nbytes
                if failure:
                    failures.append({"pass": p, "op": i, "argv": list(ops[i]), "reason": failure})
            # Ops integrate the machine's slow-downs over their whole span, so
            # they are scaled by the pass's mean calibration time, not its median.
            scale = CAL_REF_MS / (sum(cals) / len(cals))
            latencies += pass_latencies
            ref_latencies += [seconds * scale for seconds in pass_latencies]
            cal_ms.append(sum(cals) / len(cals) * 1e3)
            pass_digests.append(pass_digest(digests))
            if p == 0:
                op_digests = digests
            p += 1
            # Whole passes only, so every run times the same op mix; stop at
            # the pass count whose time is nearest to --seconds.
            if one_pass or busy + busy / p / 2 >= args.seconds:
                break
        result.update(
            passes=p,
            busy_s=busy,
            latencies_s=latencies,
            ref_latencies_ms=ref_latencies,
            cal_ms=cal_ms,
            attempted=len(latencies),
            failed=len(failures),
            failures=failures[:10],
            digests_checked=expected is not None,
            pass_digests=pass_digests,
            stdout_bytes=stdout_bytes,
            peak_rss_mb=_peak_rss_mb(),
        )
        if args.mode == "record":
            result["op_digests"] = op_digests
        if tracer is not None:
            tracer.uninstall()
            result["per_layer"] = tracer.metrics()
            result["bases"] = tracer.bases()
            result["spans"] = len(tracer.span_start)
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}.bin")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "record"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--size", default="full")
    args = parser.parse_args(argv)
    result = work(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
