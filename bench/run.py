"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload gas --seed 0 --seconds 10 --trace 0

``--trace 0`` measures set-up in several fresh worker processes, then times
the workload untraced in one more and prints the end-to-end metrics.
``--trace 1`` runs one pass untraced and one pass traced, each in a fresh
worker, and prints the per-layer metrics.  Earlier stdout lines give the
sample count, the failures and a digest of every pass's output, so that two
commits can be compared byte for byte on any seed; the last line is one JSON
object with the keys correct, attempted, failed and metrics.

``--record-digests`` runs pass 0 of the seed once and stores each op's digest
in digests.json, for later runs of that seed to compare against.

The runner itself never imports boxball: every process that does is a fresh
``worker.py`` that imports it from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import PER_LAYER_UNITS  # noqa: E402  (imports nothing from boxball)

# Timings are in reference time (see CAL_REF_MS in worker.py): wall time
# rescaled by the machine's speed at the time, so that the metrics hold still
# while a shared machine speeds up and slows down.  setup_s keeps the name and
# unit the benchmark contract fixes, in reference seconds.  The raw wall-clock
# figures are printed on the line before the result.
END_TO_END_UNITS = {
    "ops_per_ref_s": "1/ref_s",
    "op_p50_ref_ms": "ref_ms",
    "op_p90_ref_ms": "ref_ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_RUNS = 3  # setup_s is the median over this many fresh processes
TIME_LIMIT_S = 170  # every worker of one run must end within this


class BenchError(RuntimeError):
    pass


def spawn(mode: str, args, deadline: float, seconds: float | None = None) -> tuple[dict, float]:
    """Run one worker to completion; return its result and its start time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--size", args.size]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {TIME_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    return json.loads(lines[-1]), started


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _report_outputs(result: dict, label: str) -> None:
    n = result["attempted"]
    print(f"{label}: passes={result['passes']} ops={n} failed={result['failed']} "
          f"failed_frac={result['failed'] / n:.6g} p90_samples_beyond={n // 10} "
          f"digests={'committed' if result['digests_checked'] else 'self-checks only'}")
    print(f"{label}: output_digest " + " ".join(
        f"pass{p}={d}" for p, d in enumerate(result["pass_digests"])))
    for failure in result["failures"]:
        print(f"failed op: {json.dumps(failure)}", file=sys.stderr)


def end_to_end(args, deadline: float) -> dict:
    setups, raw_setups = [], []
    for mode in ["setup"] * (SETUP_RUNS - 1) + ["run"]:
        result, started = spawn(mode, args, deadline, args.seconds if mode == "run" else None)
        raw_setups.append(result["ready"] - started)
        setups.append(raw_setups[-1] * result["setup_scale"])
    _report_outputs(result, f"{args.workload} seed={args.seed}")
    raw, ref = result["latencies_s"], result["ref_latencies_ms"]
    print(f"{args.workload} seed={args.seed}: wall clock ops_per_s={len(raw) / sum(raw):.6g} 1/s "
          f"op_p50_ms={statistics.median(raw) * 1e3:.6g} ms "
          f"op_p90_ms={statistics.quantiles(raw, n=10)[8] * 1e3:.6g} ms "
          f"setup_s={statistics.median(raw_setups):.6g} s; calibration loop "
          f"{min(result['cal_ms']):.4g}-{max(result['cal_ms']):.4g} ms over the passes")
    values = {
        "ops_per_ref_s": len(ref) / sum(ref) * 1e3,
        "op_p50_ref_ms": statistics.median(ref),
        "op_p90_ref_ms": statistics.quantiles(ref, n=10)[8],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def per_layer(args, deadline: float) -> dict:
    plain, _ = spawn("run", args, deadline, 0)  # --seconds 0: exactly one pass
    traced, _ = spawn("trace", args, deadline)
    _report_outputs(plain, f"{args.workload} seed={args.seed} untraced")
    _report_outputs(traced, f"{args.workload} seed={args.seed} traced")
    if plain["pass_digests"][0] != traced["pass_digests"][0]:
        raise BenchError("tracing changed the program's output")
    print(f"trace: spans={traced['spans']} ratio bases {json.dumps(traced['bases'])}")
    values = dict(traced["per_layer"])
    values["cli.stdout_bytes"] = traced["stdout_bytes"]
    values["trace.overhead_frac"] = sum(traced["ref_latencies_ms"]) / sum(plain["ref_latencies_ms"]) - 1
    metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    failed = plain["failed"] + traced["failed"]
    return {"correct": failed == 0, "attempted": plain["attempted"] + traced["attempted"],
            "failed": failed, "metrics": metrics}


def record_digests(args, deadline: float) -> None:
    result, _ = spawn("record", args, deadline)
    _report_outputs(result, f"{args.workload} seed={args.seed}")
    if result["failed"]:
        raise BenchError("refusing to record digests of a pass with failed ops")
    path = BENCH / "digests.json"
    committed = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    seeds = committed.get(args.workload, {})
    seeds[str(args.seed)] = result["op_digests"]
    committed[args.workload] = dict(sorted(seeds.items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps(committed, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="boxball benchmark: one workload, one seed, one run")
    parser.add_argument("--workload", required=True, help="gas, wide or verify")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="'tiny' shrinks every input, for the benchmark's own tests")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "boxball" / "cli.py").is_file():
        print(f"error: no boxball sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.record_digests:
            record_digests(args, deadline)
            return 0
        result = per_layer(args, deadline) if args.trace else end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
