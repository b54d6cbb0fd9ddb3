"""Tests of the benchmark itself, kept out of the repository's tier-1 suite:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter_ns

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import worker  # noqa: E402
import workloads  # noqa: E402
from boxball import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_named_metric_with_its_unit(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(" output_digest pass0=" in line for line in lines)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload, count", [("gas", 12), ("wide", 12), ("verify", None)])
def test_committed_digests_verify(tmp_path, workload, count):
    ops = workloads.generate(workload, 0, 0, tmp_path)
    expected = worker.load_expected(workload, 0, "full")
    assert expected is not None and len(expected) == len(ops)
    ops, expected = ops[:count], expected[:count]
    failures = [failure for _, _, failure, _ in worker.run_ops(cli.main, ops, expected)]
    assert failures == [None] * len(ops)


def _corrupting(target_argv, edit):
    """cli.main, except that one op's stdout is passed through ``edit``."""

    def main(argv):
        if argv != list(target_argv):
            return cli.main(argv)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        sys.stdout.write(edit(buf.getvalue()))
        return code

    return main


def test_corrupted_output_fails_its_committed_digest(tmp_path):
    ops = workloads.generate("gas", 0, 0, tmp_path)[:12]
    expected = worker.load_expected("gas", 0, "full")[:12]
    target = next(i for i, op in enumerate(ops) if op[0] == "energy")

    def off_by_one(text):  # still a well-formed energy line
        name, value = text.split("=")
        return f"{name}={int(value) - 1}\n"

    main = _corrupting(ops[target], off_by_one)
    failures = [failure for _, _, failure, _ in worker.run_ops(main, ops, expected)]
    assert failures[target] == "digest differs from the committed one"
    assert sum(f is not None for f in failures) == 1


def test_corrupted_output_fails_its_self_check_without_digests(tmp_path):
    ops = workloads.generate("verify", 12345, 0, tmp_path, "tiny")
    main = _corrupting(ops[1], lambda text: text.replace(": PASS", ": FAIL"))
    failures = [failure for _, _, failure, _ in worker.run_ops(main, ops)]
    assert failures[1] == "check did not PASS"
    assert sum(f is not None for f in failures) == 1


@pytest.mark.parametrize("workload", ["wide", "verify"])
def test_span_self_times_are_nonnegative_and_within_wall_time(tmp_path, workload):
    ops = workloads.generate(workload, 5, 0, tmp_path, "tiny")
    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter_ns()
        failures = [failure for _, _, failure, _ in worker.run_ops(cli.main, ops)]
        wall = perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    assert failures == [None] * len(ops)
    self_ns = tracer.self_times()
    assert len(self_ns) > len(ops)
    assert min(self_ns) >= 0
    assert sum(self_ns) <= wall
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the originals


def test_generator_takes_the_seed_and_the_program_gets_only_files_and_argv(tmp_path):
    def pass_of(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        ops = workloads.generate("gas", seed, 0, workdir, "tiny")
        for op in ops:
            inputs = [op[i + 1] for i, token in enumerate(op) if token == "--input"]
            assert len(inputs) == 1 and Path(inputs[0]).parent == workdir
            assert all(not Path(token).exists() for token in op if token not in inputs)
        files = sorted(workdir.iterdir())
        argv = [tuple(token.replace(str(workdir), "<dir>") for token in op) for op in ops]
        return argv, [f.read_text(encoding="utf-8") for f in files]

    first, again, other = pass_of(7, "a"), pass_of(7, "b"), pass_of(8, "c")
    assert first == again
    assert first[0] == other[0] and first[1] != other[1]


def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench("--workload", "gas", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
