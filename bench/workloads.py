"""Seeded workload generators for the boxball benchmark.

``generate(workload, seed, pass_index, workdir, size)`` writes the state files
of one pass into ``workdir`` and returns the pass's ops, each the argv handed
to ``boxball.cli.main``.  The shapes, supports and op kinds follow a fixed
schedule per op slot; the seed only draws the fillings, so every seed gives
ops of the same sizes and the latency percentiles stay comparable.  Each pass
of a run draws fresh fillings, so a later pass never replays an input.

Inputs are drawn with ``boxball.sampling``, outside the timing of every op:
pass 0 during set-up, so that sampling counts toward ``setup_s``, and each
later pass between two passes.
"""

from __future__ import annotations

import random
from pathlib import Path

from boxball import sampling
from boxball.bbs import BbsState, format_state, vacuum_column
from boxball.soliton import SolitonConfig

WORKLOADS = ("gas", "wide", "verify")
SIZES = ("full", "tiny")

Op = tuple[str, ...]

# (n, k) of the soliton gas, cycled by op slot.
GAS_SHAPES = ((4, 1), (5, 2), (6, 3))
GAS_KINDS = ("evolve", "energy", "spectrum")

# Per size: (support, op count, kinds) for each gas class.  The support-10^4
# ops are evolve only: a 10^4 spectrum re-sweeps a dozen times and would not
# fit a run.
GAS_CLASSES = {
    "full": (
        (100, 135, GAS_KINDS),
        (1000, 18, ("evolve", "evolve", "spectrum")),
        (10_000, 3, ("evolve",)),
    ),
    "tiny": ((12, 9, GAS_KINDS), (30, 3, GAS_KINDS), (60, 1, ("evolve",))),
}
# Evolve steps per k below support 10^4, chosen so that an evolve costs about
# the same for every (n, k): the median and the 90th percentile then fall
# inside a cluster of like ops instead of on the edge between two.
GAS_STEPS = {1: 4, 2: 3, 3: 2}

# Per size and k: (scatter op count, shortest and longest leading soliton).
WIDE_SCATTER = {
    "full": {1: (45, 20, 60), 2: (45, 20, 36), 3: (45, 20, 30)},
    "tiny": {1: (2, 6, 9), 2: (2, 6, 8), 3: (2, 6, 7)},
}
# Per size: (ops per k, leading soliton length per k) of heavier two-soliton
# scatters, sized to cost about the same for each k, so that the 90th
# percentile lands among many ops of like cost.
WIDE_HEAVY = {"full": (6, {1: 80, 2: 45, 3: 36}), "tiny": (1, {1: 12})}
# Per size: the few longest two-soliton ops, k = 1, as (d1, d2).
WIDE_LONG = {"full": ((100, 65), (150, 100), (300, 200)), "tiny": ((20, 12),)}
# Per size: (dense spectrum op count, smallest and largest support).
WIDE_DENSE = {"full": (6, 100, 130), "tiny": (3, 8, 12)}

VERIFY_INVARIANTS = ("energy", "commute", "yang-baxter", "knuth")
# Per size: (ops per invariant, trials per invariant in VERIFY_INVARIANTS order).
VERIFY_OPS = {"full": (30, (40, 40, 60, 200)), "tiny": (2, (3, 3, 3, 3))}


def generate(workload: str, seed: int, pass_index: int, workdir: Path, size: str = "full") -> list[Op]:
    """Write pass ``pass_index`` of ``workload`` under ``workdir``; return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    files = _StateFiles(Path(workdir), pass_index)
    return _GENERATORS[workload](rng, files, size, pass_index)


class _StateFiles:
    """Writes each state to its own numbered file and returns the path."""

    def __init__(self, workdir: Path, pass_index: int):
        self.workdir = workdir
        self.prefix = f"p{pass_index}-"
        self.count = 0

    def write(self, state: BbsState) -> str:
        path = self.workdir / f"{self.prefix}{self.count:04d}.txt"
        self.count += 1
        path.write_text(format_state(state), encoding="utf-8")
        return str(path)


def _interleave(*classes: list[Op]) -> list[Op]:
    """Merge op classes so that each is spread evenly over the pass."""
    keyed = [
        ((j + 0.5) / len(ops), c, op)
        for c, ops in enumerate(classes)
        for j, op in enumerate(ops)
    ]
    return [op for _, _, op in sorted(keyed, key=lambda item: item[:2])]


def _grid(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spaced geometrically from lo to hi."""
    if count == 1:
        return [lo]
    return [round(lo * (hi / lo) ** (j / (count - 1))) for j in range(count)]


def _occupied_column(rng: random.Random, k: int, n: int):
    vac = vacuum_column(k, n)
    while True:
        col = sampling.random_column(rng, k, n)
        if col != vac:
            return col


def _gas_state(rng: random.Random, n: int, k: int, support: int) -> BbsState:
    """About half the sites vacuum, the rest uniform columns; both ends occupied."""
    vac = vacuum_column(k, n)
    inner = [
        sampling.random_column(rng, k, n) if rng.random() < 0.5 else vac
        for _ in range(support - 2)
    ]
    cols = [_occupied_column(rng, k, n), *inner, _occupied_column(rng, k, n)]
    return BbsState(n, k, rng.randint(0, 3), cols)


def _gas(rng, files, size, pass_index):
    classes = []
    for support, count, kinds in GAS_CLASSES[size]:
        ops = []
        for j in range(count):
            n, k = GAS_SHAPES[j % len(GAS_SHAPES)]
            kind = kinds[(j // len(GAS_SHAPES)) % len(kinds)]
            path = files.write(_gas_state(rng, n, k, support))
            if kind == "evolve":
                steps = 1 if support >= 10_000 else GAS_STEPS[k]
                ops.append(("evolve", "--input", path, "--l", "3", "--steps", str(steps)))
            elif kind == "energy":
                ops.append(("energy", "--input", path, "--l", "3"))
            else:
                ops.append(("spectrum", "--input", path))
        classes.append(ops)
    return _interleave(*classes)


def _soliton_config(rng: random.Random, k: int, n: int, lengths: list[int]) -> SolitonConfig:
    """Solitons of strictly decreasing lengths, each gap at least the length
    of the soliton to its right, so that all of them scatter."""
    solitons = []
    phase = rng.randint(0, 3)
    for i, d in enumerate(lengths):
        solitons.append(sampling.random_soliton(rng, k, d, n, phase))
        if i + 1 < len(lengths):
            phase += d + lengths[i + 1] + rng.randint(0, 3)
    return SolitonConfig(n, k, tuple(solitons))


def _scatter_op(rng, files, k: int, lengths: list[int]) -> Op:
    n = min(k + 3, 6)
    state = _soliton_config(rng, k, n, lengths).build_state()
    return ("scatter", "--input", files.write(state), "--l", str(max(lengths)))


def _wide(rng, files, size, pass_index):
    scatter = []
    for j in range(max(count for count, _, _ in WIDE_SCATTER[size].values())):
        for k, (count, lo, hi) in WIDE_SCATTER[size].items():
            if j >= count:
                continue
            d1 = _grid(lo, hi, count)[j]
            # Every third config has three solitons.
            if j % 3 == 2:
                lengths = [d1, max(2, round(0.6 * d1)), max(1, round(0.3 * d1))]
            else:
                lengths = [d1, max(1, round(0.65 * d1))]
            scatter.append(_scatter_op(rng, files, k, lengths))
    count, lengths = WIDE_HEAVY[size]
    heavy = [
        _scatter_op(rng, files, k, [d1, round(0.65 * d1)])
        for _ in range(count)
        for k, d1 in lengths.items()
    ]
    longest = [_scatter_op(rng, files, 1, list(pair)) for pair in WIDE_LONG[size]]
    count, lo, hi = WIDE_DENSE[size]
    dense = []
    for j, support in enumerate(_grid(lo, hi, count)):
        n, k = GAS_SHAPES[j % len(GAS_SHAPES)]
        cols = [sampling.random_column(rng, k, n) for _ in range(support)]
        dense.append(("spectrum", "--input", files.write(BbsState(n, k, 0, cols))))
    return _interleave(scatter, heavy, dense, longest)


def _verify(rng, files, size, pass_index):
    per_invariant, trials = VERIFY_OPS[size]
    ops = [
        ("check", "--invariant", invariant, "--trials", str(t), "--seed", str(rng.randrange(10**6)))
        for _ in range(per_invariant)
        for invariant, t in zip(VERIFY_INVARIANTS, trials)
    ]
    # r-oracle ignores its seed and trial budget: once per run is enough.
    if pass_index == 0:
        ops.insert(0, ("check", "--invariant", "r-oracle", "--seed", "0"))
    return ops


_GENERATORS = {"gas": _gas, "wide": _wide, "verify": _verify}
