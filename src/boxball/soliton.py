"""Soliton detection and encoding, two-body scattering with phase shifts,
the scattering Yang-Baxter check, and experiment orchestration.

A soliton of length d is a run of d non-vacuum columns whose entries weakly
decrease to the right, with each column's bottom letter above k and the letter
above it at most k.  Its internal tableau is the run's columns in reverse
order; splitting off the bottom row gives the two components that scatter
independently under the combinatorial R.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .bbs import BbsState, Carrier, vacuum_column
from .crystal import CrystalTensor, sp, unsplit
from .rmatrix import apply_r, braid_holds
from .tableau import SemiStandardTableau


class SolitonDetectionError(ValueError):
    """A non-vacuum run does not decompose into solitons (e.g. mid-collision)."""

    def __init__(self, message: str, position: int, columns: Sequence[SemiStandardTableau]):
        run = " ".join(t.to_column_text() for t in columns)
        super().__init__(f"{message} (run at position {position}: {run})")
        self.position = position
        self.columns = tuple(columns)


@dataclass(frozen=True)
class Soliton:
    """Phase (position reference) plus the internal tableau, k rows by d columns."""

    phase: int
    internal: SemiStandardTableau

    def __post_init__(self):
        t = self.internal
        k = t.num_rows
        if k == 0 or not t.is_rectangular:
            raise ValueError("internal tableau must be a nonempty rectangle")
        if k >= 2 and any(a > k for a in t.rows[k - 2]):
            raise ValueError(f"row {k - 1} letters must be at most {k}")
        if any(a <= k for a in t.rows[k - 1]):
            raise ValueError(f"bottom-row letters must exceed {k}")

    @property
    def length(self) -> int:
        return self.internal.num_cols

    @property
    def k(self) -> int:
        return self.internal.num_rows

    @property
    def split_low(self) -> SemiStandardTableau:
        """Rows above the bottom one (letters in 1..k); empty when k = 1."""
        t = self.internal
        return SemiStandardTableau(t.rows[:-1], t.n, validate=False)

    @property
    def split_high(self) -> SemiStandardTableau:
        """The bottom row (letters in k+1..n)."""
        t = self.internal
        return SemiStandardTableau(t.rows[-1:], t.n, validate=False)

    def decode(self) -> tuple[SemiStandardTableau, ...]:
        """State columns of the run, leftmost first."""
        return sp(self.internal).factors

    def __str__(self) -> str:
        return f"zeta^{self.phase} [{self.internal}]"


def _check_run(columns: Sequence[SemiStandardTableau], k: int, start: int) -> None:
    for j, col in enumerate(columns):
        entries = [row[0] for row in col.rows]
        if entries[-1] <= k:
            raise SolitonDetectionError(
                f"bottom letter must exceed {k}", start + j, columns)
        if k >= 2 and entries[-2] > k:
            raise SolitonDetectionError(
                f"letter above the bottom must be at most {k}", start + j, columns)
    for j in range(len(columns) - 1):
        left, right = columns[j], columns[j + 1]
        if any(left.rows[i][0] < right.rows[i][0] for i in range(k)):
            raise SolitonDetectionError(
                "entries must weakly decrease to the right", start + j, columns)


def encode(columns: Sequence[SemiStandardTableau], phase: int = 0) -> Soliton:
    """Package a soliton run into its internal tableau; rejects invalid runs."""
    cols = tuple(columns)
    if not cols:
        raise ValueError("a soliton run needs at least one column")
    k = cols[0].num_rows
    _check_run(cols, k, phase)
    return Soliton(phase, unsplit(CrystalTensor(cols)))


@dataclass(frozen=True)
class SolitonConfig:
    """Solitons at strictly increasing, non-overlapping positions."""

    n: int
    k: int
    solitons: tuple[Soliton, ...]

    def __post_init__(self):
        for s in self.solitons:
            if s.k != self.k or s.internal.n != self.n:
                raise ValueError("soliton parameters must match the configuration")
        for a, b in zip(self.solitons, self.solitons[1:]):
            if b.phase < a.phase + a.length:
                raise ValueError(
                    f"solitons overlap: {a.phase}+{a.length} exceeds {b.phase}")

    @property
    def separations(self) -> tuple[int, ...]:
        return tuple(
            b.phase - a.phase - a.length
            for a, b in zip(self.solitons, self.solitons[1:])
        )

    @property
    def well_separated(self) -> bool:
        """Every gap at least the length of the soliton to its right."""
        return all(
            gap >= b.length
            for gap, b in zip(self.separations, self.solitons[1:])
        )

    def build_state(self) -> BbsState:
        if not self.solitons:
            return BbsState(self.n, self.k, 0, ())
        vac = vacuum_column(self.k, self.n)
        cols: list[SemiStandardTableau] = []
        cursor = self.solitons[0].phase
        for s in self.solitons:
            cols.extend([vac] * (s.phase - cursor))
            cols.extend(s.decode())
            cursor = s.phase + s.length
        return BbsState(self.n, self.k, self.solitons[0].phase, cols)


def detect(p: BbsState) -> SolitonConfig:
    """Split the support into maximal non-vacuum runs and encode each.

    Raises :class:`SolitonDetectionError` (with the offending run) when any
    run is not a soliton, as happens mid-collision.
    """
    vac = vacuum_column(p.k, p.n)
    solitons = []
    i = 0
    while i < len(p.columns):
        if p.columns[i] == vac:
            i += 1
            continue
        j = i
        while j < len(p.columns) and p.columns[j] != vac:
            j += 1
        solitons.append(encode(p.columns[i:j], p.offset + i))
        i = j
    return SolitonConfig(p.n, p.k, tuple(solitons))


def predict_two_body(s1: Soliton, s2: Soliton) -> tuple[Soliton, Soliton, int]:
    """Scattering of a longer soliton through a shorter one to its right.

    Both split components exchange through their own combinatorial R, and the
    common phase shift is twice the shorter length plus the two energies.
    Returns (right-mover-out-first): the outgoing shorter soliton, the
    outgoing longer one, and the shift.
    """
    if s1.length <= s2.length:
        raise ValueError("the left soliton must be strictly longer")
    if s1.k != s2.k or s1.internal.n != s2.internal.n:
        raise ValueError("solitons must share k and the alphabet bound")
    low = apply_r(s1.split_low, s2.split_low)
    high = apply_r(s1.split_high, s2.split_high)
    delta = 2 * s2.length + high.energy + low.energy
    n = s1.internal.n
    v_out = SemiStandardTableau(low.left_out.rows + high.left_out.rows, n)
    u_out = SemiStandardTableau(low.right_out.rows + high.right_out.rows, n)
    return Soliton(s2.phase - delta, v_out), Soliton(s1.phase + delta, u_out), delta


def predict_final(cfg: SolitonConfig) -> tuple[Soliton, ...]:
    """Asymptotic outgoing solitons: pair scatterings applied until lengths
    weakly increase left to right (order-independent by Yang-Baxter)."""
    sols = list(cfg.solitons)
    while True:
        for i in range(len(sols) - 1):
            if sols[i].length > sols[i + 1].length:
                shorter, longer, _ = predict_two_body(sols[i], sols[i + 1])
                sols[i], sols[i + 1] = shorter, longer
                break
        else:
            return tuple(sols)


def scattering_yang_baxter(s1: Soliton, s2: Soliton, s3: Soliton) -> bool:
    """Both bracketings of the three-body factorization give the same triple."""
    return braid_holds(predict_two_body, s1, s2, s3)


@dataclass(frozen=True)
class VacuumAlphabet:
    """Column builders for the letters spanning highest-weight soliton states,
    plus the carrier values they drive.

    All five columns share the prefix 1..k-2; they differ in the two bottom
    entries (for k = 1 only the bottom entry exists).
    """

    k: int
    n: int

    def _col(self, a: int, b: int) -> SemiStandardTableau:
        entries = list(range(1, self.k - 1))
        if self.k >= 2:
            entries.append(a)
        entries.append(b)
        return SemiStandardTableau.column(entries, self.n)

    def zero(self) -> SemiStandardTableau:
        return self._col(self.k - 1, self.k)

    def one(self) -> SemiStandardTableau:
        return self._col(self.k - 1, self.k + 1)

    def two(self, sign) -> SemiStandardTableau:
        if sign in ("+", +1):
            return self._col(self.k, self.k + 1)
        if sign in ("-", -1):
            return self._col(self.k - 1, self.k + 2)
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")

    def three(self) -> SemiStandardTableau:
        return self._col(self.k, self.k + 2)

    def four(self) -> SemiStandardTableau:
        return self._col(self.k + 1, self.k + 2)

    def xi(self, i: int, l: int) -> SemiStandardTableau:
        """Carrier with i loaded columns: zero^(l-i) followed by one^i."""
        if not 0 <= i <= l:
            raise ValueError(f"need 0 <= i <= l, got i={i}, l={l}")
        zero = tuple(row[0] for row in self.zero().rows)
        one = tuple(row[0] for row in self.one().rows)
        return SemiStandardTableau.from_columns([zero] * (l - i) + [one] * i, self.n)


def highest_weight_two_soliton(
    n: int, k: int, c1: int, d1: int, c2: int,
    alpha: int, beta: int, d2: int, sign,
) -> BbsState:
    """Two-soliton state killed by every raising operator except index k.

    The first soliton is a block of d1 ``one`` columns at c1; the second,
    at c2, reads three^alpha two^(d2-alpha-beta) one^beta left to right.
    """
    if d1 <= d2:
        raise ValueError("the first soliton must be strictly longer")
    if alpha < 0 or beta < 0 or alpha + beta > d2:
        raise ValueError("need 0 <= alpha + beta <= d2")
    if c2 - c1 - d1 < 0:
        raise ValueError("the solitons overlap")
    va = VacuumAlphabet(k, n)
    cols = [va.one()] * d1
    cols.extend([va.zero()] * (c2 - c1 - d1))
    cols.extend([va.three()] * alpha)
    cols.extend([va.two(sign)] * (d2 - alpha - beta))
    cols.extend([va.one()] * beta)
    return BbsState(n, k, c1, cols)


def phase_adjust(cfg: SolitonConfig, l: int, t: int) -> tuple[Soliton, ...]:
    """Detected positions at time t converted to phases: each soliton of
    length d has moved min(d, l) per step."""
    return tuple(
        Soliton(s.phase - min(s.length, l) * t, s.internal) for s in cfg.solitons
    )


@dataclass(frozen=True)
class ExperimentResult:
    initial: SolitonConfig
    l: int
    states: tuple[BbsState, ...]             # states[t] is the state after t steps
    detections: tuple[SolitonConfig | None, ...]  # raw positions; None mid-collision
    predicted: tuple[Soliton, ...]
    observed: tuple[Soliton, ...] | None     # phase-adjusted final detection
    matches: tuple[bool, ...] | None

    @property
    def steps_run(self) -> int:
        return len(self.states) - 1

    @property
    def all_match(self) -> bool:
        return self.matches is not None and len(self.matches) > 0 and all(self.matches)


MAX_STEPS = 64


def _fully_scattered(cfg: SolitonConfig) -> bool:
    sols = cfg.solitons
    if any(a.length > b.length for a, b in zip(sols, sols[1:])):
        return False
    return all(gap >= a.length for gap, a in zip(cfg.separations, sols))


def run_experiment(cfg: SolitonConfig, l: int, steps: int | None = None) -> ExperimentResult:
    """Evolve the configuration and compare detection with the prediction.

    With an explicit ``steps`` the evolution runs exactly that long; with
    ``steps=None`` it stops as soon as the detected solitons sit in weakly
    increasing length order with gaps covering their left neighbors, capped
    at ``MAX_STEPS``.  Detection failures mid-collision are recorded as None.
    """
    state = cfg.build_state()
    states = [state]
    detections: list[SolitonConfig | None] = [cfg]
    predicted = predict_final(cfg)
    budget = steps if steps is not None else MAX_STEPS
    carrier = Carrier(state.n, state.k, l)
    t = 0
    while t < budget:
        state, _ = carrier.sweep(state)
        t += 1
        try:
            det: SolitonConfig | None = detect(state)
        except SolitonDetectionError:
            det = None
        states.append(state)
        detections.append(det)
        if steps is None and det is not None and _fully_scattered(det):
            break
    observed = None
    matches = None
    if detections[-1] is not None:
        observed = phase_adjust(detections[-1], l, t)
        if len(observed) == len(predicted):
            matches = tuple(o == q for o, q in zip(observed, predicted))
        else:
            matches = (False,) * len(predicted)
    return ExperimentResult(
        cfg, l, tuple(states), tuple(detections), predicted, observed, matches
    )
