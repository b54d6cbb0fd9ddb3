"""Box-ball states on a line of capacity-k columns, carrier time evolution,
and the conserved quantities it preserves.

A state is a finite window of columns embedded in an infinite sea of vacuum
columns; ``offset`` records the absolute position of the first stored column.
The evolution sweeps a width-l carrier left to right through the window,
exchanging carrier and column with the combinatorial R at every site until
the carrier returns to its rest value.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import attrgetter

from .insertion import rectify
from .rmatrix import _r_rows
from .tableau import SemiStandardTableau, TableauError, Word, restrict


class CarrierError(RuntimeError):
    """The carrier failed to return to its rest value within the bound of :func:`evolve`."""


class StateParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@lru_cache(maxsize=None)
def vacuum_column(k: int, n: int) -> SemiStandardTableau:
    """The empty-box column, holding the letters 1..k."""
    return SemiStandardTableau.column(range(1, k + 1), n)


def vacuum_block(k: int, l: int, n: int) -> SemiStandardTableau:
    """The carrier's rest value: l copies of the vacuum column.

    Not cached: a cache would keep a k x l tableau for every width ever
    swept, evicted carriers included.
    """
    return SemiStandardTableau.from_columns([tuple(range(1, k + 1))] * l, n)


class BbsState:
    """Finite support plus offset; positions outside the window are vacuum.

    Construction canonicalizes: leading and trailing vacuum columns are
    absorbed into the offset, so equal states compare equal regardless of how
    much vacuum padding they were built with.
    """

    __slots__ = ("n", "k", "offset", "columns")

    def __init__(self, n: int, k: int, offset: int, columns: Iterable[SemiStandardTableau]):
        n, k, offset = int(n), int(k), int(offset)
        if not 1 <= k < n:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
        cols = tuple(columns)
        expected = (1,) * k
        # The shape depends on the filling alone, and a state holds at most
        # C(n, k) distinct fillings: check each one once.
        for rows in set(map(attrgetter("rows"), cols)):
            shape = tuple(map(len, rows))
            if shape != expected:
                raise ValueError(f"columns must have {k} rows of one cell, got shape {shape}")
        if not set(map(attrgetter("n"), cols)) <= {n}:
            raise ValueError("column alphabet bound does not match the state")
        vac = vacuum_column(k, n)
        lo, hi = 0, len(cols)
        while lo < hi and cols[lo] == vac:
            lo += 1
        while hi > lo and cols[hi - 1] == vac:
            hi -= 1
        self.n = n
        self.k = k
        self.offset = offset + lo if lo < hi else 0
        self.columns = cols[lo:hi]

    @property
    def support(self) -> int:
        return len(self.columns)

    def is_vacuum(self) -> bool:
        return not self.columns

    def column_at(self, pos: int) -> SemiStandardTableau:
        if self.offset <= pos < self.offset + len(self.columns):
            return self.columns[pos - self.offset]
        return vacuum_column(self.k, self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BbsState):
            return NotImplemented
        return (self.n, self.k, self.offset, self.columns) == (
            other.n, other.k, other.offset, other.columns,
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.offset, self.columns))

    def __repr__(self) -> str:
        return f"BbsState(n={self.n}, k={self.k}, offset={self.offset}, {format_columns(self)!r})"


@dataclass(frozen=True)
class CarrierTrace:
    """Carrier values and emissions from one sweep; the first and last
    carrier states equal the rest value."""

    carriers: tuple[SemiStandardTableau, ...]
    outputs: tuple[SemiStandardTableau, ...]
    site_energies: tuple[int, ...]


class Carrier:
    """A width-l carrier over (n, k) that keeps the R outcomes of all its sweeps.

    Its table ``(carrier id, column rows) -> (output, next carrier id, H)``
    has carriers interned to ints, 0 the rest value.  A miss evaluates R on
    rows with :func:`rmatrix._r_rows`.  Every column filling the carrier
    meets or emits is interned by its rows, so the table's keys and values
    share at most C(n, k) column tableaux, whichever states it swept.  It
    never sweeps a state over another (n, k): tableau equality ignores
    ``n``, so the table would mix alphabets.

    Sweeps take their carrier from :func:`carrier`, which keeps one per
    (n, k, l) for every command of the process, within a bound on the total
    :attr:`weight`.  So the table outlives the command that filled it in a
    library session or a benchmark that runs many commands in one process,
    not in a one-shot CLI process.
    """

    def __init__(self, n: int, k: int, l: int):
        if l < 1:
            raise ValueError("carrier width must be positive")
        self.n, self.k, self.l = n, k, l
        rest = vacuum_block(k, l, n)
        self.carriers = [rest]
        self.carrier_ids = {rest.rows: 0}
        self.columns: dict = {}
        self.table: dict = {}
        # A shared carrier can be swept by several threads; a miss extends
        # the interning list and dicts as one step.
        self._lock = threading.Lock()

    @property
    def weight(self) -> int:
        """What the carrier retains, in units of about 11 bytes: 20 per table
        entry and k * l per interned carrier."""
        return 20 * len(self.table) + self.k * self.l * len(self.carriers)

    def sweep(self, p: BbsState) -> tuple[BbsState, CarrierTrace]:
        """One time step of the width-l evolution; see :func:`evolve`."""
        if (p.n, p.k) != (self.n, self.k):
            raise ValueError(f"state over n={p.n}, k={p.k} given to a carrier over n={self.n}, k={self.k}")
        n, l, carriers, carrier_ids, columns, table, lock = (
            self.n, self.l, self.carriers, self.carrier_ids, self.columns, self.table, self._lock)
        support = p.support
        cid = 0
        ids = [0]
        outputs: list[SemiStandardTableau] = []
        energies: list[int] = []
        for site, b in enumerate(chain(p.columns, repeat(vacuum_column(p.k, p.n), l))):
            if site >= support and not cid:
                break
            key = (cid, b.rows)
            hit = table.get(key)
            if hit is None:
                # _r_rows is looked up in the module globals on every miss, so a
                # patched R sees each evaluation.
                left, right, h = _r_rows(carriers[cid].rows, b.rows, n)
                with lock:
                    nid = carrier_ids.get(right)
                    if nid is None:
                        new = SemiStandardTableau(right, n, validate=False)
                        nid = carrier_ids[new.rows] = len(carriers)
                        carriers.append(new)
                    out = columns.get(left)
                    if out is None:
                        out = SemiStandardTableau(left, n, validate=False)
                        columns[out.rows] = out
                    # Keyed by the interned filling: the state's own rows die with it.
                    hit = table[cid, columns.setdefault(b.rows, b).rows] = (out, nid, h)
            out, cid, h = hit
            outputs.append(out)
            ids.append(cid)
            energies.append(h)
        if cid:
            raise CarrierError(f"carrier did not stabilize within {support + l} sites")
        new_state = BbsState(p.n, p.k, p.offset, outputs)
        trace = CarrierTrace(tuple(carriers[i] for i in ids), tuple(outputs), tuple(energies))
        return new_state, trace

    def energy(self, p: BbsState) -> int:
        """E_l of ``p``, l this carrier's width: minus the summed local
        energies of one sweep.

        Independent of the window length: once the carrier rests, every
        further site contributes zero.  The sweep reads and extends this
        carrier's table, so taking E_l of many states through one carrier
        evaluates R once per distinct (carrier, column) pair among them.
        """
        return -sum(self.sweep(p)[1].site_energies)


# The carriers of the process, least recently fetched first.  Keyed by
# (n, k, l): tableau equality ignores n, so one table must never serve two
# alphabets.  Wide carriers weigh k * l per interned carrier, so the bound is
# on the weight, not on a count of entries.  It was chosen from measured peak
# RSS: about 0.55 MB of tables, and doubling it raised the peak RSS of a run
# of seeded checks by a further 2.4%.
CARRIER_WEIGHT_BOUND = 50_000
_registry: dict[tuple[int, int, int], Carrier] = {}
_registry_lock = threading.Lock()


def carrier(n: int, k: int, l: int) -> Carrier:
    """The width-l carrier over (n, k) that every sweep of the process shares.

    After every fetch the kept carriers weigh at most ``CARRIER_WEIGHT_BOUND``
    (about 0.55 MB) in all: whole carriers are dropped, least recently fetched
    first, and one that alone weighs more than the bound when fetched is
    replaced by a cold one.  A carrier keeps growing while it is used, and is
    weighed again at the next fetch.
    """
    key = (n, k, l)
    with _registry_lock:
        c = _registry.pop(key, None)
        if c is None or c.weight > CARRIER_WEIGHT_BOUND:
            c = Carrier(n, k, l)
        _registry[key] = c
        total = sum(map(attrgetter("weight"), _registry.values()))
        for old in list(_registry):
            if total <= CARRIER_WEIGHT_BOUND:
                break
            total -= _registry.pop(old).weight
    return c


def clear_carriers() -> None:
    """Drop every shared carrier, so that the next sweeps start cold."""
    with _registry_lock:
        _registry.clear()


def evolve(p: BbsState, l: int) -> tuple[BbsState, CarrierTrace]:
    """One time step of the width-l evolution.

    The carrier sweeps the stored columns, then vacuum columns until it is
    back at rest.  Fed vacuum, a carrier in B^{k,l} is back at rest within l
    sites, so a sweep visits at most support + l sites; a carrier still away
    from rest after them raises :class:`CarrierError`.  The bound is proved
    for k = 1, where each vacuum site swaps the carrier's largest letter for
    a 1.  For every k it follows if each vacuum site leaves at least one
    fewer carrier column that differs from 1..k; the tests check that on
    every carrier with n <= 5 and l <= 3.  The result is re-canonicalized
    with its offset updated.

    The sweep runs on the shared :func:`carrier`, so R is evaluated once per
    (carrier, column) pair that no sweep of the process has met while that
    carrier was kept: the table outlives the call within the weight bound,
    in a library session, not across one-shot CLI processes.  Each
    evaluation column-inserts the k letters of the column into the carrier,
    so its work does not grow with l.
    """
    return carrier(p.n, p.k, l).sweep(p)


def energy_e(p: BbsState, l: int) -> int:
    """E_l: minus the summed local energies of one width-l carrier pass.

    One sweep of the shared :func:`carrier`, whose table outlives the call
    within the weight bound, so E_l of many states in one process evaluates
    R once per distinct (carrier, column) pair the kept carriers hold.
    """
    return carrier(p.n, p.k, l).energy(p)


def soliton_spectrum(p: BbsState) -> dict[int, int]:
    """Counts of solitons per length, solved from the energy sequence.

    With soliton content λ, E_l = Σ_j min(l, λ_j), so the increment
    Δ_l = E_l - E_{l-1} counts the solitons of length at least l, and the
    counts are the second differences of E_0 = 0, E_1, E_2, ....  The
    sequence climbs to T, the number of letters above k in the state:

    - R keeps letters, and the rest carrier holds none above k, so a carrier
      that meets a column with b such letters holds at most T - b of them.
    - Against a column c_1 < ... < c_k, -H is the excess over k of the
      longest strictly decreasing subsequence of the product's reading word
      (Schensted), and that word is c_k ... c_1 followed by the carrier's
      row word.  So -H = max(0, max_m (#{i : x_i < c_m} - (m - 1))), where
      x_1 < ... < x_k is the carrier's first column.
    - Let c have b letters above k.  Where c_m <= k, c_m <= b + m and the
      count is at most c_m - 1; where c_m > k, m > k - b and the count is at
      most k.  Either way the term is at most b, so -H <= b and E_l <= T.
    - At the smallest c_m above k the term is b when the carrier's first
      column is 1..k.  A first column with a letter above k fills that row
      with such letters, l of them; for l >= T that is more than T - b
      whenever b >= 1.  So -H = b at every column, and E_l = T, once
      l >= T.  For k = 1 this is the classical carrier rule: a carrier
      wider than T always holds a 1 below an incoming ball.

    So the sweeps stop at the first m where E_m = T or Δ_m <= 1: past m at
    most one soliton is left, and E_l = min(T, E_m + Δ_m (l - m)).  Each
    earlier sweep raises E by at least 2, so there are at most T / 2 + 1.
    An E_l above T, or a sequence that stops rising below T, raises
    :class:`RuntimeError`; a negative count raises :class:`ValueError`.
    """
    if p.is_vacuum():
        return {}
    balls = sum(a > p.k for col in p.columns for (a,) in col.rows)
    energies = [0]
    while energies[-1] < balls:
        l = len(energies)
        e = energy_e(p, l)
        rise = e - energies[-1]
        if e > balls:
            raise RuntimeError(f"E_{l} = {e} exceeds the {balls} letters above k")
        if rise <= 0:
            raise RuntimeError(f"energy sequence stopped rising at E_{l} = {e}, below {balls}")
        energies.append(e)
        if rise == 1:
            break
    # At most one soliton is left: E_l climbs by one to T, then stays there.
    energies.extend(range(energies[-1] + 1, balls + 1))
    energies.append(balls)
    spectrum: dict[int, int] = {}
    for d in range(1, len(energies) - 1):
        count = 2 * energies[d] - energies[d - 1] - energies[d + 1]
        if count < 0:
            raise ValueError(f"negative soliton count N_{d} = {count}")
        if count:
            spectrum[d] = count
    return spectrum


def window_word(p: BbsState, lo: int, hi: int) -> Word:
    """Row words of the columns at positions hi-1 down to lo, concatenated."""
    out: list[int] = []
    for pos in range(hi - 1, lo - 1, -1):
        out.extend(p.column_at(pos).row_word())
    return tuple(out)


def conserved_tableaux(
    p: BbsState,
    l: int,
    carrier_side: str = "right",
    window: tuple[int, int] | None = None,
) -> tuple[SemiStandardTableau, SemiStandardTableau]:
    """Rectifications of the letter-restricted state word: (letters <= k, letters > k).

    The carrier block's row word joins the state word on ``carrier_side``:
    "right" is the pre-step convention and "left" the post-step one, and over
    a common window the two sides of one evolution step rectify identically.
    The default window is the canonical support padded by l on each side.
    """
    if window is None:
        window = (p.offset - l, p.offset + len(p.columns) + l)
    lo, hi = window
    w = window_word(p, lo, hi)
    cw = vacuum_block(p.k, l, p.n).row_word()
    if carrier_side == "right":
        full = w + cw
    elif carrier_side == "left":
        full = cw + w
    else:
        raise ValueError(f"carrier_side must be 'right' or 'left', got {carrier_side!r}")
    low = rectify(restrict(full, 1, p.k), p.n)
    high = rectify(restrict(full, p.k + 1, p.n), p.n)
    return low, high


# -- text form ---------------------------------------------------------------
#
# Line 1: "n=<int> k=<int> offset=<int>".  Line 2: whitespace-separated
# columns, each "a/b/.../z" top to bottom, "." for the vacuum column.
# Trajectory files carry one column line per time step, all relative to the
# header offset.

_HEADER = re.compile(r"n=(\d+) k=(\d+) offset=(-?\d+)\s*$")


def format_columns(p: BbsState, base_offset: int | None = None) -> str:
    base = p.offset if base_offset is None else base_offset
    if p.offset < base:
        raise ValueError("base offset must not exceed the state offset")
    vac = vacuum_column(p.k, p.n)
    # A state holds at most C(n, k) distinct fillings: render each one once.
    fillings = list(map(attrgetter("rows"), p.columns))
    distinct = dict(zip(fillings, p.columns))
    text = {rows: "." if col == vac else col.to_column_text() for rows, col in distinct.items()}
    tokens = ["."] * (p.offset - base)
    tokens.extend(map(text.__getitem__, fillings))
    return " ".join(tokens)


def format_state(p: BbsState) -> str:
    return f"n={p.n} k={p.k} offset={p.offset}\n{format_columns(p)}\n"


def format_trajectory(states: Sequence[BbsState]) -> str:
    if not states:
        raise ValueError("empty trajectory")
    n, k = states[0].n, states[0].k
    if any(s.n != n or s.k != k for s in states):
        raise ValueError("trajectory states must share n and k")
    base = min(s.offset for s in states)
    lines = [f"n={n} k={k} offset={base}"]
    lines.extend(format_columns(s, base) for s in states)
    return "\n".join(lines) + "\n"


def _parse_header(line: str) -> tuple[int, int, int]:
    m = _HEADER.match(line.strip())
    if m is None:
        raise StateParseError("expected header 'n=<int> k=<int> offset=<int>'", 1, 1)
    n, k, offset = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if not 1 <= k < n:
        raise StateParseError(f"need 1 <= k < n, got k={k}, n={n}", 1, 1)
    return n, k, offset


def _parse_columns(line: str, n: int, k: int, lineno: int) -> list[SemiStandardTableau]:
    # Equal tokens share one validated tableau.
    seen = {".": vacuum_column(k, n)}
    cols = []
    for m in re.finditer(r"\S+", line):
        token, column = m.group(), m.start() + 1
        if token not in seen:
            parts = token.split("/")
            if len(parts) != k:
                raise StateParseError(f"column {token!r} needs {k} entries", lineno, column)
            try:
                entries = [int(x) for x in parts]
            except ValueError:
                raise StateParseError(f"bad letter in column {token!r}", lineno, column) from None
            try:
                seen[token] = SemiStandardTableau.column(entries, n)
            except TableauError as exc:
                raise StateParseError(str(exc), lineno, column) from None
        cols.append(seen[token])
    return cols


def parse_state(text: str) -> BbsState:
    lines = text.splitlines()
    if not lines:
        raise StateParseError("empty input", 1, 1)
    n, k, offset = _parse_header(lines[0])
    for extra, line in enumerate(lines[2:], start=3):
        if line.strip():
            raise StateParseError("expected a single state line", extra, 1)
    body = lines[1] if len(lines) > 1 else ""
    return BbsState(n, k, offset, _parse_columns(body, n, k, 2))


def parse_trajectory(text: str) -> list[BbsState]:
    lines = text.splitlines()
    if not lines:
        raise StateParseError("empty input", 1, 1)
    n, k, offset = _parse_header(lines[0])
    return [
        BbsState(n, k, offset, _parse_columns(line, n, k, lineno))
        for lineno, line in enumerate(lines[1:], start=2)
    ]
