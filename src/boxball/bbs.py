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
from array import array
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from functools import lru_cache, partial
from itertools import chain, compress, islice, repeat
from operator import and_, attrgetter, is_, itemgetter, neg, rshift

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


class CarrierTrace:
    """Carrier values and emissions from one sweep; the first and last
    carrier states equal the rest value.

    A sweep keeps the column ids it read and each site's emission, -H and
    the output column's id.  ``site_energies`` is decoded from the
    emissions, and ``carriers`` replayed from the column ids through the
    carrier's transitions, each when first read, so a sweep whose trace is
    never read builds neither; until then the trace keeps its carrier
    alive.  Traces compare by their three fields, however they were built.
    """

    __slots__ = ("_carriers", "outputs", "_site_energies")

    def __init__(self, carriers, outputs: tuple[SemiStandardTableau, ...], site_energies):
        # ``carriers`` and ``site_energies`` are tuples, or functions that
        # build them.
        self._carriers = carriers
        self.outputs = outputs
        self._site_energies = site_energies

    def _built(self, name: str) -> tuple:
        value = getattr(self, name)
        if callable(value):
            value = value()
            setattr(self, name, value)
        return value

    carriers = property(lambda self: self._built("_carriers"),
                        doc="The carrier tableaux, from the rest value to the rest value.")
    site_energies = property(lambda self: self._built("_site_energies"),
                             doc="The local energy H of each site.")

    def _fields(self) -> tuple:
        return self.carriers, self.outputs, self.site_energies

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CarrierTrace):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "CarrierTrace(carriers={!r}, outputs={!r}, site_energies={!r})".format(*self._fields())


# A carrier key packs the letters one array item each, in the narrowest of
# these unsigned typecodes that holds n; a larger n takes fixed-width bytes.
_TYPECODES = "BHIQ"
# Transition slots per carrier until it meets more column fillings; C(n, k)
# when that is fewer.
_FIRST_STRIDE = 64
# Column ids fit in 32 bits: more fillings than that would not fit in memory.
_MAX_COLUMNS = 1 << 32
_UNKNOWN = array("q", [-1])  # a transition slot not filled yet
# The bytes a carrier retains besides 8 per transition slot and its keys'
# letters, measured with tracemalloc: per interned carrier (its bytes
# object, dict entry and list slot), and per interned column (its tableau,
# rows, dict entry and list slot) plus per column letter.
_CARRIER_BYTES = 100
_COLUMN_BYTES = 200
_COLUMN_LETTER_BYTES = 60
_ROWS = attrgetter("rows")


def _count_fillings(n: int, k: int, cap: int) -> int:
    """min(C(n, k), cap), in at most about log2(cap) steps."""
    count = 1
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)
        if count >= cap:
            return cap
    return count


class Carrier:
    """A width-l carrier over (n, k) as a finite automaton that learns its
    transitions as it sweeps: Takahashi's carrier, lifted to B^{k,l}.

    Its inputs are the column fillings it meets or emits, interned as ids
    0, 1, ... in the order met, at most C(n, k) of them, each kept as one
    tableau over 1..n.  Its states are the carriers it has reached, each
    interned by a bytes key that packs its rows' letters in the narrowest
    unsigned array typecode that holds n; id 0 is the rest value.  Its
    transitions fill one flat ``array('q')``, a row of slots per carrier and
    a slot per column id: -1 where unknown, else the next carrier id, -H and
    the output column id packed in one int.  A row has min(C(n, k), 64)
    slots, doubled as more fillings are met.  A miss decodes the carrier's
    rows from its key, evaluates R on them with :func:`rmatrix._r_rows`, and
    fills the slot.  It never sweeps a state over another (n, k): tableau
    equality ignores ``n``, so the table would mix alphabets.

    Sweeps take their carrier from :func:`carrier`, which keeps one per
    (n, k, l) for every command of the process, within a bound on the total
    :attr:`weight` in bytes.  So the table outlives the command that filled
    it in a library session or a benchmark that runs many commands in one
    process, not in a one-shot CLI process.
    """

    def __init__(self, n: int, k: int, l: int):
        if l < 1:
            raise ValueError("carrier width must be positive")
        self.n, self.k, self.l = n, k, l
        typecode = next((t for t in _TYPECODES if n < 1 << 8 * array(t).itemsize), None)
        if typecode == "B":
            # One byte a letter: the key's bytes are the letters, so a miss
            # decodes its key with no copy.  Against the array path below,
            # this sweeps `gas` about 4% faster with less peak memory.
            self._pack = self._letters = bytes
        elif typecode:
            self._pack = lambda letters: array(typecode, letters).tobytes()
            self._letters = partial(array, typecode)
        else:
            width = (n.bit_length() + 7) // 8
            self._pack = lambda letters: b"".join(a.to_bytes(width, "big") for a in letters)
            self._letters = lambda key: [int.from_bytes(key[i:i + width], "big") for i in range(0, len(key), width)]
        # A transition packs (next carrier, -H, output column), -H in 0..k.
        columns = _count_fillings(n, k, _MAX_COLUMNS)
        self._column_bits = (columns - 1).bit_length()
        self._carrier_shift = self._column_bits + k.bit_length()
        self._column_mask = (1 << self._column_bits) - 1
        self._max_stride = columns
        stride = min(columns, _FIRST_STRIDE)
        # The transitions and the slots per carrier, replaced as one value
        # when a carrier meets more column fillings than it has slots for.
        self._table = (array("q"), stride)
        # A key's letters, cut into its k rows.
        self._split = itemgetter(*(slice(i * l, (i + 1) * l) for i in range(k))) if k > 1 else lambda row: (row,)
        self._keys: list[bytes] = []
        self._key_ids: dict[bytes, int] = {}
        self._key_bytes = 0
        self._columns: list[SemiStandardTableau] = []
        self._column_ids: dict = {}
        self._counted = 0  # this carrier's weight in the registry's total
        # A shared carrier can be swept by several threads; a miss extends
        # the interning lists, dicts and transitions as one step.
        self._lock = threading.Lock()
        self._add_column(vacuum_column(k, n))
        self._add_carrier(b"".join(self._pack((a,)) * l for a in range(1, k + 1)))

    @property
    def weight(self) -> int:
        """The bytes the carrier retains: 8 per transition slot, each
        carrier's key and its interning, and each column tableau."""
        return (8 * len(self._table[0]) + self._key_bytes + _CARRIER_BYTES * len(self._keys)
                + (_COLUMN_BYTES + _COLUMN_LETTER_BYTES * self.k) * len(self._columns))

    def _add_carrier(self, key: bytes) -> int:
        cid = len(self._keys)
        self._keys.append(key)
        self._key_ids[key] = cid
        self._key_bytes += len(key)
        transitions, stride = self._table
        transitions.extend(_UNKNOWN * stride)
        return cid

    def _add_column(self, column: SemiStandardTableau) -> int:
        j = len(self._columns)
        old, stride = self._table
        if j == stride:
            # Double the slots per carrier, up to C(n, k).
            wide = min(2 * stride, self._max_stride)
            new = _UNKNOWN * (len(old) // stride * wide)
            for i in range(len(old) // stride):
                new[i * wide:i * wide + stride] = old[i * stride:(i + 1) * stride]
            self._table = (new, wide)
        self._columns.append(column)
        self._column_ids[column.rows] = j
        return j

    def _miss(self, cid: int, j: int) -> int:
        """Evaluate R on carrier ``cid`` and column ``j``, store the packed
        transition and return it."""
        n = self.n
        # _r_rows is looked up in the module globals on every miss, so a
        # patched R sees each evaluation.
        left, right, h = _r_rows(self._split(self._letters(self._keys[cid])), self._columns[j].rows, n)
        key = self._pack(chain.from_iterable(right))
        with self._lock:
            nid = self._key_ids.get(key)
            if nid is None:
                nid = self._add_carrier(key)
            out = self._column_ids.get(left)
            if out is None:
                out = self._add_column(SemiStandardTableau(left, n, validate=False))
            packed = nid << self._carrier_shift | -h << self._column_bits | out
            transitions, stride = self._table
            transitions[cid * stride + j] = packed
        return packed

    def _replay(self, js: list[int], sites: int) -> list[int]:
        """The packed transitions of a sweep over column ids ``js`` and then
        vacuum, ``sites`` sites in all: each is known once it was swept."""
        transitions, stride = self._table
        shift, cid, packed = self._carrier_shift, 0, []
        for j in islice(chain(js, repeat(0)), sites):
            v = transitions[cid * stride + j]
            packed.append(v)
            cid = v >> shift
        return packed

    def _tableaux(self, js: list[int], sites: int) -> tuple[SemiStandardTableau, ...]:
        """The carriers of a sweep, from the rest value on, as tableaux."""
        ids = [0, *map(rshift, self._replay(js, sites), repeat(self._carrier_shift))]
        built = {cid: SemiStandardTableau(self._split(self._letters(self._keys[cid])), self.n, validate=False)
                 for cid in set(ids)}
        return tuple(map(built.__getitem__, ids))

    def _energies(self, emissions: list[int]) -> tuple[int, ...]:
        """The local energies H of a sweep, from its emissions (-H, output)."""
        return tuple(map(neg, map(rshift, emissions, repeat(self._column_bits))))

    def sweep(self, p: BbsState) -> tuple[BbsState, CarrierTrace]:
        """One time step of the width-l evolution; see :func:`evolve`."""
        if (p.n, p.k) != (self.n, self.k):
            raise ValueError(f"state over n={p.n}, k={p.k} given to a carrier over n={self.n}, k={self.k}")
        column_ids = self._column_ids
        js = list(map(column_ids.get, map(_ROWS, p.columns)))
        if None in js:
            # Intern the new fillings, keeping one of the state's own
            # tableaux for each: they are over 1..n.
            new = list(compress(p.columns, map(is_, js, repeat(None))))
            with self._lock:
                for rows, b in dict(zip(map(_ROWS, new), new)).items():
                    if rows not in column_ids:
                        self._add_column(b)
            js = list(map(column_ids.__getitem__, map(_ROWS, p.columns)))
        shift = self._carrier_shift
        mask = (1 << shift) - 1
        transitions, stride = self._table
        cid = 0
        # Only each site's emission, (-H, output column) in the low bits of its
        # transition, is kept: mostly small ints, where the packed transitions
        # would each be a new int object.  A trace's carriers are replayed.
        emissions: list[int] = []
        try:
            for j in js:
                v = transitions[cid * stride + j]
                if v < 0:
                    v = self._miss(cid, j)
                    transitions, stride = self._table
                emissions.append(v & mask)
                cid = v >> shift
            # Then vacuum, column id 0, until the carrier is back at rest.
            for _ in range(self.l):
                if not cid:
                    break
                v = transitions[cid * stride]
                if v < 0:
                    v = self._miss(cid, 0)
                    transitions, stride = self._table
                emissions.append(v & mask)
                cid = v >> shift
        finally:
            if self.weight != self._counted:
                _recount(self)
        if cid:
            raise CarrierError(f"carrier did not stabilize within {len(js) + self.l} sites")
        outputs = tuple(map(self._columns.__getitem__, map(and_, emissions, repeat(self._column_mask))))
        trace = CarrierTrace(partial(self._tableaux, js, len(emissions)), outputs, partial(self._energies, emissions))
        return BbsState(p.n, p.k, p.offset, outputs), trace

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
# alphabets.  The bound is on the bytes they retain, their weight.  It keeps
# the budget chosen from measured peak RSS for the dict-of-tuples table this
# replaced, about 0.55 MB (doubling that raised the peak RSS of a run of
# seeded checks by a further 2.4%), which now holds about 3.6 times the
# transitions.
CARRIER_WEIGHT_BOUND = 575_000
_registry: OrderedDict[tuple[int, int, int], Carrier] = OrderedDict()
# The kept carriers' weights as last counted: at their fetch, then at the end
# of each of their sweeps that grew them.
_registry_weight = 0
_registry_lock = threading.Lock()


def _recount(c: Carrier) -> None:
    """Bring the registry's total up to date with ``c``'s weight, if it is kept."""
    global _registry_weight
    with _registry_lock:
        if _registry.get((c.n, c.k, c.l)) is c:
            weight = c.weight
            _registry_weight += weight - c._counted
            c._counted = weight


def carrier(n: int, k: int, l: int) -> Carrier:
    """The width-l carrier over (n, k) that every sweep of the process shares.

    After every fetch the kept carriers weigh at most ``CARRIER_WEIGHT_BOUND``
    bytes in all: whole carriers are dropped, least recently fetched first,
    and one that alone weighs more than the bound when fetched is replaced
    by a cold one.  A carrier keeps growing while it is used; each sweep
    adds what it grew by to a running total, so a fetch costs O(1) whatever
    the number of kept carriers.
    """
    global _registry_weight
    key = (n, k, l)
    with _registry_lock:
        c = _registry.pop(key, None)
        if c is not None:
            _registry_weight -= c._counted
        if c is None or c.weight > CARRIER_WEIGHT_BOUND:
            c = Carrier(n, k, l)
        c._counted = c.weight
        _registry[key] = c
        _registry_weight += c._counted
        while _registry_weight > CARRIER_WEIGHT_BOUND:
            _registry_weight -= _registry.popitem(last=False)[1]._counted
    return c


def clear_carriers() -> None:
    """Drop every shared carrier, so that the next sweeps start cold."""
    global _registry_weight
    with _registry_lock:
        _registry.clear()
        _registry_weight = 0


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

    The sweep runs on the shared :func:`carrier`, a finite automaton whose
    states are carriers and whose inputs are column fillings, so R is
    evaluated once per (carrier, column) pair that no sweep of the process
    has met while that carrier was kept: the table outlives the call within
    the byte bound, in a library session, not across one-shot CLI
    processes.  A known pair costs one array read.  An evaluation decodes
    the carrier's rows from its packed key and column-inserts the k letters
    of the column into them: the insertion does not grow with l, the
    decoding and copying of the k * l letters does.  The trace's carrier
    tableaux are built only when read.
    """
    return carrier(p.n, p.k, l).sweep(p)


def energy_e(p: BbsState, l: int) -> int:
    """E_l: minus the summed local energies of one width-l carrier pass.

    One sweep of the shared :func:`carrier`, whose transitions outlive the
    call within the byte bound, so E_l of many states in one process
    evaluates R once per distinct (carrier, column) pair the kept carriers
    hold; the local energies are read off the packed transitions.
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
