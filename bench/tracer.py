"""Outside-in tracer for the traced benchmark run.

``Tracer.install()`` replaces each public function of the layer modules (the
functions ``boxball/__init__.py`` re-exports from them, plus the ``cli.main``
entry point) with a timing wrapper, in every boxball module namespace that
binds it, and wraps ``SemiStandardTableau._validate`` on the class.  Nothing
under ``src/`` changes: the untraced run never calls ``install`` and runs the
functions as they are.  Private helpers, the ``cli`` commands and the
lru-cached vacuum builders stay unwrapped, so their time is the self time of
the public function that called them.

Each call becomes a span (name, parent, start, end) held in flat arrays and
written out when the run ends.  Counters are taken at the same boundaries;
their bookkeeping runs with the span clock paused, so it is no layer's self
time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "bbs", "soliton", "rmatrix", "insertion", "tableau")

# Every per-layer metric with its unit.  cli.stdout_bytes is measured by the
# op loop and trace.overhead_frac by comparing the traced run with an
# untraced one; the tracer computes the rest.
PER_LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "bbs.parse_state.self_s": "s",
    "bbs.format_trajectory.self_s": "s",
    "bbs.evolve.calls": "count",
    "bbs.evolve.self_s": "s",
    "bbs.evolve.us_per_site": "us",
    "bbs.sites": "count",
    "bbs.sites_past_support": "count",
    "bbs.carrier_load_max": "cells",
    "bbs.energy_e.calls": "count",
    "bbs.soliton_spectrum.calls": "count",
    "bbs.soliton_spectrum.self_s": "s",
    "rmatrix.apply_r.calls": "count",
    "rmatrix.apply_r.self_s": "s",
    "rmatrix.apply_r.distinct_frac": "fraction",
    "rmatrix.apply_r.cells_max": "cells",
    "rmatrix.peel_useful_frac": "fraction",
    "rmatrix.oracle_fallbacks": "count",
    "rmatrix.oracle_r.calls": "count",
    "rmatrix.oracle_r.self_s": "s",
    "insertion.insert_word.calls": "count",
    "insertion.insert_word.self_s": "s",
    "insertion.letters_inserted": "count",
    "insertion.uninsert.calls": "count",
    "insertion.uninsert.self_s": "s",
    "insertion.rectify.calls": "count",
    "insertion.rectify.self_s": "s",
    "tableau.validate.calls": "count",
    "tableau.validate.self_s": "s",
    "tableau.enumerate_tableaux.yielded": "count",
    "tableau.enumerate_tableaux.self_s": "s",
    "soliton.detect.calls": "count",
    "soliton.detect.self_s": "s",
    "soliton.predict_two_body.calls": "count",
    "soliton.predict_two_body.self_s": "s",
    "soliton.run_experiment.self_s": "s",
    "soliton.match_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def _ratio(part: float, base: float) -> float:
    """A share; 0 when nothing was counted (the base is printed beside it)."""
    return part / base if base else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._paused_ns = 0
        self._restore: list[tuple[object, str, object]] = []
        self.counts = {
            "bbs.sites": 0,
            "bbs.sites_past_support": 0,
            "bbs.carrier_load_max": 0,
            "rmatrix.apply_r.cells_max": 0,
            "rmatrix.peel_cells": 0,
            "rmatrix.peel_uninserts": 0,
            "rmatrix.oracle_fallbacks": 0,
            "insertion.letters_inserted": 0,
            "tableau.enumerate_tableaux.yielded": 0,
            "soliton.matched": 0,
            "soliton.predicted": 0,
        }
        self._r_keys: set = set()

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        import boxball
        from boxball import cli
        from boxball.tableau import SemiStandardTableau

        layer_modules = {f"boxball.{layer}" for layer in LAYERS}
        targets = {
            id(fn): fn
            for fn in vars(boxball).values()
            if inspect.isfunction(fn) and fn.__module__ in layer_modules
        }
        targets[id(cli.main)] = cli.main
        wrappers = {
            key: self._wrap(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}", fn)
            for key, fn in targets.items()
        }
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "boxball" or modname.startswith("boxball.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets and targets[id(value)] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        validate = SemiStandardTableau._validate
        self._restore.append((SemiStandardTableau, "_validate", validate))
        SemiStandardTableau._validate = self._wrap("tableau.validate", validate)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _enter(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.span_start.append(perf_counter_ns() - self._paused_ns)
        return idx

    def _exit(self, idx: int) -> None:
        self.span_end[idx] = perf_counter_ns() - self._paused_ns
        self._stack.pop()
        self._depth[self.span_name[idx]] -= 1

    def _active(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and self._depth[nid] > 0

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        tracer = self
        pre = _PRE_HOOKS.get(name)
        post = _POST_HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the time spent producing each item
            # is counted, not only the generator's creation.
            yielded = f"{name}.yielded"

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(idx)
                    tracer.counts[yielded] += 1
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                t0 = perf_counter_ns()
                pre(tracer, *args, **kwargs)
                tracer._paused_ns += perf_counter_ns() - t0
            idx = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if post is not None:
                t0 = perf_counter_ns()
                post(tracer, result, *args, **kwargs)
                tracer._paused_ns += perf_counter_ns() - t0
            return result

        return traced

    # -- results -----------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the durations of its child spans, in ns."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        out = array("q", (end - start for start, end in zip(starts, ends)))
        for i, p in enumerate(parents):
            if p >= 0:
                out[p] -= ends[i] - starts[i]
        return out

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (spans, inclusive ns, self ns)."""
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, start, end, own in zip(self.span_name, self.span_start, self.span_end, self.self_times()):
            calls[nid] += 1
            incl[nid] += end - start
            self_ns[nid] += own
        return {name: (calls[i], incl[i], self_ns[i]) for i, name in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the tracer computes, keyed by its name."""
        totals = self.totals()
        c = self.counts

        def calls(name):
            return totals.get(name, (0, 0, 0))[0]

        def self_s(name):
            return totals.get(name, (0, 0, 0))[2] / 1e9

        out = {}
        for key in PER_LAYER_UNITS:
            if key.endswith(".calls"):
                out[key] = calls(key[: -len(".calls")])
            elif key.endswith(".self_s"):
                out[key] = self_s(key[: -len(".self_s")])
        out["bbs.evolve.us_per_site"] = _ratio(totals.get("bbs.evolve", (0, 0, 0))[1] / 1e3, c["bbs.sites"])
        for key in ("bbs.sites", "bbs.sites_past_support", "bbs.carrier_load_max",
                    "rmatrix.apply_r.cells_max", "rmatrix.oracle_fallbacks",
                    "insertion.letters_inserted", "tableau.enumerate_tableaux.yielded"):
            out[key] = c[key]
        out["rmatrix.apply_r.distinct_frac"] = _ratio(len(self._r_keys), calls("rmatrix.apply_r"))
        out["rmatrix.peel_useful_frac"] = _ratio(c["rmatrix.peel_cells"], c["rmatrix.peel_uninserts"])
        out["soliton.match_frac"] = _ratio(c["soliton.matched"], c["soliton.predicted"])
        return out

    def bases(self) -> dict[str, int]:
        """The counts the per-layer ratios divide by."""
        return {
            "rmatrix.apply_r.distinct": len(self._r_keys),
            "rmatrix.peel_cells": self.counts["rmatrix.peel_cells"],
            "rmatrix.peel_uninserts": self.counts["rmatrix.peel_uninserts"],
            "soliton.matched": self.counts["soliton.matched"],
            "soliton.predicted": self.counts["soliton.predicted"],
        }

    def write_spans(self, path: Path) -> None:
        """One JSON header line, then the name, parent, start and end arrays."""
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [["name", "H"], ["parent", "q"], ["start_ns", "q"], ["end_ns", "q"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in arrays:
                arr.tofile(fh)


# -- counter hooks -----------------------------------------------------------
# Pre-hooks see the arguments before the span opens; post-hooks see the
# result after it closes.  Both run with the span clock paused.


def _pre_apply_r(tracer: Tracer, x, y) -> None:
    tracer._r_keys.add((x.n, x.rows, y.rows))  # tableau equality ignores n
    c = tracer.counts
    c["rmatrix.apply_r.cells_max"] = max(c["rmatrix.apply_r.cells_max"], x.size + y.size)
    if x.num_rows and y.num_rows:
        c["rmatrix.peel_cells"] += y.num_rows * y.num_cols


def _pre_uninsert(tracer: Tracer, t, corner) -> None:
    if tracer._active("rmatrix.apply_r"):
        tracer.counts["rmatrix.peel_uninserts"] += 1


def _pre_oracle_r(tracer: Tracer, x, y) -> None:
    if tracer._active("rmatrix.apply_r"):
        tracer.counts["rmatrix.oracle_fallbacks"] += 1


def _pre_insert_word(tracer: Tracer, t, word) -> None:
    # Every caller in the package passes a tuple; a bare iterator is left
    # uncounted rather than consumed here.
    if hasattr(word, "__len__"):
        tracer.counts["insertion.letters_inserted"] += len(word)


def _post_evolve(tracer: Tracer, result, p, l) -> None:
    _, trace = result
    c = tracer.counts
    sites = len(trace.outputs)
    c["bbs.sites"] += sites
    c["bbs.sites_past_support"] += sites - len(p.columns)
    # Load: letters above k in the carrier, i.e. the balls it holds.
    k = p.k
    load = max(sum(a > k for row in carrier.rows for a in row) for carrier in trace.carriers)
    c["bbs.carrier_load_max"] = max(c["bbs.carrier_load_max"], load)


def _post_run_experiment(tracer: Tracer, result, *args, **kwargs) -> None:
    c = tracer.counts
    c["soliton.predicted"] += len(result.predicted)
    c["soliton.matched"] += sum(result.matches or ())


_PRE_HOOKS = {
    "rmatrix.apply_r": _pre_apply_r,
    "insertion.uninsert": _pre_uninsert,
    "rmatrix.oracle_r": _pre_oracle_r,
    "insertion.insert_word": _pre_insert_word,
}
_POST_HOOKS = {
    "bbs.evolve": _post_evolve,
    "soliton.run_experiment": _post_run_experiment,
}
