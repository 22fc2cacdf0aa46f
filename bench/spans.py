"""Per-layer spans and counters, recorded from outside the program.

While a ``Tracer`` is entered, public functions are replaced by timing
wrappers; on exit the originals are put back.  A module that does
``from .x import f`` holds its own reference to ``f``, so each function is
patched at every binding its callers look it up through, and a layer is
named after the module (or class) whose binding the callers use.

Spans are aggregated as they close, not stored: per name, the number of
calls, the total time, the self time (total minus the time covered by child
spans) and the number of calls that raised.  Counters that describe the
work done are computed from the arguments and values of the wrapped calls.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

from polyproper import corpus, elimination, nonproper, polymap, rabier, solver
from polyproper.polymap import PolyMap, PolyMatrix


def layer_sites() -> list[tuple[str, list[tuple[object, str]]]]:
    """Each traced layer with the bindings its callers use."""
    return [
        ("corpus.run_entry", [(corpus, "run_entry")]),
        ("parser.parse_map_text", [(polymap, "parse_map_text"), (corpus, "parse_map_text")]),
        ("polymap.PolyMap.nonsingularity", [(PolyMap, "nonsingularity")]),
        ("polymap.PolyMap.jacobian", [(PolyMap, "jacobian")]),
        ("polymap.PolyMap.compose", [(PolyMap, "compose")]),
        ("polymap.PolyMap.evaluate", [(PolyMap, "evaluate")]),
        ("polymap.PolyMatrix.evaluate", [(PolyMatrix, "evaluate")]),
        ("polymap.poly_matrix_det", [(polymap, "poly_matrix_det")]),
        ("polymap.verify_inverse", [(polymap, "verify_inverse"), (corpus, "verify_inverse")]),
        (
            "solver.geometric_degree",
            [(solver, "geometric_degree"), (corpus, "geometric_degree"), (nonproper, "geometric_degree")],
        ),
        ("solver.solve_fiber", [(solver, "solve_fiber")]),
        ("solver.eliminate", [(solver, "eliminate")]),
        ("solver.univariate_roots", [(solver, "univariate_roots")]),
        ("elimination.resultant", [(elimination, "resultant"), (nonproper, "resultant")]),
        ("nonproper.nonproperness_set", [(nonproper, "nonproperness_set"), (corpus, "nonproperness_set")]),
        ("nonproper.eliminate", [(nonproper, "eliminate")]),
        ("nonproper.fiber_count_diagnostic", [(nonproper, "fiber_count_diagnostic")]),
        ("nonproper.solve_fiber", [(nonproper, "solve_fiber")]),
        ("nonproper.gcd_free_basis", [(nonproper, "gcd_free_basis")]),
        (
            "nonproper.hyperplane_clearance",
            [(nonproper, "hyperplane_clearance"), (corpus, "hyperplane_clearance")],
        ),
        ("rabier.check_rabier_witness", [(rabier, "check_rabier_witness"), (corpus, "check_rabier_witness")]),
        ("rabier.smallest_singular_value", [(rabier, "smallest_singular_value")]),
    ]


LAYER_FIELDS = (("calls", "1/task"), ("total_s", "s/task"), ("self_s", "s/task"), ("errors", "1/task"))

#: Counters derived from returned values, with their units.
COUNTERS = (
    ("solver.solutions_per_root", "ratio"),
    ("solver.evaluate_calls_per_solution", "ratio"),
    ("solver.eliminate.stages.substitution", "1/call"),
    ("solver.eliminate.stages.single", "1/call"),
    ("solver.eliminate.stages.resultant", "1/call"),
    ("solver.eliminate.final_degree_max", "degree"),
    ("solver.eliminate.coeff_bits_max", "bits"),
    ("solver.eliminate.calls_per_map", "ratio"),
    ("nonproper.eliminate.stages.substitution", "1/call"),
    ("nonproper.eliminate.stages.single", "1/call"),
    ("nonproper.eliminate.stages.resultant", "1/call"),
    ("nonproper.eliminate.final_degree_max", "degree"),
    ("nonproper.eliminate.coeff_bits_max", "bits"),
    ("polymap.nonsingularity.calls_per_map", "ratio"),
    ("nonproper.dropped_factors", "1/call"),
    ("rabier.accepted_ratio", "ratio"),
)

_FIBER_SPANS = ("solver.solve_fiber", "nonproper.solve_fiber")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name a traced run reports, with its unit."""
    units = {
        f"{name}.{field}": unit for name, _ in layer_sites() for field, unit in LAYER_FIELDS
    }
    units.update(COUNTERS)
    units["trace.overhead_s_per_task"] = "s/task"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _coeff_bits(p) -> int:
    bits = 0
    for c in p.terms.values():
        for part in (c.re, c.im):
            bits = max(bits, abs(part.numerator).bit_length(), part.denominator.bit_length())
    return bits


class Tracer:
    """Installs the wrappers, aggregates spans and counts; restores on exit."""

    def __init__(self):
        # name -> [calls, total_s, self_s, errors], accumulated over every entry
        self.spans: dict[str, list] = {name: [0, 0.0, 0.0, 0] for name, _ in layer_sites()}
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.maps: dict[str, dict[int, object]] = {"fiber": {}, "nonsingularity": {}}
        self.missing: set[str] = set()
        self._stack: list[list[float]] = []
        self._open: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._on_enter = {
            "solver.solve_fiber": functools.partial(self._note_map, "fiber"),
            "nonproper.solve_fiber": functools.partial(self._note_map, "fiber"),
            "polymap.PolyMap.nonsingularity": functools.partial(self._note_map, "nonsingularity"),
        }
        self._on_return = {
            "solver.solve_fiber": self._on_fiber,
            "nonproper.solve_fiber": self._on_fiber,
            "solver.univariate_roots": self._on_roots,
            "polymap.PolyMap.evaluate": self._on_evaluate,
            "solver.eliminate": functools.partial(self._on_eliminate, "solver"),
            "nonproper.eliminate": functools.partial(self._on_eliminate, "nonproper"),
            "nonproper.nonproperness_set": self._on_locus,
            "rabier.check_rabier_witness": self._on_witness,
        }

    def __enter__(self) -> "Tracer":
        try:
            for name, sites in layer_sites():
                for owner, attr in sites:
                    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                    if original is None:
                        self.missing.add(f"{owner.__name__}.{attr}")
                        continue
                    enter, leave = self._on_enter.get(name), self._on_return.get(name)
                    wrapper = self._wrap(name, original, enter, leave)
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, original))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, enter, leave):
        stats, stack, open_ = self.spans[name], self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            frame = [0.0]
            stack.append(frame)
            open_[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                open_[name] -= 1
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if leave is not None:
                leave(args, result)
            return result

        return traced

    # -- hooks: counters from arguments and returned values ---------------------

    def _in_fiber(self) -> bool:
        return any(self._open[name] for name in _FIBER_SPANS)

    def _note_map(self, kind, args) -> None:
        self.maps[kind][id(args[0])] = args[0]  # the value keeps the id unique

    def _on_fiber(self, args, solutions) -> None:
        self.counts["fiber.solutions"] += len(solutions)

    def _on_roots(self, args, roots) -> None:
        self.counts["fiber.roots"] += len(roots.roots)

    def _on_evaluate(self, args, value) -> None:
        if self._in_fiber():
            self.counts["fiber.evaluate_calls"] += 1

    def _on_eliminate(self, caller, args, res) -> None:
        for stage in res.stages:
            self.counts[f"{caller}.eliminate.stages.{stage.mode}"] += 1
        for p in res.finals:
            key = f"{caller}.eliminate"
            self.maxima[f"{key}.final_degree_max"] = max(
                self.maxima[f"{key}.final_degree_max"], p.total_degree()
            )
            self.maxima[f"{key}.coeff_bits_max"] = max(
                self.maxima[f"{key}.coeff_bits_max"], _coeff_bits(p)
            )

    def _on_locus(self, args, locus) -> None:
        self.counts["nonproper.dropped_factors"] += sum(
            note.startswith("dropped") for note in locus.notes
        )

    def _on_witness(self, args, outcome) -> None:
        self.counts["rabier.accepted"] += bool(getattr(outcome, "accepted", False))

    # -- report ------------------------------------------------------------------

    def metrics(self, tasks: int) -> dict[str, float]:
        """Per-layer metrics of the traced tasks, per task or per call."""
        out: dict[str, float] = {}
        for name, (calls, total, own, errors) in self.spans.items():
            out[f"{name}.calls"] = calls / tasks
            out[f"{name}.total_s"] = total / tasks
            out[f"{name}.self_s"] = own / tasks
            out[f"{name}.errors"] = errors / tasks

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        c, calls = self.counts, {name: s[0] for name, s in self.spans.items()}
        out["solver.solutions_per_root"] = ratio(c["fiber.solutions"], c["fiber.roots"])
        out["solver.evaluate_calls_per_solution"] = ratio(
            c["fiber.evaluate_calls"], c["fiber.solutions"]
        )
        for caller in ("solver", "nonproper"):
            for mode in ("substitution", "single", "resultant"):
                out[f"{caller}.eliminate.stages.{mode}"] = ratio(
                    c[f"{caller}.eliminate.stages.{mode}"], calls[f"{caller}.eliminate"]
                )
            for field in ("final_degree_max", "coeff_bits_max"):
                out[f"{caller}.eliminate.{field}"] = float(self.maxima[f"{caller}.eliminate.{field}"])
        out["solver.eliminate.calls_per_map"] = ratio(
            calls["solver.eliminate"], len(self.maps["fiber"])
        )
        out["polymap.nonsingularity.calls_per_map"] = ratio(
            calls["polymap.PolyMap.nonsingularity"], len(self.maps["nonsingularity"])
        )
        out["nonproper.dropped_factors"] = ratio(
            c["nonproper.dropped_factors"], calls["nonproper.nonproperness_set"]
        )
        out["rabier.accepted_ratio"] = ratio(
            c["rabier.accepted"], calls["rabier.check_rabier_witness"]
        )
        return out
