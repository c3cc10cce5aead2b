"""MTL formulas over linear state predicates and their discrete-time space
robustness.

Predicates are halfspaces A.x <= b over the state columns of a trace (time
excluded); their robustness at a sample is the margin b - A.x.  Temporal
operators range over the sampled time points only, with no inter-sample
interpolation: unbounded operators run to the end of the trace, bounded ones
over the samples whose time offset falls inside the interval.  An empty
bounded window yields +inf for Always and -inf for Eventually/Until, the
conventional identities of min and max.

Formula grammar::

    atoms           identifiers (predicate names; 'U' is reserved)
    !f              negation
    f /\\ g          conjunction            f \\/ g   disjunction
    f -> g          implication
    [] f  <> f      always / eventually    f U g    until
    []_[lo,hi] f    bounded variants; bounds in seconds, 'inf' allowed

Precedence, tightest first: unary (!, [], <>), U, /\\, \\/, ->.  The binary
operators -> and U group to the right, /\\ and \\/ to the left.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Optional, Union

import numpy as np

from .scenario import ItemType, ScenarioFormatError, Trajectory, value_from_json, value_to_json


@dataclass
class LinearPredicate:
    """Halfspace A.x <= b with robustness margin b - A.x."""

    name: str
    a: np.ndarray
    b: float

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.a.ndim != 1:
            raise ValueError(f"predicate {self.name!r}: coefficient vector must be 1-D")
        if not np.all(np.isfinite(self.a)) or not math.isfinite(self.b):
            raise ValueError(f"predicate {self.name!r}: coefficients must be finite")


@dataclass(frozen=True)
class Interval:
    lo: float = 0.0
    hi: float = math.inf

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.hi):
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "MtlFormula"


@dataclass(frozen=True)
class And:
    left: "MtlFormula"
    right: "MtlFormula"


@dataclass(frozen=True)
class Or:
    left: "MtlFormula"
    right: "MtlFormula"


@dataclass(frozen=True)
class Implies:
    left: "MtlFormula"
    right: "MtlFormula"


@dataclass(frozen=True)
class Always:
    operand: "MtlFormula"
    interval: Optional[Interval] = None


@dataclass(frozen=True)
class Eventually:
    operand: "MtlFormula"
    interval: Optional[Interval] = None


@dataclass(frozen=True)
class Until:
    left: "MtlFormula"
    right: "MtlFormula"
    interval: Optional[Interval] = None


MtlFormula = Union[Atom, Not, And, Or, Implies, Always, Eventually, Until]


@dataclass
class Trace:
    """Sampled state signal: times in seconds, one state row per time."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.times.ndim != 1 or self.states.ndim != 2:
            raise ValueError("times must be 1-D and states 2-D")
        if len(self.times) != self.states.shape[0]:
            raise ValueError("times and states disagree on sample count")
        if len(self.times) < 1:
            raise ValueError("a trace needs at least one sample")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.states))):
            raise ValueError("times and states must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(
            self.states, other.states
        )


def convert_trajectory(traj: Trajectory) -> Trace:
    """Split a trajectory into seconds + state columns (column 0 must be TIME)."""
    if not traj.column_labels or traj.column_labels[0].item_type is not ItemType.TIME:
        raise ValueError("trajectory column 0 must be TIME")
    return Trace(times=traj.rows[:, 0] / 1000.0, states=traj.rows[:, 1:])


# --------------------------------------------------------------------------
# Formula parsing

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<always>\[\])|"
    r"(?P<eventually><>)|"
    r"(?P<and>/\\)|"
    r"(?P<or>\\/)|"
    r"(?P<implies>->)|"
    r"(?P<not>!)|"
    r"(?P<lparen>\()|"
    r"(?P<rparen>\))|"
    r"(?P<interval>_\[\s*(?P<lo>[^,\]]+)\s*,\s*(?P<hi>[^,\]]+)\s*\])|"
    r"(?P<until>U(?=_\[|[^A-Za-z0-9_]|$))|"
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r")"
)


class FormulaSyntaxError(ValueError):
    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at position {position}: {message}")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise FormulaSyntaxError(bad_at, f"unexpected character {text[bad_at]!r}")
        # the kind's group encloses any other, so it is the last to close
        kind, value = match.lastgroup, None
        if kind == "ident":
            value = match.group("ident")
        elif kind == "interval":
            try:
                value = Interval(float(match.group("lo")), float(match.group("hi")))
            except ValueError as exc:
                raise FormulaSyntaxError(match.start(), str(exc)) from None
        tokens.append((kind, value, match.start()))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


# Binary operators, loosest first: (token kind, node, symbol, groups right).
# parse_formula reads precedence from the row order and format_formula the
# symbols; unary operators, parentheses and atoms bind tighter than any row.
_BINARY = (
    ("implies", Implies, "->", True),
    ("or", Or, "\\/", False),
    ("and", And, "/\\", False),
    ("until", Until, "U", True),
)
_LEVEL = {kind: level for level, (kind, *_) in enumerate(_BINARY)}


def parse_formula(text: str) -> MtlFormula:
    tokens = _tokenize(text)
    pos = 0

    def interval() -> Optional[Interval]:
        nonlocal pos
        kind, value, _ = tokens[pos]
        if kind != "interval":
            return None
        pos += 1
        return value  # type: ignore[return-value]

    def binary(min_level: int) -> MtlFormula:
        """A formula whose unparenthesised binary operators are all of _BINARY[min_level:]."""
        nonlocal pos
        left = unary()
        while (level := _LEVEL.get(tokens[pos][0], -1)) >= min_level:
            _, node, _, groups_right = _BINARY[level]
            pos += 1
            extra = (interval(),) if node is Until else ()
            right = binary(level if groups_right else level + 1)
            left = node(left, right, *extra)
        return left

    def unary() -> MtlFormula:
        nonlocal pos
        kind, value, position = tokens[pos]
        pos += 1
        if kind == "not":
            return Not(unary())
        if kind in ("always", "eventually"):
            bound = interval()
            return (Always if kind == "always" else Eventually)(unary(), bound)
        if kind == "lparen":
            inner = binary(0)
            kind, _, position = tokens[pos]
            if kind != "rparen":
                raise FormulaSyntaxError(position, f"expected rparen, found {kind}")
            pos += 1
            return inner
        if kind == "ident":
            return Atom(value)  # type: ignore[arg-type]
        raise FormulaSyntaxError(position, f"expected a formula, found {kind}")

    formula = binary(0)
    kind, _, position = tokens[pos]
    if kind != "end":
        raise FormulaSyntaxError(position, f"unexpected {kind}")
    return formula


def _format_interval(interval: Optional[Interval]) -> str:
    if interval is None:
        return ""
    lo = repr(interval.lo) if math.isfinite(interval.lo) else "inf"
    hi = repr(interval.hi) if math.isfinite(interval.hi) else "inf"
    return f"_[{lo},{hi}]"


def format_formula(formula: MtlFormula) -> str:
    """Render with explicit parentheses; parse(format(f)) == f."""
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Not):
        return f"!{_wrap(formula.operand)}"
    if isinstance(formula, (Always, Eventually)):
        symbol = "[]" if isinstance(formula, Always) else "<>"
        return f"{symbol}{_format_interval(formula.interval)} {_wrap(formula.operand)}"
    for _, node, symbol, _ in _BINARY:
        if isinstance(formula, node):
            interval = _format_interval(getattr(formula, "interval", None))
            return f"{_wrap(formula.left)} {symbol}{interval} {_wrap(formula.right)}"
    raise TypeError(f"not a formula: {formula!r}")


def _wrap(formula: MtlFormula) -> str:
    if isinstance(formula, Atom):
        return formula.name
    return f"({format_formula(formula)})"


# --------------------------------------------------------------------------
# Robustness evaluation


def _interval_windows(times: np.ndarray, interval: Interval) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample index windows [start, stop) holding the j with lo <= t_j - t_i <= hi.

    Membership is decided on the time difference so that a brute-force
    evaluator using the same comparison agrees bit-for-bit.  searchsorted on
    t_i + lo and t_i + hi rounds differently from t_j - t_i, so each bound is
    then stepped to where the difference test changes; fl(t_j - t_i) is
    monotone in j, which makes that point unique and no bound move both ways.
    """
    n = len(times)

    def settle(bounds: np.ndarray, before) -> np.ndarray:
        # step each bound to the first j whose offset t_j - t_i is not before it
        while True:
            up = (bounds < n) & before(times[np.minimum(bounds, n - 1)] - times)
            down = (bounds > 0) & ~before(times[bounds - 1] - times)
            if not (up.any() or down.any()):
                return bounds
            bounds += up
            bounds -= down

    starts = settle(
        np.searchsorted(times, times + interval.lo, side="left"), lambda d: d < interval.lo
    )
    stops = settle(
        np.searchsorted(times, times + interval.hi, side="right"), lambda d: d <= interval.hi
    )
    return starts, np.maximum(stops, starts)


def _window_extreme(
    values: np.ndarray, starts: np.ndarray, stops: np.ndarray, reduce: np.ufunc, empty: float
) -> np.ndarray:
    """reduce (np.minimum or np.maximum) over values[starts[i]:stops[i]] for every i.

    A sparse table built one level at a time: level k holds the extreme of
    each run of 2**k samples, and a window of length L in [2**k, 2**(k+1))
    is the extreme of the two runs that start at its two ends.  Only the
    current level is kept, so memory stays O(n) and time O(n log w).
    """
    lengths = stops - starts
    out = np.full(len(values), empty)
    level, width = values, 1
    longest = int(lengths.max())
    while width <= longest:
        pick = (lengths >= width) & (lengths < 2 * width)
        if pick.any():
            out[pick] = reduce(level[starts[pick]], level[stops[pick] - width])
        level = reduce(level[:-width], level[width:])
        width *= 2
    return out


def _until(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Unbounded until at every sample, by the backward recurrence, with a
    trailing -inf entry for the empty suffix past the last sample."""
    acc = -math.inf
    out = [acc]
    append = out.append
    for lv, rv in zip(reversed(left.tolist()), reversed(right.tolist())):
        # acc = max(rv, min(lv, acc)) without the call overhead, same tie picks
        if acc >= lv:
            acc = lv
        if rv >= acc:
            acc = rv
        append(acc)
    out.reverse()
    return np.array(out)


def _eval(formula: MtlFormula, pred_map: dict[str, LinearPredicate], trace: Trace) -> np.ndarray:
    """Robustness of formula at every sample index, computed bottom-up."""
    times, states = trace.times, trace.states
    n = len(times)

    if isinstance(formula, Atom):
        pred = pred_map.get(formula.name)
        if pred is None:
            raise ValueError(f"unresolved atom {formula.name!r}")
        if len(pred.a) != states.shape[1]:
            raise ValueError(
                f"predicate {formula.name!r} has {len(pred.a)} coefficients "
                f"but the trace has {states.shape[1]} state columns"
            )
        return pred.b - states @ pred.a
    if isinstance(formula, Not):
        return -_eval(formula.operand, pred_map, trace)
    if isinstance(formula, And):
        return np.minimum(
            _eval(formula.left, pred_map, trace), _eval(formula.right, pred_map, trace)
        )
    if isinstance(formula, Or):
        return np.maximum(
            _eval(formula.left, pred_map, trace), _eval(formula.right, pred_map, trace)
        )
    if isinstance(formula, Implies):
        return np.maximum(
            -_eval(formula.left, pred_map, trace), _eval(formula.right, pred_map, trace)
        )
    if isinstance(formula, (Always, Eventually)):
        reduce, empty = (
            (np.minimum, math.inf) if isinstance(formula, Always) else (np.maximum, -math.inf)
        )
        inner = _eval(formula.operand, pred_map, trace)
        if formula.interval is None:
            return reduce.accumulate(inner[::-1])[::-1]
        starts, stops = _interval_windows(times, formula.interval)
        return _window_extreme(inner, starts, stops, reduce, empty)
    if isinstance(formula, Until):
        left = _eval(formula.left, pred_map, trace)
        right = _eval(formula.right, pred_map, trace)
        unbounded = _until(left, right)
        if formula.interval is None:
            return unbounded[:n]
        # Donze, Ferrere & Maler (CAV 2013): with window [s_i, e_i),
        # rho(l U_I r, i) = min(min l[i:s_i], max r[s_i:e_i], rho(l U r, s_i)).
        # Only min and max are taken, so this equals the definition exactly.
        starts, stops = _interval_windows(times, formula.interval)
        guard = _window_extreme(left, np.arange(n), starts, np.minimum, math.inf)
        reach = _window_extreme(right, starts, stops, np.maximum, -math.inf)
        return np.minimum(np.minimum(guard, reach), unbounded[starts])
    raise TypeError(f"not a formula: {formula!r}")


def _predicate_map(predicates: list[LinearPredicate]) -> dict[str, LinearPredicate]:
    pred_map: dict[str, LinearPredicate] = {}
    for pred in predicates:
        if pred.name in pred_map:
            raise ValueError(f"duplicate predicate name {pred.name!r}")
        pred_map[pred.name] = pred
    return pred_map


def robustness(
    formula: MtlFormula, predicates: list[LinearPredicate], trace: Trace
) -> float:
    """Space robustness of the trace against the formula, evaluated at t=times[0]."""
    return float(_eval(formula, _predicate_map(predicates), trace)[0])


def robustness_signal(
    formula: MtlFormula, predicates: list[LinearPredicate], trace: Trace
) -> np.ndarray:
    """Robustness at every sample index; element 0 equals robustness(...)."""
    return _eval(formula, _predicate_map(predicates), trace)


# --------------------------------------------------------------------------
# Requirement files


@dataclass
class Requirement:
    """A formula plus named sparse predicates over symbolic state columns."""

    formula_text: str
    predicates: list[dict] = field(default_factory=list)

    def formula(self) -> MtlFormula:
        return parse_formula(self.formula_text)

    def resolve(self, state_column_names: list[str]) -> list[LinearPredicate]:
        """Build dense coefficient vectors against a trace's state columns."""
        col_index = {name: i for i, name in enumerate(state_column_names)}
        out = []
        for spec in self.predicates:
            a = np.zeros(len(state_column_names), dtype=np.float64)
            for col_name, coeff in spec["a"].items():
                if col_name not in col_index:
                    raise ValueError(
                        f"predicate {spec['name']!r} refers to unknown column {col_name!r}"
                    )
                a[col_index[col_name]] = float(coeff)
            out.append(LinearPredicate(spec["name"], a, float(spec["b"])))
        return out


# A requirement document: its formula, and its predicates, each exactly a
# name, coefficients by state-column name and a bound.
_REQUIREMENT_KINDS = {
    "formula": str,
    "predicates": list[{"name": str, "a": dict[str, float], "b": float}],
}


def requirement_to_json(req: Requirement) -> dict:
    doc = {"formula": req.formula_text, "predicates": req.predicates}
    return value_to_json(doc, _REQUIREMENT_KINDS)


def requirement_from_json(data: Any) -> Requirement:
    """Read a requirement document; ScenarioFormatError names a bad field's path."""
    doc = value_from_json(data, _REQUIREMENT_KINDS, "requirement")
    names: set[str] = set()
    for i, spec in enumerate(doc["predicates"]):
        path = f"requirement.predicates[{i}]"
        numbers = [(f"{path}.a.{column}", coeff) for column, coeff in spec["a"].items()]
        for where, value in numbers + [(f"{path}.b", spec["b"])]:
            if not math.isfinite(value):
                raise ScenarioFormatError(where, "must be finite")
        if spec["name"] in names:
            raise ScenarioFormatError(f"{path}.name", f"duplicate predicate name {spec['name']!r}")
        names.add(spec["name"])
    parse_formula(doc["formula"])  # surface syntax errors at load time
    # a formula that parses holds an atom at each identifier token
    for kind, name, _ in _tokenize(doc["formula"]):
        if kind == "ident" and name not in names:
            raise ScenarioFormatError("requirement.formula", f"atom {name!r} names no predicate")
    return Requirement(formula_text=doc["formula"], predicates=doc["predicates"])


def load_requirement(path: str) -> Requirement:
    with open(path, "r", encoding="utf-8") as fh:
        return requirement_from_json(json.load(fh))


def save_requirement(req: Requirement, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(requirement_to_json(req), fh, indent=2)
        fh.write("\n")
