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
    f -> g          implication (right associative)
    [] f  <> f      always / eventually    f U g    until
    []_[lo,hi] f    bounded variants; bounds in seconds, 'inf' allowed

Precedence, tightest first: unary (!, [], <>), U, /\\, \\/, ->.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .scenario import ItemType, Trajectory


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

    def robustness(self, x: np.ndarray) -> float:
        return float(self.b - float(np.dot(self.a, x)))


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


_SIMPLE_TOKENS = ("always", "eventually", "and", "or", "implies", "not", "lparen", "rparen")


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
        if match.group("until") is not None:
            tokens.append(("until", None, match.start()))
        elif match.group("ident") is not None:
            tokens.append(("ident", match.group("ident"), match.start()))
        elif match.group("interval") is not None:
            try:
                interval = Interval(float(match.group("lo")), float(match.group("hi")))
            except ValueError as exc:
                raise FormulaSyntaxError(match.start(), str(exc)) from None
            tokens.append(("interval", interval, match.start()))
        else:
            for kind in _SIMPLE_TOKENS:
                if match.group(kind) is not None:
                    tokens.append((kind, None, match.start()))
                    break
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> tuple[str, object, int]:
        token = self.advance()
        if token[0] != kind:
            raise FormulaSyntaxError(token[2], f"expected {kind}, found {token[0]}")
        return token

    def parse(self) -> MtlFormula:
        formula = self.parse_implies()
        token = self.peek()
        if token[0] != "end":
            raise FormulaSyntaxError(token[2], f"unexpected {token[0]}")
        return formula

    def parse_implies(self) -> MtlFormula:
        left = self.parse_or()
        if self.peek()[0] == "implies":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> MtlFormula:
        node = self.parse_and()
        while self.peek()[0] == "or":
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> MtlFormula:
        node = self.parse_until()
        while self.peek()[0] == "and":
            self.advance()
            node = And(node, self.parse_until())
        return node

    def parse_until(self) -> MtlFormula:
        left = self.parse_unary()
        if self.peek()[0] == "until":
            self.advance()
            interval = self.maybe_interval()
            return Until(left, self.parse_until(), interval)
        return left

    def maybe_interval(self) -> Optional[Interval]:
        if self.peek()[0] == "interval":
            return self.advance()[1]  # type: ignore[return-value]
        return None

    def parse_unary(self) -> MtlFormula:
        kind, value, position = self.peek()
        if kind == "not":
            self.advance()
            return Not(self.parse_unary())
        if kind == "always":
            self.advance()
            interval = self.maybe_interval()
            return Always(self.parse_unary(), interval)
        if kind == "eventually":
            self.advance()
            interval = self.maybe_interval()
            return Eventually(self.parse_unary(), interval)
        if kind == "lparen":
            self.advance()
            node = self.parse_implies()
            self.expect("rparen")
            return node
        if kind == "ident":
            self.advance()
            return Atom(value)  # type: ignore[arg-type]
        raise FormulaSyntaxError(position, f"expected a formula, found {kind}")


def parse_formula(text: str) -> MtlFormula:
    return _Parser(text).parse()


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
    if isinstance(formula, And):
        return f"{_wrap(formula.left)} /\\ {_wrap(formula.right)}"
    if isinstance(formula, Or):
        return f"{_wrap(formula.left)} \\/ {_wrap(formula.right)}"
    if isinstance(formula, Implies):
        return f"{_wrap(formula.left)} -> {_wrap(formula.right)}"
    if isinstance(formula, Always):
        return f"[]{_format_interval(formula.interval)} {_wrap(formula.operand)}"
    if isinstance(formula, Eventually):
        return f"<>{_format_interval(formula.interval)} {_wrap(formula.operand)}"
    if isinstance(formula, Until):
        return (
            f"{_wrap(formula.left)} U{_format_interval(formula.interval)} {_wrap(formula.right)}"
        )
    raise TypeError(f"not a formula: {formula!r}")


def _wrap(formula: MtlFormula) -> str:
    if isinstance(formula, Atom):
        return formula.name
    return f"({format_formula(formula)})"


# --------------------------------------------------------------------------
# Robustness evaluation


def predicate_robustness(pred: LinearPredicate, x: np.ndarray) -> float:
    return pred.robustness(np.asarray(x, dtype=np.float64))


def _window_bounds(times: np.ndarray, interval: Interval) -> tuple[list[int], list[int]]:
    """Per-sample index windows [start, stop) with lo <= t_j - t_i <= hi.

    Membership is decided on the time difference so that a brute-force
    evaluator using the same comparison agrees bit-for-bit.
    """
    n = len(times)
    starts = [0] * n
    stops = [0] * n
    start = stop = 0
    for i in range(n):
        if start < i:
            start = i
        while start < n and times[start] - times[i] < interval.lo:
            start += 1
        if stop < start:
            stop = start
        while stop < n and times[stop] - times[i] <= interval.hi:
            stop += 1
        starts[i], stops[i] = start, stop
    return starts, stops


def _sliding_extreme(
    values: np.ndarray, starts: list[int], stops: list[int], take_max: bool, empty: float
) -> np.ndarray:
    """Min or max over per-sample windows via a monotonic deque."""
    n = len(values)
    out = np.empty(n, dtype=np.float64)
    dq: deque[int] = deque()
    hi = 0

    def better(a: float, b: float) -> bool:
        return a >= b if take_max else a <= b

    for i in range(n):
        start, stop = starts[i], stops[i]
        while hi < stop:
            while dq and better(values[hi], values[dq[-1]]):
                dq.pop()
            dq.append(hi)
            hi += 1
        while dq and dq[0] < start:
            dq.popleft()
        out[i] = values[dq[0]] if dq and start < stop else empty
    return out


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
    if isinstance(formula, Always):
        inner = _eval(formula.operand, pred_map, trace)
        if formula.interval is None:
            return np.minimum.accumulate(inner[::-1])[::-1]
        starts, stops = _window_bounds(times, formula.interval)
        return _sliding_extreme(inner, starts, stops, take_max=False, empty=math.inf)
    if isinstance(formula, Eventually):
        inner = _eval(formula.operand, pred_map, trace)
        if formula.interval is None:
            return np.maximum.accumulate(inner[::-1])[::-1]
        starts, stops = _window_bounds(times, formula.interval)
        return _sliding_extreme(inner, starts, stops, take_max=True, empty=-math.inf)
    if isinstance(formula, Until):
        left = _eval(formula.left, pred_map, trace)
        right = _eval(formula.right, pred_map, trace)
        out = np.empty(n, dtype=np.float64)
        if formula.interval is None:
            acc = -math.inf
            for i in range(n - 1, -1, -1):
                acc = max(right[i], min(left[i], acc))
                out[i] = acc
        else:
            starts, stops = _window_bounds(times, formula.interval)
            for i in range(n):
                best = -math.inf
                guard = math.inf
                for j in range(i, stops[i]):
                    if j >= starts[i]:
                        best = max(best, min(right[j], guard))
                    guard = min(guard, left[j])
                out[i] = best
        return out
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


def requirement_to_json(req: Requirement) -> dict:
    return {
        "formula": req.formula_text,
        "predicates": [
            {"name": p["name"], "a": dict(p["a"]), "b": float(p["b"])} for p in req.predicates
        ],
    }


def requirement_from_json(data: dict) -> Requirement:
    if not isinstance(data, dict) or "formula" not in data:
        raise ValueError("requirement file needs a 'formula' entry")
    parse_formula(data["formula"])  # surface syntax errors at load time
    predicates = []
    for i, spec in enumerate(data.get("predicates", [])):
        if not isinstance(spec, dict) or not {"name", "a", "b"} <= set(spec):
            raise ValueError(f"predicates[{i}] needs 'name', 'a', and 'b'")
        predicates.append(
            {"name": str(spec["name"]), "a": dict(spec["a"]), "b": float(spec["b"])}
        )
    return Requirement(formula_text=data["formula"], predicates=predicates)


def load_requirement(path: str) -> Requirement:
    with open(path, "r", encoding="utf-8") as fh:
        return requirement_from_json(json.load(fh))


def save_requirement(req: Requirement, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(requirement_to_json(req), fh, indent=2)
        fh.write("\n")
