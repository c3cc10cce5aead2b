"""Output checks that do not trust the program.

Everything here is computed apart from avtestbed: CSV files are read with
this module's own parsers, covering arrays are checked by expanding rows
into t-tuples with plain sets, traces are checked against the time grid and
the kinematic bicycle update, and robustness is recomputed by a naive
evaluator written straight from the bounded-MTL definitions.  Each check
returns a list of problem strings; an empty list means the output is right.
"""

from __future__ import annotations

import itertools
import math

DONT_CARE = "*"
XY_TOLERANCE = 1e-9
ROBUSTNESS_TOLERANCE = 1e-9


# --------------------------------------------------------------------------
# Covering arrays


def read_table_csv(text: str, header_lines: int = 6) -> tuple[list[str], list[list[str]]]:
    """Column names and cell rows of a test-table CSV (comment preamble first)."""
    lines = text.splitlines()
    if len(lines) <= header_lines:
        raise ValueError("test table has no column-name row")
    names = [cell.strip() for cell in lines[header_lines].split(",")]
    rows = [[cell.strip() for cell in line.split(",")] for line in lines[header_lines + 1:] if line.strip()]
    return names, rows


def covering_lower_bound(domain_sizes: list[int], strength: int) -> int:
    """Rows every strength-t covering array needs: the product of the t
    largest domain sizes (each of their value tuples needs its own row)."""
    return math.prod(sorted(domain_sizes, reverse=True)[:strength])


def check_covering_array(
    names: list[str], rows: list[list[str]], params: list[tuple[str, list[str]]], strength: int
) -> tuple[int, list[str]]:
    """Uncovered t-tuples and other problems of a generated array.

    Returns (number of uncovered t-tuples, problems).  Problems are cells
    outside their domain, ragged rows, a wrong header, or fewer rows than
    the lower bound; uncovered tuples are reported by count only.
    """
    problems: list[str] = []
    expected = [name for name, _ in params]
    if names != expected:
        return 0, [f"header {names} does not list the parameters {expected}"]
    domains = [values for _, values in params]
    for r, row in enumerate(rows):
        if len(row) != len(domains):
            problems.append(f"row {r} has {len(row)} cells, expected {len(domains)}")
            continue
        for c, cell in enumerate(row):
            if cell != DONT_CARE and cell not in domains[c]:
                problems.append(f"row {r} column {names[c]!r}: {cell!r} is not a declared value")
    if problems:
        return 0, problems
    bound = covering_lower_bound([len(d) for d in domains], strength)
    if len(rows) < bound:
        problems.append(f"{len(rows)} rows, fewer than the lower bound {bound}")

    uncovered = 0
    for combo in itertools.combinations(range(len(domains)), strength):
        covered: set[tuple] = set()
        for row in rows:
            choices = [domains[c] if row[c] == DONT_CARE else [row[c]] for c in combo]
            covered.update(itertools.product(*choices))
        uncovered += math.prod(len(domains[c]) for c in combo) - len(covered)
    return uncovered, problems


# --------------------------------------------------------------------------
# Traces


def read_trace_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a trace CSV."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty trace CSV")
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:] if line]
    return header, rows


def check_trace(
    header: list[str], rows: list[list[float]], duration_ms: int, period_ms: int
) -> list[str]:
    """Time grid, finiteness and the bicycle-model x update of both vehicles.

    The log period must equal the step, so consecutive rows are consecutive
    steps: x[k+1] - x[k] = v[k] * cos(h[k]) * dt, with the pre-step speed
    and heading that the row k holds.
    """
    problems: list[str] = []
    n_expected = duration_ms // period_ms + 1
    if header[:1] != ["time_ms"]:
        return [f"first column is {header[:1]}, expected time_ms"]
    if len(rows) != n_expected:
        return [f"{len(rows)} rows, expected {n_expected}"]
    for k, row in enumerate(rows):
        if len(row) != len(header):
            return [f"row {k} has {len(row)} cells, expected {len(header)}"]
        if row[0] != float(k * period_ms):
            return [f"row {k} time {row[0]!r}, expected {k * period_ms}"]
        if not all(math.isfinite(v) for v in row):
            return [f"row {k} holds a non-finite cell"]
    col = {name: i for i, name in enumerate(header)}
    dt = period_ms / 1000.0
    for vehicle in ("vehicle0", "vehicle1"):
        try:
            ix, ih, iv = (col[f"{vehicle}_{s}"] for s in ("position_x", "orientation", "speed"))
        except KeyError:
            problems.append(f"trace lacks {vehicle} x, orientation or speed columns")
            continue
        for k in range(len(rows) - 1):
            step = rows[k + 1][ix] - rows[k][ix]
            model = rows[k][iv] * math.cos(rows[k][ih]) * dt
            if abs(step - model) > XY_TOLERANCE:
                problems.append(
                    f"{vehicle} x step {k}->{k + 1} is {step!r}, bicycle model gives {model!r}"
                )
                break
    return problems


# --------------------------------------------------------------------------
# Naive bounded-MTL robustness
#
# A formula is a nested tuple: ("atom", name), ("not", f), ("and", f, g),
# ("or", f, g), ("implies", f, g), ("always", interval, f),
# ("eventually", interval, f), ("until", interval, f, g), where interval is
# (lo, hi) in seconds or None for [0, inf).  A sample j lies in the window of
# sample i when j >= i and lo <= t_j - t_i <= hi; an empty window gives +inf
# for always and -inf for eventually and until.


def _in_window(times: list[float], i: int, j: int, interval) -> bool:
    if interval is None:
        return True
    lo, hi = interval
    return lo <= times[j] - times[i] <= hi


def naive_signal(formula, atoms: dict[str, list[float]], times: list[float]) -> list[float]:
    """Robustness of formula at every sample, by direct double loops."""
    op = formula[0]
    n = len(times)
    if op == "atom":
        return list(atoms[formula[1]])
    if op == "not":
        return [-v for v in naive_signal(formula[1], atoms, times)]
    if op in ("and", "or", "implies"):
        left = naive_signal(formula[1], atoms, times)
        right = naive_signal(formula[2], atoms, times)
        if op == "and":
            return [min(a, b) for a, b in zip(left, right)]
        if op == "or":
            return [max(a, b) for a, b in zip(left, right)]
        return [max(-a, b) for a, b in zip(left, right)]
    if op in ("always", "eventually"):
        inner = naive_signal(formula[2], atoms, times)
        out = []
        for i in range(n):
            if formula[1] is None:
                window = inner[i:]
            else:
                window = [inner[j] for j in range(i, n) if _in_window(times, i, j, formula[1])]
            if op == "always":
                out.append(min(window) if window else math.inf)
            else:
                out.append(max(window) if window else -math.inf)
        return out
    if op == "until":
        interval = formula[1]
        left = naive_signal(formula[2], atoms, times)
        right = naive_signal(formula[3], atoms, times)
        out = []
        for i in range(n):
            best, guard = -math.inf, math.inf
            for j in range(i, n):
                if interval is not None and times[j] - times[i] > interval[1]:
                    break
                if _in_window(times, i, j, interval):
                    best = max(best, min(right[j], guard))
                guard = min(guard, left[j])
            out.append(best)
        return out
    raise ValueError(f"unknown operator {op!r}")


def format_formula(formula) -> str:
    """The formula in the program's requirement syntax, fully parenthesised."""
    op = formula[0]
    if op == "atom":
        return formula[1]
    if op == "not":
        return f"!({format_formula(formula[1])})"
    if op in ("and", "or", "implies"):
        symbol = {"and": "/\\", "or": "\\/", "implies": "->"}[op]
        return f"({format_formula(formula[1])} {symbol} {format_formula(formula[2])})"

    def interval(iv) -> str:
        return "" if iv is None else f"_[{iv[0]!r},{iv[1]!r}]"

    if op in ("always", "eventually"):
        symbol = "[]" if op == "always" else "<>"
        return f"{symbol}{interval(formula[1])}({format_formula(formula[2])})"
    if op == "until":
        left, right = format_formula(formula[2]), format_formula(formula[3])
        return f"({left} U{interval(formula[1])} {right})"
    raise ValueError(f"unknown operator {op!r}")


def naive_robustness(formula, predicates: list[dict], header: list[str], rows) -> float:
    """Robustness at the first sample of a trace given as a time_ms-first table.

    Each predicate is {"name", "a": {column: coefficient}, "b"} with margin
    b - sum(a_c * x_c).
    """
    col = {name: i for i, name in enumerate(header)}
    times = [row[0] / 1000.0 for row in rows]
    atoms = {}
    for pred in predicates:
        terms = [(col[name], float(coeff)) for name, coeff in pred["a"].items()]
        atoms[pred["name"]] = [
            float(pred["b"]) - sum(coeff * row[c] for c, coeff in terms) for row in rows
        ]
    return naive_signal(formula, atoms, times)[0]


def same_robustness(recorded: float, recomputed: float) -> bool:
    if math.isinf(recorded) or math.isinf(recomputed):
        return recorded == recomputed
    return abs(recorded - recomputed) <= ROBUSTNESS_TOLERANCE
