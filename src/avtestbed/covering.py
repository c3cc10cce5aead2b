"""Combinatorial test tables: CSV ingestion, a greedy t-way covering-array
generator, a brute-force coverage checker, and a batch execution harness.

Test CSV files carry a comment preamble ('#' lines, 6 by default), then a
column-name row, then one row per test case.  A "*" cell is a don't-care
value: it covers every value of its parameter and keeps the template default
when a suite is executed.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class TestTable:
    parameter_names: list[str]
    rows: list[list[str]]
    index_name: Optional[str] = None
    index_values: Optional[list[str]] = None


@dataclass
class ParamSpec:
    name: str
    values: list[str]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"parameter {self.name!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"parameter {self.name!r} has duplicate values")


class CsvFormatError(ValueError):
    """A malformed test CSV; message carries the 1-based line number."""


DONT_CARE = "*"


# --------------------------------------------------------------------------
# CSV ingestion


def load_experiment_data(
    file_name: str, header_line_count: int = 6, index_col: Optional[int] = None
) -> TestTable:
    """Read a test table, skipping header_line_count comment lines first."""
    with open(file_name, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) <= header_line_count:
        raise CsvFormatError(f"line {len(lines)}: no column-name row after the header")

    name_row = [cell.strip() for cell in lines[header_line_count].split(",")]
    data_rows: list[list[str]] = []
    row_lines: list[int] = []
    for offset, line in enumerate(lines[header_line_count + 1:]):
        line_no = header_line_count + 2 + offset
        if not line.strip():
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != len(name_row):
            raise CsvFormatError(
                f"line {line_no}: expected {len(name_row)} cells, got {len(cells)}"
            )
        data_rows.append(cells)
        row_lines.append(line_no)

    if index_col is None:
        return TestTable(parameter_names=name_row, rows=data_rows)
    if not 0 <= index_col < len(name_row):
        raise CsvFormatError(f"index_col {index_col} out of range for {len(name_row)} columns")
    names = [n for i, n in enumerate(name_row) if i != index_col]
    rows = [[c for i, c in enumerate(row) if i != index_col] for row in data_rows]
    index_values = [row[index_col] for row in data_rows]
    return TestTable(
        parameter_names=names,
        rows=rows,
        index_name=name_row[index_col],
        index_values=index_values,
    )


def write_experiment_data(
    table: TestTable, file_name: str, header_line_count: int = 6
) -> None:
    """Write a table with a regenerated comment preamble of the given size."""
    preamble = [
        "# combinatorial test suite",
        f"# parameters: {len(table.parameter_names)}",
        f"# test cases: {len(table.rows)}",
        "# '*' cells are don't-care values",
    ]
    while len(preamble) < header_line_count:
        preamble.append("#")
    lines = preamble[:header_line_count]
    names = list(table.parameter_names)
    rows = [list(r) for r in table.rows]
    if table.index_name is not None and table.index_values is not None:
        names = [table.index_name] + names
        rows = [[idx] + row for idx, row in zip(table.index_values, rows)]
    lines.append(",".join(names))
    lines.extend(",".join(row) for row in rows)
    with open(file_name, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def get_experiment_all_fields(table: TestTable, index: int) -> dict[str, str]:
    """One test case as an ordered name-to-cell mapping."""
    if not 0 <= index < len(table.rows):
        raise IndexError(f"test case index {index} out of range (have {len(table.rows)})")
    return dict(zip(table.parameter_names, table.rows[index]))


def get_field_value(case: dict[str, str], name: str) -> str:
    if name not in case:
        raise KeyError(f"unknown test parameter {name!r}")
    return case[name]


# --------------------------------------------------------------------------
# Greedy t-way generation

CANDIDATES_PER_ROW = 50


def generate_covering_array(
    params: list[ParamSpec], strength: int, seed: int = 0
) -> TestTable:
    """Greedy strength-t covering array: repeatedly keep the best of 50
    candidate rows by newly covered t-tuples, with a seeded tie-break."""
    k = len(params)
    if not 1 <= strength <= k:
        raise ValueError(f"strength {strength} out of range [1, {k}]")
    rng = random.Random(seed)

    combos = list(itertools.combinations(range(k), strength))
    uncovered: set[tuple] = set()
    for combo in combos:
        for values in itertools.product(*(params[i].values for i in combo)):
            uncovered.add((combo, values))

    rows: list[list[str]] = []
    while uncovered:
        best_row: Optional[list[str]] = None
        best_gain = -1
        for _ in range(CANDIDATES_PER_ROW):
            candidate = _build_candidate(params, combos, uncovered, rng)
            gain = _coverage_gain(candidate, combos, uncovered)
            if gain > best_gain:
                best_row, best_gain = candidate, gain
        rows.append(best_row)
        for combo in combos:
            uncovered.discard((combo, tuple(best_row[i] for i in combo)))

    return TestTable(parameter_names=[p.name for p in params], rows=rows)


def _coverage_gain(row: list[str], combos, uncovered: set) -> int:
    return sum(1 for combo in combos if (combo, tuple(row[i] for i in combo)) in uncovered)


def _build_candidate(
    params: list[ParamSpec], combos, uncovered: set, rng: random.Random
) -> list[str]:
    """AETG-style candidate: seed with the value appearing in the most
    uncovered tuples, then fill the other parameters greedily in random order."""
    k = len(params)

    # frequency of each (param, value) among uncovered tuples
    counts: dict[tuple[int, str], int] = {
        (i, v): 0 for i in range(k) for v in params[i].values
    }
    for combo, values in uncovered:
        for i, v in zip(combo, values):
            counts[(i, v)] += 1
    best_count = max(counts.values())
    top = [key for key in counts if counts[key] == best_count]
    seed_param, seed_value = top[rng.randrange(len(top))] if len(top) > 1 else top[0]

    row: list[Optional[str]] = [None] * k
    row[seed_param] = seed_value
    order = [i for i in range(k) if i != seed_param]
    rng.shuffle(order)

    for i in order:
        best_values: list[str] = []
        best_gain = -1
        for v in params[i].values:
            row[i] = v
            gain = sum(
                1
                for combo in combos
                if i in combo
                and all(row[j] is not None for j in combo)
                and (combo, tuple(row[j] for j in combo)) in uncovered
            )
            if gain > best_gain:
                best_gain, best_values = gain, [v]
            elif gain == best_gain:
                best_values.append(v)
        row[i] = best_values[rng.randrange(len(best_values))] if len(best_values) > 1 else best_values[0]
    return row  # type: ignore[return-value]


def verify_coverage(table: TestTable, params: list[ParamSpec], strength: int) -> list[tuple]:
    """Brute-force check; returns every uncovered (names, values) t-tuple."""
    k = len(params)
    if not 1 <= strength <= k:
        raise ValueError(f"strength {strength} out of range [1, {k}]")
    name_to_col = {name: i for i, name in enumerate(table.parameter_names)}
    for p in params:
        if p.name not in name_to_col:
            raise ValueError(f"parameter {p.name!r} missing from the table")

    uncovered: list[tuple] = []
    for combo in itertools.combinations(range(k), strength):
        cols = [name_to_col[params[i].name] for i in combo]
        covered: set[tuple] = set()
        for row in table.rows:
            cells = [row[c] for c in cols]
            expansions: list[tuple] = [()]
            for idx, cell in zip(combo, cells):
                domain = params[idx].values if cell == DONT_CARE else [cell]
                expansions = [prefix + (v,) for prefix in expansions for v in domain]
            covered.update(expansions)
        for values in itertools.product(*(params[i].values for i in combo)):
            if values not in covered:
                uncovered.append((tuple(params[i].name for i in combo), values))
    return uncovered


# --------------------------------------------------------------------------
# Scenario binding and suite execution

_PATH_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|\[(\d+)\]")


def set_scenario_value(doc: dict, path: str, value: float) -> None:
    """Assign a numeric field addressed as e.g.
    'environment.pedestrians_list[0].target_speed'."""
    tokens: list = []
    pos = 0
    for match in _PATH_TOKEN.finditer(path):
        if match.start() != pos:
            raise ValueError(f"bad path syntax at offset {pos} in {path!r}")
        tokens.append(match.group(1) if match.group(1) is not None else int(match.group(2)))
        pos = match.end()
        if pos < len(path) and path[pos] == ".":
            pos += 1
    if pos != len(path) or not tokens:
        raise ValueError(f"bad path syntax in {path!r}")

    target = doc
    for token in tokens[:-1]:
        try:
            target = target[token]
        except (KeyError, IndexError, TypeError):
            raise ValueError(f"path {path!r} does not resolve at segment {token!r}") from None
    last = tokens[-1]
    try:
        current = target[last]
    except (KeyError, IndexError, TypeError):
        raise ValueError(f"path {path!r} does not resolve at segment {last!r}") from None
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise ValueError(f"path {path!r} is bound to a non-numeric field")
    target[last] = value


@dataclass
class SuiteResult:
    """What the runner returned for each row that ran, and each row's failure."""

    outputs: dict[int, Any] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)


def run_test_suite(
    table: TestTable,
    scenario_template: dict,
    binding: dict[str, str],
    runner: Callable[[dict], Any],
) -> SuiteResult:
    """Execute one simulation per table row, in row order.

    Each bound cell is parsed as a number and written into a fresh copy of
    the template document; don't-care cells keep the template value.  A row
    that fails to parse or simulate is recorded and the suite continues.
    """
    for name in binding:
        if name not in table.parameter_names:
            raise ValueError(f"binding refers to unknown parameter {name!r}")

    result = SuiteResult()
    for index in range(len(table.rows)):
        case = get_experiment_all_fields(table, index)
        doc = json.loads(json.dumps(scenario_template))
        try:
            for name, path in binding.items():
                cell = get_field_value(case, name)
                if cell == DONT_CARE:
                    continue
                try:
                    numeric = float(cell)
                except ValueError:
                    raise ValueError(
                        f"parameter {name!r} cell {cell!r} is not numeric"
                    ) from None
                set_scenario_value(doc, path, numeric)
            result.outputs[index] = runner(doc)
        except Exception as exc:
            result.failures[index] = str(exc)
    return result


# --------------------------------------------------------------------------
# Parameter-system files


def load_param_specs(file_name: str) -> list[ParamSpec]:
    """Read a parameter system: {"parameters": [{"name", "values"}, ...]}."""
    with open(file_name, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("parameters"), list):
        raise ValueError("parameter file must contain a 'parameters' array")
    specs = []
    for i, entry in enumerate(data["parameters"]):
        if not isinstance(entry, dict) or "name" not in entry or "values" not in entry:
            raise ValueError(f"parameters[{i}] must have 'name' and 'values'")
        specs.append(ParamSpec(str(entry["name"]), [str(v) for v in entry["values"]]))
    return specs
