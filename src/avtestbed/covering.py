"""Combinatorial test tables: CSV ingestion, a greedy t-way covering-array
generator, a brute-force coverage checker, and a batch execution harness.

Test CSV files carry a comment preamble ('#' lines, 6 by default), then a
column-name row, then one row per test case.  A "*" cell is a don't-care
value: it covers every value of its parameter and keeps the template value
when a suite is executed.

A suite binds each parameter to one float field of the scenario environment,
named by a path of document keys such as
'environment.pedestrians_list[0].target_speed'.  The paths are resolved once
per suite (scenario.resolve_binding); a row only writes its cells through the
resulting setters before it runs.
"""

from __future__ import annotations

import copy
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import scenario
from .scenario import SimEnvironment, SimulationConfig


@dataclass
class TestTable:
    parameter_names: list[str]
    rows: list[list[str]]


@dataclass
class ParamSpec:
    """One parameter of a system; name and values must survive a round trip
    through write_experiment_data and load_experiment_data unchanged."""

    name: str
    values: list[str]

    def __post_init__(self) -> None:
        problem = _cell_problem(self.name)
        if problem:
            raise ValueError(f"parameter name {self.name!r} {problem}")
        if not self.values:
            raise ValueError(f"parameter {self.name!r} needs at least one value")
        for value in self.values:
            problem = "is the don't-care marker" if value == DONT_CARE else _cell_problem(value)
            if problem:
                raise ValueError(f"parameter {self.name!r}: value {value!r} {problem}")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"parameter {self.name!r} has duplicate values")
        # run-ca binds cells by float(), so "1" and "1.0" would be one case
        numbers: dict[float, str] = {}
        for value in self.values:
            try:
                number = float(value)
            except ValueError:
                continue
            if number in numbers:
                raise ValueError(
                    f"parameter {self.name!r}: values {numbers[number]!r} and {value!r} "
                    "are the same number"
                )
            numbers[number] = value


def _cell_problem(text: str) -> Optional[str]:
    """Why text would not read back as the same CSV cell, or None."""
    if not text:
        return "is empty"
    if "," in text:
        return "contains ','"
    if text.splitlines() != [text]:
        return "contains a line break"
    if text != text.strip():
        return "has leading or trailing whitespace"
    return None


class CsvFormatError(ValueError):
    """A malformed test CSV; message carries the 1-based line number."""


DONT_CARE = "*"


# --------------------------------------------------------------------------
# CSV ingestion


def load_experiment_data(file_name: str, header_line_count: int = 6) -> TestTable:
    """Read a test table, skipping header_line_count comment lines first."""
    with open(file_name, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) <= header_line_count:
        raise CsvFormatError(f"line {len(lines)}: no column-name row after the header")

    name_row = [cell.strip() for cell in lines[header_line_count].split(",")]
    for i, name in enumerate(name_row):
        if name in name_row[:i]:
            raise CsvFormatError(f"line {header_line_count + 1}: column {name!r} repeats")
    data_rows: list[list[str]] = []
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
    return TestTable(parameter_names=name_row, rows=data_rows)


def write_experiment_data(table: TestTable, file_name: str) -> None:
    """Write a table after a 6-line comment preamble, the count that
    load_experiment_data skips by default."""
    lines = [
        "# combinatorial test suite",
        f"# parameters: {len(table.parameter_names)}",
        f"# test cases: {len(table.rows)}",
        "# '*' cells are don't-care values",
        "#",
        "#",
        ",".join(table.parameter_names),
    ]
    lines.extend(",".join(row) for row in table.rows)
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
    """Greedy (AETG-style) strength-t covering array.

    Each row is the best of CANDIDATES_PER_ROW candidates by newly covered
    t-tuples; the first best candidate wins.  A candidate starts from a
    (parameter, value) that appears in the most uncovered tuples, then sets
    the other parameters in a shuffled order, each to the value that covers
    the most uncovered tuples among the parameters already set.  Ties are
    broken by a draw from random.Random(seed), so the table depends only on
    the parameter system, strength and seed; seed must be >= 0.

    A parameter's value gains are scored with packed counters.  For each
    t-combination and each member j, an entry per setting of the other
    members holds the uncovered flags of j's values as sum(flag << W*v),
    so summing the entries of the combinations whose other members are set
    gives every value's gain in one integer, in fields of W bits.  A field
    sums at most one flag per combination holding j, comb(k-1, t-1) of
    them, so W = comb(k-1, t-1).bit_length() bits never carry.
    """
    k = len(params)
    if not 1 <= strength <= k:
        raise ValueError(f"strength {strength} out of range [1, {k}]")
    if seed < 0:
        # random.Random seeds with abs(seed): -5 would repeat seed 5's table
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    sizes = [len(p.values) for p in params]
    width = math.comb(k - 1, strength - 1).bit_length()
    field_mask = (1 << width) - 1
    shifts = [range(0, width * n, width) for n in sizes]

    # Values are indices into ParamSpec.values.  Each t-combination keeps one
    # flag per value tuple, 1 while that tuple is uncovered, at the tuple's
    # mixed-radix code sum(row[j] * stride[j]) over the combination's members.
    # Member j's packed entries are indexed by that code with j's digit 0.
    combos = list(itertools.combinations(range(k), strength))
    uncovered: list[bytearray] = []
    members: list[list[tuple]] = []  # (member, stride, packed) per combination
    # as_member[i]: for each combination containing i, the bit mask of its
    # other members, their (member, stride) pairs and i's packed entries
    as_member: list[list[tuple]] = [[] for _ in range(k)]
    # counts[i][v]: uncovered tuples that give parameter i value v
    counts = [[0] * n for n in sizes]
    for combo in combos:
        combo_strides, size = [], 1
        for j in combo:
            combo_strides.append((j, size))
            size *= sizes[j]
        uncovered.append(bytearray(b"\x01") * size)
        combo_members = []
        for j, stride in combo_strides:
            others = [(o, s) for o, s in combo_strides if o != j]
            packed = [sum(1 << shift for shift in shifts[j])] * size
            combo_members.append((j, stride, packed))
            as_member[j].append((sum(1 << o for o, _ in others), others, packed))
            for v in range(sizes[j]):
                counts[j][v] += size // sizes[j]
        members.append(combo_members)
    remaining = sum(len(flags) for flags in uncovered)

    rows: list[list[str]] = []
    while remaining:
        best_count = max(max(c) for c in counts)
        top = [(i, v) for i in range(k) for v in range(sizes[i]) if counts[i][v] == best_count]
        best_row: list[int] = []
        best_gain = -1
        for _ in range(CANDIDATES_PER_ROW):
            seed_param, seed_value = top[rng.randrange(len(top))] if len(top) > 1 else top[0]
            row = [0] * k
            row[seed_param] = seed_value
            assigned = 1 << seed_param
            # A combination's tuple is fixed once its last member is set, so
            # each combination is scored once, at that member, and the
            # candidate's gain is the sum of its chosen values' gains.  With
            # t=1 the seed's own tuple is left out: it is uncovered for every
            # candidate (its count is the maximum, so at least 1), and adding
            # the same 1 to every gain would not change which candidate wins.
            gain = 0
            order = [i for i in range(k) if i != seed_param]
            rng.shuffle(order)
            for i in order:
                packed_gains = 0
                for others_mask, others, packed in as_member[i]:
                    if others_mask & assigned == others_mask:
                        base = 0
                        for o, s in others:
                            base += row[o] * s
                        packed_gains += packed[base]
                value_gains = [packed_gains >> shift & field_mask for shift in shifts[i]]
                best_value_gain = max(value_gains)
                if value_gains.count(best_value_gain) > 1:
                    ties = [v for v, g in enumerate(value_gains) if g == best_value_gain]
                    row[i] = ties[rng.randrange(len(ties))]
                else:
                    row[i] = value_gains.index(best_value_gain)
                gain += best_value_gain
                assigned |= 1 << i
            if gain > best_gain:
                best_row, best_gain = row, gain
        rows.append([p.values[v] for p, v in zip(params, best_row)])
        for flags, combo_members in zip(uncovered, members):
            code = sum(best_row[j] * s for j, s, _ in combo_members)
            if flags[code]:
                flags[code] = 0
                remaining -= 1
                for j, s, packed in combo_members:
                    v = best_row[j]
                    counts[j][v] -= 1
                    packed[code - v * s] -= 1 << shifts[j][v]

    return TestTable(parameter_names=[p.name for p in params], rows=rows)


def verify_coverage(table: TestTable, params: list[ParamSpec], strength: int) -> list[tuple]:
    """Brute-force check; returns every uncovered (names, values) t-tuple."""
    k = len(params)
    if not 1 <= strength <= k:
        raise ValueError(f"strength {strength} out of range [1, {k}]")
    name_to_col = {name: i for i, name in enumerate(table.parameter_names)}
    for p in params:
        if p.name not in name_to_col:
            raise ValueError(f"parameter {p.name!r} missing from the table")

    # a row without "*" covers exactly its own cells, so only starred rows
    # are expanded; the rest go into each combination's set column-wise
    starred = [row for row in table.rows if DONT_CARE in row]
    plain = [row for row in table.rows if DONT_CARE not in row]
    columns = [[row[c] for row in plain] for c in range(len(table.parameter_names))]
    uncovered: list[tuple] = []
    for combo in itertools.combinations(range(k), strength):
        cols = [name_to_col[params[i].name] for i in combo]
        covered = set(zip(*(columns[c] for c in cols)))
        for row in starred:
            expansions: list[tuple] = [()]
            for idx, c in zip(combo, cols):
                domain = params[idx].values if row[c] == DONT_CARE else [row[c]]
                expansions = [prefix + (v,) for prefix in expansions for v in domain]
            covered.update(expansions)
        for values in itertools.product(*(params[i].values for i in combo)):
            if values not in covered:
                uncovered.append((tuple(params[i].name for i in combo), values))
    return uncovered


# --------------------------------------------------------------------------
# Suite execution


@dataclass
class SuiteResult:
    """What the runner returned for each row that ran, and each row's failure."""

    outputs: dict[int, Any] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)


def run_test_suite(
    table: TestTable,
    env: SimEnvironment,
    config: SimulationConfig,
    binding: dict[str, str],
    runner: Callable[[SimEnvironment, SimulationConfig], Any],
) -> SuiteResult:
    """Execute runner(env, config) once per table row, in row order.

    Each binding path is resolved once, on one copy of env, to a setter of a
    float field (scenario.resolve_binding); a path that resolves to none is
    rejected before any row runs.  Each row then writes every bound cell,
    parsed as a number, through its setter, and a don't-care cell writes
    back the template value.  A row that fails to parse, set up or simulate
    (a ValueError or RuntimeError) is recorded and the suite continues; any
    other exception is a programming error and propagates.
    """
    for name in binding:
        if name not in table.parameter_names:
            raise ValueError(f"binding refers to unknown parameter {name!r}")
    env = copy.deepcopy(env)
    setters = []
    for name, path in binding.items():
        try:
            setters.append((name, *scenario.resolve_binding(env, path)))
        except ValueError as exc:
            raise ValueError(f"parameter {name!r}: {exc}") from None

    result = SuiteResult()
    for index in range(len(table.rows)):
        case = get_experiment_all_fields(table, index)
        try:
            for name, set_value, template_value in setters:
                cell = get_field_value(case, name)
                if cell == DONT_CARE:
                    set_value(template_value)
                    continue
                try:
                    set_value(float(cell))
                except ValueError:
                    raise ValueError(
                        f"parameter {name!r} cell {cell!r} is not numeric"
                    ) from None
            result.outputs[index] = runner(env, config)
        except (ValueError, RuntimeError) as exc:
            result.failures[index] = str(exc)
    return result


# --------------------------------------------------------------------------
# Parameter-system files


def load_param_specs(file_name: str) -> list[ParamSpec]:
    """Read a parameter system: {"parameters": [{"name", "values"}, ...]},
    every name and value a string."""
    specs = scenario.load_json(file_name, {"parameters": list[ParamSpec]})["parameters"]
    names = [spec.name for spec in specs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"duplicate parameter name {name!r}")
    return specs
