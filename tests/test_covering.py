import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avtestbed import presets, supervisor
from avtestbed.covering import (
    CsvFormatError,
    ParamSpec,
    TestTable,
    generate_covering_array,
    get_experiment_all_fields,
    get_field_value,
    load_experiment_data,
    load_param_specs,
    run_test_suite,
    verify_coverage,
    write_experiment_data,
)
from oracles import naive_uncovered_tuples, reference_covering_array

DEMO_PARAMS = [
    ParamSpec("ego_init_speed", ["0", "5", "10", "15"]),
    ParamSpec("ego_x_position", ["15", "20", "25"]),
    ParamSpec("pedestrian_speed", ["2", "3", "4", "5"]),
]


class TestLoad:
    def test_demo_csv_shape(self, ca_csv_path):
        table = load_experiment_data(ca_csv_path, header_line_count=6)
        assert table.parameter_names == ["ego_init_speed", "ego_x_position", "pedestrian_speed"]
        assert len(table.rows) == 16
        assert table.rows[0] == ["0", "20", "2"]
        assert table.rows[-1] == ["15", "15", "5"]

    def test_no_header_variant(self, tmp_path, ca_csv_path):
        with open(ca_csv_path) as fh:
            lines = fh.read().splitlines()
        stripped = tmp_path / "plain.csv"
        stripped.write_text("\n".join(lines[6:]) + "\n")
        table = load_experiment_data(str(stripped), header_line_count=0)
        assert len(table.rows) == 16
        assert table.rows[0] == ["0", "20", "2"]

    def test_ragged_row_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# one\na,b,c\n1,2,3\n0,20\n")
        with pytest.raises(CsvFormatError, match="line 4"):
            load_experiment_data(str(bad), header_line_count=1)

    def test_repeated_column_name_reports_line_number(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# one\nego_init_speed,b,ego_init_speed\n0,1,15\n")
        with pytest.raises(CsvFormatError) as err:
            load_experiment_data(str(bad), header_line_count=1)
        assert str(err.value) == "line 2: column 'ego_init_speed' repeats"

    def test_write_load_round_trip(self, tmp_path):
        table = TestTable(["p", "q"], [["1", "*"], ["2", "x"]])
        path = tmp_path / "t.csv"
        write_experiment_data(table, str(path))
        text = path.read_text().splitlines()
        assert [line.startswith("#") for line in text] == [True] * 6 + [False] * 3
        assert load_experiment_data(str(path)) == table


class TestCaseAccess:
    def test_first_case(self, ca_csv_path):
        table = load_experiment_data(ca_csv_path)
        case = get_experiment_all_fields(table, 0)
        assert case == {"ego_init_speed": "0", "ego_x_position": "20", "pedestrian_speed": "2"}
        assert list(case) == table.parameter_names

    def test_last_case(self, ca_csv_path):
        table = load_experiment_data(ca_csv_path)
        case = get_experiment_all_fields(table, 15)
        assert case == {"ego_init_speed": "15", "ego_x_position": "15", "pedestrian_speed": "5"}

    def test_out_of_range(self, ca_csv_path):
        table = load_experiment_data(ca_csv_path)
        with pytest.raises(IndexError):
            get_experiment_all_fields(table, 16)

    def test_field_access(self, ca_csv_path):
        table = load_experiment_data(ca_csv_path)
        case = get_experiment_all_fields(table, 0)
        assert get_field_value(case, "pedestrian_speed") == "2"
        with pytest.raises(KeyError, match="no_such"):
            get_field_value(case, "no_such")

    def test_dont_care_cell_returned_verbatim(self):
        table = TestTable(["a", "b"], [["*", "1"]])
        assert get_field_value(get_experiment_all_fields(table, 0), "a") == "*"


class TestVerifyCoverage:
    def test_demo_csv_fully_covers_pairs(self, ca_csv_path):
        table = load_experiment_data(ca_csv_path)
        assert verify_coverage(table, DEMO_PARAMS, 2) == []

    def test_pair_universe_size(self):
        sizes = [len(p.values) for p in DEMO_PARAMS]
        n_pairs = sum(
            sizes[i] * sizes[j] for i, j in itertools.combinations(range(len(sizes)), 2)
        )
        assert n_pairs == 40

    def test_dropping_a_row_loses_pairs(self, ca_csv_path):
        table = load_experiment_data(ca_csv_path)
        removed = TestTable(table.parameter_names, table.rows[:-1])
        assert verify_coverage(removed, DEMO_PARAMS, 2) != []

    def test_strength_one_on_full_table(self, ca_csv_path):
        table = load_experiment_data(ca_csv_path)
        assert verify_coverage(table, DEMO_PARAMS, 1) == []

    def test_dont_care_counts_as_every_value(self):
        table = TestTable(["a", "b"], [["*", "x"], ["1", "y"], ["2", "y"]])
        params = [ParamSpec("a", ["1", "2"]), ParamSpec("b", ["x", "y"])]
        assert verify_coverage(table, params, 2) == []

    @pytest.mark.parametrize("strength", [1, 2, 3])
    def test_empty_table_leaves_every_tuple_uncovered(self, strength):
        table = TestTable([p.name for p in DEMO_PARAMS], [])
        uncovered = verify_coverage(table, DEMO_PARAMS, strength)
        assert uncovered == naive_uncovered_tuples(table, DEMO_PARAMS, strength)
        assert len(uncovered) == {1: 11, 2: 40, 3: 48}[strength]

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 3), min_size=1, max_size=5),
        strength=st.integers(1, 3),
        seed=st.integers(0, 2**31),
        data=st.data(),
    )
    def test_matches_the_naive_expansion(self, sizes, strength, seed, data):
        """A covering array with rows deleted, cells set to "*" and its columns
        permuted, against the oracle that expands every row."""
        strength = min(strength, len(sizes))
        params = [ParamSpec(f"p{i}", [f"v{v}" for v in range(n)]) for i, n in enumerate(sizes)]
        rows = generate_covering_array(params, strength, seed).rows
        keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        stars = data.draw(
            st.lists(st.booleans(), min_size=len(rows) * len(sizes),
                     max_size=len(rows) * len(sizes))
        )
        rows = [
            ["*" if stars[r * len(sizes) + c] else cell for c, cell in enumerate(row)]
            for r, row in enumerate(rows)
            if keep[r]
        ]
        order = data.draw(st.permutations(range(len(sizes))))
        table = TestTable(
            [params[c].name for c in order], [[row[c] for c in order] for row in rows]
        )
        assert verify_coverage(table, params, strength) == naive_uncovered_tuples(
            table, params, strength
        )


class TestGenerate:
    def test_demo_system_pairwise(self):
        table = generate_covering_array(DEMO_PARAMS, 2, seed=0)
        assert verify_coverage(table, DEMO_PARAMS, 2) == []
        assert 16 <= len(table.rows) <= 24

    def test_full_strength_is_cartesian_product(self):
        table = generate_covering_array(DEMO_PARAMS, 3, seed=0)
        assert verify_coverage(table, DEMO_PARAMS, 3) == []
        assert len(table.rows) == 4 * 3 * 4
        assert len({tuple(r) for r in table.rows}) == 48

    def test_single_parameter_strength_one(self):
        params = [ParamSpec("only", ["a", "b", "c"])]
        table = generate_covering_array(params, 1, seed=0)
        assert sorted(r[0] for r in table.rows) == ["a", "b", "c"]

    def test_strength_out_of_range(self):
        with pytest.raises(ValueError):
            generate_covering_array(DEMO_PARAMS, 0)
        with pytest.raises(ValueError):
            generate_covering_array(DEMO_PARAMS, 4)

    def test_negative_seed_rejected(self):
        # random.Random seeds with abs(seed), so -5 would repeat seed 5's table
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            generate_covering_array(DEMO_PARAMS, 2, seed=-5)

    def test_deterministic_per_seed(self):
        a = generate_covering_array(DEMO_PARAMS, 2, seed=11)
        b = generate_covering_array(DEMO_PARAMS, 2, seed=11)
        assert a == b

    def test_randomized_systems_always_cover(self):
        rng = random.Random(123)
        for trial in range(20):
            k = rng.randint(2, 6)
            params = [
                ParamSpec(f"p{i}", [str(v) for v in range(rng.randint(2, 5))])
                for i in range(k)
            ]
            strength = rng.choice([2, 3])
            if strength > k:
                strength = k
            table = generate_covering_array(params, strength, seed=trial)
            assert verify_coverage(table, params, strength) == []
            sizes = sorted((len(p.values) for p in params), reverse=True)
            bound = 3
            for s in sizes[:strength]:
                bound *= s
            assert len(table.rows) <= bound


    def test_ten_by_four_strength_three_is_fast(self):
        params = [ParamSpec(f"p{i}", [str(v) for v in range(4)]) for i in range(10)]
        start = time.perf_counter()
        table = generate_covering_array(params, 3, seed=0)
        elapsed = time.perf_counter() - start
        assert verify_coverage(table, params, 3) == []
        assert elapsed < 10.0


def _criterion_2_systems():
    """The 50 randomized systems of acceptance criterion 2, in its order."""
    rng = random.Random(20260809)
    systems = []
    for trial in range(50):
        k = rng.randint(2, 6)
        params = [
            ParamSpec(f"p{i}", [str(v) for v in range(rng.randint(2, 5))]) for i in range(k)
        ]
        systems.append(pytest.param(params, min(rng.choice([2, 3]), k), trial, id=f"trial{trial}"))
    return systems


class TestMatchesReference:
    """The generator returns exactly the reference greedy's rows."""

    @pytest.mark.parametrize("params, strength, seed", _criterion_2_systems())
    def test_criterion_2_systems(self, params, strength, seed):
        assert generate_covering_array(params, strength, seed) == reference_covering_array(
            params, strength, seed
        )

    @pytest.mark.parametrize("strength", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_demo_system(self, strength, seed):
        assert generate_covering_array(DEMO_PARAMS, strength, seed) == reference_covering_array(
            DEMO_PARAMS, strength, seed
        )

    @pytest.mark.parametrize(
        "sizes, strength",
        [([3], 1), ([1], 1), ([1, 1, 1], 2), ([1, 3, 1, 2], 2), ([2, 1, 4, 1], 3), ([4, 2, 3], 1)],
    )
    def test_strength_one_and_single_value_systems(self, sizes, strength):
        params = [ParamSpec(f"p{i}", [f"v{v}" for v in range(n)]) for i, n in enumerate(sizes)]
        for seed in range(5):
            assert generate_covering_array(params, strength, seed) == reference_covering_array(
                params, strength, seed
            )

    @pytest.mark.parametrize("k, strength", [(16, 2), (17, 2), (7, 3), (8, 3)])
    def test_packed_field_width_boundary(self, k, strength):
        """k binary parameters where comb(k-1, t-1), the most that one value's
        gain can sum, is 15 (4-bit fields) or 16 and 21 (5-bit fields)."""
        params = [ParamSpec(f"p{i}", ["0", "1"]) for i in range(k)]
        assert generate_covering_array(params, strength, k) == reference_covering_array(
            params, strength, k
        )

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        strength=st.integers(1, 3),
        seed=st.integers(0, 2**31),
    )
    def test_small_systems(self, sizes, strength, seed):
        strength = min(strength, len(sizes))
        params = [ParamSpec(f"p{i}", [f"v{v}" for v in range(n)]) for i, n in enumerate(sizes)]
        assert generate_covering_array(params, strength, seed) == reference_covering_array(
            params, strength, seed
        )


class TestParamSpec:
    @pytest.mark.parametrize("name", ["", "a,b", "a\nb", "a\rb", " a", "a\t"])
    def test_name_that_does_not_read_back_rejected(self, name):
        with pytest.raises(ValueError, match="parameter name"):
            ParamSpec(name, ["1", "2"])

    @pytest.mark.parametrize("value", ["", "1,5", "1\n5", "5\u2028", " 5", "5 ", "*"])
    def test_value_that_does_not_read_back_rejected(self, value):
        with pytest.raises(ValueError, match="parameter 'speed': value"):
            ParamSpec("speed", ["1", value])

    def test_accepted_system_round_trips_through_csv(self, tmp_path):
        params = [ParamSpec("speed m/s", ["-1.5", "2e3", "a b"]), ParamSpec("mode", ["x", "y"])]
        table = generate_covering_array(params, 2, seed=0)
        path = tmp_path / "ca.csv"
        write_experiment_data(table, str(path))
        assert load_experiment_data(str(path)) == table

    def test_duplicate_parameter_names_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(
            '{"parameters": [{"name": "a", "values": ["1", "2"]},'
            ' {"name": "b", "values": ["1"]}, {"name": "a", "values": ["3"]}]}'
        )
        with pytest.raises(ValueError, match="duplicate parameter name 'a'"):
            load_param_specs(str(path))

    def test_values_must_be_an_array(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text('{"parameters": [{"name": "a", "values": "abc"}]}')
        with pytest.raises(ValueError, match=r"parameters\[0\]\.values: expected an array"):
            load_param_specs(str(path))


DEMO_BINDING = {
    "ego_init_speed": "environment.initial_state_config_list[0].value",
    "ego_x_position": "environment.ego_vehicles_list[0].current_position[0]",
    "pedestrian_speed": "environment.pedestrians_list[0].target_speed",
}


def demo_template(duration_ms=200):
    return presets.demo_scenario(sim_duration_ms=duration_ms)


def embedded_runner(env, config):
    return supervisor.run_embedded(env, config).trajectory


class TestRunSuite:
    def test_all_rows_executed(self, ca_csv_path):
        table = load_experiment_data(ca_csv_path)
        result = run_test_suite(table, *demo_template(), DEMO_BINDING, embedded_runner)
        assert sorted(result.outputs) == list(range(16))
        assert result.failures == {}
        # bound values actually land in the runs: ego x differs per row
        first_x = {idx: result.outputs[idx].rows[0][1] for idx in (0, 2)}
        assert first_x[0] == 20.0
        assert first_x[2] == 15.0

    def test_empty_table(self):
        table = TestTable(["a"], [])
        result = run_test_suite(table, *demo_template(), {}, embedded_runner)
        assert result.outputs == {}
        assert result.failures == {}

    def test_bad_row_is_isolated(self):
        table = TestTable(
            ["ego_init_speed", "ego_x_position", "pedestrian_speed"],
            [["10", "20", "3"], ["fast", "20", "3"], ["0", "25", "2"]],
        )
        result = run_test_suite(table, *demo_template(), DEMO_BINDING, embedded_runner)
        assert sorted(result.outputs) == [0, 2]
        assert list(result.failures) == [1]
        assert "not numeric" in result.failures[1]

    def test_dont_care_keeps_template_default(self):
        table = TestTable(
            ["ego_init_speed", "ego_x_position", "pedestrian_speed"],
            [["*", "*", "*"]],
        )
        result = run_test_suite(table, *demo_template(), DEMO_BINDING, embedded_runner)
        trajectory = result.outputs[0]
        assert trajectory.rows[0][1] == 20.0  # template ego x
        assert trajectory.rows[0][4] == 10.0  # template initial speed

    def test_dont_care_writes_back_the_template_value(self):
        # row 0 moves the ego; row 1 must start it from the template x again
        table = TestTable(
            ["ego_init_speed", "ego_x_position", "pedestrian_speed"],
            [["*", "25", "*"], ["*", "*", "*"]],
        )
        result = run_test_suite(table, *demo_template(), DEMO_BINDING, embedded_runner)
        assert result.outputs[0].rows[0][1] == 25.0
        assert result.outputs[1].rows[0][1] == 20.0

    def test_caller_scenario_is_left_unchanged(self, ca_csv_path):
        env, config = demo_template()
        table = load_experiment_data(ca_csv_path)
        result = run_test_suite(table, env, config, DEMO_BINDING, embedded_runner)
        assert len(result.outputs) == 16
        assert (env, config) == demo_template()

    @pytest.mark.parametrize(
        "path, message",
        [
            ("environment.pedestrians_list[3].target_speed", "does not resolve at segment 3"),
            ("environment.ego_vehicles_list[0].vhc_id", "integer field"),
            ("environment.ego_vehicles_list[0].controller", "non-numeric field"),
            (5, "bad path syntax in 5"),
        ],
    )
    def test_unbindable_path_rejected_before_any_row(self, path, message):
        table = TestTable(["pedestrian_speed"], [["2"], ["3"]])

        def no_run(env, config):
            raise AssertionError("ran a row of a suite whose binding cannot be set")

        with pytest.raises(ValueError, match=rf"^parameter 'pedestrian_speed': .*{message}"):
            run_test_suite(table, *demo_template(), {"pedestrian_speed": path}, no_run)

    def test_unknown_binding_name_rejected(self):
        table = TestTable(["a"], [["1"]])
        with pytest.raises(ValueError, match="unknown parameter"):
            binding = {"nope": "config.server_port"}
            run_test_suite(table, *demo_template(), binding, embedded_runner)

    def test_setup_error_row_is_recorded_as_failed(self):
        # a negative pedestrian speed passes binding but fails world setup
        table = TestTable(
            ["ego_init_speed", "ego_x_position", "pedestrian_speed"],
            [["10", "20", "-3"], ["0", "25", "2"]],
        )
        result = run_test_suite(table, *demo_template(), DEMO_BINDING, embedded_runner)
        assert sorted(result.outputs) == [1]
        assert list(result.failures) == [0]
        assert "invalid scenario" in result.failures[0]

    def test_programming_error_propagates(self):
        table = TestTable(["ego_init_speed"], [["10"], ["5"]])
        calls = []

        def buggy(env, config):
            calls.append(env)
            return 1 / 0

        binding = {"ego_init_speed": DEMO_BINDING["ego_init_speed"]}
        with pytest.raises(ZeroDivisionError):
            run_test_suite(table, *demo_template(), binding, buggy)
        assert len(calls) == 1
