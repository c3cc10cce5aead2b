import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avtestbed import presets, supervisor
from avtestbed import robustness as rb
from avtestbed.robustness import (
    Always,
    And,
    Atom,
    Eventually,
    FormulaSyntaxError,
    Implies,
    Interval,
    LinearPredicate,
    Not,
    Or,
    Requirement,
    Trace,
    Until,
    convert_trajectory,
    format_formula,
    parse_formula,
    requirement_from_json,
    robustness,
    robustness_signal,
)
from avtestbed.scenario import ScenarioFormatError, column_names

from oracles import (
    naive_boolean,
    naive_robustness,
    random_formula,
    random_predicates,
    random_trace,
)

# demo log layout: state columns after dropping time
EGO_X, EGO_Y, EGO_TH, EGO_V, AGENT_X, AGENT_Y, AGENT_TH, AGENT_V, PED_X, PED_Y = range(10)

N_STATE = 10


def demo_predicates():
    def pred(name, entries, b):
        a = np.zeros(N_STATE)
        for idx, coeff in entries:
            a[idx] = coeff
        return LinearPredicate(name, a, b)

    return [
        pred("y_check1", [(AGENT_Y, 1.0), (EGO_Y, -1.0)], 1.5),
        pred("y_check2", [(AGENT_Y, -1.0), (EGO_Y, 1.0)], 1.5),
        pred("x_check1", [(AGENT_X, 1.0), (EGO_X, -1.0)], 8.0),
        pred("x_check2", [(AGENT_X, -1.0), (EGO_X, 1.0)], 0.0),
    ]


COLLISION_PHI = "[](!(y_check1 /\\ y_check2 /\\ x_check1 /\\ x_check2))"


def single_sample_trace(ego_x, ego_y, agent_x, agent_y):
    state = np.zeros((1, N_STATE))
    state[0, EGO_X] = ego_x
    state[0, EGO_Y] = ego_y
    state[0, AGENT_X] = agent_x
    state[0, AGENT_Y] = agent_y
    return Trace(times=np.array([0.0]), states=state)


class TestTrace:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_states_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Trace(times=np.array([0.0, 0.1, 0.2]), states=np.array([[1.0], [bad], [-2.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Trace(times=np.array([0.0, 0.1, bad]), states=np.zeros((3, 1)))


class TestConvertTrajectory:
    def test_demo_trajectory(self):
        env, config = presets.demo_scenario()
        trajectory = supervisor.run_embedded(env, config).trajectory
        trace = convert_trajectory(trajectory)
        assert trace.times[0] == 0.0
        assert trace.times[1500] == 15.0
        assert trace.states.shape == (1501, 10)

    def test_single_row(self):
        trajectory = supervisor.run_embedded(*presets.demo_scenario(sim_duration_ms=0)).trajectory
        trace = convert_trajectory(trajectory)
        assert len(trace.times) == 1

    def test_non_time_first_column_rejected(self):
        from avtestbed.scenario import ItemType, LogItemDescription, StateId, Trajectory

        traj = Trajectory(
            column_labels=[LogItemDescription(ItemType.VEHICLE, 0, StateId.POSITION_X)],
            rows=np.zeros((1, 1)),
        )
        with pytest.raises(ValueError, match="TIME"):
            convert_trajectory(traj)


class TestParser:
    def test_collision_formula_shape(self):
        phi = parse_formula(COLLISION_PHI)
        assert isinstance(phi, Always)
        assert phi.interval is None
        inner = phi.operand
        assert isinstance(inner, Not)
        conj = inner.operand
        # left-associative conjunction: ((a /\ b) /\ c) /\ d
        assert isinstance(conj, And)
        assert conj.right == Atom("x_check2")
        assert isinstance(conj.left, And)
        assert conj.left.right == Atom("x_check1")
        assert isinstance(conj.left.left, And)
        assert conj.left.left == And(Atom("y_check1"), Atom("y_check2"))

    def test_bounded_always(self):
        phi = parse_formula("[]_[0,5] p")
        assert phi == Always(Atom("p"), Interval(0.0, 5.0))

    def test_bounded_until_and_eventually(self):
        assert parse_formula("p U_[1,2] q") == Until(Atom("p"), Atom("q"), Interval(1.0, 2.0))
        assert parse_formula("<>_[0,inf] p") == Eventually(Atom("p"), Interval(0.0, math.inf))

    def test_precedence(self):
        phi = parse_formula("a /\\ b \\/ c -> d")
        assert phi == Implies(Or(And(Atom("a"), Atom("b")), Atom("c")), Atom("d"))

    def test_until_binds_tighter_than_and(self):
        phi = parse_formula("a U b /\\ c")
        assert phi == And(Until(Atom("a"), Atom("b")), Atom("c"))

    @pytest.mark.parametrize("text, expected", [
        ("a -> b -> c", Implies(Atom("a"), Implies(Atom("b"), Atom("c")))),
        ("a \\/ b \\/ c", Or(Or(Atom("a"), Atom("b")), Atom("c"))),
        ("p U_[0,1] q U r",
         Until(Atom("p"), Until(Atom("q"), Atom("r")), Interval(0.0, 1.0))),
        ("!a U b", Until(Not(Atom("a")), Atom("b"))),
        ("[]_[0,1] a U b", Until(Always(Atom("a"), Interval(0.0, 1.0)), Atom("b"))),
    ], ids=["implies-groups-right", "or-groups-left", "until-groups-right",
            "not-binds-tighter-than-until", "always-binds-tighter-than-until"])
    def test_grouping(self, text, expected):
        assert parse_formula(text) == expected

    @pytest.mark.parametrize("text, position, message", [
        ("(p", 2, "expected rparen, found end"),
        ("p _[0,1]", 1, "unexpected interval"),
        ("/\\ p", 0, "expected a formula, found and"),
    ], ids=["unclosed-paren", "stray-interval", "leading-and"])
    def test_syntax_error_message_and_position(self, text, position, message):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(text)
        assert info.value.position == position
        assert str(info.value) == f"at position {position}: {message}"

    def test_trailing_operator_is_error(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p /\\")

    def test_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError, match="position"):
            parse_formula("p @ q")

    def test_unbalanced_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(p /\\ q")

    def test_tokenizer_yields_every_kind(self):
        tokens = rb._tokenize("[] (a /\\ !b) \\/ <>_[0,1] c -> d U_[0, 2] e U f")
        assert [(kind, value) for kind, value, _ in tokens] == [
            ("always", None), ("lparen", None), ("ident", "a"), ("and", None), ("not", None),
            ("ident", "b"), ("rparen", None), ("or", None), ("eventually", None),
            ("interval", Interval(0.0, 1.0)), ("ident", "c"), ("implies", None),
            ("ident", "d"), ("until", None), ("interval", Interval(0.0, 2.0)), ("ident", "e"),
            ("until", None), ("ident", "f"), ("end", None),
        ]

    def test_format_parse_fixed_point(self):
        rng = random.Random(17)
        for _ in range(200):
            formula = random_formula(rng, ["a", "b", "c"], depth=4)
            text = format_formula(formula)
            reparsed = parse_formula(text)
            assert reparsed == formula
            assert format_formula(reparsed) == text


class TestPredicateRobustness:
    # an atom's robustness is its predicate's margin b - a.x at the sample
    def test_y_check1_margin(self):
        trace = single_sample_trace(ego_x=0.0, ego_y=0.0, agent_x=0.0, agent_y=1.0)
        value = robustness(Atom("y_check1"), demo_predicates(), trace)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_x_check2_margin(self):
        trace = single_sample_trace(ego_x=10.0, ego_y=0.0, agent_x=12.0, agent_y=0.0)
        value = robustness(Atom("x_check2"), demo_predicates(), trace)
        assert value == pytest.approx(2.0, abs=1e-15)

    def test_degenerate_zero_predicate(self):
        pred = LinearPredicate("zero", np.zeros(3), 0.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            trace = Trace(times=np.array([0.0]), states=rng.uniform(-9, 9, (1, 3)))
            assert robustness(Atom("zero"), [pred], trace) == 0.0

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LinearPredicate("bad", np.array([math.inf]), 0.0)


class TestRobustness:
    def test_hand_derived_single_sample(self):
        trace = single_sample_trace(ego_x=10.0, ego_y=0.0, agent_x=12.0, agent_y=1.0)
        value = robustness(parse_formula(COLLISION_PHI), demo_predicates(), trace)
        # margins: y_check1 0.5, y_check2 2.5, x_check1 6.0, x_check2 2.0
        assert value == pytest.approx(-0.5, abs=1e-12)

    def test_constant_positive_signal(self):
        pred = LinearPredicate("p", np.array([0.0]), 1.0)
        trace = Trace(times=np.arange(5) * 0.1, states=np.zeros((5, 1)))
        assert robustness(parse_formula("[](p)"), [pred], trace) == 1.0

    def test_unresolved_atom(self):
        trace = single_sample_trace(0, 0, 0, 0)
        with pytest.raises(ValueError, match="unresolved atom"):
            robustness(parse_formula("ghost"), demo_predicates(), trace)

    def test_dimension_mismatch(self):
        pred = LinearPredicate("p", np.array([1.0, 2.0]), 0.0)
        trace = Trace(times=np.array([0.0]), states=np.zeros((1, 3)))
        with pytest.raises(ValueError, match="state columns"):
            robustness(Atom("p"), [pred], trace)

    def test_duplicate_predicate_names_rejected(self):
        preds = [
            LinearPredicate("p", np.array([1.0]), 0.0),
            LinearPredicate("p", np.array([2.0]), 0.0),
        ]
        trace = Trace(times=np.array([0.0]), states=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="duplicate"):
            robustness(Atom("p"), preds, trace)

    def test_dp_equals_naive_oracle_on_random_instances(self):
        rng = random.Random(4242)
        for trial in range(500):
            dims = rng.randint(1, 4)
            trace = random_trace(rng, max_samples=20, dims=dims)
            preds = random_predicates(rng, rng.randint(1, 4), dims)
            formula = random_formula(rng, [p.name for p in preds], depth=rng.randint(0, 4))
            got = robustness(formula, preds, trace)
            want = naive_robustness(formula, preds, trace)
            assert got == want or abs(got - want) <= 1e-12, (
                f"trial {trial}: dp {got} vs naive {want} for {format_formula(formula)}"
            )

    def test_negation_duality_exact(self):
        rng = random.Random(77)
        for _ in range(100):
            dims = rng.randint(1, 3)
            trace = random_trace(rng, max_samples=12, dims=dims)
            preds = random_predicates(rng, 3, dims)
            formula = random_formula(rng, [p.name for p in preds], depth=3)
            assert robustness(Not(formula), preds, trace) == -robustness(formula, preds, trace)

    def test_soundness_against_boolean_semantics(self):
        rng = random.Random(4099)
        checked = 0
        for _ in range(300):
            dims = rng.randint(1, 3)
            trace = random_trace(rng, max_samples=10, dims=dims)
            preds = random_predicates(rng, 3, dims)
            formula = random_formula(rng, [p.name for p in preds], depth=3)
            rho = robustness(formula, preds, trace)
            if rho == 0.0 or math.isinf(rho):
                continue
            sat = naive_boolean(formula, preds, trace)
            assert (rho > 0) == sat
            checked += 1
        assert checked > 200

    def test_monotone_in_b_for_positive_atoms(self):
        rng = random.Random(31)
        for _ in range(50):
            dims = 3
            trace = random_trace(rng, max_samples=10, dims=dims)
            preds = random_predicates(rng, 3, dims)
            # negation-free formula: atoms appear positively
            formula = parse_formula("([](p0 /\\ p1)) \\/ (p2 U p0)")
            base = robustness(formula, preds, trace)
            eps = 0.25
            bumped = [LinearPredicate(p.name, p.a.copy(), p.b + eps) for p in preds]
            assert robustness(formula, bumped, trace) >= base

    def test_empty_bounded_window_conventions(self):
        pred = LinearPredicate("p", np.array([-1.0]), 0.0)
        trace = Trace(times=np.array([0.0]), states=np.array([[5.0]]))
        # only sample is at t=0; window [1, 2] is empty
        assert robustness(Always(Atom("p"), Interval(1.0, 2.0)), [pred], trace) == math.inf
        assert robustness(Eventually(Atom("p"), Interval(1.0, 2.0)), [pred], trace) == -math.inf

    def test_bounded_always_window_selection(self):
        pred = LinearPredicate("p", np.array([-1.0]), 0.0)  # margin = x
        times = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        states = np.array([[5.0], [4.0], [1.0], [2.0], [0.5]])
        trace = Trace(times=times, states=states)
        # window [0.1, 0.3] from t=0 covers samples at 0.1, 0.2, 0.3
        got = robustness(Always(Atom("p"), Interval(0.1, 0.3)), [pred], trace)
        assert got == 1.0


class TestRobustnessSignal:
    def test_element_zero_matches_scalar(self):
        rng = random.Random(5150)
        for _ in range(50):
            dims = 2
            trace = random_trace(rng, max_samples=15, dims=dims)
            preds = random_predicates(rng, 2, dims)
            formula = random_formula(rng, [p.name for p in preds], depth=3)
            signal = robustness_signal(formula, preds, trace)
            assert len(signal) == len(trace.times)
            assert signal[0] == robustness(formula, preds, trace)

    def test_matches_oracle_at_offsets(self):
        rng = random.Random(60)
        trace = random_trace(rng, max_samples=15, dims=3)
        while len(trace.times) < 5:
            trace = random_trace(rng, max_samples=15, dims=3)
        preds = random_predicates(rng, 3, 3)
        formula = random_formula(rng, [p.name for p in preds], depth=3)
        signal = robustness_signal(formula, preds, trace)
        for offset in (1, len(trace.times) // 2, len(trace.times) - 1):
            want = naive_robustness(formula, preds, trace, i=offset)
            assert signal[offset] == want or abs(signal[offset] - want) <= 1e-12

    def test_single_sample_signal(self):
        pred = LinearPredicate("p", np.array([0.0]), 2.0)
        trace = Trace(times=np.array([0.0]), states=np.zeros((1, 1)))
        signal = robustness_signal(Atom("p"), [pred], trace)
        assert list(signal) == [2.0]

    def test_constant_satisfying_trace(self):
        pred = LinearPredicate("p", np.array([0.0]), 3.0)
        trace = Trace(times=np.arange(10) * 0.1, states=np.zeros((10, 1)))
        signal = robustness_signal(parse_formula("[](p)"), [pred], trace)
        assert np.all(signal == 3.0)


def coordinate_predicates(dims):
    """p<k> has margin x_k, which numpy and the oracle both compute without rounding."""
    return [LinearPredicate(f"p{k}", -np.eye(dims)[k], 0.0) for k in range(dims)]


def assert_signal_is_naive(formula, preds, trace):
    signal = robustness_signal(formula, preds, trace)
    want = [naive_robustness(formula, preds, trace, i=i) for i in range(len(trace.times))]
    assert np.array_equal(signal, want), format_formula(formula)


BOUNDED_TEMPLATES = [
    "[]{iv} p0",
    "<>{iv} p0",
    "p0 U{iv} p1",
    "!(p1 U{iv} (<>{iv} p0))",
    "([]{iv} (p0 \\/ p1)) U{iv} (p1 /\\ p0)",
]


def bounded_formula(template, interval):
    return parse_formula(template.format(iv=rb._format_interval(interval)))


def non_uniform_trace(rng, n, dims):
    gaps = [rng.choice([0.001, 0.01, 0.03, 0.1, 0.37]) * rng.uniform(0.5, 1.5) for _ in range(n)]
    times = rng.uniform(0.0, 50.0) + np.cumsum(gaps)
    states = [[rng.choice([-1.0, 0.0, 2.0, rng.uniform(-5, 5)]) for _ in range(dims)] for _ in range(n)]
    return Trace(times=times, states=np.array(states))


class TestBoundedOperatorsExact:
    """Bounded operators equal the definition-based oracle bit for bit at every offset."""

    def test_non_uniform_grids(self):
        rng = random.Random(909)
        preds = coordinate_predicates(2)
        for _ in range(100):
            trace = non_uniform_trace(rng, rng.randint(1, 24), 2)
            lo = rng.choice([0.0, 0.01, 0.03, 0.1, rng.uniform(0.0, 0.5)])
            hi = lo + rng.choice([0.0, 0.01, 0.1, 0.4, math.inf, rng.uniform(0.0, 0.5)])
            formula = bounded_formula(rng.choice(BOUNDED_TEMPLATES), Interval(lo, hi))
            assert_signal_is_naive(formula, preds, trace)
            assert_signal_is_naive(random_formula(rng, ["p0", "p1"], depth=3), preds, trace)

    @pytest.mark.parametrize(
        "interval",
        [
            Interval(0.0, math.inf),
            Interval(0.2, math.inf),
            Interval(0.0, 0.0),
            Interval(0.05, 0.05),
            Interval(0.1, 0.1),
            Interval(0.015, 0.015),  # between grid points: every window is empty
            Interval(5.0, 6.0),  # past the end of the trace: every window is empty
        ],
    )
    @pytest.mark.parametrize("template", BOUNDED_TEMPLATES)
    def test_interval_edge_cases(self, interval, template):
        rng = random.Random(31337)
        preds = coordinate_predicates(2)
        formula = bounded_formula(template, interval)
        grid = Trace(
            times=np.arange(30) * 0.01,
            states=np.array([[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(30)]),
        )
        assert_signal_is_naive(formula, preds, grid)
        assert_signal_is_naive(formula, preds, non_uniform_trace(rng, 25, 2))

    def test_window_end_follows_the_time_difference_on_the_10ms_grid(self):
        times = np.arange(20) * 0.01
        # the float edge: t_14 - t_9 exceeds 0.05 although t_14 <= t_9 + 0.05
        assert times[14] - times[9] > 0.05
        assert times[14] <= times[9] + 0.05
        states = np.zeros((20, 2))
        states[:, 0] = np.arange(20) * 0.1
        states[14, 0] = 100.0
        states[:, 1] = 200.0
        trace = Trace(times=times, states=states)
        preds = coordinate_predicates(2)
        for text in ("<>_[0,0.05] p0", "p1 U_[0,0.05] p0", "!([]_[0,0.05] !p0)"):
            formula = parse_formula(text)
            assert robustness_signal(formula, preds, trace)[9] == states[13, 0]
            assert_signal_is_naive(formula, preds, trace)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        gaps=st.lists(
            st.sampled_from([0.001, 0.01, 0.02, 0.05, 0.1]) | st.floats(1e-3, 0.5),
            min_size=1,
            max_size=25,
        ),
        start=st.sampled_from([0.0, 0.01, 7.3]) | st.floats(0.0, 100.0),
        lo=st.sampled_from([0.0, 0.01, 0.05, 0.1]) | st.floats(0.0, 1.0),
        width=st.sampled_from([0.0, 0.01, 0.05, 1.0, math.inf]) | st.floats(0.0, 1.0),
        template=st.sampled_from(BOUNDED_TEMPLATES),
    )
    def test_property_equals_oracle(self, data, gaps, start, lo, width, template):
        times = start + np.cumsum(gaps)
        values = data.draw(
            st.lists(st.floats(-10.0, 10.0), min_size=2 * len(gaps), max_size=2 * len(gaps))
        )
        trace = Trace(times=times, states=np.array(values).reshape(-1, 2))
        formula = bounded_formula(template, Interval(lo, lo + width))
        assert_signal_is_naive(formula, coordinate_predicates(2), trace)


class TestPerformance:
    def test_interval_free_dp_is_fast_at_a_million_samples(self):
        n = 1_000_000
        times = np.arange(n) * 0.01
        states = np.random.default_rng(0).uniform(-1, 1, size=(n, 2))
        preds = [
            LinearPredicate("p", np.array([1.0, 0.0]), 0.5),
            LinearPredicate("q", np.array([0.0, 1.0]), 0.5),
        ]
        formula = parse_formula("(([](p /\\ q)) \\/ (<> (p -> q))) /\\ (p U q)")
        trace = Trace(times=times, states=states)
        start = time.monotonic()
        robustness(formula, preds, trace)
        assert time.monotonic() - start < 1.0

    def test_bounded_until_is_fast_at_a_hundred_thousand_samples(self):
        n = 100_000
        times = np.arange(n) * 0.01
        states = np.random.default_rng(0).uniform(-1, 1, size=(n, 2))
        preds = [
            LinearPredicate("p", np.array([1.0, 0.0]), 0.5),
            LinearPredicate("q", np.array([0.0, 1.0]), 0.5),
        ]
        formula = parse_formula("p U_[0,1] q")
        trace = Trace(times=times, states=states)
        start = time.monotonic()
        robustness(formula, preds, trace)
        assert time.monotonic() - start < 1.0


class TestRequirementFiles:
    def test_demo_requirement_resolves_against_log_layout(self):
        req = requirement_from_json(presets.collision_requirement_json())
        env = presets.demo_environment()
        names = column_names(env.data_log_description_list)
        preds = req.resolve(names[1:])
        assert [p.name for p in preds] == ["y_check1", "y_check2", "x_check1", "x_check2"]
        y1 = preds[0]
        assert y1.a[AGENT_Y] == 1.0 and y1.a[EGO_Y] == -1.0 and y1.b == 1.5
        assert np.count_nonzero(y1.a) == 2

    def test_unknown_column_rejected(self):
        req = Requirement("p", [{"name": "p", "a": {"bogus_col": 1.0}, "b": 0.0}])
        with pytest.raises(ValueError, match="bogus_col"):
            req.resolve(["vehicle0_position_x"])

    def test_round_trip(self, tmp_path):
        req = requirement_from_json(presets.collision_requirement_json())
        path = tmp_path / "req.json"
        rb.save_requirement(req, str(path))
        back = rb.load_requirement(str(path))
        assert back == req

    @pytest.mark.parametrize(
        "predicate, message",
        [
            ({"name": "p", "a": {}, "b": 0.0, "c": 1}, "requirement.predicates[0].c: unknown field"),
            ({"name": "p", "a": {}}, "requirement.predicates[0].b: missing field"),
            ({"name": "p", "a": {"vehicle0_speed": "1"}, "b": 0.0},
             "requirement.predicates[0].a.vehicle0_speed: expected number, got string"),
            ({"name": "p", "a": {"vehicle0_speed": math.nan}, "b": 0.0},
             "requirement.predicates[0].a.vehicle0_speed: must be finite"),
            ({"name": "p", "a": {"vehicle0_speed": -math.inf}, "b": 0.0},
             "requirement.predicates[0].a.vehicle0_speed: must be finite"),
            ({"name": "p", "a": {}, "b": math.nan}, "requirement.predicates[0].b: must be finite"),
            ({"name": "p", "a": {}, "b": math.inf}, "requirement.predicates[0].b: must be finite"),
            ({"name": "q", "a": {}, "b": 0.0},
             "requirement.formula: atom 'p' names no predicate"),
        ],
        ids=["extra_key", "missing_bound", "string_coefficient", "nan_coefficient",
             "inf_coefficient", "nan_bound", "inf_bound", "undeclared_atom"],
    )
    def test_malformed_predicate_rejected_with_its_path(self, predicate, message):
        with pytest.raises(ScenarioFormatError) as err:
            requirement_from_json({"formula": "p", "predicates": [predicate]})
        assert str(err.value) == message

    def test_repeated_predicate_name_rejected_with_its_path(self):
        predicate = {"name": "p", "a": {}, "b": 0.0}
        with pytest.raises(ScenarioFormatError) as err:
            requirement_from_json({"formula": "p", "predicates": [predicate, dict(predicate)]})
        assert str(err.value) == "requirement.predicates[1].name: duplicate predicate name 'p'"

    def test_declared_predicate_the_formula_does_not_use_is_allowed(self):
        predicates = [{"name": "p", "a": {}, "b": 0.0}, {"name": "unused", "a": {}, "b": 0.0}]
        req = requirement_from_json({"formula": "[] p", "predicates": predicates})
        assert [spec["name"] for spec in req.predicates] == ["p", "unused"]

    def test_requirement_without_predicates_rejected(self):
        with pytest.raises(ScenarioFormatError) as err:
            requirement_from_json({"formula": "p"})
        assert str(err.value) == "requirement.predicates: missing field"

    def test_bad_formula_rejected_at_load(self):
        with pytest.raises(FormulaSyntaxError):
            requirement_from_json({"formula": "p /\\", "predicates": []})
