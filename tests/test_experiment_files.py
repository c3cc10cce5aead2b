"""No malformed study or requirement file ends in a traceback.

Each case replaces one value of the demo study or its requirement, every
value in turn by each of a few JSON values, and runs ``avtestbed falsify``:
it must exit 0, or exit 2 with exactly one ``error:`` line.  The study is cut
to 2 evaluations of a 50 ms scene.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from avtestbed.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# 1e400 is written as a literal: it parses to inf, which json.dumps cannot write
HUGE = "<1e400>"
REPLACEMENTS = [None, True, 5, HUGE, "x", [], {}]


def base_files() -> dict:
    with open(os.path.join(FIXTURES, "demo_study.json")) as fh:
        study = json.load(fh)
    with open(os.path.join(FIXTURES, "collision_requirement.json")) as fh:
        requirement = json.load(fh)
    study["scenario"] = os.path.join(FIXTURES, "demo_scenario.json")
    study["requirement"] = "requirement.json"
    study["config"].update(n_tests=2, sim_duration_s=0.05)
    return {"study.json": study, "requirement.json": requirement}


def value_paths(value, path=()) -> list:
    """The key path of value and of every value inside it."""
    paths = [path]
    if isinstance(value, dict):
        for key, item in value.items():
            paths += value_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            paths += value_paths(item, path + (index,))
    return paths


LOCATIONS = [(name, path) for name, doc in base_files().items() for path in value_paths(doc)]


def replaced(doc, path, new):
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = new
    return doc


def run_falsify(name: str, path: tuple, new) -> tuple[int, str]:
    """Exit code and stderr of falsify with one value of one file replaced;
    the temporary directory reads as <tmp> in stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, doc in base_files().items():
            if file_name == name:
                doc = replaced(doc, path, new)
            with open(os.path.join(tmp, file_name), "w") as fh:
                fh.write(json.dumps(doc).replace(json.dumps(HUGE), "1e400"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(
                ["falsify", os.path.join(tmp, "study.json"), "--out", os.path.join(tmp, "r.json")]
            )
    return code, err.getvalue().replace(tmp, "<tmp>")


@pytest.mark.parametrize("new", REPLACEMENTS, ids=repr)
@pytest.mark.parametrize(
    "location", LOCATIONS, ids=lambda loc: "/".join(map(str, (loc[0],) + loc[1]))
)
def test_a_replaced_value_exits_0_or_with_one_error_line(location, new):
    code, err = run_falsify(*location, new)
    assert code in (0, 2)
    if code == 2:
        assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize(
    "path, new, message",
    [
        (("formula",), 5, "requirement.formula: expected string, got number"),
        (("predicates", 0, "a"), 3, "requirement.predicates[0].a: expected an object, got number"),
        (("predicates", 0, "b"), None, "requirement.predicates[0].b: expected number, got null"),
        (("predicates", 0, "b"), "1.5", "requirement.predicates[0].b: expected number, got string"),
    ],
)
def test_mistyped_requirement_field_is_named(path, new, message):
    assert run_falsify("requirement.json", path, new) == (
        2, f"error: cannot load study <tmp>/study.json: requirement.json: {message}\n"
    )
