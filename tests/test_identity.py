"""Byte identity: every output of tools/identity_digests.py keeps its digest.

A change that alters an output on purpose rewrites
tests/fixtures/identity_digests.json with ``python3 tools/identity_digests.py``
and says why.
"""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "identity_digests.py")
_SPEC = importlib.util.spec_from_file_location("identity_digests", _PATH)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)


def test_every_output_keeps_its_bytes(tmp_path):
    with open(identity.DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    names = identity.write_outputs(str(tmp_path))
    problems = identity.differences(str(tmp_path), names, expected)
    assert not problems, "\n".join(problems)


def test_a_mismatch_names_the_first_differing_file_and_line(tmp_path):
    for name, text in (("a.csv", "x\n1\n2\n3\n"), ("b.json", "{\n}\n")):
        (tmp_path / name).write_text(text)
    expected = identity.digests(str(tmp_path), ["a.csv", "b.json"])
    (tmp_path / "a.csv").write_text("x\n1\n2.5\n3.5\n")
    (tmp_path / "b.json").write_text("{\n}\n\n")
    (tmp_path / "c.csv").write_text("")
    problems = identity.differences(str(tmp_path), ["a.csv", "b.json", "c.csv"], expected)
    assert problems == [
        "a.csv: first differing line 3 of 4 expected, now '2.5'",
        "b.json: first differing line 3 of 2 expected, now ''",
        "c.csv: written but not in the corpus",
    ]
    assert identity.differences(str(tmp_path), ["b.json"], expected)[0] == "a.csv: not written"
