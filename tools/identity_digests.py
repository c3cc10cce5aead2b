"""The byte-identity corpus: outputs whose bytes a refactor or speedup keeps.

    python3 tools/identity_digests.py          # rewrite tests/fixtures/identity_digests.json

The corpus is:
- ``gen-ca tests/fixtures/demo_params.json`` at t=1, 2 and 3, with the
  default seed (0) and with ``--seed 11``;
- ``run-ca tests/fixtures/ca_2way.csv``: its summary and its 16 traces;
- ``falsify tests/fixtures/demo_study.json``: its results file;
- the rows, contacts and minimum gap of each run of the 5x5x4 demo grid;
- the annealing and uniform histories on a synthetic objective for seeds
  0-9, with falsification mode on and off, on a clean system and on one that
  fails every third call, and the grid oracle's evaluation order and result;
- one wire frame of each message kind, in hex: both heartbeat statuses, a
  heartbeat time above 2**32, a UTF-8 error text, and the 100 ms demo's
  setup, start and trace frames.

The digest file holds, per output, the SHA-256 of its bytes and one 8-bit
code per line (the low byte of the line's CRC-32, base64-encoded), so a
mismatch can name the first line whose code differs.  tests/test_identity.py
regenerates the corpus and compares.  A change that alters a digest on
purpose says so, with the reason, when it rewrites the file.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
import zlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
DIGESTS = os.path.join(FIXTURES, "identity_digests.json")

sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from avtestbed import cli, falsify as fz, presets, robustness as rb, supervisor, wire  # noqa: E402


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def _command(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        outcome = cli.run_command(argv)
    if outcome.exit_code != cli.EXIT_OK:
        raise RuntimeError(f"{' '.join(argv)} exited {outcome.exit_code}")


def _demo_grid_lines() -> list[str]:
    lines = []
    for speed in np.linspace(0.0, 15.0, 5):
        for x in np.linspace(15.0, 25.0, 5):
            for ped_speed in np.linspace(2.0, 5.0, 4):
                env = presets.demo_environment(float(speed), float(x), float(ped_speed))
                result = supervisor.run_embedded(env, presets.demo_config())
                rows = result.trajectory.rows
                lines.append(" ".join([
                    repr((float(speed), float(x), float(ped_speed))),
                    repr(rows.shape), hashlib.sha256(rows.tobytes()).hexdigest(),
                    repr(result.min_vehicle_gap), repr(result.contacts),
                ]))
    return lines


def _synthetic_lines() -> dict[str, list[str]]:
    """Histories of each search on rob(x) = x1 - 5 over [0, 15]^3."""
    space = fz.SearchSpace([fz.SearchDim(f"x{i}", 0.0, 15.0) for i in (1, 2, 3)])
    preds = [rb.LinearPredicate("p", np.array([-1.0, 0.0, 0.0]), -5.0)]
    formula = rb.Atom("p")

    def clean(sample):
        return rb.Trace(times=np.array([0.0]), states=np.array([list(sample)]))

    def every_third_fails():
        calls = itertools.count(1)

        def system(sample):
            if next(calls) % 3 == 0:
                raise RuntimeError("simulation failed")
            return clean(sample)

        return system

    out: dict[str, list[str]] = {}
    for search in (fz.falsify, fz.uniform_random_search):
        lines = out[search.__name__] = []
        for name, make in (("clean", lambda: clean), ("every_third_fails", every_third_fails)):
            for mode in (True, False):
                for seed in range(10):
                    config = fz.FalsifyConfig(n_tests=100, seed=seed, falsification_mode=mode)
                    result = search(make(), formula, preds, space, config)
                    key = {"system": name, "falsification_mode": mode, "seed": seed}
                    lines.append(json.dumps({**key, "history": result.history}))
    lines = out["grid_oracle"] = []
    for points in (1, 2, [5, 5, 4]):
        evaluated = []

        def recording(sample):
            evaluated.append(list(sample))
            return clean(sample)

        best, point = fz.grid_oracle(recording, formula, preds, space, points)
        lines.append(json.dumps(
            {"points_per_dim": points, "best": best, "point": point, "evaluated": evaluated}
        ))
    return out


def _wire_frame_lines() -> list[str]:
    """One line per frame: the message kind, then the frame in hex."""
    env, config = presets.demo_scenario(sim_duration_ms=100)
    trajectory = supervisor.run_embedded(env, config).trajectory
    messages = [
        wire.Hello(),
        wire.Ack(),
        wire.SetupEnvironment(env),
        wire.StartSim(config, run_index=0),
        wire.Heartbeat(10, wire.HeartbeatStatus.RUNNING),
        wire.Heartbeat(2**32 + 10, wire.HeartbeatStatus.FINISHED),
        wire.Continue(),
        wire.TraceData(trajectory),
        wire.ProtocolErrorMsg(wire.ERR_SETUP, "entité inconnue"),
    ]
    return [f"{type(msg).__name__} {wire.encode_message(msg).hex()}" for msg in messages]


def write_outputs(out_dir: str) -> list[str]:
    """Write every output of the corpus under out_dir; return their relative paths."""
    for strength in ("1", "2", "3"):
        for seed_args, seed in (([], 0), (["--seed", "11"], 11)):
            out = os.path.join(out_dir, "gen-ca", f"t{strength}_seed{seed}.csv")
            os.makedirs(os.path.dirname(out), exist_ok=True)
            _command(["gen-ca", _fixture("demo_params.json"), "-t", strength,
                      "--out", out, *seed_args])
    _command(["run-ca", _fixture("ca_2way.csv"), _fixture("demo_scenario.json"),
              _fixture("demo_bindings.json"), "--out-dir", os.path.join(out_dir, "run-ca")])
    os.makedirs(os.path.join(out_dir, "falsify"))
    _command(["falsify", _fixture("demo_study.json"),
              "--out", os.path.join(out_dir, "falsify", "results.json")])

    texts = {"demo_grid.txt": _demo_grid_lines(), "wire_frames.txt": _wire_frame_lines()}
    for search, lines in _synthetic_lines().items():
        texts[f"synthetic/{search}.jsonl"] = lines
    os.makedirs(os.path.join(out_dir, "synthetic"))
    for name, lines in texts.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    names = []
    for base, _, files in os.walk(out_dir):
        names += [os.path.relpath(os.path.join(base, f), out_dir) for f in files]
    return sorted(name.replace(os.sep, "/") for name in names)


def _line_codes(data: bytes) -> str:
    return base64.b64encode(bytes(zlib.crc32(line) & 0xFF for line in data.splitlines())).decode()


def digests(out_dir: str, names: list[str]) -> dict[str, dict[str, str]]:
    table = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        table[name] = {"sha256": hashlib.sha256(data).hexdigest(), "lines": _line_codes(data)}
    return table


def differences(out_dir: str, names: list[str], expected: dict[str, dict[str, str]]) -> list[str]:
    """One message per output that is missing, unexpected or changed, in path
    order; a changed output names its first line whose code differs."""
    problems = []
    actual = digests(out_dir, names)
    for name in sorted(set(expected) | set(actual)):
        if name not in actual:
            problems.append(f"{name}: not written")
        elif name not in expected:
            problems.append(f"{name}: written but not in the corpus")
        elif actual[name]["sha256"] != expected[name]["sha256"]:
            old = base64.b64decode(expected[name]["lines"])
            new = base64.b64decode(actual[name]["lines"])
            first = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), None)
            if first is None and len(old) != len(new):
                first = min(len(old), len(new))
            if first is None:
                problems.append(f"{name}: bytes differ, but no line code does")
                continue
            with open(os.path.join(out_dir, name), "rb") as fh:
                lines = fh.read().splitlines()
            text = lines[first].decode("utf-8", "replace")[:200] if first < len(lines) else "<end>"
            problems.append(
                f"{name}: first differing line {first + 1} of {len(old)} expected, now {text!r}"
            )
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        table = digests(out_dir, write_outputs(out_dir))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} digests -> {os.path.relpath(DIGESTS, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
