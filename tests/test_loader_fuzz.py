"""Fuzzed table, instance and problem files: every run of ``verify``,
``simulate`` or ``derandomize`` ends with a documented exit code and never
with a traceback.

Exit codes (see :mod:`derandlab.cli`): 0 success, 1 no valid table exists
(only ``derandomize`` reports it), 2 verification failure (a failing instance
or a view missing from the table), 3 bad input (one ``error:`` line on
stderr).
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from derandlab.cli import main

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and the infinities too, which json writes as bare words
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


def shaped(fields):
    """JSON objects over the loader's own field names (and a few others), so
    that fuzzing gets past the first missing-key check."""
    keys = st.sampled_from(fields) | st.text(max_size=4)
    return st.dictionaries(keys, json_values, max_size=len(fields) + 1)


table_texts = st.one_of(
    json_values.map(json.dumps),
    shaped(["T", "output_alphabet", "entries", "provenance"]).map(json.dumps),
    st.fixed_dictionaries(
        {
            "T": st.integers(-2, 3) | json_values,
            "output_alphabet": st.lists(st.sampled_from(["IN", "OUT", "A"]), max_size=3)
            | json_values,
            "entries": st.lists(
                st.fixed_dictionaries(
                    {
                        "key": st.text(max_size=40) | json_values,
                        "out": st.sampled_from(["IN", "OUT"]) | json_values,
                    }
                ),
                max_size=3,
            )
            | json_values,
        }
    ).map(json.dumps),
)

nodes = st.sampled_from(["0", "1", "2", "3"])
instance_fields = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 4) | json_values,
        "edges": st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=4)
        | json_values,
        "ids": st.dictionaries(nodes, st.integers(-1, 20) | json_values, max_size=4)
        | json_values,
        "inputs": st.dictionaries(nodes, st.text(max_size=2) | json_values, max_size=4)
        | json_values,
    },
    optional={"c": st.integers(-1, 3) | json_values},
)
instance_texts = st.one_of(
    json_values.map(json.dumps),
    st.lists(
        shaped(["n", "c", "edges", "ids", "inputs"]) | instance_fields, min_size=1, max_size=3
    ).map(lambda objs: "\n".join(map(json.dumps, objs))),
)

VALID_PROBLEM = {
    "name": "p",
    "radius": 1,
    "output_alphabet": ["A", "B"],
    "kind": "table",
    "allowed": [
        {"center": "A", "neighbors_condition": {"forbid": ["A"], "require_any": ["B"]}},
        {"center": "B"},
    ],
}
PROBLEM_PATHS = [
    ("name",),
    ("radius",),
    ("output_alphabet",),
    ("output_alphabet", 0),
    ("kind",),
    ("allowed",),
    ("allowed", 0),
    ("allowed", 0, "center"),
    ("allowed", 0, "neighbors_condition"),
    ("allowed", 0, "neighbors_condition", "forbid"),
    ("allowed", 0, "neighbors_condition", "forbid", 0),
    ("allowed", 0, "neighbors_condition", "require_any"),
    ("allowed", 1, "center"),
]


def mutated_problem(mutations) -> dict:
    """The valid problem with the value at each path replaced.  The deepest
    paths go first, so every path still leads through the valid problem."""
    problem = json.loads(json.dumps(VALID_PROBLEM))
    for path, value in sorted(mutations, key=lambda m: -len(m[0])):
        parent = problem
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
    return problem


problem_texts = st.one_of(
    json_values.map(json.dumps),
    shaped(["name", "radius", "output_alphabet", "kind", "allowed"]).map(json.dumps),
    st.lists(st.tuples(st.sampled_from(PROBLEM_PATHS), json_values), min_size=1, max_size=3)
    .map(mutated_problem)
    .map(json.dumps),
)

FUZZ = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    argv = ["derandomize", "--problem", "mis", "--n", "2", "--T", "1"]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv + ["--out-table", str(path / "good.json")]) == 0
    return path


def run_on(workdir, data: bytes, argv_for) -> None:
    """Write ``data`` to a file, run the command ``argv_for(file)`` and check
    its exit code against what it printed."""
    path = workdir / "fuzzed"
    path.write_bytes(data)
    out = workdir / "out"
    out.unlink(missing_ok=True)
    err, stdout = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
        try:
            code = main(argv_for(str(path)) + ["--out", str(out)])
        except SystemExit as exc:  # argparse
            code = exc.code
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (0, 2, 3), (code, err)
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    elif code == 2:
        assert err.startswith(("verification failed: ", "error: incomplete table")), err
    elif argv_for(str(path))[0] == "verify":
        payload = json.loads(out.read_text())
        assert payload["witness"] is None and payload["passed"] == payload["total"]
    else:
        assert out.exists()


def fuzzed_table(command):
    if command == "verify":
        return lambda table: ["verify", "--problem", "mis", "--table", table, "--n", "2"]
    return lambda table: ["simulate", "--table", table, "--n", "2"]


def fuzzed_instances(command, workdir):
    good = str(workdir / "good.json")
    if command == "verify":
        return lambda f: ["verify", "--problem", "mis", "--table", good, "--instances", f]
    return lambda f: ["simulate", "--table", good, "--instances", f]


@pytest.mark.parametrize("command", ["verify", "simulate"])
class TestFuzzedFiles:
    @FUZZ
    @given(data=st.binary(max_size=120))
    def test_table_bytes(self, workdir, command, data):
        run_on(workdir, data, fuzzed_table(command))

    @FUZZ
    @given(text=table_texts)
    def test_table_json(self, workdir, command, text):
        run_on(workdir, text.encode(), fuzzed_table(command))

    @FUZZ
    @given(data=st.binary(max_size=120))
    def test_instance_bytes(self, workdir, command, data):
        run_on(workdir, data, fuzzed_instances(command, workdir))

    @FUZZ
    @given(text=instance_texts)
    @example(text='{"n": Infinity, "edges": [], "ids": {}, "inputs": {}}')
    @example(text='{"n": 1, "edges": [], "ids": {"0": 1}, "inputs": {"0": "x"}, "c": 1e999}')
    @example(
        text='{"n": 3, "edges": [], "ids": {"0": 1, "1": 2, "2": 3}, '
        '"inputs": {"0": "x", "1": "x", "2": "x"}, "c": 100000000}'
    )
    def test_instance_json(self, workdir, command, text):
        run_on(workdir, text.encode(), fuzzed_instances(command, workdir))


def derandomize_on(workdir, data: bytes) -> None:
    """Run ``derandomize`` on the problem file ``data`` and check its exit
    code against what it printed."""
    path = workdir / "problem.json"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["derandomize", "--problem", str(path), "--n", "2", "--T", "1"])
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (0, 1, 3), (code, err)
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestFuzzedProblemFiles:
    @FUZZ
    @given(data=st.binary(max_size=120))
    def test_problem_bytes(self, workdir, data):
        derandomize_on(workdir, data)

    @FUZZ
    @given(text=problem_texts)
    @example(text=json.dumps(mutated_problem([(PROBLEM_PATHS[9], 5)])))  # "forbid": 5
    @example(text=json.dumps(VALID_PROBLEM))
    def test_problem_json(self, workdir, text):
        derandomize_on(workdir, text.encode())
