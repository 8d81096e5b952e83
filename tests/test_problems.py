"""Problem definitions, the two verifiers, the canonical solver and its
brute-force oracle."""

import itertools
import os
import random
import subprocess
import sys

import pytest

from conftest import exhaustive_solvable, one_leader_problem, random_instance
from derandlab import (
    Graph,
    InputInstance,
    InstanceFamilySpec,
    ProblemFormatError,
    ProblemSpec,
    brute_force_solve,
    enumerate_instances,
    extend_instance,
    extract_ball,
    load_problem,
    make_coloring,
    make_mis,
    problem_by_name,
    problem_from_jsonable,
    save_problem,
    solve_ball_component,
    solve_lex_first,
    verify,
    verify_componentwise,
    verify_locally,
)


def path3(ids=(1, 2, 3)):
    return InputInstance(Graph(3, ((0, 1), (1, 2))), ids, ("x",) * 3, 1)


def triangle():
    return InputInstance(Graph(3, ((0, 1), (0, 2), (1, 2))), (1, 2, 3), ("x",) * 3, 1)


def edge2():
    return InputInstance(Graph(2, ((0, 1),)), (1, 2), ("x", "x"), 1)


class TestVerifyLocally:
    def test_mis_on_path_accepts_center(self):
        result = verify_locally(make_mis(), path3(), {0: "OUT", 1: "IN", 2: "OUT"})
        assert result.valid

    def test_mis_rejects_adjacent_members(self):
        result = verify_locally(make_mis(), edge2(), {0: "IN", 1: "IN"})
        assert not result.valid
        assert result.witness_node == 0

    def test_mis_rejects_uncovered_outsider(self):
        result = verify_locally(make_mis(), path3(), {0: "OUT", 1: "OUT", 2: "IN"})
        assert not result.valid
        assert result.witness_node == 0

    def test_triangle_has_no_proper_two_coloring(self):
        problem = make_coloring(2)
        for combo in itertools.product(problem.output_alphabet, repeat=3):
            assert not verify_locally(problem, triangle(), dict(enumerate(combo))).valid

    def test_two_coloring_on_edge(self):
        problem = make_coloring(2)
        assert verify_locally(problem, edge2(), {0: "A", 1: "B"}).valid
        assert not verify_locally(problem, edge2(), {0: "A", 1: "A"}).valid

    def test_witness_is_smallest_failing_identifier(self):
        # both endpoints fail; node with identifier 1 is reported
        inst = InputInstance(Graph(2, ((0, 1),)), (2, 1), ("x", "x"), 1)
        result = verify_locally(make_coloring(2), inst, {0: "A", 1: "A"})
        assert result.witness_node == 1
        assert inst.identifier(result.witness_node) == 1

    def test_alphabet_mismatch_raises(self):
        with pytest.raises(ValueError, match="alphabet"):
            verify_locally(make_coloring(2), edge2(), {0: "Z", 1: "A"})

    def test_partial_labeling_raises(self):
        with pytest.raises(ValueError, match="total"):
            verify_locally(make_coloring(2), edge2(), {0: "A"})

    def test_componentwise_only_problem_rejected(self):
        with pytest.raises(ValueError, match="not locally verifiable"):
            verify_locally(one_leader_problem(), edge2(), {0: "L", 1: "F"})


class TestVerifyComponentwise:
    def test_per_component_validity(self):
        two_edges = InputInstance(
            Graph(4, ((0, 1), (2, 3))), (1, 2, 3, 4), ("x",) * 4, 1
        )
        problem = make_coloring(2)
        ok = verify_componentwise(problem, two_edges, {0: "A", 1: "B", 2: "B", 3: "A"})
        assert ok.valid
        bad = verify_componentwise(problem, two_edges, {0: "A", 1: "B", 2: "B", 3: "B"})
        assert not bad.valid
        assert bad.witness_component == 1
        assert bad.witness_view == (2, 3)

    def test_agrees_with_local_verifier_exhaustively_at_n3(self):
        problems = [make_coloring(2), make_coloring(3), make_mis()]
        for inst in enumerate_instances(InstanceFamilySpec(n=3)):
            for problem in problems:
                for combo in itertools.product(problem.output_alphabet, repeat=3):
                    outputs = dict(enumerate(combo))
                    assert (
                        verify_componentwise(problem, inst, outputs).valid
                        == verify_locally(problem, inst, outputs).valid
                    )

    def test_componentwise_only_problem(self):
        problem = one_leader_problem()
        two_comps = InputInstance(Graph(3, ((0, 1),)), (1, 2, 3), ("x",) * 3, 1)
        assert verify(problem, two_comps, {0: "L", 1: "F", 2: "L"}).valid
        assert not verify(problem, two_comps, {0: "L", 1: "F", 2: "F"}).valid
        assert not verify(problem, two_comps, {0: "L", 1: "L", 2: "L"}).valid


@pytest.mark.parametrize("ball, component", [(False, False), (True, True)])
def test_a_spec_has_exactly_one_predicate(ball, component):
    with pytest.raises(
        ValueError,
        match="^a problem needs exactly one of a ball predicate and a component predicate$",
    ):
        ProblemSpec(
            name="p",
            radius=0,
            output_alphabet=("A",),
            ball_predicate=(lambda ball, outputs: True) if ball else None,
            component_predicate=(lambda i, c, o: True) if component else None,
        )


class TestBruteForce:
    def test_triangle_two_coloring_unsolvable(self):
        assert brute_force_solve(make_coloring(2), triangle()) is None

    def test_edge_two_coloring_lexicographic_minimum(self):
        assert brute_force_solve(make_coloring(2), edge2()) == {0: "A", 1: "B"}

    def test_lexicographic_order_follows_identifiers(self):
        # identifiers swapped: the node holding id 1 gets the A
        inst = InputInstance(Graph(2, ((0, 1),)), (2, 1), ("x", "x"), 1)
        assert brute_force_solve(make_coloring(2), inst) == {1: "A", 0: "B"}

    def test_single_node_mis_is_in(self):
        single = InputInstance(Graph(1), (1,), ("x",), 1)
        assert brute_force_solve(make_mis(), single) == {0: "IN"}

    def test_result_verifies_and_none_matches_exhaustive_oracle(self):
        problems = [make_coloring(2), make_coloring(3), make_mis()]
        for inst in enumerate_instances(InstanceFamilySpec(n=3)):
            for problem in problems:
                solved = brute_force_solve(problem, inst)
                if solved is None:
                    assert not exhaustive_solvable(problem, inst)
                else:
                    assert verify_locally(problem, inst, solved).valid
                    assert verify_componentwise(problem, inst, solved).valid

    def test_one_leader_canonical_solution(self):
        problem = one_leader_problem()
        two_comps = InputInstance(Graph(3, ((0, 1),)), (1, 2, 3), ("x",) * 3, 1)
        # lexicographic order puts F first wherever a leader is not forced
        assert brute_force_solve(problem, two_comps) == {0: "F", 1: "L", 2: "L"}


class TestSolveLexFirst:
    """The backtracking solver returns exactly what the brute-force oracle
    returns, in the same (identifier) order."""

    PROBLEMS = (make_mis(), make_coloring(2), make_coloring(3), one_leader_problem())

    def assert_matches_oracle(self, problem, inst):
        expected = brute_force_solve(problem, inst)
        solved = solve_lex_first(problem, inst)
        if expected is None:
            assert solved is None
        else:
            assert list(solved.items()) == list(expected.items())

    def test_every_instance_up_to_three_nodes(self):
        for n in (1, 2, 3):
            for inst in enumerate_instances(InstanceFamilySpec(n=n)):
                for problem in self.PROBLEMS:
                    self.assert_matches_oracle(problem, inst)

    def test_random_instances_up_to_six_nodes(self):
        rng = random.Random(606)
        for _ in range(200):
            inst = random_instance(rng, max_n=6)
            for problem in self.PROBLEMS:
                self.assert_matches_oracle(problem, inst)


class TestLocalityOfVerification:
    def test_ball_verdict_survives_modification_outside_the_ball(self):
        rng = random.Random(501)
        problem = make_mis()
        checked = 0
        while checked < 25:
            inst = random_instance(
                rng, max_n=5, edge_prob=0.4, connected=True, alphabet=("x",)
            )
            v = rng.randrange(inst.n)
            t = problem.radius + 1
            if max(inst.graph.bfs_distances(v).values()) < t + 1:
                continue
            bigger = extend_instance(inst, v, t, inst.n + 2)
            labeling = {u: rng.choice(problem.output_alphabet) for u in range(inst.n)}
            extended_labeling = dict(labeling)
            for u in range(inst.n, bigger.n):
                extended_labeling[u] = "OUT"
            ball_before = extract_ball(inst, v, problem.radius)
            ball_after = extract_ball(bigger, v, problem.radius)
            outputs_by_id = {
                b.identifier: labeling[inst.node_with_id(b.identifier)]
                for b in ball_before.nodes
            }
            assert ball_before == ball_after
            assert problem.ball_valid(ball_before, outputs_by_id) == problem.ball_valid(
                ball_after, outputs_by_id
            )
            checked += 1


class TestDeclarativeFormat:
    def test_coloring_round_trip_agrees_on_full_family(self, tmp_path):
        problem = make_coloring(3)
        path = tmp_path / "coloring3.json"
        save_problem(problem, path)
        loaded = load_problem(path)
        assert loaded.output_alphabet == problem.output_alphabet
        for inst in enumerate_instances(InstanceFamilySpec(n=3)):
            for combo in itertools.product(problem.output_alphabet, repeat=3):
                outputs = dict(enumerate(combo))
                assert (
                    verify_locally(problem, inst, outputs).valid
                    == verify_locally(loaded, inst, outputs).valid
                )

    def test_mis_round_trip_agrees_on_full_family(self, tmp_path):
        problem = make_mis()
        path = tmp_path / "mis.json"
        save_problem(problem, path)
        loaded = load_problem(path)
        for inst in enumerate_instances(InstanceFamilySpec(n=2)):
            for combo in itertools.product(problem.output_alphabet, repeat=2):
                outputs = dict(enumerate(combo))
                assert (
                    verify_locally(problem, inst, outputs).valid
                    == verify_locally(loaded, inst, outputs).valid
                )

    def test_table_kind_with_conditions(self):
        problem = problem_from_jsonable(
            {
                "name": "at-most-one-neighbor-shares",
                "radius": 1,
                "output_alphabet": ["P", "Q"],
                "kind": "table",
                "allowed": [
                    {"center": "P", "neighbors_condition": {"forbid": ["P"]}},
                    {"center": "Q", "neighbors_condition": {"require_any": ["P"]}},
                ],
            }
        )
        assert verify_locally(problem, edge2(), {0: "P", 1: "Q"}).valid
        assert not verify_locally(problem, edge2(), {0: "Q", 1: "Q"}).valid

    @pytest.mark.parametrize(
        "mutation",
        [
            {"radius": 2},
            {"kind": "unknown"},
            {"output_alphabet": []},
            {"kind": "mis-like", "output_alphabet": ["A", "B", "C"]},
            {"kind": "table", "allowed": []},
            {"kind": "table", "allowed": [{"center": "Z"}]},
            # a value of the wrong JSON type is rejected, never coerced
            {"name": 7},
            {"kind": ["coloring-like"]},
            {"output_alphabet": "AB"},
            {"output_alphabet": [1, 2]},
            {"radius": 1.9},
            {"radius": 1.0},
            {"radius": True},
            {"radius": "1"},
            {"kind": "table", "allowed": {"center": "A"}},
            {"kind": "table", "allowed": [{"center": 1}]},
            {"kind": "table", "allowed": [{"center": "A", "neighbors_condition": None}]},
            {"kind": "table", "allowed": [{"center": "A", "neighbors_condition": ["A"]}]},
            *(
                {"kind": "table", "allowed": [{"center": "A", "neighbors_condition": cond}]}
                for cond in (
                    {"forbid": 5},
                    {"forbid": "AB"},
                    {"require_any": "B"},
                    {"forbid": [None]},
                )
            ),
        ],
    )
    def test_malformed_descriptions_rejected(self, mutation):
        base = {
            "name": "bad",
            "radius": 1,
            "output_alphabet": ["A", "B"],
            "kind": "coloring-like",
        }
        base.update(mutation)
        with pytest.raises(ProblemFormatError):
            problem_from_jsonable(base)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all{")
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_problem_by_name(self):
        assert problem_by_name("mis").name == "mis"
        assert problem_by_name("coloring:4").output_alphabet == ("A", "B", "C", "D")


class TestSolveBallComponent:
    def test_solves_whole_component_inside_view(self):
        inst = path3()
        ball = extract_ball(inst, 1, 2)
        assert solve_ball_component(make_mis(), ball) == {1: "IN", 2: "OUT", 3: "IN"}

    def test_every_connected_four_node_instance_matches_brute_force(self):
        problems = (make_mis(), make_coloring(2), make_coloring(3))
        for inst in enumerate_instances(InstanceFamilySpec(n=4)):
            if not inst.graph.is_connected:
                continue
            ball = extract_ball(inst, 0, 3)  # a connected 4-node graph has diameter <= 3
            for problem in problems:
                expected = brute_force_solve(problem, inst)
                by_id = None if expected is None else {
                    inst.identifier(v): label for v, label in expected.items()
                }
                assert solve_ball_component(problem, ball) == by_id

    def test_rejects_views_missing_component_edges(self):
        inst = c4 = InputInstance(
            Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))), (1, 2, 3, 4), ("x",) * 4, 1
        )
        ball = extract_ball(c4, 0, 1)
        with pytest.raises(ValueError, match="whole component"):
            solve_ball_component(make_mis(), ball)


# Run in a fresh interpreter, so the test session's own imports stay as they
# are: import and use the package, purge it from ``sys.modules``, import it
# again, and report what of the first import's ``graphs`` module survives.
_REIMPORT = """
import contextlib, gc, inspect, io, sys, weakref

def use():
    from derandlab.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(["derandomize", "--problem", "mis", "--n", "3", "--T", "1"])
        main(["certify", "--problem", "coloring:2", "--n", "2"])

use()
graphs = sys.modules["derandlab.graphs"]
refs = [weakref.ref(graphs)] + [
    weakref.ref(value)
    for value in vars(graphs).values()
    if (inspect.isclass(value) or inspect.isfunction(value))
    and value.__module__ == graphs.__name__
]
del graphs
for name in [m for m in sys.modules if m == "derandlab" or m.startswith("derandlab.")]:
    del sys.modules[name]
use()
gc.collect()
print(len(refs), [repr(ref()) for ref in refs if ref() is not None])
"""


def test_reimporting_the_package_frees_the_previous_import():
    import derandlab

    source = os.path.dirname(os.path.dirname(os.path.abspath(derandlab.__file__)))
    env = dict(os.environ, PYTHONPATH=source)
    done = subprocess.run(
        [sys.executable, "-c", _REIMPORT], env=env, capture_output=True, text=True, check=True
    )
    count, alive = done.stdout.split(" ", 1)
    assert int(count) > 10  # the module, its classes and its functions
    assert alive.strip() == "[]"
