"""Two-phase connected runtime and the view-preserving extension check."""

import random

import pytest

from conftest import random_instance
from derandlab import (
    ConnectedRunConfig,
    Graph,
    InputInstance,
    InstanceFamilySpec,
    NormalFormTable,
    SearchConfig,
    UnsolvableInstance,
    brute_force_solve,
    check_indistinguishability,
    enumerate_instances,
    find_normal_form,
    make_coloring,
    make_mis,
    run_connected_aware,
    table_from_labeling,
    verify_locally,
)
from derandlab.graphs import canonicalize, extract_ball


def path3():
    return InputInstance(Graph(3, ((0, 1), (1, 2))), (1, 2, 3), ("x",) * 3, 1)


def cycle(n: int) -> InputInstance:
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return InputInstance(Graph(n, edges), tuple(range(1, n + 1)), ("x",) * n, 1)


def coverage_table(instance, radius, alphabet=("IN", "OUT")):
    """A table total on the instance's views; labels are placeholders."""
    mapping = {
        canonicalize(extract_ball(instance, v, radius)): alphabet[0]
        for v in range(instance.n)
    }
    return NormalFormTable.from_mapping(radius, alphabet, mapping, "placeholder")


@pytest.fixture(scope="module")
def mis_table_n3():
    outcome = find_normal_form(
        SearchConfig(problem=make_mis(), family=InstanceFamilySpec(n=3), radius=1)
    )
    assert outcome.found
    return outcome.table


class TestRunConnectedAware:
    def test_exploration_radius_is_table_plus_verification(self, mis_table_n3):
        config = ConnectedRunConfig(make_mis(), mis_table_n3)
        assert config.exploration_radius == 2

    def test_path_takes_brute_force_path(self, mis_table_n3):
        config = ConnectedRunConfig(make_mis(), mis_table_n3)
        result = run_connected_aware(config, path3())
        assert result.path == "brute-force"
        assert result.outputs == brute_force_solve(make_mis(), path3())
        assert result.rounds_charged == 4

    def test_single_node_takes_brute_force_path(self):
        single = InputInstance(Graph(1), (1,), ("x",), 1)
        table = coverage_table(single, 0)
        result = run_connected_aware(ConnectedRunConfig(make_mis(), table), single)
        assert result.path == "brute-force"
        assert result.outputs == {0: "IN"}

    def test_eight_cycle_takes_table_path_and_verifies(self):
        c8 = cycle(8)
        problem = make_mis()
        table = table_from_labeling(
            c8, 1, brute_force_solve(problem, c8), problem.output_alphabet
        )
        config = ConnectedRunConfig(problem, table)
        result = run_connected_aware(config, c8)
        assert result.path == "table"
        assert verify_locally(problem, c8, result.outputs).valid
        assert result.rounds_charged <= 2 * config.exploration_radius + table.radius

    def test_every_connected_n3_instance_uses_brute_force(self, mis_table_n3):
        config = ConnectedRunConfig(make_mis(), mis_table_n3)
        problem = make_mis()
        count = 0
        for inst in enumerate_instances(InstanceFamilySpec(n=3)):
            if not inst.graph.is_connected:
                continue
            result = run_connected_aware(config, inst)
            assert result.path == "brute-force"
            assert result.outputs == brute_force_solve(problem, inst)
            assert verify_locally(problem, inst, result.outputs).valid
            count += 1
        assert count == 24

    def test_disconnected_input_rejected(self, mis_table_n3):
        config = ConnectedRunConfig(make_mis(), mis_table_n3)
        disconnected = InputInstance(Graph(3, ((0, 1),)), (1, 2, 3), ("x",) * 3, 1)
        with pytest.raises(ValueError, match="disconnected"):
            run_connected_aware(config, disconnected)

    def test_unsolvable_brute_force_instance_raises(self):
        triangle = InputInstance(
            Graph(3, ((0, 1), (0, 2), (1, 2))), (1, 2, 3), ("x",) * 3, 1
        )
        problem = make_coloring(2)
        table = coverage_table(triangle, 1, problem.output_alphabet)
        with pytest.raises(UnsolvableInstance):
            run_connected_aware(ConnectedRunConfig(problem, table), triangle)

    def test_component_wise_problem_rejected_in_config(self, mis_table_n3):
        from derandlab import ProblemSpec

        problem = ProblemSpec(
            name="cw",
            radius=0,
            output_alphabet=("A",),
            component_predicate=lambda i, c, o: True,
        )
        with pytest.raises(ValueError, match="locally verifiable"):
            ConnectedRunConfig(problem, mis_table_n3)


class TestIndistinguishability:
    def test_path_end_with_fresh_tail(self):
        inst = path3()
        table = coverage_table(inst, 0)
        assert check_indistinguishability(inst, 0, 1, table, 6)

    def test_ball_covering_graph_propagates(self):
        inst = path3()
        table = coverage_table(inst, 0)
        with pytest.raises(ValueError, match="ball covers graph"):
            check_indistinguishability(inst, 1, 1, table, 6)

    def test_table_radius_beyond_exploration_rejected(self):
        inst = path3()
        table = coverage_table(inst, 2)
        with pytest.raises(ValueError, match="radius"):
            check_indistinguishability(inst, 0, 1, table, 6)

    def test_random_sweep_never_fails(self):
        rng = random.Random(404)
        done = 0
        while done < 20:
            inst = random_instance(
                rng, max_n=5, edge_prob=0.4, connected=True, alphabet=("x",)
            )
            v = rng.randrange(inst.n)
            t = rng.randint(1, 2)
            if max(inst.graph.bfs_distances(v).values()) < t + 1:
                continue
            radius = rng.randint(0, t - 1) if t > 1 else 0
            table = coverage_table(inst, radius)
            target = inst.n + rng.randint(1, 3)
            assert check_indistinguishability(inst, v, t, table, target)
            done += 1
