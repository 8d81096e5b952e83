"""Graph core: enumeration, counting, view extraction, canonical keys,
extension."""

import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_as_sets, oracle_ball, random_instance
from derandlab import (
    BallNode,
    BallView,
    Graph,
    InputClasses,
    InputInstance,
    InstanceFamilySpec,
    InstanceFormatError,
    ball_covers_instance,
    canonicalize,
    count_bound,
    disjoint_union,
    dump_instances,
    enumerate_instances,
    extend_instance,
    extract_ball,
    input_key,
    instance_from_jsonable,
    instance_to_jsonable,
    load_instances,
)


def path_instance(ids=(1, 2, 3)):
    return InputInstance(Graph(3, ((0, 1), (1, 2))), ids, ("x",) * 3, 1)


def c4_instance():
    # cycle with identifiers 1-2-3-4-1 around it
    return InputInstance(
        Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3))), (1, 2, 3, 4), ("x",) * 4, 1
    )


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((0, 0),))

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError, match="parallel"):
            Graph(2, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_degrees_count_incident_edges(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        assert [g.degree(v) for v in range(4)] == [1, 3, 1, 1]

    def test_components_partition_nodes(self):
        g = Graph(5, ((0, 1), (3, 4)))
        assert g.components == ((0, 1), (2,), (3, 4))
        assert sorted(v for comp in g.components for v in comp) == list(range(5))

    def test_instance_requires_injective_ids(self):
        with pytest.raises(ValueError, match="injective"):
            InputInstance(Graph(2), (1, 1), ("x", "x"), 1)

    def test_instance_id_range_enforced_when_c_set(self):
        with pytest.raises(ValueError, match="range"):
            InputInstance(Graph(2), (1, 3), ("x", "x"), 1)
        InputInstance(Graph(2), (1, 3), ("x", "x"), 2)  # 3 <= 2**2
        InputInstance(Graph(2), (1, 400), ("x", "x"), None)  # unchecked
        InputInstance(Graph(3), (1, 2, 3), ("x",) * 3, 10**8)  # without computing 3**c
        with pytest.raises(ValueError, match="range"):
            InputInstance(Graph(1), (2,), ("x",), 10**8)


class TestEnumeration:
    def test_singleton_family(self):
        fam = list(enumerate_instances(InstanceFamilySpec(n=1)))
        assert len(fam) == 1
        assert fam[0].ids == (1,)

    @pytest.mark.parametrize("n,expected", [(2, 4), (3, 48)])
    def test_family_sizes_match_counting_oracle(self, n, expected):
        spec = InstanceFamilySpec(n=n)
        fam = list(enumerate_instances(spec))
        # oracle: graphs x injections x labelings, counted independently
        graphs = 2 ** (n * (n - 1) // 2)
        injections = 0
        for perm in itertools.permutations(range(1, n + 1)):
            injections += 1
        assert len(fam) == graphs * injections == expected

    def test_enumeration_order_is_stable(self):
        spec = InstanceFamilySpec(n=3, input_alphabet=("a", "b"))
        first = [instance_to_jsonable(i) for i in enumerate_instances(spec)]
        second = [instance_to_jsonable(i) for i in enumerate_instances(spec)]
        assert first == second

    def test_enumeration_is_duplicate_free(self):
        for spec in (
            InstanceFamilySpec(n=3),
            InstanceFamilySpec(n=2, c=2),
            InstanceFamilySpec(n=2, input_alphabet=("a", "b")),
        ):
            dumps = [
                json.dumps(instance_to_jsonable(i), sort_keys=True)
                for i in enumerate_instances(spec)
            ]
            assert len(set(dumps)) == len(dumps)

    def test_enumerated_instances_equal_their_validated_rebuilds(self):
        # enumerate_instances skips validation; the public constructor must
        # accept every instance it yields and build an equal one
        for spec in (
            InstanceFamilySpec(n=4),
            InstanceFamilySpec(n=3, c=2, input_alphabet=("a", "b")),
            InstanceFamilySpec(n=3, max_degree=1),
        ):
            for inst in enumerate_instances(spec):
                graph = Graph(inst.n, inst.graph.edges)
                assert InputInstance(graph, inst.ids, inst.inputs, inst.c) == inst

    def test_max_degree_filter(self):
        spec = InstanceFamilySpec(n=3, max_degree=1)
        graphs = {i.graph.edges for i in enumerate_instances(spec)}
        # empty graph and the three single edges survive; paths and K3 do not
        assert graphs == {(), ((0, 1),), ((0, 2),), ((1, 2),)}

    def test_rejects_oversized_id_space(self):
        # both enumerators reject the family before they list anything
        for spec in (
            InstanceFamilySpec(n=8, c=22),  # 8**22 == 2**66
            InstanceFamilySpec(n=3, c=30),  # 3**30 identifiers, copied by permutations
            InstanceFamilySpec(n=3, c=5),  # 243 * 242 * 241 tuples per graph
            InstanceFamilySpec(n=11),  # 11! tuples
            InstanceFamilySpec(n=2, c=10**9),  # n**c is never computed
        ):
            message = f"n={spec.n} at c={spec.c} has more than 1048576 identifier tuples"
            with pytest.raises(ValueError, match=message):
                next(enumerate_instances(spec))
            with pytest.raises(ValueError, match=message):
                InputClasses.of_spec(spec)

    def test_rejects_a_family_of_too_many_instances(self):
        # n=6 passes the per-graph and edge-set limits, but lists 23,592,960
        # instances; the largest families below the limit still list
        message = "n=6 has more than 4194304 instances"
        with pytest.raises(ValueError, match=message):
            next(enumerate_instances(InstanceFamilySpec(n=6)))
        for spec, size in (
            (InstanceFamilySpec(n=6, max_degree=1), 54_720),
            (InstanceFamilySpec(n=5, input_alphabet=("a", "b")), 3_932_160),
            (InstanceFamilySpec(n=4, c=2), 2_795_520),
        ):
            assert InputClasses.of_spec(spec).size == size
            assert next(enumerate_instances(spec)).ids == tuple(range(1, spec.n + 1))

    def test_accepts_a_family_just_under_the_limit(self):
        # 1024 * 1023 identifier tuples per graph, just under 2**20
        assert next(enumerate_instances(InstanceFamilySpec(n=2, c=10))).ids == (1, 2)

    def test_count_bound_values(self):
        assert count_bound(InstanceFamilySpec(n=1)) == 1
        assert count_bound(InstanceFamilySpec(n=2)) == 8
        assert count_bound(InstanceFamilySpec(n=3)) == 216

    def test_count_bound_dominates_enumeration(self):
        for n in (1, 2, 3):
            for alphabet in (("x",), ("a", "b")):
                spec = InstanceFamilySpec(n=n, input_alphabet=alphabet)
                assert count_bound(spec) >= len(list(enumerate_instances(spec)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InstanceFamilySpec(n=0)
        with pytest.raises(ValueError):
            InstanceFamilySpec(n=2, c=0)
        with pytest.raises(ValueError):
            InstanceFamilySpec(n=2, input_alphabet=())
        with pytest.raises(ValueError):
            InstanceFamilySpec(n=2, max_degree=2)


def relabeled_by_identifier(instance: InputInstance) -> tuple:
    """The instance with its nodes renamed in increasing identifier order:
    equal for two instances iff renaming the nodes of one gives the other."""
    order = sorted(range(instance.n), key=instance.ids.__getitem__)
    new = {v: i for i, v in enumerate(order)}
    edges = sorted(tuple(sorted((new[u], new[v]))) for u, v in instance.graph.edges)
    return (
        tuple(instance.ids[v] for v in order),
        tuple(instance.inputs[v] for v in order),
        tuple(edges),
    )


def quotient(instances) -> tuple[list[int], list[int]]:
    """The family index of each class's first copy, and the class of each
    instance, as ``InputClasses.of_instances`` finds them."""
    classes = InputClasses.of_instances(instances)
    return [i for i, _ in classes.firsts], [k for k, _ in classes.copies]


class TestDistinctInputs:
    """``InputClasses.of_instances`` on listed families and on any list."""

    @pytest.mark.parametrize(
        "spec, classes",
        [
            (InstanceFamilySpec(n=1), 1),
            (InstanceFamilySpec(n=2), 2),
            (InstanceFamilySpec(n=3), 8),
            (InstanceFamilySpec(n=4), 64),
            (InstanceFamilySpec(n=3, c=2), 672),
        ],
    )
    def test_class_counts(self, spec, classes):
        family = list(enumerate_instances(spec))
        representatives, class_of = quotient(family)
        assert len(representatives) == classes
        assert len(class_of) == len(family)

    @pytest.mark.parametrize(
        "spec",
        [
            InstanceFamilySpec(n=3),
            InstanceFamilySpec(n=4),
            InstanceFamilySpec(n=3, input_alphabet=("a", "b")),
            InstanceFamilySpec(n=4, max_degree=2),
        ],
    )
    def test_at_c1_every_input_appears_once_per_renaming(self, spec):
        family = list(enumerate_instances(spec))
        _, class_of = quotient(family)
        assert set(Counter(class_of).values()) == {math.factorial(spec.n)}

    def test_classes_are_the_renamings_and_start_at_their_first_copy(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=3, c=2)))
        representatives, class_of = quotient(family)
        first: dict[tuple, int] = {}
        for i, inst in enumerate(family):
            first.setdefault(relabeled_by_identifier(inst), i)
        # numbered in order of first appearance, each represented by its first copy
        assert representatives == sorted(first.values())
        for i, inst in enumerate(family):
            assert representatives[class_of[i]] == first[relabeled_by_identifier(inst)]

    def test_a_shuffled_list_with_duplicates_and_missing_copies(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=3, input_alphabet=("a", "b"))))
        rng = random.Random(7)
        # what an instance file could hold: some copies missing, some repeated
        # (as equal objects read back from a dump), in any order
        chosen = rng.sample(family, 150) + load_instances(dump_instances(family[:40]))
        rng.shuffle(chosen)
        representatives, class_of = quotient(chosen)
        seen: dict[tuple, int] = {}
        for i, inst in enumerate(chosen):
            k = seen.setdefault(relabeled_by_identifier(inst), len(seen))
            assert class_of[i] == k
            assert representatives[k] <= i
        assert len(representatives) == len(seen)
        assert all(class_of[i] == k for k, i in enumerate(representatives))
        # perm renames each listed instance into its class's first copy
        classes = InputClasses.of_instances(chosen)
        for inst, (k, perm) in zip(chosen, classes.copies):
            first = chosen[representatives[k]]
            assert inst.ids == tuple(first.ids[u] for u in perm)
            assert inst.inputs == tuple(first.inputs[u] for u in perm)
            renamed = {tuple(sorted((perm[u], perm[v]))) for u, v in inst.graph.edges}
            assert renamed == set(first.graph.edges)

    def test_inputs_and_identifiers_separate_classes(self):
        path = InputInstance(Graph(3, ((0, 1), (1, 2))), (1, 2, 3), ("x", "y", "x"), 1)
        renamed = InputInstance(Graph(3, ((0, 2), (1, 2))), (1, 3, 2), ("x", "x", "y"), 1)
        other_label = InputInstance(Graph(3, ((0, 1), (1, 2))), (1, 2, 3), ("y", "x", "x"), 1)
        other_center = InputInstance(Graph(3, ((0, 1), (1, 2))), (2, 1, 3), ("x", "y", "x"), 1)
        assert quotient([path, renamed, other_label, other_center, path]) == (
            [0, 2, 3],
            [0, 0, 1, 2, 0],
        )

    def test_an_empty_list(self):
        assert quotient([]) == ([], [])
        assert InputClasses.of_instances([]).size == 0

    def test_classes_are_the_input_keys(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=3, input_alphabet=("a", "b"))))
        _, class_of = quotient(family)
        keys = [input_key(inst) for inst in family]
        for i, j in itertools.combinations(range(0, len(family), 7), 2):
            assert (keys[i] == keys[j]) == (class_of[i] == class_of[j])
            assert (keys[i] == keys[j]) == (
                relabeled_by_identifier(family[i]) == relabeled_by_identifier(family[j])
            )


INPUT_CLASS_SPECS = (
    [InstanceFamilySpec(n=n) for n in (1, 2, 3, 4, 5)]
    + [InstanceFamilySpec(n=n, c=2) for n in (1, 2, 3)]
    + [InstanceFamilySpec(n=4, max_degree=d) for d in (0, 1, 2, 3)]
    + [InstanceFamilySpec(n=n, input_alphabet=("a", "b")) for n in (1, 2, 3)]
)


class TestInputClasses:
    @pytest.mark.parametrize(
        "spec",
        INPUT_CLASS_SPECS,
        ids=lambda spec: f"n{spec.n}-c{spec.c}-{','.join(spec.input_alphabet)}-d{spec.max_degree}",
    )
    def test_of_spec_equals_the_classes_of_the_listed_family(self, spec):
        family = list(enumerate_instances(spec))
        expected = InputClasses.of_instances(family)
        classes = InputClasses.of_spec(spec)
        assert classes.size == expected.size == len(family)
        assert [i for i, _ in classes.firsts] == [i for i, _ in expected.firsts]
        for (_, first), (_, listed) in zip(classes.firsts, expected.firsts):
            assert (first.graph.edges, first.ids, first.inputs, first.c) == (
                listed.graph.edges,
                listed.ids,
                listed.inputs,
                listed.c,
            )
        assert classes.copies == expected.copies
        # perm renames each instance into its class's first copy
        for instance, (k, perm) in zip(family, classes.copies):
            first = classes.firsts[k][1]
            assert instance.ids == tuple(first.ids[u] for u in perm)
            assert instance.inputs == tuple(first.inputs[u] for u in perm)
            renamed = {tuple(sorted((perm[u], perm[v]))) for u, v in instance.graph.edges}
            assert renamed == set(first.graph.edges)

    def test_of_instances_keeps_the_list_order_and_its_repeats(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=3)))
        chosen = family[40:] + family[:8] + family[40:41]
        classes = InputClasses.of_instances(chosen)
        seen: dict[tuple, int] = {}
        representatives = [
            i
            for i, inst in enumerate(chosen)
            if seen.setdefault(relabeled_by_identifier(inst), i) == i
        ]
        class_of = [
            representatives.index(seen[relabeled_by_identifier(inst)]) for inst in chosen
        ]
        assert classes.size == len(chosen)
        assert classes.firsts == [(i, chosen[i]) for i in representatives]
        assert [k for k, _ in classes.copies] == class_of
        assert classes.copies[-1] == classes.copies[0] == (class_of[0], (0, 1, 2))

    def test_the_copies_are_built_on_first_use(self):
        classes = InputClasses.of_spec(InstanceFamilySpec(n=4))
        assert len(classes.firsts) == 64 and "copies" not in vars(classes)
        assert len(classes.copies) == 1536

    def test_n6_has_first_copies_but_too_many_copies(self):
        classes = InputClasses.of_spec(InstanceFamilySpec(n=6))
        assert (classes.size, len(classes.firsts)) == (23_592_960, 32_768)
        with pytest.raises(ValueError, match="n=6 has more than 4194304 instances"):
            classes.copies


class TestExtractBall:
    def test_radius_zero_is_annotated_singleton(self):
        inst = path_instance()
        ball = extract_ball(inst, 1, 0)
        assert ball.edges == ()
        (node,) = ball.nodes
        assert (node.identifier, node.degree, node.input, node.dist) == (2, 2, "x", 0)

    def test_c4_radius_one_edge_rule(self):
        # from id 1: nodes {1,2,4}; the 2-3 and 3-4 edges fall outside the rule
        ball = extract_ball(c4_instance(), 0, 1)
        assert ball.identifiers == (1, 2, 4)
        assert ball.edges == ((1, 2), (1, 4))
        assert all(b.degree == 2 for b in ball.nodes)

    def test_path_radius_two_covers_with_original_degrees(self):
        ball = extract_ball(path_instance(), 0, 2)
        assert {(b.identifier, b.degree) for b in ball.nodes} == {(1, 1), (2, 2), (3, 1)}
        assert ball.edges == ((1, 2), (2, 3))

    def test_degrees_are_original_not_view_internal(self):
        # star center seen from a leaf at radius 1: center keeps degree 3
        star = InputInstance(
            Graph(4, ((0, 1), (0, 2), (0, 3))), (1, 2, 3, 4), ("x",) * 4, 1
        )
        ball = extract_ball(star, 1, 1)
        assert ball.node(1).degree == 3
        assert len(ball.edges) == 1

    def test_matches_definition_oracle_on_random_instances(self):
        rng = random.Random(1005)
        for _ in range(60):
            inst = random_instance(rng, max_n=7)
            for v in range(inst.n):
                for radius in range(4):
                    assert ball_as_sets(extract_ball(inst, v, radius)) == oracle_ball(
                        inst, v, radius
                    )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ball_node_sets_grow_with_radius(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        inst = random_instance(rng, max_n=6)
        v = data.draw(st.integers(0, inst.n - 1))
        radius = data.draw(st.integers(0, 3))
        smaller = {b.identifier for b in extract_ball(inst, v, radius).nodes}
        larger = {b.identifier for b in extract_ball(inst, v, radius + 1).nodes}
        assert smaller <= larger

    def test_rejects_bad_arguments(self):
        inst = path_instance()
        with pytest.raises(ValueError):
            extract_ball(inst, 5, 1)
        with pytest.raises(ValueError):
            extract_ball(inst, 0, -1)


class TestCanonicalize:
    def test_storage_order_does_not_matter(self):
        ball = extract_ball(c4_instance(), 0, 1)
        rng = random.Random(7)
        for _ in range(10):
            nodes = list(ball.nodes)
            edges = list(ball.edges)
            rng.shuffle(nodes)
            rng.shuffle(edges)
            shuffled = BallView(ball.radius, tuple(nodes), tuple(edges))
            assert canonicalize(shuffled) == canonicalize(ball)

    def test_single_identifier_change_changes_key(self):
        base = extract_ball(path_instance((1, 2, 3)), 0, 1)
        other = extract_ball(path_instance((1, 3, 2)), 0, 1)
        assert canonicalize(base) != canonicalize(other)

    def test_c4_opposite_centers_differ(self):
        inst = c4_instance()
        assert canonicalize(extract_ball(inst, 0, 1)) != canonicalize(
            extract_ball(inst, 2, 1)
        )

    def test_key_round_trips_to_the_same_structure(self):
        # keys are injective: parsing one back rebuilds an equal view
        rng = random.Random(77)
        for _ in range(25):
            inst = random_instance(rng, max_n=6)
            ball = extract_ball(inst, rng.randrange(inst.n), rng.randint(0, 3))
            radius, nodes, edges = json.loads(canonicalize(ball))
            rebuilt = BallView(
                radius,
                tuple(BallNode(i, deg, lab, dist) for dist, i, deg, lab in nodes),
                tuple(tuple(e) for e in edges),
            )
            assert rebuilt == ball
            assert canonicalize(rebuilt) == canonicalize(ball)

    def test_input_labels_distinguish_views(self):
        a = InputInstance(Graph(1), (1,), ("a",), 1)
        b = InputInstance(Graph(1), (1,), ("b",), 1)
        assert canonicalize(extract_ball(a, 0, 0)) != canonicalize(extract_ball(b, 0, 0))


def reference_key(ball: BallView) -> str:
    """The key as canonicalize first built it, through json.dumps; the byte
    format it defines is fixed."""
    payload = [
        ball.radius,
        [[b.dist, b.identifier, b.degree, b.input] for b in ball.nodes],
        [list(e) for e in ball.edges],
    ]
    return json.dumps(payload, separators=(",", ":"), ensure_ascii=True)


class TestKeyFormat:
    def test_keys_match_the_json_reference_up_to_four_nodes(self):
        for n in range(1, 5):
            for inst in enumerate_instances(InstanceFamilySpec(n=n)):
                for v in range(n):
                    for radius in range(4):
                        ball = extract_ball(inst, v, radius)
                        assert canonicalize(ball) == reference_key(ball)

    def test_labels_needing_escapes_match_the_json_reference(self):
        # a quote, a backslash, a control character, and non-ASCII labels
        # inside and outside the basic multilingual plane
        alphabet = ('say "hi"', "back\\slash\n", "\u00e9t\u00e9", "\U0001d535")
        for n in range(1, 4):
            for inst in enumerate_instances(InstanceFamilySpec(n=n, input_alphabet=alphabet)):
                for v in range(n):
                    for radius in range(3):
                        ball = extract_ball(inst, v, radius)
                        key = canonicalize(ball)
                        assert key == reference_key(ball)
                        assert key.isascii()

    def test_validated_views_match_the_json_reference(self):
        nodes = (BallNode(7, 1, "\u00fc", 0), BallNode(3, 2, '"', 1))
        ball = BallView(1, nodes, ((7, 3),))
        assert canonicalize(ball) == reference_key(ball)
        assert canonicalize(ball) == '[1,[[0,7,1,"\\u00fc"],[1,3,2,"\\""]],[[3,7]]]'


class TestBallViewValidation:
    def test_extracted_views_equal_their_validated_rebuilds(self):
        # extract_ball skips validation; rebuilding each view from reversed
        # parts through the public constructor must give the same view and key
        for n in range(1, 5):
            for inst in enumerate_instances(InstanceFamilySpec(n=n)):
                for v in range(n):
                    for radius in range(4):
                        ball = extract_ball(inst, v, radius)
                        rebuilt = BallView(
                            radius,
                            ball.nodes[::-1],
                            tuple((b, a) for a, b in reversed(ball.edges)),
                        )
                        assert ball == rebuilt
                        assert canonicalize(ball) == canonicalize(rebuilt)

    def test_ball_nodes_are_immutable_values(self):
        node = BallNode(4, 2, "x", 1)
        with pytest.raises(AttributeError):
            node.dist = 0
        same = BallNode(identifier=4, degree=2, input="x", dist=1)
        assert node == same and hash(node) == hash(same)
        assert len({node, same}) == 1
        assert node != BallNode(4, 2, "y", 1)

    def test_requires_exactly_one_center(self):
        with pytest.raises(ValueError, match="center"):
            BallView(1, (BallNode(1, 0, "x", 1),))

    def test_rejects_edge_violating_rule(self):
        nodes = (BallNode(1, 1, "x", 0), BallNode(2, 2, "x", 1), BallNode(3, 2, "x", 1))
        with pytest.raises(ValueError, match="edge rule"):
            BallView(1, nodes, ((2, 3),))


class TestExtendInstance:
    def test_path_extension_attaches_beyond_radius(self):
        inst = path_instance()
        bigger = extend_instance(inst, 0, 1, 5)
        assert bigger.n == 5
        assert bigger.ids == (1, 2, 3, 4, 5)
        assert bigger.graph.is_connected
        # fresh chain hangs off the far endpoint (id 3, node 2)
        assert set(bigger.graph.edges) - set(inst.graph.edges) == {(2, 3), (3, 4)}
        assert canonicalize(extract_ball(bigger, 0, 1)) == canonicalize(
            extract_ball(inst, 0, 1)
        )

    def test_fresh_nodes_carry_the_least_input_label(self):
        # the least label sits at neither end of the path
        inst = InputInstance(Graph(3, ((0, 1), (1, 2))), (1, 2, 3), ("b", "a", "b"), 1)
        bigger = extend_instance(inst, 0, 1, 5)
        assert bigger.inputs == ("b", "a", "b", "a", "a")
        assert canonicalize(extract_ball(bigger, 0, 1)) == canonicalize(
            extract_ball(inst, 0, 1)
        )

    def test_ball_covering_whole_graph_is_rejected(self):
        with pytest.raises(ValueError, match="ball covers graph"):
            extend_instance(path_instance(), 1, 1, 5)

    def test_target_too_small_is_rejected(self):
        with pytest.raises(ValueError, match="target too small"):
            extend_instance(path_instance(), 0, 1, 3)

    def test_disconnected_is_rejected(self):
        inst = InputInstance(Graph(3, ((0, 1),)), (1, 2, 3), ("x",) * 3, 1)
        with pytest.raises(ValueError, match="connected"):
            extend_instance(inst, 0, 1, 5)

    def test_all_nodes_in_radius_but_missing_edge_has_no_attachment(self):
        # 5-cycle at radius 2: every node is within distance 2 of v, yet the
        # antipodal edge is outside the view, so the view does not cover the
        # graph and no attachment point beyond the radius exists either.
        c5 = InputInstance(
            Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
            (1, 2, 3, 4, 5),
            ("x",) * 5,
            1,
        )
        ball = extract_ball(c5, 0, 2)
        assert not ball_covers_instance(ball, c5)
        with pytest.raises(ValueError, match="no attachment node"):
            extend_instance(c5, 0, 2, 8)

    def test_preserves_keys_on_random_connected_instances(self):
        rng = random.Random(31)
        done = 0
        while done < 30:
            inst = random_instance(rng, max_n=5, edge_prob=0.4, connected=True)
            v = rng.randrange(inst.n)
            t = rng.randint(1, 2)
            dist = inst.graph.bfs_distances(v)
            if max(dist.values()) < t + 1:
                continue
            bigger = extend_instance(inst, v, t, inst.n + rng.randint(1, 3))
            assert canonicalize(extract_ball(bigger, v, t)) == canonicalize(
                extract_ball(inst, v, t)
            )
            done += 1


class TestSerialization:
    def test_instance_round_trip(self):
        rng = random.Random(13)
        for _ in range(20):
            inst = random_instance(rng, max_n=6, c=2)
            assert instance_from_jsonable(instance_to_jsonable(inst)) == inst

    def test_dump_load_round_trip(self):
        fam = list(enumerate_instances(InstanceFamilySpec(n=2, input_alphabet=("a", "b"))))
        assert load_instances(dump_instances(fam)) == fam

    @pytest.mark.parametrize(
        "line",
        [
            '{"n": 2}',
            "{not json",
            "[1, 2]",
            '{"n": 1, "edges": [], "ids": {"0": "one"}, "inputs": {"0": "x"}}',
            '{"n": 2, "edges": [[0, 1, 2]], "ids": {"0": 1, "1": 2}, "inputs": {"0": "x", "1": "x"}}',
            '{"n": 2, "edges": [], "ids": {"0": 1, "1": 1}, "inputs": {"0": "x", "1": "x"}}',
            '{"n": Infinity, "edges": [], "ids": {}, "inputs": {}}',
            '{"n": 1, "edges": [], "ids": {"0": 1e999}, "inputs": {"0": "x"}}',
            # a value of the wrong JSON type is rejected, never coerced
            '{"n": 1, "edges": [], "ids": {"0": 2.5}, "inputs": {"0": "x"}}',
            '{"n": 1, "edges": [], "ids": {"0": true}, "inputs": {"0": "x"}}',
            '{"n": 1, "edges": [], "ids": {"0": 1}, "inputs": {"0": null}}',
            '{"n": 1, "edges": [], "ids": {"0": 1}, "inputs": {"0": 7}}',
            '{"n": 2, "edges": ["01"], "ids": {"0": 1, "1": 2}, "inputs": {"0": "x", "1": "x"}}',
            '{"n": 2, "edges": [[0, true]], "ids": {"0": 1, "1": 2}, "inputs": {"0": "", "1": ""}}',
            '{"n": 2, "edges": {"0": 1}, "ids": {"0": 1, "1": 2}, "inputs": {"0": "x", "1": "x"}}',
            '{"n": 2.7, "edges": [], "ids": {"0": 1, "1": 2}, "inputs": {"0": "x", "1": "x"}}',
            '{"n": true, "edges": [], "ids": {"0": 1}, "inputs": {"0": "x"}}',
            '{"n": 1, "c": 1.5, "edges": [], "ids": {"0": 1}, "inputs": {"0": "x"}}',
            '{"n": 1, "c": "1", "edges": [], "ids": {"0": 1}, "inputs": {"0": "x"}}',
        ],
    )
    def test_bad_instance_lines_name_their_line(self, line):
        good = dump_instances([path_instance()])
        with pytest.raises(InstanceFormatError, match="^instance line 3: "):
            load_instances(good + "\n" + line + "\n")

    def test_disjoint_union_preserves_parts(self):
        a = path_instance()
        b = InputInstance(Graph(2, ((0, 1),)), (4, 5), ("x", "x"), None)
        u = disjoint_union(a, b)
        assert u.n == 5
        assert u.graph.components == ((0, 1, 2), (3, 4))
        with pytest.raises(ValueError, match="overlap"):
            disjoint_union(a, a)
