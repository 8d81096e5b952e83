"""Execution model, streams, tabulation, tables, and success probabilities."""

import itertools
import json
from fractions import Fraction

import pytest

from derandlab import (
    BitBudgetExceeded,
    BitReader,
    BitStream,
    Graph,
    IncompleteTableError,
    InputInstance,
    InstanceFamilySpec,
    LocalityViolation,
    NodeContext,
    NormalFormTable,
    RandomAssignment,
    SimulationError,
    StreamExhausted,
    TableFormatError,
    UnassignedIdentifier,
    assignment_is_good,
    compile_checks,
    compute_success_exact,
    disjoint_union,
    enumerate_instances,
    estimate_success_mc,
    fix_randomness,
    iter_bounded_assignments,
    load_table,
    make_coloring,
    make_mis,
    run_deterministic,
    run_normal_form,
    run_randomized,
    save_table,
    tabulate,
    verify,
)
import derandlab.programs
from derandlab.graphs import canonicalize, extract_ball
from derandlab.problems import solve_ball_component
from derandlab.programs import (
    component_solver_program,
    constant_program,
    degree_label_program,
    first_bit_label_program,
    gather_program,
    id_sum_parity_program,
    leading_ones_program,
    parity_program,
    table_program,
    two_bit_label_program,
    wait_for_claimed_count_program,
)


def path3(ids=(1, 2, 3)):
    return InputInstance(Graph(3, ((0, 1), (1, 2))), ids, ("x",) * 3, 1)


def single():
    return InputInstance(Graph(1), (1,), ("x",), 1)


class TestStreams:
    def test_keyed_streams_replay(self):
        a = BitStream.keyed("seed", 4)
        b = BitStream.keyed("seed", 4)
        assert [a.bit(i) for i in range(64)] == [b.bit(i) for i in range(64)]

    def test_keyed_streams_differ_across_identifiers(self):
        a = [BitStream.keyed("seed", 1).bit(i) for i in range(64)]
        b = [BitStream.keyed("seed", 2).bit(i) for i in range(64)]
        assert a != b

    def test_prefix_padding(self):
        s = BitStream.from_prefix((1, 0, 1), pad=0)
        assert [s.bit(i) for i in range(6)] == [1, 0, 1, 0, 0, 0]

    def test_recorded_stream_exhausts(self):
        s = BitStream.from_bits((1, 0))
        assert s.bit(1) == 0
        with pytest.raises(StreamExhausted, match="bit budget"):
            s.bit(2)

    def test_reader_cap(self):
        reader = BitReader(BitStream.keyed("s"), cap=3)
        reader.take(3)
        with pytest.raises(BitBudgetExceeded):
            reader.next_bit()

    def test_non_bits_are_rejected(self):
        with pytest.raises(ValueError):
            RandomAssignment.from_vectors({1: (0, 2)})
        with pytest.raises(ValueError):
            BitStream.from_bits((1, 2))
        with pytest.raises(ValueError):
            BitStream.from_prefix((2,))

    def test_assignment_domain(self):
        f = RandomAssignment.from_vectors({1: (0,), 2: (1,)})
        assert f.stream_for(2).bit(0) == 1
        with pytest.raises(UnassignedIdentifier):
            f.stream_for(3)

    def test_bounded_assignments_lexicographic(self):
        vectors = [
            tuple(a.vectors[ident] for ident in (1, 2))
            for a in iter_bounded_assignments((1, 2), 1)
        ]
        assert vectors == [
            ((0,), (0,)),
            ((0,), (1,)),
            ((1,), (0,)),
            ((1,), (1,)),
        ]

    @pytest.mark.parametrize("id_space", [(), (5,), (3, 1), (2, 3, 1, 3)])
    @pytest.mark.parametrize("bits", [0, 1, 2])
    def test_bounded_assignments_equal_their_from_vectors(self, id_space, bits):
        # the i-th assignment gives the sorted identifiers the bits of the
        # i-th flat vector in lexicographic order, as from_vectors would
        ids = sorted(set(id_space))
        flats = itertools.product((0, 1), repeat=bits * len(ids))
        got = list(iter_bounded_assignments(id_space, bits))
        assert len(got) == 2 ** (bits * len(set(id_space)))
        for assignment, flat in itertools.zip_longest(got, flats):
            vectors = {ident: flat[i * bits : (i + 1) * bits] for i, ident in enumerate(ids)}
            want = RandomAssignment.from_vectors(vectors)
            assert assignment.vectors == want.vectors == vectors
            assert assignment.description == want.description
            assert assignment.domain == want.domain
            for ident in ids:
                pair = [a.stream_for(ident) for a in (assignment, want)]
                assert pair[0].description == pair[1].description
                read = [[s.bit(i) for i in range(bits)] for s in pair]
                assert read[0] == read[1] == list(vectors[ident])
                errors = []
                for stream in pair:
                    with pytest.raises(StreamExhausted) as exc:
                        stream.bit(bits)
                    errors.append(str(exc.value))
                assert errors[0] == errors[1]
            errors = []
            for a in (assignment, want):
                with pytest.raises(UnassignedIdentifier) as exc:
                    a.stream_for(max(ids, default=0) + 1)
                errors.append(str(exc.value))
            assert errors[0] == errors[1]

    def test_a_negative_bit_budget_is_rejected(self):
        with pytest.raises(ValueError, match="^bit budget must be nonnegative$"):
            next(iter_bounded_assignments((1, 2), -1))

    def test_node_contexts_are_immutable_values(self):
        ctx = NodeContext(0, 3, 7, 2, "x", None, (None, None))
        assert ctx.bits is None
        with pytest.raises(AttributeError):
            ctx.state = 1
        same = NodeContext(0, 3, 7, 2, "x", None, (None, None), None)
        assert ctx == same and hash(ctx) == hash(same)
        assert len({ctx, same}) == 1
        assert ctx != ctx._replace(round=1)
        assert ctx._replace(state=5).state == 5 and ctx.state is None


class TestRunDeterministic:
    def test_zero_round_parity(self):
        result = run_deterministic(parity_program(), path3())
        assert result.outputs == {0: "odd", 1: "even", 2: "odd"}
        assert result.rounds == 0

    def test_claimed_count_governs_behavior(self):
        edge = InputInstance(Graph(2, ((0, 1),)), (1, 2), ("x", "x"), 1)
        result = run_deterministic(wait_for_claimed_count_program(), edge, claimed_n=16)
        assert result.rounds == 16
        assert result.outputs == {0: "done", 1: "done"}

    def test_claimed_count_must_cover_true_count(self):
        with pytest.raises(ValueError, match="claimed"):
            run_deterministic(parity_program(), path3(), claimed_n=2)

    def test_round_budget_enforced(self):
        from derandlab import NodeProgram, StepResult

        silent = NodeProgram("never-halts", lambda ctx: StepResult(), lambda _n: 2)
        with pytest.raises(SimulationError, match="round budget"):
            run_deterministic(silent, single())

    def test_output_alphabet_enforced(self):
        from derandlab import NodeProgram, StepResult

        bad = NodeProgram(
            "bad-label", lambda ctx: StepResult(output="Z"), lambda _n: 0, ("A",)
        )
        with pytest.raises(SimulationError, match="outside the output alphabet"):
            run_deterministic(bad, single())

    def test_gather_outputs_depend_only_on_views(self):
        # tabulating a 1-round gather at radius 1 must never conflict
        program = id_sum_parity_program(1)
        family = list(enumerate_instances(InstanceFamilySpec(n=3)))
        table = tabulate(program, 1, family)
        for inst in family:
            assert run_normal_form(table, inst) == run_deterministic(program, inst).outputs

    def test_trace_counts_messages(self):
        program = component_solver_program(make_mis(), 2)
        result = run_deterministic(program, path3(), trace=True)
        # rounds 0 and 1 broadcast, round 2 decides silently
        assert result.trace == ((1, 2, 1), (1, 2, 1), (0, 0, 0))

    def test_gather_reconstructs_exactly_the_extracted_view(self):
        # message-passing gather over T rounds must assemble, from message
        # content alone, the same labeled view that extract_ball computes
        # from the whole graph
        import random

        from conftest import random_instance

        rng = random.Random(909)
        for _ in range(40):
            inst = random_instance(rng, max_n=6, alphabet=("a", "b"))
            for radius in range(4):
                program = gather_program(radius, canonicalize, f"gather-key-{radius}")
                outputs = run_deterministic(program, inst).outputs
                for v in range(inst.n):
                    assert outputs[v] == canonicalize(extract_ball(inst, v, radius))


class TestRunRandomized:
    def test_bit_free_program_matches_deterministic(self):
        program = parity_program()
        for inst in enumerate_instances(InstanceFamilySpec(n=2)):
            det = run_deterministic(program, inst)
            rand = run_randomized(
                program, inst, streams=RandomAssignment.from_seed(9)
            )
            assert rand.outputs == det.outputs

    def test_all_zero_streams(self):
        program = first_bit_label_program(("0", "1"))
        zeros = RandomAssignment(
            lambda ident: BitStream.from_prefix((), pad=0), None, "zeros"
        )
        result = run_randomized(program, path3(), streams=zeros)
        assert result.outputs == {0: "0", 1: "0", 2: "0"}

    def test_leading_ones_consumes_unbounded_bits(self):
        result = run_randomized(
            leading_ones_program(),
            single(),
            streams=RandomAssignment.from_vectors({1: (1, 1, 0)}),
        )
        assert result.outputs == {0: "2"}

    def test_bit_cap_stops_runaway_consumption(self):
        ones = RandomAssignment(
            lambda ident: BitStream.from_prefix((), pad=1), None, "ones"
        )
        with pytest.raises(BitBudgetExceeded):
            run_randomized(leading_ones_program(), single(), streams=ones, bit_cap=64)

    def test_seed_replays_exactly(self):
        program = first_bit_label_program(("0", "1"))
        a = run_randomized(program, path3(), streams=RandomAssignment.from_seed("replay"))
        b = run_randomized(program, path3(), streams=RandomAssignment.from_seed("replay"))
        assert a.outputs == b.outputs


class TestFixRandomness:
    def test_zero_assignment_gives_constant_program(self):
        program = first_bit_label_program(("0", "1"))
        fixed = fix_randomness(
            program, RandomAssignment.from_vectors({1: (0,), 2: (0,), 3: (0,)})
        )
        assert run_deterministic(fixed, path3()).outputs == {0: "0", 1: "0", 2: "0"}

    def test_identifier_outside_domain_raises_at_run_time(self):
        program = first_bit_label_program(("0", "1"))
        fixed = fix_randomness(program, RandomAssignment.from_vectors({1: (0,)}))
        with pytest.raises(UnassignedIdentifier):
            run_deterministic(fixed, path3())

    def test_fixing_equals_running_with_streams_exhaustively(self):
        # every n <= 2 family instance, every 1-bit assignment over ids {1, 2}
        program = first_bit_label_program(("0", "1"))
        instances = list(enumerate_instances(InstanceFamilySpec(n=1))) + list(
            enumerate_instances(InstanceFamilySpec(n=2))
        )
        for assignment in iter_bounded_assignments((1, 2), 1):
            fixed = fix_randomness(program, assignment)
            for inst in instances:
                assert (
                    run_deterministic(fixed, inst).outputs
                    == run_randomized(program, inst, streams=assignment).outputs
                )

    def test_multi_round_bit_consumption_is_tracked(self):
        # read one bit per round for three rounds; bits must not repeat
        from derandlab import NodeProgram, StepResult

        def step(ctx):
            bits = [] if ctx.state is None else ctx.state
            bits = bits + [ctx.bits.next_bit()]
            if len(bits) == 3:
                return StepResult(output="".join(map(str, bits)))
            return StepResult(state=bits)

        program = NodeProgram("three-bits", step, lambda _n: 3)
        f = RandomAssignment.from_vectors({1: (1, 0, 1)})
        fixed = fix_randomness(program, f)
        assert run_deterministic(fixed, single()).outputs == {0: "101"}

    def test_average_over_assignments_equals_exact_probability(self):
        program = first_bit_label_program(("A", "B"))
        problem = make_coloring(2)
        family = list(enumerate_instances(InstanceFamilySpec(n=2)))
        exact = compute_success_exact(program, compile_checks(problem, family), bits=1)
        assignments = list(iter_bounded_assignments((1, 2), 1))
        for idx, inst in enumerate(family):
            failures = sum(
                not verify(
                    problem,
                    inst,
                    run_deterministic(fix_randomness(program, f), inst).outputs,
                ).valid
                for f in assignments
            )
            assert Fraction(failures, len(assignments)) == exact[idx]


class TestNormalFormTables:
    def test_single_entry_table_on_single_node(self):
        inst = single()
        key = canonicalize(extract_ball(inst, 0, 0))
        table = NormalFormTable.from_mapping(0, ("A",), {key: "A"})
        assert run_normal_form(table, inst) == {0: "A"}

    def test_missing_key_is_reported(self):
        table = NormalFormTable.from_mapping(0, ("A",), {})
        with pytest.raises(IncompleteTableError) as err:
            run_normal_form(table, single())
        assert err.value.key == canonicalize(extract_ball(single(), 0, 0))

    def test_values_must_come_from_alphabet(self):
        with pytest.raises(ValueError, match="alphabet"):
            NormalFormTable.from_mapping(0, ("A",), {"k": "B"})

    def test_save_load_round_trip(self, tmp_path):
        family = list(enumerate_instances(InstanceFamilySpec(n=2)))
        table = tabulate(degree_label_program(), 0, family)
        path = tmp_path / "table.json"
        save_table(table, path)
        assert load_table(path) == table
        payload = json.loads(path.read_text())
        keys = [e["key"] for e in payload["entries"]]
        assert keys == sorted(keys)
        assert set(payload) == {"T", "output_alphabet", "entries", "provenance"}

    @pytest.mark.parametrize(
        "text,alphabet",
        [
            ("{not json", None),
            ('{"T": 1}', None),
            ('{"T": 0, "output_alphabet": "AB", "entries": []}', None),
            ('{"T": 0, "output_alphabet": ["A", "B"], "entries": []}', ("A", "C")),
        ],
        ids=["invalid-json", "missing-key", "wrong-type", "foreign-alphabet"],
    )
    def test_malformed_files_raise_table_format_error(self, tmp_path, text, alphabet):
        path = tmp_path / "table.json"
        path.write_text(text)
        with pytest.raises(TableFormatError):
            load_table(path, alphabet)


class TestTabulate:
    def test_degree_table_over_n2_family(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=2)))
        table = tabulate(degree_label_program(), 0, family)
        # views (id, degree) for id in {1, 2} and degree in {0, 1}
        assert table.size == 4
        for inst in family:
            for v in range(2):
                key = canonicalize(extract_ball(inst, v, 0))
                assert table.lookup(key) == str(inst.graph.degree(v))

    def test_locality_violation_detected(self):
        # 1-round gather tabulated at radius 0: with c=2 the node holding id 1
        # sees neighbor id 2 in one instance (odd sum) and id 3 in another
        # (even sum), while its radius-0 view is identical in both.
        family = list(enumerate_instances(InstanceFamilySpec(n=2, c=2)))
        with pytest.raises(LocalityViolation) as err:
            tabulate(id_sum_parity_program(1), 0, family)
        assert err.value.first[2] != err.value.second[2]

    def test_tabulating_a_table_program_is_idempotent(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=3)))
        table = tabulate(component_solver_program(make_mis(), 2), 2, family)
        again = tabulate(table_program(table), 2, family)
        assert again.entries == table.entries

    def test_round_trip_with_run_deterministic(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=2, input_alphabet=("a", "b"))))
        program = gather_program(
            1, lambda ball: "-".join(sorted(b.input for b in ball.nodes)), "join-inputs"
        )
        table = tabulate(program, 1, family)
        for inst in family:
            assert run_normal_form(table, inst) == run_deterministic(program, inst).outputs


class TestComponentSolverMemo:
    @staticmethod
    def count_solves(monkeypatch) -> list[int]:
        calls = [0]

        def counted(problem, ball):
            calls[0] += 1
            return solve_ball_component(problem, ball)

        monkeypatch.setattr(derandlab.programs, "solve_ball_component", counted)
        return calls

    def test_table_equals_a_solve_per_node_reference(self):
        mis = make_mis()
        family = list(enumerate_instances(InstanceFamilySpec(n=4)))
        reference = gather_program(
            3,
            lambda ball: solve_ball_component(mis, ball)[ball.center_id],
            "solve-per-node",
            mis.output_alphabet,
        )
        table = tabulate(component_solver_program(mis, 3), 3, family)
        assert table.entries == tabulate(reference, 3, family).entries

    def test_one_solve_per_distinct_component(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        family = list(enumerate_instances(InstanceFamilySpec(n=4)))
        tabulate(component_solver_program(make_mis(), 3), 3, family)
        assert sum(inst.n for inst in family) == 6144
        assert calls[0] == 64

    def test_too_small_a_radius_raises_on_every_run(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        program = component_solver_program(make_mis(), 1)
        for attempt in (1, 2):
            with pytest.raises(
                SimulationError,
                match=r"^view is not a whole component: node 2 has 1 of 2 edges$",
            ):
                run_deterministic(program, path3())
            assert calls[0] == attempt

    def test_unsolvable_component_raises_on_every_run(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        triangle = InputInstance(Graph(3, ((0, 1), (0, 2), (1, 2))), (1, 2, 3), ("x",) * 3, 1)
        program = component_solver_program(make_coloring(2), 2)
        for attempt in (1, 2):
            with pytest.raises(
                SimulationError, match=r"^component of node 1 admits no valid labeling$"
            ):
                run_deterministic(program, triangle)
            assert calls[0] == attempt


class TestClaimedSizeOpacity:
    def test_table_outputs_survive_disjoint_padding(self):
        # a node's view, and hence its table output, cannot reveal whether the
        # instance stands alone or inside a larger disjoint graph
        family = list(enumerate_instances(InstanceFamilySpec(n=3)))
        table = tabulate(component_solver_program(make_mis(), 2), 2, family)
        base = family[7]
        pad = InputInstance(
            Graph(3, ((0, 1), (1, 2))), (4, 5, 6), ("x",) * 3, None
        )
        union = disjoint_union(base, pad)
        for v in range(base.n):
            key_alone = canonicalize(extract_ball(base, v, 2))
            key_padded = canonicalize(extract_ball(union, v, 2))
            assert key_alone == key_padded
            assert table.lookup(key_alone) == table.lookup(key_padded)


class TestSuccessProbabilities:
    def test_bit_free_correct_program_never_fails(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=1)))
        probs = compute_success_exact(
            constant_program("IN"), compile_checks(make_mis(), family), bits=0
        )
        assert probs == [Fraction(0)]

    def test_first_bit_coloring_on_the_edge_instance(self):
        edge = InputInstance(Graph(2, ((0, 1),)), (1, 2), ("x", "x"), 1)
        probs = compute_success_exact(
            first_bit_label_program(("A", "B")),
            compile_checks(make_coloring(2), [edge]),
            bits=1,
        )
        assert probs == [Fraction(1, 2)]

    def test_two_bit_three_coloring_against_enumeration_oracle(self):
        # oracle: enumerate the 16 joint patterns under the documented rule
        # 00,01,10,11 -> A,B,C,A and count monochromatic pairs
        pick = {(0, 0): "A", (0, 1): "B", (1, 0): "C", (1, 1): "A"}
        bad = sum(
            pick[p] == pick[q]
            for p in itertools.product((0, 1), repeat=2)
            for q in itertools.product((0, 1), repeat=2)
        )
        expected = Fraction(bad, 16)
        assert expected == Fraction(3, 8)

        edge = InputInstance(Graph(2, ((0, 1),)), (1, 2), ("x", "x"), 1)
        probs = compute_success_exact(
            two_bit_label_program(("A", "B", "C")),
            compile_checks(make_coloring(3), [edge]),
            bits=2,
        )
        assert probs == [expected]

    def test_reading_past_the_bit_budget_raises(self):
        edge = InputInstance(Graph(2, ((0, 1),)), (1, 2), ("x", "x"), 1)
        with pytest.raises(StreamExhausted):
            compute_success_exact(
                two_bit_label_program(("A", "B", "C")),
                compile_checks(make_coloring(3), [edge]),
                bits=1,
            )

    def test_mc_bit_free_program_estimates_zero_exactly(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=1)))
        estimates = estimate_success_mc(
            constant_program("IN"),
            compile_checks(make_mis(), family),
            trials=50,
            seed=3,
        )
        assert estimates[0].failure == 0
        assert estimates[0].stderr == 0.0

    def test_mc_replays_with_the_same_seed(self):
        edge = InputInstance(Graph(2, ((0, 1),)), (1, 2), ("x", "x"), 1)
        program = first_bit_label_program(("A", "B"))
        a = estimate_success_mc(
            program, compile_checks(make_coloring(2), [edge]), trials=200, seed=11
        )
        b = estimate_success_mc(
            program, compile_checks(make_coloring(2), [edge]), trials=200, seed=11
        )
        assert [e.failure for e in a] == [e.failure for e in b]

    def test_mc_close_to_exact(self):
        edge = InputInstance(Graph(2, ((0, 1),)), (1, 2), ("x", "x"), 1)
        program = first_bit_label_program(("A", "B"))
        (estimate,) = estimate_success_mc(
            program, compile_checks(make_coloring(2), [edge]), trials=2000, seed=5
        )
        assert abs(float(estimate.failure) - 0.5) <= 3 * estimate.stderr


class TestAssignmentGoodness:
    def test_good_and_bad_assignments_distinguished(self):
        program = first_bit_label_program(("A", "B"))
        problem = make_coloring(2)
        family = list(enumerate_instances(InstanceFamilySpec(n=2)))
        good = RandomAssignment.from_vectors({1: (0,), 2: (1,)})
        bad = RandomAssignment.from_vectors({1: (0,), 2: (0,)})
        assert assignment_is_good(
            program, good, compile_checks(problem, family)
        ) == (True, None)
        ok, witness = assignment_is_good(program, bad, compile_checks(problem, family))
        assert not ok
        assert family[witness].graph.edges  # failure happens on an edge instance
