"""Both pipelines: certificates, assignment search, and direct table search."""

import importlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    copy_neighbor_parity_problem,
    naive_lex_first_table,
    one_leader_problem,
    random_instance,
)
from derandlab import (
    AssignmentNotGood,
    GoodnessCertificate,
    InstanceFamilySpec,
    LocalityViolation,
    NormalFormTable,
    ProblemSpec,
    RandomAssignment,
    SearchBudgetExceeded,
    SearchConfig,
    assignment_is_good,
    brute_force_solve,
    compile_family,
    compute_success_exact,
    derandomize,
    derandomize_via_f,
    enumerate_instances,
    estimate_success_mc,
    find_normal_form,
    fix_randomness,
    iter_bounded_assignments,
    lift_to_claimed_size,
    make_coloring,
    make_mis,
    problem_by_name,
    run_deterministic,
    run_normal_form,
    search_good_f,
    verify,
)
from derandlab.graphs import canonicalize, extract_ball
from derandlab.problems import _cdcl, _triggers, compile_checks
from derandlab.programs import (
    first_bit_label_program,
    id_sum_parity_program,
    two_bit_label_program,
)


def output_one_problem():
    """Every node must output the label 1 (verification radius 0)."""
    return ProblemSpec(
        name="output-one",
        radius=0,
        output_alphabet=("0", "1"),
        ball_predicate=lambda ball, outputs: outputs[ball.center_id] == "1",
    )


class TestClaimedSizeLift:
    def test_n1(self):
        lift = lift_to_claimed_size(InstanceFamilySpec(n=1))
        assert lift.claimed_size == 2
        assert lift.family_bound == 1
        assert lift.bound_below_claimed
        assert lift.bound_below_claimed_over_n

    def test_n3_checks(self):
        lift = lift_to_claimed_size(InstanceFamilySpec(n=3))
        assert lift.claimed_size == 512
        assert lift.family_bound == 216
        assert lift.bound_below_claimed
        assert not lift.bound_below_claimed_over_n  # 216 * 3 = 648 >= 512

    def test_n2_strictness(self):
        lift = lift_to_claimed_size(InstanceFamilySpec(n=2))
        assert (lift.claimed_size, lift.family_bound) == (16, 8)
        assert lift.bound_below_claimed
        assert not lift.bound_below_claimed_over_n  # 8 * 2 == 16 exactly

    def test_exact_big_integers(self):
        spec = InstanceFamilySpec(n=10, c=2, input_alphabet=("a", "b", "c"))
        lift = lift_to_claimed_size(spec)
        assert lift.claimed_size == 2**100
        assert lift.family_bound == 2**45 * 10**20 * 3**10


class TestCertificate:
    def test_all_zero_probabilities(self):
        cert = GoodnessCertificate([Fraction(0)] * 5, range(5), 32)
        assert cert.total == 0
        assert cert.verdict

    def test_forty_eight_instances_below_one_sixty_fourth(self):
        cert = GoodnessCertificate([Fraction(1, 64)] * 48, range(48), 512)
        assert cert.total == Fraction(3, 4)
        assert cert.verdict

    def test_inconclusive_sum_is_not_a_nonexistence_proof(self):
        cert = GoodnessCertificate([Fraction(3, 5), Fraction(3, 5)], range(2), 16)
        assert cert.total == Fraction(6, 5)
        assert not cert.verdict

    def test_probabilities_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            GoodnessCertificate([Fraction(3, 2)], range(1), 4)

    def test_jsonable_uses_exact_strings(self):
        cert = GoodnessCertificate([Fraction(1, 3)], range(1), 4)
        assert cert.to_jsonable()["failure_probs"] == ["1/3"]
        assert cert.to_jsonable()["total"] == "1/3"

    @pytest.mark.parametrize(
        "distinct, classes",
        [
            ([Fraction(0)], [0, 0, 0]),
            ([Fraction(1, 3), Fraction(1, 2)], [0, 1, 1, 0, 1]),
            ([Fraction(1, 7), Fraction(0), Fraction(5, 6)], [0, 1, 0, 2, 2, 1, 2]),
            ([], []),
        ],
    )
    def test_per_class_certificate_is_the_per_copy_one(self, distinct, classes):
        per_copy = GoodnessCertificate(
            [distinct[k] for k in classes], range(len(classes)), 64
        )
        per_class = GoodnessCertificate(distinct, classes, 64)
        for name in (
            "failure_probs", "total", "family_size", "claimed_size", "estimated", "verdict"
        ):
            assert getattr(per_class, name) == getattr(per_copy, name), name
        assert per_class.distinct_total == sum(distinct, Fraction(0))
        # the reports differ only in what they say of the distinct inputs
        grouped, listed = per_class.to_jsonable(), per_copy.to_jsonable()
        assert grouped.keys() == listed.keys()
        for key in grouped.keys() - {"distinct_inputs", "distinct_total"}:
            assert grouped[key] == listed[key], key
        assert grouped["distinct_inputs"] == len(distinct)
        assert listed["distinct_inputs"] == len(classes)
        assert grouped["distinct_total"] == str(per_class.distinct_total)

    def test_per_class_certificate_rejects_the_same_probability(self):
        # inputs numbered by first appearance: 3/2 comes first in both orders
        distinct = [Fraction(1, 2), Fraction(3, 2), Fraction(2)]
        classes = [0, 1, 0, 2, 1]
        with pytest.raises(ValueError) as per_copy:
            GoodnessCertificate([distinct[k] for k in classes], range(len(classes)), 8)
        with pytest.raises(ValueError) as per_class:
            GoodnessCertificate(distinct, classes, 8)
        assert str(per_class.value) == str(per_copy.value)
        assert str(per_class.value) == "failure probability 3/2 outside [0, 1]"


class TestSearchGoodAssignment:
    def test_bit_insensitive_program_returns_first_candidate(self):
        program = __import__(
            "derandlab.programs", fromlist=["parity_program"]
        ).parity_program()
        problem = ProblemSpec(
            name="any",
            radius=0,
            output_alphabet=("even", "odd"),
            ball_predicate=lambda ball, outputs: True,
        )
        family = list(enumerate_instances(InstanceFamilySpec(n=1)))
        found = search_good_f(program, compile_checks(problem, family), bits=1)
        assert found is not None
        assert found.vectors == {1: (0,)}

    def test_single_node_must_output_one(self):
        program = first_bit_label_program(("0", "1"))
        family = list(enumerate_instances(InstanceFamilySpec(n=1)))
        found = search_good_f(program, compile_checks(output_one_problem(), family), bits=1)
        assert found.vectors == {1: (1,)}

    def test_n2_coloring_exactly_two_good_candidates(self):
        program = first_bit_label_program(("A", "B"))
        problem = make_coloring(2)
        family = list(enumerate_instances(InstanceFamilySpec(n=2)))
        found = search_good_f(program, compile_checks(problem, family), bits=1)
        assert found.vectors == {1: (0,), 2: (1,)}
        verdicts = [
            assignment_is_good(program, f, compile_checks(problem, family))
            for f in iter_bounded_assignments([1, 2], 1)
        ]
        assert [ok for ok, _ in verdicts] == [False, True, True, False]
        # differential gate: running with streams decides exactly what the
        # fixed program's verify loop decides, down to the first failing index
        for f, verdict in zip(iter_bounded_assignments([1, 2], 1), verdicts):
            fixed = fix_randomness(program, f)
            failing = [
                idx
                for idx, inst in enumerate(family)
                if not verify(problem, inst, run_deterministic(fixed, inst).outputs).valid
            ]
            assert verdict == (not failing, failing[0] if failing else None)

    def test_whole_space_can_fail(self):
        program = first_bit_label_program(("0", "1"))
        problem = ProblemSpec(
            name="impossible",
            radius=0,
            output_alphabet=("0", "1"),
            ball_predicate=lambda ball, outputs: False,
        )
        family = list(enumerate_instances(InstanceFamilySpec(n=1)))
        assert search_good_f(program, compile_checks(problem, family), bits=1) is None

    def test_budget_guard(self):
        # 2**23 candidate assignments, over the budget of 2**22
        program = first_bit_label_program(("0", "1"))
        family = list(enumerate_instances(InstanceFamilySpec(n=1)))
        with pytest.raises(SearchBudgetExceeded):
            search_good_f(program, compile_checks(output_one_problem(), family), bits=23)

    def test_a_negative_bit_budget_is_rejected_before_any_work(self, monkeypatch):
        work = []
        module = importlib.import_module("derandlab.derandomize")
        monkeypatch.setattr(module, "run_randomized", lambda *a, **k: work.append(a))
        program = first_bit_label_program(("0", "1"))
        family = list(enumerate_instances(InstanceFamilySpec(n=1)))
        with pytest.raises(ValueError, match="^bit budget must be nonnegative$"):
            search_good_f(program, compile_checks(output_one_problem(), family), bits=-1)
        assert work == []

    def test_union_bound_verdict_implies_search_succeeds(self):
        # exact certificate below one, so some bounded assignment must work
        program = first_bit_label_program(("0", "1"))
        problem = output_one_problem()
        family = list(enumerate_instances(InstanceFamilySpec(n=1)))
        probs = compute_success_exact(program, compile_checks(problem, family), bits=1)
        cert = GoodnessCertificate(
            probs,
            range(len(probs)),
            lift_to_claimed_size(InstanceFamilySpec(n=1)).claimed_size,
        )
        assert cert.total == Fraction(1, 2)
        assert cert.verdict
        assert search_good_f(program, compile_checks(problem, family), bits=1) is not None


class TestOnePassChecks:
    """Route one's passes take the family's compiled checks alone, as any
    iterable: a generator must give what a list gives."""

    problem = make_mis()
    program = first_bit_label_program(problem.output_alphabet)
    family = list(enumerate_instances(InstanceFamilySpec(n=2)))

    def checks(self):
        # a generator over the compiled list, read at most once
        return (compiled for compiled in compile_checks(self.problem, self.family))

    def test_the_search_reads_a_generator_once(self):
        # every candidate fails on some instance; a search that passed over
        # the generator once per candidate would check the second candidate
        # on the instances the first one left, and return it
        listed = search_good_f(self.program, list(self.checks()), 1)
        assert listed is None
        assert search_good_f(self.program, self.checks(), 1) == listed

    def test_the_other_passes_give_what_a_list_gives(self):
        exact = compute_success_exact(self.program, self.checks(), 1)
        assert exact == compute_success_exact(self.program, list(self.checks()), 1)
        mc = estimate_success_mc(self.program, self.checks(), 100, seed=3)
        assert mc == estimate_success_mc(self.program, list(self.checks()), 100, seed=3)
        for f in iter_bounded_assignments([1, 2], 1):
            got = assignment_is_good(self.program, f, self.checks())
            assert got == assignment_is_good(self.program, f, list(self.checks()))

    # 12 bits for each of two identifiers: 2**24 candidates, over the budget.
    # The bit budget is checked before any check is drawn; the identifiers
    # are read from the checks, so the candidate budget draws each check
    # once, but neither guard runs the program.
    @pytest.mark.parametrize("bits, error", [(-1, ValueError), (12, SearchBudgetExceeded)])
    def test_the_search_does_no_work_before_its_guards(self, monkeypatch, bits, error):
        runs = []
        module = importlib.import_module("derandlab.derandomize")
        monkeypatch.setattr(module, "run_randomized", lambda *a, **k: runs.append(a))
        compiled = list(self.checks())
        drawn = []

        def checks():
            for check in compiled:
                drawn.append(check)
                yield check

        with pytest.raises(error):
            search_good_f(self.program, checks(), bits)
        assert drawn == ([] if bits < 0 else compiled)
        assert runs == []


class TestDerandomizeViaAssignment:
    def setup_method(self):
        self.program = first_bit_label_program(("A", "B"))
        self.problem = make_coloring(2)
        self.family = list(enumerate_instances(InstanceFamilySpec(n=2)))
        self.good = RandomAssignment.from_vectors({1: (0,), 2: (1,)})

    def test_good_assignment_tabulates_and_verifies(self):
        table = derandomize_via_f(self.program, self.good, 0, self.family, self.problem)
        assert table.provenance.startswith("via-f")
        checked = sum(
            verify(self.problem, inst, run_normal_form(table, inst)).valid
            for inst in self.family
        )
        assert checked == len(self.family) == 4
        # the fixed program colors by identifier bit
        key_id1 = canonicalize(extract_ball(self.family[2], 0, 0))
        assert table.lookup(key_id1) == "A"

    def test_bad_assignment_is_rejected_with_witness(self):
        bad = RandomAssignment.from_vectors({1: (1,), 2: (1,)})
        with pytest.raises(AssignmentNotGood) as err:
            derandomize_via_f(self.program, bad, 0, self.family, self.problem)
        assert self.family[err.value.index].graph.edges == ((0, 1),)

    def test_the_two_route_one_checks_agree(self):
        """On every 1-bit assignment, a table comes back exactly when
        ``assignment_is_good`` says good, and a rejection names the instance
        it names."""
        verdicts = []
        for f in iter_bounded_assignments([1, 2], 1):
            ok, index = assignment_is_good(
                self.program, f, compile_checks(self.problem, self.family)
            )
            verdicts.append(ok)
            if ok:
                table = derandomize_via_f(self.program, f, 0, self.family, self.problem)
                assert table.provenance == f"via-f:{self.program.name}"
                continue
            with pytest.raises(AssignmentNotGood) as err:
                derandomize_via_f(self.program, f, 0, self.family, self.problem)
            assert err.value.index == index
            assert err.value.instance is self.family[index]
        assert verdicts == [False, True, True, False]

    def test_a_label_outside_the_problem_alphabet_raises_the_tables_value_error(self):
        # "C" is in the program's alphabet but not in coloring:2's; the node
        # with identifier 2 reads bits 1, 0 and outputs it
        program = two_bit_label_program(("A", "B", "C"))
        f = RandomAssignment.from_vectors({1: (0, 0), 2: (1, 0)})
        with pytest.raises(ValueError) as err:
            derandomize_via_f(program, f, 0, self.family, self.problem)
        assert type(err.value) is ValueError
        assert str(err.value) == "table value 'C' outside the output alphabet"

    def test_radius_too_small_raises_locality_violation(self):
        # a 1-round gather cannot be a function of radius-0 views
        program = id_sum_parity_program(1)
        problem = ProblemSpec(
            name="any",
            radius=0,
            output_alphabet=("even", "odd"),
            ball_predicate=lambda ball, outputs: True,
        )
        family = list(enumerate_instances(InstanceFamilySpec(n=2, c=2)))
        f = RandomAssignment.from_seed("unused")
        with pytest.raises(LocalityViolation):
            derandomize_via_f(program, f, 0, family, problem)


class TestFindNormalForm:
    @pytest.mark.parametrize(
        "problem,radius",
        [
            (make_coloring(3), 0),
            (make_coloring(2), 0),
            (make_mis(), 0),
            (make_mis(), 1),
        ],
        ids=["coloring3-T0", "coloring2-T0", "mis-T0", "mis-T1"],
    )
    def test_n2_searches_match_naive_oracle(self, problem, radius):
        spec = InstanceFamilySpec(n=2)
        outcome = find_normal_form(
            SearchConfig(problem=problem, family=spec, radius=radius)
        )
        assert outcome.found
        oracle = naive_lex_first_table(problem, list(enumerate_instances(spec)), radius)
        assert dict(outcome.table.entries) == oracle

    def test_component_wise_problem_matches_naive_oracle(self):
        problem = one_leader_problem()
        spec = InstanceFamilySpec(n=2)
        outcome = find_normal_form(SearchConfig(problem=problem, family=spec, radius=1))
        assert outcome.found
        oracle = naive_lex_first_table(problem, list(enumerate_instances(spec)), 1)
        assert dict(outcome.table.entries) == oracle

    def test_mis_n2_radius1(self):
        outcome = find_normal_form(
            SearchConfig(problem=make_mis(), family=InstanceFamilySpec(n=2), radius=1)
        )
        assert outcome.found
        for inst in enumerate_instances(InstanceFamilySpec(n=2)):
            assert verify(make_mis(), inst, run_normal_form(outcome.table, inst)).valid

    def test_unsolvable_instance_yields_unsat_witness(self):
        # single-label coloring fails on any edge
        outcome = find_normal_form(
            SearchConfig(problem=make_coloring(1), family=InstanceFamilySpec(n=2), radius=0)
        )
        assert outcome.unsat and not outcome.found
        assert outcome.witness is not None
        assert outcome.witness.graph.edges == ((0, 1),)
        assert brute_force_solve(make_coloring(1), outcome.witness) is None

    def test_unsat_without_witness_reports_exhausted_search(self):
        problem = copy_neighbor_parity_problem()
        outcome = find_normal_form(
            SearchConfig(problem=problem, family=InstanceFamilySpec(n=2, c=2), radius=0)
        )
        assert outcome.unsat
        assert outcome.witness is None
        assert outcome.exhausted

    def test_budget_exhaustion_is_distinct_from_unsat(self):
        with pytest.raises(SearchBudgetExceeded):
            find_normal_form(
                SearchConfig(
                    problem=make_coloring(2),
                    family=InstanceFamilySpec(n=3),
                    radius=2,
                    node_budget=5,
                )
            )

    def test_realized_views_suffice_for_the_whole_family(self):
        spec = InstanceFamilySpec(n=2, input_alphabet=("a", "b"))
        outcome = find_normal_form(
            SearchConfig(problem=make_mis(), family=spec, radius=1)
        )
        table_keys = {k for k, _ in outcome.table.entries}
        for inst in enumerate_instances(spec):
            for v in range(inst.n):
                assert canonicalize(extract_ball(inst, v, 1)) in table_keys

    def test_pipeline_agreement_on_n2_coloring(self):
        problem = make_coloring(2)
        spec = InstanceFamilySpec(n=2)
        family = list(enumerate_instances(spec))
        via_f = derandomize_via_f(
            first_bit_label_program(("A", "B")),
            RandomAssignment.from_vectors({1: (0,), 2: (1,)}),
            0,
            family,
            problem,
        )
        searched = find_normal_form(
            SearchConfig(problem=problem, family=spec, radius=0)
        ).table
        for table in (via_f, searched):
            assert all(
                verify(problem, inst, run_normal_form(table, inst)).valid
                for inst in family
            )


def search_finds_a_table(problem, inst):
    """Whether the table search over ``inst`` alone finds a table, at a
    radius that covers the instance: every node then sees its own
    identifier at the centre of its view, so a table is any labeling."""
    index = compile_family(problem, [inst], inst.n)
    assert len(index.realized) == inst.n
    return _cdcl(index.constraints, problem.output_alphabet, [None] * inst.n)[0]


class TestFamilyIndex:
    @pytest.mark.parametrize("name", ["mis", "coloring:2", "coloring:3"])
    def test_search_over_one_instance_agrees_with_brute_force(self, name):
        problem = problem_by_name(name)
        for n in (1, 2, 3):
            for idx, inst in enumerate(enumerate_instances(InstanceFamilySpec(n=n))):
                expected = brute_force_solve(problem, inst) is not None
                assert search_finds_a_table(problem, inst) == expected, (name, n, idx)

    def test_search_over_one_random_instance_agrees_with_brute_force(self):
        rng = random.Random(20230512)
        problems = [problem_by_name(name) for name in ("mis", "coloring:2", "coloring:3")]
        outcomes = set()
        for draw in range(200):
            problem = problems[draw % len(problems)]
            inst = random_instance(rng, max_n=6)
            expected = brute_force_solve(problem, inst) is not None
            assert search_finds_a_table(problem, inst) == expected, (problem.name, inst)
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_checks_are_deduplicated_and_triggered_once(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=3)))
        index = compile_family(make_mis(), family, 1)
        # 48 instances x 3 nodes = 144 per-node checks, 21 of them distinct
        assert len(index.constraints) == 21
        # the table search labels the realized views in key order, so each
        # check fires at its largest member; in reverse order, at its smallest
        for order, fire_at in [
            (range(len(index.realized)), max),
            (range(len(index.realized) - 1, -1, -1), min),
        ]:
            triggers = _triggers(order, index.constraints)
            triggered = [con for group in triggers for con in group]
            assert sorted(map(id, triggered)) == sorted(map(id, index.constraints))
            for con in index.constraints:
                assert con in triggers[order.index(fire_at(con.members))]

    @pytest.mark.parametrize(
        "name, n, radius",
        [
            (name, n, radius)
            for name in ("mis", "coloring:2", "coloring:3", "coloring:4")
            for n in (1, 2, 3)
            for radius in (0, 1, 2)
        ]
        + [("coloring:4", 4, 1)],
    )
    def test_index_agrees_with_table_lookup_and_compiled_checks(self, name, n, radius):
        """Each node's realized view is the key a table looks the node up
        under, and the constraints are the compiled checks with their
        members moved to realized-view positions, each pair once."""
        problem = problem_by_name(name)
        family = list(enumerate_instances(InstanceFamilySpec(n=n)))
        index = compile_family(problem, family, radius)
        # a table that outputs each realized view's position
        alphabet = [str(p) for p in range(len(index.realized))]
        table = NormalFormTable.from_mapping(
            radius, alphabet, dict(zip(index.realized, alphabet))
        )
        for inst, positions in zip(family, index.node_pos):
            assert run_normal_form(table, inst) == {
                v: str(p) for v, p in enumerate(positions)
            }
        expected = {
            (check.key, check.ball, tuple(positions[m] for m in check.members))
            for compiled, positions in zip(
                compile_checks(problem, family), index.node_pos
            )
            for check in compiled.checks
        }
        constraints = [(c.key, c.ball, c.members) for c in index.constraints]
        assert len(set(constraints)) == len(constraints)
        assert set(constraints) == expected

    @pytest.mark.parametrize("radius, per_node", [(0, 2), (1, 1), (2, 2)])
    def test_each_ball_is_extracted_once_at_the_problem_radius(
        self, monkeypatch, radius, per_node
    ):
        """At the problem's radius a node's view is also its verification
        ball, so it is extracted (and keyed) once; elsewhere the view and
        the ball are extracted apart."""
        calls = Counter()
        real = extract_ball

        def counting(inst, v, r):
            calls[r] += 1
            return real(inst, v, r)

        for module in ("derandlab.derandomize", "derandlab.problems"):
            monkeypatch.setattr(importlib.import_module(module), "extract_ball", counting)
        family = list(enumerate_instances(InstanceFamilySpec(n=3)))
        compile_family(make_mis(), family, radius)
        nodes = sum(inst.n for inst in family)
        assert sum(calls.values()) == per_node * nodes
        assert calls[radius] == nodes

    def test_component_wise_problem_gets_one_constraint_per_instance(self):
        family = list(enumerate_instances(InstanceFamilySpec(n=3)))
        index = compile_family(one_leader_problem(), family, 1)
        assert len(index.constraints) == len(family)
        assert all(con.key is None for con in index.constraints)

    def test_memo_evaluates_each_label_tuple_once(self):
        outcome = find_normal_form(
            SearchConfig(problem=make_coloring(2), family=InstanceFamilySpec(n=3), radius=2)
        )
        stats = outcome.stats
        # the conflict-learning search's own counters
        assert (stats.placements, stats.conflicts) == (87, 15)
        assert stats.constraints == 21
        # the witness scan solves with solve_lex_first, which reads no memo
        # of the index, so predicate_calls are the search's memo misses alone
        assert (stats.checks, stats.predicate_calls) == (93, 35)


class TestDerandomizeReport:
    def test_mis_n3_report(self):
        config = SearchConfig(
            problem=make_mis(), family=InstanceFamilySpec(n=3), radius=2
        )
        report, outcome = derandomize(config, t_rand=lambda size: size.bit_length())
        assert outcome.found
        assert report["claimed_size"] == 512
        assert report["family_bound"] == 216
        assert report["family_size"] == 48
        assert report["verified_count"] == 48
        assert report["table_size"] == outcome.table.size
        assert report["t_rand_at_claimed_size"] == 10  # bit_length of 512
        assert report["found"] and report["pipeline"] == "table-search"

    def test_unsat_report_embeds_witness(self):
        config = SearchConfig(
            problem=make_coloring(1), family=InstanceFamilySpec(n=2), radius=0
        )
        report, outcome = derandomize(config)
        assert not report["found"]
        assert report["unsat_witness"]["edges"] == [[0, 1]]
        assert report["verified_count"] is None

    def test_reports_replay_byte_identically_without_timing(self):
        config = SearchConfig(
            problem=make_mis(), family=InstanceFamilySpec(n=2), radius=1
        )
        first, second = (derandomize(config)[0] for _ in range(2))
        first.pop("timing")
        second.pop("timing")
        assert first == second

    def test_report_fields_in_order_with_lists_and_nested_timing(self):
        config = SearchConfig(
            problem=make_coloring(2), family=InstanceFamilySpec(n=2), radius=1
        )
        payload, outcome = derandomize(config)
        assert list(payload) == [
            "n", "c", "input_alphabet", "max_degree", "problem", "output_alphabet",
            "radius", "claimed_size", "family_bound", "bound_below_claimed",
            "bound_below_claimed_over_n", "family_size", "pipeline", "found",
            "table_size", "verified_count", "unsat_witness_index", "unsat_witness",
            "exhausted_search", "placements", "t_rand_at_claimed_size", "timing",
        ]
        assert payload["input_alphabet"] == ["x"]
        assert payload["output_alphabet"] == ["A", "B"]
        # one timer: the report's wall time is the sum of the search's phases
        assert payload["timing"] == {"wall_time_s": sum(outcome.phase_s.values())}
