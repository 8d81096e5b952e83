"""Differential gate: the exact evaluator against the tree walk it replaced.

``reference_tree_walk`` (in ``conftest``) is ``compute_success_exact`` as it
was before runs were merged into configurations, kept verbatim: one full run
per leaf of the joint read tree of an instance.  ``compute_success_exact``
must give equal ``Fraction``s on every randomized program of the tests and
of the built-ins, or raise the same exception type and text.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import (
    DIFFERENTIAL_CASES,
    differential_case,
    leading_ones_count_problem,
    reference_tree_walk,
    trial_colouring_program,
)
from derandlab import (
    DEFAULT_BIT_CAP,
    BitBudgetExceeded,
    InstanceFamilySpec,
    NodeProgram,
    SimulationError,
    StepResult,
    StreamExhausted,
    compile_checks,
    compute_success_exact,
    enumerate_instances,
    problem_by_name,
)
from derandlab.programs import RANDOMIZED_BUILTINS, leading_ones_program

FAMILIES = {
    n: list(enumerate_instances(InstanceFamilySpec(n=n))) for n in (1, 2, 3, 4)
}
SMALL_FAMILIES = FAMILIES[1] + FAMILIES[2] + FAMILIES[3]

# the problem each built-in is certified against, and an exact bit budget
BUILTIN_CASES = {
    "first-bit": ("coloring:2", 1),
    "two-bit": ("coloring:3", 2),
    "id-parity": ("coloring:2", 1),
}


def builtin_case(name):
    problem_name, bits = BUILTIN_CASES[name]
    problem = problem_by_name(problem_name)
    return RANDOMIZED_BUILTINS[name](problem.output_alphabet), problem, bits


def test_every_builtin_has_a_case():
    assert sorted(BUILTIN_CASES) == sorted(RANDOMIZED_BUILTINS)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_the_test_programs_match_the_tree_walk(name):
    program, problem, bits, claimed_n = differential_case(name)
    got = compute_success_exact(
        program, compile_checks(problem, SMALL_FAMILIES), bits, claimed_n
    )
    want = reference_tree_walk(program, problem, SMALL_FAMILIES, bits, claimed_n)
    assert got == want
    assert all(type(p) is type(q) for p, q in zip(got, want))


@pytest.mark.parametrize("claimed_n", [None, 512])
@pytest.mark.parametrize("name", sorted(BUILTIN_CASES))
def test_the_builtins_match_the_tree_walk(name, claimed_n):
    program, problem, bits = builtin_case(name)
    for budget in (bits, bits + 1):
        got = compute_success_exact(
            program, compile_checks(problem, SMALL_FAMILIES), budget, claimed_n
        )
        want = reference_tree_walk(program, problem, SMALL_FAMILIES, budget, claimed_n)
        assert got == want


@pytest.mark.parametrize("name", ["first-bit", "two-bit"])
def test_the_builtins_match_the_tree_walk_on_the_n4_family(name):
    program, problem, bits = builtin_case(name)
    family = FAMILIES[4]
    got = compute_success_exact(program, compile_checks(problem, family), bits, 1 << 16)
    assert got == reference_tree_walk(program, problem, family, bits, 1 << 16)
    assert len(set(got)) > 1


# -- merging across rounds -----------------------------------------------------


@pytest.mark.parametrize("phases, total", [(1, "231/16"), (2, "2541/512")])
def test_trial_colouring_matches_the_tree_walk(phases, total):
    problem = problem_by_name("coloring:3")
    program = trial_colouring_program(problem.output_alphabet, phases)
    family = FAMILIES[3]
    got = compute_success_exact(
        program, compile_checks(problem, family), 2 * phases, 512
    )
    assert got == reference_tree_walk(program, problem, family, 2 * phases, 512)
    assert str(sum(got)) == total


def test_trial_colouring_over_three_phases():
    """Three phases read up to six bits per node over seven rounds, too many
    read paths for the tree walk in a test; the total is pinned instead, and
    so is the step count (20,826 when each instance kept its own walks)."""
    problem = problem_by_name("coloring:3")
    program = trial_colouring_program(problem.output_alphabet, 3)
    steps = []
    step = program.step
    program = dataclasses.replace(program, step=lambda ctx: steps.append(1) or step(ctx))
    got = compute_success_exact(program, compile_checks(problem, FAMILIES[3]), 6, 512)
    assert str(sum(got)) == "14907/8192"
    assert len(steps) == 1575


# -- errors --------------------------------------------------------------------


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def greedy_program(k):
    """Reads ``k`` bits at once and outputs their parity."""

    def step(ctx):
        return StepResult(output="AB"[sum(ctx.bits.take(k)) % 2])

    return NodeProgram(f"greedy[{k}]", step, lambda _claimed: 0, ("A", "B"))


def impure_program():
    """Reads a bit on every other step it takes, counted across runs."""
    steps = [0]

    def step(ctx):
        steps[0] += 1
        bit = ctx.bits.next_bit() if steps[0] % 2 else 0
        return StepResult(output=("A", "B")[bit])

    return NodeProgram("impure", step, lambda _claimed: 0, ("A", "B"))


def unchecked_label_program():
    """Outputs ``"AZ"[bit]`` with no output alphabet of its own, so only the
    problem's verification sees a foreign label."""

    def step(ctx):
        return StepResult(output="AZ"[ctx.bits.next_bit()])

    return NodeProgram("unchecked-label", step, lambda _claimed: 0)


def never_halting_program():
    """Reads a bit every round and never outputs, over a bound of 1."""

    def step(ctx):
        return StepResult(state=ctx.bits.next_bit())

    return NodeProgram("never-halts", step, lambda _claimed: 1, ("A", "B"))


@pytest.mark.parametrize(
    "make, problem, family, bits, error",
    [
        # reading past the budget
        (
            leading_ones_program,
            leading_ones_count_problem(3),
            FAMILIES[2],
            2,
            StreamExhausted,
        ),
        (
            lambda: builtin_case("two-bit")[0],
            "coloring:3",
            FAMILIES[3],
            1,
            StreamExhausted,
        ),
        (lambda: greedy_program(3), "coloring:2", FAMILIES[2], 2, StreamExhausted),
        # the bit cap, below the budget
        (
            lambda: greedy_program(DEFAULT_BIT_CAP + 1),
            "coloring:2",
            FAMILIES[1],
            DEFAULT_BIT_CAP + 5,
            BitBudgetExceeded,
        ),
        # a step that reads a bit only on every other call
        (impure_program, "coloring:2", FAMILIES[1], 1, SimulationError),
        # a label outside the problem's alphabet: verify names the node
        (unchecked_label_program, "coloring:2", FAMILIES[2], 1, ValueError),
        (unchecked_label_program, "coloring:2", FAMILIES[3], 1, ValueError),
        # the round budget
        (never_halting_program, "coloring:2", FAMILIES[2], 2, SimulationError),
        (never_halting_program, "coloring:2", FAMILIES[3], 2, SimulationError),
    ],
    ids=[
        "leading-ones", "two-bit", "greedy", "bit-cap", "impure",
        "foreign-label-n2", "foreign-label-n3", "round-budget-n2", "round-budget-n3",
    ],
)
def test_errors_match_the_tree_walk(make, problem, family, bits, error):
    if isinstance(problem, str):
        problem = problem_by_name(problem)
    # a fresh program for each, so that impure steps count from zero
    want = raised(reference_tree_walk, make(), problem, family, bits)
    got = raised(compute_success_exact, make(), compile_checks(problem, family), bits)
    assert got == want
    assert want[0] is error


@pytest.mark.parametrize("n", [2, 3])
def test_runs_that_halt_on_some_paths_only_match_the_tree_walk(n):
    """A node halts with ``A`` on bit 1 in round 0 and otherwise waits and
    outputs ``B`` in round 1, so a configuration whose nodes could all
    continue has outcomes in which every node has halted."""

    def step(ctx):
        if ctx.round == 0 and ctx.bits.next_bit():
            return StepResult(output="A")
        return StepResult(output="B") if ctx.round else StepResult()

    program = NodeProgram("halt-on-one", step, lambda _claimed: 1, ("A", "B"))
    problem = problem_by_name("coloring:2")
    family = FAMILIES[n]
    got = compute_success_exact(program, compile_checks(problem, family), 1)
    assert got == reference_tree_walk(program, problem, family, 1)
    assert len(set(got)) > 1


def test_a_foreign_label_in_a_late_context_raises_like_the_tree_walk():
    """Identifier 3 first has degree 2 at node 0 of instance 22 of the n=3
    family, after its walks at node 2 of the earlier instances were stored;
    the error names that instance's node."""

    def step(ctx):
        if (ctx.identifier, ctx.degree) == (3, 2):
            return StepResult(output="Z")
        return StepResult(output="AB"[ctx.bits.next_bit()])

    program = NodeProgram("late-foreign", step, lambda _claimed: 0, ("A", "B"))
    problem = problem_by_name("coloring:2")
    want = raised(reference_tree_walk, program, problem, FAMILIES[3], 1)
    got = raised(
        compute_success_exact, program, compile_checks(problem, FAMILIES[3]), 1
    )
    assert got == want
    assert want == (SimulationError, "node 0 emitted label 'Z' outside the output alphabet")


def test_an_unhashable_state_raises_naming_the_program():
    def step(ctx):
        if ctx.round == 0:
            return StepResult(state=[ctx.bits.next_bit()])
        return StepResult(output="AB"[ctx.state[0]])

    program = NodeProgram("list-state", step, lambda _claimed: 1, ("A", "B"))
    problem = problem_by_name("coloring:2")
    with pytest.raises(SimulationError, match=r"program list-state .*hashable"):
        compute_success_exact(program, compile_checks(problem, FAMILIES[2]), 1)
    # the tree walk, which merges nothing, runs it
    assert len(reference_tree_walk(program, problem, FAMILIES[2], 1)) == 4


def test_an_unhashable_message_raises_naming_the_program():
    """The state is hashable and the message is not: the walk that sends the
    message raises, on the first instance with an edge."""

    def step(ctx):
        if ctx.round == 0:
            bit = ctx.bits.next_bit()
            return StepResult(send=[bit], state=bit)
        return StepResult(output="AB"[ctx.state])

    program = NodeProgram("list-message", step, lambda _claimed: 1, ("A", "B"))
    problem = problem_by_name("coloring:2")
    with pytest.raises(SimulationError, match=r"program list-message .*hashable"):
        compute_success_exact(program, compile_checks(problem, FAMILIES[2]), 1)
    assert len(reference_tree_walk(program, problem, FAMILIES[2], 1)) == 4
