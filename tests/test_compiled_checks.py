"""Compiled verification checks against the spec-level verifier.

Every compiled verdict must equal ``verify(...).valid``, and the probability
estimators that check runs against compiled checks must return exactly what
the old loop, which called ``verify`` on every run, returns.
"""

import dataclasses
import hashlib
import itertools
import random
import re
import types
from collections import Counter
from fractions import Fraction

import pytest

import conftest
from conftest import (
    DIFFERENTIAL_CASES,
    ReadPath,
    adaptive_two_round_program,
    claimed_size_program,
    copy_neighbor_parity_problem,
    differential_case,
    leading_ones_count_problem,
    one_leader_problem,
    random_instance,
    reference_tree_walk,
)
from derandlab import (
    DEFAULT_BIT_CAP,
    BitBudgetExceeded,
    BitReader,
    BitStream,
    InputClasses,
    InstanceFamilySpec,
    McEstimate,
    NodeContext,
    NodeProgram,
    RandomAssignment,
    SimulationError,
    StepResult,
    StreamExhausted,
    compile_checks,
    compute_success_exact,
    enumerate_instances,
    estimate_success_mc,
    extract_ball,
    lift_to_claimed_size,
    make_mis,
    problem_by_name,
    run_randomized,
    search_good_f,
    simulator,
    streams,
    verify,
)
from derandlab.programs import (
    first_bit_label_program,
    id_parity_label_program,
    leading_ones_program,
    two_bit_label_program,
)

SMALL_FAMILIES = [
    inst for n in (1, 2, 3) for inst in enumerate_instances(InstanceFamilySpec(n=n))
]


def problem_named(name):
    extra = {
        "one-leader": one_leader_problem,  # component-wise
        # its verdicts depend on identifiers, not only on the label tuple
        "copy-neighbor-parity": copy_neighbor_parity_problem,
    }
    return extra[name]() if name in extra else problem_by_name(name)


def all_labelings(problem, instance):
    for combo in itertools.product(problem.output_alphabet, repeat=instance.n):
        yield dict(enumerate(combo))


@pytest.mark.parametrize(
    "name", ["mis", "coloring:2", "coloring:3", "one-leader", "copy-neighbor-parity"]
)
def test_every_labeling_of_the_small_families(name):
    problem = problem_named(name)
    verdicts = set()
    for compiled in compile_checks(problem, SMALL_FAMILIES):
        for outputs in all_labelings(problem, compiled.instance):
            expected = verify(problem, compiled.instance, outputs).valid
            assert compiled.valid(outputs) == expected, (name, compiled.instance, outputs)
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_random_instances_and_labelings():
    rng = random.Random(20230513)
    names = ("mis", "coloring:2", "coloring:3", "one-leader", "copy-neighbor-parity")
    problems = [problem_named(name) for name in names]
    draws = {problem.name: [] for problem in problems}
    for draw in range(200):
        problem = problems[draw % len(problems)]
        draws[problem.name].append((problem, random_instance(rng, max_n=6)))
    verdicts = set()
    for cases in draws.values():
        problem = cases[0][0]
        # one call per problem, so the verdict memos are shared across draws
        compiled_all = compile_checks(problem, [inst for _, inst in cases])
        for (_, inst), compiled in zip(cases, compiled_all):
            for _ in range(5):
                outputs = {
                    v: rng.choice(problem.output_alphabet) for v in range(inst.n)
                }
                expected = verify(problem, inst, outputs).valid
                assert compiled.valid(outputs) == expected, (problem.name, inst, outputs)
                verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["mis", "one-leader"])
def test_labels_outside_the_alphabet_raise_like_verify(name):
    problem = problem_named(name)
    instance = SMALL_FAMILIES[-1]  # the n=3 triangle
    (compiled,) = compile_checks(problem, [instance])
    first, second = problem.output_alphabet
    # the first node fails its check, but the foreign label must still raise
    bad_labelings = [
        {0: second, 1: second, 2: "?"},
        {0: first, 1: first},  # not total
    ]
    for outputs in bad_labelings:
        with pytest.raises(ValueError) as expected:
            verify(problem, instance, outputs)
        with pytest.raises(ValueError) as got:
            compiled.valid(outputs)
        assert str(got.value) == str(expected.value)


def test_node_checks_follow_verify():
    family = list(enumerate_instances(InstanceFamilySpec(n=3)))
    problem = make_mis()
    for compiled in compile_checks(problem, family):
        inst = compiled.instance
        nodes = [check.members[0] for check in compiled.checks]
        assert nodes == sorted(range(inst.n), key=inst.identifier)
        for v, check in zip(nodes, compiled.checks):
            assert check.ball == extract_ball(inst, v, problem.radius)
            assert [inst.ids[m] for m in check.members] == list(check.ball.identifiers)


# Verbatim copies of the estimators as they were before runs were checked
# against compiled checks (each run is checked by ``verify``); only the
# per-trial stream helper is inlined, and the Monte-Carlo loop passes the
# claimed count and the bit cap on to its runs.


def reference_success_exact(program, problem, family, bits, claimed_n=None):
    failures = []
    for instance in family:
        n = instance.n
        bad = 0
        total = 0
        for flat in itertools.product((0, 1), repeat=bits * n):
            vectors = {
                instance.ids[v]: flat[v * bits : (v + 1) * bits] for v in range(n)
            }
            result = run_randomized(
                program,
                instance,
                claimed_n,
                streams=RandomAssignment.from_vectors(vectors),
            )
            total += 1
            if not verify(problem, instance, result.outputs).valid:
                bad += 1
        failures.append(Fraction(bad, total))
    return failures


def reference_success_mc(
    program, problem, family, trials, seed, claimed_n=None, bit_cap=DEFAULT_BIT_CAP
):
    estimates = []
    for idx, instance in enumerate(family):
        bad = 0
        for k in range(trials):
            assignment = RandomAssignment(
                lambda ident, idx=idx, k=k: BitStream.keyed(seed, idx, k, ident),
                None,
                f"mc:{seed}:{idx}:{k}",
            )
            result = run_randomized(
                program, instance, claimed_n, streams=assignment, bit_cap=bit_cap
            )
            if not verify(problem, instance, result.outputs).valid:
                bad += 1
        p = Fraction(bad, trials)
        stderr = (float(p) * (1.0 - float(p)) / trials) ** 0.5
        estimates.append(McEstimate(p, stderr))
    return estimates


def test_exact_probabilities_match_the_verify_loop():
    problem = problem_by_name("coloring:3")
    program = two_bit_label_program(problem.output_alphabet)
    family = list(enumerate_instances(InstanceFamilySpec(n=3)))
    got = compute_success_exact(program, compile_checks(problem, family), bits=2)
    assert got == reference_success_exact(program, problem, family, bits=2)
    assert len(set(got)) > 1


def test_monte_carlo_estimates_match_the_verify_loop():
    problem = problem_by_name("coloring:2")
    program = first_bit_label_program(problem.output_alphabet)
    family = list(enumerate_instances(InstanceFamilySpec(n=2)))
    got = estimate_success_mc(
        program, compile_checks(problem, family), trials=500, seed=7
    )
    assert got == reference_success_mc(program, problem, family, trials=500, seed=7)
    assert any(e.failure for e in got)


@pytest.mark.parametrize(
    "factory, bits",
    [
        # reads one bit, fewer than the budget
        (first_bit_label_program, 1),
        (first_bit_label_program, 2),
        # reads no bits at all
        (id_parity_label_program, 0),
        (id_parity_label_program, 1),
    ],
)
def test_exact_probabilities_match_the_verify_loop_below_the_budget(factory, bits):
    problem = problem_by_name("coloring:2")
    program = factory(problem.output_alphabet)
    family = list(enumerate_instances(InstanceFamilySpec(n=3)))
    got = compute_success_exact(program, compile_checks(problem, family), bits=bits)
    assert got == reference_success_exact(program, problem, family, bits=bits)


def test_exact_probabilities_past_the_budget_raise_like_the_verify_loop():
    problem = problem_by_name("coloring:3")
    program = two_bit_label_program(problem.output_alphabet)
    family = list(enumerate_instances(InstanceFamilySpec(n=3)))
    with pytest.raises(StreamExhausted) as expected:
        reference_success_exact(program, problem, family, bits=1)
    with pytest.raises(StreamExhausted) as got:
        compute_success_exact(program, compile_checks(problem, family), bits=1)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "key", [(7,), ("seed",), ("seed", 3, 11), (7, "a|b", 2.5, "x"), ()]
)
def test_seeded_assignments_read_the_keyed_streams(key):
    """``from_seed(*key)`` joins the key once, yet identifier ``i`` still reads
    ``BitStream.keyed(*key, i)``: the SHA-256 blocks of the string
    ``"<key parts and i joined by |>#<block index>"``."""
    assignment = RandomAssignment.from_seed(*key)
    for ident in (1, 2, 37):
        got = assignment.stream_for(ident)
        want = BitStream.keyed(*key, ident)
        text = "|".join(map(str, (*key, ident)))
        blocks = b"".join(
            hashlib.sha256(f"{text}#{block}".encode()).digest() for block in (0, 1)
        )
        bits = [got.bit(i) for i in range(512)]
        assert bits == [want.bit(i) for i in range(512)]
        assert bits == [blocks[i // 8] >> (7 - i % 8) & 1 for i in range(512)]
        reader = BitReader(got)
        assert reader.take(512) == bits


def test_streams_reject_a_negative_index():
    with pytest.raises(IndexError, match="negative bit index"):
        BitStream.keyed("s").bit(-1)


def test_estimators_and_the_search_pass_the_claimed_count_on():
    spec = InstanceFamilySpec(n=2)
    claimed = lift_to_claimed_size(spec).claimed_size
    assert claimed == 16
    problem = problem_by_name("coloring:2")
    program = claimed_size_program(problem.output_alphabet)
    family = list(enumerate_instances(spec))
    ids = list(spec.id_space)

    told = compute_success_exact(program, compile_checks(problem, family), 1, claimed)
    assert told == reference_success_exact(program, problem, family, 1, claimed)
    assert told == [0] * len(family)
    untold = compute_success_exact(program, compile_checks(problem, family), 1)
    assert untold == reference_success_exact(program, problem, family, 1)
    assert any(untold)

    mc = estimate_success_mc(
        program, compile_checks(problem, family), 50, seed=3, claimed_n=claimed
    )
    assert [e.failure for e in mc] == [0] * len(family)
    assert any(
        e.failure
        for e in estimate_success_mc(program, compile_checks(problem, family), 50, 3)
    )

    found = search_good_f(
        program, compile_checks(problem, family), 1, ids, claimed_n=claimed
    )
    assert found.vectors == {1: (0,), 2: (0,)}
    found = search_good_f(program, compile_checks(problem, family), 1, ids)
    assert found.vectors == {1: (0,), 2: (1,)}


# The estimators simulate each distinct read path once.  Pinned run counts,
# and differential tests against the reference loops above.

N2_FAMILY = list(enumerate_instances(InstanceFamilySpec(n=2)))
N3_FAMILY = list(enumerate_instances(InstanceFamilySpec(n=3)))


@pytest.fixture()
def runs(monkeypatch):
    """Counts the simulator's runs: every simulation goes through
    ``run_randomized``, the reference tree walk's too."""
    count = [0]
    real = simulator.run_randomized

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(simulator, "run_randomized", counting)
    monkeypatch.setattr(conftest, "run_randomized", counting)
    return count


def counted_steps(program):
    """The program with a step that counts its calls, and the count."""
    count = [0]
    step = program.step

    def counting(ctx):
        count[0] += 1
        return step(ctx)

    return dataclasses.replace(program, step=counting), count


# steps of the evaluator, where the reference tree walk makes want_runs runs.
# The evaluator steps once per distinct node context and read position of
# the call; the n=3 family has 9 contexts, (identifier, degree) pairs.
WANT_STEPS = {
    # reads no bits: one step per context
    id_parity_label_program: 9,
    # reads one bit: two steps per context, one per value of its bit
    first_bit_label_program: 18,
}


@pytest.mark.parametrize(
    "factory, bits, want_runs",
    [
        # reads no bits: one run per instance, not (2**2)**3
        (id_parity_label_program, 2, 48),
        # reads one bit per node: 2**3 runs per instance, not (2**2)**3
        (first_bit_label_program, 2, 384),
    ],
)
def test_exact_runs_one_run_per_read_path(runs, factory, bits, want_runs):
    problem = problem_by_name("coloring:2")
    program, steps = counted_steps(factory(problem.output_alphabet))
    got = compute_success_exact(program, compile_checks(problem, N3_FAMILY), bits=bits)
    assert steps[0] == WANT_STEPS[factory]
    assert runs[0] == 0
    assert got == reference_success_exact(program, problem, N3_FAMILY, bits=bits)
    runs[0] = 0
    assert reference_tree_walk(program, problem, N3_FAMILY, bits=bits) == got
    assert runs[0] == want_runs


def test_exact_cost_does_not_grow_with_an_unread_budget(runs):
    problem = problem_by_name("coloring:2")
    program, steps = counted_steps(first_bit_label_program(problem.output_alphabet))
    one = compute_success_exact(program, compile_checks(problem, N2_FAMILY), bits=1)
    assert steps[0] == 8
    steps[0] = 0
    forty = compute_success_exact(program, compile_checks(problem, N2_FAMILY), bits=40)
    assert steps[0] == 8
    assert forty == one == [0, 0, Fraction(1, 2), Fraction(1, 2)]
    for bits in (1, 40):
        runs[0] = 0
        assert reference_tree_walk(program, problem, N2_FAMILY, bits=bits) == one
        assert runs[0] == 16


def test_exact_steps_each_context_of_the_n4_family_once():
    """The 1,536 instances of the n=4 family show 16 contexts, (identifier,
    degree) pairs, and first-bit steps twice in each: 32 steps, where
    stepping each instance's nodes on their own took 12,288."""
    problem = problem_by_name("coloring:2")
    program, steps = counted_steps(first_bit_label_program(problem.output_alphabet))
    family = list(enumerate_instances(InstanceFamilySpec(n=4)))
    compute_success_exact(
        program, compile_checks(problem, family), bits=1, claimed_n=1 << 16
    )
    assert steps[0] == 32


def test_the_walk_memo_lives_for_one_call():
    problem = problem_by_name("coloring:2")
    program, steps = counted_steps(first_bit_label_program(problem.output_alphabet))
    counts = []
    for _ in range(2):
        steps[0] = 0
        compute_success_exact(program, compile_checks(problem, N3_FAMILY), bits=2)
        counts.append(steps[0])
    assert counts == [18, 18]


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared with the reference, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "factory, problem_name, family, calls",
    [
        # two-bit reads two bits: a budget of 1 raises, 2 and 3 do not
        (
            two_bit_label_program,
            "coloring:3",
            N3_FAMILY,
            [(2, None), (1, None), (3, 512), (2, 512), (1, 512)],
        ),
        # told 16 nodes it reads no bits; told 2 it reads one
        (
            claimed_size_program,
            "coloring:2",
            N2_FAMILY,
            [(1, 16), (1, None), (0, 16), (0, None), (1, 16)],
        ),
    ],
    ids=["bits", "claimed-n"],
)
def test_back_to_back_calls_match_the_tree_walk(factory, problem_name, family, calls):
    """One program object through calls with other budgets and claimed
    counts: no call sees the walks of another."""
    problem = problem_by_name(problem_name)
    program = factory(problem.output_alphabet)
    for bits, claimed_n in calls:
        got = outcome(
            compute_success_exact,
            program,
            compile_checks(problem, family),
            bits,
            claimed_n,
        )
        want = outcome(reference_tree_walk, program, problem, family, bits, claimed_n)
        assert got == want, (bits, claimed_n)


def test_monte_carlo_simulates_each_read_path_once(runs):
    problem = problem_by_name("coloring:2")
    program = first_bit_label_program(problem.output_alphabet)
    got = estimate_success_mc(
        program, compile_checks(problem, N2_FAMILY), trials=10_000, seed=7
    )
    # two nodes reading one bit each: at most 4 paths in each of the 2
    # distinct inputs, whichever of an input's copies meets them
    assert runs[0] <= 8
    assert sum(e.failure for e in got) == Fraction(9887, 10000)


def test_monte_carlo_simulates_each_read_path_once_per_input(runs):
    """The n=3 family lists 8 inputs 6 times each; three nodes reading two
    bits each have 64 read paths per input."""
    problem = problem_by_name("coloring:3")
    program = two_bit_label_program(problem.output_alphabet)
    estimate_success_mc(
        program, compile_checks(problem, N3_FAMILY), 200, seed=1, claimed_n=512
    )
    assert runs[0] <= 8 * 64 == 512


@pytest.fixture()
def digests(monkeypatch):
    """Counts the SHA-256 digests of stream blocks (:func:`block_digest`)."""
    count = [0]
    sha256 = hashlib.sha256

    def counting(data):
        count[0] += 1
        return sha256(data)

    monkeypatch.setattr(streams, "hashlib", types.SimpleNamespace(sha256=counting))
    return count


def test_monte_carlo_hashes_each_stream_block_once_per_trial(runs, digests):
    """A trial that misses the trie runs on the streams its walk read, so no
    trial hashes a block twice: at most one block per node of each instance
    in each of the 200 trials, as the n=3 family has 48 instances of 3
    nodes and two-bit reads two bits of one block.  A test whose branches
    end in one verdict is collapsed into it, so a trial that reaches it
    hashes no more: 21,076 digests where every trial hashed all 28,800."""
    problem = problem_by_name("coloring:3")
    program = two_bit_label_program(problem.output_alphabet)
    estimate_success_mc(
        program, compile_checks(problem, N3_FAMILY), 200, seed=1, claimed_n=512
    )
    assert digests[0] == 21_076
    assert digests[0] <= 200 * sum(inst.n for inst in N3_FAMILY) == 28_800
    assert runs[0] == 512


def test_monte_carlo_skips_digests_that_cannot_change_a_verdict(runs, digests):
    """first-bit on the n=2 family: an edge instance fails exactly when its
    two bits agree, so each of its trials hashes both streams, 40,000 in
    all, while the no-edge input never fails, and once its trie knows all
    four read paths its trials hash nothing: 14 more, not another 40,000."""
    problem = problem_by_name("coloring:2")
    program = first_bit_label_program(problem.output_alphabet)
    got = estimate_success_mc(
        program, compile_checks(problem, N2_FAMILY), trials=10_000, seed=7
    )
    assert digests[0] == 40_014
    assert runs[0] <= 8
    assert sum(e.failure for e in got) == Fraction(9887, 10000)


def test_monte_carlo_trials_past_a_collapsed_root_hash_nothing(monkeypatch, digests):
    """The two no-edge copies of the n=2 family share one trie, whose four
    read paths all end in success.  After the fourth run the whole trie is
    that verdict, and no later trial computes a digest."""
    problem = problem_by_name("coloring:2")
    program = first_bit_label_program(problem.output_alphabet)
    no_edge = [instance for instance in N2_FAMILY if not instance.graph.edges]
    assert len(no_edge) == 2
    after_run = []  # digests so far, as each run returns
    real = simulator.run_randomized

    def logging(*args, **kwargs):
        result = real(*args, **kwargs)
        after_run.append(digests[0])
        return result

    monkeypatch.setattr(simulator, "run_randomized", logging)
    got = estimate_success_mc(
        program, compile_checks(problem, no_edge), trials=1000, seed=7
    )
    assert [e.failure for e in got] == [0, 0]
    assert len(after_run) == 4
    assert digests[0] == after_run[-1]
    # a walk of every trial would hash 2 * 1000 * 2 blocks
    assert digests[0] < 40


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_exact_walk_matches_the_reference_loop(name):
    program, problem, bits, claimed_n = differential_case(name)
    family = SMALL_FAMILIES
    got = compute_success_exact(
        program, compile_checks(problem, family), bits, claimed_n
    )
    assert got == reference_success_exact(program, problem, family, bits, claimed_n)
    assert all(type(p) is Fraction for p in got)


@pytest.mark.parametrize("seed", [1, "walk", 2023])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_monte_carlo_trie_matches_the_reference_loop(name, seed):
    program, problem, _, claimed_n = differential_case(name)
    family = N2_FAMILY + N3_FAMILY[::6]
    got = estimate_success_mc(
        program, compile_checks(problem, family), 40, seed, claimed_n=claimed_n
    )
    want = reference_success_mc(program, problem, family, 40, seed, claimed_n)
    assert got == want
    assert all(type(e) is McEstimate for e in got)


def rare_foreign_label_program(alphabet) -> NodeProgram:
    """Reads seven bits and outputs the label of the first, except that
    seven ones give a label outside the alphabet, at 1 node in 128."""
    labels = tuple(alphabet)

    def step(ctx: NodeContext) -> StepResult:
        bits = ctx.bits.take(7)
        return StepResult(output="?" if all(bits) else labels[bits[0]])

    return NodeProgram("rare-foreign-label", step, lambda _claimed: 0, labels)


def whole_class_case(name):
    """(program, problem, claimed_n, bit_cap) of a differential case, or of
    one of two programs that raise in some trial, with texts that name the
    node or the trial's instance."""
    if name == "rare-foreign-label":
        problem = problem_by_name("coloring:2")
        program = rare_foreign_label_program(problem.output_alphabet)
        return program, problem, None, DEFAULT_BIT_CAP
    if name == "leading-ones-past-the-cap":
        return leading_ones_program(), leading_ones_count_problem(8), None, 8
    program, problem, _, claimed_n = differential_case(name)
    return program, problem, claimed_n, DEFAULT_BIT_CAP


def shuffled_copies():
    """40 draws from the n=3 family, in random order: some copies repeat,
    some are missing, and the first copy of an input need not come first."""
    rng = random.Random(19)
    return [rng.choice(N3_FAMILY) for _ in range(40)]


@pytest.mark.parametrize("seed", [1, "walk"])
@pytest.mark.parametrize("family", ["n3", "shuffled"])
@pytest.mark.parametrize(
    "name",
    sorted(DIFFERENTIAL_CASES) + ["leading-ones-past-the-cap", "rare-foreign-label"],
)
def test_monte_carlo_trie_matches_the_reference_loop_over_whole_classes(
    name, family, seed
):
    """Each input's trie serves all of its copies, whose nodes step, and so
    read, in other orders; the adaptive program's reads also differ between
    nodes.  Estimates, and the error of the first trial that raises, are the
    reference loop's, which runs every trial of every instance."""
    program, problem, claimed_n, cap = whole_class_case(name)
    family = N3_FAMILY if family == "n3" else shuffled_copies()
    checks = compile_checks(problem, family)
    got = outcome(estimate_success_mc, program, checks, 40, seed, cap, claimed_n)
    want = outcome(
        reference_success_mc, program, problem, family, 40, seed, claimed_n, cap
    )
    assert got == want


def test_the_shuffled_copies_repeat_miss_and_reorder():
    family = shuffled_copies()
    indices = [N3_FAMILY.index(instance) for instance in family]
    assert len(set(indices)) < len(indices)
    assert indices != sorted(indices)
    counts = Counter(k for k, _ in InputClasses.of_instances(family).copies)
    assert len(counts) == 8 and min(counts.values()) < 6 < max(counts.values())


@pytest.mark.parametrize("seed, idx", [(1, 2), ("walk", 1)])
def test_the_whole_class_cap_error_is_met_on_a_copy(seed, idx):
    """In the leading-ones case on the n=3 family above, the first trial
    past the cap is one of a copy, not of its input's first copy, and its
    stream key names that copy's index."""
    program, problem, claimed_n, cap = whole_class_case("leading-ones-past-the-cap")
    assert idx not in [i for i, _ in InputClasses.of_instances(N3_FAMILY).firsts]
    with pytest.raises(BitBudgetExceeded, match=re.escape(f"keyed:{seed}|{idx}|")):
        estimate_success_mc(
            program, compile_checks(problem, N3_FAMILY), 40, seed, cap, claimed_n
        )


def test_the_adaptive_program_reads_one_or_two_bits():
    """The differential cases include read paths of different lengths."""
    problem = problem_by_name("coloring:2")
    program = adaptive_two_round_program(problem.output_alphabet)
    edge = N2_FAMILY[-1]
    assert edge.graph.edges
    a, b = edge.ids  # nodes step in node order
    for vectors, reads in [
        ({a: (0, 1), b: (1, 0)}, [(a, 0), (b, 0)]),
        ({a: (1, 0), b: (1, 1)}, [(a, 0), (b, 0), (a, 1), (b, 1)]),
    ]:
        read = ReadPath(RandomAssignment.from_vectors(vectors), edge.ids)
        run_randomized(program, edge, streams=read.assignment)
        assert list(read.reads) == reads
        assert read.bits == [vectors[ident][index] for ident, index in reads]


def test_read_paths_log_each_bit_once_and_replay_a_prefix():
    source = RandomAssignment.from_vectors({1: (1, 0, 1), 2: (0, 1, 1)})
    read = ReadPath(source, [1, 2])
    one, two = (read.assignment.stream_for(ident) for ident in (1, 2))
    assert [one.bit(2), two.bit(0), one.bit(2), one.bit(0)] == [1, 0, 1, 1]
    assert list(read.reads) == [(1, 2), (2, 0), (1, 0)]
    assert read.bits == [1, 0, 1]
    assert repr(one) == "BitStream(recorded:101)"
    # the first two reads replay a prefix, whatever the source holds
    read.bits[:] = [0, 1]
    read.replay()
    assert [two.bit(1), one.bit(1), one.bit(0)] == [0, 1, 1]
    assert list(read.reads) == [(2, 1), (1, 1), (1, 0)]
    assert read.bits == [0, 1, 1]
    with pytest.raises(StreamExhausted):
        one.bit(3)


@pytest.mark.parametrize("seed", [1, 5, "cap"])
def test_monte_carlo_past_the_cap_raises_like_the_reference_loop(seed):
    """The message names the stream, so the key (seed, instance, trial,
    identifier) of the first trial past the cap must agree too."""
    cap = 4
    program = leading_ones_program()
    problem = leading_ones_count_problem(cap)
    with pytest.raises(BitBudgetExceeded) as expected:
        reference_success_mc(program, problem, N2_FAMILY, 200, seed, bit_cap=cap)
    with pytest.raises(BitBudgetExceeded) as got:
        estimate_success_mc(
            program, compile_checks(problem, N2_FAMILY), 200, seed, bit_cap=cap
        )
    assert str(got.value) == str(expected.value)
    assert "keyed:" in str(got.value)


def test_exact_walk_past_the_budget_raises_like_the_reference_loop():
    program = leading_ones_program()
    problem = leading_ones_count_problem(3)
    with pytest.raises(StreamExhausted) as expected:
        reference_success_exact(program, problem, N2_FAMILY, bits=2)
    with pytest.raises(StreamExhausted) as got:
        compute_success_exact(program, compile_checks(problem, N2_FAMILY), bits=2)
    assert str(got.value) == str(expected.value)


def impure_program():
    """Reads a bit on every other step it takes, counted across runs."""
    steps = [0]

    def step(ctx):
        steps[0] += 1
        bit = ctx.bits.next_bit() if steps[0] % 2 else 0
        return StepResult(output=("A", "B")[bit])

    return NodeProgram("impure", step, lambda _claimed: 0, ("A", "B"))


def test_the_estimators_reject_a_program_whose_reads_change_on_replay():
    problem = problem_by_name("coloring:2")
    single = SMALL_FAMILIES[0]
    assert single.n == 1
    with pytest.raises(SimulationError, match="impure"):
        compute_success_exact(
            impure_program(), compile_checks(problem, [single]), bits=1
        )
    with pytest.raises(SimulationError, match="impure"):
        estimate_success_mc(
            impure_program(), compile_checks(problem, [single]), trials=50, seed=1
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_monte_carlo_catches_impurity_replayed_on_a_copy(seed):
    """In each run of ``impure_program`` on two nodes only node 0 reads a
    bit, so each n=2 instance alone always reads the same bit, and no trial
    of it raises.  A copy's node 0 has the other identifier: with one trial
    per instance, the only replay of a path is on a copy, whose run then
    never reads the bit the path asks for.  Where the path goes next then
    depends on the seeds: to the first copy's verdict (seed 1) or to a
    branch no run has taken yet (seeds 2 and 3)."""
    problem = problem_by_name("coloring:2")
    for instance in N2_FAMILY:
        checks = compile_checks(problem, [instance])
        estimate_success_mc(impure_program(), checks, trials=50, seed=seed)
    with pytest.raises(SimulationError, match="impure"):
        estimate_success_mc(
            impure_program(), compile_checks(problem, N2_FAMILY), trials=1, seed=seed
        )
