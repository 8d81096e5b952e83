"""Compiled verification checks against the spec-level verifier.

Every compiled verdict must equal ``verify(...).valid``, and the probability
estimators that check runs against compiled checks must return exactly what
the old loop, which called ``verify`` on every run, returns.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    claimed_size_program,
    copy_neighbor_parity_problem,
    one_leader_problem,
    random_instance,
)
from derandlab import (
    BitReader,
    BitStream,
    InstanceFamilySpec,
    McEstimate,
    RandomAssignment,
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
    verify,
)
from derandlab.programs import (
    first_bit_label_program,
    id_parity_label_program,
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
# per-trial stream helper is inlined.


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


def reference_success_mc(program, problem, family, trials, seed):
    estimates = []
    for idx, instance in enumerate(family):
        bad = 0
        for k in range(trials):
            assignment = RandomAssignment(
                lambda ident, idx=idx, k=k: BitStream.keyed(seed, idx, k, ident),
                None,
                f"mc:{seed}:{idx}:{k}",
            )
            result = run_randomized(program, instance, streams=assignment)
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
    got = compute_success_exact(program, problem, family, bits=2)
    assert got == reference_success_exact(program, problem, family, bits=2)
    assert len(set(got)) > 1


def test_monte_carlo_estimates_match_the_verify_loop():
    problem = problem_by_name("coloring:2")
    program = first_bit_label_program(problem.output_alphabet)
    family = list(enumerate_instances(InstanceFamilySpec(n=2)))
    got = estimate_success_mc(program, problem, family, trials=500, seed=7)
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
    got = compute_success_exact(program, problem, family, bits=bits)
    assert got == reference_success_exact(program, problem, family, bits=bits)


def test_exact_probabilities_past_the_budget_raise_like_the_verify_loop():
    problem = problem_by_name("coloring:3")
    program = two_bit_label_program(problem.output_alphabet)
    family = list(enumerate_instances(InstanceFamilySpec(n=3)))
    with pytest.raises(StreamExhausted) as expected:
        reference_success_exact(program, problem, family, bits=1)
    with pytest.raises(StreamExhausted) as got:
        compute_success_exact(program, problem, family, bits=1)
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


def test_readers_reject_a_negative_start():
    with pytest.raises(IndexError, match="negative bit index"):
        BitReader(BitStream.keyed("s"), start=-1)
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

    told = compute_success_exact(program, problem, family, 1, claimed)
    assert told == reference_success_exact(program, problem, family, 1, claimed)
    assert told == [0] * len(family)
    untold = compute_success_exact(program, problem, family, 1)
    assert untold == reference_success_exact(program, problem, family, 1)
    assert any(untold)

    mc = estimate_success_mc(program, problem, family, 50, seed=3, claimed_n=claimed)
    assert [e.failure for e in mc] == [0] * len(family)
    assert any(e.failure for e in estimate_success_mc(program, problem, family, 50, 3))

    found = search_good_f(program, problem, family, 1, ids, claimed_n=claimed)
    assert found.vectors == {1: (0,), 2: (0,)}
    found = search_good_f(program, problem, family, 1, ids)
    assert found.vectors == {1: (0,), 2: (1,)}
