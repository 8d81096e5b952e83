"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Stated runtime ceilings are asserted alongside the functional checks.

Known red: the strict union-bound certificate for the two-node first-bit
coloring demo.  Its exact per-instance failures are (0, 0, 1/2, 1/2), which
sum to exactly 1, so the strict below-one verdict cannot hold even though
good assignments exist (the union bound is not tight for this program: both
edge-labeled instances fail on exactly the same bit patterns).  The test
asserts the strict form anyway and is expected to fail; the rest of the
pipeline checks around it pass and live in a separate test.
"""

import random
import time

from conftest import ball_as_sets, naive_lex_first_table, oracle_ball, random_instance
from derandlab import (
    ConnectedRunConfig,
    Graph,
    InputInstance,
    InstanceFamilySpec,
    SearchConfig,
    assignment_is_good,
    brute_force_solve,
    certify_good_f,
    check_indistinguishability,
    compile_checks,
    compute_success_exact,
    count_bound,
    derandomize_via_f,
    enumerate_instances,
    estimate_success_mc,
    find_normal_form,
    iter_bounded_assignments,
    lift_to_claimed_size,
    make_coloring,
    make_mis,
    run_connected_aware,
    run_deterministic,
    run_normal_form,
    search_good_f,
    table_from_labeling,
    tabulate,
    verify,
    verify_locally,
)
from derandlab.graphs import canonicalize, extract_ball
from derandlab.programs import component_solver_program, first_bit_label_program
from derandlab.simulator import NormalFormTable


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_family_counts_and_size_lift():
    start = time.perf_counter()
    spec = InstanceFamilySpec(n=3, c=1, input_alphabet=("x",))
    family_size = sum(1 for _ in enumerate_instances(spec))
    bound = count_bound(spec)
    lift = lift_to_claimed_size(spec)
    elapsed = time.perf_counter() - start
    ok = (
        family_size == 48
        and bound == 216
        and lift.claimed_size == 512
        and lift.bound_below_claimed is True
        and lift.bound_below_claimed_over_n is False
        and elapsed < 1.0
    )
    _report(
        "family counts and claimed-size lift",
        ok,
        f"48 instances, bound 216, claimed 512, {elapsed:.3f}s",
    )


def test_ball_extraction_matches_definition_oracle():
    start = time.perf_counter()
    rng = random.Random(20240811)
    mismatches = 0
    instances = 0
    checks = 0
    while instances < 200:
        inst = random_instance(rng, max_n=8, alphabet=("a", "b"))
        instances += 1
        for v in range(inst.n):
            for radius in range(4):
                got = ball_as_sets(extract_ball(inst, v, radius))
                want = oracle_ball(inst, v, radius)
                checks += 1
                if got != want:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and instances >= 200 and elapsed < 30.0
    _report(
        "ball extraction vs definition oracle",
        ok,
        f"{checks} checks over {instances} instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_mis_table_search_verifies_on_the_full_family():
    start = time.perf_counter()
    config = SearchConfig(problem=make_mis(), family=InstanceFamilySpec(n=3), radius=2)
    outcome = find_normal_form(config)
    verified = 0
    family_size = 0
    if outcome.found:
        for inst in enumerate_instances(config.family):
            family_size += 1
            verified += verify(make_mis(), inst, run_normal_form(outcome.table, inst)).valid
    elapsed = time.perf_counter() - start
    ok = outcome.found and verified == family_size == 48 and elapsed < 60.0
    _report(
        "positive table search (independent-set, n=3, radius 2)",
        ok,
        f"verified {verified}/{family_size}, {elapsed:.2f}s",
    )


def test_two_coloring_search_is_unsat_with_triangle_witness():
    start = time.perf_counter()
    config = SearchConfig(
        problem=make_coloring(2), family=InstanceFamilySpec(n=3), radius=2
    )
    outcome = find_normal_form(config)
    elapsed = time.perf_counter() - start
    witness_is_triangle = (
        outcome.witness is not None
        and outcome.witness.graph.edges == ((0, 1), (0, 2), (1, 2))
    )
    witness_unsolvable = (
        outcome.witness is not None
        and brute_force_solve(make_coloring(2), outcome.witness) is None
    )
    ok = (
        outcome.unsat
        and not outcome.found
        and witness_is_triangle
        and witness_unsolvable
        and elapsed < 60.0
    )
    _report(
        "negative table search (2-coloring, n=3, radius 2)",
        ok,
        f"unsat with triangle witness, {elapsed:.2f}s",
    )


def test_table_search_equals_naive_enumeration_oracle():
    problem = make_coloring(3)
    spec = InstanceFamilySpec(n=2)
    family = list(enumerate_instances(spec))
    outcome = find_normal_form(SearchConfig(problem=problem, family=spec, radius=0))
    oracle = naive_lex_first_table(problem, family, 0)
    realized = len(outcome.table.entries)
    ok = (
        outcome.found
        and realized <= 6
        and len(problem.output_alphabet) <= 3
        and oracle is not None
        and dict(outcome.table.entries) == oracle
    )
    _report(
        "lexicographic search equals naive enumeration oracle",
        ok,
        f"{realized} realized views, tables identical",
    )


def _first_bit_setup():
    problem = make_coloring(2)
    family = list(enumerate_instances(InstanceFamilySpec(n=2)))
    program = first_bit_label_program(problem.output_alphabet)
    return problem, family, program


def test_first_bit_coloring_union_bound_certificate():
    # Strict certificate: per-instance failures must sum below one.  For this
    # demo the exact failures are (0, 0, 1/2, 1/2); the sum is exactly 1 and
    # the strict verdict is false, so this check fails by design.  See the
    # module docstring.
    problem, family, program = _first_bit_setup()
    probs = compute_success_exact(program, compile_checks(problem, family), bits=1)
    lift = lift_to_claimed_size(InstanceFamilySpec(n=2))
    certificate = certify_good_f(probs, lift.claimed_size)
    ok = certificate.total < 1 and certificate.verdict
    _report(
        "first-bit coloring union-bound certificate (strict)",
        ok,
        f"failures {[str(p) for p in probs]} sum to {certificate.total}",
    )


def test_first_bit_coloring_pipeline_agreement():
    problem, family, program = _first_bit_setup()

    good = search_good_f(program, compile_checks(problem, family), bits=1)
    good_found = good is not None and good.vectors == {1: (0,), 2: (1,)}
    good_count = sum(
        assignment_is_good(program, f, compile_checks(problem, family))[0]
        for f in iter_bounded_assignments([1, 2], 1)
    )

    table_via_f = derandomize_via_f(program, good, 0, family, problem)
    via_f_verified = sum(
        verify(problem, inst, run_normal_form(table_via_f, inst)).valid
        for inst in family
    )

    outcome = find_normal_form(
        SearchConfig(problem=problem, family=InstanceFamilySpec(n=2), radius=0)
    )
    search_verified = outcome.found and all(
        verify(problem, inst, run_normal_form(outcome.table, inst)).valid
        for inst in family
    )

    ok = (
        good_found
        and good_count == 2
        and via_f_verified == 4
        and search_verified
    )
    _report(
        "first-bit coloring pipeline agreement",
        ok,
        f"first good assignment 1->0, 2->1; {good_count}/4 good; "
        f"fixed-assignment table {via_f_verified}/4; direct search table valid",
    )


def test_tabulated_program_round_trip():
    problem = make_mis()
    spec = InstanceFamilySpec(n=3)
    family = list(enumerate_instances(spec))
    program = component_solver_program(problem, 2)
    table = tabulate(program, 2, family)
    agreements = 0
    comparisons = 0
    for inst in family:
        direct = run_deterministic(program, inst).outputs
        via_table = run_normal_form(table, inst)
        for v in range(inst.n):
            comparisons += 1
            agreements += direct[v] == via_table[v]
    ok = agreements == comparisons == 48 * 3
    _report(
        "tabulate and run round trip",
        ok,
        f"{agreements}/{comparisons} node outputs identical",
    )


def test_monte_carlo_tracks_exact_failure():
    problem, family, program = _first_bit_setup()
    exact = compute_success_exact(program, compile_checks(problem, family), bits=1)
    first = estimate_success_mc(
        program, compile_checks(problem, family), trials=10_000, seed=7
    )
    second = estimate_success_mc(
        program, compile_checks(problem, family), trials=10_000, seed=7
    )
    within = all(
        abs(float(est.failure) - float(x)) <= 3 * est.stderr
        for est, x in zip(first, exact)
    )
    replayed = [e.failure for e in first] == [e.failure for e in second]
    ok = within and replayed
    _report(
        "Monte-Carlo consistency",
        ok,
        f"estimates {[f'{float(e.failure):.4f}' for e in first]} vs exact "
        f"{[f'{float(x):.2f}' for x in exact]}, replays identically",
    )


def test_connected_runtime_paths_and_round_charges():
    problem = make_mis()
    outcome = find_normal_form(
        SearchConfig(problem=problem, family=InstanceFamilySpec(n=3), radius=1)
    )
    config = ConnectedRunConfig(problem, outcome.table)
    t = config.exploration_radius
    assert t == 2

    brute_runs = 0
    ok = outcome.found
    for inst in enumerate_instances(InstanceFamilySpec(n=3)):
        if not inst.graph.is_connected:
            continue
        result = run_connected_aware(config, inst)
        ok = (
            ok
            and result.path == "brute-force"
            and result.outputs == brute_force_solve(problem, inst)
            and result.rounds_charged <= 2 * t + outcome.table.radius
        )
        brute_runs += 1

    c8 = InputInstance(
        Graph(8, tuple((i, (i + 1) % 8) for i in range(8))),
        tuple(range(1, 9)),
        ("x",) * 8,
        1,
    )
    c8_table = table_from_labeling(
        c8, 1, brute_force_solve(problem, c8), problem.output_alphabet
    )
    c8_config = ConnectedRunConfig(problem, c8_table)
    c8_result = run_connected_aware(c8_config, c8)
    ok = (
        ok
        and brute_runs == 24
        and c8_result.path == "table"
        and verify_locally(problem, c8, c8_result.outputs).valid
        and c8_result.rounds_charged <= 2 * c8_config.exploration_radius + c8_table.radius
    )
    _report(
        "connected runtime paths and round charges",
        ok,
        f"{brute_runs} brute-force runs at n=3, table path on the 8-cycle, "
        f"all within 2t+T rounds",
    )


def test_extension_indistinguishability_sweep():
    rng = random.Random(551)
    passes = 0
    total = 0
    while total < 50:
        inst = random_instance(
            rng, max_n=5, edge_prob=0.45, connected=True, alphabet=("x",)
        )
        v = rng.randrange(inst.n)
        t = rng.randint(1, 3)
        if max(inst.graph.bfs_distances(v).values()) < t + 1:
            continue
        radius = rng.randint(0, max(0, t - 1))
        mapping = {
            canonicalize(extract_ball(inst, u, radius)): "A" for u in range(inst.n)
        }
        table = NormalFormTable.from_mapping(radius, ("A", "B"), mapping)
        target = inst.n + rng.randint(1, 3)
        total += 1
        passes += check_indistinguishability(inst, v, t, table, target)
    ok = passes == total == 50
    _report(
        "extension indistinguishability sweep",
        ok,
        f"{passes}/{total} configurations agree on keys and outputs",
    )
