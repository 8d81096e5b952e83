"""Differential gate: work over distinct inputs against work over every instance.

The table search, ``certify``, ``tabulate`` and ``verify`` run each distinct
input once, on its first copy (``distinct_inputs``).  Each reference here is
the same pass run over every instance of the family, as it ran before the
quotient; both must give the same tables, Fractions, assignments, witnesses,
error types and error texts.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import (
    DIFFERENTIAL_CASES,
    copy_neighbor_parity_problem,
    one_leader_problem,
)
from derandlab import (
    AssignmentNotGood,
    IncompleteTableError,
    InstanceFamilySpec,
    LocalityViolation,
    RandomAssignment,
    SearchConfig,
    canonicalize,
    compile_checks,
    compile_family,
    compute_success_exact,
    derandomize_via_f,
    distinct_inputs,
    dump_instances,
    enumerate_instances,
    extract_ball,
    find_normal_form,
    fix_randomness,
    lift_to_claimed_size,
    load_table,
    problem_by_name,
    run_deterministic,
    run_normal_form,
    search_good_f,
    tabulate,
    verify,
)
from derandlab import cli
from derandlab.problems import _cdcl
from derandlab.programs import (
    DETERMINISTIC_BUILTINS,
    RANDOMIZED_BUILTINS,
    component_solver_program,
    id_sum_parity_program,
)


def raised(call):
    """``("ok", value)``, or ``("raised", type, text)`` if ``call`` raises."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raised", type(exc), str(exc))


# -- the table search ---------------------------------------------------------


def per_instance_search(config: SearchConfig) -> dict:
    """The table search compiled, scanned and verified over every instance."""
    problem = config.problem
    instances = list(enumerate_instances(config.family))
    index = compile_family(problem, instances, config.radius)
    labels = [None] * len(index.realized)
    found, placements, checks, conflicts = _cdcl(
        index.constraints, problem.output_alphabet, labels, config.node_budget
    )
    witness = None if found else next(
        (i for i in range(len(instances)) if not index.solvable(i)), None
    )
    table = dict(zip(index.realized, labels)) if found else None
    if found:
        for inst in instances:
            outputs = {
                v: table[canonicalize(extract_ball(inst, v, config.radius))]
                for v in range(inst.n)
            }
            assert verify(problem, inst, outputs).valid
    return {
        "table": table,
        "unsat": not found,
        "witness_index": witness,
        "witness": None if witness is None else instances[witness],
        "exhausted": not found and witness is None,
        "placements": placements,
        "conflicts": conflicts,
        "checks": checks,
        "constraints": len(index.constraints),
        "predicate_calls": index.predicate_calls,
        "family_size": len(instances),
    }


SEARCH_CASES = [
    (name, n, radius)
    for name in ("mis", "coloring:2", "coloring:3", "coloring:4")
    for n in (1, 2, 3)
    for radius in (0, 1, 2)
]
COMPONENT_WISE = {"one-leader": one_leader_problem}
EXTRA_PROBLEMS = {
    "one-leader": one_leader_problem,
    "copy-neighbor-parity": copy_neighbor_parity_problem,
}
EXTRA_CASES = [
    (name, n, c, radius)
    for name in EXTRA_PROBLEMS
    for n, c in ((1, 1), (2, 1), (3, 1), (2, 2))
    for radius in (0, 1, 2)
]


def assert_same_search(config: SearchConfig, component_wise: bool) -> None:
    outcome = find_normal_form(config)
    expected = per_instance_search(config)
    stats = outcome.stats
    table = dict(outcome.table.entries) if outcome.found else None
    assert table == expected["table"]
    assert outcome.unsat == expected["unsat"]
    assert outcome.witness_index == expected["witness_index"]
    assert outcome.witness == expected["witness"]
    assert outcome.exhausted == expected["exhausted"]
    assert (stats.placements, stats.conflicts) == (
        expected["placements"],
        expected["conflicts"],
    )
    assert stats.family_size == expected["family_size"]
    if outcome.found:
        assert outcome.verified_count == expected["family_size"]
    # the witness scan solves fewer instances, so it may miss the memo less
    assert stats.predicate_calls <= expected["predicate_calls"]
    if component_wise:
        # one whole-labeling constraint per instance: the copies' constraints,
        # redundant with their first copy's, are no longer built or evaluated
        distinct = len(distinct_inputs(list(enumerate_instances(config.family)))[0])
        assert stats.constraints == distinct
        assert stats.checks <= expected["checks"]
    else:
        assert stats.constraints == expected["constraints"]
        assert stats.checks == expected["checks"]
        if outcome.found:
            assert stats.predicate_calls == expected["predicate_calls"]


@pytest.mark.parametrize("name, n, radius", SEARCH_CASES)
def test_search_over_distinct_inputs_matches_every_instance(name, n, radius):
    config = SearchConfig(problem_by_name(name), InstanceFamilySpec(n=n), radius)
    assert_same_search(config, component_wise=False)


@pytest.mark.parametrize("name, n, c, radius", EXTRA_CASES)
def test_search_on_other_problems_matches_every_instance(name, n, c, radius):
    config = SearchConfig(EXTRA_PROBLEMS[name](), InstanceFamilySpec(n=n, c=c), radius)
    assert_same_search(config, component_wise=name in COMPONENT_WISE)


@pytest.mark.parametrize("name", ["mis", "coloring:2"])
@pytest.mark.parametrize("n, radius", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_search_with_input_labels_matches_every_instance(name, n, radius):
    spec = InstanceFamilySpec(n=n, input_alphabet=("a", "b"))
    assert_same_search(SearchConfig(problem_by_name(name), spec, radius), component_wise=False)


# -- certify, exact mode and --find-f -----------------------------------------

CERTIFY_CASES = [
    (name, factory, problem, bits)
    for name, (factory, problem, bits, _claimed) in DIFFERENTIAL_CASES.items()
] + [
    # every built-in, at a budget that suffices and at one that raises
    (name, RANDOMIZED_BUILTINS[name], problem, bits)
    for name, problem, enough in (
        ("first-bit", "coloring:2", 1),
        ("two-bit", "coloring:3", 2),
        ("id-parity", "coloring:2", 1),
    )
    for bits in (enough - 1, enough)
]


def per_instance_certify(factory, problem_name: str, n: int, bits: int):
    """Exact failure Fractions and the first good assignment over every
    instance, or the first error; the claimed size is the CLI's."""
    problem = problem_by_name(problem_name)
    spec = InstanceFamilySpec(n=n)
    family = list(enumerate_instances(spec))
    program = factory(problem.output_alphabet)
    claimed_n = lift_to_claimed_size(spec).claimed_size

    def run():
        checks = list(compile_checks(problem, family))
        probs = compute_success_exact(program, checks, bits, claimed_n)
        found = search_good_f(program, checks, bits, list(spec.id_space), claimed_n)
        good_f = None if found is None else {
            str(k): list(v) for k, v in sorted(found.vectors.items())
        }
        return [str(p) for p in probs], good_f

    return raised(run)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "name, factory, problem, bits",
    CERTIFY_CASES,
    ids=[f"{case[0]}-bits{case[3]}" for case in CERTIFY_CASES],
)
def test_certify_over_distinct_inputs_matches_every_instance(
    tmp_path, monkeypatch, capsys, name, factory, problem, bits, n
):
    monkeypatch.setitem(RANDOMIZED_BUILTINS, name, factory)
    out = tmp_path / "cert.json"
    argv = [
        "certify", "--problem", problem, "--n", str(n), "--program", name,
        "--bits", str(bits), "--find-f", "--out", str(out),
    ]
    outcome = raised(lambda: cli.main(argv))
    expected = per_instance_certify(factory, problem, n, bits)
    err = capsys.readouterr().err
    if expected[0] == "ok":
        assert outcome == ("ok", 0)
        payload = json.loads(out.read_text())
        probs, good_f = expected[1]
        certificate = payload["certificate"]
        assert certificate["failure_probs"] == probs
        assert payload["good_f"] == good_f
        family = list(enumerate_instances(InstanceFamilySpec(n=n)))
        representatives, _ = distinct_inputs(family)
        assert certificate["distinct_inputs"] == len(representatives)
        assert certificate["distinct_total"] == str(
            sum(Fraction(probs[i]) for i in representatives)
        )
    elif issubclass(expected[1], cli._FAILURES):
        # an error the CLI maps to an exit code: the same text on one line
        assert outcome == ("ok", cli.EXIT_BAD_INPUT)
        assert err == f"error: {expected[2]}\n"
    else:
        assert outcome == expected


def test_some_certify_cases_raise():
    # the differential above covers errors only if some case raises
    outcomes = {
        per_instance_certify(factory, problem, 2, bits)[0]
        for _name, factory, problem, bits in CERTIFY_CASES
    }
    assert outcomes == {"ok", "raised"}


@pytest.mark.parametrize(
    "name, problem, bits",
    [("first-bit", "coloring:2", 1), ("two-bit", "coloring:3", 2), ("id-parity", "coloring:2", 1)],
)
def test_mc_find_f_over_distinct_inputs_matches_every_instance(tmp_path, name, problem, bits):
    expected = per_instance_certify(RANDOMIZED_BUILTINS[name], problem, 3, bits)
    out = tmp_path / "cert.json"
    argv = [
        "certify", "--problem", problem, "--n", "3", "--program", name,
        "--mode", "mc", "--trials", "3", "--seed", "5", "--bits", str(bits),
        "--find-f", "--out", str(out),
    ]
    assert cli.main(argv) == 0
    payload = json.loads(out.read_text())
    assert len(payload["certificate"]["failure_probs"]) == 48
    assert payload["good_f"] == expected[1][1]


# -- tabulate -----------------------------------------------------------------


def per_instance_tabulate(program, radius, family) -> dict[str, str]:
    """The tabulation loop over every instance."""
    entries: dict[str, str] = {}
    origin: dict[str, tuple[int, int, str]] = {}
    for idx, instance in enumerate(family):
        result = run_deterministic(program, instance)
        for v in range(instance.n):
            key = canonicalize(extract_ball(instance, v, radius))
            out = result.outputs[v]
            if key in entries:
                if entries[key] != out:
                    raise LocalityViolation(key, origin[key], (idx, v, out))
            else:
                entries[key] = out
                origin[key] = (idx, v, out)
    return entries


def fixed_first_bit():
    factory = RANDOMIZED_BUILTINS["first-bit"]
    f = RandomAssignment.from_vectors({i: (i % 2,) for i in range(1, 10)})
    return fix_randomness(factory(("A", "B")), f)


TABULATE_CASES = [
    ("parity", DETERMINISTIC_BUILTINS["parity"], 0, 3, 1),
    ("degree", DETERMINISTIC_BUILTINS["degree"], 1, 3, 1),
    ("component-solver", lambda: component_solver_program(problem_by_name("mis"), 2), 2, 3, 1),
    ("component-solver-short", lambda: component_solver_program(problem_by_name("mis"), 1), 1, 3, 1),
    ("fixed-first-bit", fixed_first_bit, 0, 3, 1),
    ("id-sum-parity", lambda: id_sum_parity_program(1), 1, 3, 1),
    ("id-sum-parity-too-short", lambda: id_sum_parity_program(1), 0, 2, 2),
    ("id-sum-parity-n3-too-short", lambda: id_sum_parity_program(2), 1, 3, 2),
]


@pytest.mark.parametrize(
    "label, factory, radius, n, c", TABULATE_CASES, ids=[c[0] for c in TABULATE_CASES]
)
def test_tabulate_over_distinct_inputs_matches_every_instance(label, factory, radius, n, c):
    family = list(enumerate_instances(InstanceFamilySpec(n=n, c=c)))
    program = factory()
    outcome = raised(lambda: dict(tabulate(program, radius, family).entries))
    expected = raised(lambda: per_instance_tabulate(program, radius, family))
    if expected[0] == "ok":
        expected = ("ok", dict(sorted(expected[1].items())))
    assert outcome == expected


def per_instance_via_f(program, assignment, radius, family, problem):
    """``derandomize_via_f`` tabulating and verifying every instance."""
    fixed = fix_randomness(program, assignment)
    entries = per_instance_tabulate(fixed, radius, family)
    for idx, instance in enumerate(family):
        outputs = {
            v: entries[canonicalize(extract_ball(instance, v, radius))]
            for v in range(instance.n)
        }
        if not verify(problem, instance, outputs).valid:
            raise AssignmentNotGood(idx, instance)
    return dict(sorted(entries.items()))


VIA_F_CASES = {
    "first-bit": (RANDOMIZED_BUILTINS["first-bit"], 0, InstanceFamilySpec(n=3)),
    "id-parity": (RANDOMIZED_BUILTINS["id-parity"], 1, InstanceFamilySpec(n=3)),
    # a 1-round gather tabulated at radius 0: a locality violation
    "id-sum-parity": (lambda _alphabet: id_sum_parity_program(1), 0, InstanceFamilySpec(n=2, c=2)),
}


@pytest.mark.parametrize("name", sorted(VIA_F_CASES))
def test_derandomize_via_f_over_distinct_inputs_matches_every_instance(name):
    factory, radius, spec = VIA_F_CASES[name]
    problem = problem_by_name("coloring:2")
    program = factory(problem.output_alphabet)
    family = list(enumerate_instances(spec))
    outcomes = set()
    for vectors in itertools.product((0, 1), repeat=len(spec.id_space)):
        f = RandomAssignment.from_vectors(
            {i: (bit,) for i, bit in zip(spec.id_space, vectors)}
        )
        got = raised(
            lambda: dict(derandomize_via_f(program, f, radius, family, problem).entries)
        )
        assert got == raised(lambda: per_instance_via_f(program, f, radius, family, problem))
        outcomes.add(got[0] if got[0] == "ok" else got[1])
    assert outcomes - {"ok"}  # some assignment fails, so errors are compared


def test_a_locality_violation_is_reported_at_the_same_nodes():
    family = list(enumerate_instances(InstanceFamilySpec(n=3, c=2)))
    program = id_sum_parity_program(2)
    with pytest.raises(LocalityViolation) as quotiented:
        tabulate(program, 1, family)
    with pytest.raises(LocalityViolation) as reference:
        per_instance_tabulate(program, 1, family)
    assert (quotiented.value.first, quotiented.value.second) == (
        reference.value.first,
        reference.value.second,
    )
    assert str(quotiented.value) == str(reference.value)


# -- verify -------------------------------------------------------------------


def per_instance_verify(problem, table, instances) -> tuple[int, dict | None]:
    """``(passed, witness)`` of the verification loop over every instance."""
    for idx, instance in enumerate(instances):
        try:
            outputs = run_normal_form(table, instance)
        except IncompleteTableError as exc:
            return idx, {"instance": idx, "error": str(exc)}
        result = verify(problem, instance, outputs)
        if not result.valid:
            return idx, {
                "instance": idx,
                "witness_node": result.witness_node,
                "witness_component": result.witness_component,
            }
    return len(instances), None


def damaged_tables(tmp_path):
    """The mis T=2 table of the n=3 family, and copies with flipped and with
    missing entries near the end of the key order."""
    problem = problem_by_name("mis")
    table = find_normal_form(SearchConfig(problem, InstanceFamilySpec(n=3), 2)).table
    obj = table.to_jsonable()
    flipped = json.loads(json.dumps(obj))
    for entry in flipped["entries"][-6:-4]:
        entry["out"] = "IN" if entry["out"] == "OUT" else "OUT"
    missing = json.loads(json.dumps(obj))
    missing["entries"] = missing["entries"][:-3]
    paths = {}
    for name, content in (("whole", obj), ("flipped", flipped), ("missing", missing)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content))
    return paths


@pytest.mark.parametrize("kind", ["whole", "flipped", "missing"])
@pytest.mark.parametrize("source", ["family", "shuffled-file"])
def test_verify_over_distinct_inputs_matches_every_instance(
    tmp_path, capsys, kind, source
):
    problem = problem_by_name("mis")
    path = damaged_tables(tmp_path)[kind]
    family = list(enumerate_instances(InstanceFamilySpec(n=3)))
    argv = ["verify", "--problem", "mis", "--table", str(path)]
    if source == "family":
        instances = family
        argv += ["--n", "3"]
    else:
        # an instance file need not be closed under renaming, and may repeat
        instances = family[::2] + family[::7]
        random.Random(1).shuffle(instances)
        instance_file = tmp_path / "instances.jsonl"
        instance_file.write_text(dump_instances(instances))
        argv += ["--instances", str(instance_file)]
    out = tmp_path / "verify.json"
    code = cli.main(argv + ["--out", str(out)])
    passed, witness = per_instance_verify(problem, load_table(path), instances)
    payload = json.loads(out.read_text())
    assert (payload["passed"], payload["total"], payload["witness"]) == (
        passed,
        len(instances),
        witness,
    )
    err = capsys.readouterr().err
    if witness is None:
        assert code == cli.EXIT_OK
        assert err == f"verified {passed}/{len(instances)}\n"
    else:
        assert code == cli.EXIT_VERIFY_FAILED
        assert err == f"verification failed: {witness}\n"
        if kind != "whole":
            assert 0 < passed < len(instances)  # the table fails part-way

