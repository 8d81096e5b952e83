"""Differential gate: work over distinct inputs against work over every instance.

The table search, ``certify``, ``tabulate``, ``verify``, ``simulate`` and
``connected-run`` run each distinct input once, on its first copy
(``InputClasses``; the CLI passes over a ``--n`` family find the first
copies without listing the family, through ``InputClasses.of_spec``).  Each
reference here is the same pass run over every instance of the family, as it
ran before the quotient; both must give the same tables, Fractions,
assignments, witnesses, output files, error types and error texts.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from conftest import (
    DIFFERENTIAL_CASES,
    copy_neighbor_parity_problem,
    one_leader_problem,
)
from derandlab import (
    AssignmentNotGood,
    ConnectedRunConfig,
    IncompleteTableError,
    InputClasses,
    InstanceFamilySpec,
    LocalityViolation,
    RandomAssignment,
    SearchConfig,
    UnsolvableInstance,
    brute_force_solve,
    canonicalize,
    compile_checks,
    compile_family,
    compute_success_exact,
    derandomize_via_f,
    dump_instances,
    enumerate_instances,
    extract_ball,
    find_normal_form,
    fix_randomness,
    lift_to_claimed_size,
    load_instances,
    load_table,
    problem_by_name,
    run_connected_aware,
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


# The families the CLI gates run: the spec's keyword arguments, and the
# options that select the same family on the command line.
FAMILIES = {
    "family": ({}, []),
    "c2": ({"c": 2}, ["--c", "2"]),
    "max-degree": ({"max_degree": 1}, ["--max-degree", "1"]),
    "labels": ({"input_alphabet": ("a", "b")}, ["--input-alphabet", "a,b"]),
    "isolated": ({"max_degree": 0}, ["--max-degree", "0"]),
}


def family_of(n: int, source: str) -> tuple[InstanceFamilySpec, list[str]]:
    """The n-node family of ``source`` and its command-line options."""
    kwargs, options = FAMILIES[source]
    return InstanceFamilySpec(n=n, **kwargs), ["--n", str(n), *options]


# -- the table search ---------------------------------------------------------


def per_instance_search(config: SearchConfig) -> dict:
    """The table search compiled, scanned and verified over every instance;
    the witness is the first instance :func:`brute_force_solve` cannot label,
    so the reference depends on neither of the product's solvers."""
    problem = config.problem
    instances = list(enumerate_instances(config.family))
    index = compile_family(problem, instances, config.radius)
    labels = [None] * len(index.realized)
    found, placements, checks, conflicts = _cdcl(
        index.constraints, problem.output_alphabet, labels, config.node_budget
    )
    witness = None if found else next(
        (i for i, inst in enumerate(instances) if brute_force_solve(problem, inst) is None),
        None,
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
    if component_wise:
        # one whole-labeling constraint per instance: the copies' constraints,
        # redundant with their first copy's, are no longer built or evaluated
        family = list(enumerate_instances(config.family))
        distinct = len(InputClasses.of_instances(family).firsts)
        assert stats.constraints == distinct
        assert stats.checks <= expected["checks"]
        assert stats.predicate_calls <= expected["predicate_calls"]
    else:
        assert stats.constraints == expected["constraints"]
        assert stats.checks == expected["checks"]
        # the witness scan reads no memo, so these are the search's alone
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


def per_instance_certify(factory, problem_name: str, spec: InstanceFamilySpec, bits: int):
    """Exact failure Fractions and the first good assignment over every
    instance, or the first error; the claimed size is the CLI's."""
    problem = problem_by_name(problem_name)
    family = list(enumerate_instances(spec))
    program = factory(problem.output_alphabet)
    claimed_n = lift_to_claimed_size(spec).claimed_size

    def run():
        checks = list(compile_checks(problem, family))
        probs = compute_success_exact(program, checks, bits, claimed_n)
        found = search_good_f(program, checks, bits, claimed_n)
        good_f = None if found is None else {
            str(k): list(v) for k, v in sorted(found.vectors.items())
        }
        return [str(p) for p in probs], good_f

    return raised(run)


CERTIFY_FAMILIES = [
    (1, "family"), (2, "family"), (3, "family"), (2, "c2"), (3, "max-degree"), (3, "labels")
]


@pytest.mark.parametrize(
    "n, source",
    CERTIFY_FAMILIES,
    ids=[str(n) if source == "family" else f"{n}-{source}" for n, source in CERTIFY_FAMILIES],
)
@pytest.mark.parametrize(
    "name, factory, problem, bits",
    CERTIFY_CASES,
    ids=[f"{case[0]}-bits{case[3]}" for case in CERTIFY_CASES],
)
def test_certify_over_distinct_inputs_matches_every_instance(
    tmp_path, monkeypatch, capsys, name, factory, problem, bits, n, source
):
    monkeypatch.setitem(RANDOMIZED_BUILTINS, name, factory)
    spec, family_args = family_of(n, source)
    out = tmp_path / "cert.json"
    argv = [
        "certify", "--problem", problem, *family_args, "--program", name,
        "--bits", str(bits), "--find-f", "--out", str(out),
    ]
    outcome = raised(lambda: cli.main(argv))
    expected = per_instance_certify(factory, problem, spec, bits)
    err = capsys.readouterr().err
    if expected[0] == "ok":
        assert outcome == ("ok", 0)
        payload = json.loads(out.read_text())
        probs, good_f = expected[1]
        certificate = payload["certificate"]
        assert certificate["failure_probs"] == probs
        assert payload["good_f"] == good_f
        classes = InputClasses.of_instances(list(enumerate_instances(spec)))
        representatives = [i for i, _ in classes.firsts]
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
        per_instance_certify(factory, problem, InstanceFamilySpec(n=2), bits)[0]
        for _name, factory, problem, bits in CERTIFY_CASES
    }
    assert outcomes == {"ok", "raised"}


@pytest.mark.parametrize(
    "name, problem, bits",
    [("first-bit", "coloring:2", 1), ("two-bit", "coloring:3", 2), ("id-parity", "coloring:2", 1)],
)
def test_mc_find_f_over_distinct_inputs_matches_every_instance(tmp_path, name, problem, bits):
    expected = per_instance_certify(RANDOMIZED_BUILTINS[name], problem, InstanceFamilySpec(n=3), bits)
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


def shuffled_with_repeats(family: list) -> list:
    """What an instance file could hold: two thirds of ``family``, a quarter
    of those twice, in shuffled order."""
    rng = random.Random(len(family))
    chosen = rng.sample(family, 2 * len(family) // 3)
    chosen += chosen[: len(chosen) // 4]
    rng.shuffle(chosen)
    return chosen


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
    for listed in (family, shuffled_with_repeats(family)):
        outcome = raised(lambda: dict(tabulate(program, radius, listed).entries))
        expected = raised(lambda: per_instance_tabulate(program, radius, listed))
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
    for vectors, listed in itertools.product(
        itertools.product((0, 1), repeat=len(spec.id_space)),
        (family, shuffled_with_repeats(family)),
    ):
        f = RandomAssignment.from_vectors(
            {i: (bit,) for i, bit in zip(spec.id_space, vectors)}
        )
        got = raised(
            lambda: dict(derandomize_via_f(program, f, radius, listed, problem).entries)
        )
        assert got == raised(lambda: per_instance_via_f(program, f, radius, listed, problem))
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


@functools.lru_cache(maxsize=None)
def mis_table_text(spec: InstanceFamilySpec) -> str:
    config = SearchConfig(problem_by_name("mis"), spec, 2)
    return json.dumps(find_normal_form(config).table.to_jsonable())


def damaged_tables(tmp_path, spec: InstanceFamilySpec):
    """The mis T=2 table of the family, and copies with flipped and with
    missing entries near the end of the key order."""
    obj = json.loads(mis_table_text(spec))
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
@pytest.mark.parametrize("source", ["family", "shuffled-file", "c2", "max-degree", "labels"])
def test_verify_over_distinct_inputs_matches_every_instance(
    tmp_path, capsys, kind, source
):
    problem = problem_by_name("mis")
    spec, family_args = family_of(3, "family" if source == "shuffled-file" else source)
    path = damaged_tables(tmp_path, spec)[kind]
    family = list(enumerate_instances(spec))
    argv = ["verify", "--problem", "mis", "--table", str(path)]
    if source != "shuffled-file":
        instances = family
        argv += family_args
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
            # the table fails part-way, except that the max-degree family's
            # table has 9 entries and its first instance reads a damaged one
            assert passed < len(instances)
            assert passed > 0 or source == "max-degree"



# -- simulate and connected-run -----------------------------------------------


def per_instance_simulate(instances, table=None, program=None, claimed_n=None, trace=False) -> str:
    """The ``simulate`` output of a loop over every instance."""
    lines = []
    for idx, instance in enumerate(instances):
        if table is not None:
            outputs = run_normal_form(table, instance)
            row = {"index": idx, "outputs": {str(v): o for v, o in sorted(outputs.items())}}
        else:
            result = run_deterministic(program, instance, claimed_n=claimed_n, trace=trace)
            row = {
                "index": idx,
                "outputs": {str(v): o for v, o in sorted(result.outputs.items())},
                "rounds": result.rounds,
            }
            if trace:
                row["trace"] = [list(r) for r in result.trace]
        lines.append(json.dumps(row, sort_keys=True) + "\n")
    return "".join(lines)


def per_instance_connected_run(problem, table, instances, from_file: bool) -> tuple[list, int]:
    """``(runs, failures)`` of the ``connected-run`` loop over every instance."""
    config = ConnectedRunConfig(problem, table)
    rows, failures = [], 0
    for idx, instance in enumerate(instances):
        if not instance.graph.is_connected:
            if from_file:
                raise ValueError(f"instance {idx} is disconnected")
            continue
        try:
            result = run_connected_aware(config, instance)
        except UnsolvableInstance as exc:
            raise UnsolvableInstance(f"instance {idx}: {exc}") from None
        ok = verify(problem, instance, result.outputs).valid
        failures += not ok
        rows.append(
            {
                "index": idx,
                "path": result.path,
                "rounds_charged": result.rounds_charged,
                "valid": ok,
                "outputs": {str(v): o for v, o in sorted(result.outputs.items())},
            }
        )
    return rows, failures


EXIT_FOR = {
    IncompleteTableError: cli.EXIT_VERIFY_FAILED,
    UnsolvableInstance: cli.EXIT_UNSAT,
    ValueError: cli.EXIT_BAD_INPUT,
}


def assert_same_run(argv, out, expected, capsys) -> None:
    """``expected`` is ``("ok", (file text, exit code))`` or ``raised``'s
    triple; the CLI must write the same bytes, or print the same one line."""
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    if expected[0] == "ok":
        text, expected_code = expected[1]
        assert (code, err) == (expected_code, "")
        assert out.read_bytes() == text.encode()
    else:
        _, kind, message = expected
        assert (code, err) == (EXIT_FOR[kind], f"error: {message}\n")
        assert not out.exists()


def expected_connected_run(argv, problem, table, instances, from_file):
    def run():
        rows, failures = per_instance_connected_run(problem, table, instances, from_file)
        manifest = cli._manifest(cli.build_parser().parse_args(argv))
        payload = {"manifest": manifest, "runs": rows, "failures": failures}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return text, cli.EXIT_VERIFY_FAILED if failures else cli.EXIT_OK

    return raised(run)


def lookup_instances(tmp_path, n: int, source: str) -> tuple[list, list[str]]:
    """An n-node family of :data:`FAMILIES`, or a shuffled file of the plain
    family with repeats and missing copies (``shuffled-connected``: its
    connected instances only)."""
    if source in FAMILIES:
        spec, family_args = family_of(n, source)
        return list(enumerate_instances(spec)), family_args
    family = list(enumerate_instances(InstanceFamilySpec(n=n)))
    instances = family[::3] + family[::7]
    random.Random(n).shuffle(instances)
    if source == "shuffled-connected":
        instances = [instance for instance in instances if instance.graph.is_connected]
    path = tmp_path / f"{source}.jsonl"
    path.write_text(dump_instances(instances))
    return instances, ["--instances", str(path)]


LOOKUP_TABLES = {
    "mis-n4-T2": ("mis", 4, 2),
    "coloring2-n2-T1": ("coloring:2", 2, 1),
    "coloring3-n3-T1": ("coloring:3", 3, 1),
    "coloring4-n4-T0": ("coloring:4", 4, 0),
}


@functools.lru_cache(maxsize=None)
def lookup_table_text(name: str) -> str:
    problem, n, radius = LOOKUP_TABLES[name]
    config = SearchConfig(problem_by_name(problem), InstanceFamilySpec(n=n), radius)
    return json.dumps(find_normal_form(config).table.to_jsonable())


def write_lookup_table(tmp_path, name: str, kind: str):
    """The table, a copy with three entries relabelled, or a copy missing one
    entry."""
    obj = json.loads(lookup_table_text(name))
    entries, labels = obj["entries"], obj["output_alphabet"]
    if kind == "flipped":
        for entry in entries[-5:-2]:
            entry["out"] = labels[(labels.index(entry["out"]) + 1) % len(labels)]
    elif kind == "missing":
        del entries[len(entries) // 2]
    path = tmp_path / f"{name}-{kind}.json"
    path.write_text(json.dumps(obj))
    return path


def assert_same_lookups(tmp_path, capsys, problem_name, path, n, source) -> tuple:
    """Run ``simulate --table`` and ``connected-run`` against their
    references; return both expected outcomes."""
    problem = problem_by_name(problem_name)
    table = load_table(path)
    instances, instance_args = lookup_instances(tmp_path, n, source)

    out = tmp_path / "sim.jsonl"
    argv = ["simulate", "--table", str(path), *instance_args, "--out", str(out)]
    simulated = raised(lambda: (per_instance_simulate(instances, table=table), cli.EXIT_OK))
    assert_same_run(argv, out, simulated, capsys)

    out = tmp_path / "conn.json"
    argv = [
        "connected-run", "--problem", problem_name, "--table", str(path),
        *instance_args, "--out", str(out),
    ]
    connected = expected_connected_run(argv, problem, table, instances, source not in FAMILIES)
    assert_same_run(argv, out, connected, capsys)
    return simulated, connected


LOOKUP_FAMILIES = [
    (n, source) for source in ("family", "shuffled", "shuffled-connected") for n in (2, 3, 4)
] + [(2, "c2"), (3, "c2"), (2, "max-degree"), (3, "max-degree"), (4, "max-degree"),
     (2, "labels"), (3, "labels"), (2, "isolated")]


@pytest.mark.parametrize(
    "n, source", LOOKUP_FAMILIES, ids=[f"{n}-{source}" for n, source in LOOKUP_FAMILIES]
)
@pytest.mark.parametrize("kind", ["whole", "flipped", "missing"])
@pytest.mark.parametrize("name", sorted(LOOKUP_TABLES))
def test_table_runs_over_distinct_inputs_match_every_instance(
    tmp_path, capsys, name, kind, n, source
):
    problem_name, table_n, _radius = LOOKUP_TABLES[name]
    path = write_lookup_table(tmp_path, name, kind)
    simulated, connected = assert_same_lookups(tmp_path, capsys, problem_name, path, n, source)
    if source == "isolated":
        # no instance is connected, and the report keeps its empty runs
        assert connected[0] == "ok" and '\n  "runs": []\n' in connected[1][0]
    if source == "shuffled":
        # the file holds an instance with no edges, so connected-run stops
        assert connected[:2] in {("raised", ValueError), ("raised", UnsolvableInstance)}
    if table_n == n and source == "family":
        # a table from this family: whole it passes, one key short it fails
        if kind == "missing":
            assert simulated[:2] == ("raised", IncompleteTableError)
        else:
            assert simulated[0] == "ok"
        if kind == "whole":
            assert connected[0] == "ok" and connected[1][1] == cli.EXIT_OK


def test_a_flipped_table_fails_connected_runs_part_way(tmp_path, capsys):
    # paths on four nodes are not seen whole at radius 1, so they use the table
    path = write_lookup_table(tmp_path, "coloring4-n4-T0", "flipped")
    _, connected = assert_same_lookups(tmp_path, capsys, "coloring:4", path, 4, "family")
    assert connected[0] == "ok" and connected[1][1] == cli.EXIT_VERIFY_FAILED
    payload = json.loads(connected[1][0])
    assert 0 < payload["failures"] < len(payload["runs"])


@pytest.mark.parametrize("source", ["family", "shuffled-connected"])
def test_a_missing_key_stops_both_at_the_same_instance(tmp_path, capsys, source):
    # drop the key of a path's end node, which connected-run looks up too
    family = list(enumerate_instances(InstanceFamilySpec(n=4)))
    path_graph = next(
        instance
        for instance in family
        if instance.graph.is_connected and len(instance.graph.edges) == 3
        and max(sum(v in edge for edge in instance.graph.edges) for v in range(4)) == 2
    )
    end = next(v for v in range(4) if sum(v in edge for edge in path_graph.graph.edges) == 1)
    key = canonicalize(extract_ball(path_graph, end, 0))
    obj = json.loads(lookup_table_text("coloring4-n4-T0"))
    obj["entries"] = [entry for entry in obj["entries"] if entry["key"] != key]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(obj))
    simulated, connected = assert_same_lookups(tmp_path, capsys, "coloring:4", path, 4, source)
    assert simulated[:2] == connected[:2] == ("raised", IncompleteTableError)


@pytest.mark.parametrize("source", ["family", "shuffled-connected"])
def test_an_unsolvable_instance_is_named_as_in_every_instance(tmp_path, capsys, source):
    # a 2-coloring table is asked for triangles, which connected-run covers
    path = write_lookup_table(tmp_path, "coloring2-n2-T1", "whole")
    _, connected = assert_same_lookups(tmp_path, capsys, "coloring:2", path, 3, source)
    assert connected[:2] == ("raised", UnsolvableInstance)
    if source == "family":
        assert connected[2] == "instance 42: coloring-2 has no valid labeling on this instance"


def test_a_disconnected_instance_in_a_file_is_named_as_in_every_instance(tmp_path, capsys):
    family = list(enumerate_instances(InstanceFamilySpec(n=3)))
    connected = [instance for instance in family if instance.graph.is_connected]
    disconnected = [instance for instance in family if not instance.graph.is_connected]
    instances = connected[:7] + disconnected[:1] + connected[:3] + disconnected[1:3]
    path = tmp_path / "mixed.jsonl"
    path.write_text(dump_instances(instances))
    table_path = write_lookup_table(tmp_path, "mis-n4-T2", "whole")
    out = tmp_path / "conn.json"
    argv = [
        "connected-run", "--problem", "mis", "--table", str(table_path),
        "--instances", str(path), "--out", str(out),
    ]
    expected = expected_connected_run(
        argv, problem_by_name("mis"), load_table(table_path), instances, True
    )
    assert expected == ("raised", ValueError, "instance 7 is disconnected")
    assert_same_run(argv, out, expected, capsys)


@pytest.mark.parametrize("source", ["family", "shuffled"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "options",
    [[], ["--trace"], ["--claimed-n", "9"], ["--trace", "--claimed-n", "9"], ["--claimed-n", "2"]],
    ids=["plain", "trace", "claimed", "trace-claimed", "claimed-too-small"],
)
@pytest.mark.parametrize("name", ["parity", "degree", "id-sum-parity"])
def test_program_runs_over_distinct_inputs_match_every_instance(
    tmp_path, monkeypatch, capsys, name, options, n, source
):
    # a one-round gather sends one message per port, so its trace rows differ
    # from node to node and must be renamed with the outputs
    monkeypatch.setitem(DETERMINISTIC_BUILTINS, "id-sum-parity", lambda: id_sum_parity_program(1))
    instances, instance_args = lookup_instances(tmp_path, n, source)
    claimed_n = int(options[options.index("--claimed-n") + 1]) if "--claimed-n" in options else None
    trace = "--trace" in options
    program = DETERMINISTIC_BUILTINS[name]()
    out = tmp_path / "sim.jsonl"
    argv = ["simulate", "--program", name, *instance_args, *options, "--out", str(out)]
    expected = raised(
        lambda: (per_instance_simulate(instances, program=program, claimed_n=claimed_n, trace=trace), 0)
    )
    assert_same_run(argv, out, expected, capsys)
    assert (expected[0] == "ok") == (claimed_n is None or claimed_n >= n)
    if expected[0] == "ok" and trace and name == "id-sum-parity" and n > 2:
        rows = [json.loads(line) for line in expected[1][0].splitlines()]
        assert any(len(set(row["trace"][0])) > 1 for row in rows)


def star_file(tmp_path) -> tuple[list, list[str]]:
    """Stars on 11 nodes, so that output key "10" sorts before "2": two
    identifier orders, the first listed twice."""
    n = 11
    rows = [
        {
            "c": 1,
            "edges": [[0, v] for v in range(1, n)],
            "ids": {str(v): ids[v] for v in range(n)},
            "inputs": {str(v): "x" for v in range(n)},
            "n": n,
        }
        for ids in ([(7 * v) % n + 1 for v in range(n)], [n - v for v in range(n)])
    ]
    path = tmp_path / "stars.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in [rows[0], rows[1], rows[0]]))
    return load_instances(path.read_text()), ["--instances", str(path)]


@pytest.mark.parametrize("options", [[], ["--trace"]], ids=["plain", "trace"])
@pytest.mark.parametrize("name", ["parity", "id-sum-parity"])
def test_program_runs_on_a_large_star_match_every_instance(
    tmp_path, monkeypatch, capsys, name, options
):
    monkeypatch.setitem(DETERMINISTIC_BUILTINS, "id-sum-parity", lambda: id_sum_parity_program(1))
    instances, instance_args = star_file(tmp_path)
    program = DETERMINISTIC_BUILTINS[name]()
    out = tmp_path / "sim.jsonl"
    argv = ["simulate", "--program", name, *instance_args, *options, "--out", str(out)]
    expected = raised(
        lambda: (per_instance_simulate(instances, program=program, trace=bool(options)), 0)
    )
    assert expected[0] == "ok"
    assert expected[1][0].index('"10": ') < expected[1][0].index('"2": ')
    assert_same_run(argv, out, expected, capsys)


def test_connected_runs_on_a_large_star_match_every_instance(tmp_path, capsys):
    instances, instance_args = star_file(tmp_path)
    table_path = write_lookup_table(tmp_path, "mis-n4-T2", "whole")
    out = tmp_path / "conn.json"
    argv = [
        "connected-run", "--problem", "mis", "--table", str(table_path), *instance_args,
        "--out", str(out),
    ]
    expected = expected_connected_run(
        argv, problem_by_name("mis"), load_table(table_path), instances, True
    )
    assert expected[0] == "ok"
    assert {row["path"] for row in json.loads(expected[1][0])["runs"]} == {"brute-force"}
    assert_same_run(argv, out, expected, capsys)


@pytest.mark.parametrize("source", ["family", "shuffled-connected"])
@pytest.mark.parametrize("n", [2, 3])
def test_non_ascii_labels_are_written_escaped(tmp_path, capsys, n, source):
    problem_path = tmp_path / "accent.json"
    accent = {"name": "mis-é", "radius": 1, "output_alphabet": ["é", "ø"], "kind": "mis-like"}
    problem_path.write_text(json.dumps(accent))
    config = SearchConfig(problem_by_name(str(problem_path)), InstanceFamilySpec(n=3), 1)
    table_path = tmp_path / "accent-table.json"
    table_path.write_text(json.dumps(find_normal_form(config).table.to_jsonable()))
    simulated, connected = assert_same_lookups(
        tmp_path, capsys, str(problem_path), table_path, n, source
    )
    for outcome in (simulated, connected):
        assert outcome[0] == "ok" and "\\u00e9" in outcome[1][0] and "é" not in outcome[1][0]


# -- call counts: one run per distinct input ----------------------------------


def counting(monkeypatch, name: str) -> list:
    calls: list = []
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    return calls


def test_simulate_runs_each_distinct_input_of_the_family_once(tmp_path, monkeypatch):
    path = write_lookup_table(tmp_path, "coloring4-n4-T0", "whole")
    calls = counting(monkeypatch, "run_normal_form")
    out = tmp_path / "sim.jsonl"
    assert cli.main(["simulate", "--table", str(path), "--n", "4", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1536
    assert len(calls) == 64

    calls = counting(monkeypatch, "run_deterministic")
    assert cli.main(["simulate", "--program", "degree", "--n", "4", "--out", str(out)]) == 0
    assert len(calls) == 64


def test_verify_reads_the_first_copies_only(tmp_path, monkeypatch):
    built = []
    of_spec = cli.InputClasses.of_spec

    def recording(spec):
        built.append(of_spec(spec))
        return built[-1]

    monkeypatch.setattr(cli.InputClasses, "of_spec", recording)
    path = write_lookup_table(tmp_path, "coloring4-n4-T0", "whole")
    argv = ["verify", "--problem", "coloring:4", "--table", str(path), "--n", "4"]
    assert cli.main(argv) == 0
    assert len(built) == 1 and "copies" not in vars(built[0])


def test_connected_run_runs_each_distinct_connected_input_once(tmp_path, monkeypatch):
    path = write_lookup_table(tmp_path, "coloring4-n4-T0", "whole")
    calls = counting(monkeypatch, "run_connected_aware")
    out = tmp_path / "conn.json"
    argv = ["connected-run", "--problem", "coloring:4", "--table", str(path), "--n", "4"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["runs"]) == 912
    assert len(calls) == 912 // 24


# -- rendering: one encoder call per distinct row content ---------------------


def counting_encoders(monkeypatch) -> list:
    """Calls of ``json.dumps`` and ``JSONEncoder.encode`` made from ``cli``."""
    calls: list = []

    def counted(real):
        def call(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == cli.__name__:
                calls.append(1)
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(json, "dumps", counted(json.dumps))
    monkeypatch.setattr(json.JSONEncoder, "encode", counted(json.JSONEncoder.encode))
    return calls


def test_rows_are_rendered_once_per_distinct_label_vector(tmp_path, monkeypatch):
    path = write_lookup_table(tmp_path, "coloring4-n4-T0", "whole")
    calls = counting_encoders(monkeypatch)
    out = tmp_path / "sim.jsonl"
    assert cli.main(["simulate", "--table", str(path), "--n", "4", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    vectors = {tuple(sorted(row["outputs"].items())) for row in rows}
    assert len(rows) == 1536 and len(vectors) == 73
    assert len(calls) <= len(vectors) + 1

    calls.clear()
    out = tmp_path / "conn.json"
    argv = ["connected-run", "--problem", "coloring:4", "--table", str(path), "--n", "4"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    runs = json.loads(out.read_text())["runs"]
    vectors = {tuple(sorted(row["outputs"].items())) for row in runs}
    assert len(runs) == 912 and len(vectors) == 32
    # the runs' vectors, their two paths and the report around them
    assert len(calls) <= len(vectors) + 3
