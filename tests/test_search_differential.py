"""Differential gate: the table search against the original one.

``reference_find_normal_form`` is the chronological backtracker the
conflict-learning search replaced, kept verbatim: one closure per node of
every instance, each running the interpreted ball predicate on every trigger.
Both must return the same table, verdict and witness.

The solver splits its positions into independent components and solves
each alone; it is also checked against brute force over every labeling, and
against itself run on one component.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import copy_neighbor_parity_problem, one_leader_problem
from derandlab import (
    InputInstance,
    InstanceFamilySpec,
    NormalFormTable,
    SearchBudgetExceeded,
    SearchConfig,
    SimulationError,
    TableSearchOutcome,
    brute_force_solve,
    canonicalize,
    enumerate_instances,
    extract_ball,
    find_normal_form,
    problem_by_name,
    run_normal_form,
    verify,
)
from derandlab.derandomize import SearchStats, compile_family
from derandlab.problems import (
    Check,
    ProblemSpec,
    _backtrack,
    _cdcl,
    problem_from_jsonable,
)


def reference_find_normal_form(config: SearchConfig) -> TableSearchOutcome:
    """Lexicographically first table valid on every family instance.

    The search assigns output labels to the realized view keys in key order,
    trying labels in alphabet order, and backtracks on the first violated
    check.  For locally verifiable problems a node's check fires as soon as
    the keys of every node in its verification-radius view are decided; for
    component-wise problems whole instances are checked once their keys are
    complete.  Checks are monotone, so pruning never skips a valid table and
    the first complete assignment is the lexicographic minimum.
    """
    problem = config.problem
    alphabet = problem.output_alphabet
    instances = list(enumerate_instances(config.family))
    stats = SearchStats(family_size=len(instances))

    node_keys: list[tuple[str, ...]] = [
        tuple(
            canonicalize(extract_ball(inst, v, config.radius))
            for v in range(inst.n)
        )
        for inst in instances
    ]
    realized = sorted({key for keys in node_keys for key in keys})
    pos_of = {key: i for i, key in enumerate(realized)}
    stats.realized_views = len(realized)

    # triggers[p] = checks that become decidable once position p is labeled.
    labels: list[str | None] = [None] * len(realized)
    triggers: list[list[Callable[[], bool]]] = [[] for _ in realized]

    def add_local_check(inst: InputInstance, keys: tuple[str, ...], v: int) -> None:
        ball = extract_ball(inst, v, problem.radius)
        members = [
            (b.identifier, pos_of[keys[inst.node_with_id(b.identifier)]])
            for b in ball.nodes
        ]

        def check() -> bool:
            return problem.ball_valid(
                ball, {ident: labels[pos] for ident, pos in members}
            )

        triggers[max(pos for _, pos in members)].append(check)

    def add_instance_check(inst: InputInstance, keys: tuple[str, ...]) -> None:
        def check() -> bool:
            outputs = {v: labels[pos_of[keys[v]]] for v in range(inst.n)}
            return verify(problem, inst, outputs).valid

        triggers[max(pos_of[k] for k in keys)].append(check)

    for inst, keys in zip(instances, node_keys):
        if problem.locally_verifiable:
            for v in range(inst.n):
                add_local_check(inst, keys, v)
        else:
            add_instance_check(inst, keys)

    pos = 0
    next_try = [0] * len(realized)
    while 0 <= pos < len(realized):
        if next_try[pos] == len(alphabet):
            next_try[pos] = 0
            labels[pos] = None
            pos -= 1
            if pos >= 0:
                next_try[pos] += 1
            continue
        labels[pos] = alphabet[next_try[pos]]
        stats.placements += 1
        if config.node_budget is not None and stats.placements > config.node_budget:
            raise SearchBudgetExceeded(
                f"table search exceeded its budget of {config.node_budget} placements"
            )
        ok = True
        for check in triggers[pos]:
            stats.checks += 1
            if not check():
                ok = False
                break
        if ok:
            pos += 1
        else:
            labels[pos] = None
            next_try[pos] += 1

    if pos < 0:
        for idx, inst in enumerate(instances):
            if brute_force_solve(problem, inst) is None:
                return TableSearchOutcome(None, idx, inst, stats)
        return TableSearchOutcome(None, None, None, stats)

    table = NormalFormTable.from_mapping(
        config.radius,
        alphabet,
        {realized[i]: labels[i] for i in range(len(realized))},
        provenance=f"table-search:{problem.name}",
    )
    for inst in instances:
        if not verify(problem, inst, run_normal_form(table, inst)).valid:
            raise SimulationError("internal: searched table failed final verification")
    return TableSearchOutcome(table, None, None, stats)


LOCAL = ["mis", "coloring:1", "coloring:2", "coloring:3", "coloring:4"]

CASES = [
    pytest.param(
        problem_by_name(name), InstanceFamilySpec(n=n), radius, id=f"{name}-n{n}-T{radius}"
    )
    for name in LOCAL
    for n in (1, 2, 3)
    for radius in (0, 1, 2)
]
CASES += [
    pytest.param(
        one_leader_problem(), InstanceFamilySpec(n=n), radius, id=f"one-leader-n{n}-T{radius}"
    )
    for n in (2, 3)
    for radius in (0, 1)
]
CASES.append(
    pytest.param(
        copy_neighbor_parity_problem(),
        InstanceFamilySpec(n=2, c=2),
        0,
        id="copy-neighbor-parity-n2-c2",
    )
)
# n=4 cases the reference decides in a few hundred placements: exhausted,
# witness and found
CASES += [
    pytest.param(problem_by_name(name), InstanceFamilySpec(n=4), 0, id=f"{name}-n4-T0")
    for name in ("mis", "coloring:2", "coloring:4")
]


@pytest.mark.parametrize("problem,family,radius", CASES)
def test_compiled_search_matches_the_reference(problem, family, radius):
    config = SearchConfig(problem=problem, family=family, radius=radius)
    expected = reference_find_normal_form(config)
    got = find_normal_form(config)
    assert got.table == expected.table
    assert got.unsat == expected.unsat
    assert got.witness_index == expected.witness_index
    assert got.witness == expected.witness
    assert got.exhausted == expected.exhausted
    assert got.stats.realized_views == expected.stats.realized_views
    # Without a violated check both searches label the views greedily, and the
    # solver decides each view that has more than one label to choose from.
    # The reference met a violated check iff it backtracked.
    greedy = expected.found and expected.stats.placements == expected.stats.realized_views
    assert (got.stats.conflicts == 0) == greedy
    if greedy:
        choices = expected.stats.placements if len(problem.output_alphabet) > 1 else 0
        assert got.stats.placements == choices


def test_the_cases_cover_every_verdict():
    outcomes = [find_normal_form(SearchConfig(*case.values)) for case in CASES]
    assert any(o.found for o in outcomes)
    assert any(o.witness_index is not None for o in outcomes)
    assert any(o.exhausted for o in outcomes)


def test_budget_is_charged_the_same_way():
    # the search needs 1,247 decisions here, the reference never ends
    config = SearchConfig(
        problem=problem_by_name("coloring:4"),
        family=InstanceFamilySpec(n=4),
        radius=1,
        node_budget=1000,
    )
    for search in (reference_find_normal_form, find_normal_form):
        with pytest.raises(SearchBudgetExceeded, match="1000"):
            search(config)


def random_table_problem(rng: random.Random) -> ProblemSpec:
    """A declarative radius-1 problem with random allowed entries."""
    alphabet = [f"L{i}" for i in range(rng.choice((2, 3)))]
    allowed = []
    for _ in range(rng.randint(1, 2 * len(alphabet))):
        condition = {}
        if rng.random() < 0.6:
            condition["forbid"] = rng.sample(alphabet, rng.randint(1, len(alphabet)))
        if rng.random() < 0.4:
            condition["require_any"] = rng.sample(alphabet, rng.randint(1, len(alphabet)))
        allowed.append({"center": rng.choice(alphabet), "neighbors_condition": condition})
    return problem_from_jsonable(
        {"name": "random", "radius": 1, "output_alphabet": alphabet, "kind": "table",
         "allowed": allowed}
    )


def test_the_solver_finds_the_backtrackers_table_on_random_problems():
    rng = random.Random(20231018)
    families = [
        list(enumerate_instances(spec))
        for spec in (
            InstanceFamilySpec(n=2, input_alphabet=("a", "b")),
            InstanceFamilySpec(n=3),
        )
    ]
    outcomes = set()
    for _ in range(150):
        problem = random_table_problem(rng)
        index = compile_family(problem, rng.choice(families), rng.choice((0, 1)))
        expected: list[str | None] = [None] * len(index.realized)
        got: list[str | None] = [None] * len(index.realized)
        alphabet = problem.output_alphabet
        found = _backtrack(range(len(expected)), index.constraints, alphabet, expected)
        assert _cdcl(index.constraints, alphabet, got)[0] == found
        if found:
            assert got == expected
        outcomes.add(found)
    assert outcomes == {True, False}


# -- the split into independent components ------------------------------------


@st.composite
def check_sets(draw):
    """A number of positions, an alphabet and checks, each a scope of
    positions (repeats allowed) with the label tuples it forbids.  Each
    position is put in one of three groups and each scope stays inside one
    group, so the checks link the positions into several components."""
    size = draw(st.integers(1, 7))
    alphabet = ("a", "b", "c")[: draw(st.integers(1, 3))]
    group = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    scopes = []
    for _ in range(draw(st.integers(0, 6))):
        chosen = draw(st.sampled_from(group))
        positions = [pos for pos in range(size) if group[pos] == chosen]
        members = tuple(draw(st.lists(st.sampled_from(positions), min_size=1, max_size=3)))
        tuples = list(itertools.product(alphabet, repeat=len(members)))
        scopes.append((members, frozenset(draw(st.sets(st.sampled_from(tuples))))))
    return size, alphabet, scopes


def forbidding(scopes) -> list[Check]:
    """One check per scope, failing exactly on its forbidden label tuples."""
    return [
        Check(None, None, members, lambda labels, forbidden=forbidden: labels not in forbidden, {})
        for members, forbidden in scopes
    ]


@settings(max_examples=300, deadline=None)
@given(check_sets())
# two components, each with its all-"a" labeling ruled out
@example((4, ("a", "b"), [((0, 1), {("a", "a")}), ((3, 2), {("a", "a")})]))
# the first component is solvable and the second one is refuted
@example(
    (
        3,
        ("a", "b"),
        [
            ((0,), {("a",)}),
            ((1, 2, 1), {("a", "b", "a"), ("b", "a", "b")}),
            ((2, 1), {("a", "a"), ("b", "b")}),
        ],
    )
)
def test_the_solver_returns_the_first_labeling_in_product_order(case):
    size, alphabet, scopes = case
    expected = next(
        (
            combo
            for combo in itertools.product(alphabet, repeat=size)
            if all(tuple(combo[p] for p in members) not in forbidden
                   for members, forbidden in scopes)
        ),
        None,
    )
    labels: list[str | None] = [None] * size
    found = _cdcl(forbidding(scopes), alphabet, labels)[0]
    assert found == (expected is not None)
    if found:
        assert tuple(labels) == expected


def always_true(size: int) -> Check:
    """A check that reads every position and holds on every labeling: it
    links all positions into one component and rules nothing out."""
    return Check(None, None, tuple(range(size)), lambda labels: True, {})


@pytest.mark.parametrize(
    "name, n, radius",
    [(name, 3, radius) for name in ("mis", "coloring:2", "coloring:3", "coloring:4")
     for radius in (0, 1, 2)]
    + [("mis", 4, 2), ("coloring:4", 4, 1), ("coloring:4", 4, 2)],
)
def test_split_search_matches_the_one_component_search(name, n, radius):
    problem = problem_by_name(name)
    index = compile_family(problem, list(enumerate_instances(InstanceFamilySpec(n=n))), radius)
    size = len(index.realized)
    split: list[str | None] = [None] * size
    whole: list[str | None] = [None] * size
    alphabet = problem.output_alphabet
    found, *_, components = _cdcl(index.constraints, alphabet, split)
    expected, *_, one = _cdcl([*index.constraints, always_true(size)], alphabet, whole)
    assert one == 1
    assert found == expected
    if found:
        assert components > 1
        assert split == whole


def test_budget_is_charged_across_components():
    alphabet = ("a", "b")
    # two components, each deciding twice: its first label conflicts
    scopes = [((0, 1), {("a", "a")}), ((2, 3), {("a", "a")})]
    assert _cdcl(forbidding(scopes[:1]), alphabet, [None] * 2)[1] == 2
    labels: list[str | None] = [None] * 4
    assert _cdcl(forbidding(scopes), alphabet, labels) == (True, 4, 4, 2, 2)
    assert labels == ["a", "b", "a", "b"]
    with pytest.raises(SearchBudgetExceeded, match="budget of 3 placements"):
        _cdcl(forbidding(scopes), alphabet, [None] * 4, budget=3)
    labels = [None] * 4
    assert _cdcl(forbidding(scopes), alphabet, labels, budget=4)[0]
    assert labels == ["a", "b", "a", "b"]
