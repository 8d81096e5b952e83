"""Two routes from a randomized algorithm to a deterministic lookup table.

Route one fixes the randomness: certify (by union bound) that a good
identifier-to-bits assignment exists, search the bounded assignment space for
one, and tabulate the fixed program.  Route two skips the assignment entirely
and searches the space of tables directly, in lexicographic order over the
views realized by the family; its first valid table is the deterministic
artifact.  Only the second route survives programs with unbounded bit use,
because it never looks at the program's internals.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .graphs import (
    InputClasses,
    InputInstance,
    InstanceFamilySpec,
    canonicalize,
    count_bound,
    enumerate_instances,
    extract_ball,
    instance_to_jsonable,
)
from .problems import (
    Check,
    CompiledCheck,
    ProblemSpec,
    SearchBudgetExceeded,
    _cdcl,
    _instance_checks,
    brute_force_solve,
    solve_lex_first,
    verify,
)
from .simulator import (
    NodeProgram,
    NormalFormTable,
    SimulationError,
    _tabulate_firsts,
    fix_randomness,
    run_normal_form,
    run_randomized,
)
from .streams import RandomAssignment, iter_bounded_assignments

# the most candidate assignments search_good_f tries
ASSIGNMENT_BUDGET = 1 << 22


class AssignmentNotGood(RuntimeError):
    """The supplied assignment fails verification on some family instance."""

    def __init__(self, index: int, instance: InputInstance):
        self.index = index
        self.instance = instance
        super().__init__(f"assignment fails on family instance {index}")


@dataclass(frozen=True)
class ClaimedSizeLift:
    """The claimed-size bookkeeping for a family of ``n``-node inputs: the
    closed-form family bound, and, derived from both, the size we pretend
    the input has and the two comparisons the pipelines rely on."""

    n: int
    family_bound: int

    @property
    def claimed_size(self) -> int:
        return 2 ** (self.n * self.n)

    @property
    def bound_below_claimed(self) -> bool:
        return self.family_bound < self.claimed_size

    @property
    def bound_below_claimed_over_n(self) -> bool:
        return self.family_bound * self.n < self.claimed_size


def lift_to_claimed_size(spec: InstanceFamilySpec) -> ClaimedSizeLift:
    return ClaimedSizeLift(n=spec.n, family_bound=count_bound(spec))


@dataclass(frozen=True)
class GoodnessCertificate:
    """Union-bound certificate: if the per-instance failure probabilities sum
    below one, some assignment succeeds on every instance at once.

    ``probs[k]`` is the failure probability of distinct input ``k`` of the
    family, inputs numbered in order of first appearance, and instance ``i``
    is a copy of input ``classes[i]`` (:class:`InputClasses`); each input has
    at least one copy.  Each probability is checked once, so the first one
    out of range is also the first in family order.  A family whose every
    instance is its own input passes ``range(family_size)``.

    ``failure_probs`` lists each instance's probability, and ``total`` adds
    each input's probability times its number of copies, the same exact sum
    over the whole family.  The family lists an input once per renaming of
    its nodes, and the union bound needs each input only once, so
    ``distinct_total`` below one also certifies that a good assignment
    exists.

    ``estimated`` marks Monte-Carlo estimates in place of exact
    probabilities.  An estimated total below one proves nothing, so such a
    certificate has no verdict, and its report leaves out the distinct
    inputs.
    """

    probs: tuple[Fraction, ...]
    classes: tuple[int, ...]
    claimed_size: int
    estimated: bool = False

    def __post_init__(self) -> None:
        probs = tuple(Fraction(p) for p in self.probs)
        for p in probs:
            if not 0 <= p <= 1:
                raise ValueError(f"failure probability {p} outside [0, 1]")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "classes", tuple(self.classes))

    @cached_property
    def failure_probs(self) -> tuple[Fraction, ...]:
        return tuple([self.probs[k] for k in self.classes])

    @cached_property
    def total(self) -> Fraction:
        return sum(
            (copies * self.probs[k] for k, copies in Counter(self.classes).items()),
            Fraction(0),
        )

    @property
    def family_size(self) -> int:
        return len(self.classes)

    @property
    def verdict(self) -> bool | None:
        return None if self.estimated else self.total < 1

    @cached_property
    def distinct_total(self) -> Fraction:
        return sum(self.probs, Fraction(0))

    def to_jsonable(self) -> dict:
        strings = [str(p) for p in self.probs]
        out = {
            "failure_probs": [strings[k] for k in self.classes],
            "total": str(self.total),
            "family_size": self.family_size,
            "claimed_size": self.claimed_size,
            "verdict": self.verdict,
        }
        if not self.estimated:
            out["distinct_inputs"] = len(self.probs)
            out["distinct_total"] = str(self.distinct_total)
        return out


def assignment_is_good(
    program: NodeProgram,
    assignment: RandomAssignment,
    checks: Iterable[CompiledCheck],
    claimed_n: int | None = None,
) -> tuple[bool, int | None]:
    """Whether the program, run with the streams of ``assignment``, verifies
    on the instance of every compiled check of ``checks``; on failure also
    the position in ``checks`` of the first failing one, which is a family
    index only when ``checks`` lists the whole family.

    A caller that tries many assignments compiles the checks once
    (:func:`compile_checks`).
    """
    for idx, compiled in enumerate(checks):
        result = run_randomized(program, compiled.instance, claimed_n, streams=assignment)
        if not compiled.valid(result.outputs):
            return False, idx
    return True, None


def search_good_f(
    program: NodeProgram,
    checks: Iterable[CompiledCheck],
    bits: int,
    claimed_n: int | None = None,
) -> RandomAssignment | None:
    """Lexicographically first good bounded assignment, or None.

    Enumerates every assignment of ``bits``-bit vectors to the identifiers of
    the instances of ``checks`` (the family's compiled checks,
    :func:`compile_checks`, in family order) and returns the first one whose
    fixed program verifies on every one of them.  The checks are read once,
    before the first candidate, since every candidate passes over the whole
    family.  None means the entire bounded space fails, which says nothing
    about unbounded assignments.  A space of more than
    :data:`ASSIGNMENT_BUDGET` candidates raises :class:`SearchBudgetExceeded`
    before the first one is tried.
    """
    if bits < 0:
        raise ValueError("bit budget must be nonnegative")
    checks = list(checks)
    id_space = sorted({i for compiled in checks for i in compiled.instance.ids})
    # the space holds 2**exponent assignments; the count itself is never built
    exponent = bits * len(id_space)
    if exponent >= ASSIGNMENT_BUDGET.bit_length():
        size = 2**exponent if exponent <= 64 else f"2^{exponent}"
        raise SearchBudgetExceeded(
            f"assignment space holds {size} candidates, "
            f"over the budget {ASSIGNMENT_BUDGET}"
        )
    for assignment in iter_bounded_assignments(id_space, bits):
        if assignment_is_good(program, assignment, checks, claimed_n)[0]:
            return assignment
    return None


def derandomize_via_f(
    program: NodeProgram,
    assignment: RandomAssignment,
    radius: int,
    family: Sequence[InputInstance],
    problem: ProblemSpec,
    claimed_n: int | None = None,
) -> NormalFormTable:
    """Fix the randomness, tabulate at ``radius``, and verify on the family.

    Raises :class:`AssignmentNotGood` naming the first failing instance if the
    assignment is not good, and :class:`LocalityViolation` if the fixed
    program provably uses more than ``radius`` rounds.  The family is
    grouped into distinct inputs once (:class:`InputClasses`), and the table
    is tabulated from (as by :func:`tabulate`), and then verified with
    :func:`verify` on, the first copy of each, in family order.  A
    tabulation that completes records exactly each node's run output, so the
    table fails on an instance exactly when that instance's run fails.  Two
    cases come out as they would not if each run were checked before it is
    tabulated: when one instance fails and a later instance's views
    conflict, :class:`LocalityViolation` comes first; and a label outside the
    problem's alphabet raises the table's ``ValueError``, not
    :func:`verify`'s.
    """
    fixed = fix_randomness(program, assignment)
    firsts = InputClasses.of_instances(family).firsts
    # the replaced table checks its labels against the problem's alphabet
    table = replace(
        _tabulate_firsts(fixed, radius, firsts, claimed_n),
        output_alphabet=problem.output_alphabet,
        provenance=f"via-f:{program.name}",
    )
    for idx, instance in firsts:
        if not verify(problem, instance, run_normal_form(table, instance)).valid:
            raise AssignmentNotGood(idx, instance)
    return table


# ---------------------------------------------------------------------------
# Direct table search.


@dataclass(frozen=True)
class SearchConfig:
    problem: ProblemSpec
    family: InstanceFamilySpec
    radius: int
    node_budget: int | None = None  # cap on placements: labels chosen by decision

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("budget must be positive")


@dataclass
class SearchStats:
    family_size: int = 0
    realized_views: int = 0
    constraints: int = 0  # distinct compiled verification checks
    placements: int = 0  # labels chosen by decision; implied labels are free
    checks: int = 0  # constraint evaluations during the table search
    conflicts: int = 0  # violated constraints and clauses, each one learned from
    predicate_calls: int = 0  # memo misses: interpreted predicate evaluations


@dataclass
class FamilyIndex:
    """A family compiled once for one table radius and one problem: the data
    the table search runs on.

    ``realized`` lists the realized radius-T view keys in sorted order, and
    ``node_pos[i][v]`` is the position of node ``v`` of instance ``i`` among
    them.  A node's verification check depends only on its canonical
    verification ball and on the positions of the ball's members, so checks
    are deduplicated on that pair: ``constraints`` holds each distinct one
    once, as a :class:`Check` whose ``members`` are realized-view positions.
    A component-wise problem gets one constraint per instance.
    """

    realized: list[str]
    node_pos: list[tuple[int, ...]]
    constraints: list[Check]

    @property
    def predicate_calls(self) -> int:
        # every memo miss stores exactly one verdict
        return sum(len(con.verdicts) for con in self.constraints)


def compile_family(
    problem: ProblemSpec, instances: Sequence[InputInstance], radius: int
) -> FamilyIndex:
    """Build the :class:`FamilyIndex` of ``instances`` at table radius
    ``radius``.

    Each node's view key is ``canonicalize(extract_ball(instance, v,
    radius))``, computed as :func:`run_normal_form` (and so ``derandlab
    verify``) computes the key it looks the node up under.  Constraints come
    from each instance's checks, built as :func:`compile_checks` builds them
    and read in node order; when the table radius is the problem's radius, a
    node's view is its verification ball, so the check is built on that
    view and its key instead of extracting the ball again.  Checks with
    equal canonical keys whose members have equal view keys become one
    constraint, with a verdict memo of its own, whose ``members`` are the
    members' realized-view positions.
    """
    shared: dict[str, Check] = {}
    node_keys: list[tuple[str, ...]] = []
    # each distinct check with its members' view keys, in first-seen order
    distinct: dict[object, tuple[Check, tuple[str, ...]]] = {}
    for inst in instances:
        balls = [extract_ball(inst, v, radius) for v in range(inst.n)]
        keys = tuple(map(canonicalize, balls))
        node_keys.append(keys)
        views = list(zip(balls, keys)) if radius == problem.radius else None
        checks = _instance_checks(problem, inst, shared, views)
        # node order fixes the order in which checks fire, which decides the
        # search's check and predicate counts (not its tables or placements)
        for check in sorted(checks, key=lambda c: c.members[0]):
            scope = tuple(map(keys.__getitem__, check.members))
            # a component-wise check has no key and is never shared
            key = check if check.key is None else (check.key, scope)
            if key not in distinct:
                distinct[key] = (check, scope)
    realized = sorted({key for keys in node_keys for key in keys})
    pos_of = {key: i for i, key in enumerate(realized)}
    node_pos = [tuple(map(pos_of.__getitem__, keys)) for keys in node_keys]
    constraints: list[Check] = []
    for check, scope in distinct.values():
        members = tuple(map(pos_of.__getitem__, scope))
        constraints.append(Check(check.ball, check.key, members, check.evaluate, {}))
    return FamilyIndex(realized, node_pos, constraints)


@dataclass
class TableSearchOutcome:
    """Either a verified table or an unsatisfiability verdict.

    Without a table the outcome is ``unsat``: ``witness`` is set when some
    single family instance admits no valid labeling at all, and otherwise
    the search is ``exhausted`` (each instance has a valid labeling of its
    own, but no single consistent table covers them all).  A found table
    passed the final verification on all ``verified_count`` family
    instances; a failure there raises.  ``phase_s`` holds the seconds spent
    enumerating the family, compiling it, searching and verifying; their sum
    is the one timing in :func:`derandomize`'s report.
    """

    table: NormalFormTable | None
    witness_index: int | None
    witness: InputInstance | None
    stats: SearchStats
    phase_s: dict[str, float] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.table is not None

    @property
    def unsat(self) -> bool:
        return self.table is None

    @property
    def exhausted(self) -> bool:
        return self.table is None and self.witness is None

    @property
    def verified_count(self) -> int | None:
        return self.stats.family_size if self.found else None


def find_normal_form(config: SearchConfig) -> TableSearchOutcome:
    """Lexicographically first table valid on every family instance.

    The family is compiled once into a :class:`FamilyIndex`: the realized
    view keys in sorted order and the deduplicated verification constraints,
    each keyed by its canonical verification ball and the positions of the
    ball's members, with a memo from label tuple to verdict.  A
    conflict-learning solver (:func:`problems._cdcl`) decides the realized
    keys in key order, trying labels in alphabet order, and never restarts,
    so its first model is the lexicographic minimum.  A constraint is
    evaluated once every position it reads is labeled (a tuple build plus a
    memo lookup); a violated one becomes a clause, and the solver learns from
    it and jumps back.  ``stats.placements`` counts the labels it chose by
    decision (implied labels are free) and is what ``node_budget`` caps.

    When the clauses refute every table, each distinct input is solved alone
    with :func:`solve_lex_first`, the product's single-instance solver, in
    family order; the first unsolvable one is the witness, confirmed by
    :func:`brute_force_solve`.  The scan reads no constraint of the index, so
    ``stats.predicate_calls`` counts the table search's memo misses alone.  A
    found table is verified once more on the whole family with
    :func:`verify`, the spec-level oracle, each node's output looked up in
    the table under the view key the compilation gave it, which is the key
    every table lookup computes.

    The family lists each input once per renaming of its nodes, and all
    three passes run over the first copy of each input alone
    (:class:`InputClasses`).  The copies add no view key and no
    constraint, and each behaves exactly like its first copy, so the
    search, its counters, the witness and the final verdict are those of
    the whole family; ``family_size`` and ``verified_count`` count every
    instance.
    """
    phase_s: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phase_s[phase] = now - mark
        mark = now

    problem = config.problem
    alphabet = problem.output_alphabet
    classes = InputClasses.of_instances(list(enumerate_instances(config.family)))
    distinct = [first for _, first in classes.firsts]
    lap("enumerate")
    index = compile_family(problem, distinct, config.radius)
    lap("compile")
    realized = index.realized
    stats = SearchStats(
        family_size=classes.size,
        realized_views=len(realized),
        constraints=len(index.constraints),
    )

    labels: list[str | None] = [None] * len(realized)
    found, stats.placements, stats.checks, stats.conflicts = _cdcl(
        index.constraints, alphabet, labels, config.node_budget
    )
    unsolvable = None if found else next(
        (
            (idx, first)
            for idx, first in classes.firsts
            if solve_lex_first(problem, first) is None
        ),
        None,
    )
    stats.predicate_calls = index.predicate_calls
    lap("search")

    if not found:
        if unsolvable is None:
            lap("verify")
            return TableSearchOutcome(None, None, None, stats, phase_s)
        witness, inst = unsolvable
        if brute_force_solve(problem, inst) is not None:
            raise SimulationError(
                f"internal: solve_lex_first finds no labeling of instance {witness} "
                "but brute force finds one"
            )
        lap("verify")
        return TableSearchOutcome(None, witness, inst, stats, phase_s)

    table = NormalFormTable.from_mapping(
        config.radius,
        alphabet,
        dict(zip(realized, labels)),
        provenance=f"table-search:{problem.name}",
    )
    # each node's output is the table's entry for its view, keyed at compile time
    for inst, positions in zip(distinct, index.node_pos):
        outputs = {v: table.lookup(realized[pos]) for v, pos in enumerate(positions)}
        if not verify(problem, inst, outputs).valid:
            raise SimulationError("internal: searched table failed final verification")
    lap("verify")
    return TableSearchOutcome(table, None, None, stats, phase_s)


# ---------------------------------------------------------------------------
# End-to-end report.


def derandomize(
    config: SearchConfig,
    t_rand: Callable[[int], int] | None = None,
) -> tuple[dict, TableSearchOutcome]:
    """Run the direct pipeline end to end: the report and the search's outcome.

    The report is the JSON object ``derandlab derandomize --out-report``
    writes, without its manifest.  The deterministic artifact is the pair
    (radius, table) executed by :func:`run_normal_form`;
    :func:`find_normal_form` has already verified it on the whole family,
    and the report's ``verified_count`` is that count.  When ``t_rand`` is
    supplied the report also evaluates it at the claimed size, which is the
    round count the table stands in for.  ``timing.wall_time_s`` is the sum
    of the search's phase timings, the report's only field that is not
    reproducible.  The claimed size and the closed-form bound are computed
    after the search, which refuses a family too large to enumerate before
    the bound's ``n ** (c * n)`` would take long to compute.
    """
    spec = config.family
    outcome = find_normal_form(config)
    lift = lift_to_claimed_size(spec)
    report = {
        "n": spec.n,
        "c": spec.c,
        "input_alphabet": list(spec.input_alphabet),
        "max_degree": spec.max_degree,
        "problem": config.problem.name,
        "output_alphabet": list(config.problem.output_alphabet),
        "radius": config.radius,
        "claimed_size": lift.claimed_size,
        "family_bound": lift.family_bound,
        "bound_below_claimed": lift.bound_below_claimed,
        "bound_below_claimed_over_n": lift.bound_below_claimed_over_n,
        "family_size": outcome.stats.family_size,
        "pipeline": "table-search",
        "found": outcome.found,
        "table_size": outcome.table.size if outcome.found else None,
        "verified_count": outcome.verified_count,
        "unsat_witness_index": outcome.witness_index,
        "unsat_witness": (
            instance_to_jsonable(outcome.witness) if outcome.witness else None
        ),
        "exhausted_search": outcome.exhausted if outcome.unsat else None,
        "placements": outcome.stats.placements,
        "t_rand_at_claimed_size": t_rand(lift.claimed_size) if t_rand else None,
        "timing": {"wall_time_s": sum(outcome.phase_s.values())},
    }
    return report, outcome
