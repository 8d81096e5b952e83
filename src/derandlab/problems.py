"""Labeling problems: local and component-wise verification, compiled checks,
and the canonical (lexicographically first) solution of one instance."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .graphs import BallView, Graph, InputInstance, canonicalize, extract_ball, json_value

# The two predicate types are strings, read only in annotations: a typing
# construct built at import time stays in typing's cache, and with it every
# earlier import of this package.
# Ball predicates see the view plus candidate outputs keyed by identifier.
BallPredicate = "Callable[[BallView, Mapping[int, str]], bool]"
# Component predicates see the host instance, the component's node indices,
# and candidate outputs keyed by node index (restricted to the component).
ComponentPredicate = "Callable[[InputInstance, tuple[int, ...], Mapping[int, str]], bool]"


class ProblemFormatError(ValueError):
    """Raised for malformed declarative problem descriptions."""


@dataclass(frozen=True)
class ProblemSpec:
    """A labeling problem, with exactly one of two predicates.

    A ``locally_verifiable`` problem carries a ``ball_predicate`` evaluated
    on the radius-``radius`` view of every node; its component predicate is
    the conjunction of the ball predicates over the component, keeping the
    two verifiers consistent by construction.  A component-wise-only
    problem carries a ``component_predicate`` instead and uses ``radius=0``.
    A spec with both could have verifiers that disagree, and is rejected.

    A ``component_predicate`` may read the instance's identifiers, inputs
    and edges, but its verdict must not depend on node indices: renaming the
    nodes of an instance, with the labeling renamed alike, keeps the
    verdict.  The family is searched, certified, tabulated and verified on
    one copy of each input (:class:`InputClasses`), which relies on it; a
    ball predicate sees identifiers only and meets it by construction.
    """

    name: str
    radius: int
    output_alphabet: tuple[str, ...]
    ball_predicate: BallPredicate | None = field(default=None, repr=False)
    component_predicate: ComponentPredicate | None = field(default=None, repr=False)
    declarative: tuple[tuple[str, object], ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "output_alphabet", tuple(self.output_alphabet))
        if not self.output_alphabet:
            raise ValueError("output alphabet must be nonempty")
        if len(set(self.output_alphabet)) != len(self.output_alphabet):
            raise ValueError("output alphabet has duplicate labels")
        if self.radius < 0:
            raise ValueError("verification radius must be nonnegative")
        if (self.ball_predicate is None) == (self.component_predicate is None):
            raise ValueError(
                "a problem needs exactly one of a ball predicate and a component predicate"
            )
        if not self.locally_verifiable and self.radius != 0:
            raise ValueError("component-wise-only problems use radius 0")

    @property
    def locally_verifiable(self) -> bool:
        return self.ball_predicate is not None

    def ball_valid(self, ball: BallView, outputs_by_id: Mapping[int, str]) -> bool:
        assert self.ball_predicate is not None
        return bool(self.ball_predicate(ball, outputs_by_id))

    def component_valid(
        self,
        instance: InputInstance,
        component: tuple[int, ...],
        outputs: Mapping[int, str],
    ) -> bool:
        if self.component_predicate is not None:
            return bool(self.component_predicate(instance, component, outputs))
        for v in component:
            ball = extract_ball(instance, v, self.radius)
            if not self.ball_valid(ball, _ball_outputs(instance, ball, outputs)):
                return False
        return True

    def to_jsonable(self) -> dict:
        if self.declarative is None:
            raise ValueError(f"problem {self.name!r} has no declarative form")
        return {k: v for k, v in self.declarative}


def _ball_outputs(
    instance: InputInstance, ball: BallView, outputs: Mapping[int, str]
) -> dict[int, str]:
    return {
        b.identifier: outputs[instance.node_with_id(b.identifier)] for b in ball.nodes
    }


@dataclass(frozen=True)
class VerificationResult:
    """Verdict plus, on failure, the first offending node or component."""

    valid: bool
    witness_node: int | None = None
    witness_component: int | None = None
    witness_view: object | None = None

    def __bool__(self) -> bool:
        return self.valid


def _check_labeling(
    problem: ProblemSpec, instance: InputInstance, outputs: Mapping[int, str]
) -> None:
    allowed = set(problem.output_alphabet)
    for v in range(instance.n):
        if v not in outputs:
            raise ValueError(f"labeling not total: node {v} missing")
        if outputs[v] not in allowed:
            raise ValueError(
                f"label {outputs[v]!r} at node {v} outside the output alphabet"
            )


def verify_locally(
    problem: ProblemSpec, instance: InputInstance, outputs: Mapping[int, str]
) -> VerificationResult:
    """Check the ball predicate at every node, in increasing identifier order.

    The witness on failure is the failing node with the smallest identifier.
    """
    if not problem.locally_verifiable:
        raise ValueError(f"problem {problem.name!r} is not locally verifiable")
    _check_labeling(problem, instance, outputs)
    for v in sorted(range(instance.n), key=instance.identifier):
        ball = extract_ball(instance, v, problem.radius)
        if not problem.ball_valid(ball, _ball_outputs(instance, ball, outputs)):
            return VerificationResult(False, witness_node=v, witness_view=ball)
    return VerificationResult(True)


def verify_componentwise(
    problem: ProblemSpec, instance: InputInstance, outputs: Mapping[int, str]
) -> VerificationResult:
    """Check every connected component against the component predicate."""
    _check_labeling(problem, instance, outputs)
    for idx, comp in enumerate(instance.graph.components):
        restricted = {v: outputs[v] for v in comp}
        if not problem.component_valid(instance, comp, restricted):
            return VerificationResult(
                False, witness_component=idx, witness_view=comp
            )
    return VerificationResult(True)


def verify(
    problem: ProblemSpec, instance: InputInstance, outputs: Mapping[int, str]
) -> VerificationResult:
    """Dispatch to the verifier matching the problem kind."""
    if problem.locally_verifiable:
        return verify_locally(problem, instance, outputs)
    return verify_componentwise(problem, instance, outputs)


# ---------------------------------------------------------------------------
# Compiled verification.  A node's check depends only on its verification
# ball and on the labels of the ball's members, so an instance's checks are
# built once and a labeling is checked by one tuple build and one memo lookup
# per check.  :func:`verify` stays the oracle these checks must agree with.


def _tuple_getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A function from a sequence to the tuple of its items at ``indices``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    (only,) = indices  # itemgetter of one index returns the bare item
    return lambda items: (items[only],)


class Check:
    """One compiled verification check of an instance.

    ``members`` are the node indices whose labels the check reads,
    ``evaluate`` maps the tuple of their labels to the problem's verdict,
    and ``verdicts`` memoizes it.  A locally verifiable problem has one check
    per node: ``ball`` is the node's verification ball and ``members`` follow
    ``ball.nodes`` (so ``members[0]`` is the node).  When checks are shared
    across instances, ``key`` is the ball's canonical key and checks with
    equal keys share ``ball``, ``evaluate`` and ``verdicts``; otherwise
    ``key`` is None and the memo is the check's own.  A component-wise
    problem has one check per instance that reads the whole labeling, with
    ``ball`` and ``key`` None and a memo of its own.
    """

    __slots__ = ("ball", "key", "members", "evaluate", "verdicts", "labels_at")

    def __init__(
        self,
        ball: BallView | None,
        key: str | None,
        members: tuple[int, ...],
        evaluate: Callable[[tuple[str, ...]], bool],
        verdicts: dict[tuple[str, ...], bool],
    ):
        self.ball = ball
        self.key = key
        self.members = members
        self.evaluate = evaluate
        self.verdicts = verdicts
        self.labels_at = _tuple_getter(members)

    def holds(self, labels: Sequence[str | None]) -> bool:
        """The verdict on the labels at ``members``, memoized in ``verdicts``."""
        key = self.labels_at(labels)
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = self.verdicts[key] = self.evaluate(key)
        return verdict


class CompiledCheck:
    """The verification of one instance under one problem, compiled.

    ``checks`` are the instance's :class:`Check` objects in the order
    :func:`verify` visits them: nodes by increasing identifier, or the one
    whole-instance check of a component-wise problem (see
    :func:`compile_checks`).
    """

    __slots__ = ("problem", "instance", "checks", "_alphabet")

    def __init__(
        self,
        problem: ProblemSpec,
        instance: InputInstance,
        checks: tuple[Check, ...],
        alphabet: frozenset[str],
    ):
        self.problem = problem
        self.instance = instance
        self.checks = checks
        self._alphabet = alphabet  # the problem's output labels

    def valid(self, outputs: Mapping[int, str]) -> bool:
        """``verify(problem, instance, outputs).valid``, by memo lookups.

        A labeling that is not total, or that has a label outside the output
        alphabet, goes to :func:`verify`, which raises the same ValueError.
        """
        try:
            labels = tuple([outputs[v] for v in range(self.instance.n)])
        except KeyError:
            labels = None
        if labels is None or not self._alphabet.issuperset(labels):
            return verify(self.problem, self.instance, outputs).valid
        for check in self.checks:
            if not check.holds(labels):
                return False
        return True


def compile_checks(
    problem: ProblemSpec, instances: Iterable[InputInstance]
) -> list[CompiledCheck]:
    """The :class:`CompiledCheck` of each instance, in order, each one's
    checks built once.

    Node checks whose balls have equal canonical keys share one verdict memo
    across all the instances of the call, so each distinct (key, label tuple)
    reaches the problem's predicate once.  A caller that needs one check per
    copy of an input passes the input's first copy's check for each copy
    (:class:`InputClasses`) rather than compiling every copy.
    """
    alphabet = frozenset(problem.output_alphabet)
    shared: dict[str, Check] = {}
    return [
        CompiledCheck(problem, instance, _instance_checks(problem, instance, shared), alphabet)
        for instance in instances
    ]


def _instance_checks(
    problem: ProblemSpec,
    instance: InputInstance,
    shared: dict[str, Check] | None,
    views: Sequence[tuple[BallView, str]] | None = None,
) -> tuple[Check, ...]:
    """The :class:`Check` objects of one instance, in the order :func:`verify`
    visits them.

    With ``shared``, node checks are keyed by their balls' canonical keys and
    checks with equal keys share one verdict memo, registered in ``shared``.
    Without it no key is computed and every check has a memo of its own.
    ``views[v]``, when given, is node ``v``'s verification ball and its
    canonical key, computed by the caller; they are used instead of
    extracting and keying the ball again.
    """
    if not problem.locally_verifiable:
        evaluate = partial(_labeling_verdict, problem, instance)
        return (Check(None, None, tuple(range(instance.n)), evaluate, {}),)
    order = sorted(range(instance.n), key=instance.identifier)
    if views is None:
        balls = (extract_ball(instance, v, problem.radius) for v in order)
        return tuple(_node_check(problem, instance, ball, None, shared) for ball in balls)
    return tuple(_node_check(problem, instance, *views[v], shared) for v in order)


def _node_check(
    problem: ProblemSpec,
    instance: InputInstance,
    ball: BallView,
    key: str | None,
    shared: dict[str, Check] | None,
) -> Check:
    """The check of the node at the center of ``ball``, its verification
    ball; ``key`` is the ball's canonical key, or None to compute it here
    when ``shared`` needs it."""
    members = tuple(map(instance.node_with_id, ball.identifiers))
    if shared is None:
        key = None
    elif key is None:
        key = canonicalize(ball)
    first = None if shared is None else shared.get(key)
    if first is None:
        first = Check(ball, key, members, partial(_ball_verdict, problem, ball), {})
        if shared is not None:
            shared[key] = first
        return first
    return Check(first.ball, key, members, first.evaluate, first.verdicts)


def _ball_verdict(problem: ProblemSpec, ball: BallView, labels: tuple[str, ...]) -> bool:
    return problem.ball_valid(ball, dict(zip(ball.identifiers, labels)))


def _labeling_verdict(
    problem: ProblemSpec, instance: InputInstance, labels: tuple[str, ...]
) -> bool:
    return verify(problem, instance, dict(enumerate(labels))).valid


class SearchBudgetExceeded(RuntimeError):
    """A search hit its configured budget before reaching a verdict."""


def _backtrack(
    order: Sequence[int],
    checks: Iterable[Check],
    alphabet: Sequence[str],
    labels: list[str | None],
) -> bool:
    """Label the positions in ``order`` one by one, trying labels in alphabet
    order and backtracking on the first violated check.

    Each check fires once the last of its members in ``order`` is labeled,
    in the order ``checks`` lists them (:func:`_triggers`).  Returns True
    with ``labels`` holding the first complete assignment that satisfies
    every check, and False once the space is exhausted.  It serves
    :func:`solve_lex_first`, where it is faster than :func:`_cdcl`.
    """
    triggers = _triggers(order, checks)
    depth = 0
    next_try = [0] * len(order)
    width = len(alphabet)
    while 0 <= depth < len(order):
        pos = order[depth]
        if next_try[depth] == width:
            next_try[depth] = 0
            labels[pos] = None
            depth -= 1
            if depth >= 0:
                next_try[depth] += 1
            continue
        labels[pos] = alphabet[next_try[depth]]
        for con in triggers[depth]:
            if not con.holds(labels):
                next_try[depth] += 1
                break
        else:
            depth += 1
    return depth == len(order)


def _triggers(order: Sequence[int], checks: Iterable[Check]) -> list[list[Check]]:
    """``triggers[d]``: the checks, in the order given, whose last member in
    ``order`` is ``order[d]``; they become decidable at search depth ``d``.
    Every member of every check must appear in ``order``."""
    depth_of = {pos: depth for depth, pos in enumerate(order)}
    triggers: list[list[Check]] = [[] for _ in order]
    for check in checks:
        triggers[max(map(depth_of.__getitem__, check.members))].append(check)
    return triggers


def _cdcl(
    checks: Sequence[Check],
    alphabet: Sequence[str],
    labels: list[str | None],
    budget: int | None = None,
) -> tuple[bool, int, int, int]:
    """The lexicographically first labeling of the positions of ``labels``
    that satisfies every check, by conflict-driven clause learning.

    The encoding is one-hot: boolean ``pos * k + i`` says that position
    ``pos`` has label ``alphabet[i]``, with at-least-one and at-most-one
    clauses per position.  Checks are turned into clauses lazily: a check is
    evaluated (:meth:`Check.holds`) once every member is labeled, and when it
    fails, the clause "not all of these members have these labels" joins the
    clause set as the conflict.  Conflicts are analysed to the first unique
    implication point, the learned clause is kept, and the search jumps back
    to the level where that clause asserts (Eén & Sörensson, "An Extensible
    SAT-solver", SAT 2003).  Unit propagation uses two watched literals; a
    check watches one member that is not yet labeled.

    Decisions label the first unlabeled position with its least label not
    yet ruled out, and the search never restarts.  Its first model
    is then the lexicographically first valid labeling S*:

    - every propagated or learned literal is implied by the checks and by
      the decisions on earlier positions;
    - let the model M first differ from S* at position p;
    - if M's label at p was a decision, the labels below it were ruled out by
      decisions on earlier positions, which S* shares, so S*'s label at p is
      no smaller and M would precede S*: impossible;
    - if M's label at p was propagated, it is implied by decisions on earlier
      positions, which S* shares, so S* has the same label at p: impossible.

    Returns ``(found, decisions, checks, conflicts)``: ``found`` is True with
    ``labels`` holding that labeling, and False once the clauses refute every
    labeling.  ``checks`` counts check evaluations.  Raises
    :class:`SearchBudgetExceeded` once decisions exceed ``budget``.
    """
    k = len(alphabet)
    nvars = len(labels) * k
    # literal 2 * var says var is true, literal 2 * var + 1 says it is false
    value = [False] * (2 * nvars)  # value[lit]: lit is assigned true
    level = [0] * nvars
    reason: list[list[int] | None] = [None] * nvars
    seen = [False] * nvars
    watches: list[list[list[int]]] = [[] for _ in range(2 * nvars)]
    chosen = [0] * len(labels)  # the true var of each labeled position
    trail: list[int] = []
    trail_lim: list[int] = []  # trail index of each decision
    qhead = 0
    decisions = evaluated = conflicts = 0

    members = [tuple(set(check.members)) for check in checks]
    check_watch: list[list[int]] = [[] for _ in labels]
    for ci, scope in enumerate(members):
        check_watch[max(scope)].append(ci)

    def assign(lit: int, why: list[int] | None) -> None:
        value[lit] = True
        var = lit >> 1
        level[var] = len(trail_lim)
        reason[var] = why
        trail.append(lit)

    def attach(clause: list[int]) -> None:
        watches[clause[0]].append(clause)
        watches[clause[1]].append(clause)

    def propagate() -> list[int] | None:
        """Unit propagation plus check evaluation; the conflict clause or None.

        A position enters ``labels`` when its true literal is propagated, in
        trail order.  So a check stays on a labeled member only if its other
        members were labeled earlier, and a back-jump that undoes one of them
        undoes the watched member too.
        """
        nonlocal qhead, evaluated
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = lit ^ 1
            ws = watches[false_lit]
            kept = 0
            for i, clause in enumerate(ws):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                first = clause[0]
                if not value[first]:
                    for j in range(2, len(clause)):
                        other = clause[j]
                        if not value[other ^ 1]:
                            clause[1], clause[j] = other, false_lit
                            watches[other].append(clause)
                            break
                    else:
                        ws[kept] = clause
                        kept += 1
                        if value[first ^ 1]:
                            ws[kept:i + 1] = []
                            return clause
                        assign(first, clause)
                    continue
                ws[kept] = clause
                kept += 1
            del ws[kept:]
            if lit & 1:
                continue
            var = lit >> 1
            pos = var // k
            chosen[pos] = var
            labels[pos] = alphabet[var % k]
            cw = check_watch[pos]
            kept = 0
            for i, ci in enumerate(cw):
                for other in members[ci]:
                    if labels[other] is None:
                        check_watch[other].append(ci)
                        break
                else:
                    cw[kept] = ci
                    kept += 1
                    evaluated += 1
                    if not checks[ci].holds(labels):
                        cw[kept:i + 1] = []
                        clause = [2 * chosen[m] + 1 for m in members[ci]]
                        # watch the two literals that were falsified last
                        clause.sort(key=lambda q: level[q >> 1], reverse=True)
                        if len(clause) > 1:
                            attach(clause)
                        return clause
            del cw[kept:]
        return None

    def analyze(conflict: list[int]) -> tuple[list[int], int]:
        """The first-UIP learned clause (asserting literal first, then a
        literal of the back-jump level) and the back-jump level."""
        top = len(trail_lim)
        learned = [0]
        pending = 0
        index = len(trail) - 1
        clause = conflict
        lit = -1
        while True:
            for q in clause if lit < 0 else clause[1:]:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    if level[var] == top:
                        pending += 1
                    else:
                        learned.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            seen[lit >> 1] = False
            pending -= 1
            if pending == 0:
                break
            clause = reason[lit >> 1]
        learned[0] = lit ^ 1
        for q in learned[1:]:
            seen[q >> 1] = False
        if len(learned) == 1:
            return learned, 0
        best = max(range(1, len(learned)), key=lambda i: level[learned[i] >> 1])
        learned[1], learned[best] = learned[best], learned[1]
        return learned, level[learned[1] >> 1]

    for pos in range(len(labels)):
        one_hot = [2 * (pos * k + i) for i in range(k)]
        if k == 1:
            assign(one_hot[0], one_hot)
            continue
        attach(one_hot)
        for a, b in itertools.combinations(one_hot, 2):
            attach([a + 1, b + 1])

    cursor = 0
    while True:
        conflict = propagate()
        if conflict is not None:
            conflicts += 1
            if not trail_lim:
                return False, decisions, evaluated, conflicts
            learned, back = analyze(conflict)
            lim = trail_lim[back]
            # positions before the first undone decision all keep their labels
            cursor = (trail[lim] >> 1) // k
            for lit in trail[lim:]:
                value[lit] = False
                if not lit & 1:
                    labels[(lit >> 1) // k] = None
            del trail[lim:], trail_lim[back:]
            qhead = lim
            if len(learned) > 1:
                attach(learned)
            assign(learned[0], learned)
            continue
        while cursor < len(labels) and labels[cursor] is not None:
            cursor += 1
        if cursor == len(labels):
            return True, decisions, evaluated, conflicts
        decisions += 1
        if budget is not None and decisions > budget:
            raise SearchBudgetExceeded(
                f"table search exceeded its budget of {budget} placements"
            )
        base = 2 * k * cursor
        lit = next(q for q in range(base, base + 2 * k, 2) if not value[q + 1])
        trail_lim.append(len(trail))
        assign(lit, None)


def solve_lex_first(
    problem: ProblemSpec, instance: InputInstance
) -> dict[int, str] | None:
    """Lexicographically smallest valid labeling, or None: the answer of
    :func:`brute_force_solve`, found by backtracking over compiled checks.

    The instance's checks are built once.  Nodes are labeled in increasing
    identifier order with labels in output-alphabet order, and each check
    fires when the last of its members in that order is labeled.  Pruning
    only drops prefixes on which some check already fails, so the first
    complete labeling is the lexicographically smallest valid one.
    """
    order = sorted(range(instance.n), key=instance.identifier)
    checks = _instance_checks(problem, instance, None)
    labels: list[str | None] = [None] * instance.n
    found = _backtrack(order, checks, problem.output_alphabet, labels)
    return {v: labels[v] for v in order} if found else None


def brute_force_solve(
    problem: ProblemSpec, instance: InputInstance
) -> dict[int, str] | None:
    """Lexicographically smallest valid labeling, or None.

    Candidates are ordered by reading nodes in increasing identifier order and
    labels in output-alphabet order, so every caller that solves the same
    labeled graph lands on the same answer.  This is the spec-level oracle:
    it runs :func:`verify` on every candidate.  :func:`solve_lex_first`
    returns the same answer and is what the product calls.
    """
    order = sorted(range(instance.n), key=instance.identifier)
    for combo in itertools.product(problem.output_alphabet, repeat=instance.n):
        outputs = {order[i]: combo[i] for i in range(instance.n)}
        if verify(problem, instance, outputs).valid:
            return outputs
    return None


def solve_ball_component(problem: ProblemSpec, ball: BallView) -> dict[int, str] | None:
    """Canonical solution of a whole component captured inside a view.

    Requires the view to be degree-closed (every node's original degree is
    realized by view edges), which means the view is exactly the component of
    its center.  Returns labels keyed by identifier.
    """
    inside = {b.identifier: 0 for b in ball.nodes}
    for u, v in ball.edges:
        inside[u] += 1
        inside[v] += 1
    for b in ball.nodes:
        if inside[b.identifier] != b.degree:
            raise ValueError(
                f"view is not a whole component: node {b.identifier} has "
                f"{inside[b.identifier]} of {b.degree} edges"
            )
    idents = sorted(inside)
    index = {ident: i for i, ident in enumerate(idents)}
    sub = InputInstance(
        Graph(len(idents), tuple((index[u], index[v]) for u, v in ball.edges)),
        tuple(idents),
        tuple(ball.node(ident).input for ident in idents),
        None,
    )
    solved = solve_lex_first(problem, sub)
    if solved is None:
        return None
    return {idents[i]: solved[i] for i in range(len(idents))}


# ---------------------------------------------------------------------------
# Built-in problems and the declarative radius-1 file format.
#
# The file format is JSON:
#   {"name": ..., "radius": 1, "output_alphabet": [...],
#    "kind": "coloring-like" | "mis-like" | "table",
#    "allowed": [{"center": label,
#                 "neighbors_condition": {"forbid": [...], "require_any": [...]}}]}
# A node is valid iff some allowed entry matches its own label and the
# condition holds over the multiset of its neighbors' labels.  The "allowed"
# list is only consulted for kind "table"; the other kinds derive it.


def _color_labels(k: int) -> tuple[str, ...]:
    if k < 1:
        raise ValueError("need at least one color")
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return tuple(letters[i] if i < 26 else f"C{i + 1}" for i in range(k))


_typed = partial(json_value, error=ProblemFormatError)


def _labels(value, what: str) -> tuple[str, ...]:
    return tuple(_typed(label, str, f"a label of {what}") for label in _typed(value, list, what))


def _allowed_entries_predicate(alphabet: tuple[str, ...], allowed: list) -> BallPredicate:
    by_center: dict[str, list[dict]] = {}
    for entry in allowed:
        if not isinstance(entry, dict) or "center" not in entry:
            raise ProblemFormatError(f"bad allowed entry: {entry!r}")
        center = _typed(entry["center"], str, "a center")
        if center not in alphabet:
            raise ProblemFormatError(f"center label {center!r} outside alphabet")
        cond = _typed(entry.get("neighbors_condition", {}), dict, "a neighbors_condition")
        if not set(cond) <= {"forbid", "require_any"}:
            raise ProblemFormatError(f"bad neighbors_condition: {cond!r}")
        for key in ("forbid", "require_any"):
            for label in _labels(cond.get(key, []), key):
                if label not in alphabet:
                    raise ProblemFormatError(f"label {label!r} outside alphabet")
        by_center.setdefault(center, []).append(cond)

    def predicate(ball: BallView, outputs: Mapping[int, str]) -> bool:
        mine = outputs[ball.center_id]
        neighbor_labels = [outputs[u] for u in ball.neighbors_of_center()]
        for cond in by_center.get(mine, []):
            forbid = set(cond.get("forbid", []))
            require = set(cond.get("require_any", []))
            if any(lab in forbid for lab in neighbor_labels):
                continue
            if require and not any(lab in require for lab in neighbor_labels):
                continue
            return True
        return False

    return predicate


def problem_from_jsonable(obj: Mapping) -> ProblemSpec:
    """Build a problem from the declarative radius-1 format.  Every field must
    have its JSON type; nothing is coerced."""
    try:
        name = _typed(obj["name"], str, "name")
        radius = _typed(obj["radius"], int, "radius")
        alphabet = _labels(obj["output_alphabet"], "output_alphabet")
        kind = _typed(obj["kind"], str, "kind")
    except (KeyError, TypeError) as exc:
        raise ProblemFormatError(f"missing or bad field: {exc}") from exc
    if radius != 1:
        raise ProblemFormatError("declarative problems must use radius 1")
    if not alphabet:
        raise ProblemFormatError("empty output alphabet")

    if kind == "coloring-like":
        allowed = [
            {"center": lab, "neighbors_condition": {"forbid": [lab]}} for lab in alphabet
        ]
    elif kind == "mis-like":
        if len(alphabet) != 2:
            raise ProblemFormatError("mis-like problems need exactly two labels")
        member, outside = alphabet
        allowed = [
            {"center": member, "neighbors_condition": {"forbid": [member]}},
            {"center": outside, "neighbors_condition": {"require_any": [member]}},
        ]
    elif kind == "table":
        allowed = list(_typed(obj.get("allowed", []), list, "allowed"))
        if not allowed:
            raise ProblemFormatError("table problems need a nonempty allowed list")
    else:
        raise ProblemFormatError(f"unknown kind {kind!r}")

    declarative = {
        "name": name,
        "radius": 1,
        "output_alphabet": list(alphabet),
        "kind": kind,
    }
    if kind == "table":
        declarative["allowed"] = allowed
    return ProblemSpec(
        name=name,
        radius=1,
        output_alphabet=alphabet,
        ball_predicate=_allowed_entries_predicate(alphabet, allowed),
        declarative=tuple(sorted(declarative.items(), key=lambda kv: kv[0])),
    )


def make_coloring(k: int) -> ProblemSpec:
    """Proper k-coloring: no neighbor shares the center's label."""
    return problem_from_jsonable(
        {
            "name": f"coloring-{k}",
            "radius": 1,
            "output_alphabet": list(_color_labels(k)),
            "kind": "coloring-like",
        }
    )


def make_mis() -> ProblemSpec:
    """Maximal independent set: IN nodes have no IN neighbor, OUT nodes have one."""
    return problem_from_jsonable(
        {
            "name": "mis",
            "radius": 1,
            "output_alphabet": ["IN", "OUT"],
            "kind": "mis-like",
        }
    )


def load_problem(path: str | Path) -> ProblemSpec:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProblemFormatError("problem file must hold a JSON object")
    return problem_from_jsonable(obj)


def save_problem(problem: ProblemSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(problem.to_jsonable(), indent=2, sort_keys=True) + "\n")


def problem_by_name(name: str) -> ProblemSpec:
    """Resolve CLI-style problem names: 'mis', 'coloring:k', or a file path."""
    if name == "mis":
        return make_mis()
    if name.startswith("coloring:"):
        return make_coloring(int(name.split(":", 1)[1]))
    return load_problem(name)
