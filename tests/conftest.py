"""Shared helpers: random instance generation and independent oracles.

The oracles here re-derive expected values from first principles (all-pairs
distances, full enumeration of mappings or labelings) without touching the
code paths they check.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

from derandlab import (
    DEFAULT_BIT_CAP,
    BitStream,
    Graph,
    InputInstance,
    NodeContext,
    NodeProgram,
    ProblemSpec,
    RandomAssignment,
    SimulationError,
    StepResult,
    canonicalize,
    compile_checks,
    extract_ball,
    problem_by_name,
    run_randomized,
    verify,
)
from derandlab.problems import problem_from_jsonable
from derandlab.programs import (
    first_bit_label_program,
    id_parity_label_program,
    two_bit_label_program,
)


def random_instance(
    rng: random.Random,
    n: int | None = None,
    max_n: int = 8,
    c: int = 1,
    alphabet: tuple[str, ...] = ("a", "b"),
    edge_prob: float = 0.5,
    connected: bool = False,
) -> InputInstance:
    while True:
        size = n if n is not None else rng.randint(1, max_n)
        pairs = list(itertools.combinations(range(size), 2))
        edges = tuple(p for p in pairs if rng.random() < edge_prob)
        graph = Graph(size, edges)
        if connected and not graph.is_connected:
            continue
        ids = tuple(rng.sample(range(1, size**c + 1), size))
        inputs = tuple(rng.choice(alphabet) for _ in range(size))
        return InputInstance(graph, ids, inputs, c)


def floyd_warshall(n: int, edges) -> list[list[float]]:
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return dist


def oracle_ball(instance: InputInstance, v: int, radius: int):
    """Definition-based view: filter nodes by distance and edges by the rule
    min distance <= radius-1, max distance <= radius.  Returns plain sets so
    comparisons are independent of the production representation."""
    g = instance.graph
    dist = floyd_warshall(g.n, g.edges)[v]
    nodes = {
        (dist[u], instance.ids[u], g.degree(u), instance.inputs[u])
        for u in range(g.n)
        if dist[u] <= radius
    }
    edges = set()
    for s, t in g.edges:
        if min(dist[s], dist[t]) <= radius - 1 and max(dist[s], dist[t]) <= radius:
            a, b = sorted((instance.ids[s], instance.ids[t]))
            edges.add((a, b))
    return nodes, edges


def ball_as_sets(ball):
    nodes = {(b.dist, b.identifier, b.degree, b.input) for b in ball.nodes}
    return nodes, set(ball.edges)


def naive_lex_first_table(problem, instances, radius) -> dict[str, str] | None:
    """First valid mapping from realized view keys to labels, by exhaustive
    enumeration of all mappings in lexicographic order."""
    keys = sorted(
        {
            canonicalize(extract_ball(inst, v, radius))
            for inst in instances
            for v in range(inst.n)
        }
    )
    for combo in itertools.product(problem.output_alphabet, repeat=len(keys)):
        mapping = dict(zip(keys, combo))
        if all(
            verify(
                problem,
                inst,
                {
                    v: mapping[canonicalize(extract_ball(inst, v, radius))]
                    for v in range(inst.n)
                },
            ).valid
            for inst in instances
        ):
            return mapping
    return None


def exhaustive_solvable(problem, instance) -> bool:
    """Whether any labeling at all is valid, by full enumeration."""
    order = list(range(instance.n))
    for combo in itertools.product(problem.output_alphabet, repeat=instance.n):
        if verify(problem, instance, dict(zip(order, combo))).valid:
            return True
    return False


def one_leader_problem() -> ProblemSpec:
    """Component-wise-only: each component carries exactly one L."""

    def component_pred(_instance, component, outputs):
        return sum(outputs[v] == "L" for v in component) == 1

    return ProblemSpec(
        name="one-leader",
        radius=0,
        output_alphabet=("F", "L"),
        locally_verifiable=False,
        component_predicate=component_pred,
    )


def copy_neighbor_parity_problem() -> ProblemSpec:
    """A node with a neighbor outputs the parity of its least neighbor's
    identifier.  Every instance is solvable alone, but a radius-0 view sees
    only (id, degree, input), so with c=2 one view needs different outputs
    in different instances."""

    def pred(ball, outputs):
        nbrs = ball.neighbors_of_center()
        if not nbrs:
            return True
        return outputs[ball.center_id] == ("even" if nbrs[0] % 2 == 0 else "odd")

    return ProblemSpec(
        name="copy-neighbor-parity",
        radius=1,
        output_alphabet=("even", "odd"),
        ball_predicate=pred,
    )


def leading_ones_count_problem(cap):
    """Proper coloring by leading-one counts below ``cap``."""
    return problem_from_jsonable(
        {
            "name": f"leading-ones-coloring-{cap}",
            "radius": 1,
            "output_alphabet": [str(count) for count in range(cap)],
            "kind": "coloring-like",
        }
    )


def claimed_size_program(alphabet) -> NodeProgram:
    """Colors by identifier parity when told at least 16 nodes (the claimed
    size of the n=2 family), and by a private bit otherwise."""
    labels = tuple(alphabet)

    def step(ctx: NodeContext) -> StepResult:
        if ctx.claimed_n >= 16:
            return StepResult(output=labels[ctx.identifier % 2])
        return StepResult(output=labels[ctx.bits.next_bit()])

    return NodeProgram("claimed-size", step, lambda _claimed: 0, labels)


def adaptive_two_round_program(alphabet) -> NodeProgram:
    """Reads a bit and sends it.  A node whose neighbors all sent its own
    bit reads a second bit and outputs the label it picks; the others output
    the label of their first bit.  How many bits a node reads depends on its
    neighbors' bits."""
    labels = tuple(alphabet)

    def step(ctx: NodeContext) -> StepResult:
        if ctx.round == 0:
            bit = ctx.bits.next_bit()
            return StepResult(send=bit, state=bit)
        if all(msg == ctx.state for msg in ctx.inbox):
            return StepResult(output=labels[ctx.bits.next_bit()])
        return StepResult(output=labels[ctx.state])

    return NodeProgram("adaptive-two-round", step, lambda _claimed: 1, labels)


def trial_colouring_program(alphabet, phases) -> NodeProgram:
    """Trial colouring with a palette of up to three colours, in ``phases``
    phases of two rounds each, then one last round.

    In the first round of a phase, an uncoloured node drops from its palette
    the colours its neighbours announced, and proposes a colour from it: with
    three colours it reads two bits and sits the phase out on ``11``, with
    two it reads one bit, and with one it reads none.  In the second round
    it keeps its proposal, announcing it and halting, if no neighbour
    proposed the same colour.  In the last round a node still uncoloured
    takes the least colour left in its palette, which may clash with a
    neighbour.  States and messages are tuples, labels or None."""
    labels = tuple(alphabet)

    def step(ctx: NodeContext) -> StepResult:
        rnd = ctx.round
        if rnd % 2:
            palette, proposal = ctx.state
            if proposal is not None and proposal not in ctx.inbox:
                return StepResult(send=proposal, output=proposal)
            return StepResult(state=palette)
        palette = labels if rnd == 0 else tuple(
            colour for colour in ctx.state if colour not in ctx.inbox
        )
        if rnd == 2 * phases:
            return StepResult(output=palette[0])
        if len(palette) == 1:
            pick = 0
        elif len(palette) == 2:
            pick = ctx.bits.next_bit()
        else:
            pick = 2 * ctx.bits.next_bit() + ctx.bits.next_bit()
            if pick == 3:
                return StepResult(state=(palette, None))
        return StepResult(send=palette[pick], state=(palette, palette[pick]))

    return NodeProgram(
        f"trial-colouring[{phases}]", step, lambda _claimed: 2 * phases, labels
    )


# Randomized programs with a problem, an exact bit budget and a claimed node
# count: (program factory, problem, bits, claimed_n).
DIFFERENTIAL_CASES = {
    "first-bit": (first_bit_label_program, "coloring:2", 2, None),
    "two-bit": (two_bit_label_program, "coloring:3", 2, None),
    "id-parity": (id_parity_label_program, "coloring:2", 1, None),
    "claimed-size-told": (claimed_size_program, "coloring:2", 1, 16),
    "claimed-size-untold": (claimed_size_program, "coloring:2", 1, None),
    "adaptive-two-round": (adaptive_two_round_program, "coloring:2", 2, None),
}


def differential_case(name):
    factory, problem_name, bits, claimed_n = DIFFERENTIAL_CASES[name]
    problem = problem_by_name(problem_name)
    return factory(problem.output_alphabet), problem, bits, claimed_n


# ``ReadPath`` as it was in ``derandlab.streams``, kept verbatim: only the
# reference tree walk below, and the tests of the walk's logging, read it.


class ReadPath:
    """The bits one run reads, logged in global read order, and a prefix of
    them to replay.

    :attr:`assignment` gives each of ``identifiers`` a stream that reads
    through the log.  ``reads`` maps each distinct bit read, as (identifier,
    index in its stream), to its place j in read order; a bit read again is
    answered from the first read.  The bit at place j is ``bits[j]`` when
    ``bits`` already holds it (a replayed prefix), and otherwise the bit of
    the identifier's stream in ``source``, appended to ``bits``; a bit that
    ``source`` refuses raises there.  A replayed bit is not asked of
    ``source`` again: a pure run replays its reads.  The streams keep the
    descriptions of ``source``'s streams.
    """

    def __init__(self, source: RandomAssignment, identifiers: Sequence[int]):
        self.bits: list[int] = []
        self.reads: dict[tuple[int, int], int] = {}
        streams = {
            ident: self._logged(ident, source.stream_for(ident)) for ident in identifiers
        }
        self.assignment = RandomAssignment(
            streams.__getitem__, frozenset(streams), f"read-path:{source.description}"
        )

    def _logged(self, ident: int, stream: BitStream) -> BitStream:
        fresh = stream._getter
        bits, reads = self.bits, self.reads

        def getter(i: int) -> int:
            read = (ident, i)
            j = reads.get(read)
            if j is None:
                j = reads[read] = len(reads)
                if j == len(bits):
                    bits.append(fresh(i))
            return bits[j]

        return BitStream(getter, stream.description)

    def replay(self) -> None:
        """Forget what the last run read, but keep ``bits``, as the caller
        left them, as the prefix the next run replays."""
        self.reads.clear()


# ``compute_success_exact`` as it was before runs were merged into
# configurations, kept verbatim as ``reference_tree_walk``: one run per leaf
# of the joint read tree of all the nodes of an instance, in global read
# order.

_IMPURE = "program {} read different bits on one read path; its steps are not pure"


def reference_tree_walk(
    program,
    problem,
    family,
    bits: int,
    claimed_n: int | None = None,
    checks=None,
) -> list[Fraction]:
    """Exact per-instance failure probabilities for a program that reads at
    most ``bits`` bits per node (reading further raises).

    The result is the exact fraction of the (2**bits)**n joint choices of
    per-node bit vectors whose run fails verification.  A run is a pure
    function of the bits its nodes read, in global read order, so each
    instance walks the tree of those read paths depth first (Knuth & Yao,
    1976), one run per leaf: a bit not yet on the current path reads as 0,
    and after each run the deepest 0 of its path flips to 1 and the bits
    after it are dropped.  A leaf at depth d weighs 2**-d.  The walk holds
    only the current path (:class:`ReadPath`), and a program that reads
    fewer bits than the budget needs fewer runs.  Runs are checked against
    the instance's compiled checks (:func:`compile_checks`), which agree
    with :func:`verify`; ``checks``, when given, are the family's compiled
    checks in family order, so a caller can share them with another pass
    over the same family.
    """
    if bits < 0:
        raise ValueError("bit budget must be nonnegative")
    if checks is None:
        checks = compile_checks(problem, family)
    # a read at the run's bit cap raises before it asks the stream
    zeros = BitStream.from_bits((0,) * min(bits, DEFAULT_BIT_CAP))
    source = RandomAssignment(lambda _ident: zeros)
    failures: list[Fraction] = []
    for compiled in checks:
        instance = compiled.instance
        log = ReadPath(source, instance.ids)
        path = log.bits
        failed_at_depth: Counter[int] = Counter()
        while True:
            result = run_randomized(program, instance, claimed_n, streams=log.assignment)
            if len(log.reads) != len(path):
                raise SimulationError(_IMPURE.format(program.name))
            if not compiled.valid(result.outputs):
                failed_at_depth[len(path)] += 1
            while path and path[-1]:
                path.pop()
            if not path:
                break
            path[-1] = 1
            log.replay()
        failures.append(
            sum((Fraction(c, 1 << d) for d, c in failed_at_depth.items()), Fraction(0))
        )
    return failures
