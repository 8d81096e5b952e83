"""Round-based synchronous execution of node programs.

Execution model
---------------
All nodes run the same program.  A node initially knows its own identifier,
degree, input label, and a claimed node count (which the runner may set higher
than the true count; programs cannot tell).  Step 0 runs with an empty inbox.
Messages produced at step t are delivered at step t+1; message size is
unconstrained.  A step may send and halt in the same round; the final messages
are still delivered.  The round count of a run is the largest step index at
which some node produced its output, so a program that decides immediately
costs 0 rounds.

Ports: each node's neighbors occupy inbox slots sorted by neighbor identifier,
a convention that is itself a function of the node's labeled neighborhood, so
programs cannot observe anything beyond what their gathered views contain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .graphs import (
    InputClasses,
    InputInstance,
    canonicalize,
    extract_ball,
    input_key,
    json_value,
)
from .problems import Check, CompiledCheck, _triggers
from .streams import (
    DEFAULT_BIT_CAP,
    BitReader,
    BitStream,
    RandomAssignment,
    _exhausted,
    block_digest,
    join_key,
    keyed_bit,
)


class SimulationError(RuntimeError):
    """Round budget overruns, bad output labels, and kindred run failures."""


class LocalityViolation(SimulationError):
    """One view key produced two different outputs during tabulation."""

    def __init__(self, key: str, first: tuple, second: tuple):
        self.key = key
        self.first = first  # (instance index, node, output)
        self.second = second
        super().__init__(
            f"locality violation: key {key} maps to {first[2]!r} at "
            f"instance {first[0]} node {first[1]} but {second[2]!r} at "
            f"instance {second[0]} node {second[1]}"
        )


class TableFormatError(ValueError):
    """A table file that does not hold a well-formed table, or whose labels
    are not labels of the problem it is checked against."""


class IncompleteTableError(LookupError):
    """A lookup asked for a view key the table does not contain."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"incomplete table: no entry for key {key}")


class NodeContext(NamedTuple):
    """What one node sees during one step."""

    round: int
    claimed_n: int
    identifier: int
    degree: int
    input: str
    state: Any
    inbox: tuple[Any, ...]
    bits: BitReader | None = None


@dataclass
class StepResult:
    """What one node does after one step.

    ``send`` is broadcast to every neighbor; ``send_ports`` overrides single
    ports with specific values (port index -> message).  ``output`` set means
    halt with that label after the messages go out.
    """

    send: Any = None
    send_ports: Mapping[int, Any] | None = None
    state: Any = None
    output: str | None = None


@dataclass(frozen=True)
class NodeProgram:
    """A node program: a pure step function plus a round bound as a function
    of the claimed node count.

    A step may read private bits from ``ctx.bits`` when the run supplies
    streams (:func:`run_randomized`), with no a-priori bound on how many; under
    :func:`run_deterministic` ``ctx.bits`` is None.  A step reads bits only
    through ``next_bit`` and ``take``, never through ``position`` or the
    reader's stream, and a step of a randomized program is a pure function
    of its context and the bits it reads.  States, messages and outputs are
    hashable: :func:`compute_success_exact` merges equal configurations.
    """

    name: str
    step: Callable[[NodeContext], StepResult] = field(repr=False)
    round_bound: Callable[[int], int] = field(repr=False)
    output_alphabet: tuple[str, ...] | None = None


@dataclass
class RunResult:
    outputs: dict[int, str]
    rounds: int
    trace: tuple[tuple[int, ...], ...] | None = None


def _claimed(instance: InputInstance, claimed_n: int | None) -> int:
    """The node count a run tells its nodes: ``claimed_n``, or the true count
    when it is None; never below the true count."""
    n = instance.n
    if claimed_n is None:
        return n
    if claimed_n < n:
        raise ValueError(f"claimed node count {claimed_n} below true count {n}")
    return claimed_n


def _inboxes(
    rnd: int, outbox: Sequence[Sequence[Any] | None], layout: tuple
) -> list[tuple[Any, ...]]:
    """Each node's inbox in round ``rnd``: port p of node v holds what its
    p-th neighbor put on its port toward v in ``outbox`` (a per-port row of
    each node, or None when the node sent nothing)."""
    ports, port_of, degrees = layout
    if rnd == 0:
        return list(map((None,).__mul__, degrees))  # (None,) * degree
    return [
        tuple(
            outbox[u][p] if outbox[u] is not None else None
            for u, p in zip(ports[v], port_of[v])
        )
        for v in range(len(degrees))
    ]


def _step(
    step: Callable[[NodeContext], StepResult],
    alphabet: tuple[str, ...] | None,
    ctx: NodeContext,
    v: int,
) -> tuple[Any, tuple[Any, ...] | None, str | None]:
    """Node ``v``'s step on ``ctx``: its new state, what it sends as a
    per-port row (None when it sends nothing), and its output, checked
    against ``alphabet``, the program's output alphabet or None."""
    res = step(ctx)
    send, send_ports = res.send, res.send_ports
    if send_ports:
        per_port = [send] * ctx.degree
        for p, msg in send_ports.items():
            per_port[p] = msg
        row = tuple(per_port)
    elif send is None:
        row = None
    else:
        row = (send,) * ctx.degree
    output = res.output
    # a handful of labels: a tuple scan costs less than building a set
    if output is not None and alphabet is not None and output not in alphabet:
        raise SimulationError(
            f"node {v} emitted label {output!r} outside the output alphabet"
        )
    return res.state, row, output


def _round_budget_error(bound: int, stuck: list[int]) -> SimulationError:
    return SimulationError(
        f"round budget {bound} exceeded; nodes {stuck} never halted"
    )


def _run(
    program: NodeProgram,
    instance: InputInstance,
    claimed_n: int | None,
    readers: list[BitReader] | None,
    trace: bool,
) -> RunResult:
    n = instance.n
    claimed_n = _claimed(instance, claimed_n)
    bound = program.round_bound(claimed_n)
    step, alphabet = program.step, program.output_alphabet or None
    ids, inputs = instance.ids, instance.inputs
    if readers is None:
        readers = [None] * n
    # Port p of node v is its p-th neighbor in increasing identifier order.
    layout = instance.port_layout
    degrees = layout[2]

    state: list[Any] = [None] * n
    halted = [False] * n
    running = n
    outputs: dict[int, str] = {}
    last_output_round = 0
    outbox: list[tuple[Any, ...] | None] = [None] * n
    trace_rows: list[tuple[int, ...]] = []

    for rnd in range(bound + 1):
        inboxes = _inboxes(rnd, outbox, layout)
        new_outbox: list[tuple[Any, ...] | None] = [None] * n
        for v in range(n):
            if halted[v]:
                continue
            ctx = NodeContext(
                rnd,
                claimed_n,
                ids[v],
                degrees[v],
                inputs[v],
                state[v],
                inboxes[v],
                readers[v],
            )
            state[v], new_outbox[v], output = _step(step, alphabet, ctx, v)
            if output is not None:
                outputs[v] = output
                halted[v] = True
                running -= 1
                last_output_round = rnd
        if trace:
            trace_rows.append(
                tuple(
                    0 if row is None else sum(m is not None for m in row)
                    for row in new_outbox
                )
            )
        outbox = new_outbox
        if not running:
            break
    else:
        raise _round_budget_error(bound, [v for v in range(n) if not halted[v]])
    return RunResult(outputs, last_output_round, tuple(trace_rows) if trace else None)


def run_deterministic(
    program: NodeProgram,
    instance: InputInstance,
    claimed_n: int | None = None,
    trace: bool = False,
) -> RunResult:
    """Synchronous run of a deterministic program; every node is told
    ``claimed_n`` as the number of nodes (default: the true count)."""
    return _run(program, instance, claimed_n, None, trace)


def run_randomized(
    program: NodeProgram,
    instance: InputInstance,
    claimed_n: int | None = None,
    *,
    streams: RandomAssignment,
    bit_cap: int = DEFAULT_BIT_CAP,
    trace: bool = False,
) -> RunResult:
    """Run with per-node private bit streams: each node reads the stream that
    ``streams`` assigns to its identifier, so runs replay exactly."""
    stream_for = streams.stream_for
    readers = [BitReader(stream_for(ident), bit_cap) for ident in instance.ids]
    return _run(program, instance, claimed_n, readers, trace)


def fix_randomness(program: NodeProgram, assignment: RandomAssignment) -> NodeProgram:
    """Deterministic program in which each node reads bits from the stream
    assigned to its identifier.

    The wrapped state tracks how many bits the node has consumed so far, so
    the result is a pure step function and running it deterministically agrees
    with :func:`run_randomized` under the same assignment.
    """

    def step(ctx: NodeContext) -> StepResult:
        inner_state, consumed = ctx.state if ctx.state is not None else (None, 0)
        reader = BitReader(assignment.stream_for(ctx.identifier))
        reader.position = consumed
        res = program.step(ctx._replace(state=inner_state, bits=reader))
        return StepResult(
            send=res.send,
            send_ports=res.send_ports,
            state=(res.state, reader.position),
            output=res.output,
        )

    return NodeProgram(
        name=f"{program.name}[fixed:{assignment.description}]",
        step=step,
        round_bound=program.round_bound,
        output_alphabet=program.output_alphabet,
    )


# ---------------------------------------------------------------------------
# Normal-form tables: a radius plus a mapping from canonical view keys to
# output labels.  Running a table costs its radius in rounds (the gather) and
# nothing more.


_typed = partial(json_value, error=TableFormatError)


@dataclass(frozen=True)
class NormalFormTable:
    radius: int
    output_alphabet: tuple[str, ...]
    entries: tuple[tuple[str, str], ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "output_alphabet", tuple(self.output_alphabet))
        if len(set(self.output_alphabet)) != len(self.output_alphabet):
            raise ValueError("output alphabet has duplicate labels")
        entries = tuple(sorted(self.entries))
        object.__setattr__(self, "entries", entries)
        keys = [k for k, _ in entries]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate key in table")
        allowed = set(self.output_alphabet)
        for key, label in entries:
            if label not in allowed:
                raise ValueError(f"table value {label!r} outside the output alphabet")

    @classmethod
    def from_mapping(
        cls,
        radius: int,
        output_alphabet: Sequence[str],
        mapping: Mapping[str, str],
        provenance: str = "",
    ) -> "NormalFormTable":
        return cls(radius, tuple(output_alphabet), tuple(mapping.items()), provenance)

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.entries)

    def lookup(self, key: str) -> str:
        try:
            return self._map[key]
        except KeyError:
            raise IncompleteTableError(key) from None

    @property
    def size(self) -> int:
        return len(self.entries)

    def to_jsonable(self) -> dict:
        return {
            "T": self.radius,
            "output_alphabet": list(self.output_alphabet),
            "entries": [{"key": k, "out": v} for k, v in self.entries],
            "provenance": self.provenance,
        }

    @classmethod
    def from_jsonable(
        cls, obj: object, output_alphabet: Sequence[str] | None = None
    ) -> "NormalFormTable":
        """Parse the file form, raising :class:`TableFormatError` on a missing
        key or a wrong type.  When ``output_alphabet`` (the alphabet of the
        problem the table will be checked against) is given, every label of
        the table's alphabet must belong to it."""
        try:
            obj = _typed(obj, dict, "a table")
            radius = _typed(obj["T"], int, "T")
            alphabet = _typed(obj["output_alphabet"], list, "output_alphabet")
            entries = _typed(obj["entries"], list, "entries")
            entries = [_typed(e, dict, "an entry") for e in entries]
            table = cls(
                radius,
                tuple(_typed(label, str, "an output label") for label in alphabet),
                tuple(
                    (_typed(e["key"], str, "a key"), _typed(e["out"], str, "an output"))
                    for e in entries
                ),
                _typed(obj.get("provenance", ""), str, "provenance"),
            )
        except KeyError as exc:
            raise TableFormatError(f"table is missing the key {exc}") from exc
        except ValueError as exc:
            raise TableFormatError(f"malformed table: {exc}") from exc
        if output_alphabet is not None:
            foreign = [x for x in table.output_alphabet if x not in output_alphabet]
            if foreign:
                raise TableFormatError(
                    f"table labels {foreign} are not in the problem's output "
                    f"alphabet {list(output_alphabet)}"
                )
        return table


def save_table(table: NormalFormTable, path: str | Path) -> None:
    Path(path).write_text(json.dumps(table.to_jsonable(), indent=2, sort_keys=True) + "\n")


def load_table(
    path: str | Path, output_alphabet: Sequence[str] | None = None
) -> NormalFormTable:
    """Read a table file; see :meth:`NormalFormTable.from_jsonable`."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise TableFormatError(f"table file is not valid JSON: {exc}") from exc
    return NormalFormTable.from_jsonable(obj, output_alphabet)


def run_normal_form(table: NormalFormTable, instance: InputInstance) -> dict[int, str]:
    """Each node outputs the table entry for its radius-T view."""
    return {
        v: table.lookup(canonicalize(extract_ball(instance, v, table.radius)))
        for v in range(instance.n)
    }


def table_from_labeling(
    instance: InputInstance,
    radius: int,
    labeling: Mapping[int, str],
    output_alphabet: Sequence[str],
) -> NormalFormTable:
    """Table that reproduces ``labeling`` on ``instance`` (one entry per node;
    identifiers make the keys distinct), with provenance ``"from-labeling"``."""
    mapping = {
        canonicalize(extract_ball(instance, v, radius)): labeling[v]
        for v in range(instance.n)
    }
    return NormalFormTable.from_mapping(radius, output_alphabet, mapping, "from-labeling")


def tabulate(
    program: NodeProgram,
    radius: int,
    family: Sequence[InputInstance],
    claimed_n: int | None = None,
) -> NormalFormTable:
    """Record (radius-T view key -> output) for every node of every instance.

    If one key ever maps to two outputs the program is provably using more
    than ``radius`` rounds of information and :class:`LocalityViolation` is
    raised with both witnesses.  Each distinct input runs once, on its first
    copy in family order (:class:`InputClasses`): a copy has the same keys
    and outputs, so it adds no entry and no conflict, and the first conflict
    or error of the whole family is met in the same instance and node.
    """
    return _tabulate_firsts(
        program, radius, InputClasses.of_instances(family).firsts, claimed_n
    )


def _tabulate_firsts(
    program: NodeProgram,
    radius: int,
    firsts: Iterable[tuple[int, InputInstance]],
    claimed_n: int | None,
) -> NormalFormTable:
    """:func:`tabulate` over a family's first copies (``InputClasses.firsts``:
    family index and instance), for a caller that has grouped it already."""
    entries: dict[str, str] = {}
    origin: dict[str, tuple[int, int, str]] = {}
    for idx, instance in firsts:
        result = run_deterministic(program, instance, claimed_n)
        for v in range(instance.n):
            key = canonicalize(extract_ball(instance, v, radius))
            out = result.outputs[v]
            if key in entries:
                if entries[key] != out:
                    raise LocalityViolation(key, origin[key], (idx, v, out))
            else:
                entries[key] = out
                origin[key] = (idx, v, out)
    alphabet = program.output_alphabet or tuple(sorted(set(entries.values())))
    return NormalFormTable.from_mapping(
        radius, alphabet, entries, provenance=f"tabulate:{program.name}"
    )


# ---------------------------------------------------------------------------
# Success probabilities of randomized programs over a family.

_IMPURE = "program {} read different bits on one read path; its steps are not pure"


def compute_success_exact(
    program: NodeProgram,
    checks: Iterable[CompiledCheck],
    bits: int,
    claimed_n: int | None = None,
) -> list[Fraction]:
    """Exact failure probabilities, one per compiled check of ``checks`` (the
    family's :func:`compile_checks`, in family order), for a program that
    reads at most ``bits`` bits per node (reading further raises).

    The result is the exact fraction of the (2**bits)**n joint choices of
    per-node bit vectors whose run fails verification.  Each bit a node has
    not read yet is a fresh uniform bit, and a node reads only its own
    stream, so within one round the nodes' steps are independent, and what a
    run does after a round depends only on its configuration: each node's
    state, the row of messages it sent, its output and its read position
    (of a node that has halted, only its output and its last row).

    Each instance is evaluated round by round over configurations with
    dyadic weights, starting from the one empty configuration.  In a round,
    each running node walks the tree of the bits its step reads depth first
    (Knuth & Yao, 1976; :class:`_ReadTree`); the walk gives that node's
    distribution over outcomes.  A walk depends only on the node's context
    (round, claimed count, identifier, degree, input, state, inbox) and its
    read position, since steps are pure, so it runs once per distinct
    context and read position of the whole call, whatever node or instance
    meets it.  The product of the nodes' distributions gives the next
    configurations, and equal ones are merged, adding their weights, as
    probabilistic model checkers do (Kwiatkowska, Norman & Parker, "PRISM
    4.0", CAV 2011).  A configuration in which every node has halted is
    checked against the instance's compiled checks (:func:`compile_checks`),
    which agree with :func:`verify`, and its weight counts as failed if they
    reject it.  When every outcome of every node of a configuration halts,
    the product is walked depth first in node order instead, each check
    firing at its last member, and a failing check adds the whole mass below
    it as failed.

    The runs this covers raise what a run would raise: a read past ``bits``
    raises :class:`StreamExhausted` and a read at the bit cap
    :class:`BitBudgetExceeded`, a label outside the program's alphabet or a
    run past the round bound raises :class:`SimulationError`, and so does a
    step that reads different bits when replayed within one walk.  Where
    several runs would raise, the one reported is the first the evaluation
    meets, which need not be the first in global read order (a different
    node's foreign label, say).  A walk that raises is never stored, so the
    walk memo changes neither which error is met first nor its text.
    States, messages and outputs must be hashable; an unhashable one raises
    :class:`SimulationError` naming the program.
    """
    if bits < 0:
        raise ValueError("bit budget must be nonnegative")
    tree = _ReadTree(program, bits)
    walks: dict[tuple, _Outcomes] = {}  # shared by every instance of the call
    return [_exact_failure(tree, compiled, claimed_n, walks) for compiled in checks]


_UNHASHABLE = (
    "program {} has an unhashable state, message or output; exact "
    "probabilities merge equal configurations, which needs them hashable"
)

# One node's entry in a configuration: (state, row, output, read position).
# A node that has halted never steps or reads again, so its entry keeps only
# its output and the row it sent last: (None, row, output, 0).
_Entry = tuple[Any, "tuple[Any, ...] | None", "str | None", int]


class _Outcomes(NamedTuple):
    """One node's outcomes in one round: its distinct entries, each with a
    weight over 2**depth; and, when every entry halts, its labels with their
    weights, else None."""

    entries: list[tuple[_Entry, int]]
    depth: int
    labels: list[tuple[str, int]] | None


class _ReadTree:
    """The bits that one node's step reads in one round, walked depth first.

    :attr:`reader` reads bit ``start + j`` as ``path[j]``.  A bit not yet on
    the path reads as 0 and joins it; after each leaf the deepest 0 of the
    path flips to 1 and the bits after it are dropped, so a leaf at depth d
    weighs 2**-d.  A read at or past ``bits`` raises
    :class:`StreamExhausted`, and the reader's cap raises
    :class:`BitBudgetExceeded`, with the texts a run over the recorded
    all-zeros vector of ``bits`` bits gives.
    """

    def __init__(self, program: NodeProgram, bits: int):
        self.program = program
        self.recorded = min(bits, DEFAULT_BIT_CAP)
        self.path: list[int] = []
        self.start = 0
        stream = BitStream(self._bit, "recorded:" + "0" * self.recorded)
        self.reader = BitReader(stream, DEFAULT_BIT_CAP)

    def _bit(self, i: int) -> int:
        path = self.path
        j = i - self.start
        if j == len(path):
            if i >= self.recorded:
                raise _exhausted(self.recorded)
            path.append(0)
        return path[j]

    def walk(self, ctx: NodeContext, v: int, position: int) -> _Outcomes:
        """Node ``v``'s outcomes of the step on ``ctx``, whose reads start at
        ``position``."""
        program, reader, path = self.program, self.reader, self.path
        step, alphabet = program.step, program.output_alphabet or None
        path.clear()
        self.start = position
        leaves: list[tuple[_Entry, int]] = []
        while True:
            reader.position = position
            state, row, output = _step(step, alphabet, ctx, v)
            if reader.position - position != len(path):
                raise SimulationError(_IMPURE.format(program.name))
            if output is None:
                leaves.append(((state, row, None, reader.position), len(path)))
            else:
                leaves.append(((None, row, output, 0), len(path)))
            while path and path[-1]:
                path.pop()
            if not path:
                break
            path[-1] = 1
        depth = max(d for _, d in leaves)
        entries: dict[_Entry, int] = {}
        try:
            for entry, d in leaves:
                entries[entry] = entries.get(entry, 0) + (1 << (depth - d))
        except TypeError:
            raise SimulationError(_UNHASHABLE.format(program.name)) from None
        labels = None
        if all(entry[2] is not None for entry in entries):
            weights: dict[str, int] = {}
            for entry, w in entries.items():
                weights[entry[2]] = weights.get(entry[2], 0) + w
            labels = list(weights.items())
        return _Outcomes(list(entries.items()), depth, labels)


def _exact_failure(
    tree: _ReadTree,
    compiled: CompiledCheck,
    claimed_n: int | None,
    walks: dict[tuple, _Outcomes],
) -> Fraction:
    """The failure probability of one instance; see
    :func:`compute_success_exact`.  ``walks`` holds the outcomes of the walks
    made so far, keyed by what the step sees and where its reads start."""
    program = tree.program
    instance = compiled.instance
    n = instance.n
    claimed_n = _claimed(instance, claimed_n)
    bound = program.round_bound(claimed_n)
    ids, inputs = instance.ids, instance.inputs
    layout = instance.port_layout
    degrees = layout[2]
    alphabet = frozenset(compiled.problem.output_alphabet)
    triggers: list[list[Check]] | None = None
    # weights, and the failed mass, are numerators over 2**scale
    configs: dict[tuple[_Entry, ...], int] = {((None, None, None, 0),) * n: 1}
    scale = failed = 0
    for rnd in range(bound + 1):
        expanded = []
        for config, weight in configs.items():
            inboxes = _inboxes(rnd, [entry[1] for entry in config], layout)
            nodes: list[_Outcomes] = []
            for v, (state, _row, output, position) in enumerate(config):
                if output is not None:
                    # halted: its last messages were delivered this round
                    entry = (None, None, output, 0)
                    nodes.append(_Outcomes([(entry, 1)], 0, [(output, 1)]))
                    continue
                # the context less the reader, and the read position: no node
                # index, so equal contexts of any node or instance share a walk
                key = (
                    rnd,
                    claimed_n,
                    ids[v],
                    degrees[v],
                    inputs[v],
                    state,
                    inboxes[v],
                    position,
                )
                # its state and inbox were hashed as parts of walk entries
                walked = walks.get(key)
                if walked is None:
                    ctx = NodeContext(*key[:-1], tree.reader)
                    walked = walks[key] = tree.walk(ctx, v, position)
                nodes.append(walked)
            expanded.append((weight, nodes, sum(node.depth for node in nodes)))
        next_scale = scale + max(depth for _, _, depth in expanded)
        failed <<= next_scale - scale
        successors: dict[tuple[_Entry, ...], int] = {}
        for weight, nodes, depth in expanded:
            weight <<= next_scale - scale - depth
            if all(
                node.labels is not None
                and all(label in alphabet for label, _ in node.labels)
                for node in nodes
            ):
                # every outcome halts: no run continues past this round
                if triggers is None:
                    triggers = _triggers(range(n), compiled.checks)
                failed += weight * _failed_share(nodes, triggers)
                continue
            combos = [((), weight)]
            for node in nodes:
                combos = [
                    (entries + (entry,), w * m)
                    for entries, w in combos
                    for entry, m in node.entries
                ]
            for entries, w in combos:
                if all(entry[2] is not None for entry in entries):
                    outputs = {v: entry[2] for v, entry in enumerate(entries)}
                    if not compiled.valid(outputs):
                        failed += w
                    continue
                successors[entries] = successors.get(entries, 0) + w
        if not successors:
            return Fraction(failed, 1 << next_scale)
        configs, scale = successors, next_scale
    first = next(iter(configs))
    raise _round_budget_error(
        bound, [v for v, entry in enumerate(first) if entry[2] is None]
    )


def _failed_share(nodes: list[_Outcomes], triggers: list[list[Check]]) -> int:
    """The failed mass of the product of the nodes' label distributions,
    over 2**(the sum of their depths).

    The product is walked depth first in node order, each check firing at
    its last member (``triggers``, :func:`_triggers`); a failing check adds
    the whole mass below it."""
    n = len(nodes)
    below = [0] * n  # below[v]: the depths of the nodes after v
    for v in range(n - 2, -1, -1):
        below[v] = below[v + 1] + nodes[v + 1].depth
    current: list[str | None] = [None] * n

    def walk(v: int, weight: int) -> int:
        lost = 0
        for label, count in nodes[v].labels:
            current[v] = label
            for check in triggers[v]:
                if not check.holds(current):
                    lost += (weight * count) << below[v]
                    break
            else:
                if v + 1 < n:
                    lost += walk(v + 1, weight * count)
        return lost

    return walk(0, 1) if n else 0


@dataclass(frozen=True)
class McEstimate:
    failure: Fraction  # exact fraction of failing trials
    stderr: float


def estimate_success_mc(
    program: NodeProgram,
    checks: Iterable[CompiledCheck],
    trials: int,
    seed: object,
    bit_cap: int = DEFAULT_BIT_CAP,
    claimed_n: int | None = None,
) -> list[McEstimate]:
    """Monte-Carlo failure estimates with standard errors, one per compiled
    check of ``checks``: one per instance of the family, in family order,
    where a copy of an input may bring its first copy's check
    (:class:`InputClasses`).

    Trial k of instance i reads each node's stream from the key
    (seed, i, k, identifier), so identical seeds replay identical estimates;
    a trial joins (seed, i, k) once and appends each identifier to it.
    Trials stay per instance, but simulations are shared per distinct input
    (:func:`input_key`).  A trial is a pure function of the bits it reads,
    by identifier and stream index, and a copy of an input under a renaming
    of its nodes reads the same bits and fails exactly when the input does.
    So each distinct input keeps one trie of the read paths simulated so
    far, on any of its copies, each ending in its verdict; a trie node names
    an identifier and a stream index, never a node index.  A trial walks its
    input's trie with its own keyed bits, each block of a stream hashed
    once, and runs the program only where the trie has no branch for them.
    That run is of the instance the trial's check holds, on the trial's own
    streams, and is checked against that check (:func:`compile_checks`,
    which agrees with :func:`verify`), so an error names that instance's
    nodes; the CLI passes each copy its first copy's check, so its runs are
    of first copies.  A test whose two branches end in one verdict cannot
    change it, so :func:`_graft` puts the verdict in its place, as the
    reduction rule of decision diagrams does (Bryant, 1986): a trial that
    reaches it hashes no further, and once an input's whole trie is one
    verdict, each remaining trial of its copies counts that verdict without
    a walk.  A collapsed test has no unexplored branch below it, so trials
    miss exactly where they would without it, and the runs, their errors
    and the estimates stay the same.  The tries hold at most one entry per
    bit read by a simulated run, and live for the call.  Every node is told
    ``claimed_n`` as the number of nodes (default: the true count).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    tries: dict[tuple, list] = {}
    estimates: list[McEstimate] = []
    for idx, compiled in enumerate(checks):
        # trie[0] is the root; see _graft for the layout of its nodes
        trie = tries.setdefault(input_key(compiled.instance), [None])
        bad = 0
        instance_key = join_key(seed, idx)
        for k in range(trials):
            node = trie[0]
            if node.__class__ is bool:
                # every read path of the input ends in this verdict, so this
                # trial and the rest end in it: none can miss
                if not node:
                    bad += trials - k
                break
            trial_key = f"{instance_key}|{k}"  # join_key(seed, idx, k)
            # this trial's stream blocks by (identifier, block index)
            digests: dict[tuple[int, int], bytes] = {}
            while node.__class__ is list:
                block = digests.get(node[2])
                if block is None:
                    ident, block_index = node[2]
                    block = digests[node[2]] = block_digest(
                        f"{trial_key}|{ident}", block_index
                    )
                node = node[block[node[3]] >> node[4] & 1]
            if node is None:
                reads: dict[tuple[int, int], int] = {}
                result = run_randomized(
                    program,
                    compiled.instance,
                    claimed_n,
                    streams=RandomAssignment(
                        partial(_trial_stream, trial_key, digests, reads)
                    ),
                    bit_cap=bit_cap,
                )
                node = compiled.valid(result.outputs)
                _graft(trie, reads, node, program.name)
            if not node:
                bad += 1
        p = Fraction(bad, trials)
        stderr = (float(p) * (1.0 - float(p)) / trials) ** 0.5
        estimates.append(McEstimate(p, stderr))
    return estimates


def _trial_stream(
    trial_key: str,
    digests: dict[tuple[int, int], bytes],
    reads: dict[tuple[int, int], int],
    ident: int,
) -> BitStream:
    """Identifier ``ident``'s keyed stream in the trial of the joined key
    ``trial_key``, starting from the blocks the trial's walk hashed,
    ``digests`` by (identifier, block index), and recording each bit it
    gives in ``reads`` under (``ident``, index)."""
    key = f"{trial_key}|{ident}"
    blocks = {b: block for (owner, b), block in digests.items() if owner == ident}

    def getter(i: int) -> int:
        bit = reads[ident, i] = keyed_bit(key, i, blocks)
        return bit

    return BitStream(getter, f"keyed:{key}")


def _graft(
    trie: list, reads: dict[tuple[int, int], int], verdict: bool, name: str
) -> None:
    """Add the read path of a simulated run, its bits by (identifier, index)
    in read order, ending in its verdict, to a trie of
    :func:`estimate_success_mc`.

    An inner node is [child on 0, child on 1, (identifier, block index),
    byte in the block, shift in the byte, (identifier, index)] for the next
    bit read, bit ``index`` of the identifier's stream (:func:`keyed_bit`);
    a leaf is a verdict, of a run or of every run below tests it stands in
    for, and None is a branch no run has taken.  The path was laid down by
    runs of any copy of the input, whose nodes step in another order, so it
    is walked by the run's own bits, whatever order it asks for them in.  A
    pure run reads every bit the path asks for, once, and ends past its last
    inner node, so a path that asks for a bit the run never read, asks for
    one twice, or ends at a leaf raises :class:`SimulationError`.  The reads
    the path did not ask for, left in ``reads``, then extend it, in read
    order.  Then each node up the path whose two branches are that verdict
    is replaced by it, up to the first that is not: only leaves are
    compared, so no branch still None is ever merged away."""
    holder, slot = trie, 0
    path = [(holder, slot)]  # where each node of the path hangs
    node = holder[slot]
    while node.__class__ is list:
        bit = reads.pop(node[5], None)
        if bit is None:
            raise SimulationError(_IMPURE.format(name))
        holder, slot = node, bit
        path.append((holder, slot))
        node = holder[slot]
    if node is not None:
        raise SimulationError(_IMPURE.format(name))
    for read, bit in reads.items():
        ident, index = read
        holder[slot] = node = [
            None, None, (ident, index >> 8), (index & 255) >> 3, 7 - (index & 7), read
        ]
        holder, slot = node, bit
        path.append((holder, slot))
    holder[slot] = verdict
    # a test whose two branches end in one verdict cannot change it: the
    # verdict takes its place, and so on up the path while that holds
    while holder is not trie and holder[1 - slot] is verdict:
        path.pop()
        holder, slot = path[-1]
        holder[slot] = verdict
