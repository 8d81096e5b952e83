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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .graphs import InputInstance, canonicalize, extract_ball
from .problems import CompiledCheck, ProblemSpec, compile_checks
from .streams import (
    DEFAULT_BIT_CAP,
    BitReader,
    BitStream,
    RandomAssignment,
    ReadPath,
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
    :func:`run_deterministic` ``ctx.bits`` is None.
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


def _run(
    program: NodeProgram,
    instance: InputInstance,
    claimed_n: int | None,
    readers: list[BitReader] | None,
    trace: bool,
) -> RunResult:
    n = instance.n
    if claimed_n is None:
        claimed_n = n
    if claimed_n < n:
        raise ValueError(f"claimed node count {claimed_n} below true count {n}")
    bound = program.round_bound(claimed_n)
    # a handful of labels: a tuple scan costs less than building a set per run
    alphabet = program.output_alphabet or None
    step = program.step
    ids, inputs = instance.ids, instance.inputs
    if readers is None:
        readers = [None] * n

    # Port p of node v is its p-th neighbor in increasing identifier order.
    ports, port_of, degrees = instance.port_layout

    state: list[Any] = [None] * n
    halted = [False] * n
    running = n
    outputs: dict[int, str] = {}
    last_output_round = 0
    outbox: list[list[Any] | None] = [None] * n
    trace_rows: list[tuple[int, ...]] = []

    for rnd in range(bound + 1):
        if rnd == 0:
            inboxes = list(map((None,).__mul__, degrees))  # (None,) * degree
        else:
            inboxes = [
                tuple(
                    outbox[u][p] if outbox[u] is not None else None
                    for u, p in zip(ports[v], port_of[v])
                )
                for v in range(n)
            ]
        new_outbox: list[list[Any] | None] = [None] * n
        sent_counts = [0] * n if trace else None
        for v in range(n):
            if halted[v]:
                continue
            res = step(
                NodeContext(
                    rnd,
                    claimed_n,
                    ids[v],
                    degrees[v],
                    inputs[v],
                    state[v],
                    inboxes[v],
                    readers[v],
                )
            )
            state[v] = res.state
            send, send_ports = res.send, res.send_ports
            if send is not None or send_ports:
                per_port = [send] * degrees[v]
                if send_ports:
                    for p, msg in send_ports.items():
                        per_port[p] = msg
                new_outbox[v] = per_port
                if trace:
                    sent_counts[v] = sum(m is not None for m in per_port)
            output = res.output
            if output is not None:
                if alphabet is not None and output not in alphabet:
                    raise SimulationError(
                        f"node {v} emitted label {output!r} outside the "
                        f"output alphabet"
                    )
                outputs[v] = output
                halted[v] = True
                running -= 1
                last_output_round = rnd
        if trace:
            trace_rows.append(tuple(sent_counts))
        outbox = new_outbox
        if not running:
            break
    else:
        stuck = [v for v in range(n) if not halted[v]]
        raise SimulationError(
            f"round budget {bound} exceeded; nodes {stuck} never halted"
        )
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


def fix_randomness(
    program: NodeProgram,
    assignment: RandomAssignment,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> NodeProgram:
    """Deterministic program in which each node reads bits from the stream
    assigned to its identifier.

    The wrapped state tracks how many bits the node has consumed so far, so
    the result is a pure step function and running it deterministically agrees
    with :func:`run_randomized` under the same assignment.
    """

    def step(ctx: NodeContext) -> StepResult:
        inner_state, consumed = ctx.state if ctx.state is not None else (None, 0)
        reader = BitReader(
            assignment.stream_for(ctx.identifier), cap=bit_cap, start=consumed
        )
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

    def __contains__(self, key: str) -> bool:
        return key in self._map

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
            if not isinstance(obj, Mapping):
                raise TypeError("a table must be a JSON object")
            radius, alphabet, entries = obj["T"], obj["output_alphabet"], obj["entries"]
            provenance = obj.get("provenance", "")
            if type(radius) is not int:
                raise TypeError(f"T must be an integer, not {radius!r}")
            if not isinstance(alphabet, list) or not all(
                isinstance(label, str) for label in alphabet
            ):
                raise TypeError("output_alphabet must be a list of strings")
            if not isinstance(entries, list) or not all(
                isinstance(e, Mapping) for e in entries
            ):
                raise TypeError("entries must be a list of objects")
            pairs = tuple((e["key"], e["out"]) for e in entries)
            if not all(isinstance(k, str) and isinstance(o, str) for k, o in pairs):
                raise TypeError("entry keys and outputs must be strings")
            if not isinstance(provenance, str):
                raise TypeError("provenance must be a string")
            table = cls(radius, tuple(alphabet), pairs, provenance)
        except KeyError as exc:
            raise TableFormatError(f"table is missing the key {exc}") from exc
        except (TypeError, ValueError) as exc:
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
    provenance: str = "from-labeling",
) -> NormalFormTable:
    """Table that reproduces ``labeling`` on ``instance`` (one entry per node;
    identifiers make the keys distinct)."""
    mapping = {
        canonicalize(extract_ball(instance, v, radius)): labeling[v]
        for v in range(instance.n)
    }
    return NormalFormTable.from_mapping(radius, output_alphabet, mapping, provenance)


def tabulate(
    program: NodeProgram,
    radius: int,
    family: Sequence[InputInstance],
    claimed_n: int | None = None,
) -> NormalFormTable:
    """Record (radius-T view key -> output) for every node of every instance.

    If one key ever maps to two outputs the program is provably using more
    than ``radius`` rounds of information and :class:`LocalityViolation` is
    raised with both witnesses.
    """
    entries = _tabulate(program, radius, family, claimed_n)
    alphabet = program.output_alphabet or tuple(sorted(set(entries.values())))
    return NormalFormTable.from_mapping(
        radius, alphabet, entries, provenance=f"tabulate:{program.name}"
    )


def _tabulate(
    program: NodeProgram,
    radius: int,
    family: Sequence[InputInstance],
    claimed_n: int | None,
    accept: Callable[[int, InputInstance, dict[int, str]], None] | None = None,
) -> dict[str, str]:
    """The loop of :func:`tabulate`: run the program on each instance in
    family order and record each node's output under its radius-T view key.

    ``accept(index, instance, outputs)``, when given, sees each run before it
    is recorded and may raise to stop the loop.
    """
    entries: dict[str, str] = {}
    origin: dict[str, tuple[int, int, str]] = {}
    for idx, instance in enumerate(family):
        result = run_deterministic(program, instance, claimed_n)
        if accept is not None:
            accept(idx, instance, result.outputs)
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


# ---------------------------------------------------------------------------
# Success probabilities of randomized programs over a family.

_IMPURE = "program {} read different bits on one read path; its steps are not pure"


def compute_success_exact(
    program: NodeProgram,
    problem: ProblemSpec,
    family: Sequence[InputInstance],
    bits: int,
    claimed_n: int | None = None,
    checks: Iterable[CompiledCheck] | None = None,
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


@dataclass(frozen=True)
class McEstimate:
    failure: Fraction  # exact fraction of failing trials
    stderr: float


def estimate_success_mc(
    program: NodeProgram,
    problem: ProblemSpec,
    family: Sequence[InputInstance],
    trials: int,
    seed: object,
    bit_cap: int = DEFAULT_BIT_CAP,
    claimed_n: int | None = None,
) -> list[McEstimate]:
    """Per-instance Monte-Carlo failure estimates with standard errors.

    Trial k of instance i reads each node's stream from the key
    (seed, i, k, identifier), so identical seeds replay identical estimates.
    A trial is a pure function of the bits it reads, so each instance keeps
    a trie of the read paths simulated so far, each ending in its verdict.
    A trial walks the trie with its own keyed bits and runs the program only
    where the trie has no branch for them.  The trie holds at most one entry
    per bit read by a simulated run of the instance, and is dropped after
    the instance.  Runs are checked against the instance's compiled checks
    (:func:`compile_checks`), which agree with :func:`verify`.  Every node is
    told ``claimed_n`` as the number of nodes (default: the true count).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    estimates: list[McEstimate] = []
    for idx, compiled in enumerate(compile_checks(problem, family)):
        instance = compiled.instance
        # trie[0] is the root.  An inner node is [identifier, index, child on
        # 0, child on 1] for the next bit read; a leaf is a run's verdict.
        trie: list = [None]
        bad = 0
        instance_key = join_key(seed, idx)
        for k in range(trials):
            # the keys and digests of this trial's streams, by identifier;
            # joining the joined instance key gives join_key(seed, idx, k, ident)
            streams: dict[int, tuple[str, dict[int, bytes]]] = {}
            node = trie[0]
            while node.__class__ is list:
                ident = node[0]
                stream = streams.get(ident)
                if stream is None:
                    stream = streams[ident] = (join_key(instance_key, k, ident), {})
                node = node[2 + keyed_bit(stream[0], node[1], stream[1])]
            if node is None:
                log = ReadPath(RandomAssignment.from_seed(seed, idx, k), instance.ids)
                result = run_randomized(
                    program, instance, claimed_n, streams=log.assignment, bit_cap=bit_cap
                )
                node = compiled.valid(result.outputs)
                _graft(trie, log, node, program.name)
            if not node:
                bad += 1
        p = Fraction(bad, trials)
        stderr = (float(p) * (1.0 - float(p)) / trials) ** 0.5
        estimates.append(McEstimate(p, stderr))
    return estimates


def _graft(trie: list, log: ReadPath, verdict: bool, name: str) -> None:
    """Add the read path of a simulated run, ending in its verdict, to the
    trie of :func:`estimate_success_mc`."""
    holder, slot = trie, 0
    for (ident, index), bit in zip(log.reads, log.bits):
        node = holder[slot]
        if node is None:
            node = holder[slot] = [ident, index, None, None]
        elif node.__class__ is not list or node[0] != ident or node[1] != index:
            raise SimulationError(_IMPURE.format(name))
        holder, slot = node, 2 + bit
    if holder[slot] is not None:
        raise SimulationError(_IMPURE.format(name))
    holder[slot] = verdict
