"""Small labeled graphs, exhaustive input families, and radius-bounded views.

Everything here is desk scale: node counts stay in the single digits, so the
representations favor clarity and determinism over asymptotics.  All types are
immutable after construction; enumeration order is fixed and documented so
that repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _input_literal
from operator import itemgetter
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

# Identifier spaces larger than a 64-bit word are rejected by
# extend_instance (count formulas still evaluate exactly, via native big
# integers).
MAX_ID_SPACE = 2**63 - 1

# The enumerators list every injective identifier tuple of each graph, and
# itertools.permutations copies the whole identifier space before it yields
# a tuple, so a family with more tuples per graph than this is rejected
# before anything is allocated: n=3 at c=30 would copy 3**30 identifiers.
# So is a family with more instances (tuples times input labelings) per
# graph.  Listing even this many per graph takes minutes; every n <= 6 at
# c=1, and n <= 4 at c=2 (43,680 tuples), is well inside it.
MAX_ID_TUPLES = 2**20

# A family of more instances than this is refused before any copy is listed:
# n=6 has 23,592,960, whose listing runs out of memory, while its 32,768
# first copies (:meth:`InputClasses.of_spec`) are cheap.  n=6 with
# max_degree 1 (54,720), n=5 with two input labels (3,932,160) and n=4 at
# c=2 (2,795,520) are inside it.
MAX_INSTANCES = 2**22


class InstanceFormatError(ValueError):
    """An instance record or instance file line that does not describe a
    valid instance."""


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def json_value(value, kind: type, what: str, error: type[ValueError]):
    """``value`` itself if it has the JSON type ``kind`` (an integer is never
    a boolean); anything else raises ``error``.  File loaders coerce nothing."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise error(f"{what} must be {_JSON_TYPES[kind]}, not {value!r}")
    return value


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    Edges are stored as sorted (lo, hi) pairs; self-loops and parallel edges
    are rejected rather than silently dropped.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("node count must be positive")
        seen: set[tuple[int, int]] = set()
        cleaned = []
        for edge in self.edges:
            u, v = edge
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {edge!r} out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            key = _normalize_edge(u, v)
            if key in seen:
                raise ValueError(f"parallel edge {key!r}")
            seen.add(key)
            cleaned.append(key)
        object.__setattr__(self, "edges", tuple(sorted(cleaned)))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(lst)) for lst in nbrs)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def bfs_distances(self, source: int) -> dict[int, int]:
        """Distances from ``source`` to every reachable node."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted node tuples, ordered by least node."""
        seen: set[int] = set()
        comps = []
        for v in range(self.n):
            if v in seen:
                continue
            comp = sorted(self.bfs_distances(v))
            seen.update(comp)
            comps.append(tuple(comp))
        return tuple(comps)

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1


@dataclass(frozen=True)
class InputInstance:
    """One input: a graph with unique identifiers and input labels.

    ``ids[v]`` and ``inputs[v]`` are indexed by node.  When ``c`` is set the
    identifiers must lie in {1, ..., n**c}; derived instances (components cut
    out of a larger instance, disjoint unions) may carry ``c=None`` and then
    only injectivity and positivity are enforced.
    """

    graph: Graph
    ids: tuple[int, ...]
    inputs: tuple[str, ...]
    c: int | None = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        n = self.graph.n
        if len(self.ids) != n or len(self.inputs) != n:
            raise ValueError("ids and inputs must cover every node")
        if len(set(self.ids)) != n:
            raise ValueError("identifiers must be injective")
        if any(i < 1 for i in self.ids):
            raise ValueError("identifiers must be positive")
        if self.c is not None:
            if self.c < 1:
                raise ValueError("identifier exponent must be >= 1")
            largest = max(self.ids)
            # for n >= 2, n**c >= 2**c exceeds every identifier once c reaches
            # their bit length; skipping n**c there keeps a huge c from a file cheap
            if (n == 1 or self.c < largest.bit_length()) and largest > n**self.c:
                raise ValueError(f"identifier out of range 1..{n**self.c}")

    @classmethod
    def _trusted(
        cls, graph: Graph, ids: tuple[int, ...], inputs: tuple[str, ...], c: int
    ) -> "InputInstance":
        """An instance from parts that are valid by construction, built
        without :meth:`__post_init__`.  Only :func:`enumerate_instances`
        and :meth:`InputClasses.of_spec` call it; every other instance is
        validated."""
        instance = object.__new__(cls)
        fields = instance.__dict__
        fields["graph"] = graph
        fields["ids"] = ids
        fields["inputs"] = inputs
        fields["c"] = c
        return instance

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def _id_to_node(self) -> dict[int, int]:
        return {ident: v for v, ident in enumerate(self.ids)}

    def node_with_id(self, identifier: int) -> int:
        return self._id_to_node[identifier]

    @cached_property
    def port_layout(
        self,
    ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """``(ports, port_of, degrees)`` as the round simulator sees them:
        ``ports[v][p]`` is the p-th neighbor of ``v`` in increasing identifier
        order, ``port_of[v][p]`` is the port under which that neighbor sees
        ``v``, and ``degrees[v]`` is the degree of ``v``."""
        ports = tuple(
            tuple(sorted(self.graph.neighbors(v), key=self.identifier))
            for v in range(self.n)
        )
        port_of = tuple(tuple(ports[u].index(v) for u in ports[v]) for v in range(self.n))
        return ports, port_of, tuple(map(len, ports))

    def identifier(self, v: int) -> int:
        return self.ids[v]


@dataclass(frozen=True)
class InstanceFamilySpec:
    """Parameters of an exhaustive input family.

    The family consists of every simple graph on ``n`` nodes, every injective
    identifier assignment into {1, ..., n**c}, and every input labeling over
    ``input_alphabet``; ``max_degree`` optionally filters the graphs.
    """

    n: int
    c: int = 1
    input_alphabet: tuple[str, ...] = ("x",)
    max_degree: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_alphabet", tuple(self.input_alphabet))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if not self.input_alphabet:
            raise ValueError("input alphabet must be nonempty")
        if len(set(self.input_alphabet)) != len(self.input_alphabet):
            raise ValueError("input alphabet has duplicate labels")
        if self.max_degree is not None and not 0 <= self.max_degree <= self.n - 1:
            raise ValueError("max_degree must satisfy 0 <= max_degree <= n-1")

    @property
    def id_space_size(self) -> int:
        return self.n**self.c

    @property
    def id_space(self) -> range:
        return range(1, self.id_space_size + 1)


def _id_tuple_count(spec: InstanceFamilySpec) -> int:
    """The number of injective identifier tuples per graph of ``spec``'s
    family; raises ``ValueError`` when it, the count times the number of
    input labelings, or the number of edge sets the enumerators sweep
    (``2 ** (n * (n - 1) / 2)``, so every n >= 7) exceeds
    :data:`MAX_ID_TUPLES`.  Both enumerators call it before they allocate
    anything."""
    n = spec.n
    # n**c >= 2**c once n >= 2, so a c this large is over the limit and n**c
    # is not computed; otherwise every factor but the last is >= 2, so the
    # product passes the limit within a few factors
    count = MAX_ID_TUPLES + 1 if n > 1 and spec.c >= MAX_ID_TUPLES.bit_length() else 1
    for k in range(n):
        if count > MAX_ID_TUPLES:
            break
        count *= spec.id_space_size - k
    if count > MAX_ID_TUPLES:
        raise ValueError(
            f"the family of n={n} at c={spec.c} has more than {MAX_ID_TUPLES} "
            "identifier tuples per graph, too many to enumerate"
        )
    # count >= n! here, so n <= 9 and the power stays small
    if count * len(spec.input_alphabet) ** n > MAX_ID_TUPLES:
        raise ValueError(
            f"the family of n={n} with {len(spec.input_alphabet)} input labels has "
            f"more than {MAX_ID_TUPLES} instances per graph, too many to enumerate"
        )
    if 2 ** (n * (n - 1) // 2) > MAX_ID_TUPLES:
        raise ValueError(
            f"the family of n={n} has more than {MAX_ID_TUPLES} edge sets, "
            "too many to enumerate"
        )
    return count


def _check_family_size(spec: InstanceFamilySpec, size: int) -> None:
    """Raise ``ValueError`` when ``size``, the number of instances of
    ``spec``'s family, exceeds :data:`MAX_INSTANCES`."""
    if size > MAX_INSTANCES:
        raise ValueError(
            f"the family of n={spec.n} has more than {MAX_INSTANCES} instances, "
            "too many to enumerate"
        )


def enumerate_instances(spec: InstanceFamilySpec) -> Iterator[InputInstance]:
    """Yield the full family in a fixed order.

    Order: edge sets by ascending bitmask over the lexicographic pair list
    (0,1), (0,2), ..., (n-2,n-1); then identifier assignments in lexicographic
    tuple order; then input labelings in lexicographic alphabet order.
    A family of more than :data:`MAX_INSTANCES` instances raises
    ``ValueError`` before the first one is yielded.
    """
    tuples = _id_tuple_count(spec)
    n = spec.n
    # identifiers are distinct picks from 1..n**c and labels come from the
    # alphabet, so every instance is valid by construction
    instance = InputInstance._trusted
    pairs = list(itertools.combinations(range(n), 2))
    graphs = [
        Graph(n, tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1))
        for mask in range(2 ** len(pairs))
    ]
    if spec.max_degree is not None:
        graphs = [graph for graph in graphs if graph.max_degree <= spec.max_degree]
    _check_family_size(spec, len(graphs) * tuples * len(spec.input_alphabet) ** n)
    for graph in graphs:
        for ids in itertools.permutations(spec.id_space, n):
            for labels in itertools.product(spec.input_alphabet, repeat=n):
                yield instance(graph, ids, labels, spec.c)


def input_key(instance: InputInstance) -> tuple:
    """The key of the input that ``instance`` is a copy of: its sorted
    (identifier, input) pairs and its sorted edges between identifiers.  Two
    instances have equal keys exactly when renaming the node indices of one
    gives the other."""
    ids = instance.ids
    edges = [_normalize_edge(ids[u], ids[v]) for u, v in instance.graph.edges]
    return tuple(sorted(zip(ids, instance.inputs))), tuple(sorted(edges))


class InputClasses:
    """A family's distinct inputs, each with the family index of every copy.

    Two instances are one input when renaming the node indices of one gives
    the other, that is, when they have the same (identifier, input) pairs and
    the same edges between identifiers (:func:`input_key`).
    :func:`enumerate_instances` lists each input once per renaming, n! times.

    ``size`` is the number of instances.  ``firsts`` lists ``(index,
    instance)`` for the first copy of each distinct input, in family order,
    so class ``k`` is the input of ``firsts[k]`` and classes are numbered in
    order of first appearance.  ``copies[i]`` is ``(k, perm)`` for instance
    ``i``: its class, and ``perm[v]``, the node of the first copy with the
    identifier of the instance's node ``v``.  ``copies`` is built on first
    use, so a pass that needs only the first copies never builds it; for a
    family of more than :data:`MAX_INSTANCES` instances it raises
    ``ValueError`` instead.

    Nothing a step, a view key or a verdict sees depends on node indices, so
    every copy of an input behaves exactly like its first copy, and a pass
    over ``firsts`` in order meets the first failure of a pass over all the
    instances, in the same instance.  Per-node results carry over too: node
    ``v`` of a copy gets what node ``perm[v]`` of the first copy got, since
    a renaming maps each node to the node with its identifier.  This is how
    every pass over a family runs once per input.
    """

    def __init__(
        self,
        size: int,
        firsts: list[tuple[int, InputInstance]],
        copies: Callable[[], list[tuple[int, tuple[int, ...]]]],
    ) -> None:
        self.size = size
        self.firsts = firsts
        self._copies = copies

    @cached_property
    def copies(self) -> list[tuple[int, tuple[int, ...]]]:
        return self._copies()

    @classmethod
    def of_instances(cls, instances: Sequence[InputInstance]) -> "InputClasses":
        """The classes of any list of instances, duplicates and all, such as
        an instance file, at the cost of keying every instance with
        :func:`input_key`; :meth:`of_spec` finds the same classes of a spec
        family without listing the copies."""
        first: dict[tuple, int] = {}
        firsts: list[tuple[int, InputInstance]] = []
        class_of: list[int] = []
        for i, instance in enumerate(instances):
            k = first.setdefault(input_key(instance), len(firsts))
            if k == len(firsts):
                firsts.append((i, instance))
            class_of.append(k)

        def copies():
            return [
                (k, tuple(map(firsts[k][1].node_with_id, instance.ids)))
                for instance, k in zip(instances, class_of)
            ]

        return cls(len(instances), firsts, copies)

    @classmethod
    def of_spec(cls, spec: InstanceFamilySpec) -> "InputClasses":
        """The classes of the family :func:`enumerate_instances` lists for
        ``spec``, built without building or keying a single copy.

        Renaming the nodes by ``s`` (node ``v`` of the copy is node ``s[v]``
        of the original) maps an instance at edge mask ``M`` to one at the
        mask image ``M∘s``, with identifiers ``ids∘s`` and labels
        ``labels∘s``.  Masks come first in family order, so an input's first
        copy sits at the least mask of its orbit, and there at the least
        identifier tuple among the renamings that fix ``M`` (identifiers
        are distinct, so no two renamings give the same tuple).  So the
        masks are swept in ascending order; the first one not yet seen is
        its orbit's least, and its first copies are its identifier tuples
        that no automorphism makes smaller, each with every labeling.  The
        copy ``s`` of a first copy has ``perm`` ``s`` and the family index
        ``offset[M∘s] + rank(ids∘s) * |alphabet|**n + rank(labels∘s)``.
        """
        n = spec.n
        tuples = _id_tuple_count(spec)
        labelings = len(spec.input_alphabet) ** n
        pairs = list(itertools.combinations(range(n), 2))
        pair_index = {pair: p for p, pair in enumerate(pairs)}
        renamings = list(itertools.permutations(range(n)))
        # an itemgetter per renaming reads a tuple in renamed order
        renamed = [itemgetter(*s) for s in renamings]
        # (p, q) in moves[s]: bit p of the mask image under s is bit q of the mask
        moves = [
            [(p, pair_index[_normalize_edge(s[u], s[v])]) for p, (u, v) in enumerate(pairs)]
            for s in renamings
        ]
        orbits = []  # (least mask, its graph, its image under each renaming)
        seen = bytearray(2 ** len(pairs))
        passing = []
        for mask in range(2 ** len(pairs)):
            if not seen[mask]:
                images = [
                    sum((mask >> q & 1) << p for p, q in move) for move in moves
                ]
                for image in images:
                    seen[image] = 1
                edges = tuple(pairs[p] for p in range(len(pairs)) if mask >> p & 1)
                graph = Graph(n, edges)
                # the degree multiset is the same on the whole orbit
                if spec.max_degree is None or graph.max_degree <= spec.max_degree:
                    orbits.append((mask, graph, images))
                    passing.extend(images)
        block = tuples * labelings
        offset = {mask: rank * block for rank, mask in enumerate(sorted(set(passing)))}
        size = len(offset) * block

        firsts: list[tuple[int, InputInstance]] = []
        image_offsets: list[list[int]] = []  # per class, offset[M∘s] for each s
        instance = InputInstance._trusted
        for mask, graph, images in orbits:
            # the renamings other than the identity (the first) that fix the mask
            automorphisms = [get for get, image in zip(renamed[1:], images[1:]) if image == mask]
            offsets = [offset[image] for image in images]
            for r, ids in enumerate(itertools.permutations(spec.id_space, n)):
                if all(ids < get(ids) for get in automorphisms):
                    index = offset[mask] + r * labelings
                    for j, labels in enumerate(
                        itertools.product(spec.input_alphabet, repeat=n)
                    ):
                        firsts.append((index + j, instance(graph, ids, labels, spec.c)))
                        image_offsets.append(offsets)

        def copies():
            _check_family_size(spec, size)
            # key reads a tuple as the renamed getters do: unchanged, and for
            # n=1 as its lone item, not a tuple
            key = itemgetter(*range(n))
            id_rank = {
                key(ids): r for r, ids in enumerate(itertools.permutations(spec.id_space, n))
            }
            label_rank = {
                key(labels): j
                for j, labels in enumerate(itertools.product(spec.input_alphabet, repeat=n))
            }
            out: list = [None] * size
            for k, ((_, first), offsets) in enumerate(zip(firsts, image_offsets)):
                ids, labels = first.ids, first.inputs
                for s, get, base in zip(renamings, renamed, offsets):
                    out[base + id_rank[get(ids)] * labelings + label_rank[get(labels)]] = (k, s)
            return out

        return cls(size, firsts, copies)


def count_bound(spec: InstanceFamilySpec) -> int:
    """Closed-form upper bound on the family size (exact integer arithmetic).

    Evaluates 2**C(n,2) * n**(c*n) * |alphabet|**n.  The middle factor counts
    identifier assignments as arbitrary (not necessarily injective) maps into
    the identifier space, so the bound dominates the enumerated count whenever
    ``max_degree`` is unset.
    """
    n, c = spec.n, spec.c
    return 2 ** math.comb(n, 2) * n ** (c * n) * len(spec.input_alphabet) ** n


class BallNode(NamedTuple):
    """A node as seen inside a view: identifier, degree in the full graph,
    input label, and distance from the view's center."""

    identifier: int
    degree: int
    input: str
    dist: int


@dataclass(frozen=True)
class BallView:
    """The radius-T view around a center node.

    Contains every node within distance T of the center and every edge {s, t}
    with d(center, s) <= T-1 and d(center, t) <= T.  Degrees are the original
    graph degrees, not degrees within the view.  Nodes are stored sorted by
    (distance, identifier) and edges as sorted identifier pairs, so identical
    labeled structures compare equal regardless of construction order.
    """

    radius: int
    nodes: tuple[BallNode, ...]
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        nodes = tuple(sorted(self.nodes, key=lambda b: (b.dist, b.identifier)))
        edges = tuple(sorted(_normalize_edge(u, v) for u, v in self.edges))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        if not nodes or nodes[0].dist != 0 or sum(b.dist == 0 for b in nodes) != 1:
            raise ValueError("view must contain exactly one center at distance 0")
        ids = {b.identifier for b in nodes}
        if len(ids) != len(nodes):
            raise ValueError("duplicate identifier in view")
        dist = {b.identifier: b.dist for b in nodes}
        if any(b.dist > self.radius for b in nodes):
            raise ValueError("node beyond the view radius")
        for u, v in edges:
            if u not in ids or v not in ids:
                raise ValueError(f"edge ({u},{v}) touches an unknown identifier")
            du, dv = dist[u], dist[v]
            if abs(du - dv) > 1:
                raise ValueError(f"edge ({u},{v}) joins distances {du} and {dv}")
            if min(du, dv) > self.radius - 1 or max(du, dv) > self.radius:
                raise ValueError(f"edge ({u},{v}) violates the view edge rule")

    @classmethod
    def _trusted(
        cls,
        radius: int,
        nodes: tuple[BallNode, ...],
        edges: tuple[tuple[int, int], ...],
    ) -> "BallView":
        """A view from parts that are valid and in canonical order by
        construction, built without :meth:`__post_init__`.  Only
        :func:`extract_ball` calls it; every other view is validated."""
        view = object.__new__(cls)
        fields = view.__dict__
        fields["radius"] = radius
        fields["nodes"] = nodes
        fields["edges"] = edges
        return view

    @property
    def center_id(self) -> int:
        return self.nodes[0].identifier

    @cached_property
    def _by_id(self) -> dict[int, BallNode]:
        return {b.identifier: b for b in self.nodes}

    def node(self, identifier: int) -> BallNode:
        return self._by_id[identifier]

    @property
    def identifiers(self) -> tuple[int, ...]:
        return tuple(b.identifier for b in self.nodes)

    def neighbors_of_center(self) -> tuple[int, ...]:
        c = self.center_id
        out = [v if u == c else u for u, v in self.edges if c in (u, v)]
        return tuple(sorted(out))


def extract_ball(instance: InputInstance, v: int, radius: int) -> BallView:
    """Radius-``radius`` view of node ``v``: nodes within distance T, edges
    with one endpoint within T-1 and the other within T."""
    if not 0 <= v < instance.n:
        raise ValueError(f"node {v} not in instance")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    adjacency = instance.graph.adjacency
    ids = instance.ids
    inputs = instance.inputs
    # breadth-first search that stops at the radius; sorting each level by
    # identifier lists the nodes by (distance, identifier), as BallView does
    dist = {v: 0}
    nodes = [BallNode(ids[v], len(adjacency[v]), inputs[v], 0)]
    frontier = [v]
    for d in range(1, radius + 1):
        reached = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = d
                    reached.append(w)
        if not reached:
            break
        reached.sort(key=ids.__getitem__)
        nodes += [BallNode(ids[u], len(adjacency[u]), inputs[u], d) for u in reached]
        frontier = reached
    # an edge is in the view iff an endpoint lies within radius-1; the other
    # endpoint is then within the radius.  Each edge is taken once: from its
    # smaller endpoint, or from its only endpoint within radius-1.
    inner = radius - 1
    edges = []
    for u, du in dist.items():
        if du > inner:
            continue
        iu = ids[u]
        for w in adjacency[u]:
            if u < w or dist[w] > inner:
                iw = ids[w]
                edges.append((iu, iw) if iu < iw else (iw, iu))
    edges.sort()
    return BallView._trusted(radius, tuple(nodes), tuple(edges))


def canonicalize(ball: BallView) -> str:
    """Deterministic text key of a view.

    The key is the compact JSON of [radius, nodes, edges] with nodes as
    [dist, identifier, degree, input] sorted by (dist, identifier), edges as
    sorted identifier pairs, and non-ASCII characters escaped.  It is built
    directly, not through :func:`json.dumps`; only the input labels need JSON
    encoding.  Two views get equal keys iff they are equal as
    identifier-labeled structures; keys compare under plain string order.
    """
    nodes = ",".join(
        [f"[{b.dist},{b.identifier},{b.degree},{_input_literal(b.input)}]" for b in ball.nodes]
    )
    edges = ",".join([f"[{u},{v}]" for u, v in ball.edges])
    return f"[{ball.radius},[{nodes}],[{edges}]]"


def ball_covers_instance(ball: BallView, instance: InputInstance) -> bool:
    """True when the view contains every node and every edge of the instance."""
    return len(ball.nodes) == instance.n and len(ball.edges) == len(instance.graph.edges)


def extend_instance(
    instance: InputInstance,
    v: int,
    radius: int,
    target_size: int,
) -> InputInstance:
    """Grow a connected instance to ``target_size`` nodes without disturbing
    the radius-``radius`` view of ``v``.

    A path of fresh nodes is attached to the smallest-identifier node at
    distance >= radius+1 from ``v``; fresh nodes take the smallest unused
    identifiers and the least input label already present.  Node indices of
    the original instance are preserved.
    """
    g = instance.graph
    n = instance.n
    if not g.is_connected:
        raise ValueError("graph not connected")
    ball = extract_ball(instance, v, radius)
    if ball_covers_instance(ball, instance):
        raise ValueError("ball covers graph")
    if target_size <= n:
        raise ValueError("target too small")
    if instance.c is not None and target_size**instance.c > MAX_ID_SPACE:
        raise ValueError("target identifier space n**c exceeds the 64-bit range")
    dist = g.bfs_distances(v)
    candidates = [u for u in range(n) if dist[u] >= radius + 1]
    if not candidates:
        raise ValueError("no attachment node beyond radius")
    w = min(candidates, key=lambda u: instance.ids[u])

    fresh_count = target_size - n
    used = set(instance.ids)
    # the n used identifiers leave at least fresh_count free in 1..target_size
    fresh_ids = [i for i in range(1, target_size + 1) if i not in used][:fresh_count]

    new_edges = list(g.edges)
    prev = w
    for k in range(fresh_count):
        new_edges.append(_normalize_edge(prev, n + k))
        prev = n + k
    return InputInstance(
        Graph(target_size, tuple(new_edges)),
        instance.ids + tuple(fresh_ids),
        instance.inputs + (min(instance.inputs),) * fresh_count,
        instance.c,
    )


def disjoint_union(a: InputInstance, b: InputInstance) -> InputInstance:
    """Side-by-side union of two instances with disjoint identifier sets.

    Nodes of ``a`` keep their indices; nodes of ``b`` are shifted by ``a.n``.
    The result carries ``c=None`` since the combined identifiers need not fit
    a common power-range.
    """
    if set(a.ids) & set(b.ids):
        raise ValueError("identifier sets overlap")
    shift = a.n
    edges = list(a.graph.edges) + [(u + shift, v + shift) for u, v in b.graph.edges]
    return InputInstance(
        Graph(a.n + b.n, tuple(edges)),
        a.ids + b.ids,
        a.inputs + b.inputs,
        None,
    )


def instance_to_jsonable(instance: InputInstance) -> dict:
    """Dump format: nodes indexed 0..n-1, edges sorted."""
    return {
        "n": instance.n,
        "c": instance.c,
        "edges": [list(e) for e in instance.graph.edges],
        "ids": {str(v): instance.ids[v] for v in range(instance.n)},
        "inputs": {str(v): instance.inputs[v] for v in range(instance.n)},
    }


def instance_from_jsonable(obj: Mapping) -> InputInstance:
    """Parse the dump format, raising :class:`InstanceFormatError` on a
    missing key, a value of the wrong JSON type or an invalid instance."""

    def typed(value, kind: type, what: str):
        return json_value(value, kind, what, InstanceFormatError)

    try:
        n = typed(obj["n"], int, "n")
        edges = tuple(
            (typed(u, int, "an endpoint"), typed(v, int, "an endpoint"))
            for u, v in (typed(e, list, "an edge") for e in typed(obj["edges"], list, "edges"))
        )
        ids = tuple(typed(obj["ids"][str(v)], int, "an identifier") for v in range(n))
        inputs = tuple(typed(obj["inputs"][str(v)], str, "an input") for v in range(n))
        c = obj.get("c")
        return InputInstance(Graph(n, edges), ids, inputs, c if c is None else typed(c, int, "c"))
    except KeyError as exc:
        raise InstanceFormatError(f"missing the key {exc}") from exc
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed instance: {exc}") from exc


def dump_instances(instances: Sequence[InputInstance]) -> str:
    """One instance per line, JSON objects."""
    return "".join(
        json.dumps(instance_to_jsonable(i), sort_keys=True, separators=(",", ":")) + "\n"
        for i in instances
    )


def load_instances(text: str) -> list[InputInstance]:
    """One instance per nonempty line; a line that is not valid JSON or not a
    valid instance raises :class:`InstanceFormatError` naming its number."""
    instances = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            instances.append(instance_from_jsonable(json.loads(line)))
        except ValueError as exc:  # invalid JSON or InstanceFormatError
            raise InstanceFormatError(f"instance line {number}: {exc}") from exc
    return instances
