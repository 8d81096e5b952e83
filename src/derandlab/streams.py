"""Deterministic bit streams and identifier-indexed randomness assignments.

Streams are unbounded in principle and realized lazily; a per-run safety cap
(enforced by readers) turns runaway consumption into an error instead of a
hang.  Everything replays exactly from its construction parameters.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Callable, Iterator, Mapping, Sequence

DEFAULT_BIT_CAP = 1 << 20


class StreamExhausted(RuntimeError):
    """A recorded stream was read past its last bit."""


class BitBudgetExceeded(RuntimeError):
    """A reader hit its per-run safety cap."""


class UnassignedIdentifier(LookupError):
    """An assignment was asked for an identifier outside its domain."""


class BitStream:
    """An indexable sequence of bits: ``bit(i)`` is bit number ``i``.

    Construct with :meth:`keyed` (hash-derived, unbounded), :meth:`from_prefix`
    (finite prefix padded with a constant), or :meth:`from_bits` (recorded
    exactly; reading past the end raises :class:`StreamExhausted`).
    """

    def __init__(self, getter: Callable[[int], int], description: str):
        self._getter = getter
        self.description = description

    def bit(self, i: int) -> int:
        if i < 0:
            raise IndexError("negative bit index")
        return self._getter(i)

    def __repr__(self) -> str:
        return f"BitStream({self.description})"

    @classmethod
    def keyed(cls, *key_parts: object) -> "BitStream":
        """Unbounded stream derived from a hash of the key parts.

        Distinct keys give computationally unrelated streams, which is how
        per-identifier independence is realized.
        """
        key = join_key(*key_parts)
        blocks: dict[int, bytes] = {}
        return cls(lambda i: keyed_bit(key, i, blocks), f"keyed:{key}")

    @classmethod
    def from_prefix(cls, bits: Sequence[int], pad: int = 0) -> "BitStream":
        prefix = _as_bits(bits)
        if pad not in (0, 1):
            raise ValueError("pad bit must be 0 or 1")

        def getter(i: int) -> int:
            return prefix[i] if i < len(prefix) else pad

        return cls(getter, f"prefix:{''.join(map(str, prefix))}+{pad}...")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitStream":
        return _recorded(_as_bits(bits))


def join_key(*key_parts: object) -> str:
    """The joined key of a keyed stream: the parts' strings joined by ``|``.
    Joining joined keys with more parts gives the key of all the parts."""
    return "|".join(map(str, key_parts))


def block_digest(key: str, block_index: int) -> bytes:
    """Block ``block_index`` of the keyed stream of the joined key ``key``:
    the SHA-256 digest of ``f"{key}#{block_index}"``, which holds the
    stream's bits ``256 * block_index`` to ``256 * block_index + 255``, each
    byte's most significant bit first (:func:`keyed_bit`)."""
    return hashlib.sha256(f"{key}#{block_index}".encode()).digest()


def keyed_bit(key: str, i: int, blocks: dict[int, bytes]) -> int:
    """Bit ``i`` of the keyed stream of the joined key ``key``: bit ``i % 8``,
    most significant first, of byte ``(i % 256) // 8`` of block ``i // 256``
    (:func:`block_digest`).  ``blocks`` caches that key's digests by block
    index."""
    block_index = i >> 8
    block = blocks.get(block_index)
    if block is None:
        block = blocks[block_index] = block_digest(key, block_index)
    return block[(i & 255) >> 3] >> (7 - (i & 7)) & 1


def _exhausted(length: int) -> StreamExhausted:
    """The error of a read past the end of a recorded stream of ``length``
    bits."""
    return StreamExhausted(
        f"bit budget exceeded: recorded stream holds {length} bits"
    )


def _recorded(recorded: tuple[int, ...]) -> BitStream:
    """The stream of :meth:`BitStream.from_bits` over already validated bits."""

    def getter(i: int) -> int:
        if i >= len(recorded):
            raise _exhausted(len(recorded))
        return recorded[i]

    return BitStream(getter, f"recorded:{''.join(map(str, recorded))}")


def _as_bits(bits: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError("bits must be 0 or 1")
    return out


class BitReader:
    """Sequential cursor over a stream with a consumption cap.

    ``position`` is the absolute index of the next bit, from 0; a caller
    that resumes a stream sets it (:func:`fix_randomness`), and the cap
    bounds the absolute position reached.  The reader calls the stream's
    getter directly, skipping :meth:`BitStream.bit`'s index check, so
    ``position`` must never be negative.
    """

    def __init__(self, stream: BitStream, cap: int = DEFAULT_BIT_CAP):
        self.stream = stream
        self._getter = stream._getter
        self.cap = cap
        self.position = 0

    def next_bit(self) -> int:
        position = self.position
        if position >= self.cap:
            raise BitBudgetExceeded(
                f"per-run bit cap of {self.cap} reached on {self.stream!r}"
            )
        bit = self._getter(position)
        self.position = position + 1
        return bit

    def take(self, k: int) -> list[int]:
        return [self.next_bit() for _ in range(k)]


class RandomAssignment:
    """A total map from identifiers to bit streams.

    ``domain=None`` means total on all identifiers (seed-derived assignments).
    Bounded assignments built from explicit vectors remember them for
    serialization and raise once a run reads past the recorded bits; with
    ``description=None`` their description is built from the vectors when
    first asked for.
    """

    def __init__(
        self,
        stream_for: Callable[[int], BitStream],
        domain: frozenset[int] | None = None,
        description: str | None = "",
        vectors: Mapping[int, tuple[int, ...]] | None = None,
    ):
        self._stream_for = stream_for
        self.domain = domain
        self._description = description
        self.vectors = dict(vectors) if vectors is not None else None

    @property
    def description(self) -> str:
        if self._description is None:
            self._description = ",".join(
                f"{k}:{''.join(map(str, v))}" for k, v in sorted(self.vectors.items())
            )
        return self._description

    def stream_for(self, identifier: int) -> BitStream:
        if self.domain is not None and identifier not in self.domain:
            raise UnassignedIdentifier(
                f"identifier {identifier} outside assignment domain"
            )
        return self._stream_for(identifier)

    def __repr__(self) -> str:
        return f"RandomAssignment({self.description})"

    @classmethod
    def from_seed(cls, *key: object) -> "RandomAssignment":
        """Total assignment giving identifier ``i`` the stream
        ``BitStream.keyed(*key, i)``.

        The key parts are joined once here, not once per identifier:
        ``keyed(joined, i)`` hashes the same strings as ``keyed(*key, i)``.
        """
        if not key:
            return cls(BitStream.keyed, None, "seed:")
        joined = join_key(*key)
        return cls(lambda ident: BitStream.keyed(joined, ident), None, f"seed:{joined}")

    @classmethod
    def from_vectors(cls, vectors: Mapping[int, Sequence[int]]) -> "RandomAssignment":
        fixed = {int(k): _as_bits(v) for k, v in vectors.items()}
        streams = {k: _recorded(v) for k, v in fixed.items()}
        return cls(streams.__getitem__, frozenset(fixed), None, fixed)


def iter_bounded_assignments(
    id_space: Sequence[int], bits: int
) -> Iterator[RandomAssignment]:
    """All assignments of ``bits``-bit vectors to the identifiers, in
    lexicographic order (identifiers ascending, vector bits most significant
    first, 0 before 1).  The vectors and their recorded streams are built
    once; each assignment only picks among them."""
    if bits < 0:
        raise ValueError("bit budget must be nonnegative")
    identifiers = sorted(set(id_space))
    domain = frozenset(identifiers)
    recorded = [(v, _recorded(v)) for v in itertools.product((0, 1), repeat=bits)]
    for choice in itertools.product(recorded, repeat=len(identifiers)):
        streams = {ident: stream for ident, (_, stream) in zip(identifiers, choice)}
        vectors = {ident: vector for ident, (vector, _) in zip(identifiers, choice)}
        yield RandomAssignment(streams.__getitem__, domain, None, vectors)
