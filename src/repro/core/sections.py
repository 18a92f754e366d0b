"""Fortran-90 triplet sections and their algebra.

The XDP paper assumes that *sections* of variables — the units named by
transfer statements, intrinsics and ownership queries — are described in
Fortran 90 triplet notation (paper, section 2.1).  This module provides the
concrete, integer-valued form of those sections together with the set
operations the run-time system needs:

* :class:`Triplet` — one dimension's ``lo:hi:step`` index progression.
* :class:`Section` — a rank-``r`` Cartesian product of triplets.
* intersection of triplets/sections (arithmetic-progression intersection
  solved with the extended Euclidean algorithm), and
* the *union-coverage* test used by the segment-based ``iown()`` algorithm
  of paper section 3.1: intersect a queried section with every segment and
  check that the union of the intersections equals the query.

Sections denote *sets* of elements; iteration order is irrelevant for
ownership, so triplets are normalised to ascending form (``step >= 1`` and
``hi`` equal to the last member).  Bounds are inclusive on both ends,
matching Fortran conventions used throughout the paper (e.g. ``A[1:4,1:8]``).

Both are plain ``__slots__`` classes, not frozen dataclasses: the verifier
and the VM build one section per reference they evaluate, and a frozen
dataclass's ``__post_init__`` round trip cost three times this constructor.
They stay immutable, with the dataclass ``repr``, equality, hashes and pickles.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Triplet",
    "Section",
    "triplet",
    "section",
    "unit_sections_1d",
    "disjoint_cover_equal",
    "triplet_difference",
    "section_difference",
    "group_into_triplets",
]


class _Frozen:
    """No assignment or deletion after construction."""

    __slots__ = ()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class Triplet(_Frozen):
    """A normalised, non-empty arithmetic progression ``lo:hi:step``.

    Invariants established by the constructor:

    * ``step >= 1``;
    * ``lo <= hi``;
    * ``(hi - lo) % step == 0`` (``hi`` is a member, not just a bound);
    * the progression is never empty — emptiness is represented by
      ``None`` at the API level (e.g. the result of :meth:`intersect`).
    """

    __slots__ = ("lo", "hi", "step")

    def __init__(self, lo: int, hi: int, step: int = 1) -> None:
        if type(step) is int and step == 1 and type(lo) is int and type(hi) is int:
            # The common case: nothing to mirror, snap or canonicalise.
            if lo > hi:
                raise ValueError(f"empty triplet {lo}:{hi}:1")
            _set_lo(self, lo)
            _set_hi(self, hi)
            _set_step(self, 1)
            return
        if step == 0:
            raise ValueError("triplet step must be nonzero")
        given = (lo, hi, step)
        if step < 0:
            # A negative-stride triplet names the same element set as its
            # ascending mirror; normalise (sections are sets, not orders).
            lo, hi, step = hi, lo, -step
        if lo > hi:
            raise ValueError("empty triplet {}:{}:{}".format(*given))
        # Snap hi down to the last actual member.
        hi = lo + ((hi - lo) // step) * step
        _set_lo(self, lo)
        _set_hi(self, hi)
        # Single-element progressions get a canonical step of 1 so that
        # structural equality matches set equality.
        _set_step(self, 1 if lo == hi else step)

    def __eq__(self, other):
        if other.__class__ is Triplet:
            return (self.lo, self.hi, self.step) == (other.lo, other.hi, other.step)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.step))

    def __repr__(self) -> str:
        return f"Triplet(lo={self.lo!r}, hi={self.hi!r}, step={self.step!r})"

    def __getstate__(self):
        return [self.lo, self.hi, self.step]

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of members of the progression."""
        return (self.hi - self.lo) // self.step + 1

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1, self.step))

    def __contains__(self, index: int) -> bool:
        return self.lo <= index <= self.hi and (index - self.lo) % self.step == 0

    def is_contiguous(self) -> bool:
        """True if the progression has unit stride."""
        return self.step == 1 or self.size == 1

    # ------------------------------------------------------------------ #
    # set algebra
    # ------------------------------------------------------------------ #

    def intersect(self, other: "Triplet") -> "Triplet | None":
        """Intersection of two arithmetic progressions, or ``None`` if empty.

        Solves ``self.lo + i*self.step == other.lo + j*other.step`` with the
        extended Euclidean algorithm; the intersection of two arithmetic
        progressions is itself an arithmetic progression with step
        ``lcm(step_a, step_b)``.
        """
        a, b = self, other
        if a.step == 1 and b.step == 1:
            # Unit-stride fast path (the overwhelmingly common case on
            # the engine hot path): interval overlap, no number theory —
            # and no re-validation, the bounds are already canonical.
            lo = a.lo if a.lo >= b.lo else b.lo
            hi = a.hi if a.hi <= b.hi else b.hi
            if lo > hi:
                return None
            return Triplet(lo, hi, 1)
        g = math.gcd(a.step, b.step)
        if (b.lo - a.lo) % g != 0:
            return None  # the two residue classes never meet
        lcm = a.step // g * b.step
        # Find the smallest member of a that is also a member of b's class.
        # x ≡ a.lo (mod a.step), x ≡ b.lo (mod b.step).
        # Write x = a.lo + a.step * t; then a.step * t ≡ b.lo - a.lo (mod b.step).
        diff = b.lo - a.lo
        step_a_r = a.step // g
        step_b_r = b.step // g
        diff_r = diff // g
        # Modular inverse of step_a_r modulo step_b_r (they are coprime).
        t0 = (diff_r * pow(step_a_r, -1, step_b_r)) % step_b_r if step_b_r > 1 else 0
        first = a.lo + a.step * t0
        lo = max(a.lo, b.lo)
        if first < lo:
            first += ((lo - first + lcm - 1) // lcm) * lcm
        hi = min(a.hi, b.hi)
        if first > hi:
            return None
        return Triplet(first, first + ((hi - first) // lcm) * lcm, lcm)

    def contains_triplet(self, other: "Triplet") -> bool:
        """True if every member of *other* is a member of *self*."""
        inter = self.intersect(other)
        return inter is not None and inter.size == other.size

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #

    def __str__(self) -> str:
        if self.size == 1:
            return str(self.lo)
        if self.step == 1:
            return f"{self.lo}:{self.hi}"
        return f"{self.lo}:{self.hi}:{self.step}"


# The constructor's own writes: slot stores that bypass the assignment guard.
_set_lo = Triplet.__dict__["lo"].__set__
_set_hi = Triplet.__dict__["hi"].__set__
_set_step = Triplet.__dict__["step"].__set__


def triplet(lo: int, hi: int | None = None, step: int = 1) -> Triplet:
    """Convenience constructor; ``triplet(k)`` is the scalar index ``k``."""
    if hi is None:
        hi = lo
    return Triplet(lo, hi, step)


class Section(_Frozen):
    """A concrete rank-``r`` section: the Cartesian product of ``r`` triplets.

    ``Section`` is purely geometric — it does not know which variable it
    belongs to.  The IR pairs a variable name with a ``Section`` (see
    :mod:`repro.core.ir.nodes`); the run-time symbol table stores segment
    bounds as ``Section`` objects (paper Figure 2's ``segdesc`` records).

    Sections are immutable and serve as the engine's rendezvous *tags*
    (dict keys on every send/receive/ownership operation), so the hash,
    element count and shape are memoized lazily in non-field slots.
    """

    __slots__ = ("dims", "_hash", "_size", "_shape")

    def __init__(self, dims: tuple[Triplet, ...]) -> None:
        if not isinstance(dims, tuple):
            dims = tuple(dims)
        if not dims:
            raise ValueError("a section must have rank >= 1")
        _set_dims(self, dims)
        # Eager sentinels: a None check on access is ~10x cheaper than
        # catching AttributeError on single-use sections (intersections).
        _set_hash(self, None)
        _set_size(self, None)
        _set_shape(self, None)

    def __eq__(self, other):
        if other.__class__ is Section:
            return self.dims == other.dims
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.dims)
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        return f"Section(dims={self.dims!r})"

    # The state is the field alone; the memos are rebuilt on demand.
    def __getstate__(self):
        return (self.dims,)

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        """Number of elements in the section."""
        n = self._size
        if n is None:
            n = 1
            for t in self.dims:
                n *= t.size
            _set_size(self, n)
        return n

    @property
    def shape(self) -> tuple[int, ...]:
        s = self._shape
        if s is None:
            s = tuple(t.size for t in self.dims)
            _set_shape(self, s)
        return s

    def __contains__(self, point: Sequence[int]) -> bool:
        if len(point) != self.rank:
            return False
        return all(p in t for p, t in zip(point, self.dims))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        """Iterate elements in row-major (last dimension fastest) order."""
        return itertools.product(*self.dims)

    def is_contiguous(self) -> bool:
        return all(t.is_contiguous() for t in self.dims)

    # ------------------------------------------------------------------ #
    # set algebra
    # ------------------------------------------------------------------ #

    def intersect(self, other: "Section") -> "Section | None":
        """Per-dimension triplet intersection; ``None`` if empty."""
        if self.rank != other.rank:
            raise ValueError(
                f"rank mismatch: {self.rank} vs {other.rank}"
            )
        dims: list[Triplet] = []
        for a, b in zip(self.dims, other.dims):
            inter = a.intersect(b)
            if inter is None:
                return None
            dims.append(inter)
        return Section(tuple(dims))

    def contains_section(self, other: "Section") -> bool:
        """True if every element of *other* lies in *self*."""
        if self.rank != other.rank:
            return False
        return all(a.contains_triplet(b) for a, b in zip(self.dims, other.dims))

    def bounding_box(self) -> "Section":
        """Smallest unit-stride section containing *self*."""
        return Section(tuple(Triplet(t.lo, t.hi, 1) for t in self.dims))

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #

    def __str__(self) -> str:
        return "[" + ",".join(str(t) for t in self.dims) + "]"


_set_dims = Section.__dict__["dims"].__set__
_set_hash = Section.__dict__["_hash"].__set__
_set_size = Section.__dict__["_size"].__set__
_set_shape = Section.__dict__["_shape"].__set__


def unit_sections_1d(lo: int, hi: int, step: int = 1) -> list[Section]:
    """One single-member rank-1 section per member of ``lo:hi:step``:
    ``[section(v) for v in range(lo, hi + 1, step)]``, without the
    argument dispatch of :func:`section` (segment tables with unit segment
    shape hold one such section per owned element)."""
    return [Section((Triplet(v, v, 1),)) for v in range(lo, hi + 1, step)]


def section(*dims: Triplet | int | tuple[int, int] | tuple[int, int, int]) -> Section:
    """Build a :class:`Section` from a mix of triplets, ints and tuples.

    ``section(1, (5, 7))`` is the paper's ``[1, 5:7]``.
    """
    out: list[Triplet] = []
    for d in dims:
        if isinstance(d, Triplet):
            out.append(d)
        elif isinstance(d, int):
            out.append(Triplet(d, d, 1))
        elif isinstance(d, tuple):
            out.append(Triplet(*d))
        else:
            raise TypeError(f"cannot build a triplet from {d!r}")
    return Section(tuple(out))


# ---------------------------------------------------------------------- #
# union-coverage: the heart of the section-3.1 iown() algorithm
# ---------------------------------------------------------------------- #

def disjoint_cover_equal(query: Section, parts: Iterable[Section]) -> bool:
    """Coverage test for *pairwise-disjoint* parts (e.g. symbol-table segments).

    Returns True iff the union of ``query ∩ part`` over all parts equals
    ``query``.  Because the parts are disjoint, the intersections are
    disjoint too and a size count suffices — this is exactly the check
    described for ``iown()`` in paper section 3.1 ("the union of all the
    results is equal to the queried section").
    """
    want = query.size
    got = 0
    for part in parts:
        inter = query.intersect(part)
        if inter is not None:
            got += inter.size
            if got > want:
                raise ValueError("parts passed to disjoint_cover_equal overlap")
    return got == want


# ---------------------------------------------------------------------- #
# difference / splitting — needed when ownership of part of a segment is
# transferred (XDP permits element-granularity transfer; the run-time
# symbol table splits the remaining segment into new descriptors)
# ---------------------------------------------------------------------- #


def group_into_triplets(members: Sequence[int]) -> list[Triplet]:
    """Group a sorted list of distinct integers into maximal progressions.

    Greedy: each triplet extends as long as the common difference holds.
    The result is a disjoint cover of the input set (not necessarily the
    minimum number of triplets, which the callers never require).
    """
    out: list[Triplet] = []
    i = 0
    n = len(members)
    while i < n:
        if i + 1 == n:
            out.append(Triplet(members[i], members[i], 1))
            break
        step = members[i + 1] - members[i]
        j = i + 1
        while j + 1 < n and members[j + 1] - members[j] == step:
            j += 1
        out.append(Triplet(members[i], members[j], step))
        i = j + 1
    return out


def triplet_difference(t: Triplet, cut: Triplet) -> list[Triplet]:
    """Members of ``t`` not in ``cut``, as disjoint triplets.

    ``t ∩ cut`` is a run of every ``k``-th member of ``t``
    (``k = lcm(steps) / t.step``).  Of the ``k`` residue classes of ``t``
    with that stride, the ``k - 1`` the cut misses survive whole and the
    one it hits keeps what lies below and above the run: at most ``k + 1``
    progressions, found by arithmetic whatever the size of ``t``.
    """
    inter = t.intersect(cut)
    if inter is None:
        return [t]
    stride = inter.step if inter.size > 1 else t.step
    out: list[Triplet] = []
    for k in range(min(stride // t.step, t.size)):
        first = t.lo + k * t.step
        if (inter.lo - first) % stride:
            out.append(Triplet(first, t.hi, stride))
            continue
        if first < inter.lo:
            out.append(Triplet(first, inter.lo - stride, stride))
        if inter.hi + stride <= t.hi:
            out.append(Triplet(inter.hi + stride, t.hi, stride))
    return out


def section_difference(a: Section, b: Section) -> list[Section]:
    """``a \\ b`` as a list of pairwise-disjoint sections.

    Standard box decomposition generalised to strided triplets: dimension
    ``d``'s piece combines the kept part of ``a.dims[d]`` with the
    already-cut prefix dims and the untouched suffix dims.  Returns ``[a]``
    when the sections are disjoint and ``[]`` when ``b`` covers ``a``.
    A ``b`` inside ``a`` is its own intersection (none is built).
    """
    inter = b if a.contains_section(b) else a.intersect(b)
    if inter is None:
        return [a]
    out: list[Section] = []
    prefix: tuple[Triplet, ...] = ()
    for d in range(a.rank):
        for kept in triplet_difference(a.dims[d], inter.dims[d]):
            out.append(Section(prefix + (kept,) + a.dims[d + 1 :]))
        prefix = prefix + (inter.dims[d],)
    return out
