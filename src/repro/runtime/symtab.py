"""The per-processor run-time XDP symbol table (paper section 3.1, Figure 2).

Each processor executing the output SPMD code maintains a local copy of the
XDP symbol table.  Unlike a regular symbol table it contains only
*exclusive* sections: per variable it records the rank, global shape,
partitioning scheme, segment shape, and an array of segment descriptors —
each descriptor holding the segment's global bounds (lbound / ubound /
stride per dimension, i.e. a :class:`~repro.core.sections.Section`), its
state (unowned / transitional / accessible) and a pointer to the segment's
contiguous local storage (here: a handle into
:class:`~repro.machine.memory.LocalMemory`).

The intrinsics ``iown()``, ``accessible()``, ``await()``, ``mylb()`` and
``myub()`` are all lookups into this table.  ``iown()`` implements exactly
the algorithm of section 3.1: intersect the queried section with every
segment of the variable, and return true iff the union of the non-null
intersections equals the query and none of the intersecting segments is
unowned.  That scan lives in one place, the
:class:`~repro.core.segtable.SegmentTable` every entry is (shared with the
static verifier and the tuner), and counts overlaps per dimension instead
of building intersections; every intrinsic, read, write, receive
transition and release answers from the *resolution record*
:meth:`RuntimeSymbolTable._resolve` builds on it, memoized by section value
until the variable's geometry changes or the run ends.

Design choices documented against the paper:

* Released segments are *removed* from the active descriptor list (their
  storage is freed, making the section-2.6 storage-reuse effect real); a
  coverage failure is therefore equivalent to the paper's "some intersecting
  segment is unowned".  Released descriptors are retained in a side list
  purely for reporting.
* XDP "does not automatically check the state of a variable at run-time":
  reading a transitional segment is permitted and yields whatever bytes are
  present (unpredictable in the paper's terms).  A ``strict`` flag turns
  such reads into errors for debugging, mirroring how the compiler would
  insert checks during development.
* Ownership may be released at sub-segment granularity: the residual parts
  of a split segment become fresh descriptors with their own chunks (the
  language permits element-granularity transfer; segments are only the
  *chosen* granularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.errors import OwnershipError, UnknownVariableError
from ..core.sections import Section, Triplet, section_difference
from ..core.segtable import SegmentTable
from ..core.states import SegmentState
from ..distributions.segmentation import Segmentation
from .memory import LocalMemory

__all__ = ["MAXINT", "MININT", "SegmentDesc", "VariableEntry", "RuntimeSymbolTable"]

#: "MAXINT, the largest representable integer" (paper section 2.3) — we use
#: the 32-bit values of the paper's era.
MAXINT = 2**31 - 1
MININT = -(2**31)


@dataclass(slots=True)
class SegmentDesc:
    """One run-time segment descriptor (the paper's ``struct SegmentDesc``).

    ``segment`` carries lbound/ubound/stride per dimension; ``handle``
    stands in for ``segptr``.  ``pending_receives`` counts outstanding
    receives touching the segment — the segment is transitional while the
    count is positive.
    """

    segment: Section
    state: SegmentState
    handle: int | None
    pending_receives: int = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.segment.shape


@dataclass
class VariableEntry(SegmentTable):
    """Symbol-table row for one exclusive variable (Figure 2's columns);
    descriptors, index and record memo are the inherited segment table."""

    index: int
    name: str
    rank: int
    index_space: Section
    partitioning: str
    segment_shape: tuple[int, ...]
    dtype: np.dtype
    released: list[Section] = field(default_factory=list)

    @property
    def global_shape(self) -> tuple[int, ...]:
        return self.index_space.shape

    @property
    def segment_count(self) -> int:
        return len(self.segdescs)


_ALL = slice(None)


def _span(t: Triplet, lo: int, hi: int, step: int) -> slice:
    """Positions within ``t`` of its members ``lo:hi:step``: an arithmetic
    progression, so one basic slice, shared when it is all of ``t``."""
    if lo == t.lo and hi == t.hi and step == t.step:
        return _ALL
    return slice((lo - t.lo) // t.step, (hi - t.lo) // t.step + 1, step // t.step or 1)


class RuntimeSymbolTable:
    """One processor's run-time view of all exclusive variables.

    Every intrinsic turns ``(variable, section)`` into the same
    *resolution record* through :meth:`_resolve` and answers from it, so
    the section-3.1 intersection algorithm exists once.
    """

    def __init__(self, pid: int, memory: LocalMemory | None = None, *, strict: bool = False):
        self.pid = pid
        self.memory = memory if memory is not None else LocalMemory(pid)
        self.strict = strict
        self._entries: dict[str, VariableEntry] = {}

    def _resolve(self, entry: VariableEntry, sec: Section) -> list:
        """The resolution record of ``sec`` against ``entry``'s segments:
        ``[descriptors, covers?, exact-hit descriptor, its chunk, plan]`` —
        the entry's :meth:`~repro.core.segtable.SegmentTable.geometry`, the
        storage of ``exact`` (which then serves reads and writes without
        index arithmetic) and the gather/scatter plan, built on the first
        read or write that needs it (:meth:`_plan`).

        Memoized per entry by the section's value (a compiled program
        hands back a repeating reference's ``Section`` by identity, which
        the probe tests first, and builds a fresh, equal one otherwise).  A record
        describes geometry only: ``invalidate_index`` drops it, state-only
        transitions keep it, and the engine empties the memo when ``run()``
        returns (:meth:`forget_resolutions`), so it never outgrows the
        distinct sections of one run.
        """
        cache = entry._resolve_cache
        res = cache.get(sec)
        if res is not None:
            return res
        descs, covers, exact = entry.geometry(sec)
        chunk = None if exact is None else self.memory.get(exact.handle)
        res = cache[sec] = [descs, covers, exact, chunk, None]
        return res

    def _plan(self, sec: Section, res: list) -> tuple:
        """The record's gather/scatter plan: per overlapping descriptor,
        ``(descriptor, chunk, positions in sec, positions in the chunk)``,
        by per-dimension arithmetic (:func:`_span`)."""
        plan = res[4]
        if plan is None:
            plan = []
            for d in res[0]:
                qpos, cpos = [], []
                for qt, st in zip(sec.dims, d.segment.dims):
                    if qt.step == 1 and st.step == 1:
                        lo = qt.lo if qt.lo >= st.lo else st.lo
                        hi = qt.hi if qt.hi <= st.hi else st.hi
                        step = 1
                    else:
                        t = qt.intersect(st)
                        lo, hi, step = t.lo, t.hi, t.step
                    qpos.append(_span(qt, lo, hi, step))
                    cpos.append(_span(st, lo, hi, step))
                plan.append((d, self.memory.get(d.handle), tuple(qpos), tuple(cpos)))
            res[4] = plan = tuple(plan)
        return plan

    def forget_resolutions(self) -> None:
        """Empty every entry's record memo (the engine's end-of-run rule)."""
        for entry in self._entries.values():
            entry._resolve_cache.clear()

    # ------------------------------------------------------------------ #
    # declaration
    # ------------------------------------------------------------------ #

    def declare(
        self,
        name: str,
        segmentation: Segmentation,
        *,
        dtype: np.dtype | type = np.float64,
    ) -> VariableEntry:
        """Declare a distributed variable and allocate this processor's
        initial segments (state ``accessible``, zero-filled)."""
        entry = self.declare_empty(
            name,
            segmentation.distribution.index_space,
            partitioning=segmentation.distribution.spec_str(),
            segment_shape=segmentation.segment_shape,
            dtype=dtype,
        )
        segs = segmentation.segments(self.pid)
        descs = entry.segdescs
        if len(segs) >= 16 and all(
            s.shape == segs[0].shape for s in segs[1:]
        ):
            # Uniform segment table: one arena allocation for every chunk.
            handles = self.memory.allocate_batch(
                len(segs), segs[0].shape, entry.dtype
            )
            for seg, handle in zip(segs, handles):
                descs.append(SegmentDesc(seg, SegmentState.ACCESSIBLE, handle))
        else:
            for seg in segs:
                handle, _ = self.memory.allocate(seg.shape, entry.dtype)
                descs.append(SegmentDesc(seg, SegmentState.ACCESSIBLE, handle))
        entry.invalidate_index()
        return entry

    def declare_empty(
        self,
        name: str,
        index_space: Section,
        *,
        partitioning: str = "(manual)",
        segment_shape: tuple[int, ...] | None = None,
        dtype: np.dtype | type = np.float64,
    ) -> VariableEntry:
        """Declare a variable with no initially-owned segments."""
        if name in self._entries:
            raise OwnershipError(f"variable {name!r} already declared on P{self.pid + 1}")
        entry = VariableEntry(
            index=len(self._entries) + 1,
            name=name,
            rank=index_space.rank,
            index_space=index_space,
            partitioning=partitioning,
            segment_shape=segment_shape or (1,) * index_space.rank,
            dtype=np.dtype(dtype),
        )
        self._entries[name] = entry
        return entry

    def entry(self, name: str) -> VariableEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownVariableError(
                f"variable {name!r} not in run-time symbol table of P{self.pid + 1} "
                "(only exclusive variables are tabulated)"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def variables(self) -> list[VariableEntry]:
        return list(self._entries.values())

    # ------------------------------------------------------------------ #
    # intrinsics (paper section 2.3)
    # ------------------------------------------------------------------ #

    def iown(self, name: str, sec: Section) -> bool:
        """Section-3.1 algorithm: intersect with all segments, test coverage."""
        return self._resolve(self.entry(name), sec)[1]

    def accessible(self, name: str, sec: Section) -> bool:
        """True iff owned and no intersecting segment is transitional."""
        descs, covers = self._resolve(self.entry(name), sec)[:2]
        for d in descs:
            if d.state is SegmentState.TRANSITIONAL:
                return False
        return covers

    def state_of(self, name: str, sec: Section) -> SegmentState:
        """Composite Figure-1 state of a section on this processor."""
        descs, covers = self._resolve(self.entry(name), sec)[:2]
        if not covers:
            return SegmentState.UNOWNED
        for d in descs:
            if d.state is SegmentState.TRANSITIONAL:
                return SegmentState.TRANSITIONAL
        return SegmentState.ACCESSIBLE

    def _owned_parts(self, name: str, dim: int, sec: Section | None) -> list:
        """Dimension ``dim`` of each owned part of the query: overlapping
        descriptors meet it in every dimension, so one triplet each."""
        entry = self.entry(name)
        query = sec if sec is not None else entry.index_space
        q = query.dims[dim - 1]
        return [d.segment.dims[dim - 1].intersect(q)
                for d in self._resolve(entry, query)[0]]

    def mylb(self, name: str, dim: int, sec: Section | None = None) -> int:
        """Smallest owned index in dimension ``dim`` (1-based per the paper's
        Fortran flavour), or MAXINT when nothing is owned."""
        return min((t.lo for t in self._owned_parts(name, dim, sec)),
                   default=MAXINT)

    def myub(self, name: str, dim: int, sec: Section | None = None) -> int:
        """Largest owned index in dimension ``dim``, or MININT."""
        return max((t.hi for t in self._owned_parts(name, dim, sec)),
                   default=MININT)

    # ------------------------------------------------------------------ #
    # value access (gather / scatter across segments)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _positions(container: Section, part: Section) -> tuple[slice, ...]:
        """Per-dimension positions of ``part``'s members within ``container``
        (a superset): one basic slice each, no index arrays."""
        return tuple(_span(ct, pt.lo, pt.hi, pt.step)
                     for ct, pt in zip(container.dims, part.dims))

    def _short_of(self, verb: str, name: str, sec: Section, descs) -> OwnershipError:
        covered = sum(d.segment.intersect(sec).size for d in descs)
        return OwnershipError(
            f"P{self.pid + 1} {verb} {name}{sec} but owns only {covered} of "
            f"{sec.size} elements"
        )

    def _gather(self, entry: VariableEntry, name: str, sec: Section, res: list) -> np.ndarray:
        descs, covers, exact, chunk, _ = res
        if exact is not None:
            # Whole-segment query: copy the chunk, no position arithmetic.
            if exact.state is SegmentState.TRANSITIONAL and self.strict:
                raise OwnershipError(
                    f"P{self.pid + 1} read of transitional section {name}{sec}"
                )
            return chunk.copy()
        # Every element is written unless the query is short, which raises.
        out = np.empty(sec.shape, dtype=entry.dtype)
        for d, chunk, qpos, cpos in self._plan(sec, res):
            if d.state is SegmentState.TRANSITIONAL and self.strict:
                raise OwnershipError(f"P{self.pid + 1} read of transitional "
                                     f"section {name}{d.segment.intersect(sec)}")
            out[qpos] = chunk[cpos]
        if not covers:
            raise self._short_of("reads", name, sec, descs)
        return out

    def read(self, name: str, sec: Section) -> np.ndarray:
        """Gather the value of an owned section into a dense array.

        XDP does not auto-check state: reading a transitional section is
        allowed (its value is unpredictable) unless ``strict`` is set.
        """
        entry = self.entry(name)
        return self._gather(entry, name, sec, self._resolve(entry, sec))

    def read_owned(self, name: str, sec: Section) -> np.ndarray:
        """Ownership-checked gather: :meth:`iown` + :meth:`read` on one
        resolution record — the transport's value-send sequence."""
        entry = self.entry(name)
        res = self._resolve(entry, sec)
        if not res[1]:
            raise OwnershipError(
                f"P{self.pid + 1} sends unowned section {name}{sec}"
            )
        return self._gather(entry, name, sec, res)

    def write(self, name: str, sec: Section, values: np.ndarray | float) -> None:
        """Scatter values into an owned section."""
        entry = self.entry(name)
        res = self._resolve(entry, sec)
        descs, covers, exact, chunk, _ = res
        vals = np.asarray(values, dtype=entry.dtype)
        if vals.shape not in ((), sec.shape):
            vals = vals.reshape(sec.shape)
        if exact is not None:
            chunk[...] = vals
            return
        scalar = vals.shape == ()
        for _, chunk, qpos, cpos in self._plan(sec, res):
            chunk[cpos] = vals if scalar else vals[qpos]
        if not covers:
            raise self._short_of("writes", name, sec, descs)

    # ------------------------------------------------------------------ #
    # receive state transitions (paper section 2.7)
    # ------------------------------------------------------------------ #

    def begin_value_receive(self, name: str, sec: Section) -> None:
        """Initiation of ``E <- X``: every intersecting segment becomes
        transitional until the matching completion."""
        descs, covers = self._resolve(self.entry(name), sec)[:2]
        for d in descs:
            d.pending_receives += 1
            d.state = SegmentState.TRANSITIONAL
        if not covers:
            raise OwnershipError(
                f"P{self.pid + 1} initiates receive into unowned section {name}{sec}"
            )

    def complete_value_receive(self, name: str, sec: Section, data: np.ndarray) -> None:
        """Completion of ``E <- X``: store the value, return segments whose
        last outstanding receive this was to ``accessible``."""
        self.write(name, sec, data)
        for d in self._resolve(self.entry(name), sec)[0]:
            d.pending_receives -= 1
            if d.pending_receives <= 0:
                d.pending_receives = 0
                d.state = SegmentState.ACCESSIBLE

    # ------------------------------------------------------------------ #
    # ownership transitions (paper section 2.6 / 2.7)
    # ------------------------------------------------------------------ #

    def release_ownership(self, name: str, sec: Section, *, with_value: bool) -> np.ndarray | None:
        """Initiation of ``E -=>`` / ``E =>``: relinquish ownership of ``sec``.

        Returns the gathered values when ``with_value`` (for ``-=>``), else
        ``None`` (for ``=>``).  The caller (engine) must have ensured the
        section is accessible — owner sends block until then.  Segments
        fully inside ``sec`` are dropped and their storage freed; partially
        covered segments are split, the kept pieces becoming new segments.
        """
        entry = self.entry(name)
        if self.state_of(name, sec) is not SegmentState.ACCESSIBLE:
            raise OwnershipError(
                f"P{self.pid + 1} releases {name}{sec} which is "
                f"{self.state_of(name, sec)}"
            )
        values = self.read(name, sec) if with_value else None
        hit = self._resolve(entry, sec)[0]
        gone = {id(d) for d in hit}
        keep = [d for d in entry.segdescs if id(d) not in gone]
        new: list[SegmentDesc] = []
        for d in hit:
            chunk = self.memory.get(d.handle)
            for piece in section_difference(d.segment, sec):
                handle, arr = self.memory.allocate(piece.shape, entry.dtype)
                arr[...] = chunk[self._positions(d.segment, piece)]
                new.append(SegmentDesc(piece, SegmentState.ACCESSIBLE, handle))
            self.memory.free(d.handle)
        entry.segdescs = keep + new
        entry.invalidate_index()
        entry.released.append(sec)
        return values

    def acquire_ownership(
        self, name: str, sec: Section, *, transitional: bool = True
    ) -> SegmentDesc:
        """Initiation of ``U <=-`` / ``U <=``: claim ownership of an unowned
        section.  The new segment is transitional until the transfer
        completes (paper: 'Upon initiation of a receive of a section on a
        processor, the section must be put in state transitional')."""
        entry = self.entry(name)
        for d in self._resolve(entry, sec)[0]:
            raise OwnershipError(
                f"P{self.pid + 1} acquires {name}{sec} overlapping owned "
                f"segment {d.segment} (ownership can only be received if the "
                "section was unowned)"
            )
        handle, _ = self.memory.allocate(sec.shape, entry.dtype)
        desc = SegmentDesc(
            sec,
            SegmentState.TRANSITIONAL if transitional else SegmentState.ACCESSIBLE,
            handle,
            pending_receives=1 if transitional else 0,
        )
        entry.segdescs.append(desc)
        entry.invalidate_index()
        return desc

    def complete_ownership_receive(
        self, name: str, sec: Section, data: np.ndarray | None
    ) -> None:
        """Completion of ``U <=-`` / ``U <=``: install the value (if any) and
        mark the segment accessible."""
        entry = self.entry(name)
        _, _, target, chunk, _ = self._resolve(entry, sec)
        if target is None:
            raise OwnershipError(
                f"P{self.pid + 1} completes ownership receive of {name}{sec} "
                "with no matching initiation"
            )
        if data is not None:
            chunk[...] = np.asarray(data, dtype=entry.dtype).reshape(sec.shape)
        target.pending_receives = 0
        target.state = SegmentState.ACCESSIBLE

    # ------------------------------------------------------------------ #

    def owned_elements(self, name: str) -> int:
        """Total elements of ``name`` currently owned here."""
        return sum(d.segment.size for d in self.entry(name).segdescs)

    def stage_in(self, name: str, whole: np.ndarray) -> None:
        """Fill every segment owned here from ``whole``, an array laid out
        over the variable's declared index space."""
        entry = self.entry(name)
        for d in entry.segdescs:
            self.memory.get(d.handle)[...] = whole[
                self._positions(entry.index_space, d.segment)]

    def stage_out(self, name: str, whole: np.ndarray) -> None:
        """Copy every segment owned here into its place in ``whole``."""
        entry = self.entry(name)
        for d in entry.segdescs:
            whole[self._positions(entry.index_space, d.segment)] = (
                self.memory.get(d.handle))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"run-time symbol table of P{self.pid + 1}:"]
        for e in self.variables():
            lines.append(
                f"  [{e.index}] {e.name} rank={e.rank} shape={e.global_shape} "
                f"{e.partitioning} segshape={e.segment_shape} "
                f"#segments={e.segment_count}"
            )
            for d in e.segdescs:
                lines.append(f"      {d.segment} {d.state.value}")
        return "\n".join(lines)
