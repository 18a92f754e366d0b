"""Integers affine in the processor id: one value for a run of processors.

Eijkhout's owned set α is a function of the processor ``p``; for the HPF
distributions at the sizes the paper uses, its bounds are *affine* in
``p`` (``BLOCK`` over ``n = P``: processor ``p`` owns plane ``p``).  A
:class:`PidAffine` is such a bound, ``a + b * mypid`` for every 1-based
``mypid`` in ``lo..hi``, and behaves as an ``int`` to the code that
computes with it — the section algebra, the distributions, the constant
evaluator, the optimizer's ownership walk — so that code runs once for
the whole run of processors instead of once per processor.

Arithmetic stays affine where it can.  A comparison answers only when it
has the same answer on every processor of the run; otherwise it raises
:class:`NoClosedForm`, whose ``cuts`` say where the run splits into runs
on which it does have one (an affine comparison changes its answer at
most once, an equality holds at most at one processor).  A value that is
not affine (``mypid * mypid``, a trip count ``mypid - 1`` needed as a
Python ``int``) has no cuts: it differs from processor to processor.
Two bounds that meet at one end of the run (``1`` and ``mypid``) have no
one order but one minimum, :func:`pmin` (and :func:`pmax`); the
optimizer's ``meet`` intersects triplets with them where the section
algebra's own comparison has no answer.  :func:`per_run` drives a
computation over the processors, splitting the run until every piece has
an answer; a run of one processor is plain integers, so the last resort
is the per-processor computation itself.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

__all__ = ["PidAffine", "NoClosedForm", "per_run", "pmin", "pmax"]

T = TypeVar("T")


class NoClosedForm(Exception):
    """An answer differs between the processors of a run.  ``cuts`` are
    the first (1-based) processors of the runs that split it so that the
    answer is uniform on each; empty when only single processors do."""

    def __init__(self, why: str, cuts: tuple[int, ...] = ()):
        super().__init__(why)
        self.cuts = cuts


class PidAffine:
    """``a + b * mypid`` for every 1-based ``mypid`` in ``lo..hi``."""

    __slots__ = ("a", "b", "lo", "hi")

    def __init__(self, a: int, b: int, lo: int, hi: int):
        self.a, self.b, self.lo, self.hi = a, b, lo, hi

    @staticmethod
    def make(a: int, b: int, lo: int, hi: int) -> "PidAffine | int":
        """The value, as a plain ``int`` when it is one."""
        return a + b * lo if b == 0 or lo == hi else PidAffine(a, b, lo, hi)

    def at(self, pid1: int) -> int:
        return self.a + self.b * pid1

    def _like(self, a: int, b: int) -> "PidAffine | int":
        # A PidAffine's run has two or more processors (``make``).
        return a + b * self.lo if b == 0 else PidAffine(a, b, self.lo, self.hi)

    def __str__(self) -> str:
        term = "mypid" if self.b == 1 else f"{self.b} * mypid"
        return term if self.a == 0 else f"{term} {'+' if self.a > 0 else '-'} {abs(self.a)}"

    __repr__ = __str__

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #

    def __add__(self, other):
        if other.__class__ is PidAffine:
            return self._like(self.a + other.a, self.b + other.b)
        return PidAffine(self.a + _int(other), self.b, self.lo, self.hi)

    __radd__ = __add__

    def __neg__(self):
        return PidAffine(-self.a, -self.b, self.lo, self.hi)

    def __sub__(self, other):
        if other.__class__ is PidAffine:
            return self._like(self.a - other.a, self.b - other.b)
        return PidAffine(self.a - _int(other), self.b, self.lo, self.hi)

    def __rsub__(self, other):
        return PidAffine(_int(other) - self.a, -self.b, self.lo, self.hi)

    def __mul__(self, other):
        if other.__class__ is PidAffine:
            raise NoClosedForm(f"({self}) * ({other}) is not affine in mypid")
        return self._like(self.a * _int(other), self.b * other)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        if other.__class__ is PidAffine or _int(other) == 0:
            raise NoClosedForm(f"({self}) / ({other}) is not affine in mypid")
        if self.b % other == 0:
            return self._like(self.a // other, self.b // other)
        return self._uniform(lambda q: self.at(q) // other, f"({self}) / {other}")

    # Compile-time ``int / int`` is floor division (``const_eval``).
    __truediv__ = __floordiv__

    def __mod__(self, other):
        # The same residues from the least coefficients, whose quotient is
        # the same on the longest runs of processors.
        x = self._like(self.a % other, self.b % other) if other.__class__ is int and other else self
        return x - other * (x // other)

    def __rfloordiv__(self, other):
        raise NoClosedForm(f"{other} / ({self}) is not affine in mypid")

    __rtruediv__ = __rmod__ = __rfloordiv__

    # ------------------------------------------------------------------ #
    # questions with one answer on every processor, or none
    # ------------------------------------------------------------------ #

    def _uniform(self, f: Callable[[int], T], what: str) -> T:
        """``f`` (monotone over the run) where it is the same everywhere."""
        first = f(self.lo)
        if f(self.hi) == first:
            return first
        lo, hi = self.lo, self.hi  # f(lo) == first != f(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if f(mid) == first else (lo, mid)
        raise NoClosedForm(f"{what} differs between processors {self.lo} and {self.hi}",
                           (hi,))

    def _sign(self, other, op: str, f: Callable[[int], bool]) -> bool:
        d = self - other
        if d.__class__ is not PidAffine:
            return f(d)
        if f(d.a + d.b * d.lo) is f(d.a + d.b * d.hi):
            return f(d.a + d.b * d.lo)
        return d._uniform(lambda q: f(d.at(q)), f"{self} {op} {other}")  # raises

    def __lt__(self, other):
        return self._sign(other, "<", lambda d: d < 0)

    def __le__(self, other):
        return self._sign(other, "<=", lambda d: d <= 0)

    def __gt__(self, other):
        return self._sign(other, ">", lambda d: d > 0)

    def __ge__(self, other):
        return self._sign(other, ">=", lambda d: d >= 0)

    def __eq__(self, other):
        if other is None:
            return False
        d = self - other
        if not isinstance(d, PidAffine):
            return d == 0
        q0, off = divmod(-d.a, d.b)
        if off or not d.lo <= q0 <= d.hi:
            return False
        raise NoClosedForm(f"{self} == {other} holds on processor {q0} only",
                           tuple(c for c in (q0, q0 + 1) if d.lo < c <= d.hi))

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.lo, self.hi))

    def __bool__(self) -> bool:
        return self != 0

    def __index__(self) -> int:
        raise NoClosedForm(f"the count {self} differs between processors")

    __int__ = __index__


def _int(value) -> int:
    """An integer operand; a float or bool one has no affine meaning."""
    if value.__class__ is not int:
        raise NoClosedForm(f"{value!r} is not an integer")
    return value


def per_run(nprocs: int, question: Callable[[PidAffine | int], T],
            cuts: Iterable[int] = ()) -> tuple[list[tuple[int, int, T]], str | None]:
    """``question(pid)`` for the 0-based ``pid`` of every processor, asked
    once for all of them where that has one answer (or once per run
    between the known ``cuts``): the ``(lo, hi, answer)`` runs of 1-based
    processors in order, and why there is more than one run (``None``
    when there is not)."""
    runs: list[tuple[int, int, T]] = []
    why = None
    bounds = [1, *sorted({c for c in cuts if 1 < c <= nprocs}), nprocs + 1]
    todo = [(a, b - 1) for a, b in reversed(list(zip(bounds, bounds[1:])))]
    while todo:
        lo, hi = todo.pop()
        try:
            runs.append((lo, hi, question(PidAffine.make(-1, 1, lo, hi))))
        except NoClosedForm as split:
            if lo == hi:
                raise
            why = why or str(split)
            cuts = sorted({c for c in split.cuts if lo < c <= hi}) or range(lo + 1, hi + 1)
            bounds = [lo, *cuts, hi + 1]
            todo.extend((a, b - 1) for a, b in reversed(list(zip(bounds, bounds[1:]))))
    return runs, why


def _pick(x, y, d, op: str):
    """``x`` where ``d <= 0`` on every processor, ``y`` where ``d >= 0``."""
    if d.__class__ is not PidAffine:
        return x if d <= 0 else y
    ends = d.at(d.lo), d.at(d.hi)
    if max(ends) <= 0:
        return x
    if min(ends) >= 0:
        return y
    return d._uniform(lambda q: d.at(q) < 0, f"{op}({x}, {y})")  # raises


def pmin(x, y):
    """``min(x, y)`` where either value is the minimum on every processor
    (builtin ``min`` asks ``y < x``, whose answer changes where they meet)."""
    return _pick(x, y, x - y, "min")


def pmax(x, y):
    """``max(x, y)``, likewise."""
    return _pick(x, y, y - x, "max")
