"""Seeded generator of small SPMD IL+XDP programs for differential testing.

Every program comes from one of five *templates* — communication patterns
taken from the paper (halo exchange, ownership ring, the section-2.7 work
pool, gather/compute/scatter redistribution, and the translator's own
output on random sequential loops).  Template instances are
correct-by-construction: they parse, verify and run clean on the strict
engine.  From each instance the generator then derives *mutants* by
applying one seeded fault — dropping a send or a receive, misdirecting a
send, renaming a receive's tag section, shrinking a receive's destination,
removing an await, duplicating a receive, reading an unowned element, or
acquiring an already-owned section.  Each fault is a communication bug the
static verifier (:mod:`repro.core.analysis.verify_comm`) claims to catch.

The differential harness (``tests/test_fuzz_differential.py``) runs every
program through both the verifier and the strict reference engine and
checks the two against each other:

* verifier says *clean*  ⇒  the engine must not raise;
* the engine raises      ⇒  the verifier must have flagged something.

Everything is deterministic in ``base_seed``: ``generate_battery(n, s)``
returns the same programs forever, so failures are replayable by seed.

Run as a script to dump a battery to stdout or a directory::

    PYTHONPATH=src python tests/fuzz/gen_programs.py --count 10
    PYTHONPATH=src python tests/fuzz/gen_programs.py --count 200 --out /tmp/fuzz
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

__all__ = [
    "FuzzProgram", "generate_battery", "FAMILIES", "SHMEM_FAMILIES",
    "COLLECTIVE_FAMILIES", "translated_family",
]


@dataclass(frozen=True)
class FuzzProgram:
    """One generated program plus the provenance needed to replay it."""

    family: str
    seed: int
    nprocs: int
    mutation: str | None  # None => correct-by-construction
    source: str

    @property
    def label(self) -> str:
        m = self.mutation if self.mutation else "good"
        return f"{self.family}/seed={self.seed}/{m}/P={self.nprocs}"


# --------------------------------------------------------------------- #
# template machinery
# --------------------------------------------------------------------- #


@dataclass
class _L:
    """One source line plus the faults that can be seeded into it.

    ``tag`` marks lines eligible for the *generic* mutations (``send`` →
    drop_send, ``recv`` → drop_recv/double_recv); ``alts`` maps a mutation
    name to the replacement text for that line (templates spell out the
    exact broken line, so mutation never guesses at syntax).  ``probe``
    lines contribute no text to the good program — they exist only to host
    injected statements (unowned reads, overlapping acquires).
    """

    text: str | None
    tag: str = ""
    alts: dict[str, str] = field(default_factory=dict)


def _render(lines: list[_L]) -> str:
    return "\n".join(ln.text for ln in lines if ln.text is not None) + "\n"


def _mutations(lines: list[_L]) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    for i, ln in enumerate(lines):
        if ln.tag == "send":
            out.append((i, "drop_send"))
        if ln.tag == "recv":
            out.append((i, "drop_recv"))
            out.append((i, "double_recv"))
        for name in sorted(ln.alts):
            out.append((i, name))
    return out


def _apply(lines: list[_L], idx: int, mutation: str) -> str:
    mutated: list[str] = []
    for i, ln in enumerate(lines):
        if i != idx:
            if ln.text is not None:
                mutated.append(ln.text)
            continue
        if mutation == "drop_send" or mutation == "drop_recv":
            continue
        if mutation == "double_recv":
            assert ln.text is not None
            mutated.append(ln.text)
            mutated.append(ln.text)
            continue
        mutated.append(ln.alts[mutation])
    return "\n".join(mutated) + "\n"


def _block(nprocs: int, nelem: int, seg: int, p: int) -> tuple[int, int]:
    """1-based [lb, ub] of pid ``p``'s BLOCK segment (seg * 1 elements)."""
    lb = (p - 1) * seg + 1
    return lb, min(lb + seg - 1, nelem)


# --------------------------------------------------------------------- #
# templates
# --------------------------------------------------------------------- #


def _t_halo(rng: random.Random) -> tuple[list[_L], int]:
    """Nearest-neighbour halo exchange of boundary values, left→right.

    Each pid p < P value-sends its right boundary to p+1, which receives
    it into its own two-slot halo array ``H`` and folds it into its first
    element after the await.
    """
    P = rng.randint(2, 4)
    b = rng.randint(2, 4)
    n = P * b
    vec = rng.random() < 0.5 and b >= 2
    lines = [
        _L(f"array A[1:{n}] dist (BLOCK) seg ({b})"),
        _L(f"array H[1:{2 * P}] dist (BLOCK) seg (2)"),
        _L(""),
    ]
    for p in range(1, P):
        lb, ub = _block(P, n, b, p)
        nlb, _ = _block(P, n, b, p + 1)
        h1 = 2 * (p + 1) - 1
        src = f"A[{ub - 1}:{ub}]" if vec else f"A[{ub}]"
        into = f"H[{h1}:{h1 + 1}]" if vec else f"H[{h1}]"
        wrong_dest = p + 2 if p + 2 <= P else 1
        lines += [
            _L(f"mypid == {p} : {{"),
            _L(f"  A[{ub}] = A[{ub}] + {p}"),
            _L(f"  {src} -> {{{p + 1}}}", tag="send",
               alts={"wrong_dest": f"  {src} -> {{{wrong_dest}}}"}),
            _L("}"),
            _L(f"mypid == {p + 1} : {{"),
            _L(f"  {into} <- {src}", tag="recv",
               alts=dict(
                   {"wrong_tag": f"  {into} <- A[{lb}]"} if not vec else
                   {"wrong_tag": f"  {into} <- A[{lb}:{lb + 1}]",
                    "size_mismatch": f"  H[{h1}] <- {src}"},
               )),
            _L(f"  await({into}) : {{",
               alts={"drop_await": f"  mypid == {p + 1} : {{"}),
            _L(f"    A[{nlb}] = A[{nlb}] + H[{h1}]"),
            _L("  }"),
            _L("}"),
        ]
    lines.append(_L(
        None,
        alts={
            "unowned_read": f"mypid == 1 : {{ A[1] = A[1] + H[{2 * P}] }}",
            "acquire_overlap": "mypid == 1 : { H[1] <=- }",
        },
    ))
    return lines, P


def _t_ring(rng: random.Random) -> tuple[list[_L], int]:
    """One rotation of block ownership (with values) around the ring."""
    P = rng.randint(2, 4)
    b = rng.randint(2, 3)
    n = P * b
    lines = [
        _L(f"array A[1:{n}] dist (BLOCK) seg ({b})"),
        _L(""),
        _L(None, alts={
            "acquire_overlap": "mypid == 1 : { A[1] <=- }",
        }),
    ]
    for p in range(1, P + 1):
        succ = p % P + 1
        lb, ub = _block(P, n, b, p)
        send = _L(f"mypid == {p} : {{ A[{lb}:{ub}] -=> {{{succ}}} }}",
                  tag="send")
        if P >= 3:  # two hops over: a pid with no matching receive posted
            wrong = succ % P + 1
            send.alts["wrong_dest"] = (
                f"mypid == {p} : {{ A[{lb}:{ub}] -=> {{{wrong}}} }}"
            )
        lines.append(send)
    for p in range(1, P + 1):
        succ = p % P + 1
        lb, ub = _block(P, n, b, p)
        lines += [
            _L(f"mypid == {succ} : {{"),
            _L(f"  A[{lb}:{ub}] <=-", tag="recv",
               alts={"wrong_tag": f"  A[{lb}:{ub - 1}] <=-"} if ub - lb >= 1
               else {}),
            _L(f"  await(A[{lb}:{ub}]) : {{",
               alts={"drop_await": f"  mypid == {succ} : {{"}),
            _L(f"    A[{lb}] = A[{lb}] + 1"),
            _L("  }"),
            _L("}"),
        ]
    return lines, P


def _t_pool(rng: random.Random) -> tuple[list[_L], int]:
    """The section-2.7 work pool, statically scheduled round-robin.

    The master's sends name no recipient and every worker's receive names
    the same one-element section, so matching is the engine's FIFO pool
    discipline.
    """
    P = rng.randint(2, 4)
    nworkers = P - 1
    njobs = rng.randint(nworkers, 2 * P)
    lines = [
        _L(f"array JOB[1:{P}] dist (BLOCK) seg (1)"),
        _L(f"array SLOT[1:{P}] dist (BLOCK) seg (1)"),
        _L(f"array ACC[1:{P}] dist (BLOCK) seg (1)"),
        _L("scalar j"),
        _L(""),
        _L(f"do j = 1, {njobs}"),
        _L("  mypid == 1 : {"),
        _L("    JOB[1] = j"),
        _L("    JOB[1] ->", tag="send",
           alts={"wrong_dest": "    JOB[1] -> {2}"}),
        _L("  }"),
        _L("enddo"),
    ]
    base, extra = divmod(njobs, nworkers)
    for w in range(2, P + 1):
        quota = base + (1 if (w - 1) <= extra else 0)
        if quota == 0:
            continue
        lines += [
            _L(f"mypid == {w} : {{"),
            _L(f"  do j = 1, {quota}"),
            _L(f"    SLOT[{w}] <- JOB[1]", tag="recv",
               alts={"wrong_tag": f"    SLOT[{w}] <- JOB[2]"}),
            _L(f"    await(SLOT[{w}]) : {{",
               alts={"drop_await": f"    mypid == {w} : {{"}),
            _L(f"      ACC[{w}] = ACC[{w}] + SLOT[{w}]"),
            _L("    }"),
            _L("  enddo"),
            _L("}"),
        ]
    foreign = "ACC[3]" if P >= 3 else "JOB[1]"
    lines.append(_L(
        None,
        alts={"unowned_read": f"mypid == 2 : {{ ACC[2] = ACC[2] + {foreign} }}"},
    ))
    return lines, P


def _t_gather_scatter(rng: random.Random) -> tuple[list[_L], int]:
    """Redistribute to one pid, compute there, redistribute back."""
    P = rng.randint(2, 4)
    b = rng.randint(2, 3)
    n = P * b
    lines = [
        _L(f"array A[1:{n}] dist (BLOCK) seg ({b})"),
        _L("scalar i"),
        _L(""),
    ]
    for p in range(1, P + 1):
        lb, _ = _block(P, n, b, p)
        lines.append(_L(f"mypid == {p} : {{ A[{lb}] = A[{lb}] + {p} }}"))
    for p in range(2, P + 1):
        lb, ub = _block(P, n, b, p)
        send = _L(f"mypid == {p} : {{ A[{lb}:{ub}] -=> {{1}} }}", tag="send")
        if P >= 3:
            wrong = p % P + 1 if p % P + 1 != p else 1
            send.alts["wrong_dest"] = (
                f"mypid == {p} : {{ A[{lb}:{ub}] -=> {{{wrong}}} }}"
            )
        lines += [
            send,
            _L("mypid == 1 : {"),
            _L(f"  A[{lb}:{ub}] <=-", tag="recv",
               alts={"wrong_tag": f"  A[{lb}:{ub - 1}] <=-"}),
            _L(f"  await(A[{lb}:{ub}]) : {{",
               alts={"drop_await": "  mypid == 1 : {"}),
            _L(f"    A[{lb}] = A[{lb}] * 2"),
            _L("  }"),
            _L("}"),
        ]
    lines += [
        _L("mypid == 1 : {"),
        _L(f"  do i = 1, {n}"),
        _L("    A[i] = A[i] + 1"),
        _L("  enddo"),
        _L("}"),
    ]
    for p in range(2, P + 1):
        lb, ub = _block(P, n, b, p)
        lines += [
            _L(f"mypid == 1 : {{ A[{lb}:{ub}] -=> {{{p}}} }}", tag="send"),
            _L(f"mypid == {p} : {{"),
            _L(f"  A[{lb}:{ub}] <=-", tag="recv"),
            _L(f"  await(A[{lb}:{ub}]) : {{",
               alts={"drop_await": f"  mypid == {p} : {{"}),
            _L(f"    A[{ub}] = A[{ub}] + 1"),
            _L("  }"),
            _L("}"),
        ]
    return lines, P


def _t_translated(rng: random.Random) -> tuple[list[_L], int]:
    """The translator's own output on a random sequential shifted loop.

    These exercise verifier paths the hand-written templates do not
    (``iown`` rules, unbound pooled sends, computed destinations) and are
    correct by the translator's own correctness, which the repo's tier-1
    tests establish independently.  No fault sites: mutants come from the
    hand-built templates, whose structure the mutations understand.
    """
    P = rng.randint(2, 4)
    n = rng.choice([8, 12])
    sa = rng.choice([1, 2])
    sb = rng.choice([1, 2])
    db = rng.choice(["BLOCK", "CYCLIC"])
    k = rng.randint(1, 2)
    strategy = rng.choice(["owner-computes", "migrate"])
    out = translated_program(P, n, sa, sb, db, k, strategy)
    return [_L(ln) for ln in out.splitlines()], P


def translated_program(P: int, n: int, sa: int, sb: int, db: str, k: int,
                       strategy: str) -> str:
    """One member of the ``translated`` family: ``A[i] = A[i] + B[i-k]``
    over ``n`` elements, segments ``sa``/``sb``, ``B`` distributed ``db``,
    translated for ``P`` processors with ``strategy``."""
    from repro.core.ir.parser import parse_program
    from repro.core.ir.printer import print_program
    from repro.core.translate import translate

    seq = (
        f"array A[1:{n}] dist (BLOCK) seg ({sa})\n"
        f"array B[1:{n}] dist ({db}) seg ({sb})\n"
        f"\n"
        f"do i = {k + 1}, {n}\n"
        f"  A[i] = A[i] + B[i-{k}]\n"
        f"enddo\n"
    )
    return print_program(translate(parse_program(seq), P, strategy=strategy))


def translated_family() -> list[tuple[str, int]]:
    """Every ``(source, nprocs)`` the ``translated`` family can draw (192)."""
    return [(translated_program(*params), params[0]) for params in product(
        (2, 3, 4), (8, 12), (1, 2), (1, 2), ("BLOCK", "CYCLIC"), (1, 2),
        ("owner-computes", "migrate"))]


def _t_shmem_fence(rng: random.Random) -> tuple[list[_L], int]:
    """A poststore pipeline read through prefetch fences (section 5).

    On the shared-address binding ``->`` is a poststore into the global
    address space and ``<-`` posts a prefetch fence; the ``await`` *is*
    the fence.  Each pid multiplies its right boundary, poststores it to
    its right neighbour's fence slot ``F``, and the neighbour folds the
    value in — but only behind the fence.  The signature shmem fault is
    seeded by ``missing_fence``: the await vanishes and the consumer
    reads the prefetched lines before they are resident.
    """
    P = rng.randint(2, 4)
    b = rng.randint(2, 3)
    n = P * b
    lines = [
        _L(f"array A[1:{n}] dist (BLOCK) seg ({b})"),
        _L(f"array F[1:{2 * P}] dist (BLOCK) seg (2)"),
        _L(""),
    ]
    for p in range(1, P):
        lb, ub = _block(P, n, b, p)
        nlb, _ = _block(P, n, b, p + 1)
        f = 2 * (p + 1) - 1
        wrong_dest = p + 2 if p + 2 <= P else 1
        lines += [
            _L(f"mypid == {p} : {{"),
            _L(f"  A[{ub}] = A[{ub}] * 2"),
            _L(f"  A[{ub}] -> {{{p + 1}}}", tag="send",
               alts={"wrong_dest": f"  A[{ub}] -> {{{wrong_dest}}}"}),
            _L("}"),
            _L(f"mypid == {p + 1} : {{"),
            _L(f"  F[{f}] <- A[{ub}]", tag="recv",
               alts={"wrong_tag": f"  F[{f}] <- A[{lb}]"}),
            _L(f"  await(F[{f}]) : {{",
               alts={"missing_fence": f"  mypid == {p + 1} : {{"}),
            _L(f"    A[{nlb}] = A[{nlb}] + F[{f}]"),
            _L("  }"),
            _L("}"),
        ]
    return lines, P


def _t_shmem_relay(rng: random.Random) -> tuple[list[_L], int]:
    """An ownership relay chain with a store-before-ownership fault site.

    Block ``p`` travels ``p -> p+1`` as an ownership-with-values store;
    the receiver fences, updates, and keeps it.  The seeded shmem faults:
    ``store_before_ownership`` makes P2 poststore lines of block 1 before
    the relay has delivered their ownership (stores of unowned lines),
    and ``missing_fence`` drops an ownership fence.
    """
    P = rng.randint(3, 4)
    b = rng.randint(2, 3)
    n = P * b
    lines = [
        _L(f"array A[1:{n}] dist (BLOCK) seg ({b})"),
        _L(""),
        # P2 stores an element of block 1 into the global space before
        # its ownership has arrived from P1 — the relay delivers it only
        # in the receive stage below.
        _L(None, alts={
            "store_before_ownership": f"mypid == 2 : {{ A[1] -> {{{P}}} }}",
        }),
    ]
    for p in range(1, P):
        lb, ub = _block(P, n, b, p)
        send = _L(f"mypid == {p} : {{ A[{lb}:{ub}] -=> {{{p + 1}}} }}",
                  tag="send")
        wrong = p + 2 if p + 2 <= P else 1
        if wrong != p + 1:
            send.alts["wrong_dest"] = (
                f"mypid == {p} : {{ A[{lb}:{ub}] -=> {{{wrong}}} }}"
            )
        lines.append(send)
    for p in range(1, P):
        lb, ub = _block(P, n, b, p)
        lines += [
            _L(f"mypid == {p + 1} : {{"),
            _L(f"  A[{lb}:{ub}] <=-", tag="recv",
               alts={"wrong_tag": f"  A[{lb}:{ub - 1}] <=-"} if ub - lb >= 1
               else {}),
            _L(f"  await(A[{lb}:{ub}]) : {{",
               alts={"missing_fence": f"  mypid == {p + 1} : {{"}),
            _L(f"    A[{lb}] = A[{lb}] + {p}"),
            _L("  }"),
            _L("}"),
        ]
    return lines, P


def _t_coll_gather(rng: random.Random) -> tuple[list[_L], int]:
    """An allgather of per-processor contributions into a replicated window.

    Every pid owns one element of ``A`` and one ``P``-wide block of ``W``;
    the collective gathers all contributions into everyone's block.  The
    seeded collective faults: ``missing_participant`` guards a member out
    of the rendezvous (the rest block forever), and
    ``cardinality_mismatch`` lands the one-element chunks in two-element
    slots.
    """
    P = rng.randint(2, 4)
    lines = [
        _L(f"array A[1:{P}] dist (BLOCK) seg (1)"),
        _L(f"array W[1:{P * P}] dist (BLOCK) seg ({P})"),
        _L(""),
    ]
    for p in range(1, P + 1):
        lines.append(_L(f"mypid == {p} : {{ A[{p}] = A[{p}] + {p} }}"))
    coll = f"coll allgather(g, d in 1:{P}) A[g] into W[(d-1)*{P}+g]"
    lines.append(_L(coll, alts={
        "missing_participant": f"mypid < {P} : {{ {coll} }}",
        "cardinality_mismatch":
            f"coll allgather(g, d in 1:{P}) A[g] "
            f"into W[(d-1)*{P}+1:(d-1)*{P}+2]",
    }))
    for p in range(1, P + 1):
        w = (p - 1) * P + (p % P + 1)
        lines.append(_L(f"mypid == {p} : {{ A[{p}] = A[{p}] + W[{w}] }}"))
    return lines, P


def _t_coll_reduce(rng: random.Random) -> tuple[list[_L], int]:
    """A reduce_scatter summing per-processor vectors onto their owners.

    Contributor ``g`` owns the block ``V[(g-1)*P+1 : g*P]`` and supplies
    ``V[(g-1)*P+d]`` to destination ``d``, which sums the chunks into
    ``C[d]`` through the scratch slot ``S[2d-1]``.  Faults:
    ``missing_participant`` (P1 never arrives), ``wrong_reduce_op``
    (members disagree on the combining operator), and
    ``cardinality_mismatch`` (a two-element scratch for one-element
    chunks).
    """
    P = rng.randint(2, 4)
    lines = [
        _L(f"array V[1:{P * P}] dist (BLOCK) seg ({P})"),
        _L(f"array C[1:{P}] dist (BLOCK) seg (1)"),
        _L(f"array S[1:{2 * P}] dist (BLOCK) seg (2)"),
        _L(""),
    ]
    for p in range(1, P + 1):
        for j in range(1, P + 1):
            v = (p - 1) * P + j
            lines.append(
                _L(f"mypid == {p} : {{ V[{v}] = V[{v}] + {p + j} }}")
            )
    head = f"coll reduce_scatter(g, d in 1:{P}, op"
    tail = f") V[(g-1)*{P}+d] into C[d] via S[2*d-1]"
    rs = f"{head} +{tail}"
    lines.append(_L(rs, alts={
        "missing_participant": f"mypid > 1 : {{ {rs} }}",
        "wrong_reduce_op":
            f"mypid == 1 : {{ {head} +{tail} }}\n"
            f"mypid > 1 : {{ {head} max{tail} }}",
        "cardinality_mismatch":
            f"{head} +) V[(g-1)*{P}+d] into C[d] via S[2*d-1:2*d]",
    }))
    for p in range(1, P + 1):
        lines.append(_L(f"mypid == {p} : {{ C[{p}] = C[{p}] * 2 }}"))
    return lines, P


FAMILIES = {
    "halo": _t_halo,
    "ring": _t_ring,
    "pool": _t_pool,
    "gather-scatter": _t_gather_scatter,
    "translated": _t_translated,
}

#: Shared-address fault families, kept separate so the recorded default
#: battery (and its pinned determinism/false-positive numbers) is
#: untouched; the differential harness runs them with ``backend="shmem"``.
SHMEM_FAMILIES = {
    "shmem-fence": _t_shmem_fence,
    "shmem-relay": _t_shmem_relay,
}

#: Collective fault families (ISSUE 8): the rendezvous/cardinality bugs
#: specific to first-class ``coll`` statements.  Separate from the pinned
#: default battery for the same reason as :data:`SHMEM_FAMILIES`.
COLLECTIVE_FAMILIES = {
    "coll-gather": _t_coll_gather,
    "coll-reduce": _t_coll_reduce,
}


# --------------------------------------------------------------------- #
# battery assembly
# --------------------------------------------------------------------- #


def generate_battery(
    count: int, base_seed: int = 0, families: dict | None = None
) -> list[FuzzProgram]:
    """The first ``count`` programs of the deterministic battery.

    Template instances round-robin over ``families`` (default: the
    message-passing :data:`FAMILIES`; pass :data:`SHMEM_FAMILIES` for the
    shared-address fault battery); after each good program come up to
    three seeded mutants of it.  A prefix of a larger battery is always a
    smaller battery: ``generate_battery(50, s)`` is the first 50 entries
    of ``generate_battery(200, s)``.
    """
    families = FAMILIES if families is None else families
    programs: list[FuzzProgram] = []
    names = sorted(families)
    seed = base_seed
    while len(programs) < count:
        name = names[seed % len(names)]
        # Seed with a string: random.Random hashes tuples with the
        # process-randomized hash(), but strings go through sha512.
        rng = random.Random(f"fuzz:{seed}:{name}")
        lines, nprocs = families[name](rng)
        programs.append(FuzzProgram(name, seed, nprocs, None, _render(lines)))
        sites = _mutations(lines)
        for idx, mutation in rng.sample(sites, min(3, len(sites))):
            programs.append(FuzzProgram(
                name, seed, nprocs, mutation, _apply(lines, idx, mutation)
            ))
        seed += 1
    return programs[:count]


def _main() -> int:
    import argparse
    import pathlib

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--base-seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="write one .xdp file per program instead of stdout")
    args = ap.parse_args()
    battery = generate_battery(args.count, args.base_seed)
    if args.out is None:
        for fp in battery:
            print(f"// {fp.label}")
            print(fp.source)
    else:
        args.out.mkdir(parents=True, exist_ok=True)
        for i, fp in enumerate(battery):
            name = fp.label.replace("/", "_").replace("=", "")
            (args.out / f"{i:04d}_{name}.xdp").write_text(
                f"// {fp.label}\n" + fp.source
            )
        print(f"wrote {len(battery)} programs to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
