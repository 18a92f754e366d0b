"""Differential validation of the static communication verifier.

Every program in the seeded battery (:mod:`tests.fuzz.gen_programs`) runs
through both the static verifier and the strict reference engine; the two
oracles must agree in both load-bearing directions:

* **no false negatives** — a program the verifier calls *clean* must run
  to completion on the strict engine (no deadlock, no stale read, no
  protocol violation);
* **no silent failures** — a program the strict engine rejects must carry
  at least one verifier finding (error, or a documented conservatism
  warning).

The verifier is deliberately conservative, so the reverse directions are
*measured*, not asserted: the false-positive rate (verifier errors on
engine-clean programs) is reported by ``test_report_rates`` and recorded
in ``docs/VERIFIER.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.analysis.verify_comm import CommReport, verify_communication
from repro.core.errors import XDPError
from repro import run_program
from repro.core.ir.parser import parse_program

from .fuzz.gen_programs import (
    COLLECTIVE_FAMILIES, SHMEM_FAMILIES, FuzzProgram, generate_battery,
)

BATTERY_SIZE = 220   # acceptance floor is 200; a little margin
SMOKE_SIZE = 50      # the CI verify-fuzz-smoke subset (battery prefix)
BASE_SEED = 0
SHMEM_BATTERY_SIZE = 120  # shared-address fault battery (section 5 binding)


@dataclass
class Outcome:
    program: FuzzProgram
    report: CommReport
    engine_error: XDPError | None

    @property
    def engine_ok(self) -> bool:
        return self.engine_error is None


def _run_one(fp: FuzzProgram, backend: str | None = None) -> Outcome:
    kw = {} if backend is None else {"backend": backend}
    report = verify_communication(parse_program(fp.source), fp.nprocs, **kw)
    try:
        run_program(fp.source, fp.nprocs, strict=True, **kw)
        err = None
    except XDPError as e:
        err = e
    return Outcome(fp, report, err)


def _describe(o: Outcome) -> str:
    eng = "engine: ok" if o.engine_ok else f"engine: {o.engine_error!r}"
    return (
        f"--- {o.program.label} ---\n{o.program.source}\n"
        f"{o.report.format()}\n{eng}"
    )


_battery_cache: dict[int, list[Outcome]] = {}


def _outcomes(size: int) -> list[Outcome]:
    if size not in _battery_cache:
        _battery_cache[size] = [
            _run_one(fp) for fp in generate_battery(size, BASE_SEED)
        ]
    return _battery_cache[size]


def _check(outcomes: list[Outcome]) -> None:
    false_negatives = [
        o for o in outcomes if o.report.clean and not o.engine_ok
    ]
    assert not false_negatives, (
        f"{len(false_negatives)} verifier-clean program(s) failed on the "
        "strict engine:\n\n"
        + "\n\n".join(_describe(o) for o in false_negatives[:5])
    )
    silent = [
        o for o in outcomes if not o.engine_ok and not o.report.findings
    ]
    assert not silent, (
        f"{len(silent)} engine failure(s) with no verifier finding:\n\n"
        + "\n\n".join(_describe(o) for o in silent[:5])
    )


def test_smoke_subset():
    """The 50-program prefix used by CI's verify-fuzz-smoke job."""
    _check(_outcomes(SMOKE_SIZE))


def test_full_battery():
    _check(_outcomes(BATTERY_SIZE))


def test_good_programs_are_clean_and_run():
    """Correct-by-construction templates must satisfy both oracles exactly:
    the verifier proves them clean and the engine runs them."""
    bad = [
        o for o in _outcomes(BATTERY_SIZE)
        if o.program.mutation is None and not (o.report.clean and o.engine_ok)
    ]
    assert not bad, (
        f"{len(bad)} template instance(s) not clean+runnable:\n\n"
        + "\n\n".join(_describe(o) for o in bad[:5])
    )


def test_battery_is_deterministic():
    a = generate_battery(12, BASE_SEED)
    b = generate_battery(12, BASE_SEED)
    assert a == b
    assert generate_battery(6, BASE_SEED) == a[:6]


def test_battery_has_coverage():
    battery = generate_battery(BATTERY_SIZE, BASE_SEED)
    assert len(battery) == BATTERY_SIZE
    families = {fp.family for fp in battery}
    assert families == {"halo", "ring", "pool", "gather-scatter", "translated"}
    mutations = {fp.mutation for fp in battery if fp.mutation}
    # every documented fault class is represented
    assert mutations >= {
        "drop_send", "drop_recv", "double_recv", "drop_await",
        "wrong_dest", "wrong_tag", "unowned_read", "acquire_overlap",
    }


_shmem_cache: list[Outcome] = []


def _shmem_outcomes() -> list[Outcome]:
    """Shared-address fault battery, both oracles on the shmem binding."""
    if not _shmem_cache:
        _shmem_cache.extend(
            _run_one(fp, backend="shmem")
            for fp in generate_battery(
                SHMEM_BATTERY_SIZE, BASE_SEED, families=SHMEM_FAMILIES
            )
        )
    return _shmem_cache


def test_shmem_battery_directions():
    """The two oracle-agreement directions hold on the shared-address
    binding too: the verifier speaks prefetch/poststore/fence, the strict
    engine executes the shmem transport."""
    _check(_shmem_outcomes())


def test_shmem_good_programs_are_clean_and_run():
    bad = [
        o for o in _shmem_outcomes()
        if o.program.mutation is None and not (o.report.clean and o.engine_ok)
    ]
    assert not bad, (
        f"{len(bad)} shmem template instance(s) not clean+runnable:\n\n"
        + "\n\n".join(_describe(o) for o in bad[:5])
    )


def test_shmem_fault_classes_covered_and_flagged():
    """Both seeded shared-address fault classes occur in the battery and
    every instance is flagged by the verifier AND rejected by the strict
    engine — a missing fence or a store of unowned lines is never a
    warning-free pass."""
    outcomes = _shmem_outcomes()
    by_class = {
        m: [o for o in outcomes if o.program.mutation == m]
        for m in ("missing_fence", "store_before_ownership")
    }
    for mutation, members in by_class.items():
        assert members, f"no {mutation} mutants in the shmem battery"
        unflagged = [o for o in members if o.report.ok or o.engine_ok]
        assert not unflagged, (
            f"{len(unflagged)} {mutation} mutant(s) slipped through:\n\n"
            + "\n\n".join(_describe(o) for o in unflagged[:5])
        )


def test_shmem_vocabulary_in_findings():
    """Diagnostics on the shmem binding use section-5 vocabulary (fences,
    stores), not message-passing terms alone."""
    text = "\n".join(
        f.message
        for o in _shmem_outcomes() if o.report.findings
        for f in o.report.findings
    )
    assert "fence" in text
    assert "store" in text or "unowned" in text


def test_shmem_battery_leaves_default_battery_untouched():
    """SHMEM_FAMILIES is a separate dict: the pinned 220-program default
    battery must not contain shared-address templates (its recorded
    determinism and false-positive numbers depend on that)."""
    default = generate_battery(24, BASE_SEED)
    assert not any(fp.family.startswith("shmem") for fp in default)
    shmem = generate_battery(24, BASE_SEED, families=SHMEM_FAMILIES)
    assert {fp.family for fp in shmem} == set(SHMEM_FAMILIES)
    # determinism + prefix property hold for the shmem battery as well
    assert shmem[:12] == generate_battery(
        12, BASE_SEED, families=SHMEM_FAMILIES
    )


_coll_cache: list[Outcome] = []
COLL_BATTERY_SIZE = 60


def _coll_outcomes() -> list[Outcome]:
    """Collective fault battery: first-class ``coll`` statement bugs."""
    if not _coll_cache:
        _coll_cache.extend(
            _run_one(fp) for fp in generate_battery(
                COLL_BATTERY_SIZE, BASE_SEED, families=COLLECTIVE_FAMILIES
            )
        )
    return _coll_cache


def test_collective_battery_directions():
    """Both oracle-agreement directions hold on programs with first-class
    collectives: clean programs run, engine failures are flagged."""
    _check(_coll_outcomes())


def test_collective_good_programs_are_clean_and_run():
    bad = [
        o for o in _coll_outcomes()
        if o.program.mutation is None and not (o.report.clean and o.engine_ok)
    ]
    assert not bad, (
        f"{len(bad)} collective template instance(s) not clean+runnable:\n\n"
        + "\n\n".join(_describe(o) for o in bad[:5])
    )


def test_collective_fault_classes_covered_and_flagged():
    """Every seeded collective fault class occurs in the battery and every
    instance carries a verifier finding; the rendezvous faults are also
    engine failures (deadlock / protocol error), while disagreeing reduce
    ops are *silent at run time* — the chunks still rendezvous by tag —
    which is exactly why the static verifier must catch them."""
    outcomes = _coll_outcomes()
    by_class = {
        m: [o for o in outcomes if o.program.mutation == m]
        for m in ("missing_participant", "cardinality_mismatch",
                  "wrong_reduce_op")
    }
    for mutation, members in by_class.items():
        assert members, f"no {mutation} mutants in the collective battery"
        unflagged = [o for o in members if not o.report.findings]
        assert not unflagged, (
            f"{len(unflagged)} {mutation} mutant(s) without a finding:\n\n"
            + "\n\n".join(_describe(o) for o in unflagged[:5])
        )
    for o in by_class["missing_participant"]:
        assert not o.engine_ok
        assert any(f.code == "unmatched-collective-participant"
                   for f in o.report.findings), _describe(o)
    for o in by_class["cardinality_mismatch"]:
        assert not o.engine_ok
        assert any(f.code == "collective-cardinality"
                   for f in o.report.findings), _describe(o)
    # The runtime cannot see a reduce-op disagreement (tags match anyway).
    for o in by_class["wrong_reduce_op"]:
        assert o.engine_ok, _describe(o)
        assert not o.report.ok, _describe(o)


def test_collective_battery_leaves_default_battery_untouched():
    default = generate_battery(24, BASE_SEED)
    assert not any(fp.family.startswith("coll") for fp in default)
    coll = generate_battery(24, BASE_SEED, families=COLLECTIVE_FAMILIES)
    assert {fp.family for fp in coll} == set(COLLECTIVE_FAMILIES)
    assert coll[:12] == generate_battery(
        12, BASE_SEED, families=COLLECTIVE_FAMILIES
    )


def test_report_rates(capsys):
    """Measure (not assert) the verifier's conservatism on the battery.

    The printed table is the source of the numbers quoted in
    ``docs/VERIFIER.md``; regenerate with
    ``pytest tests/test_fuzz_differential.py::test_report_rates -s``.
    """
    outcomes = _outcomes(BATTERY_SIZE)
    good = [o for o in outcomes if o.program.mutation is None]
    mutants = [o for o in outcomes if o.program.mutation is not None]
    engine_bad = [o for o in outcomes if not o.engine_ok]
    caught_err = [o for o in engine_bad if not o.report.ok]
    caught_any = [o for o in engine_bad if o.report.findings]
    fp = [o for o in outcomes if o.engine_ok and not o.report.ok]
    with capsys.disabled():
        print(
            f"\n[fuzz-differential] battery={len(outcomes)} "
            f"(good={len(good)}, mutants={len(mutants)})\n"
            f"  engine failures: {len(engine_bad)} "
            f"(flagged as error: {len(caught_err)}, "
            f"flagged at all: {len(caught_any)})\n"
            f"  false positives (verifier error, engine ok): {len(fp)} "
            f"/ {len(outcomes)} = {len(fp) / len(outcomes):.1%}"
        )
    # direction guarantees, restated over the measured sets:
    assert len(caught_any) == len(engine_bad)
    # conservatism must stay bounded to be useful
    assert len(fp) / len(outcomes) <= 0.15, [o.program.label for o in fp]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
