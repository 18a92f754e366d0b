"""The front end's output, pinned: token streams of a corner-case corpus,
``ParseError`` messages and locations, the printed AST of every frozen
benchmark program, example program and app generator output (goldens in
``tests/data/frontend_goldens.json``, see ``tests/frontend_corpus.py``),
and ``parse(print(p)) == p`` over the fuzz generator's programs."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.errors import ParseError
from repro.core.ir.lexer import tokenize
from repro.core.ir.parser import parse_program
from repro.core.ir.printer import print_program

from .frontend_corpus import GOLDENS, digest, pinned_programs
from .fuzz.gen_programs import (
    COLLECTIVE_FAMILIES, FAMILIES, SHMEM_FAMILIES, generate_battery,
)

GOLDEN = json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("case", GOLDEN["tokens"], ids=lambda c: repr(c["source"]))
def test_token_stream(case):
    if "error" in case:
        with pytest.raises(ParseError) as exc:
            tokenize(case["source"])
        assert [exc.value.message, exc.value.line, exc.value.col] == case["error"]
    else:
        got = [[t.kind, t.text, t.line, t.col] for t in tokenize(case["source"])]
        assert got == case["tokens"]


@pytest.mark.parametrize("case", GOLDEN["parse_errors"],
                         ids=lambda c: repr(c["source"][-24:]))
def test_parse_error_location(case):
    with pytest.raises(ParseError) as exc:
        parse_program(case["source"])
    assert [exc.value.message, exc.value.line, exc.value.col] == case["error"]


def test_printed_programs():
    got = {name: digest(text) for name, text in pinned_programs()}
    assert sorted(got) == sorted(GOLDEN["printed"])
    changed = [name for name, d in got.items() if d != GOLDEN["printed"][name]]
    assert changed == []


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    families=st.sampled_from([FAMILIES, SHMEM_FAMILIES, COLLECTIVE_FAMILIES]),
)
def test_print_parse_round_trip(seed, families):
    for fp in generate_battery(4, seed, families):
        program = parse_program(fp.source)
        assert parse_program(print_program(program)) == program, fp.label


@pytest.mark.parametrize("text,where", [
    ("array A[1:4] dist (BLOCK) seg (1)\nA[1] = @\n", "2:8: unexpected character '@'"),
    ("array A[1:4] dist (BLOCK) seg (1)\n\tA[1] = 1 +\n", "2:12: unexpected token '\\n'"),
])
def test_run_reports_file_line_col_and_exits_2(text, where, tmp_path, capsys):
    p = tmp_path / "bad.xdp"
    p.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(p), "--nprocs", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"{p}:{where}\n")
