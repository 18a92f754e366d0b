"""The front-end pin: inputs whose token streams, parse errors and printed
ASTs are recorded in ``tests/data/frontend_goldens.json`` and checked by
``tests/test_frontend_pin.py``.

The goldens were recorded by the character-at-a-time lexer that preceded
the regex one, so they pin the lexer and parser to their old output
whatever their inner loops become.  Re-record only when a change to the
front end's output is intended::

    PYTHONPATH=src python tests/frontend_corpus.py   # rewrites the goldens
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDENS = REPO / "tests" / "data" / "frontend_goldens.json"

#: Lexer corner cases: number forms, longest-match operators, comments,
#: newline collapsing, tabs, CRLF and unexpected characters.
LEXER_CORPUS = (
    "1e3", "2.5e-2", ".5", "1.", "1.2.3", "1E5 3.e2 4.5E+1", "1e 1e+ 1e-x",
    "1else x1e3 _a9 a_b", "007 0.0 .5e3",
    "a -=> b <=- c <= d <- e -> f => g >= h == i != j < k > l = m",
    "-=>-=> <=-1 <<= <== =>> --> <-- >== !==",
    "( ) [ ] { } , : + - * / % ;",
    "x = 1 // a comment\ny = 2 # another\n",
    "// only a comment", "x = 1 // no newline after", "#c\n\n#d\n x",
    "a / / b // c", "a\n\n\nb", "\n\n  a\n", "a\n   \n\t\nb\n\n",
    "\tx\t=\t1\n\t\ty = 2", "x = 1\r\ny = 2\r\n", "a\r\n\r\n\r\nb", "",
    "x = @", "a\n  b $ c", "x = 1 ! 2", "A[1] = 2\n\n  B[3] = ?",
    "x = 1.5.", "a\x0cb", "é = 1", "x = ½", "x = ٣", "€",
)

#: Programs whose parse fails; the golden pins message, line and column.
PARSE_ERROR_CORPUS = (
    "array A[1:4] dist (BLOCK) seg (1)\ndo i = 1, 4\n  A[i] = = 3\nenddo\n",
    "array A[1:4] dist (BLOCK) seg (1)\nA[1] = = 2\n",
    "array A[1:4] dist (BLOCK) seg (1)\nA[1] = 1 +\n",
    "array A[1:4] dist (BLOCK) seg (1)\ndo i = 1, 4\n  A[i] = 0\n",
    "array A[1:4] dist (SPLAT) seg (1)\n",
    "array A[1:4] dist (BLOCK, BLOCK) seg (1)\n",
    "array A[1:4] universal dist (BLOCK)\n",
    "array A[1:4] dist (BLOCK) seg (1)\nA[1] ~ 2\n",
    "array A[1:4] dist (BLOCK) seg (1)\nA[1] 2\n",
    "coll shout(d in 1:4) A[d] into B[d]\n",
    "x = 1\n)",
    "mypid == 1 : { A[1] = 2 ",
)


def _load_example(name: str):
    path = REPO / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"pin_example_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def pinned_programs() -> list[tuple[str, str]]:
    """``(name, printed AST)`` for every frozen benchmark program, every
    IL program an example builds, and the app generators at the sizes the
    tests use."""
    from repro.apps.fft3d import STAGES, fft3d_source
    from repro.apps.jacobi import VARIANTS as JACOBI_VARIANTS, jacobi_source
    from repro.apps.matmul import VARIANTS as MATMUL_VARIANTS, matmul_source
    from repro.apps.workqueue import workqueue_source
    from repro.core.ir.parser import parse_program
    from repro.core.ir.printer import print_program

    texts: list[tuple[str, str]] = []
    for path in sorted((REPO / "benchmarks" / "e2e" / "programs").glob("*.xdp")):
        texts.append((f"e2e/{path.name}", path.read_text()))
    quickstart = _load_example("quickstart")
    texts.append(("examples/quickstart", quickstart.SEQUENTIAL))
    texts.append(("examples/quickstart-aligned",
                  quickstart.SEQUENTIAL.replace("(CYCLIC)", "(BLOCK)")))
    overlap = _load_example("overlap_polling")
    for background in (False, True):
        texts.append((f"examples/overlap_polling-{background}",
                      overlap.source(background)))
    hierarchy = _load_example("memory_hierarchy")
    for n in (64, 128, 256):
        for db in (False, True):
            texts.append((f"examples/memory_hierarchy-{n}-{db}",
                          hierarchy.staged_source(n, 16, double_buffer=db)))
    for n, p in ((4, 4), (8, 4), (16, 4), (16, 16)):
        for stage in STAGES:
            texts.append((f"fft3d/n{n}-p{p}-s{stage}", fft3d_source(n, p, stage)))
        # The retired memory-bounded stage 3, as fft3d_source last made it.
        texts.append((f"fft3d/n{n}-p{p}-s3", (
            REPO / "tests" / "data" / f"fft3d_s3_rounds_n{n}_p{p}.xdp").read_text()))
    for n, p in ((8, 4), (16, 4), (64, 16)):
        for variant in MATMUL_VARIANTS:
            texts.append((f"matmul/n{n}-p{p}-{variant}",
                          matmul_source(n, p, variant)))
    for njobs, p in ((2, 2), (6, 4), (12, 4)):
        texts.append((f"workqueue/j{njobs}-p{p}", workqueue_source(njobs, p)))

    out = [(name, print_program(parse_program(text))) for name, text in texts]
    # jacobi_source parses its own text (and translates the naive variant).
    for n, p, sweeps in ((8, 4, 2), (32, 4, 2), (64, 4, 3)):
        for variant in JACOBI_VARIANTS:
            out.append((f"jacobi/n{n}-p{p}-t{sweeps}-{variant}",
                        print_program(jacobi_source(n, p, sweeps, variant))))
    return out


def token_streams() -> list[dict]:
    """Each lexer corpus entry with its tokens or its ParseError."""
    from repro.core.errors import ParseError
    from repro.core.ir.lexer import tokenize

    out = []
    for text in LEXER_CORPUS:
        try:
            toks = [[t.kind, t.text, t.line, t.col] for t in tokenize(text)]
        except ParseError as exc:
            out.append({"source": text, "error": [exc.message, exc.line, exc.col]})
        else:
            out.append({"source": text, "tokens": toks})
    return out


def parse_errors() -> list[dict]:
    from repro.core.errors import ParseError
    from repro.core.ir.parser import parse_program

    out = []
    for text in PARSE_ERROR_CORPUS:
        try:
            parse_program(text)
        except ParseError as exc:
            out.append({"source": text, "error": [exc.message, exc.line, exc.col]})
        else:  # pragma: no cover - a corpus entry that parses is a corpus bug
            raise AssertionError(f"parses: {text!r}")
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record() -> dict:
    return {
        "tokens": token_streams(),
        "parse_errors": parse_errors(),
        "printed": {name: digest(text) for name, text in pinned_programs()},
    }


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n")
