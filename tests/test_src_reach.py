"""``src/`` holds what a job runs (ROADMAP item 15).

Every top-level function and class under ``src/repro``, and every public
method of those classes, must be named by code outside its own
definition and outside ``tests/``: in ``src/``, ``benchmarks/``,
``examples/``, ``perfbench/`` or ``.github/``.  A definition that only
tests call is deleted, or moved into ``tests/`` when other tests use it
as a reference.  The exceptions are in :data:`KEPT`: each states a
numbered claim of the paper that a test checks against, with that claim
in one line.

In a ``.py`` file, a name counts when it is an identifier token or a
whole word of a string literal that is not a docstring, so the lazy
export tables and perfbench's layer plans count as uses.  Comments,
docstrings and Markdown do not count.  Workflow files under
``.github/`` count as whole words of their text.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "perfbench")
WORKFLOWS = ".github"
WORD = re.compile(r"\w+")
#: Token types whose words count; Python 3.12 splits an f-string into
#: FSTRING_START, its FSTRING_MIDDLE text and the NAME tokens inside.
LITERALS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", None)}

KEPT = {
    "has_uvp_by_margin": "Lemma 1: UVP iff every suffix margin is < 0",
    "uvp_holds_in_fork": "Definition 4 (UVP) on one explicit fork",
    "bottleneck_holds_in_fork": "Definition 4 (bottleneck) on one fork",
    "catalan_slots_naive": "Definition 11 read slot by slot",
    "settled_by_uvp": "Eq. (1): a UVP slot in [s, s + k] (k+1)-settles s",
    "settled_by_uvp_consistent": "Eq. (1) with Theorem 4's A0' UVP slots",
    "lemma2_settles": "Lemma 2: a reduced Catalan slot settles slot s",
    "play_settlement_game": "The settlement game of Section 2.2",
    "is_valid": "Fork.is_valid: fork axioms F1-F4 (Definition 2)",
    "is_closed": "Fork.is_closed: closed forks (Definition 12)",
    "slot_divergence": "Definition 25: slot divergence of one fork",
    "exact_string_probability": "Pr[w] under the i.i.d. law (Def. 7)",
    "bound2_decay_rate": "Theorem 2's exponent, ln R₁ (ROADMAP item 16)",
    "nominal_rate_shape": "Theorem 1's min(ε³, ε²p_h) (ROADMAP item 16)",
    "sample_descent_time": "Section 5.1: E[first descent] = 1/ε",
    "sample_reflected_walk_height": "Eq. (9): X_m ⪯ X_∞ ([4, Lemma 6.1])",
    "pending_count": "NetworkModel: axiom A4Δ leaves nothing undelivered",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _files(tree: Path, suffixes: set[str]):
    for path in tree.rglob("*"):
        parts = path.relative_to(tree).parts
        if path.suffix not in suffixes or "__pycache__" in parts:
            continue
        if any(part.startswith(".") for part in parts) or not path.is_file():
            continue
        yield path


def _definitions(module: ast.Module):
    """``(name, first line, last line)`` of each top-level function and
    class, and of each public method of those classes."""
    for node in module.body:
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            continue
        members = [node]
        if isinstance(node, ast.ClassDef):
            members += [
                child
                for child in node.body
                if isinstance(child, FUNCTIONS)
                and not child.name.startswith("_")
            ]
        for member in members:
            yield member.name, member.lineno, member.end_lineno


def _docstring_spans(module: ast.Module):
    """``((line, byte column), (line, byte column))`` of each docstring."""
    for node in ast.walk(module):
        if isinstance(node, (ast.Module, ast.ClassDef, *FUNCTIONS)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                yield (
                    (doc.lineno, doc.col_offset),
                    (doc.end_lineno, doc.end_col_offset),
                )


def code_words(text: str, module: ast.Module):
    """``(line, word)`` of each identifier and of each word of a string
    literal that is not a docstring."""
    lines = io.StringIO(text).readlines()
    docstrings = list(_docstring_spans(module))
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        row, column = token.start
        if token.type == tokenize.NAME:
            yield row, token.string
        elif token.type in LITERALS:
            # ``ast`` columns count UTF-8 bytes, ``tokenize`` ones characters.
            at = (row, len(lines[row - 1][:column].encode()))
            if not any(start <= at < end for start, end in docstrings):
                for word in WORD.findall(token.string):
                    yield row, word


def unreached(root: Path = ROOT) -> dict[str, str]:
    """``{name: path}`` of each ``src/`` definition that no code outside
    itself (and outside ``tests/``) names."""
    words: Counter[str] = Counter()
    definitions = []
    for tree in SCANNED:
        for path in _files(root / tree, {".py"}):
            text = path.read_text(encoding="utf-8")
            module = ast.parse(text)
            rows = defaultdict(list)
            for row, word in code_words(text, module):
                words[word] += 1
                rows[word].append(row)
            if tree == "src":
                for name, first, last in _definitions(module):
                    own = bisect_right(rows[name], last) - bisect_left(
                        rows[name], first
                    )
                    definitions.append((name, own, path))
    for path in _files(root / WORKFLOWS, {".yml", ".yaml"}):
        words.update(WORD.findall(path.read_text(encoding="utf-8")))
    return {
        name: str(path.relative_to(root))
        for name, own, path in definitions
        if words[name] <= own
    }


def test_every_src_definition_is_named_outside_tests():
    missing = {
        name: where for name, where in unreached().items() if name not in KEPT
    }
    assert not missing, (
        "named only by tests: delete these, move them into tests/, or add "
        f"the paper claim each states to KEPT: {missing}"
    )


def test_every_kept_entry_is_still_test_only():
    found = unreached()
    stale = sorted(name for name in KEPT if name not in found)
    assert not stale, f"defined nowhere or named outside tests: {stale}"
    for name, reason in KEPT.items():
        assert reason and "\n" not in reason, name


def test_only_code_names_a_definition(tmp_path):
    """Docstrings, comments and Markdown do not name; string literals and
    workflow text do."""
    files = {
        "src/repro/__init__.py": (
            '"""Exports lazily; see in_docstring."""\n'
            'EXPORTS = {"repro.jobs": ("in_literal",)}\n'
        ),
        "src/repro/jobs.py": (
            "def in_docstring():\n"
            "    pass\n\n\n"
            "def in_comment():\n"
            "    pass\n\n\n"
            "def in_literal():\n"
            "    pass\n\n\n"
            "def in_workflow():\n"
            "    pass\n\n\n"
            "def called():\n"
            '    """Unlike in_docstring, this one runs."""\n'
            "    # in_comment is not called either\n"
            "    return called\n"
        ),
        "src/repro/README.md": "in_docstring, in_comment and called.\n",
        "examples/run.py": "from repro.jobs import called\n\ncalled()\n",
        ".github/workflows/ci.yml": "run: python -c 'in_workflow()'\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert unreached(tmp_path) == {
        "in_docstring": "src/repro/jobs.py",
        "in_comment": "src/repro/jobs.py",
    }
