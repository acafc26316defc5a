"""``src/`` holds what a job runs (ROADMAP item 15).

Every top-level function and class under ``src/repro``, and every public
method of those classes, must be named somewhere outside its own
definition and outside ``tests/``: in ``src/``, ``benchmarks/``,
``examples/``, ``perfbench/`` or ``.github/``.  A definition that only
tests call is deleted, or moved into ``tests/`` when other tests use it
as a reference.  The exceptions are in :data:`KEPT`: each states a
numbered claim of the paper that a test checks against, with that claim
in one line.

A name counts as a whole word in any text file of those trees, so a
mention in another definition's docstring counts too.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "examples", "perfbench", ".github")
SUFFIXES = {".py", ".md", ".yml", ".yaml", ".json", ".toml", ".cfg", ".txt"}
WORD = re.compile(r"\w+")

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
    "exact_string_probability": "Pr[w] under the i.i.d. law (Def. 7)",
    "theorem2_asymptotic_rate": "Theorem 2's exponent (ROADMAP item 16)",
    "nominal_rate_shape": "Theorem 1's min(ε³, ε²p_h) (ROADMAP item 16)",
    "sample_descent_time": "Section 5.1: E[first descent] = 1/ε",
    "sample_reflected_walk_height": "Eq. (9): X_m ⪯ X_∞ ([4, Lemma 6.1])",
    "pending_count": "NetworkModel: axiom A4Δ leaves nothing undelivered",
}


def _text_files(tree: str):
    for path in (ROOT / tree).rglob("*"):
        parts = path.relative_to(ROOT / tree).parts
        if path.suffix not in SUFFIXES or "__pycache__" in parts:
            continue
        if any(part.startswith(".") for part in parts) or not path.is_file():
            continue
        yield path


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(text: str):
    """``(name, source span)`` of each top-level function and class, and
    of each public method of those classes."""
    lines = text.splitlines()
    for node in ast.parse(text).body:
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
            span = "\n".join(lines[member.lineno - 1 : member.end_lineno])
            yield member.name, span


def unreached() -> dict[str, str]:
    """``{name: path}`` of each ``src/`` definition named only inside
    itself (and perhaps in ``tests/``)."""
    words: Counter[str] = Counter()
    definitions = []
    for tree in SCANNED:
        for path in _text_files(tree):
            text = path.read_text(encoding="utf-8")
            words.update(WORD.findall(text))
            if tree == "src" and path.suffix == ".py":
                for name, span in _definitions(text):
                    definitions.append((name, span, path))
    found = {}
    for name, span, path in definitions:
        if words[name] <= WORD.findall(span).count(name):
            found[name] = str(path.relative_to(ROOT))
    return found


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
