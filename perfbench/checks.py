"""Correctness checks of every workload's outputs.

Each checker is a pure function that returns a list of failure
messages (empty when every output is right), so one wrong answer is one
failed operation and the tests can feed each checker a perturbed answer.
"""

from __future__ import annotations

import json
import math
import pathlib

#: Depths whose printed Table 1 digits the exact DP reproduces.
PRINTED_DEPTHS = (100, 200, 300, 400)
#: Sigmas within which a Monte Carlo row must meet the exact DP.
MC_SIGMAS = 6.0
#: A served answer may undercut the exact DP by at most this share
#: (last-ulp differences between the table build and a fresh DP).
DOMINANCE_SLACK = 1e-12

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference_k500.json")


def load_k500_reference(path=REFERENCE_PATH) -> tuple[dict, float]:
    """``({(fraction, alpha): value}, relative tolerance)``."""
    data = json.loads(pathlib.Path(path).read_text())
    values = {}
    for key, value in data["values"].items():
        fraction, alpha = (float(part) for part in key.split("|"))
        values[(fraction, alpha)] = value
    return values, data["relative_tolerance"]


def printed(value: float) -> str:
    """A probability as Table 1 prints it: three significant digits."""
    return f"{value:.2e}"


def check_table1(cells: dict, paper: dict, k500: dict, rel_tol: float) -> list[str]:
    """``cells`` maps ``(fraction, alpha, k)`` to computed probabilities.

    Depths up to 400 must print as the paper does; k = 500 must match the
    recorded reference within ``rel_tol``.
    """
    failures = []
    for (fraction, alpha, k), value in sorted(cells.items()):
        if k in PRINTED_DEPTHS:
            expected = paper[(fraction, alpha, k)]
            if printed(value) != printed(expected):
                failures.append(
                    f"table1 ({fraction}, {alpha}, k={k}): {printed(value)} "
                    f"!= paper {printed(expected)}"
                )
        elif k == 500:
            reference = k500[(fraction, alpha)]
            if not abs(value - reference) <= rel_tol * abs(reference):
                failures.append(
                    f"table1 ({fraction}, {alpha}, k=500): {value!r} vs "
                    f"reference {reference!r}"
                )
        else:
            failures.append(f"table1 ({fraction}, {alpha}, k={k}): no reference")
    return failures


def check_mc_rows(rows, exact: dict) -> list[str]:
    """Every row within :data:`MC_SIGMAS` standard errors of the exact DP
    at its ``(alpha, unique_fraction, depth)`` cell.

    The standard error is the larger of the row's own and the binomial
    one at the exact value: a rare cell that stopped after a handful of
    hits reports too small an error of its own.
    """
    failures = []
    for row in rows:
        cell = (row["alpha"], row["unique_fraction"], row["depth"])
        p = exact[cell]
        sigma = max(row["standard_error"], math.sqrt(p * (1 - p) / row["trials"]))
        distance = abs(row["value"] - p)
        if not distance <= MC_SIGMAS * sigma:
            failures.append(
                f"mc {cell}: {row['value']} +- {row['standard_error']} vs "
                f"exact {exact[cell]}"
            )
    return failures


def check_ledger_reuse(cold_rows, warm_rows, chunk_size: int) -> list[str]:
    """The warm run reads every full chunk the cold run wrote instead of
    sampling it again (a ragged remainder is never ledgered)."""
    failures = []
    for cold, warm in zip(cold_rows, warm_rows, strict=True):
        ledgered = cold["trials"] - cold["trials"] % chunk_size
        if warm["reused_trials"] < ledgered:
            failures.append(
                f"mc ({cold['alpha']}, {cold['unique_fraction']}, "
                f"{cold['depth']}): warm run reused {warm['reused_trials']} "
                f"of {ledgered} ledgered trials"
            )
    return failures


def check_no_violations(label: str, estimates) -> list[str]:
    """An honest protocol execution never violates settlement."""
    return [
        f"{label}: violation rate {estimate.value} over {estimate.trials} trials"
        for estimate in estimates
        if estimate.value != 0.0
    ]


def check_served(served, expected) -> list[str]:
    """Served answers equal the in-process oracle's, bit for bit."""
    failures = []
    for index, (got, want) in enumerate(zip(served, expected, strict=True)):
        if not (got == want or (math.isnan(got) and math.isnan(want))):
            failures.append(f"served answer {index}: {got!r} != {want!r}")
    return failures


def check_dominates(served, exact) -> list[str]:
    """Served answers are upper bounds of the exact DP at the query."""
    return [
        f"served answer {index}: {got!r} below exact DP {dp!r}"
        for index, (got, dp) in enumerate(zip(served, exact, strict=True))
        if got < dp * (1.0 - DOMINANCE_SLACK)
    ]
