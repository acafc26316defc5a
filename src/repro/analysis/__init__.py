"""Quantitative analyses: exact settlement probabilities, bounds, Monte Carlo.

* :mod:`repro.analysis.exact` — the Section 6.6 algorithm computing exact
  k-settlement violation probabilities (regenerates Table 1);
* :mod:`repro.analysis.genfunc` — truncated power-series engine for the
  Section 5 generating functions;
* :mod:`repro.analysis.bounds` — Bounds 1–3 and the Theorem 1/2/7/8 error
  estimates;
* :mod:`repro.analysis.montecarlo` — sampling estimators cross-validating
  the exact and asymptotic results;
* :mod:`repro.analysis.cp` — common-prefix violation analysis (Section 9).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.exact": (
            "SettlementComputation",
            "settlement_table",
            "settlement_violation_probability",
        ),
    },
)
