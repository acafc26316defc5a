"""Quantitative analyses: exact settlement probabilities and bounds.

* :mod:`repro.analysis.exact` — the Section 6.6 algorithm computing exact
  k-settlement violation probabilities (regenerates Table 1);
* :mod:`repro.analysis.genfunc` — truncated power-series engine for the
  Section 5 generating functions;
* :mod:`repro.analysis.bounds` — Bounds 1–3 and the Theorem 1/2/7/8 error
  estimates;
* :mod:`repro.analysis.cp` — common-prefix violation analysis (Section 9).

The Monte Carlo that cross-validates these results is the engine's:
``repro.engine.run_scenario`` (or an ``ExperimentRunner``) with a
settlement or Catalan-window estimator, on ``backend=ProcessBackend(n)``
to fan the chunks across cores.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.exact": (
            "settlement_table",
            "settlement_violation_probability",
        ),
    },
)
