"""The Δ-synchronous setting (Section 8).

* :mod:`repro.delta.reduction` — the reduction map ρ_Δ (Definition 22)
  turning semi-synchronous strings into synchronous ones, with its slot
  bijection π and the induced symbol distribution (Proposition 4);
* :mod:`repro.delta.forks` — Δ-forks (axiom F4Δ, Definition 21) and the
  fork-image isomorphism of Proposition 3;
* :mod:`repro.delta.settlement` — (k, Δ)-settlement (Definition 23) and
  the Theorem 7 error bound.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.delta.reduction": (
            "reduce_string",
            "reduced_probabilities",
            "slot_bijection",
        ),
        "repro.delta.forks": ("DeltaFork", "image_fork"),
        "repro.delta.settlement": (
            "is_k_delta_settled",
            "theorem7_error_bound",
        ),
    },
)
