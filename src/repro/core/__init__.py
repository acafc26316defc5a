"""Core combinatorial framework of the paper.

This subpackage implements the synchronous fork framework of Blum et al.
as extended by Kiayias, Quader and Russell to characteristic strings over
``{h, H, A}`` with concurrent honest slot leaders: forks and tines,
gap/reserve/reach, relative margin and its recurrence (Theorem 5), Catalan
slots, the Unique Vertex Property, slot settlement, balanced forks, and the
optimal online adversary ``A*``.
"""

from repro._lazy import lazy_exports

# ``margin`` the function shares its name with ``repro.core.margin`` the
# module.  It is bound here, eagerly: bound lazily, the name would turn
# into the module as soon as anything imported ``repro.core.margin``.
from repro.core.margin import margin

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.alphabet": (
            "ADVERSARIAL",
            "EMPTY",
            "HONEST_MULTI",
            "HONEST_UNIQUE",
            "CharacteristicString",
            "Symbol",
        ),
        "repro.core.catalan": (
            "catalan_slots",
            "is_catalan",
            "is_left_catalan",
            "is_right_catalan",
        ),
        "repro.core.forks": ("Fork", "Tine", "Vertex"),
        "repro.core.margin": ("margin", "margin_sequence", "relative_margin"),
        "repro.core.reach": ("reach_sequence", "rho"),
        "repro.core.adversary_star": ("build_canonical_fork",),
        "repro.core.settlement": ("is_k_settled", "settlement_violation_slots"),
        "repro.core.uvp": ("has_bottleneck_property", "has_uvp", "uvp_slots"),
    },
)
