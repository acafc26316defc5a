"""Reference data: the paper's published Table 1 and cached reproductions."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {"repro.data.table1": ("PAPER_TABLE1", "paper_table1_value")},
)
