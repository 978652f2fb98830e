"""The ``kernel`` label of the benchmark ledger.

The batched kernels have one tier, NumPy.  This module exists only so the
benchmark harness (``perfbench/ledger.py``) can keep labelling its runs
``kernel: numpy`` through ``resolve_kernel("auto")``; nothing in the package
imports it.
"""

from __future__ import annotations

__all__ = ["resolve_kernel"]


def resolve_kernel(selection: str) -> str:
    """Return ``"numpy"`` for ``"auto"`` or ``"numpy"``; raise ``ValueError`` otherwise."""
    if selection not in ("auto", "numpy"):
        raise ValueError(f"unknown kernel {selection!r}; expected 'auto' or 'numpy'")
    return "numpy"
