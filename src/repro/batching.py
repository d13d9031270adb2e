"""The batch kernels' on/off report for ``bench/report.py``'s header.

Every run takes the batched paths; nothing switches them off.  This
module exists only because the benchmark's report header still imports
:func:`batch_enabled`, and it goes with the next change to ``bench/``.
"""

from __future__ import annotations


def batch_enabled() -> bool:
    """Always True: the batch kernels have no off switch."""
    return True
