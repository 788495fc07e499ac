"""MICE with observed-count partitioning (paper's HIGH variant); the loop is
``low.algorithm2`` in ``mode="high"``: per attribute step one scan of the
observed rows of ``missing`` (the first fused with ``C_complete``) and one
update of ``missing``, the same two-frame layout as Low.

The layer entry points below are re-exported only so that a tracer which
rebinds them by this module's name (``perfbench/spans.py``) finds them; the
HIGH loop itself calls them through ``low.py``'s bindings and is traced
there. The re-export goes once the tracer's entry points name ``low`` only.
"""
from .low import (  # noqa: F401
    algorithm2, apply_imputation, cofactor_ring, fit, partition, prepare,
)


def mice_high(df, schema, incomplete, **opts):
    """Run Algorithm 2 with the high-missing-rate partitioning.

    Takes no ``plan``: factorized evaluation is a LOW-only path.
    """
    return algorithm2(df, schema, incomplete, "high", plan=None, **opts)
