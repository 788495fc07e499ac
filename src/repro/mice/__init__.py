"""MICE imputation: Algorithm 1 (baseline) and computation-sharing variants."""
from .baseline import MiceResult, mice_baseline
from .high import mice_high
from .low import mice_low
from .partition import partition
from .prep import Prepared, mask_col, prepare
from .timing import TimingLog

VARIANTS = {"baseline": mice_baseline, "low": mice_low, "high": mice_high}


def run_mice(df, schema, incomplete, variant: str = "low", **kwargs) -> MiceResult:
    """Dispatch to one of the three functionally-equivalent variants.

    ``variant="low"`` also takes ``plan=`` to run over a normalized schema.
    """
    try:
        impl = VARIANTS[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; one of {sorted(VARIANTS)}")
    return impl(df, schema, incomplete, **kwargs)


__all__ = [
    "MiceResult",
    "mice_baseline",
    "mice_low",
    "mice_high",
    "run_mice",
    "prepare",
    "Prepared",
    "partition",
    "mask_col",
    "TimingLog",
    "VARIANTS",
]
