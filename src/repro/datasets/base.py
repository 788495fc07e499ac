"""Shared dataset container for the paper's three evaluation datasets."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pandas as pd

from repro.ring.schema import AttrSchema


@dataclass
class Dataset:
    """A generated dataset: normalized tables + join recipe + analysis metadata.

    ``schema`` covers the *analysis* attributes of the joined view (join keys
    and row ids excluded). ``incomplete`` are the columns the imputation
    benchmarks mask; ``target`` is the downstream-quality regression target
    and is never masked. Categorical attributes are int-encoded, as the paper
    assumes.
    """

    name: str
    tables: dict[str, pd.DataFrame]
    fact: str
    schema: AttrSchema
    incomplete: list[str]
    target: str
    join: Callable[[dict[str, pd.DataFrame]], pd.DataFrame]
    _joined: pd.DataFrame | None = field(default=None, repr=False)

    def joined(self) -> pd.DataFrame:
        if self._joined is None:
            self._joined = self.join(self.tables)
        return self._joined
