"""Mean/mode imputation in Spark — the model-free reference point."""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.mice.prep import mask_col, prepare
from repro.ring.schema import AttrSchema
from repro.sql import RID


def impute_mean_mode(df: DataFrame, schema: AttrSchema,
                     incomplete: list[str]) -> DataFrame:
    """Replace missing values with the column mean (cont) or mode (cat):
    MICE's initial imputation (``mice.prep.prepare``) without its row id
    and masks. Like ``prepare``, raises on a null outside ``incomplete``."""
    return prepare(df, schema, incomplete).df.drop(
        RID, *[mask_col(a) for a in incomplete])
