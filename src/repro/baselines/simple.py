"""Mean/mode imputation in Spark — the model-free reference point."""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.ring.schema import AttrSchema
from repro.sql import select_sql, sql_ident, sql_literal


def impute_mean_mode(df: DataFrame, schema: AttrSchema,
                     incomplete: list[str]) -> DataFrame:
    """Replace missing values with the column mean (cont) or mode (cat)."""
    cont = [a for a in incomplete if not schema.is_cat(a)]
    fill: dict = {}
    if cont:
        row = df.agg(*[F.avg(a).alias(a) for a in cont]).collect()[0]
        fill.update({a: float(row[a]) for a in cont if row[a] is not None})
    for a in incomplete:
        if schema.is_cat(a):
            mode = (
                df.filter(F.col(a).isNotNull())
                .groupBy(a).count()
                .orderBy(F.desc("count"), F.asc(a))
                .limit(1).collect()
            )
            if mode:
                fill[a] = mode[0][a]
    # one projection, sent as one SQL string (``select_sql``)
    q = sql_ident
    return select_sql(df, [f"coalesce({q(c)}, {sql_literal(fill[c])}) AS {q(c)}"
                           if c in fill else q(c) for c in df.columns])
