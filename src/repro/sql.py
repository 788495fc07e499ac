"""Spark SQL text: literals, identifiers, and projections sent as one string.

A projection built from ``Column`` objects, or from a list of names, costs
one Py4J round trip per column or more: PySpark hands a Python list to the
JVM one element at a time. ``select_sql`` and ``select_cols`` send the whole
select list as one string, split in the JVM, so the plan costs the same few
calls at any width. (A ``spark.sql("... FROM {df}", df=df)`` query would
too, but it goes through a temporary view, and dropping that view uncaches
a cached ``df``.)
"""
from __future__ import annotations

import math
from typing import Any

import numpy as np
from pyspark.sql import DataFrame

#: The row id ``mice.prep.prepare`` adds to every row; the noise of a
#: stochastic prediction is a function of it (``models.stochastic``).
RID = "__rid"


def sql_literal(v: Any) -> str:
    """``v`` as a Spark SQL literal that parses back to exactly ``v``: a
    float as its ``repr`` with the ``D`` (double) suffix, an int, a bool, or
    a quoted string; negative numbers are parenthesized. A non-finite float
    has no literal and raises ``ValueError``."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"no SQL literal for the non-finite value {v!r}")
        text = f"{v!r}D"
    elif isinstance(v, int):
        text = str(v)
    elif isinstance(v, str):
        return "'" + v.replace("\\", "\\\\").replace("'", "\\'") + "'"
    else:
        raise TypeError(f"no SQL literal for {type(v).__name__} {v!r}")
    return f"({text})" if text.startswith("-") else text


def sql_ident(name: str) -> str:
    """Column ``name`` as a backquoted Spark SQL identifier."""
    return "`" + name.replace("`", "``") + "`"


#: joins a list into the one string that crosses Py4J (the ASCII unit
#: separator, which no name or SQL text here contains)
_SEP = "\x1f"


def _jseq(df: DataFrame, items: list[str]):
    """``items`` as a JVM ``Seq[String]`` in a constant number of Py4J
    calls: one string, split in the JVM."""
    jvm = df.sparkSession._jvm
    if not items:
        return jvm.PythonUtils.toSeq(jvm.java.util.ArrayList())
    if any(_SEP in i for i in items):
        raise ValueError("a select item holds the list separator \\x1f")
    parts = jvm.java.util.regex.Pattern.compile(_SEP).splitAsStream(_SEP.join(items))
    return jvm.PythonUtils.toSeq(parts.toList())


def select_sql(df: DataFrame, exprs: list[str]) -> DataFrame:
    """``df.selectExpr(*exprs)`` in a constant number of Py4J calls.
    Aggregate expressions make it a global aggregate, as in ``selectExpr``."""
    return DataFrame(df._jdf.selectExpr(_jseq(df, exprs)), df.sparkSession)


def select_cols(df: DataFrame, names: list[str]) -> DataFrame:
    """``df.select(*names)`` in a constant number of Py4J calls. The names
    are resolved as columns, not parsed as SQL, so a JVM that never parses
    SQL does not start the parser (~0.3 s, once) for it."""
    quoted = [sql_ident(n) for n in names]
    return DataFrame(df._jdf.select(quoted[0], _jseq(df, quoted[1:])),
                     df.sparkSession)
