"""SparkSession factory for the spark-submit job entrypoints.

Tests use the ``spark`` fixture from conftest.py; jobs run standalone and
create an equivalently-configured local session here.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    # driver memory must be fixed before the JVM launches (SparkConf is too
    # late in local mode); the default 1g heap OOMs at sf >= 0.1
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '16g')} pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        # PySpark reads this once per process; on, the first Column call
        # captures its call site and imports IPython to look for a notebook
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .getOrCreate()
    )
