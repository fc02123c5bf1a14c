"""Shared spark-submit session helper for the job entrypoints."""
import os


def driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set (as for the test suite's ``conftest.py``),
    else half of physical memory clamped to 2–8 GiB, the value the test
    command in ROADMAP.md exports."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // (2 << 20)))}g"


def get_spark(app: str):
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master local[*] --driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
