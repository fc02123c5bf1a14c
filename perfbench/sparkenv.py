"""The Spark session the benchmark owns.

* Driver memory follows ``conftest.py``'s precedence: ``SPARK_DRIVER_MEM``,
  else 75% of the cgroup limit, else half of physical memory clamped to
  2–8 GiB (the value ROADMAP.md's test command sets).
* Python workers get ``src`` on ``PYTHONPATH``: ``repro`` is not installed.
* Executor threads stay at or below the processor count, shuffle
  partitions are fixed and the console progress bar is off.
* Every file Spark or the JVM writes goes under the run's work directory.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import sys

MAX_THREADS = 4
SHUFFLE_PARTITIONS = 4


def driver_memory() -> str:
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            raw = open(p).read().strip()
            gib = int(raw) / (1 << 30)
        except (OSError, ValueError):
            continue
        if 1 <= gib <= 1024:  # cgroup v1 reports "unlimited" as ~8.6e9 GiB
            return f"{max(1, int(gib * 0.75))}g"
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
        return f"{min(8, max(2, kib // (2 << 20)))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def threads() -> int:
    return max(1, min(MAX_THREADS, os.cpu_count() or 1))


def start(work_dir: str, src_dir: str):
    """Start a local SparkSession whose workers import ``repro`` from ``src_dir``."""
    local = os.path.join(work_dir, "spark-local")
    os.makedirs(local, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = local
    # read by every JVM spark-submit starts, the launcher included
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work_dir}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{threads()}]",
            f"--driver-memory {driver_memory()}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(local)}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        # adaptive execution would re-plan partition counts per query
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", os.path.join(work_dir, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None
