"""CFCM benchmark entry point.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark (see build.py), runs one JVM with Spark
in local mode on every core, and relays its output. The last line of stdout
is the result object: {"correct", "attempted", "failed", "metrics"}.
Workloads, metrics and the reasons for them are in perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

RUN_TIMEOUT_S = 170
DRIVER_HEAP = "3g"
# Spark 4 on JDK 17 needs the module openings the spark-class launcher passes.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own."""
    if not os.path.exists(os.path.join(build.ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    cp, digest = build.build()
    state = build.build_dir()
    tmp = os.path.join(state, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xmx{DRIVER_HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-Dspark.driver.host=127.0.0.1", "-Dfile.encoding=UTF-8",
           f"-Dlog4j2.configurationFile={os.path.join(build.HERE, 'log4j2.properties')}"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
    cmd += ["-cp", os.pathsep.join(cp), "repro.perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--state-dir", state, "--git-sha", git_sha(), "--source-sha", digest]
    # Spark's scratch space stays inside the checkout, whatever the caller set
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(state, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run: timed out after {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.exit(f"run: benchmark JVM exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("run: malformed result line")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
