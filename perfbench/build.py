"""Build file of the CFCM benchmark: compiles the program's main sources and
the benchmark's own sources into one class directory with the Scala compiler
that ships with Spark. The build runs straight on `scalac` (no sbt), so it
writes nothing outside the output directory.

Usage: python3 perfbench/build.py   (from the repository root)
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Program sources the benchmark drives, and the benchmark's own sources.
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def spark_jars():
    """Jars of the Spark distribution: `$SPARK_HOME/jars`, else the one that
    holds the `spark-submit` on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars_dir = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars_dir):
        raise SystemExit("build: no Spark distribution found (set SPARK_HOME)")
    return sorted(os.path.join(jars_dir, j) for j in os.listdir(jars_dir) if j.endswith(".jar"))


def sources():
    out = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise SystemExit(f"build: missing source directory {os.path.relpath(d, ROOT)}")
        for dirpath, _, files in os.walk(d):
            out += [os.path.join(dirpath, f) for f in files if f.endswith(".scala")]
    if not any(s.startswith(SOURCE_DIRS[0]) for s in out):
        raise SystemExit("build: no program sources")
    return sorted(out)


def source_hash(srcs):
    h = hashlib.sha256()
    for s in srcs:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build():
    """Compile if the sources changed since the last build; return
    (classpath entries, source hash)."""
    jars = spark_jars()
    srcs = sources()
    digest = source_hash(srcs)
    out = build_dir()
    classes = os.path.join(out, "classes")
    stamp = os.path.join(out, "classes.sha256")
    cp = [classes] + jars
    if os.path.exists(stamp) and open(stamp).read().strip() == digest:
        return cp, digest
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.pathsep.join(jars),
           "scala.tools.nsc.Main", "-nowarn", "-d", classes, "-classpath", os.pathsep.join(jars)] + srcs
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if r.returncode != 0:
        raise SystemExit(f"build: scalac failed with code {r.returncode}")
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return cp, digest


if __name__ == "__main__":
    build()
