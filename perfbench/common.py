"""Build, process timing, statistics and run context for the benchmark."""

import hashlib
import math
import os
import statistics
import subprocess
import threading
import time

BENCH_DIR = "perfbench"
UNIT_TIMEOUT_S = 60


class BenchError(Exception):
    """A failure that makes the run unusable: no result is printed."""


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(root):
    """Configures (once) and builds the Release CLI and the layer tracer.

    Returns (hyperviper, trace_layers) paths. Refuses a build tree whose
    CMAKE_BUILD_TYPE is not Release.
    """
    for need in ("src/CMakeLists.txt", "tools/hyperviper/main.cpp",
                 f"{BENCH_DIR}/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            raise BenchError(f"missing {need}: run from the root of a full checkout")
    bdir = build_dir(root)
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    with open(log, "a") as out:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, BENCH_DIR), "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if _have("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                raise BenchError(f"cmake configure failed; see {log}")
        cmd = ["cmake", "--build", bdir, "-j", str(nproc()),
               "--target", "hyperviper", "trace_layers"]
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            raise BenchError(f"build failed; see {log}")
    if cmake_cache(bdir).get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing to measure a non-Release build")
    return (os.path.join(bdir, "tools", "hyperviper"),
            os.path.join(bdir, "trace_layers"))


def _have(tool):
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def cmake_cache(bdir):
    vals = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if ":" in line and "=" in line and not line.startswith(("#", "//")):
                    key, rest = line.split(":", 1)
                    vals[key] = rest.split("=", 1)[1].strip()
    except OSError:
        pass
    return vals


def run_context(root, seed, load_at_start):
    bdir = build_dir(root)
    cache = cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "nproc": nproc(),
        "compiler": version,
        "commit": source_revision(root),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
        "seed": seed,
    }


def source_revision(root):
    """The git commit when the checkout has one, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


class UnitResult:
    __slots__ = ("ms", "rss_mb", "cpu_s", "exit", "out")

    def __init__(self, ms, rss_mb, cpu_s, exit_code, out):
        self.ms, self.rss_mb, self.cpu_s = ms, rss_mb, cpu_s
        self.exit, self.out = exit_code, out


def run_process(argv, cwd=None, merge_stderr=True):
    """Runs one process to completion; wall time from spawn to reap, peak
    RSS and CPU time from the kernel's accounting of that child. The output
    is stdout, followed by stderr unless merge_stderr is false (then stderr
    is discarded)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT if merge_stderr
                            else subprocess.DEVNULL)
    timer = threading.Timer(UNIT_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    ms = (time.perf_counter() - t0) * 1000.0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return UnitResult(ms, usage.ru_maxrss / 1024.0,
                      usage.ru_utime + usage.ru_stime, proc.returncode,
                      out.decode("utf-8", "replace"))


def cli_setup_seconds(hyperviper, repeats=200):
    """Median time to launch the CLI and have it ready: process start,
    dynamic linking, static init and option parsing (`--help`). A launch
    costs about 9 ms, so many launches are cheap and steady the median."""
    times = []
    for _ in range(repeats):
        r = run_process([hyperviper, "--help"])
        if r.exit != 0:
            raise BenchError("hyperviper --help failed")
        times.append(r.ms / 1000.0)
    return statistics.median(times)


def timed_rounds(units, seconds, rng, run_one):
    """Runs every unit once per round, in a seeded order, until another
    round would overrun the time budget. Returns (results, elapsed_s,
    rounds); results are (unit, outcome) pairs."""
    results = []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        order = list(units)
        rng.shuffle(order)
        for unit in order:
            results.append((unit, run_one(unit)))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds > seconds:
            return results, elapsed, rounds


def tail(samples):
    """The highest percentile that has at least ten samples beyond it:
    the eleventh-largest sample. Returns (value, percentile, n)."""
    n = len(samples)
    s = sorted(samples)
    if n <= 10:
        return s[-1], 0.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else float("nan")


def parallel_map(fn, items, workers):
    """Maps fn over items on a few threads (each call spawns its own
    process, so threads suffice); preserves order."""
    items = list(items)
    out = [None] * len(items)
    errors = []
    it = iter(range(len(items)))
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                i = next(it, None)
            if i is None:
                return
            try:
                out[i] = fn(items[i])
            except Exception as e:  # re-raised on the calling thread
                errors.append(e)

    threads = [threading.Thread(target=worker) for _ in range(max(1, workers))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return out
