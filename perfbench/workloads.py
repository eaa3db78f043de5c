"""The workloads: inputs, known answers, and the timed phase.

Each workload builds its seeded inputs and references in `setup` (not part
of any metric), measures `setup_s` (launching the system under test until
it can take a unit), runs units for the time budget, and checks every
output against its known answer. The serve helpers at the end build the
request stream the traced run replays through the `service` layer.
"""

import glob
import json
import os
import random
import re
import signal
import socket
import statistics
import subprocess
import threading
import time

import families
from common import (BenchError, cli_setup_seconds, geomean, parallel_map,
                    run_process, timed_rounds)


class Unit:
    """One input of a workload with its known answer."""

    def __init__(self, name, expect, **attrs):
        self.name = name
        self.expect = expect
        self.__dict__.update(attrs)


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def verdict_ok(result, name, expect):
    """A CLI verify outcome matches the known verdict: last line and exit."""
    lines = result.out.rstrip("\n").splitlines()
    return (bool(lines) and lines[-1] == f"{name}: {expect}"
            and result.exit == (0 if expect == "verified" else 1))


class Outcome:
    """The timed-phase samples of one run, folded into the metrics."""

    def __init__(self):
        self.ms = []          # wall time per unit
        self.rss_mb = 0.0     # max RSS of any process under test
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.elapsed_s = 0.0
        self.work = 0         # units, or seeds for fuzz-campaign
        self.growth = float("nan")
        self.notes = []       # human-readable detail lines

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


# --------------------------------------------------------------------------
# scale-verify

SCALE_SIZES = {
    "straight": (25, 50, 100),
    "ifs": (25, 50, 100),
    "loops": (25, 50, 100),
    "par": (6, 12, 24),
    "procs": (50, 100, 200),
    "specs": (3, 6, 12),
}


def scale_units(workdir, seed):
    rng = random.Random(f"scale-verify/{seed}")
    units = []
    for fam, sizes in SCALE_SIZES.items():
        for n in sizes:
            for leaky in (False, True):
                name = f"scale/{fam}-{n}{'-leaky' if leaky else ''}.hv"
                write(os.path.join(workdir, name),
                      families.FAMILIES[fam](n, rng, leaky))
                units.append(Unit(name, "REJECTED" if leaky else "verified",
                                  family=fam, size=n, leaky=leaky))
    return units


def growth_from_cells(cells, sizes_of):
    """Geometric mean over families of t(2N)/t(N) at the two largest
    sizes, where t is the geometric mean of the per-twin medians."""
    ratios = {}
    for fam, sizes in sizes_of.items():
        def t(n):
            meds = [statistics.median(v) for (f, s, _), v in cells.items()
                    if f == fam and s == n and v]
            return geomean(meds)
        ratios[fam] = t(sizes[-1]) / t(sizes[-2])
    return geomean(ratios.values()), ratios


class ScaleVerify:
    name = "scale-verify"

    def __init__(self, b):
        self.b = b

    def setup(self):
        self.units = scale_units(self.b.workdir, self.b.seed)
        return cli_setup_seconds(self.b.hv)

    def run_one(self, u):
        return run_process([self.b.hv, "--jobs", str(self.b.jobs), u.name],
                           cwd=self.b.workdir)

    def measure(self, seconds):
        o = Outcome()
        results, o.elapsed_s, rounds = timed_rounds(
            self.units, seconds, random.Random(f"order/{self.b.seed}"), self.run_one)
        cells = {}
        for u, r in results:
            o.attempted += 1
            if not verdict_ok(r, u.name, u.expect):
                o.fail(f"{u.name}: expected {u.expect}, got exit {r.exit}")
            o.ms.append(r.ms)
            o.rss_mb = max(o.rss_mb, r.rss_mb)
            cells.setdefault((u.family, u.size, u.leaky), []).append(r.ms)
        o.work = len(results)
        o.growth, ratios = growth_from_cells(
            cells, SCALE_SIZES)
        o.notes.append(f"rounds {rounds}; per-family t(2N)/t(N) at the two "
                       "largest sizes: " + ", ".join(
                           f"{f} {r:.2f}" for f, r in ratios.items()))
        for fam, sizes in SCALE_SIZES.items():
            o.notes.append(f"  {fam:9s} " + "  ".join(
                f"N={n}: {statistics.median(cells[(fam, n, False)]):.1f}/"
                f"{statistics.median(cells[(fam, n, True)]):.1f} ms"
                for n in sizes) + "  (secure/leaky median)")
        straight_rss = max(r.rss_mb for u, r in results if u.family == "straight")
        o.notes.append(f"  straight peak RSS {straight_rss:.1f} MB")
        return o

    def trace_programs(self):
        return [(u.name, os.path.join(self.b.workdir, u.name), u.expect)
                for u in self.units]


# --------------------------------------------------------------------------
# fuzz-campaign

# The campaigns are fixed: base seeds 1 (the CLI default) to 3. Serial
# shrinking of one finding costs 3-5x a 100-seed campaign, and findings come
# at ~0.5% of generator seeds, so campaigns drawn per workload seed would
# differ in cost by far more than any bound. The workload seed orders the
# units. Base 1's 100-seed campaign is the one with a finding; three bases
# keep a round short enough that it recurs well over ten times per run, so
# the tail (the 11th-largest unit) stays inside that unit's own samples.
FUZZ_BASES = (1, 2, 3)
FUZZ_SEEDS = (25, 50, 100)
FATAL = ("soundness_violation", "analysis_unsound", "cert_invalid",
         "generator_invalid")


def fuzz_argv(hv, base, seeds, jobs):
    return [hv, "fuzz", "--seeds", str(seeds), "--jobs", str(jobs),
            "--base-seed", str(base)]


def fuzz_references(b, bases, sizes):
    """The --jobs 1 report of every (base, seeds) pair, made in set-up."""
    keys = [(base, s) for base in bases for s in sizes]
    refs = parallel_map(
        lambda k: run_process(fuzz_argv(b.hv, k[0], k[1], 1), merge_stderr=False),
        keys, b.jobs)
    out = {}
    for k, r in zip(keys, refs):
        if r.exit != 0:
            raise BenchError(f"fuzz reference {k} is not clean (exit {r.exit})")
        out[k] = r.out
    return out


class FuzzCampaign:
    name = "fuzz-campaign"

    def __init__(self, b):
        self.b = b

    def setup(self):
        self.refs = fuzz_references(self.b, FUZZ_BASES, FUZZ_SEEDS)
        self.units = [Unit(f"fuzz b={base} S={s}", None, base=base, seeds=s)
                      for base in FUZZ_BASES for s in FUZZ_SEEDS]
        return cli_setup_seconds(self.b.hv)

    def run_one(self, u):
        return run_process(fuzz_argv(self.b.hv, u.base, u.seeds, self.b.jobs),
                           merge_stderr=False)

    def measure(self, seconds):
        o = Outcome()
        results, o.elapsed_s, rounds = timed_rounds(
            self.units, seconds, random.Random(f"order/{self.b.seed}"), self.run_one)
        cells = {}
        findings = 0
        for u, r in results:
            o.attempted += 1
            counts = {}
            try:
                report = json.loads(r.out)["fuzz_campaign"]
                counts = report["counts"]
                findings += len(report["findings"])
            except (ValueError, KeyError):
                pass
            if r.exit != 0 or any(counts.get(k, 1) for k in FATAL):
                o.fail(f"{u.name}: fatal class or error (exit {r.exit})")
            elif r.out != self.refs[(u.base, u.seeds)]:
                o.fail(f"{u.name}: report differs from the --jobs 1 reference")
            o.ms.append(r.ms)
            o.rss_mb = max(o.rss_mb, r.rss_mb)
            o.work += u.seeds
            cells.setdefault(("fuzz", u.seeds, u.base), []).append(r.ms)
        o.growth, _ = growth_from_cells(cells, {"fuzz": FUZZ_SEEDS})
        o.notes.append(f"rounds {rounds}; base seeds {list(FUZZ_BASES)}; "
                       f"{findings} findings shrunk across all units; growth "
                       f"is t({FUZZ_SEEDS[-1]} seeds)/t({FUZZ_SEEDS[-2]} seeds)")
        return o


# --------------------------------------------------------------------------
# serve requests: the stream the traced run replays through `service`

SERVE_GENERATED = {"straight": (20, 40), "ifs": (40, 80), "specs": (4, 8)}
SERVE_VERBS = ("verify", "verify+cert", "validity", "analyze")
# The share of requests whose source the daemon has never seen. An
# assumption, not a measured traffic share.
COLD_SHARE = 0.2
SPEC_RE = re.compile(r"^resource\s+(\w+)", re.M)


class ServeSource:
    def __init__(self, name, text, expect):
        self.name, self.text, self.expect = name, text, expect
        self.ref = {}  # verb -> (report, exit, cert)


def corpus_programs(root):
    """Every example program with the verdict its location implies:
    examples/programs verify (except *_reject), broken/ is REJECTED."""
    units = []
    for path in sorted(glob.glob(os.path.join(root, "examples/programs/*.hv"))):
        stem = os.path.basename(path)[:-3]
        units.append((os.path.relpath(path, root),
                      "REJECTED" if stem.endswith("_reject") else "verified"))
    for path in sorted(glob.glob(os.path.join(root, "examples/programs/broken/*.hv"))):
        units.append((os.path.relpath(path, root), "REJECTED"))
    if not units:
        raise BenchError("no example programs found")
    return units


def serve_sources(b):
    """Example programs plus mid-size generated programs (both twins)."""
    rng = random.Random(f"serve-mix/{b.seed}")
    sources = []
    for name, expect in corpus_programs(b.root):
        with open(os.path.join(b.root, name)) as f:
            sources.append(ServeSource("serve/" + name, f.read(), expect))
    for fam, sizes in SERVE_GENERATED.items():
        for n in sizes:
            for leaky in (False, True):
                sources.append(ServeSource(
                    f"serve/gen/{fam}-{n}{'-leaky' if leaky else ''}.hv",
                    families.FAMILIES[fam](n, rng, leaky),
                    "REJECTED" if leaky else "verified"))
    for s in sources:
        write(os.path.join(b.workdir, s.name), s.text)
    return sources, rng


def serve_references(b, sources):
    """One-shot CLI output for every source and verb. The validity verb has
    no CLI counterpart; its known answer is one `spec <name>: valid` line
    per declared spec, and it is only sent for sources that verify."""
    cert = lambda s: os.path.join(b.workdir, "refcerts", s.name + ".cert")

    def refs(s):
        os.makedirs(os.path.dirname(cert(s)), exist_ok=True)
        v = run_process([b.hv, "--jobs", "1", s.name], cwd=b.workdir)
        c = run_process([b.hv, "--jobs", "1", "--emit-cert", cert(s), s.name],
                        cwd=b.workdir)
        a = run_process([b.hv, "analyze", "--jobs", "1", s.name], cwd=b.workdir)
        try:
            with open(cert(s)) as f:
                return v, c, a, f.read()
        except OSError:
            raise BenchError(f"{s.name}: no certificate from the CLI "
                             f"(exit {c.exit}): {c.out.strip()[-300:]}")

    for s, (v, c, a, cert_text) in zip(sources, parallel_map(refs, sources, b.jobs)):
        if not verdict_ok(v, s.name, s.expect) or c.out != v.out or a.exit != 0:
            raise BenchError(f"{s.name}: CLI reference disagrees with its known answer")
        s.ref["verify"] = (v.out, v.exit, None)
        s.ref["verify+cert"] = (v.out, v.exit, cert_text)
        s.ref["analyze"] = (a.out, 0, None)
        s.ref["validity"] = ("".join(f"spec {n}: valid\n"
                                     for n in SPEC_RE.findall(s.text)), 0, None)
        s.cert_path = cert(s)


def serve_stream(sources, rng):
    """The seeded request stream, one round: every (verb, source) pair once
    in a seeded order (`validity` only for sources that verify), as
    (verb, source, cold) triples. A COLD_SHARE of the requests carry a
    unique trailing comment, so their source is never-seen (a cold parse)
    while the reply is unchanged."""
    pairs = [(verb, s) for s in sources for verb in SERVE_VERBS
             if verb != "validity" or s.expect == "verified"]
    rng.shuffle(pairs)
    return [(verb, s, rng.random() < COLD_SHARE) for verb, s in pairs]


def request_line(i, verb, src, cold):
    text = src.text + (f"\n// nonce {i}\n" if cold else "")
    req = {"id": i, "verb": "verify" if verb == "verify+cert" else verb,
           "source": text, "name": src.name}
    if verb == "verify+cert":
        req["emit_cert"] = True
    return (json.dumps(req) + "\n").encode()


def check_reply(line, verb, src):
    """None when the reply is byte-identical to the reference, else why."""
    try:
        reply = json.loads(line)
    except ValueError:
        return "unparseable reply"
    if "error" in reply:
        return "typed error " + reply["error"].get("type", "?")
    report, exit_code, cert = src.ref[verb]
    if reply.get("report") != report:
        return "report differs from the one-shot CLI"
    if reply.get("exit") != exit_code:
        return "exit differs from the one-shot CLI"
    if cert is not None and reply.get("cert") != cert:
        return "certificate differs from the one-shot CLI"
    return None


class Daemon:
    """`hyperviper serve --port 0 --workers N`, started and reaped."""

    def __init__(self, hv, workers):
        self.proc = subprocess.Popen(
            [hv, "serve", "--port", "0", "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        banner = self.proc.stdout.readline().decode()
        if not banner.startswith("listening on "):
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"serve did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])

    def stop(self):
        """Sends `shutdown` and reaps the daemon."""
        try:
            with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
                s.sendall(b'{"id":"bye","verb":"shutdown"}\n')
                s.recv(4096)
        except OSError:
            self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(60, self.proc.kill)
        timer.start()
        try:
            self.proc.wait()
        finally:
            timer.cancel()
        self.proc.stdout.close()


def drive(port, stream, clients):
    """Closed-loop clients over one stream. Each client sends its next
    request only after the previous reply arrived. Returns
    [(index, rtt_ms, reply_line)]."""
    lock = threading.Lock()
    cursor = iter(range(len(stream)))
    samples = []
    errors = []

    def client():
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                f = s.makefile("rwb")
                local = []
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        break
                    line = request_line(i, *stream[i])
                    t0 = time.perf_counter()
                    f.write(line)
                    f.flush()
                    reply = f.readline()
                    local.append((i, (time.perf_counter() - t0) * 1000.0, reply))
                with lock:
                    samples.extend(local)
        except OSError as e:
            errors.append(e)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError(f"serve client failed: {errors[0]}")
    return samples


WORKLOADS = {w.name: w for w in (ScaleVerify, FuzzCampaign)}
