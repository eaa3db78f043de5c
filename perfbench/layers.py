"""The traced run: per-layer metrics from in-process spans.

The tracer (trace_layers.cpp) replays the workload's seeded inputs through
each library's public entry points and records one span per call. Layers a
workload does not exercise are measured on a short replay under the same
seed, so every traced run reports every per-layer metric: testgen and fuzz
on one fuzz campaign (outside fuzz-campaign), and service on one round of
the serve request stream (see workloads.serve_stream).
"""

import json
import os
import statistics
import subprocess

import workloads as wl
from common import BenchError, build_dir, run_process

# Base seed 1's 100-seed campaign has a finding, so the shrinker is measured.
FUZZ_TRACE_BASES = (1,)
FUZZ_TRACE_SEEDS = 100
# A campaign runs for under a second and its time varies by tens of percent
# between runs, mostly upward, so process.outside_ms on fuzz-campaign
# compares the fastest of a few CLI and in-process runs.
CAMPAIGN_REPEATS = 3

PER_LAYER = [
    # name, unit
    ("parser.parse_ms", "ms"), ("parser.bytes_per_ms", "bytes/ms"),
    ("rspec.validity_ms", "ms"), ("rspec.checks", "count"),
    ("rspec.unbounded_share", "ratio"), ("rspec.memo_hit_ratio", "ratio"),
    ("verifier.proc_ms", "ms"), ("verifier.obligations", "count"),
    ("verifier.ms_per_obligation", "ms"), ("verifier.peak_rss_mb", "MB"),
    ("cert.bytes", "bytes"), ("cert.check_ms", "ms"),
    ("cert.check_over_verify", "ratio"),
    ("analysis.ms", "ms"),
    ("hyper.ni_ms", "ms"), ("hyper.ni_runs", "count"),
    ("testgen.gen_ms", "ms"),
    ("fuzz.oracle_ms", "ms"), ("fuzz.shrink_ms", "ms"),
    ("fuzz.shrink_oracle_runs", "count"), ("fuzz.shrink_accept_ratio", "ratio"),
    ("fuzz.findings", "count"),
    ("service.handle_ms", "ms"), ("service.queue_transport_ms", "ms"),
    ("service.program_cache_hit_ratio", "ratio"), ("service.busy_ratio", "ratio"),
    ("process.outside_ms", "ms"), ("process.cpu_per_wall", "ratio"),
]


class Plan:
    def __init__(self, b):
        self.b = b
        self.lines = [f"jobs {b.jobs}"]
        self.dir = os.path.join(b.workdir, "trace")
        os.makedirs(self.dir, exist_ok=True)
        self.n = 0

    def file(self, text):
        self.n += 1
        path = os.path.join(self.dir, f"f{self.n}")
        with open(path, "w") as f:
            f.write(text)
        return path


def trace_fuzz_refs(b, home):
    """Reference reports for the fuzz replay's campaigns."""
    if home is not None:
        return home.refs
    return wl.fuzz_references(b, FUZZ_TRACE_BASES, (FUZZ_TRACE_SEEDS,))


def plan_fuzz(plan, bases, refs, layer_pass):
    # Whole campaigns go first: on fuzz-campaign they then run in the
    # tracer's fresh heap, as the CLI's campaign does.
    for base in bases:
        plan.lines.append(f"campaign {base} {FUZZ_TRACE_SEEDS} {CAMPAIGN_REPEATS}")
    for base in bases:
        ref = plan.file(refs[(base, FUZZ_TRACE_SEEDS)])
        plan.lines.append(f"fuzz {base} {FUZZ_TRACE_SEEDS} {ref} "
                          f"{1 if layer_pass else 0}")


def plan_serve(plan, stream):
    for i, (verb, src, cold) in enumerate(stream):
        text = src.text + (f"\n// nonce {i}\n" if cold else "")
        report, _, cert = src.ref[verb]
        plan.lines.append(" ".join([
            "request", "verify" if verb == "verify+cert" else verb,
            "1" if cert is not None else "0", src.name, plan.file(text),
            plan.file(report), src.cert_path if cert is not None else "-"]))
    plan.lines.append(f"replay {plan.b.jobs}")


def serve_inputs(b):
    sources, rng = wl.serve_sources(b)
    wl.serve_references(b, sources)
    return wl.serve_stream(sources, rng)


def load_spans(path):
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    children = {}
    for s in spans:
        s["ms"] = (s["end_ns"] - s["start_ns"]) / 1e6
        children[s["parent"]] = children.get(s["parent"], 0.0) + s["ms"]
    for s in spans:
        s["self_ms"] = s["ms"] - children.get(s["id"], 0.0)
    return spans


def traced_run(b, workload):
    """Returns (correct, attempted, failed, metrics, lines)."""
    workload.setup()
    plan = Plan(b)
    name = workload.name

    # Programs for the per-program layer pass, and their CLI timings for
    # process.outside_ms. On fuzz-campaign the layer pass runs on the
    # campaign's generated programs instead.
    bases = FUZZ_TRACE_BASES
    refs = trace_fuzz_refs(b, workload if name == "fuzz-campaign" else None)
    programs = [] if name == "fuzz-campaign" else workload.trace_programs()
    for prog, path, expect in programs:
        plan.lines.append(f"program {prog} {path} {expect}")
    plan_fuzz(plan, bases, refs, layer_pass=name == "fuzz-campaign")
    stream = serve_inputs(b)
    plan_serve(plan, stream)

    plan_path = os.path.join(plan.dir, "plan")
    with open(plan_path, "w") as f:
        f.write("\n".join(plan.lines) + "\n")
    spans_path = os.path.join(b.workdir, "spans.jsonl")
    proc = subprocess.run([b.tracer, plan_path, spans_path], capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"trace_layers failed: {proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = load_spans(spans_path)
    keep = os.path.join(build_dir(b.root), "results")
    os.makedirs(keep, exist_ok=True)
    os.replace(spans_path, os.path.join(keep, f"spans-{name}-seed{b.seed}.jsonl"))

    # End-to-end counterparts measured untraced, for process.outside_ms and
    # service.queue_transport_ms.
    failures = list(summary["errors"])
    cli_ms = cli_cpu = inside_ms = 0.0
    if name == "fuzz-campaign":
        for base in bases:
            runs = [run_process(wl.fuzz_argv(b.hv, base, FUZZ_TRACE_SEEDS, b.jobs),
                                merge_stderr=False) for _ in range(CAMPAIGN_REPEATS)]
            fastest = min(runs, key=lambda r: r.ms)
            cli_ms, cli_cpu = cli_ms + fastest.ms, cli_cpu + fastest.cpu_s
            inside_ms += min(
                s["ms"] for s in spans
                if s["name"] == "fuzz.campaign" and s["unit"] == f"campaign {base}")
    else:
        for prog, path, expect in programs:
            r = run_process([b.hv, "--jobs", str(b.jobs), path])
            if r.exit != (0 if expect == "verified" else 1):
                failures.append(f"{prog}: CLI verdict differs from {expect}")
            cli_ms, cli_cpu = cli_ms + r.ms, cli_cpu + r.cpu_s
        inside_ms = sum(s["ms"] for s in spans if s["name"] == "driver.verify")
    d = wl.Daemon(b.hv, b.jobs)
    try:
        samples = wl.drive(d.port, stream, b.jobs)
    finally:
        d.stop()
    for i, _, reply in samples:
        verb, src, _ = stream[i]
        why = wl.check_reply(reply, verb, src)
        if why:
            failures.append(f"serve request {i}: {why}")

    metrics = per_layer(spans, summary, samples, cli_ms, cli_cpu, inside_ms)
    lines = layer_table(spans, summary)
    lines.append(f"  process: CLI {cli_ms:.1f} ms vs in-process {inside_ms:.1f} ms "
                 "for the same inputs")
    lines += [f"  {k:32s} {v:14.4f} {u}" for k, (v, u) in metrics.items()]
    lines += ["  FAIL " + f for f in failures[:20]]
    # Checked items: each program (in-process and CLI verdict, certificate),
    # each fuzz replay, and each service reply (in-process and daemon).
    attempted = len(programs) + len(bases) + 2 * len(stream)
    return not failures, attempted, len(failures), metrics, lines


def total(spans, name, key=None):
    return sum((s["counts"].get(key, 0) if key else s["ms"])
               for s in spans if s["name"] == name)


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(spans, summary, samples, cli_ms, cli_cpu, inside_ms):
    handles = [s["ms"] for s in spans if s["name"] == "service.handle"]
    validity = [s for s in spans if s["name"] == "rspec.validity"]
    memo_hits = total(spans, "rspec.validity", "memo_hits")
    memo_all = memo_hits + total(spans, "rspec.validity", "memo_misses")
    proc_ms = total(spans, "verifier.proc")
    obligations = total(spans, "verifier.proc", "obligations")
    shrink_runs = total(spans, "fuzz.shrink", "oracle_runs")
    m = {
        "parser.parse_ms": total(spans, "parser.parse"),
        "parser.bytes_per_ms": ratio(total(spans, "parser.parse", "bytes"),
                                     total(spans, "parser.parse")),
        "rspec.validity_ms": total(spans, "rspec.validity"),
        "rspec.checks": total(spans, "rspec.validity", "checks"),
        "rspec.unbounded_share": ratio(total(spans, "rspec.validity", "unbounded"),
                                       len(validity)),
        "rspec.memo_hit_ratio": ratio(memo_hits, memo_all),
        "verifier.proc_ms": proc_ms,
        "verifier.obligations": obligations,
        "verifier.ms_per_obligation": ratio(proc_ms, obligations),
        "verifier.peak_rss_mb": summary["program_peak_rss_mb"],
        "cert.bytes": total(spans, "cert.check", "bytes"),
        "cert.check_ms": total(spans, "cert.check"),
        "cert.check_over_verify": ratio(total(spans, "cert.check"),
                                        total(spans, "driver.emit_cert")),
        "analysis.ms": total(spans, "analysis.analyze"),
        "hyper.ni_ms": total(spans, "hyper.ni"),
        "hyper.ni_runs": total(spans, "hyper.ni", "runs"),
        "testgen.gen_ms": total(spans, "testgen.gen"),
        "fuzz.oracle_ms": total(spans, "fuzz.oracle"),
        "fuzz.shrink_ms": total(spans, "fuzz.shrink"),
        "fuzz.shrink_oracle_runs": shrink_runs,
        "fuzz.shrink_accept_ratio": ratio(total(spans, "fuzz.shrink", "reductions"),
                                          shrink_runs),
        "fuzz.findings": total(spans, "fuzz.findings", "findings"),
        "service.handle_ms": statistics.median(handles),
        "service.queue_transport_ms": (statistics.median(r for _, r, _ in samples)
                                       - statistics.median(handles)),
        "service.program_cache_hit_ratio": ratio(
            total(spans, "service.handle", "program_cache_hit"),
            total(spans, "service.handle", "uses_cache")),
        "service.busy_ratio": ratio(sum(handles), summary["replay_wall_ms"]
                                    * summary["replay_threads"]),
        "process.outside_ms": cli_ms - inside_ms,
        "process.cpu_per_wall": ratio(cli_cpu * 1000.0, cli_ms),
    }
    units = dict(PER_LAYER)
    return {k: (m[k], units[k]) for k, _ in PER_LAYER}


def layer_table(spans, summary):
    """Calls, total and self time per span name, and the tracing overhead."""
    rows = {}
    for s in spans:
        r = rows.setdefault(s["name"], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s["ms"]
        r[2] += s["self_ms"]
    lines = [f"  {'span':22s} {'calls':>7s} {'total ms':>12s} {'self ms':>12s}"]
    for name in sorted(rows):
        c, t, st = rows[name]
        lines.append(f"  {name:22s} {c:7d} {t:12.2f} {st:12.2f}")
    u, t = summary["untraced_ms"], summary["traced_ms"]
    lines.append(f"  tracing overhead (program pass): traced {t:.1f} ms - untraced "
                 f"{u:.1f} ms = {t - u:+.1f} ms ({100 * (t - u) / u if u else 0:+.2f}%)")
    return lines
