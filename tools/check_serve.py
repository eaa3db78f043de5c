#!/usr/bin/env python3
"""Smoke-check the `hyperviper serve` daemon end to end.

Used by the CI `serve-smoke` job and handy locally:

  check_serve.py BIN FILE.hv [FILE2.hv ...]

Spawns `BIN serve --port 0`, parses the "listening on" banner, then
drives the ndjson protocol over TCP and enforces the daemon's contract:

  - a cold `verify` of each FILE returns byte-for-byte the combined
    stderr+stdout of the one-shot CLI (`BIN --jobs 1 FILE`), with the
    same exit code;
  - a warm repeat is byte-identical to the CLI too, reports
    `program_cache_hit`, and replays its validity verdicts: the `stats`
    metrics counter `validity.verdict_memo.hits` grows while
    `validity.verdict_memo.computed` does not;
  - `stats` has the documented shape;
  - malformed JSON and unknown verbs get typed errors (the connection
    survives both);
  - `shutdown` drains and the process exits 0.

Exit 1 with a description on the first violated clause.
"""

import json
import signal
import socket
import subprocess
import sys


def fail(msg):
    print(f"check_serve: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


class Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def rpc(self, obj=None, raw=None):
        self.file.write(raw if raw is not None else json.dumps(obj) + "\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            fail("daemon closed the connection mid-exchange")
        return json.loads(line)

    def close(self):
        self.file.close()
        self.sock.close()


def one_shot(bin_path, path):
    """The reference output: one-shot CLI, stderr and stdout combined."""
    proc = subprocess.run(
        [bin_path, "--jobs", "1", path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return proc.stdout, proc.returncode


def memo_counts(client):
    """The daemon's (hits, computed) validity-verdict memo counters."""
    resp = client.rpc({"id": "m", "verb": "stats"})
    counts = resp.get("stats", {}).get("metrics", {}).get("counts")
    if not isinstance(counts, dict):
        fail("stats response has no metrics counts")
    return (
        counts.get("validity.verdict_memo.hits", 0),
        counts.get("validity.verdict_memo.computed", 0),
    )


def check_verify(client, bin_path, path):
    with open(path, encoding="utf-8") as f:
        source = f.read()
    want_report, want_exit = one_shot(bin_path, path)
    req = {"id": path, "verb": "verify", "source": source, "name": path}

    cold = client.rpc(req)
    if cold.get("id") != path:
        fail(f"{path}: response id {cold.get('id')!r} != request id")
    if cold.get("report") != want_report:
        fail(
            f"{path}: cold report differs from one-shot CLI\n"
            f"  cli:    {want_report!r}\n  daemon: {cold.get('report')!r}"
        )
    if cold.get("exit") != want_exit:
        fail(f"{path}: cold exit {cold.get('exit')} != CLI {want_exit}")
    hits0, computed0 = memo_counts(client)

    warm = client.rpc(req)
    if warm.get("report") != want_report:
        fail(f"{path}: warm report differs from one-shot CLI")
    if warm.get("exit") != want_exit:
        fail(f"{path}: warm exit {warm.get('exit')} != CLI {want_exit}")
    if not warm.get("program_cache_hit"):
        fail(f"{path}: warm request missed the program cache")
    hits1, computed1 = memo_counts(client)
    if computed1 != computed0:
        fail(
            f"{path}: warm request recomputed {computed1 - computed0} "
            "validity verdict(s)"
        )
    if hits1 <= hits0:
        fail(f"{path}: warm request replayed no validity verdict")
    print(
        f"check_serve: {path}: cold==cli, warm==cli, "
        f"{hits1 - hits0} verdict(s) replayed"
    )


def check_stats(client):
    resp = client.rpc({"id": "s", "verb": "stats"})
    stats = resp.get("stats")
    if not isinstance(stats, dict):
        fail("stats response has no stats object")
    for key in ("requests", "queue_depth", "in_flight", "program_cache", "metrics"):
        if key not in stats:
            fail(f"stats missing key {key!r}")
    print("check_serve: stats ok")


def check_errors(client):
    resp = client.rpc(raw="this is not json\n")
    if resp.get("error", {}).get("type") != "bad-request":
        fail(f"malformed line: expected bad-request, got {resp!r}")
    resp = client.rpc({"id": 7, "verb": "frobnicate"})
    if resp.get("error", {}).get("type") != "unknown-verb":
        fail(f"unknown verb: expected unknown-verb, got {resp!r}")
    if resp.get("id") != 7:
        fail("error response dropped the request id")
    print("check_serve: typed errors ok")


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    bin_path, files = sys.argv[1], sys.argv[2:]

    daemon = subprocess.Popen(
        [bin_path, "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = daemon.stdout.readline().strip()
        if not banner.startswith("listening on "):
            fail(f"unexpected banner: {banner!r}")
        port = int(banner.rsplit(":", 1)[1])

        client = Client(port)
        for path in files:
            check_verify(client, bin_path, path)
        check_stats(client)
        check_errors(client)

        resp = client.rpc({"id": "bye", "verb": "shutdown"})
        if not resp.get("shutting_down"):
            fail(f"shutdown verb: expected shutting_down, got {resp!r}")
        client.close()
        code = daemon.wait(timeout=60)
        if code != 0:
            fail(f"daemon exited {code} after shutdown verb, expected 0")
    finally:
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGKILL)
            daemon.wait()

    print("check_serve: OK")


if __name__ == "__main__":
    main()
