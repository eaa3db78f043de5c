//===-- service/Server.h - ndjson-over-TCP verification daemon --*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `hyperviper serve` daemon: newline-delimited JSON over TCP on
/// 127.0.0.1. One JSON object per line in each direction; requests carry a
/// client-chosen `id` that the matching response echoes, so a client may
/// pipeline. Responses to concurrent requests on one connection come back
/// in completion order.
///
/// Request shape (verb selects the subsystem; see DESIGN §11 for the full
/// protocol table):
///
///   {"id":1,"verb":"verify","source":"...","name":"acct.hv",
///    "proc":"deposit","jobs":3,"triage":false,"no_validity":false}
///   {"id":2,"verb":"validity"|"analyze"|"ni", ...}
///   {"id":3,"verb":"fuzz","seeds":50,"base_seed":1}
///   {"id":4,"verb":"stats"}
///   {"id":5,"verb":"shutdown"}
///
/// Response shape:
///
///   {"id":1,"ok":true,"exit":0,"report":"acct.hv: verified\n",
///    "program_cache_hit":false}
///   {"id":9,"error":{"type":"busy","message":"..."}}
///
/// Error types: `bad-request` (unparseable line, missing field, JSON
/// nested deeper than JsonValue::MaxNesting, or a line longer than
/// MaxLineBytes), `unknown-verb`, `busy` (bounded work queue full — the
/// backpressure contract: the daemon never buffers unboundedly, it
/// refuses), and `shutting-down`.
///
/// The `report` string is byte-identical to the one-shot CLI's combined
/// stderr+stdout output for the same input, cold or warm cache, at any
/// `jobs`, under any interleaving of concurrent clients — the determinism
/// contract the E2E tests enforce. `stats` and `shutdown` are handled
/// inline (never queued), so health checks and shutdown cannot be starved
/// by a full queue. `stats` carries the request and program-cache counters
/// and the process metrics registry, whose stable counters
/// `validity.verdict_memo.hits` / `.computed` show warm requests replaying
/// validity verdicts instead of recomputing them.
///
/// Shutdown (the `shutdown` verb, or `Server::stop` from a signal watcher)
/// is graceful: stop accepting connections and queueing work, drain every
/// in-flight request, answer it, then return from `run()` so the caller
/// can flush trace/metrics sinks.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SERVICE_SERVER_H
#define COMMCSL_SERVICE_SERVER_H

#include "service/Json.h"
#include "service/Session.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace commcsl {

/// The serve daemon. Owns a listening socket, per-connection reader
/// threads, a bounded work queue, and the worker pool; delegates request
/// semantics to a `Session`.
class Server {
public:
  /// The longest request line a connection buffers. A client that sends
  /// more without a newline gets one typed `bad-request`, and the rest of
  /// that line is dropped, so one connection cannot grow the daemon's
  /// memory without limit.
  static constexpr size_t MaxLineBytes = size_t(64) << 20;

  /// \p Port 0 binds an ephemeral port (read it back from `port()` — the
  /// tests' race-free pattern). \p Workers bounds how many requests are
  /// *in flight* (each still fans out over the shared ThreadPool
  /// internally). \p MaxQueue bounds the request queue; a line arriving
  /// while it is full is answered with a typed `busy` error immediately.
  explicit Server(SessionOptions SessionOpts, uint16_t Port = 0,
                  unsigned Workers = 2, size_t MaxQueue = 64);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on 127.0.0.1. Returns false (with `error()` set)
  /// when the port cannot be bound.
  bool start();

  /// The bound port (valid after `start()`; the actual port when 0 was
  /// requested).
  uint16_t port() const { return BoundPort; }

  /// Accepts and serves until `stop()` or a `shutdown` request. Returns
  /// after every in-flight request has been answered and every thread
  /// joined.
  void run();

  /// Thread-safe graceful-shutdown trigger (idempotent). `run()` drains
  /// and returns; this call does not wait for it.
  void stop();

  const std::string &error() const { return Error; }

  /// The session, exposed for in-process tests.
  Session &session() { return Sess; }

private:
  struct Connection;
  struct QueueItem {
    std::shared_ptr<Connection> Conn;
    JsonValue Shell; ///< the response's start: the request's echoed id
    ServiceRequest Request;
  };

  void acceptLoop();
  void readerLoop(std::shared_ptr<Connection> Conn);
  void workerLoop();
  void serveLine(const std::shared_ptr<Connection> &Conn,
                 const std::string &Line);
  std::string statsJson() const;

  Session Sess;
  uint16_t RequestedPort;
  unsigned Workers;
  size_t MaxQueue;

  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::string Error;

  std::atomic<bool> Stopping{false};
  mutable std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<QueueItem> Queue;
  size_t InFlight = 0; ///< items popped but not yet answered

  std::mutex ConnMu;
  std::vector<std::shared_ptr<Connection>> Connections;
  std::vector<std::thread> ReaderThreads;
};

} // namespace commcsl

#endif // COMMCSL_SERVICE_SERVER_H
