//===-- service/Server.cpp - ndjson-over-TCP verification daemon -----------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "service/Json.h"
#include "support/trace/Metrics.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <limits>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace commcsl;

/// One accepted client. The write mutex serializes response lines from
/// concurrent workers; reads happen only on the connection's own reader
/// thread.
struct Server::Connection {
  int Fd = -1;
  std::mutex WriteMu;

  ~Connection() {
    if (Fd >= 0)
      ::close(Fd);
  }

  /// Writes one complete line (terminator included). Short writes retry;
  /// a dead peer is silently dropped (its reader thread will see EOF).
  void writeLine(const std::string &Line) {
    std::lock_guard<std::mutex> Lock(WriteMu);
    size_t Off = 0;
    while (Off < Line.size()) {
      ssize_t N = ::send(Fd, Line.data() + Off, Line.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return;
      }
      Off += static_cast<size_t>(N);
    }
  }
};

namespace {

/// Echoes the request's `id` (verbatim, any JSON type) into a response
/// object. Requests without an id get responses without one.
JsonValue responseShell(const JsonValue *Request) {
  JsonValue O = JsonValue::object();
  if (Request)
    if (const JsonValue *Id = Request->find("id"))
      O.set("id", *Id);
  return O;
}

std::string errorLine(const JsonValue *Request, const std::string &Type,
                      const std::string &Message) {
  JsonValue O = responseShell(Request);
  JsonValue E = JsonValue::object();
  E.set("type", JsonValue::string(Type));
  E.set("message", JsonValue::string(Message));
  O.set("error", std::move(E));
  return O.dump() + "\n";
}

std::string responseLine(const JsonValue &Request,
                         const ServiceResponse &Resp) {
  JsonValue O = responseShell(&Request);
  O.set("ok", JsonValue::boolean(Resp.Ok));
  O.set("exit", JsonValue::number(static_cast<uint64_t>(Resp.Exit)));
  O.set("report", JsonValue::string(Resp.Report));
  if (!Resp.Cert.empty())
    O.set("cert", JsonValue::string(Resp.Cert));
  O.set("program_cache_hit", JsonValue::boolean(Resp.ProgramCacheHit));
  return O.dump() + "\n";
}

/// Maps the protocol verb to a ServiceRequest, or returns false with a
/// message for the bad-request response.
bool buildRequest(const JsonValue &J, ServiceRequest &Out,
                  std::string &Message) {
  const std::string Verb = J.getString("verb");
  if (Verb == "verify")
    Out.V = ServiceRequest::Verb::Verify;
  else if (Verb == "validity")
    Out.V = ServiceRequest::Verb::Validity;
  else if (Verb == "analyze")
    Out.V = ServiceRequest::Verb::Analyze;
  else if (Verb == "ni")
    Out.V = ServiceRequest::Verb::NI;
  else if (Verb == "fuzz")
    Out.V = ServiceRequest::Verb::Fuzz;
  else {
    Message = Verb.empty() ? "missing \"verb\"" : "unknown verb: " + Verb;
    return false;
  }

  // Fields held in `unsigned`: a value that does not fit is a bad request,
  // never silently narrowed.
  auto GetUnsigned = [&](const char *Key, unsigned &Dst) {
    uint64_t V = J.getU64(Key, Dst);
    if (V > std::numeric_limits<unsigned>::max()) {
      Message = std::string("\"") + Key + "\" is out of range: " +
                std::to_string(V);
      return false;
    }
    Dst = static_cast<unsigned>(V);
    return true;
  };

  Out.Source = J.getString("source");
  Out.Name = J.getString("name", "<request>");
  Out.Proc = J.getString("proc");
  if (!GetUnsigned("jobs", Out.Jobs))
    return false;
  Out.Triage = J.getBool("triage");
  Out.NoValidity = J.getBool("no_validity");
  Out.EmitCert = J.getBool("emit_cert");
  Out.BudgetMs = J.getU64("budget_ms", 0);
  Out.MaxSteps = J.getU64("max_steps", 0);

  if (Out.V == ServiceRequest::Verb::Fuzz) {
    if (!GetUnsigned("seeds", Out.Fuzz.NumSeeds))
      return false;
    Out.Fuzz.BaseSeed = J.getU64("base_seed", Out.Fuzz.BaseSeed);
    Out.Fuzz.Jobs = Out.Jobs;
    return true;
  }
  if (Out.Source.empty()) {
    Message = "verb \"" + Verb + "\" requires a nonempty \"source\"";
    return false;
  }
  if (Out.V == ServiceRequest::Verb::NI && Out.Proc.empty()) {
    Message = "verb \"ni\" requires \"proc\"";
    return false;
  }
  return true;
}

} // namespace

Server::Server(SessionOptions SessionOpts, uint16_t Port, unsigned Workers,
               size_t MaxQueue)
    : Sess(SessionOpts), RequestedPort(Port),
      Workers(Workers == 0 ? 1 : Workers),
      MaxQueue(MaxQueue == 0 ? 1 : MaxQueue) {}

Server::~Server() {
  stop();
  if (ListenFd >= 0)
    ::close(ListenFd);
}

bool Server::start() {
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(RequestedPort);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    Error = std::string("bind: ") + std::strerror(errno);
    return false;
  }
  if (::listen(ListenFd, 64) < 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) <
      0) {
    Error = std::string("getsockname: ") + std::strerror(errno);
    return false;
  }
  BoundPort = ntohs(Addr.sin_port);
  return true;
}

void Server::run() {
  std::vector<std::thread> Pool;
  Pool.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Pool.emplace_back([this] { workerLoop(); });

  acceptLoop();

  // Workers exit once the queue is drained and Stopping is set, so joining
  // them is the "every queued request has been answered" barrier.
  QueueCv.notify_all();
  for (std::thread &T : Pool)
    T.join();

  // Now unblock and retire the reader threads (their clients have every
  // response they are owed).
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (const std::shared_ptr<Connection> &C : Connections)
      ::shutdown(C->Fd, SHUT_RDWR);
  }
  for (std::thread &T : ReaderThreads)
    T.join();
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    Connections.clear();
    ReaderThreads.clear();
  }
}

void Server::stop() {
  bool Expected = false;
  if (!Stopping.compare_exchange_strong(Expected, true))
    return;
  // Breaks the blocking accept(); readers and workers check the flag.
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  QueueCv.notify_all();
}

void Server::acceptLoop() {
  while (!Stopping.load()) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // listen socket shut down (stop()) or fatal
    }
    if (Stopping.load()) {
      ::close(Fd);
      break;
    }
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    std::lock_guard<std::mutex> Lock(ConnMu);
    Connections.push_back(Conn);
    ReaderThreads.emplace_back([this, Conn] { readerLoop(Conn); });
  }
}

void Server::readerLoop(std::shared_ptr<Connection> Conn) {
  std::string Buffer;
  char Chunk[4096];
  for (;;) {
    ssize_t N = ::recv(Conn->Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return; // client closed (or shutdown during stop)
    Buffer.append(Chunk, static_cast<size_t>(N));
    size_t Start = 0;
    for (size_t NL; (NL = Buffer.find('\n', Start)) != std::string::npos;
         Start = NL + 1) {
      std::string Line = Buffer.substr(Start, NL - Start);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (!Line.empty())
        serveLine(Conn, Line);
    }
    Buffer.erase(0, Start);
  }
}

void Server::serveLine(const std::shared_ptr<Connection> &ConnPtr,
                       const std::string &Line) {
  Connection &Conn = *ConnPtr;
  std::string ParseError;
  std::optional<JsonValue> J = JsonValue::parse(Line, &ParseError);
  if (!J || !J->isObject()) {
    Conn.writeLine(errorLine(J ? &*J : nullptr, "bad-request",
                             J ? "request must be a JSON object"
                               : ParseError));
    return;
  }

  const std::string Verb = J->getString("verb");

  // Control verbs are handled inline on the reader thread — never queued —
  // so a saturated queue cannot starve health checks or shutdown.
  if (Verb == "stats") {
    JsonValue O = responseShell(&*J);
    O.set("ok", JsonValue::boolean(true));
    O.setRaw("stats", statsJson());
    Conn.writeLine(O.dump() + "\n");
    return;
  }
  if (Verb == "reset") {
    Sess.resetCaches();
    JsonValue O = responseShell(&*J);
    O.set("ok", JsonValue::boolean(true));
    Conn.writeLine(O.dump() + "\n");
    return;
  }
  if (Verb == "shutdown") {
    JsonValue O = responseShell(&*J);
    O.set("ok", JsonValue::boolean(true));
    O.set("shutting_down", JsonValue::boolean(true));
    Conn.writeLine(O.dump() + "\n");
    stop();
    return;
  }

  ServiceRequest Request;
  std::string Message;
  if (!buildRequest(*J, Request, Message)) {
    const bool Unknown = Message.rfind("unknown verb", 0) == 0;
    Conn.writeLine(
        errorLine(&*J, Unknown ? "unknown-verb" : "bad-request", Message));
    return;
  }

  // Backpressure: refuse rather than buffer unboundedly.
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (Stopping.load()) {
      Conn.writeLine(
          errorLine(&*J, "shutting-down", "server is shutting down"));
      return;
    }
    if (Queue.size() >= MaxQueue) {
      Conn.writeLine(errorLine(
          &*J, "busy",
          "request queue full (" + std::to_string(Queue.size()) +
              " queued); retry later"));
      MetricsRegistry::global()
          .counter("service.rejected_busy", Stability::Varies)
          .add(1);
      return;
    }
    Queue.push_back(QueueItem{ConnPtr, Line});
  }
  QueueCv.notify_one();
}

void Server::workerLoop() {
  for (;;) {
    QueueItem Item;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock,
                   [&] { return !Queue.empty() || Stopping.load(); });
      if (Queue.empty())
        return; // Stopping and drained
      Item = std::move(Queue.front());
      Queue.pop_front();
      ++InFlight;
    }
    // The line already parsed once (serveLine validated it); parse again
    // here so the queue holds plain strings.
    std::optional<JsonValue> J = JsonValue::parse(Item.Line);
    ServiceRequest Request;
    std::string Message;
    if (J && buildRequest(*J, Request, Message)) {
      ServiceResponse Resp = Sess.handle(Request);
      if (Resp.TimedOut)
        // Typed timeout: the budget fired before a verdict. The partial
        // work drained gracefully and the program stays cached, so a retry
        // with a larger budget skips the parse.
        Item.Conn->writeLine(errorLine(
            &*J, "timeout",
            "request exceeded its budget (budget_ms/max_steps) before "
            "reaching a verdict; caches remain warm — retry with a larger "
            "budget"));
      else
        Item.Conn->writeLine(responseLine(*J, Resp));
    }
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      --InFlight;
    }
    QueueCv.notify_all();
  }
}

std::string Server::statsJson() const {
  SessionStats S = Sess.stats();
  size_t Depth, Flying;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Depth = Queue.size();
    Flying = InFlight;
  }
  JsonValue O = JsonValue::object();
  O.set("requests", JsonValue::number(S.Requests));
  O.set("queue_depth", JsonValue::number(static_cast<uint64_t>(Depth)));
  O.set("in_flight", JsonValue::number(static_cast<uint64_t>(Flying)));
  JsonValue PC = JsonValue::object();
  PC.set("hits", JsonValue::number(S.ProgramCacheHits));
  PC.set("misses", JsonValue::number(S.ProgramCacheMisses));
  PC.set("programs", JsonValue::number(S.ProgramsCached));
  O.set("program_cache", std::move(PC));
  // The registry pretty-prints; re-emit it compact so the response stays a
  // single ndjson line.
  if (std::optional<JsonValue> Metrics =
          JsonValue::parse(MetricsRegistry::global().json()))
    O.set("metrics", std::move(*Metrics));
  return O.dump();
}
