//===-- tests/hyperviper/ServeTest.cpp - serve daemon E2E tests ------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wire-level tests of `hyperviper serve` (binary path injected as
/// COMMCSL_HYPERVIPER_BIN): the daemon is forked with `--port 0`, its
/// ephemeral port read from the banner line, and clients speak the
/// ndjson protocol over real sockets. The central contract under test:
/// daemon responses are byte-identical to the one-shot CLI's combined
/// stderr+stdout output — cold cache or warm, at any `jobs`, under
/// concurrent clients — plus the backpressure, stats, shutdown, and
/// SIGINT/SIGTERM-flush behaviors.
///
//===----------------------------------------------------------------------===//

#include "service/Json.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <netinet/in.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using commcsl::JsonValue;

namespace {

std::string example(const std::string &Name) {
  return std::string(COMMCSL_EXAMPLES_DIR) + "/" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "hyperviper-serve-" + Name;
}

/// One-shot CLI run with stderr folded into stdout — the byte-identity
/// reference for daemon reports.
std::string cliOutput(const std::string &Args) {
  std::string Cmd = std::string(COMMCSL_HYPERVIPER_BIN) + " " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr) << Cmd;
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  pclose(P);
  return Out;
}

/// A forked `hyperviper serve` instance. The child's stdout arrives over a
/// pipe so the test can read the ephemeral-port banner race-free.
class ServerProc {
public:
  explicit ServerProc(std::vector<std::string> ExtraArgs = {}) {
    int Fds[2];
    EXPECT_EQ(pipe(Fds), 0);
    Child = fork();
    EXPECT_GE(Child, 0);
    if (Child == 0) {
      dup2(Fds[1], STDOUT_FILENO);
      close(Fds[0]);
      close(Fds[1]);
      std::vector<const char *> Argv = {COMMCSL_HYPERVIPER_BIN, "serve",
                                        "--port", "0"};
      for (const std::string &A : ExtraArgs)
        Argv.push_back(A.c_str());
      Argv.push_back(nullptr);
      execv(COMMCSL_HYPERVIPER_BIN, const_cast<char *const *>(Argv.data()));
      _exit(127);
    }
    close(Fds[1]);
    Out = fdopen(Fds[0], "r");
    EXPECT_NE(Out, nullptr);
    char Banner[256] = {0};
    if (Out && fgets(Banner, sizeof(Banner), Out) != nullptr)
      if (const char *Colon = std::strrchr(Banner, ':'))
        Port = static_cast<uint16_t>(std::atoi(Colon + 1));
    EXPECT_GT(Port, 0) << "no port banner from serve: " << Banner;
  }

  ~ServerProc() {
    if (Child > 0 && !Waited) {
      kill(Child, SIGKILL);
      waitpid(Child, nullptr, 0);
    }
    if (Out)
      fclose(Out);
  }

  /// Waits for the child and returns its exit status (or 128+sig).
  int wait() {
    int Status = 0;
    waitpid(Child, &Status, 0);
    Waited = true;
    if (WIFEXITED(Status))
      return WEXITSTATUS(Status);
    if (WIFSIGNALED(Status))
      return 128 + WTERMSIG(Status);
    return -1;
  }

  void signal(int Sig) { kill(Child, Sig); }

  uint16_t port() const { return Port; }

private:
  pid_t Child = -1;
  bool Waited = false;
  FILE *Out = nullptr;
  uint16_t Port = 0;
};

/// A blocking ndjson client connection.
class Client {
public:
  explicit Client(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    EXPECT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0)
        << strerror(errno);
  }

  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }

  void sendLine(const std::string &Line) {
    std::string Data = Line + "\n";
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, 0);
      ASSERT_GT(N, 0) << strerror(errno);
      Off += static_cast<size_t>(N);
    }
  }

  /// Reads one full response line (without the terminator). Empty string
  /// on EOF.
  std::string recvLine() {
    size_t NL;
    while ((NL = Buffer.find('\n')) == std::string::npos) {
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return "";
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    std::string Line = Buffer.substr(0, NL);
    Buffer.erase(0, NL + 1);
    return Line;
  }

  /// One request/response round trip, parsed.
  JsonValue rpc(const std::string &RequestLine) {
    sendLine(RequestLine);
    std::string Line = recvLine();
    EXPECT_FALSE(Line.empty()) << "connection closed mid-rpc";
    std::string Err;
    std::optional<JsonValue> V = JsonValue::parse(Line, &Err);
    EXPECT_TRUE(V) << Err << " in: " << Line;
    return V ? *V : JsonValue::null();
  }

private:
  int Fd = -1;
  std::string Buffer;
};

std::string verifyLine(int Id, const std::string &Source,
                       const std::string &Name, unsigned Jobs = 0,
                       const std::string &Proc = "") {
  JsonValue O = JsonValue::object();
  O.set("id", JsonValue::number(static_cast<uint64_t>(Id)));
  O.set("verb", JsonValue::string("verify"));
  O.set("source", JsonValue::string(Source));
  O.set("name", JsonValue::string(Name));
  if (Jobs)
    O.set("jobs", JsonValue::number(static_cast<uint64_t>(Jobs)));
  if (!Proc.empty())
    O.set("proc", JsonValue::string(Proc));
  return O.dump();
}

/// A stable counter from the daemon's `stats` metrics splice (0 while the
/// counter has never been bumped).
uint64_t statsCount(Client &C, const char *Name) {
  JsonValue R = C.rpc(R"({"id":"s","verb":"stats"})");
  const JsonValue *S = R.find("stats");
  const JsonValue *M = S ? S->find("metrics") : nullptr;
  const JsonValue *Counts = M ? M->find("counts") : nullptr;
  EXPECT_NE(Counts, nullptr) << "stats carries no metrics counts";
  return Counts ? Counts->getU64(Name) : 0;
}

} // namespace

TEST(ServeTest, VerifyMatchesOneShotCliByteForByte) {
  // Cold cache, warm cache, jobs 1 and jobs 3, verified and rejected
  // inputs: every daemon report must equal the CLI's combined output.
  const std::string OkPath = example("figure1.hv");
  const std::string BadPath = example("broken/guard_dropped.hv");
  const std::string OkSrc = slurp(OkPath);
  const std::string BadSrc = slurp(BadPath);
  const std::string OkExpected = cliOutput("--jobs 1 " + OkPath);
  const std::string BadExpected = cliOutput("--jobs 1 " + BadPath);
  ASSERT_NE(OkExpected.find("verified"), std::string::npos) << OkExpected;
  ASSERT_NE(BadExpected.find("REJECTED"), std::string::npos) << BadExpected;
  // The CLI contract says output is jobs-independent; trust but verify
  // once so the daemon comparison below covers both settings.
  ASSERT_EQ(cliOutput("--jobs 3 " + OkPath), OkExpected);

  ServerProc Server;
  Client C(Server.port());
  int Id = 0;
  for (unsigned Jobs : {1u, 3u, 1u, 3u}) { // cold, then warm, both jobs
    JsonValue R = C.rpc(verifyLine(++Id, OkSrc, OkPath, Jobs));
    EXPECT_TRUE(R.getBool("ok"));
    EXPECT_EQ(R.getU64("exit"), 0u);
    EXPECT_EQ(R.getString("report"), OkExpected) << "jobs " << Jobs;

    JsonValue B = C.rpc(verifyLine(++Id, BadSrc, BadPath, Jobs));
    EXPECT_FALSE(B.getBool("ok"));
    EXPECT_EQ(B.getU64("exit"), 1u);
    EXPECT_EQ(B.getString("report"), BadExpected) << "jobs " << Jobs;
  }
}

TEST(ServeTest, VerifyWithProcMatchesCliNiByteForByte) {
  // A verify request naming a proc appends the NI block: for a secure
  // program and for one whose sweep finds a violation, the report and
  // exit code must equal `hyperviper --ni main`.
  ServerProc Server;
  Client C(Server.port());
  int Id = 0;
  for (const char *Name : {"figure1.hv", "broken/counter_high_arg.hv"}) {
    const std::string Path = example(Name);
    const std::string Expected = cliOutput("--jobs 1 --ni main " + Path);
    ASSERT_NE(Expected.find("empirical non-interference"), std::string::npos)
        << Expected;
    const bool Secure = Expected.find("VIOLATION") == std::string::npos;
    JsonValue R = C.rpc(verifyLine(++Id, slurp(Path), Path, 1, "main"));
    EXPECT_EQ(R.getString("report"), Expected) << Name;
    EXPECT_EQ(R.getBool("ok"), Secure) << Name;
    EXPECT_EQ(R.getU64("exit"), Secure ? 0u : 1u) << Name;
  }
}

TEST(ServeTest, WarmRepeatReplaysVerdictsAndMatchesCli) {
  // producer_consumer's actions carry `enabled` clauses, which the
  // differencing tier leaves to the bounded tiers, so the cold request runs
  // a real validity check. The warm repeat replays every spec verdict from
  // the program's memo: hits grow, computations do not.
  const std::string Path = example("producer_consumer.hv");
  const std::string Src = slurp(Path);
  const std::string Expected = cliOutput("--jobs 1 " + Path);
  ServerProc Server;
  Client C(Server.port());

  JsonValue Cold = C.rpc(verifyLine(1, Src, Path));
  EXPECT_FALSE(Cold.getBool("program_cache_hit"));
  EXPECT_EQ(Cold.getString("report"), Expected);
  const uint64_t Computed = statsCount(C, "validity.verdict_memo.computed");
  const uint64_t Hits = statsCount(C, "validity.verdict_memo.hits");
  EXPECT_GT(Computed, 0u);

  JsonValue Warm = C.rpc(verifyLine(2, Src, Path));
  EXPECT_TRUE(Warm.getBool("program_cache_hit"));
  EXPECT_EQ(Warm.getString("report"), Expected);
  EXPECT_EQ(Warm.find("cache"), nullptr); // the reply field is gone
  EXPECT_GT(statsCount(C, "validity.verdict_memo.hits"), Hits);
  EXPECT_EQ(statsCount(C, "validity.verdict_memo.computed"), Computed);
}

TEST(ServeTest, EmitCertWarmByteIdenticalToColdAndCli) {
  // The third certificate wiring point: a serve request with
  // `"emit_cert": true` returns the proof certificate in a `cert` field,
  // byte-identical warm or cold, at any jobs — and identical to what the
  // one-shot CLI's --emit-cert writes for the same file.
  const std::string Path = example("figure1.hv");
  const std::string Src = slurp(Path);
  const std::string CliCertPath = tmpPath("cli-figure1.cert");
  std::remove(CliCertPath.c_str());
  cliOutput("--jobs 1 --emit-cert " + CliCertPath + " " + Path);
  const std::string CliCert = slurp(CliCertPath);
  ASSERT_FALSE(CliCert.empty());

  auto certLine = [&](int Id, unsigned Jobs) {
    JsonValue O = JsonValue::object();
    O.set("id", JsonValue::number(static_cast<uint64_t>(Id)));
    O.set("verb", JsonValue::string("verify"));
    O.set("source", JsonValue::string(Src));
    O.set("name", JsonValue::string(Path));
    O.set("emit_cert", JsonValue::boolean(true));
    O.set("jobs", JsonValue::number(static_cast<uint64_t>(Jobs)));
    return O.dump();
  };

  ServerProc Server;
  Client C(Server.port());
  JsonValue Cold = C.rpc(certLine(1, 1));
  EXPECT_TRUE(Cold.getBool("ok"));
  EXPECT_FALSE(Cold.getBool("program_cache_hit"));
  const std::string ColdCert = Cold.getString("cert");
  ASSERT_FALSE(ColdCert.empty());
  EXPECT_EQ(ColdCert, CliCert);

  JsonValue Warm = C.rpc(certLine(2, 3));
  EXPECT_TRUE(Warm.getBool("program_cache_hit"));
  EXPECT_EQ(Warm.getString("cert"), ColdCert);

  // Requests without emit_cert carry no cert field.
  JsonValue Plain = C.rpc(verifyLine(3, Src, Path));
  EXPECT_EQ(Plain.find("cert"), nullptr);

  // The daemon's bytes pass the independent checker.
  const std::string DaemonCertPath = tmpPath("daemon-figure1.cert");
  {
    std::ofstream Out(DaemonCertPath);
    Out << ColdCert;
  }
  std::string CheckOut =
      cliOutput("check-cert " + Path + " " + DaemonCertPath);
  EXPECT_NE(CheckOut.find(": OK"), std::string::npos) << CheckOut;
  std::remove(CliCertPath.c_str());
  std::remove(DaemonCertPath.c_str());
}

TEST(ServeTest, ConcurrentClientsGetByteIdenticalResponses) {
  const std::string Path = example("figure1.hv");
  const std::string Src = slurp(Path);
  const std::string Expected = cliOutput("--jobs 1 " + Path);
  ServerProc Server;

  constexpr int Clients = 3;
  constexpr int RequestsPerClient = 3;
  std::vector<std::vector<std::string>> Reports(Clients);
  std::vector<std::thread> Threads;
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      Client C(Server.port());
      for (int R = 0; R < RequestsPerClient; ++R) {
        JsonValue V = C.rpc(
            verifyLine(I * 100 + R, Src, Path, 1 + (I + R) % 3));
        Reports[I].push_back(V.getString("report"));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 0; I < Clients; ++I)
    for (const std::string &R : Reports[I])
      EXPECT_EQ(R, Expected);
}

TEST(ServeTest, BackpressureRejectsWithTypedBusyError) {
  // workers=1, queue=1: pipelining a burst must produce at least one typed
  // `busy` rejection, and every accepted request still completes with the
  // correct report.
  const std::string Path = example("figure1.hv");
  const std::string Src = slurp(Path);
  const std::string Expected = cliOutput("--jobs 1 " + Path);
  ServerProc Server({"--workers", "1", "--max-queue", "1", "--jobs", "1"});
  Client C(Server.port());

  constexpr int Burst = 10;
  for (int I = 0; I < Burst; ++I)
    C.sendLine(verifyLine(I, Src, Path, 1));

  int Busy = 0, Served = 0;
  for (int I = 0; I < Burst; ++I) {
    std::string Line = C.recvLine();
    ASSERT_FALSE(Line.empty());
    std::optional<JsonValue> V = JsonValue::parse(Line);
    ASSERT_TRUE(V) << Line;
    if (const JsonValue *E = V->find("error")) {
      EXPECT_EQ(E->getString("type"), "busy");
      ++Busy;
    } else {
      EXPECT_EQ(V->getString("report"), Expected);
      ++Served;
    }
  }
  EXPECT_GT(Busy, 0) << "burst never tripped backpressure";
  EXPECT_GT(Served, 0);
  EXPECT_EQ(Busy + Served, Burst);
}

TEST(ServeTest, StatsHasGoldenShape) {
  const std::string Path = example("figure1.hv");
  ServerProc Server;
  Client C(Server.port());
  C.rpc(verifyLine(1, slurp(Path), Path));

  JsonValue R = C.rpc(R"({"id":2,"verb":"stats"})");
  EXPECT_TRUE(R.getBool("ok"));
  const JsonValue *S = R.find("stats");
  ASSERT_NE(S, nullptr);
  for (const char *Key :
       {"requests", "queue_depth", "in_flight", "program_cache", "metrics"})
    EXPECT_NE(S->find(Key), nullptr) << "stats missing " << Key;
  for (const char *Key : {"spec_cache", "specs_cached"})
    EXPECT_EQ(S->find(Key), nullptr) << "stats still has " << Key;
  EXPECT_EQ(S->getU64("requests"), 1u);
  const JsonValue *PC = S->find("program_cache");
  for (const char *Key : {"hits", "misses", "programs"})
    EXPECT_NE(PC->find(Key), nullptr) << "program_cache missing " << Key;
  // The metrics splice is the registry's own counts/timings export.
  const JsonValue *M = S->find("metrics");
  EXPECT_NE(M->find("counts"), nullptr);
  EXPECT_NE(M->find("timings"), nullptr);
}

TEST(ServeTest, MalformedAndUnknownRequestsGetTypedErrors) {
  ServerProc Server;
  Client C(Server.port());
  JsonValue Bad = C.rpc("this is not json");
  ASSERT_NE(Bad.find("error"), nullptr);
  EXPECT_EQ(Bad.find("error")->getString("type"), "bad-request");

  JsonValue Unknown = C.rpc(R"({"id":1,"verb":"frobnicate"})");
  ASSERT_NE(Unknown.find("error"), nullptr);
  EXPECT_EQ(Unknown.find("error")->getString("type"), "unknown-verb");
  EXPECT_EQ(Unknown.getU64("id"), 1u); // errors still echo the id

  JsonValue NoSource = C.rpc(R"({"id":2,"verb":"verify"})");
  ASSERT_NE(NoSource.find("error"), nullptr);
  EXPECT_EQ(NoSource.find("error")->getString("type"), "bad-request");

  // Values too large for the field are refused, not narrowed (which made
  // jobs 2^32 mean "session default" and seeds 2^32+1 run one seed).
  for (const char *Line :
       {R"({"id":3,"verb":"verify","source":"procedure main() { skip; }",)"
        R"("jobs":4294967296})",
        R"({"id":4,"verb":"fuzz","seeds":4294967297})"}) {
    JsonValue Big = C.rpc(Line);
    ASSERT_NE(Big.find("error"), nullptr) << Line;
    EXPECT_EQ(Big.find("error")->getString("type"), "bad-request") << Line;
  }
}

TEST(ServeTest, HostileLinesGetTypedErrorsAndTheDaemonKeepsServing) {
  // A line nested 100000 deep once overflowed the JSON parser's stack and
  // a 50000-term `l + l + ...` chain the verifier's; each kills the whole
  // daemon unless it is refused as an error.
  const std::string Path = example("figure1.hv");
  const std::string Src = slurp(Path);
  const std::string Expected = cliOutput("--jobs 1 " + Path);
  std::string Chain = "procedure main(l: int) returns (out: int)\n"
                      "  requires low(l)\n  ensures low(out)\n{\n  out := l";
  for (unsigned I = 1; I < 50000; ++I)
    Chain += " + l";
  Chain += ";\n}\n";

  ServerProc Server;
  {
    Client C(Server.port());
    JsonValue Deep = C.rpc(std::string(100000, '['));
    ASSERT_NE(Deep.find("error"), nullptr);
    EXPECT_EQ(Deep.find("error")->getString("type"), "bad-request");
    EXPECT_NE(Deep.find("error")->getString("message").find("nesting"),
              std::string::npos);

    JsonValue Tall = C.rpc(verifyLine(1, Chain, "chain.hv"));
    EXPECT_EQ(Tall.getU64("exit"), 1u);
    EXPECT_NE(Tall.getString("report").find("height limit"),
              std::string::npos);

    JsonValue Same = C.rpc(verifyLine(2, Src, Path));
    EXPECT_EQ(Same.getString("report"), Expected);
  }
  Client Fresh(Server.port());
  JsonValue R = Fresh.rpc(verifyLine(3, Src, Path));
  EXPECT_EQ(R.getString("report"), Expected);
}

TEST(ServeTest, ShutdownVerbDrainsAndExitsZero) {
  ServerProc Server;
  Client C(Server.port());
  JsonValue R = C.rpc(R"({"id":1,"verb":"shutdown"})");
  EXPECT_TRUE(R.getBool("ok"));
  EXPECT_EQ(Server.wait(), 0);
}

TEST(ServeTest, SigtermFlushesSinksAndExits143) {
  const std::string Metrics = tmpPath("sigterm-metrics.json");
  const std::string Trace = tmpPath("sigterm-trace.json");
  std::remove(Metrics.c_str());
  std::remove(Trace.c_str());
  ServerProc Server(
      {"--metrics-json", Metrics, "--trace", Trace});
  {
    // Real work first, so the flushed registry is nonempty.
    Client C(Server.port());
    const std::string Path = example("figure1.hv");
    C.rpc(verifyLine(1, slurp(Path), Path));
  }
  Server.signal(SIGTERM);
  EXPECT_EQ(Server.wait(), 143); // 128 + SIGTERM

  // The interrupt/flush contract (the bug this PR fixes): both sinks are
  // written even though the process was signalled, not shut down.
  std::string M = slurp(Metrics);
  EXPECT_NE(M.find("\"counts\""), std::string::npos);
  EXPECT_NE(M.find("service.requests"), std::string::npos);
  std::string T = slurp(Trace);
  EXPECT_NE(T.find("traceEvents"), std::string::npos);
  std::remove(Metrics.c_str());
  std::remove(Trace.c_str());
}

TEST(ServeTest, SigintOneShotCliFlushesMetrics) {
  // The same interrupt contract for the plain CLI path: SIGINT mid-fuzz
  // must flush --metrics-json and exit 130. The fuzz campaign is the
  // longest-running verb, so it gives the signal a window to land in.
  const std::string Metrics = tmpPath("sigint-metrics.json");
  std::remove(Metrics.c_str());
  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    int Null = open("/dev/null", O_WRONLY);
    dup2(Null, STDOUT_FILENO);
    dup2(Null, STDERR_FILENO);
    execl(COMMCSL_HYPERVIPER_BIN, COMMCSL_HYPERVIPER_BIN, "fuzz", "--seeds",
          "100000", "--jobs", "2", "--metrics-json", Metrics.c_str(),
          static_cast<char *>(nullptr));
    _exit(127);
  }
  // Give the campaign time to start, then interrupt it.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  kill(Child, SIGINT);
  int Status = 0;
  waitpid(Child, &Status, 0);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 130); // 128 + SIGINT
  std::string M = slurp(Metrics);
  EXPECT_NE(M.find("\"counts\""), std::string::npos);
  std::remove(Metrics.c_str());
}

TEST(ServeTest, BudgetTimeoutIsTypedAndLeavesCachesWarm) {
  // A one-step cap on a spec the differencing tier cannot fully prove
  // (producer_consumer's enabled actions fall to the concrete tiers) must
  // yield a typed `timeout` error — and the program cache must survive it,
  // so an unbudgeted retry of the same source runs warm and verifies.
  const std::string Path = example("producer_consumer.hv");
  const std::string Src = slurp(Path);
  ServerProc Server;
  Client C(Server.port());

  JsonValue O = JsonValue::object();
  O.set("id", JsonValue::number(uint64_t(1)));
  O.set("verb", JsonValue::string("verify"));
  O.set("source", JsonValue::string(Src));
  O.set("name", JsonValue::string(Path));
  O.set("max_steps", JsonValue::number(uint64_t(1)));
  JsonValue R = C.rpc(O.dump());
  const JsonValue *E = R.find("error");
  ASSERT_NE(E, nullptr) << "expected a timeout error";
  EXPECT_EQ(E->getString("type"), "timeout");
  EXPECT_NE(E->getString("message").find("budget"), std::string::npos);

  JsonValue Retry = C.rpc(verifyLine(2, Src, Path));
  EXPECT_TRUE(Retry.getBool("ok"));
  EXPECT_TRUE(Retry.getBool("program_cache_hit"));

  // A generous budget never fires.
  JsonValue G = JsonValue::object();
  G.set("id", JsonValue::number(uint64_t(3)));
  G.set("verb", JsonValue::string("verify"));
  G.set("source", JsonValue::string(Src));
  G.set("name", JsonValue::string(Path));
  G.set("budget_ms", JsonValue::number(uint64_t(600000)));
  G.set("max_steps", JsonValue::number(uint64_t(1000000000)));
  JsonValue Ok = C.rpc(G.dump());
  EXPECT_EQ(Ok.find("error"), nullptr);
  EXPECT_TRUE(Ok.getBool("ok"));
  EXPECT_EQ(Ok.getString("report"), Retry.getString("report"));
}
