//===- support/Trace.cpp - Structured tracing and telemetry --------------===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"
#include "support/Statistic.h"
#include "support/Timer.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>

namespace psopt {

namespace detail {
std::atomic<bool> TraceEnabledFlag{false};
} // namespace detail

std::string jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
  return Out;
}

TraceArgs &TraceArgs::add(const char *Key, std::uint64_t V) {
  if (!Json.empty())
    Json += ',';
  Json += jsonQuote(Key) + ':' + std::to_string(V);
  return *this;
}

TraceArgs &TraceArgs::add(const char *Key, std::int64_t V) {
  if (!Json.empty())
    Json += ',';
  Json += jsonQuote(Key) + ':' + std::to_string(V);
  return *this;
}

TraceArgs &TraceArgs::add(const char *Key, double V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  if (!Json.empty())
    Json += ',';
  Json += jsonQuote(Key) + ':' + Buf;
  return *this;
}

TraceArgs &TraceArgs::add(const char *Key, bool V) {
  if (!Json.empty())
    Json += ',';
  Json += jsonQuote(Key) + ':' + (V ? "true" : "false");
  return *this;
}

TraceArgs &TraceArgs::add(const char *Key, const std::string &V) {
  if (!Json.empty())
    Json += ',';
  Json += jsonQuote(Key) + ':' + jsonQuote(V);
  return *this;
}

TraceArgs &TraceArgs::add(const char *Key, const char *V) {
  return add(Key, std::string(V));
}

namespace {

struct TraceEvent {
  enum class Kind : std::uint8_t { Span, Instant, Counter };
  Kind K;
  // Owned copies: emitters may pass names that do not outlive the scope
  // (e.g. a PassPipeline's composed pass name).
  std::string Cat;
  std::string Name;
  std::uint64_t TsUs = 0;
  std::uint64_t DurUs = 0;  // Span
  std::int64_t Value = 0;   // Counter
  std::uint32_t Tid = 0;
  std::string ArgsJson; // `"k":v,...` fragment
};

/// Per-thread cap: bounds memory on runaway campaigns; drops are counted
/// and surfaced through traceStats().
constexpr std::size_t MaxEventsPerThread = 1u << 22;

struct ThreadBuf {
  std::mutex M;
  std::vector<TraceEvent> Events;
  std::string Name;
  std::uint32_t Tid = 0;
  std::uint64_t Dropped = 0;
};

struct Collector {
  std::mutex M;
  std::vector<std::shared_ptr<ThreadBuf>> Bufs;
  std::atomic<std::uint32_t> NextTid{0};
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
};

Collector &collector() {
  static Collector C;
  return C;
}

/// The calling thread's buffer; registered with the collector on first
/// use and kept alive past thread exit by the collector's shared_ptr.
ThreadBuf &threadBuf() {
  thread_local std::shared_ptr<ThreadBuf> B = [] {
    auto P = std::make_shared<ThreadBuf>();
    Collector &C = collector();
    P->Tid = C.NextTid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(C.M);
    C.Bufs.push_back(P);
    return P;
  }();
  return *B;
}

void append(TraceEvent &&E) {
  ThreadBuf &B = threadBuf();
  E.Tid = B.Tid;
  std::lock_guard<std::mutex> Lock(B.M);
  if (B.Events.size() >= MaxEventsPerThread) {
    ++B.Dropped;
    return;
  }
  B.Events.push_back(std::move(E));
}

} // namespace

void traceStart() {
  collector(); // pin the epoch before the first event
  detail::TraceEnabledFlag.store(true, std::memory_order_relaxed);
}

void traceStop() {
  detail::TraceEnabledFlag.store(false, std::memory_order_relaxed);
}

void traceClear() {
  Collector &C = collector();
  std::lock_guard<std::mutex> Lock(C.M);
  for (const std::shared_ptr<ThreadBuf> &B : C.Bufs) {
    std::lock_guard<std::mutex> BLock(B->M);
    B->Events.clear();
    B->Dropped = 0;
  }
}

std::uint64_t traceNowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - collector().Epoch)
          .count());
}

void traceSetThreadName(const std::string &Name) {
  ThreadBuf &B = threadBuf();
  std::lock_guard<std::mutex> Lock(B.M);
  B.Name = Name;
}

void traceInstant(const char *Cat, const char *Name, TraceArgs Args) {
  if (!traceEnabled())
    return;
  TraceEvent E;
  E.K = TraceEvent::Kind::Instant;
  E.Cat = Cat;
  E.Name = Name;
  E.TsUs = traceNowUs();
  E.ArgsJson = Args.fragment();
  append(std::move(E));
}

void traceCounter(const char *Cat, const char *Name, std::int64_t Value) {
  if (!traceEnabled())
    return;
  TraceEvent E;
  E.K = TraceEvent::Kind::Counter;
  E.Cat = Cat;
  E.Name = Name;
  E.TsUs = traceNowUs();
  E.Value = Value;
  append(std::move(E));
}

TraceSpan::TraceSpan(const char *Cat, const char *Name)
    : Cat(Cat), Name(Name), Active(traceEnabled()) {
  if (Active)
    StartUs = traceNowUs();
}

TraceSpan::~TraceSpan() {
  if (!Active)
    return;
  TraceEvent E;
  E.K = TraceEvent::Kind::Span;
  E.Cat = Cat;
  E.Name = Name;
  E.TsUs = StartUs;
  E.DurUs = traceNowUs() - StartUs;
  E.ArgsJson = Args.fragment();
  append(std::move(E));
}

namespace {

struct Snapshot {
  std::vector<TraceEvent> Events;
  std::vector<std::pair<std::uint32_t, std::string>> ThreadNames;
  std::uint64_t Dropped = 0;
  std::uint64_t Threads = 0;
};

/// Copies every buffer out under its own lock and time-sorts the merge.
Snapshot snapshot() {
  Snapshot S;
  Collector &C = collector();
  std::vector<std::shared_ptr<ThreadBuf>> Bufs;
  {
    std::lock_guard<std::mutex> Lock(C.M);
    Bufs = C.Bufs;
  }
  for (const std::shared_ptr<ThreadBuf> &B : Bufs) {
    std::lock_guard<std::mutex> Lock(B->M);
    if (B->Events.empty() && B->Name.empty())
      continue;
    ++S.Threads;
    S.Dropped += B->Dropped;
    if (!B->Name.empty())
      S.ThreadNames.emplace_back(B->Tid, B->Name);
    S.Events.insert(S.Events.end(), B->Events.begin(), B->Events.end());
  }
  std::stable_sort(S.Events.begin(), S.Events.end(),
                   [](const TraceEvent &A, const TraceEvent &B) {
                     return A.TsUs < B.TsUs;
                   });
  return S;
}

const char *phase(TraceEvent::Kind K) {
  switch (K) {
  case TraceEvent::Kind::Span:
    return "X";
  case TraceEvent::Kind::Instant:
    return "i";
  case TraceEvent::Kind::Counter:
    return "C";
  }
  return "?";
}

const char *kindName(TraceEvent::Kind K) {
  switch (K) {
  case TraceEvent::Kind::Span:
    return "span";
  case TraceEvent::Kind::Instant:
    return "instant";
  case TraceEvent::Kind::Counter:
    return "counter";
  }
  return "?";
}

} // namespace

TraceStats traceStats() {
  Snapshot S = snapshot();
  TraceStats T;
  T.Events = S.Events.size();
  T.Dropped = S.Dropped;
  T.Threads = S.Threads;
  return T;
}

void traceRenderChrome(std::ostream &OS) {
  Snapshot S = snapshot();
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto Sep = [&] {
    if (!First)
      OS << ",";
    OS << "\n";
    First = false;
  };
  for (const auto &[Tid, Name] : S.ThreadNames) {
    Sep();
    OS << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << Tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":" << jsonQuote(Name)
       << "}}";
  }
  for (const TraceEvent &E : S.Events) {
    Sep();
    OS << "{\"ph\":\"" << phase(E.K) << "\",\"pid\":1,\"tid\":" << E.Tid
       << ",\"ts\":" << E.TsUs << ",\"cat\":" << jsonQuote(E.Cat)
       << ",\"name\":" << jsonQuote(E.Name);
    if (E.K == TraceEvent::Kind::Span)
      OS << ",\"dur\":" << E.DurUs;
    if (E.K == TraceEvent::Kind::Instant)
      OS << ",\"s\":\"t\"";
    if (E.K == TraceEvent::Kind::Counter)
      OS << ",\"args\":{\"value\":" << E.Value << "}";
    else if (!E.ArgsJson.empty())
      OS << ",\"args\":{" << E.ArgsJson << "}";
    OS << "}";
  }
  OS << "\n]}\n";
}

void traceRenderJsonl(std::ostream &OS) {
  Snapshot S = snapshot();
  for (const TraceEvent &E : S.Events) {
    OS << "{\"ts_us\":" << E.TsUs << ",\"kind\":\"" << kindName(E.K)
       << "\",\"cat\":" << jsonQuote(E.Cat)
       << ",\"name\":" << jsonQuote(E.Name) << ",\"tid\":" << E.Tid;
    if (E.K == TraceEvent::Kind::Span)
      OS << ",\"dur_us\":" << E.DurUs;
    if (E.K == TraceEvent::Kind::Counter)
      OS << ",\"value\":" << E.Value;
    if (!E.ArgsJson.empty())
      OS << ",\"args\":{" << E.ArgsJson << "}";
    OS << "}\n";
  }
}

static bool writeWith(void (*Render)(std::ostream &), const std::string &Path,
                      std::string &Err) {
  std::ofstream OS(Path);
  if (!OS) {
    Err = "cannot open " + Path + " for writing";
    return false;
  }
  Render(OS);
  OS.flush();
  if (!OS) {
    Err = "write to " + Path + " failed";
    return false;
  }
  return true;
}

bool traceWriteChrome(const std::string &Path, std::string &Err) {
  return writeWith(traceRenderChrome, Path, Err);
}

bool traceWriteJsonl(const std::string &Path, std::string &Err) {
  return writeWith(traceRenderJsonl, Path, Err);
}

//===----------------------------------------------------------------------===//
// Gauges
//===----------------------------------------------------------------------===//

static std::vector<Gauge *> &gaugeRegistry() {
  static std::vector<Gauge *> R;
  return R;
}

Gauge::Gauge(const char *Group, const char *Name, const char *Desc)
    : Group(Group), Name(Name), Desc(Desc) {
  gaugeRegistry().push_back(this);
}

const std::vector<Gauge *> &allGauges() { return gaugeRegistry(); }

Gauge &searchFrontierGauge() {
  static Gauge G("search", "frontier", "work items not yet expanded");
  return G;
}

Gauge &searchVisitedGauge() {
  static Gauge G("search", "visited", "nodes visited so far");
  return G;
}

//===----------------------------------------------------------------------===//
// ProgressMeter
//===----------------------------------------------------------------------===//

struct ProgressMeter::Impl {
  std::thread Th;
  std::mutex M;
  std::condition_variable Cv;
  bool StopFlag = false;
  double IntervalSec;
  Timer Clock;
  std::uint64_t PrevNodes = 0;
  double PrevSec = 0;

  const Statistic *Nodes = findStatistic("explore", "nodes");
  const Statistic *Hits = findStatistic("certcache", "hits");
  const Statistic *Misses = findStatistic("certcache", "misses");
  const Statistic *Fused = findStatistic("reduction", "fused_steps");

  static std::uint64_t val(const Statistic *S) { return S ? S->value() : 0; }

  void sample(bool Final) {
    double Now = Clock.elapsedSec();
    std::uint64_t N = val(Nodes);
    double Dt = Now - PrevSec;
    double Rate = Dt > 0 ? static_cast<double>(N - PrevNodes) / Dt : 0;
    PrevNodes = N;
    PrevSec = Now;

    std::uint64_t H = val(Hits), Mi = val(Misses);
    double HitPct =
        H + Mi ? 100.0 * static_cast<double>(H) / static_cast<double>(H + Mi)
               : 0.0;
    std::uint64_t Frontier = searchFrontierGauge().value();
    std::uint64_t Visited = searchVisitedGauge().value();

    std::fprintf(stderr,
                 "[psopt]%s t=%.1fs nodes=%llu (%.1fk/s) frontier=%llu "
                 "visited=%llu cache-hit=%.1f%% fused=%llu\n",
                 Final ? " final" : "", Now,
                 static_cast<unsigned long long>(N), Rate / 1000.0,
                 static_cast<unsigned long long>(Frontier),
                 static_cast<unsigned long long>(Visited), HitPct,
                 static_cast<unsigned long long>(val(Fused)));

    if (traceEnabled()) {
      traceCounter("progress", "nodes", static_cast<std::int64_t>(N));
      traceCounter("progress", "nodes_per_sec",
                   static_cast<std::int64_t>(Rate));
      traceCounter("progress", "frontier",
                   static_cast<std::int64_t>(Frontier));
      traceCounter("progress", "visited",
                   static_cast<std::int64_t>(Visited));
      traceCounter("progress", "cache_hit_pct",
                   static_cast<std::int64_t>(HitPct));
      traceCounter("progress", "certcache_hits",
                   static_cast<std::int64_t>(H));
      traceCounter("progress", "reduction_fused_steps",
                   static_cast<std::int64_t>(val(Fused)));
    }
  }

  void loop() {
    traceSetThreadName("progress");
    std::unique_lock<std::mutex> Lock(M);
    for (;;) {
      if (Cv.wait_for(Lock, std::chrono::duration<double>(IntervalSec),
                      [this] { return StopFlag; }))
        return;
      sample(/*Final=*/false);
    }
  }
};

ProgressMeter::ProgressMeter(double IntervalSec) : I(new Impl) {
  I->IntervalSec = IntervalSec > 0.05 ? IntervalSec : 0.05;
  I->Th = std::thread([this] { I->loop(); });
}

ProgressMeter::~ProgressMeter() {
  {
    std::lock_guard<std::mutex> Lock(I->M);
    I->StopFlag = true;
  }
  I->Cv.notify_all();
  I->Th.join();
  // Guarantee at least one heartbeat, even for sub-interval runs.
  I->sample(/*Final=*/true);
  delete I;
}

//===----------------------------------------------------------------------===//
// Environment activation: PSOPT_TRACE_OUT / PSOPT_TRACE_JSONL enable the
// collector at load and flush the export at exit, so any binary (the
// benches included) can produce traces without CLI plumbing.
//===----------------------------------------------------------------------===//

namespace {

std::string &envChromePath() {
  static std::string P;
  return P;
}
std::string &envJsonlPath() {
  static std::string P;
  return P;
}

void flushEnvTraces() {
  std::string Err;
  if (!envChromePath().empty() && !traceWriteChrome(envChromePath(), Err))
    std::fprintf(stderr, "psopt trace: %s\n", Err.c_str());
  if (!envJsonlPath().empty() && !traceWriteJsonl(envJsonlPath(), Err))
    std::fprintf(stderr, "psopt trace: %s\n", Err.c_str());
}

struct EnvTraceInit {
  EnvTraceInit() {
    const char *Chrome = std::getenv("PSOPT_TRACE_OUT");
    const char *Jsonl = std::getenv("PSOPT_TRACE_JSONL");
    if (!Chrome && !Jsonl)
      return;
    if (Chrome)
      envChromePath() = Chrome;
    if (Jsonl)
      envJsonlPath() = Jsonl;
    traceStart();
    std::atexit(flushEnvTraces);
  }
};
EnvTraceInit EnvTraceInitializer;

} // namespace

} // namespace psopt
