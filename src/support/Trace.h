//===- support/Trace.h - Structured tracing and telemetry ------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide tracing layer (DESIGN.md §14), in the style of the
/// Statistic registry: instrumentation sites emit RAII scoped spans,
/// instant events (milestones, per-fuzz-run records) and counter samples
/// into per-thread buffers; a sink drains the buffers into one of two
/// machine-readable exports:
///
///  * Chrome trace-event JSON (traceWriteChrome / --trace-out=FILE),
///    loadable in Perfetto or chrome://tracing — spans nest by time
///    containment per thread, counters render as tracks;
///  * compact JSONL (traceWriteJsonl / --trace-jsonl=FILE), one event
///    per line, for jq pipelines and CI artifacts.
///
/// Cost model: when tracing is disabled (the default) every entry point
/// is a single relaxed atomic load and a branch — no clock read, no
/// allocation, no lock. Span/instant/counter emission happens at coarse
/// granularity only (per worker loop, per pass, per fuzz run, per
/// heartbeat), never per machine step, so the enabled overhead is
/// negligible next to exploration (budget: see DESIGN.md §14). Emission
/// is thread-safe under TSan: each thread appends to its own buffer
/// under the buffer's (uncontended) mutex; exporters lock buffers one at
/// a time.
///
/// The layer also owns two live-telemetry primitives:
///
///  * Gauge — a named settable level (search frontier size, visited
///    occupancy), registered like a Statistic; engines publish a sampled
///    value with a relaxed store.
///  * ProgressMeter — the --progress[=SEC] heartbeat: a sampling thread
///    prints nodes/s, frontier size, visited occupancy and cert-cache
///    hit-rate to stderr every interval, and (when tracing is on) emits
///    the same samples as counter events, so long-run traces carry
///    hit-rate and reduction-fusion curves over time.
///
/// Setting PSOPT_TRACE_OUT / PSOPT_TRACE_JSONL in the environment
/// enables tracing at load and writes the export at process exit — this
/// is how benchmark binaries produce traces without CLI plumbing.
///
//===----------------------------------------------------------------------===//

#ifndef PSOPT_SUPPORT_TRACE_H
#define PSOPT_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace psopt {

namespace detail {
extern std::atomic<bool> TraceEnabledFlag;
} // namespace detail

/// True while span/instant/counter emission is collecting. The hot-path
/// guard: one relaxed load.
inline bool traceEnabled() {
  return detail::TraceEnabledFlag.load(std::memory_order_relaxed);
}

/// Key/value payload attached to spans and instants; values are rendered
/// to JSON on add, so exporters just splice the fragment.
class TraceArgs {
public:
  TraceArgs &add(const char *Key, std::uint64_t V);
  TraceArgs &add(const char *Key, std::int64_t V);
  TraceArgs &add(const char *Key, int V) {
    return add(Key, static_cast<std::int64_t>(V));
  }
  TraceArgs &add(const char *Key, unsigned V) {
    return add(Key, static_cast<std::uint64_t>(V));
  }
  TraceArgs &add(const char *Key, double V);
  TraceArgs &add(const char *Key, bool V);
  TraceArgs &add(const char *Key, const std::string &V);
  TraceArgs &add(const char *Key, const char *V);

  bool empty() const { return Json.empty(); }
  /// The rendered `"k":v,...` fragment (no surrounding braces).
  const std::string &fragment() const { return Json; }

private:
  std::string Json;
};

/// Escapes \p S for inclusion in a JSON string literal (quotes included).
std::string jsonQuote(const std::string &S);

/// Starts collecting (sets the trace epoch on first start).
void traceStart();
/// Stops collecting; already-buffered events remain exportable.
void traceStop();
/// Drops all buffered events (exporters consume non-destructively).
void traceClear();

/// Microseconds since the trace epoch.
std::uint64_t traceNowUs();

/// Names the calling thread in exports ("worker-3", "progress", ...).
void traceSetThreadName(const std::string &Name);

/// Emits a zero-duration milestone event.
void traceInstant(const char *Cat, const char *Name, TraceArgs Args = {});

/// Emits one sample of a named counter series.
void traceCounter(const char *Cat, const char *Name, std::int64_t Value);

/// RAII span: records its construction time and emits a complete event
/// covering the scope on destruction. Inactive (and free apart from the
/// enabled check) when tracing is disabled at construction.
class TraceSpan {
public:
  TraceSpan(const char *Cat, const char *Name);
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;
  ~TraceSpan();

  /// Attaches an argument to the eventual event (no-op when inactive).
  template <typename T> TraceSpan &arg(const char *Key, T V) {
    if (Active)
      Args.add(Key, V);
    return *this;
  }

private:
  const char *Cat;
  const char *Name;
  std::uint64_t StartUs = 0;
  bool Active;
  TraceArgs Args;
};

/// Export summary, for tests and the CLI's post-run report line.
struct TraceStats {
  std::uint64_t Events = 0;  ///< buffered events
  std::uint64_t Dropped = 0; ///< events beyond the per-thread cap
  std::uint64_t Threads = 0; ///< threads that emitted at least once
};
TraceStats traceStats();

/// Renders the Chrome trace-event JSON export (sorted by timestamp).
void traceRenderChrome(std::ostream &OS);
/// Renders the JSONL export, one event object per line.
void traceRenderJsonl(std::ostream &OS);

/// File-writing wrappers; false + \p Err on I/O failure.
bool traceWriteChrome(const std::string &Path, std::string &Err);
bool traceWriteJsonl(const std::string &Path, std::string &Err);

/// A named settable level registered with the global gauge registry.
/// set() is a relaxed store: publishers may sample at any cadence.
class Gauge {
public:
  Gauge(const char *Group, const char *Name, const char *Desc);

  void set(std::uint64_t V) { Value.store(V, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return Value.load(std::memory_order_relaxed);
  }

  const char *group() const { return Group; }
  const char *name() const { return Name; }
  const char *description() const { return Desc; }

private:
  const char *Group;
  const char *Name;
  const char *Desc;
  std::atomic<std::uint64_t> Value{0};
};

/// Returns all registered gauges (stable registration order).
const std::vector<Gauge *> &allGauges();

/// The search engine's live gauges (defined in Trace.cpp so every
/// ParallelBfs instantiation publishes to the same pair).
Gauge &searchFrontierGauge(); ///< work items not yet expanded
Gauge &searchVisitedGauge();  ///< nodes visited so far

/// The --progress heartbeat: samples the statistic/gauge registries every
/// \p IntervalSec on a background thread, prints one line per sample to
/// stderr, and mirrors the samples as trace counter events when tracing
/// is enabled. The destructor emits one final sample, so even sub-interval
/// runs produce a heartbeat.
class ProgressMeter {
public:
  explicit ProgressMeter(double IntervalSec = 1.0);
  ProgressMeter(const ProgressMeter &) = delete;
  ProgressMeter &operator=(const ProgressMeter &) = delete;
  ~ProgressMeter();

private:
  struct Impl;
  Impl *I;
};

} // namespace psopt

#endif // PSOPT_SUPPORT_TRACE_H
