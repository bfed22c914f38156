//===- perfbench/src/Timing.h - Wall and CPU clocks -------------*- C++ -*-===//
//
// Part of psopt.
//
//===----------------------------------------------------------------------===//

#ifndef PSOPT_PERFBENCH_TIMING_H
#define PSOPT_PERFBENCH_TIMING_H

#include <chrono>
#include <ctime>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Wall seconds since \p T0.
inline double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// CPU seconds used by every thread of the process so far.
inline double processCpuSeconds() {
  timespec TS{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) +
         1e-9 * static_cast<double>(TS.tv_nsec);
}

} // namespace perfbench

#endif // PSOPT_PERFBENCH_TIMING_H
