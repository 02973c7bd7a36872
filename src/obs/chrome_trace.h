// Chrome trace-event exporter: dumps a profiler's retained zones and lock
// events in the JSON Object Format that chrome://tracing and Perfetto
// (ui.perfetto.dev) load natively. Each filesystem becomes one "process" row
// and each simulated CPU one "thread" track inside it, carrying the closed
// zones of sampled ops (one span per zone, named after its layer), so per-CPU
// journals, allocator pools, and fault handling visualize as parallel
// timelines. Lock events add one "<fs> locks" process whose threads are the
// named lock sites, with wait and hold phases rendered as separate spans.
// Benches emit TRACE_<name>.json next to BENCH_<name>.json; collapsed
// profiler stacks additionally emit FLAME_<name>.txt in the flamegraph.pl
// folded format.
#ifndef SRC_OBS_CHROME_TRACE_H_
#define SRC_OBS_CHROME_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace obs {

class Profiler;

// The profiler a filesystem's contexts were attached to during a bench.
struct NamedProfiler {
  std::string name;            // filesystem (process row label)
  const Profiler* profiler;    // not owned
};

// Serializes the profilers' retained zones and lock events as Chrome trace
// JSON:
//   {"displayTimeUnit":"ms","traceEvents":[ ... ]}
// with process_name/thread_name metadata and one complete ("X") event per
// zone (ts/dur in microseconds; name and cat are the zone's layer). Lock
// tracks render each acquire/release pair as a "wait" span (queueing)
// followed by a "hold" span on the owning site's thread row.
std::string ChromeTraceJson(const std::vector<NamedProfiler>& profilers);

// Writes ChromeTraceJson() to $BENCH_OUT_DIR/TRACE_<bench_name>.json
// (BENCH_OUT_DIR defaults to "."). Returns the path written.
common::Result<std::string> WriteChromeTrace(std::string_view bench_name,
                                             const std::vector<NamedProfiler>& profilers);

// Flame-graph-compatible collapsed stacks: one "<fs>;<layer>;<layer> <ns>"
// line per distinct zone path, directly consumable by flamegraph.pl.
std::string CollapsedStacks(const std::vector<NamedProfiler>& profilers);

// Writes CollapsedStacks() to $BENCH_OUT_DIR/FLAME_<bench_name>.txt. Returns
// the path written.
common::Result<std::string> WriteCollapsedStacks(std::string_view bench_name,
                                                 const std::vector<NamedProfiler>& profilers);

}  // namespace obs

#endif  // SRC_OBS_CHROME_TRACE_H_
