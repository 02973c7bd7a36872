#include "src/obs/chrome_trace.h"

#include <cstdlib>
#include <fstream>
#include <set>

#include "src/obs/json.h"
#include "src/obs/profiler.h"

namespace obs {

namespace {

void MetadataEvent(JsonWriter& w, std::string_view what, uint64_t pid, uint64_t tid,
                   std::string_view label, bool with_tid) {
  w.BeginObject();
  w.Key("name").String(what);
  w.Key("ph").String("M");
  w.Key("pid").Number(pid);
  if (with_tid) {
    w.Key("tid").Number(tid);
  }
  w.Key("args").BeginObject().Key("name").String(label).EndObject();
  w.EndObject();
}

// One span; `cpu` is the simulated CPU it ran on (the tid of a zone track,
// the acquiring CPU on a lock-site track).
void CompleteEvent(JsonWriter& w, std::string_view name, std::string_view cat, uint64_t pid,
                   uint64_t tid, uint64_t start_ns, uint64_t dur_ns, uint32_t cpu) {
  w.BeginObject();
  w.Key("name").String(name);
  w.Key("cat").String(cat);
  w.Key("ph").String("X");
  w.Key("pid").Number(pid);
  w.Key("tid").Number(tid);
  // Trace-event timestamps are microseconds; keep ns precision as decimals.
  w.Key("ts").Number(static_cast<double>(start_ns) / 1000.0);
  w.Key("dur").Number(static_cast<double>(dur_ns) / 1000.0);
  w.Key("args").BeginObject().Key("cpu").Number(uint64_t{cpu}).EndObject();
  w.EndObject();
}

std::string OutPath(std::string_view prefix, std::string_view bench_name,
                    std::string_view extension) {
  const char* dir = std::getenv("BENCH_OUT_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0') ? std::string(dir) : std::string(".");
  if (path.back() != '/') {
    path += '/';
  }
  path += std::string(prefix) + std::string(bench_name) + std::string(extension);
  return path;
}

common::Result<std::string> WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return common::ErrorCode::kIoError;
  }
  out << text;
  out.close();
  if (!out) {
    return common::ErrorCode::kIoError;
  }
  return path;
}

}  // namespace

std::string ChromeTraceJson(const std::vector<NamedProfiler>& profilers) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  uint64_t pid = 0;
  for (const NamedProfiler& named : profilers) {
    if (named.profiler == nullptr) {
      continue;
    }
    const std::vector<Profiler::ZoneEvent> zones = named.profiler->ZoneEvents();
    if (!zones.empty()) {
      pid++;
      MetadataEvent(w, "process_name", pid, 0, named.name, /*with_tid=*/false);
      std::set<uint32_t> cpus;
      for (const Profiler::ZoneEvent& zone : zones) {
        cpus.insert(zone.cpu);
      }
      for (const uint32_t cpu : cpus) {
        MetadataEvent(w, "thread_name", pid, cpu, "cpu " + std::to_string(cpu),
                      /*with_tid=*/true);
      }
      for (const Profiler::ZoneEvent& zone : zones) {
        const std::string_view layer = common::ProfLayerName(zone.layer);
        CompleteEvent(w, layer, layer, pid, zone.cpu, zone.enter_ns,
                      zone.exit_ns - zone.enter_ns, zone.cpu);
      }
    }
    const std::vector<LockEvent> events = named.profiler->LockEvents();
    if (events.empty()) {
      continue;
    }
    pid++;
    MetadataEvent(w, "process_name", pid, 0, named.name + " locks", /*with_tid=*/false);
    std::set<uint32_t> seen_sites;
    for (const LockEvent& event : events) {
      seen_sites.insert(event.site);
    }
    for (const uint32_t site : seen_sites) {
      // Thread rows are the lock sites; lane ids start at 1000 so they never
      // collide with cpu lanes if a viewer merges processes.
      MetadataEvent(w, "thread_name", pid, 1000 + site,
                    std::string("lock ") + named.profiler->SiteName(site),
                    /*with_tid=*/true);
    }
    for (const LockEvent& event : events) {
      // Reconstruct the timeline backwards from the release point: the
      // caller queued during [release - hold - wait, release - hold) and held
      // the lock during [release - hold, release).
      const uint64_t acquire_ns = event.release_ns - event.hold_ns;
      if (event.wait_ns > 0) {
        CompleteEvent(w, "wait", "lock_wait", pid, 1000 + event.site,
                      acquire_ns - event.wait_ns, event.wait_ns, event.cpu);
      }
      if (event.hold_ns > 0) {
        CompleteEvent(w, "hold", "lock_hold", pid, 1000 + event.site, acquire_ns,
                      event.hold_ns, event.cpu);
      }
    }
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

common::Result<std::string> WriteChromeTrace(std::string_view bench_name,
                                             const std::vector<NamedProfiler>& profilers) {
  return WriteTextFile(OutPath("TRACE_", bench_name, ".json"),
                       ChromeTraceJson(profilers) + "\n");
}

std::string CollapsedStacks(const std::vector<NamedProfiler>& profilers) {
  std::string out;
  for (const NamedProfiler& track : profilers) {
    if (track.profiler == nullptr) {
      continue;
    }
    for (const Profiler::FoldedFrame& frame : track.profiler->FoldedStacks()) {
      out += track.name;
      out += ';';
      out += frame.stack;
      out += ' ';
      out += std::to_string(frame.ns);
      out += '\n';
    }
  }
  return out;
}

common::Result<std::string> WriteCollapsedStacks(std::string_view bench_name,
                                                 const std::vector<NamedProfiler>& profilers) {
  return WriteTextFile(OutPath("FLAME_", bench_name, ".txt"), CollapsedStacks(profilers));
}

}  // namespace obs
