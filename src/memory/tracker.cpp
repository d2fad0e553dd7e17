#include "src/memory/tracker.hpp"

#include <algorithm>
#include <sstream>

#include "src/util/logging.hpp"
#include "src/util/units.hpp"

namespace slim::mem {

double MemoryReport::max_peak() const {
  double peak = 0.0;
  for (const DeviceMemory& dev : devices) peak = std::max(peak, dev.peak);
  return peak;
}

int MemoryReport::argmax_device() const {
  int best = 0;
  for (std::size_t d = 1; d < devices.size(); ++d) {
    if (devices[d].peak > devices[static_cast<std::size_t>(best)].peak) {
      best = static_cast<int>(d);
    }
  }
  return best;
}

std::string MemoryReport::summary() const {
  std::ostringstream out;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    out << "device " << d << ": peak " << format_bytes(devices[d].peak);
    out << " (";
    bool first = true;
    for (int c = 0; c < kNumCategories; ++c) {
      if (devices[d].at_peak[static_cast<std::size_t>(c)] <= 0.0) continue;
      if (!first) out << ", ";
      first = false;
      out << category_name(c) << " "
          << format_bytes(devices[d].at_peak[static_cast<std::size_t>(c)]);
    }
    out << ")\n";
  }
  return out.str();
}

MemoryReport replay_memory(const sim::OpGraph& graph,
                           const sim::ExecResult& result, int num_devices) {
  return replay_memory(graph, result, num_devices, {});
}

MemoryReport replay_memory(const sim::OpGraph& graph,
                           const sim::ExecResult& result, int num_devices,
                           const std::vector<StaticFootprint>& baseline) {
  SLIM_CHECK(num_devices > 0, "num_devices must be positive");
  struct Event {
    double time;
    int device;
    int category;
    double bytes;
    int op_id;    // tie-break so same-time replays are order-independent
    int seq;      // delta index within the op (ops can carry several)
  };
  std::size_t num_events = 0;
  for (const sim::Op& op : graph.ops()) num_events += graph.mem(op.id).size();
  std::vector<Event> events;
  events.reserve(num_events);
  for (const sim::Op& op : graph.ops()) {
    const sim::OpTiming& t = result.timings[static_cast<std::size_t>(op.id)];
    int seq = 0;
    for (const sim::MemDelta& delta : graph.mem(op.id)) {
      events.push_back(Event{delta.at_end ? t.end : t.start, delta.device,
                             delta.category, delta.bytes,
                             static_cast<int>(op.id), seq++});
    }
  }
  // Sort by time with frees applied before allocations at equal timestamps
  // — matches a caching allocator that reuses the block freed by a backward
  // for the next forward. Same-time same-sign ties break on (op id, delta
  // index): the replay is a pure function of the graph, independent of the
  // order ops happen to be stored in.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.time != b.time) return a.time < b.time;
                     const bool a_free = a.bytes < 0.0, b_free = b.bytes < 0.0;
                     if (a_free != b_free) return a_free;
                     if (a.op_id != b.op_id) return a.op_id < b.op_id;
                     return a.seq < b.seq;
                   });

  MemoryReport report;
  report.devices.assign(static_cast<std::size_t>(num_devices), DeviceMemory{});
  std::vector<std::vector<double>> current(
      static_cast<std::size_t>(num_devices),
      std::vector<double>(kNumCategories, 0.0));
  std::vector<double> total(static_cast<std::size_t>(num_devices), 0.0);

  for (const StaticFootprint& base : baseline) {
    SLIM_CHECK(base.device >= 0 && base.device < num_devices,
               "baseline device out of range");
    SLIM_CHECK(base.category >= 0 && base.category < kNumCategories,
               "baseline category out of range");
    current[static_cast<std::size_t>(base.device)]
           [static_cast<std::size_t>(base.category)] += base.bytes;
    total[static_cast<std::size_t>(base.device)] += base.bytes;
  }
  for (int d = 0; d < num_devices; ++d) {
    DeviceMemory& dev = report.devices[static_cast<std::size_t>(d)];
    dev.peak = total[static_cast<std::size_t>(d)];
    dev.at_peak = current[static_cast<std::size_t>(d)];
    dev.category_peak = current[static_cast<std::size_t>(d)];
  }

  for (const Event& ev : events) {
    SLIM_CHECK(ev.device >= 0 && ev.device < num_devices,
               "memory event device out of range");
    SLIM_CHECK(ev.category >= 0 && ev.category < kNumCategories,
               "memory event category out of range");
    auto& cur = current[static_cast<std::size_t>(ev.device)];
    cur[static_cast<std::size_t>(ev.category)] += ev.bytes;
    total[static_cast<std::size_t>(ev.device)] += ev.bytes;
    DeviceMemory& dev = report.devices[static_cast<std::size_t>(ev.device)];
    dev.category_peak[static_cast<std::size_t>(ev.category)] =
        std::max(dev.category_peak[static_cast<std::size_t>(ev.category)],
                 cur[static_cast<std::size_t>(ev.category)]);
    if (total[static_cast<std::size_t>(ev.device)] > dev.peak) {
      dev.peak = total[static_cast<std::size_t>(ev.device)];
      dev.peak_time = ev.time;
      dev.at_peak = cur;
    }
  }
  for (int d = 0; d < num_devices; ++d) {
    report.devices[static_cast<std::size_t>(d)].end =
        total[static_cast<std::size_t>(d)];
  }
  return report;
}

}  // namespace slim::mem
