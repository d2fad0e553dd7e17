#include "src/analysis/verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "src/model/activation.hpp"
#include "src/util/csr.hpp"
#include "src/util/logging.hpp"

namespace slim::analysis {

namespace {

using ir::kNoEndpoint;
using ir::Row;
using ir::ScheduleIR;
using sched::PassType;
using sched::StageLayout;

/// Absolute slack on the in-flight cap: covers float accumulation of the
/// fractional BI/BW frees.
constexpr double kInflightTolerance = 1e-6;

std::string row_location(const Row& row) {
  std::ostringstream out;
  out << "dev " << row.device << " row " << row.order << " ("
      << ir::kind_name(row.kind) << " mb " << row.microbatch << " slice "
      << row.slice << " chunk " << row.chunk << " stage " << row.stage << ")";
  return out.str();
}

/// Rate-limited per-rule reporter.
class Reporter {
 public:
  Reporter(std::vector<Finding>& findings, std::size_t cap)
      : findings_(findings), cap_(cap) {}

  void operator()(const char* rule, const std::string& location,
                  const std::string& message) {
    if (counts_[rule]++ < cap_) {
      findings_.push_back({Severity::Error, rule, location, message});
    }
  }

 private:
  std::vector<Finding>& findings_;
  std::size_t cap_;
  std::unordered_map<std::string, std::size_t> counts_;
};

struct Comm {
  std::size_t row = 0;  // index into the kept-row array
  std::int64_t key = 0; // (mb, slice, src_stage, dst_stage) packed
};

std::int64_t pack_unit(std::int32_t mb, std::int32_t slice, int src_stage,
                       int dst_stage) {
  return (static_cast<std::int64_t>(mb) << 40) |
         (static_cast<std::int64_t>(slice) << 20) |
         (static_cast<std::int64_t>(src_stage) << 10) |
         static_cast<std::int64_t>(dst_stage);
}

std::string unit_text(std::int32_t mb, std::int32_t slice) {
  return "(mb " + std::to_string(mb) + ", slice " + std::to_string(slice) + ")";
}

bool is_boundary_kind(PassType kind, bool* forward) {
  if (kind == PassType::Forward) {
    *forward = true;
    return true;
  }
  if (kind == PassType::Backward || kind == PassType::BackwardInput) {
    *forward = false;
    return true;
  }
  return false;  // BackwardWeight exchanges nothing
}

/// Expected endpoints of a row from the stage boundary it crosses; mirrors
/// ir::lower so a scheme-lowered table verifies trivially while a corrupted
/// or hand-written one is checked against the layout.
void expected_endpoints(const StageLayout& layout, const Row& row,
                        int* recv_from, int* send_to) {
  *recv_from = kNoEndpoint;
  *send_to = kNoEndpoint;
  bool forward = false;
  if (!is_boundary_kind(row.kind, &forward)) return;
  const int num_stages = layout.num_stages();
  const int up = forward ? row.stage - 1 : row.stage + 1;    // input side
  const int down = forward ? row.stage + 1 : row.stage - 1;  // output side
  if (up >= 0 && up < num_stages) {
    const int peer = layout.device_of(up);
    if (peer != row.device) *recv_from = peer;
  }
  if (down >= 0 && down < num_stages) {
    const int peer = layout.device_of(down);
    if (peer != row.device) *send_to = peer;
  }
}

}  // namespace

std::vector<mem::MeasuredPeak> MemoryCertificate::measured_peaks() const {
  std::vector<mem::MeasuredPeak> peaks;
  for (std::size_t dev = 0; dev < device_peak.size(); ++dev) {
    // Unit size of the device's chunk-0 stage (stages on one device share
    // the unit size whenever layers split evenly). It is act+KV combined:
    // the device peaks cannot be split back per category, so a separately
    // booked KV entry uses the same unit.
    double unit = 0.0;
    for (const StageCertificate& stage : stages) {
      if (stage.device != static_cast<int>(dev)) continue;
      unit = stage.unit_bytes;
      break;
    }
    const int device = static_cast<int>(dev);
    peaks.push_back(
        {device, mem::kActivation, device_activation_peak[dev], unit, unit});
    if (kv_category == mem::kKvCache && device_kv_peak[dev] > 0.0) {
      peaks.push_back({device, mem::kKvCache, device_kv_peak[dev], unit, unit});
    }
  }
  return peaks;
}

VerifyResult verify_ir(const ScheduleIR& table, const sched::PipelineSpec& spec,
                       const VerifyOptions& options) {
  SLIM_CHECK(table.p == spec.p && table.v == spec.v && table.n == spec.n &&
                 table.m == spec.m && table.layout == spec.layout,
             "verify_ir: spec does not describe the table's schedule shape "
             "(use ir::apply_header)");
  VerifyResult result;
  Reporter report(result.findings, options.max_findings_per_rule);

  const StageLayout layout = spec.stage_layout();
  const int num_stages = layout.num_stages();

  // ---- ir-structure: indices, per-device order, stage consistency ----
  // Kept rows (structurally sound) in per-device program order.
  std::vector<std::vector<Row>> device_rows(static_cast<std::size_t>(spec.p));
  for (const Row& row : table.rows) {
    if (row.device < 0 || row.device >= spec.p) {
      report("ir-structure", row_location(row),
             "row device outside [0, p=" + std::to_string(spec.p) + ")");
      continue;
    }
    if (row.microbatch < 0 || row.microbatch >= spec.m || row.slice < 0 ||
        row.slice >= spec.n || row.chunk < 0 || row.chunk >= spec.v) {
      std::ostringstream msg;
      msg << "row indices outside m=" << spec.m << " n=" << spec.n
          << " v=" << spec.v;
      report("ir-structure", row_location(row), msg.str());
      continue;
    }
    Row kept = row;
    const int derived =
        layout.stage_of(row.device, static_cast<int>(row.chunk));
    if (row.stage != derived) {
      std::ostringstream msg;
      msg << "row claims stage " << row.stage << " but the " << "layout maps "
          << "(dev " << row.device << ", chunk " << row.chunk << ") to stage "
          << derived;
      report("ir-structure", row_location(row), msg.str());
      kept.stage = derived;  // trust the layout for the remaining passes
    }
    device_rows[static_cast<std::size_t>(row.device)].push_back(kept);
  }
  for (int dev = 0; dev < spec.p; ++dev) {
    auto& rows = device_rows[static_cast<std::size_t>(dev)];
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& a, const Row& b) {
                       return a.order < b.order;
                     });
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].order != static_cast<int>(i)) {
        std::ostringstream msg;
        msg << "device program order is not contiguous: expected order " << i
            << ", row declares " << rows[i].order
            << " (duplicate or gap in the device's clock)";
        report("ir-structure", row_location(rows[i]), msg.str());
        break;  // one report per device; positions stay usable via sort order
      }
    }
  }

  // Flat kept-row array plus per-device position lists for the wait-for
  // graph and channel matching.
  std::vector<Row> rows;
  std::vector<std::vector<std::size_t>> device_pos(
      static_cast<std::size_t>(spec.p));
  for (int dev = 0; dev < spec.p; ++dev) {
    for (const Row& row : device_rows[static_cast<std::size_t>(dev)]) {
      device_pos[static_cast<std::size_t>(dev)].push_back(rows.size());
      rows.push_back(row);
    }
  }

  // ---- verify-causality: endpoints, matching, FIFO ----
  // Channel key: (src, dst, lane); lane 0 carries forward activations,
  // lane 1 backward gradients — mirroring the builder's comm lanes.
  struct Channel {
    std::vector<Comm> sends;  // sender program order
    std::vector<Comm> recvs;  // receiver program order
  };
  std::map<std::tuple<int, int, int>, Channel> channels;
  for (std::size_t idx = 0; idx < rows.size(); ++idx) {
    const Row& row = rows[idx];
    int want_recv = kNoEndpoint, want_send = kNoEndpoint;
    expected_endpoints(layout, row, &want_recv, &want_send);
    if (row.recv_from != want_recv) {
      std::ostringstream msg;
      msg << "row declares recv from "
          << (row.recv_from == kNoEndpoint
                  ? std::string("nobody")
                  : "dev " + std::to_string(row.recv_from))
          << " but the stage boundary implies "
          << (want_recv == kNoEndpoint ? std::string("none")
                                       : "dev " + std::to_string(want_recv));
      report("verify-causality", row_location(row), msg.str());
    }
    if (row.send_to != want_send) {
      std::ostringstream msg;
      msg << "row declares send to "
          << (row.send_to == kNoEndpoint
                  ? std::string("nobody")
                  : "dev " + std::to_string(row.send_to))
          << " but the stage boundary implies "
          << (want_send == kNoEndpoint ? std::string("none")
                                       : "dev " + std::to_string(want_send));
      report("verify-causality", row_location(row), msg.str());
    }
    bool forward = false;
    if (!is_boundary_kind(row.kind, &forward)) continue;
    const int lane = forward ? 0 : 1;
    if (row.send_to != kNoEndpoint && row.send_to >= 0 &&
        row.send_to < spec.p) {
      const int dst_stage = forward ? row.stage + 1 : row.stage - 1;
      channels[{row.device, row.send_to, lane}].sends.push_back(
          {idx, pack_unit(row.microbatch, row.slice, row.stage, dst_stage)});
    }
    if (row.recv_from != kNoEndpoint && row.recv_from >= 0 &&
        row.recv_from < spec.p) {
      const int src_stage = forward ? row.stage - 1 : row.stage + 1;
      channels[{row.recv_from, row.device, lane}].recvs.push_back(
          {idx, pack_unit(row.microbatch, row.slice, src_stage, row.stage)});
    }
  }

  // Matched send -> recv pairs (kept-row indices) feed the wait-for graph.
  std::vector<std::pair<std::size_t, std::size_t>> matched;
  for (auto& [key, channel] : channels) {
    const int lane = std::get<2>(key);
    const char* payload = lane == 0 ? "activation" : "gradient";
    // Unit-keyed matching: dangling recvs and unconsumed sends first. Sends
    // of one unit key queue in a flat chain: pending[key] -> next_send[].
    std::unordered_map<std::int64_t, std::size_t> pending;
    pending.reserve(channel.sends.size());
    std::vector<std::size_t> next_send(channel.sends.size(), SIZE_MAX);
    for (std::size_t i = channel.sends.size(); i-- > 0;) {
      auto [it, fresh] = pending.try_emplace(channel.sends[i].key, i);
      if (!fresh) next_send[i] = std::exchange(it->second, i);
    }
    std::vector<bool> consumed(channel.sends.size(), false);
    std::vector<std::size_t> send_of_recv(channel.recvs.size(), SIZE_MAX);
    for (std::size_t i = 0; i < channel.recvs.size(); ++i) {
      const Comm& recv = channel.recvs[i];
      auto it = pending.find(recv.key);
      if (it == pending.end() || it->second == SIZE_MAX) {
        const Row& row = rows[recv.row];
        std::ostringstream msg;
        msg << "dangling recv: no matching " << payload << " send from dev "
            << std::get<0>(key) << " for unit "
            << unit_text(row.microbatch, row.slice) << " at stage "
            << row.stage;
        report("verify-causality", row_location(row), msg.str());
        continue;
      }
      const std::size_t send_idx = it->second;
      it->second = next_send[send_idx];
      consumed[send_idx] = true;
      send_of_recv[i] = send_idx;
      matched.push_back({channel.sends[send_idx].row, recv.row});
    }
    for (std::size_t i = 0; i < channel.sends.size(); ++i) {
      if (consumed[i]) continue;
      const Row& row = rows[channel.sends[i].row];
      std::ostringstream msg;
      msg << payload << " send to dev " << std::get<1>(key)
          << " is never received: no matching recv for unit "
          << unit_text(row.microbatch, row.slice);
      report("verify-causality", row_location(row), msg.str());
    }
    // FIFO: walking recvs in receiver order, the matched sends' posting
    // positions must be non-decreasing, or a rendezvous/ordered transport
    // would deliver the wrong payload first.
    std::size_t last = 0;
    bool have_last = false;
    for (std::size_t i = 0; i < channel.recvs.size(); ++i) {
      if (send_of_recv[i] == SIZE_MAX) continue;
      if (have_last && send_of_recv[i] < last) {
        const Row& row = rows[channel.recvs[i].row];
        const Row& send_row = rows[channel.sends[send_of_recv[i]].row];
        std::ostringstream msg;
        msg << "out-of-FIFO receive: this recv matches the " << payload
            << " send posted at " << row_location(send_row)
            << ", which precedes an already-consumed later send on the same "
            << "channel";
        report("verify-causality", row_location(row), msg.str());
      } else {
        last = send_of_recv[i];
        have_last = true;
      }
    }
  }

  // Per-(stage, microbatch, slice) unit table: the first row of each pass
  // kind plus occurrence counts, shared by the deadlock and progress rules.
  struct UnitRows {
    std::size_t forward = SIZE_MAX;  // F
    std::size_t retire = SIZE_MAX;   // B or BI: produces the input gradient
    std::size_t weight = SIZE_MAX;   // BW
    int forwards = 0, backwards = 0, inputs = 0, weights = 0;
  };
  const std::size_t per_stage =
      static_cast<std::size_t>(spec.m) * static_cast<std::size_t>(spec.n);
  auto unit_index = [&](int stage, std::int32_t mb, std::int32_t slice) {
    return static_cast<std::size_t>(stage) * per_stage +
           static_cast<std::size_t>(mb) * static_cast<std::size_t>(spec.n) +
           static_cast<std::size_t>(slice);
  };
  std::vector<UnitRows> units(static_cast<std::size_t>(num_stages) *
                              per_stage);
  for (std::size_t idx = 0; idx < rows.size(); ++idx) {
    const Row& row = rows[idx];
    if (row.stage < 0 || row.stage >= num_stages) continue;
    UnitRows& unit = units[unit_index(row.stage, row.microbatch, row.slice)];
    std::size_t* first = nullptr;
    switch (row.kind) {
      case PassType::Forward:
        ++unit.forwards;
        first = &unit.forward;
        break;
      case PassType::Backward:
        ++unit.backwards;
        first = &unit.retire;
        break;
      case PassType::BackwardInput:
        ++unit.inputs;
        first = &unit.retire;
        break;
      case PassType::BackwardWeight:
        ++unit.weights;
        first = &unit.weight;
        break;
    }
    if (*first == SIZE_MAX) *first = idx;
  }

  // ---- verify-deadlock: wait-for graph cycle detection ----
  // Edges: per-device program order, matched send -> recv pairs, and each
  // unit's data dependencies — F -> B|BI -> BW within a stage, F(s) ->
  // F(s+1) and retire(s+1) -> retire(s) across stages. The data edges hold
  // whether or not adjacent stages share a device, so a V-shape turn (two
  // stages on one device, no message between them) is covered too.
  {
    const std::size_t n = rows.size();
    auto wait_for_edges = [&](auto&& emit) {
      auto add_edge = [&](std::size_t from, std::size_t to) {
        if (from != SIZE_MAX && to != SIZE_MAX) emit(from, to);
      };
      for (const auto& positions : device_pos) {
        for (std::size_t i = 1; i < positions.size(); ++i) {
          add_edge(positions[i - 1], positions[i]);
        }
      }
      for (const auto& [send, recv] : matched) add_edge(send, recv);
      for (int stage = 0; stage < num_stages; ++stage) {
        for (std::int32_t mb = 0; mb < spec.m; ++mb) {
          for (std::int32_t slice = 0; slice < spec.n; ++slice) {
            const UnitRows& unit = units[unit_index(stage, mb, slice)];
            add_edge(unit.forward, unit.retire);
            add_edge(unit.retire, unit.weight);
            if (stage + 1 == num_stages) continue;
            const UnitRows& next = units[unit_index(stage + 1, mb, slice)];
            add_edge(unit.forward, next.forward);
            add_edge(next.retire, unit.retire);
          }
        }
      }
    };
    // Successors in one CSR table, each row in edge order.
    const Csr<std::size_t> succ = build_csr<std::size_t>(n, wait_for_edges);
    std::vector<std::int32_t> indeg(n, 0);
    for (const std::size_t to : succ.items) ++indeg[to];

    std::vector<std::size_t> ready;
    std::size_t done = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (indeg[i] == 0) ready.push_back(i);
    }
    while (!ready.empty()) {
      const std::size_t cur = ready.back();
      ready.pop_back();
      ++done;
      for (const std::size_t next : succ.row(cur)) {
        if (--indeg[next] == 0) ready.push_back(next);
      }
    }
    if (done < n) {
      // Minimal witness: shortest cycle through any of the first blocked
      // rows (BFS over the blocked subgraph).
      std::vector<std::size_t> blocked;
      for (std::size_t i = 0; i < n; ++i) {
        if (indeg[i] > 0) blocked.push_back(i);
      }
      std::vector<std::size_t> best;
      constexpr std::size_t kMaxStarts = 32;
      for (std::size_t s = 0; s < blocked.size() && s < kMaxStarts; ++s) {
        const std::size_t start = blocked[s];
        std::vector<std::size_t> parent(n, SIZE_MAX);
        std::vector<bool> seen(n, false);
        std::vector<std::size_t> queue;  // BFS order; `head` is the front
        seen[start] = true;
        queue.push_back(start);
        bool closed = false;
        for (std::size_t head = 0; head < queue.size() && !closed; ++head) {
          const std::size_t cur = queue[head];
          for (const std::size_t next : succ.row(cur)) {
            if (indeg[next] == 0) continue;  // not part of any cycle
            if (next == start) {
              // Reconstruct start -> ... -> cur, closing back to start.
              std::vector<std::size_t> cycle;
              for (std::size_t node = cur; node != SIZE_MAX;
                   node = parent[node]) {
                cycle.push_back(node);
              }
              std::reverse(cycle.begin(), cycle.end());
              if (best.empty() || cycle.size() < best.size()) best = cycle;
              closed = true;
              break;
            }
            if (!seen[next]) {
              seen[next] = true;
              parent[next] = cur;
              queue.push_back(next);
            }
          }
        }
        if (!best.empty() && best.size() <= 2) break;  // cannot get shorter
      }
      std::ostringstream msg;
      msg << (n - done) << " rows can never start; witness cycle";
      if (!best.empty()) {
        msg << " (length " << best.size() << "):";
        for (const std::size_t node : best) {
          msg << " " << row_location(rows[node]) << " ->";
        }
        msg << " back to " << row_location(rows[best.front()]);
      } else {
        msg << " not reconstructed";
      }
      const std::size_t anchor = best.empty() ? blocked.front() : best.front();
      report("verify-deadlock", row_location(rows[anchor]), msg.str());
    }
  }

  // ---- verify-progress: every unit completable at every stage ----
  for (int stage = 0; stage < num_stages; ++stage) {
    for (std::int32_t mb = 0; mb < spec.m; ++mb) {
      for (std::int32_t slice = 0; slice < spec.n; ++slice) {
        const UnitRows& unit = units[unit_index(stage, mb, slice)];
        const bool retired =
            (unit.backwards == 1 && unit.inputs == 0 && unit.weights == 0) ||
            (unit.backwards == 0 && unit.inputs == 1 && unit.weights == 1);
        if (unit.forwards == 1 && retired) continue;
        const std::string loc = "stage " + std::to_string(stage) + " (dev " +
                                std::to_string(layout.device_of(stage)) +
                                ") unit " + unit_text(mb, slice);
        std::ostringstream msg;
        if (unit.forwards == 0 &&
            unit.backwards + unit.inputs + unit.weights == 0) {
          msg << "unit is never scheduled at this stage: the microbatch "
              << "cannot complete";
        } else if (unit.forwards == 0) {
          msg << "orphaned backward: unit is retired (B=" << unit.backwards
              << " BI=" << unit.inputs << " BW=" << unit.weights
              << ") but never forwarded";
        } else if (unit.backwards + unit.inputs + unit.weights == 0) {
          msg << "orphaned forward: unit is forwarded but never retired "
              << "by a backward";
        } else {
          msg << "unit coverage is F=" << unit.forwards
              << " B=" << unit.backwards << " BI=" << unit.inputs
              << " BW=" << unit.weights
              << " (expected F=1 and B=1 or BI=1+BW=1)";
        }
        report("verify-progress", loc, msg.str());
      }
    }
  }

  // ---- verify-memory-cert: static ledger replay + certificate ----
  {
    // Per-microbatch slice boundaries: each row's footprint uses its own
    // slice's token count; the certificate unit is the mean per-slice token
    // count so "slice units" stay comparable across elastic layouts.
    const std::vector<core::SliceLayout> slice_layouts =
        spec.resolved_layouts();
    const double mean_slice_tokens =
        static_cast<double>(spec.total_tokens()) /
        (static_cast<double>(spec.m) * static_cast<double>(spec.n));
    const double nonkv_per_token = model::act_bytes_per_token_layer_no_kv(
        spec.cfg, spec.shard, spec.policy);
    const bool kv_stored =
        spec.retain_kv || spec.policy != model::CheckpointPolicy::Full;
    const double kv_per_token =
        kv_stored ? model::kv_bytes_per_token_layer(spec.cfg, spec.shard)
                  : 0.0;
    const int kv_category =
        spec.retain_kv ? mem::kKvCache : mem::kActivation;
    const double wkeep =
        model::wgrad_kept_fraction(spec.cfg, spec.policy);

    MemoryCertificate& cert = result.certificate;
    cert.kv_category = kv_category;
    cert.stages.resize(static_cast<std::size_t>(num_stages));
    std::vector<double> stage_act(static_cast<std::size_t>(num_stages), 0.0);
    std::vector<double> stage_kv(static_cast<std::size_t>(num_stages), 0.0);
    std::vector<double> stage_magnitude(static_cast<std::size_t>(num_stages),
                                        0.0);
    cert.device_activation_peak.assign(static_cast<std::size_t>(spec.p), 0.0);
    cert.device_kv_peak.assign(static_cast<std::size_t>(spec.p), 0.0);
    cert.device_peak.assign(static_cast<std::size_t>(spec.p), 0.0);
    for (int stage = 0; stage < num_stages; ++stage) {
      const double tokens =
          mean_slice_tokens * static_cast<double>(spec.layers_of_stage(stage));
      StageCertificate& sc = cert.stages[static_cast<std::size_t>(stage)];
      sc.stage = stage;
      sc.device = layout.device_of(stage);
      sc.unit_bytes = (nonkv_per_token + kv_per_token) * tokens;
    }

    // The activation/KV deltas all come from a device's own passes, so a
    // per-device program-order replay reproduces the simulator's replayed
    // category peaks exactly (offload and logits excluded by design). The
    // same walk keeps a slice-unit ledger (F +1, B -1, BI -(1-wkeep),
    // BW -wkeep) checked against the table's declared in-flight cap.
    std::vector<bool> dipped(static_cast<std::size_t>(num_stages), false);
    for (int dev = 0; dev < spec.p; ++dev) {
      double dev_act = 0.0, dev_kv = 0.0, live_units = 0.0;
      bool over_cap = false;
      for (const std::size_t idx : device_pos[static_cast<std::size_t>(dev)]) {
        const Row& row = rows[idx];
        if (row.stage < 0 || row.stage >= num_stages) continue;
        const std::size_t stage = static_cast<std::size_t>(row.stage);
        const double tokens = static_cast<double>(
            slice_layouts[static_cast<std::size_t>(row.microbatch)].len(
                row.slice) *
            spec.layers_of_stage(row.stage));
        const double act = nonkv_per_token * tokens;
        const double kv = kv_per_token * tokens;
        double d_act = 0.0, d_kv = 0.0;  // kActivation / kKvCache ledgers
        const double kv_as_act = kv_category == mem::kActivation ? kv : 0.0;
        const double kv_as_kv = kv_category == mem::kKvCache ? kv : 0.0;
        switch (row.kind) {
          case PassType::Forward:
            d_act = act + kv_as_act;
            d_kv = kv_as_kv;
            live_units += 1.0;
            break;
          case PassType::Backward:
            d_act = -(act + kv_as_act);
            d_kv = -kv_as_kv;
            live_units -= 1.0;
            break;
          case PassType::BackwardInput:
            d_act = -(act * (1.0 - wkeep) + kv_as_act);
            d_kv = -kv_as_kv;
            live_units -= 1.0 - wkeep;
            break;
          case PassType::BackwardWeight:
            d_act = -act * wkeep;
            live_units -= wkeep;
            break;
        }
        if (table.max_inflight_units > 0.0 && !over_cap &&
            live_units > table.max_inflight_units + kInflightTolerance) {
          over_cap = true;  // one report per device, not per pass
          std::ostringstream msg;
          msg << "live activation units reach " << live_units
              << ", above the declared in-flight cap of "
              << table.max_inflight_units;
          report("verify-memory-cert", row_location(row), msg.str());
        }
        stage_act[stage] += d_act;
        stage_kv[stage] += d_kv;
        stage_magnitude[stage] += std::abs(d_act) + std::abs(d_kv);
        dev_act += d_act;
        dev_kv += d_kv;
        StageCertificate& sc = cert.stages[stage];
        sc.peak_bytes =
            std::max(sc.peak_bytes, stage_act[stage] + stage_kv[stage]);
        auto& act_peak =
            cert.device_activation_peak[static_cast<std::size_t>(dev)];
        auto& kv_peak = cert.device_kv_peak[static_cast<std::size_t>(dev)];
        auto& total_peak = cert.device_peak[static_cast<std::size_t>(dev)];
        act_peak = std::max(act_peak, dev_act);
        kv_peak = std::max(kv_peak, dev_kv);
        total_peak = std::max(total_peak, dev_act + dev_kv);

        const double tolerance =
            1e-6 + 1e-9 * stage_magnitude[stage];
        if (!dipped[stage] &&
            stage_act[stage] + stage_kv[stage] < -tolerance) {
          dipped[stage] = true;
          std::ostringstream msg;
          msg << "stage " << row.stage << " ledger dips to "
              << stage_act[stage] + stage_kv[stage]
              << " bytes: this pass frees activation/KV that was never "
              << "allocated";
          report("verify-memory-cert", row_location(row), msg.str());
        }
      }
    }

    if (options.activation_budget_bytes > 0.0) {
      for (int dev = 0; dev < spec.p; ++dev) {
        const double peak =
            cert.device_peak[static_cast<std::size_t>(dev)];
        if (peak <= options.activation_budget_bytes) continue;
        std::ostringstream msg;
        msg << "certified activation+KV peak of " << peak
            << " bytes exceeds the budget of "
            << options.activation_budget_bytes << " bytes";
        report("verify-memory-cert", "dev " + std::to_string(dev), msg.str());
      }
    }
  }

  return result;
}

}  // namespace slim::analysis
