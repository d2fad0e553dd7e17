#include "src/ir/schedule_ir.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "src/util/logging.hpp"

namespace slim::ir {

namespace {

using sched::PassType;
using sched::StageLayout;
using sched::StageLayoutKind;

PassType parse_kind(const std::string& token, int line) {
  if (token == "F") return PassType::Forward;
  if (token == "B") return PassType::Backward;
  if (token == "BI") return PassType::BackwardInput;
  if (token == "BW") return PassType::BackwardWeight;
  throw std::runtime_error("schedule IR line " + std::to_string(line) +
                           ": unknown row kind '" + token + "'");
}

StageLayoutKind parse_layout(const std::string& token, int line) {
  if (token == "sequential") return StageLayoutKind::Sequential;
  if (token == "interleaved") return StageLayoutKind::Interleaved;
  if (token == "vshape") return StageLayoutKind::VShape;
  throw std::runtime_error("schedule IR line " + std::to_string(line) +
                           ": unknown layout '" + token + "'");
}

model::CheckpointPolicy parse_policy(const std::string& token, int line) {
  if (token == "none") return model::CheckpointPolicy::None;
  if (token == "selective") return model::CheckpointPolicy::Selective;
  if (token == "full") return model::CheckpointPolicy::Full;
  throw std::runtime_error("schedule IR line " + std::to_string(line) +
                           ": unknown checkpoint policy '" + token + "'");
}

const char* policy_name(model::CheckpointPolicy policy) {
  switch (policy) {
    case model::CheckpointPolicy::None: return "none";
    case model::CheckpointPolicy::Selective: return "selective";
    case model::CheckpointPolicy::Full: return "full";
  }
  return "?";
}

model::CpMode parse_cp_mode(const std::string& token, int line) {
  if (token == "ringkv") return model::CpMode::RingKv;
  if (token == "commutated") return model::CpMode::Commutated;
  throw std::runtime_error("schedule IR line " + std::to_string(line) +
                           ": unknown cp-mode '" + token + "'");
}

const char* cp_mode_name(model::CpMode mode) {
  switch (mode) {
    case model::CpMode::RingKv: return "ringkv";
    case model::CpMode::Commutated: return "commutated";
  }
  return "?";
}

/// Endpoint column: a device index, or "." for none.
std::string endpoint_text(int endpoint) {
  return endpoint == kNoEndpoint ? "." : std::to_string(endpoint);
}

int parse_endpoint(const std::string& token, int line) {
  if (token == ".") return kNoEndpoint;
  try {
    std::size_t used = 0;
    const int value = std::stoi(token, &used);
    if (used == token.size()) return value;
  } catch (...) {  // fall through to the shared error below
  }
  throw std::runtime_error("schedule IR line " + std::to_string(line) +
                           ": bad endpoint '" + token + "'");
}

int parse_int(const std::string& token, int line, const char* what) {
  try {
    std::size_t used = 0;
    const int value = std::stoi(token, &used);
    if (used == token.size()) return value;
  } catch (...) {
  }
  throw std::runtime_error("schedule IR line " + std::to_string(line) +
                           ": bad " + what + " '" + token + "'");
}

double parse_double(const std::string& token, int line, const char* what) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used == token.size()) return value;
  } catch (...) {
  }
  throw std::runtime_error("schedule IR line " + std::to_string(line) +
                           ": bad " + what + " '" + token + "'");
}

/// Canonical text for the in-flight cap: integral caps print without a
/// fractional part, fractional ones (e.g. V-Min's 2p/3 + 2) with enough
/// digits to re-parse to the exact same double — either way the round-trip
/// stays byte-identical.
std::string inflight_text(double units) {
  if (units == static_cast<double>(static_cast<long long>(units))) {
    return std::to_string(static_cast<long long>(units));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", units);
  return buf;
}

}  // namespace

const char* kind_name(PassType kind) {
  switch (kind) {
    case PassType::Forward: return "F";
    case PassType::Backward: return "B";
    case PassType::BackwardInput: return "BI";
    case PassType::BackwardWeight: return "BW";
  }
  return "?";
}

const char* layout_name(StageLayoutKind kind) {
  switch (kind) {
    case StageLayoutKind::Sequential: return "sequential";
    case StageLayoutKind::Interleaved: return "interleaved";
    case StageLayoutKind::VShape: return "vshape";
  }
  return "?";
}

void ScheduleIR::canonicalize() {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) {
                     return a.device != b.device ? a.device < b.device
                                                 : a.order < b.order;
                   });
}

std::pair<int, int> endpoints(const StageLayout& layout, PassType kind,
                              int device, int stage) {
  if (kind == PassType::BackwardWeight) return {kNoEndpoint, kNoEndpoint};
  auto peer = [&](int neighbour) {
    if (neighbour < 0 || neighbour >= layout.num_stages()) return kNoEndpoint;
    const int dev = layout.device_of(neighbour);
    return dev == device ? kNoEndpoint : dev;
  };
  const int step = kind == PassType::Forward ? 1 : -1;
  return {peer(stage - step), peer(stage + step)};
}

ScheduleIR lower(const sched::PipelineSpec& spec,
                 const std::vector<sched::DeviceProgram>& programs,
                 const std::string& scheme_name) {
  SLIM_CHECK(static_cast<int>(programs.size()) == spec.p,
             "lower: one program per pipeline device required");
  ScheduleIR ir;
  ir.scheme = scheme_name;
  ir.p = spec.p;
  ir.v = spec.v;
  ir.n = spec.n;
  ir.m = spec.m;
  ir.layout = spec.layout;
  ir.retain_kv = spec.retain_kv;
  ir.vocab_parallel = spec.vocab_parallel;
  ir.context_exchange = spec.context_exchange;
  ir.policy = spec.policy;
  ir.cp_mode = spec.cp_mode;
  ir.max_inflight_units = spec.max_inflight_units;

  const StageLayout layout = spec.stage_layout();
  std::size_t num_rows = 0;
  for (const sched::DeviceProgram& program : programs) {
    num_rows += program.size();
  }
  ir.rows.reserve(num_rows);
  // Devices in turn, each in program order: the rows come out canonical.
  for (int dev = 0; dev < spec.p; ++dev) {
    const sched::DeviceProgram& program =
        programs[static_cast<std::size_t>(dev)];
    for (std::size_t pos = 0; pos < program.size(); ++pos) {
      const sched::Pass& pass = program[pos];
      // Out-of-range chunks cannot be mapped to a stage; keep the row (the
      // verifier will flag it) with the chunk clamped for stage lookup.
      const int stage = layout.stage_of(
          dev, std::clamp(static_cast<int>(pass.chunk), 0, spec.v - 1));
      const auto [recv_from, send_to] =
          endpoints(layout, pass.type, dev, stage);
      ir.rows.push_back({.device = dev,
                         .order = static_cast<int>(pos),
                         .kind = pass.type,
                         .microbatch = pass.microbatch,
                         .slice = pass.slice,
                         .chunk = pass.chunk,
                         .stage = stage,
                         .recv_from = recv_from,
                         .send_to = send_to});
    }
  }
  return ir;
}

std::vector<sched::DeviceProgram> to_programs(const ScheduleIR& ir) {
  std::vector<sched::DeviceProgram> programs(
      static_cast<std::size_t>(std::max(1, ir.p)));
  ScheduleIR sorted = ir;
  sorted.canonicalize();
  for (const Row& row : sorted.rows) {
    if (row.device < 0 || row.device >= ir.p) {
      throw std::runtime_error("schedule IR row names device " +
                               std::to_string(row.device) +
                               " outside [0, p=" + std::to_string(ir.p) + ")");
    }
    programs[static_cast<std::size_t>(row.device)].push_back(
        {row.kind, row.microbatch, row.slice, row.chunk});
  }
  return programs;
}

sched::PipelineSpec apply_header(const ScheduleIR& ir,
                                 sched::PipelineSpec base) {
  base.p = ir.p;
  base.v = ir.v;
  base.n = ir.n;
  base.m = ir.m;
  base.layout = ir.layout;
  base.retain_kv = ir.retain_kv;
  base.vocab_parallel = ir.vocab_parallel;
  base.context_exchange = ir.context_exchange;
  base.policy = ir.policy;
  base.cp_mode = ir.cp_mode;
  base.max_inflight_units = ir.max_inflight_units;
  // Slice layouts are a workload knob (kept outside the IR); drop any that
  // no longer match the overlaid schedule shape rather than keep a stale,
  // inconsistent set.
  if (!base.layouts.empty()) {
    bool consistent = static_cast<int>(base.layouts.size()) == base.m;
    for (const auto& layout : base.layouts) {
      consistent = consistent && layout.slices() == base.n;
    }
    if (!consistent) base.layouts.clear();
  }
  return base;
}

std::string export_text(const ScheduleIR& ir) {
  ScheduleIR sorted = ir;
  sorted.canonicalize();
  std::ostringstream out;
  out << "slimpipe-ir 1\n";
  out << "scheme " << sorted.scheme << "\n";
  out << "p " << sorted.p << "\n";
  out << "v " << sorted.v << "\n";
  out << "n " << sorted.n << "\n";
  out << "m " << sorted.m << "\n";
  out << "layout " << layout_name(sorted.layout) << "\n";
  out << "retain-kv " << (sorted.retain_kv ? 1 : 0) << "\n";
  out << "vocab-parallel " << (sorted.vocab_parallel ? 1 : 0) << "\n";
  out << "context-exchange " << (sorted.context_exchange ? 1 : 0) << "\n";
  out << "policy " << policy_name(sorted.policy) << "\n";
  out << "cp-mode " << cp_mode_name(sorted.cp_mode) << "\n";
  out << "max-inflight " << inflight_text(sorted.max_inflight_units) << "\n";
  out << "columns device order kind mb slice chunk stage recv send\n";
  for (const Row& row : sorted.rows) {
    out << "row " << row.device << " " << row.order << " "
        << kind_name(row.kind) << " " << row.microbatch << " " << row.slice
        << " " << row.chunk << " " << row.stage << " "
        << endpoint_text(row.recv_from) << " " << endpoint_text(row.send_to)
        << "\n";
  }
  out << "end\n";
  return out.str();
}

ScheduleIR import_text(const std::string& text) {
  ScheduleIR ir;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool saw_magic = false, saw_end = false;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip a trailing CR so CRLF files parse.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    auto rest = [&]() {
      std::string value;
      std::getline(ls, value);
      const std::size_t start = value.find_first_not_of(' ');
      return start == std::string::npos ? std::string() : value.substr(start);
    };
    auto token = [&](const char* what) {
      std::string value;
      if (!(ls >> value)) {
        throw std::runtime_error("schedule IR line " + std::to_string(lineno) +
                                 ": missing " + what);
      }
      return value;
    };
    if (!saw_magic) {
      if (key != "slimpipe-ir" || token("version") != "1") {
        throw std::runtime_error(
            "schedule IR line " + std::to_string(lineno) +
            ": expected header 'slimpipe-ir 1'");
      }
      saw_magic = true;
      continue;
    }
    if (saw_end) {
      throw std::runtime_error("schedule IR line " + std::to_string(lineno) +
                               ": content after 'end'");
    }
    if (key == "scheme") {
      ir.scheme = rest();
    } else if (key == "p") {
      ir.p = parse_int(token("p"), lineno, "p");
    } else if (key == "v") {
      ir.v = parse_int(token("v"), lineno, "v");
    } else if (key == "n") {
      ir.n = parse_int(token("n"), lineno, "n");
    } else if (key == "m") {
      ir.m = parse_int(token("m"), lineno, "m");
    } else if (key == "layout") {
      ir.layout = parse_layout(token("layout"), lineno);
    } else if (key == "retain-kv") {
      ir.retain_kv = parse_int(token("retain-kv"), lineno, "retain-kv") != 0;
    } else if (key == "vocab-parallel") {
      ir.vocab_parallel =
          parse_int(token("vocab-parallel"), lineno, "vocab-parallel") != 0;
    } else if (key == "context-exchange") {
      ir.context_exchange =
          parse_int(token("context-exchange"), lineno, "context-exchange") != 0;
    } else if (key == "policy") {
      ir.policy = parse_policy(token("policy"), lineno);
    } else if (key == "cp-mode") {
      ir.cp_mode = parse_cp_mode(token("cp-mode"), lineno);
    } else if (key == "max-inflight") {
      ir.max_inflight_units =
          parse_double(token("max-inflight"), lineno, "max-inflight");
    } else if (key == "columns") {
      const std::string expected = "device order kind mb slice chunk stage recv send";
      if (rest() != expected) {
        throw std::runtime_error("schedule IR line " + std::to_string(lineno) +
                                 ": unsupported column set (expected '" +
                                 expected + "')");
      }
    } else if (key == "row") {
      Row row;
      row.device = parse_int(token("device"), lineno, "device");
      row.order = parse_int(token("order"), lineno, "order");
      row.kind = parse_kind(token("kind"), lineno);
      row.microbatch = parse_int(token("mb"), lineno, "mb");
      row.slice = parse_int(token("slice"), lineno, "slice");
      row.chunk = parse_int(token("chunk"), lineno, "chunk");
      row.stage = parse_int(token("stage"), lineno, "stage");
      row.recv_from = parse_endpoint(token("recv"), lineno);
      row.send_to = parse_endpoint(token("send"), lineno);
      std::string extra;
      if (ls >> extra) {
        throw std::runtime_error("schedule IR line " + std::to_string(lineno) +
                                 ": trailing token '" + extra + "'");
      }
      ir.rows.push_back(row);
    } else if (key == "end") {
      saw_end = true;
    } else {
      throw std::runtime_error("schedule IR line " + std::to_string(lineno) +
                               ": unknown directive '" + key + "'");
    }
  }
  if (!saw_magic) {
    throw std::runtime_error("schedule IR: missing 'slimpipe-ir 1' header");
  }
  if (!saw_end) {
    throw std::runtime_error("schedule IR: missing 'end' terminator");
  }
  if (ir.p < 1) {
    throw std::runtime_error("schedule IR: p must be >= 1");
  }
  ir.canonicalize();
  return ir;
}

}  // namespace slim::ir
