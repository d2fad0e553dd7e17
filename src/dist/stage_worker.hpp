#pragma once

// One pipeline stage running inside a forked worker process.
//
// The worker inherits the PipelineModel (its parameter snapshot) and the
// iteration inputs through fork-time memory; everything it produces —
// heartbeats, retired-microbatch gradient commits, fault events, metrics,
// trace records — leaves only through its sockets. The worker is strictly
// single-threaded (fork from a threaded parent means no inherited locks
// may be touched, and TSan instruments nothing it can't see), sends
// heartbeats from its main loop, runs its kernels serially, and exits via
// _exit so inherited atexit handlers and stdio buffers never run twice.
//
// The stage discipline is the threaded runtime's, verbatim: forwards in
// slice-stream order appending KV chunks, the SlimPipe live-slice window
// (Eq. 1) deferring younger microbatches' forwards, LIFO backward
// continuations queued ahead of incoming work on the last stage, and a
// Commit frame at microbatch retirement. Per-microbatch staged gradients
// are deterministic regardless of how traffic from the two neighbors
// interleaves (each microbatch owns its accumulators and its slice order
// is fixed by the schedule), which is what makes the recovered gradients
// bit-identical to run_reference.

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/core/slice_layout.hpp"
#include "src/runtime/pipeline_model.hpp"

namespace slim::dist {

/// Worker-local lifecycle state, published in heartbeats (WireStatus.state)
/// and rendered in the supervisor's postmortem table.
enum class WorkerState : int {
  Running = 0,
  Waiting,  // blocked polling the neighbor sockets
  Done,
  Starved,  // worker-side starvation watchdog fired
  Hung,     // injected hang: parked, heartbeats stopped
};

const char* worker_state_name(WorkerState state);

/// Fault-plan rules resolved for one stage, mapped onto the real transport:
/// crashes are raise(SIGKILL), hangs park the process (heartbeats stop),
/// delays and drops act on actual socket writes.
struct WorkerFaults {
  std::int64_t crash_after = -1;  // messages; then raise(SIGKILL)
  std::int64_t hang_after = -1;   // messages; then park silently
  std::int64_t delay_every = 0;   // receive-side straggler sleep
  double delay_seconds = 0.0;
  double link_extra_latency = 0.0;  // per data-frame send (LinkFault)
  struct Drop {
    std::int64_t every = 1;
    int count = 1;
    int max_retries = 3;
  };
  std::vector<Drop> drops;
  struct Delay {
    std::int64_t every = 1;
    double seconds = 0.0;
  };
  std::vector<Delay> socket_delays;
};

struct WorkerConfig {
  const rt::PipelineModel* model = nullptr;
  int stage = 0;
  int n_slices = 1;
  /// Per-microbatch slice boundaries, one layout per *iteration* microbatch
  /// (indexed by global microbatch id, not attempt rank), each with
  /// n_slices slices covering that microbatch's token count. Inherited
  /// through fork-time memory like the model — never serialized.
  std::vector<core::SliceLayout> layouts;
  /// Supervisor respawn attempt index; folded into cross-process flow-arrow
  /// ids (wire_flow_id) so replayed sends never collide with originals.
  int attempt = 0;
  /// Microbatches of this attempt (ascending); slice_weight still uses the
  /// full iteration's microbatch count, so replayed contributions match
  /// the fault-free ones bit for bit.
  std::vector<int> mbs;
  const std::vector<std::vector<std::int64_t>>* tokens = nullptr;
  const std::vector<std::vector<std::int64_t>>* targets = nullptr;
  int prev_fd = -1;     // upstream data socket (-1 on stage 0)
  int next_fd = -1;     // downstream data socket (-1 on the last stage)
  int control_fd = -1;  // heartbeats/commits/events/done to the supervisor
  std::chrono::milliseconds heartbeat_interval{25};
  std::chrono::milliseconds starvation_timeout{30000};
  bool measure_memory = true;
  bool trace = false;  // collect spans/instants/flows into the Done frame
  /// Flight recorder (obs/flight_recorder.hpp): always-on breadcrumb ring,
  /// flushed to the supervisor as Telemetry frames on the heartbeat cadence
  /// and before every Commit. Off only for overhead measurement.
  bool flight = true;
  int flight_capacity = 256;
  WorkerFaults faults;
  /// Crash-torture hook (KillSpec MidCommit/PostCommit): raise(SIGKILL)
  /// right after sending this many Commit frames; 0 = off.
  int kill_after_commit = 0;
};

/// Runs the stage to completion. Returns the process exit code: 0 on
/// success (Done frame sent), 2 on a structured failure (Error frame
/// sent). Never throws and never returns via exceptions — the caller
/// passes the result straight to _exit.
int run_stage_worker(const WorkerConfig& config);

}  // namespace slim::dist
