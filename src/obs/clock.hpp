#pragma once

// Monotonic run clock + cross-process clock alignment.
//
// Every event timestamp in the observability layer — recorder spans, flight
// recorder events, wire telemetry, live snapshots — is seconds on the
// MONOTONIC clock (std::chrono::steady_clock, aliased MonoClock below) with
// ONE epoch per run: the supervisor/parent Recorder's construction time.
// system_clock never appears in event timestamps; it is neither monotonic
// (NTP steps it) nor comparable across processes with sub-millisecond
// confidence.
//
// A forked stage worker cannot share the parent's epoch object, so it runs
// its own MonoClock epoch (its start time) and every timestamp it emits is
// worker-relative. The supervisor maps worker time onto the run epoch with a
// per-worker ClockAligner fed by heartbeat-channel ping/pong round-trips —
// the classic NTP 4-timestamp exchange:
//
//   t1  supervisor sends Ping            (run clock)
//   t2  worker receives it               (worker clock)
//   t3  worker sends Pong                (worker clock)
//   t4  supervisor receives the Pong     (run clock)
//
//   theta = ((t2 - t1) + (t3 - t4)) / 2      worker_clock - run_clock
//   rtt   = (t4 - t1) - (t3 - t2)            round-trip minus remote hold
//
// theta's error is bounded by rtt/2 (exact under symmetric one-way delays),
// so the aligner keeps the minimum-rtt sample of a sliding window: tighter
// round-trips give tighter offsets, and the window lets the estimate track
// slow drift. run_time = worker_time - theta, applied as one per-worker
// shift (remote_epoch) that never precedes the worker's fork.

#include <chrono>
#include <cstddef>
#include <deque>

namespace slim::obs {

/// The one event-timestamp clock. Do not time events with system_clock.
using MonoClock = std::chrono::steady_clock;

/// One ping/pong round trip. t1/t4 are on the local (run) clock, t2/t3 on
/// the remote (worker) clock; all in seconds.
struct ClockSample {
  double t1 = 0.0;
  double t2 = 0.0;
  double t3 = 0.0;
  double t4 = 0.0;

  double theta() const { return ((t2 - t1) + (t3 - t4)) / 2.0; }
  double rtt() const { return (t4 - t1) - (t3 - t2); }
};

/// Minimum-rtt offset estimator over a sliding sample window.
class ClockAligner {
 public:
  explicit ClockAligner(std::size_t window = 16);

  /// Folds in one round trip. Samples with a negative round trip (clock
  /// misuse, not physics) are rejected.
  void add(const ClockSample& sample);

  /// True once at least one sample was accepted.
  bool aligned() const { return !window_.empty(); }

  /// Current estimate of remote_clock - local_clock (0 until aligned).
  double offset() const;

  /// Error bound of offset(): rtt/2 of the winning sample (0 until aligned).
  double uncertainty() const;

  /// Round-trip time of the winning sample (0 until aligned).
  double best_rtt() const;

  /// Total samples accepted (not capped by the window).
  std::size_t samples() const { return accepted_; }

  /// Maps a remote timestamp onto the local clock.
  double to_local(double remote_ts) const { return remote_ts - offset(); }

  /// Local time of the remote clock's zero, for a remote clock known to
  /// start no earlier than `start_bound` (local clock): the aligned
  /// estimate, raised to the bound when its rtt/2 error puts it before;
  /// the bound itself until aligned. Shifting a whole remote timeline by
  /// this one value keeps every remote duration exact — clamping each
  /// timestamp on its own would shorten spans that straddle the bound.
  double remote_epoch(double start_bound) const;

 private:
  struct Entry {
    double theta = 0.0;
    double rtt = 0.0;
  };
  std::size_t capacity_;
  std::deque<Entry> window_;
  std::size_t accepted_ = 0;
};

}  // namespace slim::obs
