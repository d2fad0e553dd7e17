#include "src/dist/stage_worker.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/dist/wire.hpp"
#include "src/numerics/cross_entropy.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/obs/clock.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/trace.hpp"
#include "src/util/logging.hpp"

namespace slim::dist {

const char* worker_state_name(WorkerState state) {
  switch (state) {
    case WorkerState::Running: return "running";
    case WorkerState::Waiting: return "waiting";
    case WorkerState::Done: return "done";
    case WorkerState::Starved: return "starved";
    case WorkerState::Hung: return "hung";
  }
  return "?";
}

namespace {

/// Structured worker failure: turned into an Error frame, never into an
/// uncaught exception (the process must reach _exit, not std::terminate).
struct WorkerError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Everything mutable the stage loop tracks, grouped so the Error/Done
/// serialization sees one coherent snapshot.
struct WorkerContext {
  const WorkerConfig* cfg = nullptr;
  obs::MonoClock::time_point start;  // the worker's clock epoch
  WireStatus status;
  double busy_seconds = 0.0;
  double comm_seconds = 0.0;
  double blocked_recv_seconds = 0.0;
  std::int64_t p2p_messages = 0;
  double p2p_bytes = 0.0;
  int peak_queue = 0;
  int peak_live = 0;
  std::vector<fault::FaultEvent> events;
  std::vector<WireSpan> spans;
  std::vector<WireInstant> instants;
  std::vector<WireFlow> flows;
  obs::FlightRecorder flight;
  bool prev_dead = false;
  bool next_dead = false;
  bool control_dead = false;
  obs::MonoClock::time_point last_beat;
  std::int64_t data_sends = 0;  // SocketDrop / SocketDelay rule counter
  std::vector<int> drops_fired;  // per SocketDrop rule

  double now() const {
    return std::chrono::duration<double>(obs::MonoClock::now() - start)
        .count();
  }

  void instant(const std::string& name, const std::string& category,
               const std::string& detail = "") {
    if (cfg->trace) instants.push_back({now(), name, category, detail});
  }

  void span(double span_start, const std::string& name,
            const std::string& category, int mb = -1, int slice = -1,
            int stage = -1) {
    if (cfg->trace) {
      spans.push_back({span_start, now(), name, category, mb, slice, stage});
    }
  }

  /// Ships a frame to the supervisor. A dead control socket means the
  /// supervisor is gone; the worker keeps running (it will be reaped) but
  /// stops talking.
  void send_control(const Frame& frame) {
    if (control_dead) return;
    if (!send_frame(cfg->control_fd, frame)) control_dead = true;
  }

  /// Appends one flight-recorder breadcrumb (no-op with flight disabled).
  void record(obs::FlightKind kind, std::int32_t mb, std::int32_t slice,
              std::int64_t value, std::string_view label) {
    if (cfg->flight) flight.record(kind, now(), mb, slice, value, label);
  }

  /// Ships the unflushed flight-recorder suffix as one Telemetry frame.
  /// Called on the heartbeat cadence and right before every Commit frame,
  /// so by the time the supervisor sees a commit it already holds the
  /// breadcrumbs leading up to it (same FIFO socket).
  void flush_flight() {
    if (!cfg->flight || control_dead) return;
    obs::FlightRecorder::Flush flush = flight.flush();
    if (flush.events.empty() && flush.dropped == 0) return;
    Frame frame;
    frame.kind = FrameKind::Telemetry;
    frame.stage = cfg->stage;
    Writer w;
    write_flight_flush(w, {flush.dropped, std::move(flush.events)});
    frame.payload = w.take();
    send_control(frame);
  }

  /// Answers any supervisor->worker control traffic waiting on the socket.
  /// Today that is only clock-alignment Pings: reply immediately so the
  /// round trip stays tight (theta's error bound is rtt/2).
  void drain_control() {
    if (control_dead || cfg->control_fd < 0) return;
    while (poll_readable(cfg->control_fd, 0)) {
      Frame frame;
      const IoStatus io = recv_frame(cfg->control_fd, &frame);
      if (io == IoStatus::Eof) {
        control_dead = true;
        return;
      }
      if (io != IoStatus::Ok || frame.kind != FrameKind::Ping) continue;
      Reader reader(frame.payload);
      const double t1 = reader.f64();
      const double t2 = now();
      Frame pong;
      pong.kind = FrameKind::Pong;
      pong.stage = cfg->stage;
      Writer w;
      w.f64(t1);
      w.f64(t2);
      w.f64(now());  // t3
      pong.payload = w.take();
      send_control(pong);
    }
  }

  void heartbeat_now() {
    status.flight_recorded = static_cast<std::int64_t>(flight.recorded());
    Frame beat;
    beat.kind = FrameKind::Heartbeat;
    beat.stage = cfg->stage;
    Writer w;
    write_status(w, status);
    beat.payload = w.take();
    send_control(beat);
    flush_flight();
    last_beat = obs::MonoClock::now();
  }

  void maybe_heartbeat() {
    drain_control();
    if (obs::MonoClock::now() - last_beat >= cfg->heartbeat_interval) {
      heartbeat_now();
    }
  }
};

/// A queued message. `counted` marks messages that already passed the
/// arrival hooks (fault triggers, message counter) — a deferred forward
/// re-admitted later must not count twice, matching the threaded runtime
/// where counting happens at channel receive.
struct Item {
  Frame frame;
  bool counted = false;
};

void park_forever(WorkerContext& ctx) {
  // Injected hang: the stage silently stops making progress. Heartbeats
  // stop with it — that is exactly the signal the supervisor's
  // missed-heartbeat deadline exists to catch. Parked until SIGKILLed.
  // The breadcrumb escapes in a last flush so the postmortem tail ends at
  // the hang, not just before it.
  ctx.status.state = static_cast<int>(WorkerState::Hung);
  ctx.record(obs::FlightKind::Fault, -1, -1, ctx.status.messages, "hang");
  ctx.flush_flight();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// Applies SocketDrop / SocketDelay / LinkFault rules to one data-frame
/// send, then writes it. Returns false when the peer is gone.
bool send_data(WorkerContext& ctx, int fd, const Frame& frame) {
  const WorkerFaults& faults = ctx.cfg->faults;
  WireChannelStats& link =
      fd == ctx.cfg->next_fd ? ctx.status.next : ctx.status.prev;
  ++ctx.data_sends;
  const double send_start = ctx.now();

  // Drop with bounded retry: the affected transmit attempts are lost on
  // the wire; the sender backs off briefly and retransmits. A drop burst
  // longer than the retry budget is a structured send failure.
  for (std::size_t r = 0; r < faults.drops.size(); ++r) {
    const WorkerFaults::Drop& rule = faults.drops[r];
    if (rule.every < 1 || ctx.data_sends % rule.every != 0) continue;
    if (ctx.drops_fired[r] >= rule.count) continue;
    const int burst = std::min(rule.count - ctx.drops_fired[r],
                               rule.max_retries + 1);
    const bool exhausted = rule.count - ctx.drops_fired[r] > rule.max_retries;
    ctx.drops_fired[r] += burst;
    const std::string detail =
        "data frame " + std::to_string(ctx.data_sends) + " dropped " +
        std::to_string(burst) + "x" +
        (exhausted ? ", retry budget (" + std::to_string(rule.max_retries) +
                         ") exhausted"
                   : ", delivered on retry " + std::to_string(burst));
    ctx.events.push_back({fault::FaultEvent::Kind::SocketDrop, ctx.cfg->stage,
                          ctx.now(), ctx.data_sends, detail});
    ctx.instant("socket drop", obs::kCatFault, detail);
    link.retries += burst;
    ctx.record(obs::FlightKind::Fault, frame.mb, frame.slice, burst, "drop");
    if (exhausted) {
      throw WorkerError("stage " + std::to_string(ctx.cfg->stage) + ": " +
                        detail);
    }
    for (int attempt = 0; attempt < burst; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Injected latency: the sender genuinely sleeps before the write, so the
  // delay is measurable in the receiver's wall clock and the trace.
  double delay = 0.0;
  for (const WorkerFaults::Delay& rule : faults.socket_delays) {
    if (rule.every >= 1 && ctx.data_sends % rule.every == 0) {
      delay += rule.seconds;
    }
  }
  delay += faults.link_extra_latency;
  if (delay > 0.0) {
    if (ctx.status.injected_delay_seconds == 0.0) {
      const std::string detail = "socket sends delayed (injected latency)";
      ctx.events.push_back({fault::FaultEvent::Kind::SocketDelay,
                            ctx.cfg->stage, ctx.now(), ctx.data_sends,
                            detail});
      ctx.instant("socket delay", obs::kCatFault, detail);
    }
    ctx.status.injected_delay_seconds += delay;
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }

  ++ctx.p2p_messages;
  ctx.p2p_bytes += static_cast<double>(frame.payload.size());
  const bool backward = frame.kind == FrameKind::Backward;
  ctx.record(obs::FlightKind::Send, frame.mb, frame.slice,
             static_cast<std::int64_t>(frame.payload.size()),
             backward ? "bwd" : "fwd");
  if (ctx.cfg->trace) {
    // Send-side flow endpoint; the receiver derives the same id.
    ctx.flows.push_back({wire_flow_id(ctx.cfg->attempt, backward,
                                      ctx.cfg->stage, frame.mb, frame.slice),
                         ctx.now(), /*begin=*/1,
                         static_cast<std::uint8_t>(backward ? 1 : 0)});
  }
  const bool ok = send_frame(fd, frame);
  link.frames_out += 1;
  link.bytes_out += static_cast<std::int64_t>(frame.payload.size());
  ctx.comm_seconds += ctx.now() - send_start;
  ctx.span(send_start,
           std::string("send ") + frame_kind_name(frame.kind) + " mb" +
               std::to_string(frame.mb) + " s" + std::to_string(frame.slice),
           obs::kCatComm, frame.mb, frame.slice, ctx.cfg->stage);
  return ok;
}

int run_stage_worker_impl(const WorkerConfig& cfg, WorkerContext& ctx) {
  const rt::PipelineModel& model = *cfg.model;
  const int stage = cfg.stage;
  const int p = model.stages;
  SLIM_CHECK(model.chunks_per_stage == 1,
             "multi-process runtime supports chunks_per_stage == 1 only");
  const int n_slices = cfg.n_slices;
  const int mk = static_cast<int>(cfg.mbs.size());
  const int m_total = static_cast<int>(cfg.tokens->size());
  const bool is_last = stage == p - 1;
  SLIM_CHECK(static_cast<int>(cfg.layouts.size()) == m_total,
             "worker needs one slice layout per microbatch");
  auto pos_of = [&cfg](int mb, int slice) {
    return cfg.layouts[static_cast<std::size_t>(mb)].begin(slice);
  };
  auto len_of = [&cfg](int mb, int slice) {
    return cfg.layouts[static_cast<std::size_t>(mb)].len(slice);
  };
  // Slice (mb, s) contributes len / (seq_mb * m) of the iteration loss.
  // Must stay the identical float expression the threaded runtime uses —
  // the backend-equivalence tests compare gradients bit for bit.
  auto slice_weight_of = [&cfg, m_total](int mb, int slice) {
    const core::SliceLayout& layout =
        cfg.layouts[static_cast<std::size_t>(mb)];
    return static_cast<float>(layout.len(slice)) /
           (static_cast<float>(layout.seq()) * static_cast<float>(m_total));
  };

  std::vector<int> rank_of(static_cast<std::size_t>(m_total), -1);
  for (int r = 0; r < mk; ++r) {
    rank_of[static_cast<std::size_t>(cfg.mbs[static_cast<std::size_t>(r)])] =
        r;
  }

  // The worker's parameter snapshot: layers built from the fork-inherited
  // weights, arena-tracked so the supervisor can reconcile measured peaks.
  num::ArenaStats arena_stats;
  std::vector<num::Layer> layers;
  const auto [clo, chi] = model.stage_layers[static_cast<std::size_t>(stage)];
  for (int i = clo; i < chi; ++i) {
    layers.emplace_back(model.dims,
                        model.layer_weights[static_cast<std::size_t>(i)]);
    if (cfg.measure_memory) layers.back().set_arena_stats(&arena_stats);
  }

  // Local staging slots, one per attempt microbatch; shipped to the
  // supervisor in a Commit frame at retirement (at-most-once: the frame is
  // the commit point, partial slots never leave the process).
  std::vector<rt::StageCommit> staged;
  for (int r = 0; r < mk; ++r) {
    staged.push_back(rt::make_stage_commit(model, stage, false));
  }

  auto slice_targets_of = [&](int mb, int slice) {
    const std::int64_t pos = pos_of(mb, slice);
    const auto& t = (*cfg.targets)[static_cast<std::size_t>(mb)];
    return std::vector<std::int64_t>(t.begin() + pos,
                                     t.begin() + pos + len_of(mb, slice));
  };

  std::vector<num::Tensor> head_grad(
      is_last ? static_cast<std::size_t>(mk * n_slices) : 0);
  auto idx = [&](int mb, int slice) {
    return static_cast<std::size_t>(
        rank_of[static_cast<std::size_t>(mb)] * n_slices + slice);
  };

  std::deque<Item> inbox;
  std::deque<Item> deferred;
  if (stage == 0) {
    // Stage 0 feeds itself: every forward slice in slice-stream order.
    for (const int mb : cfg.mbs) {
      for (int s = 0; s < n_slices; ++s) {
        Frame ticket;
        ticket.kind = FrameKind::Forward;
        ticket.stage = 0;
        ticket.mb = mb;
        ticket.slice = s;
        inbox.push_back({std::move(ticket), false});
      }
    }
  }

  // Drains whatever the neighbor sockets have ready right now into the
  // local inbox (keeps senders unblocked — AF_UNIX buffers are finite).
  auto drain_sockets = [&]() {
    for (int which = 0; which < 2; ++which) {
      const int fd = which == 0 ? cfg.prev_fd : cfg.next_fd;
      bool& dead = which == 0 ? ctx.prev_dead : ctx.next_dead;
      WireChannelStats& link =
          which == 0 ? ctx.status.prev : ctx.status.next;
      if (fd < 0 || dead) continue;
      while (poll_readable(fd, 0)) {
        Frame frame;
        const IoStatus io = recv_frame(fd, &frame);
        if (io == IoStatus::Ok) {
          link.frames_in += 1;
          link.bytes_in += static_cast<std::int64_t>(frame.payload.size());
          const bool backward = frame.kind == FrameKind::Backward;
          ctx.record(obs::FlightKind::Recv, frame.mb, frame.slice,
                     static_cast<std::int64_t>(frame.payload.size()),
                     backward ? "bwd" : "fwd");
          if (cfg.trace) {
            // Receive-side flow endpoint: same id the sender derived.
            const int src = backward ? stage + 1 : stage - 1;
            ctx.flows.push_back(
                {wire_flow_id(cfg.attempt, backward, src, frame.mb,
                              frame.slice),
                 ctx.now(), /*begin=*/0,
                 static_cast<std::uint8_t>(backward ? 1 : 0)});
          }
          inbox.push_back({std::move(frame), false});
          continue;
        }
        // Eof: the neighbor exited (cleanly or was killed between frames).
        // Torn/Corrupt: it died mid-frame — the partial message is
        // discarded, its microbatch simply stays unretired here. Either
        // way this worker keeps finishing what it can locally; the
        // supervisor owns the verdict.
        dead = true;
        if (io != IoStatus::Eof) {
          link.crc_rejects += 1;
          const std::string detail =
              std::string("neighbor link ") + io_status_name(io) +
              " (peer died mid-frame); tail discarded";
          ctx.instant("link lost", obs::kCatFault, detail);
          ctx.record(obs::FlightKind::Fault, frame.mb, frame.slice, 0,
                     io_status_name(io));
        }
        break;
      }
    }
  };

  const int want_f = mk * n_slices;
  const int want_b = mk * n_slices;
  int done_f = 0, done_b = 0;
  int live = 0;
  int mb_min = 0;
  std::vector<int> b_done(static_cast<std::size_t>(mk), 0);
  std::int64_t messages = 0;
  // SlimPipe's warm-up window (Eq. 1), v = 1 on this backend.
  const int live_cap = n_slices + 2 * (p - 1 - stage);

  auto publish = [&] {
    ctx.status.messages = messages;
    ctx.status.done_f = done_f;
    ctx.status.done_b = done_b;
    ctx.status.live = live;
    ctx.status.queue = static_cast<int>(inbox.size());
    ctx.status.deferred = static_cast<int>(deferred.size());
    ctx.peak_queue = std::max(ctx.peak_queue, static_cast<int>(inbox.size()));
  };

  ctx.heartbeat_now();  // Hello already announced the transport; first beat

  while (done_f < want_f || done_b < want_b) {
    // Oldest unretired microbatch: its forwards are always admitted, so
    // the live-window throttle can never deadlock.
    while (mb_min < mk &&
           b_done[static_cast<std::size_t>(mb_min)] == n_slices) {
      ++mb_min;
    }
    const int admitted_mb =
        mb_min < mk ? cfg.mbs[static_cast<std::size_t>(mb_min)] : -1;

    Frame msg;
    bool have = false;
    if (!deferred.empty() &&
        (live < live_cap || deferred.front().frame.mb == admitted_mb)) {
      msg = std::move(deferred.front().frame);
      deferred.pop_front();
      have = true;
    }
    auto wait_start = obs::MonoClock::now();
    bool waiting = false;
    while (!have) {
      drain_sockets();
      if (inbox.empty()) {
        // Nothing local and nothing on the wire: block (in heartbeat-sized
        // slices so the supervisor keeps hearing from us) until traffic
        // arrives or the starvation watchdog fires.
        if (!waiting) {
          waiting = true;
          wait_start = obs::MonoClock::now();
          ctx.status.state = static_cast<int>(WorkerState::Waiting);
        }
        ctx.maybe_heartbeat();
        const auto waited = obs::MonoClock::now() - wait_start;
        if (waited >= cfg.starvation_timeout) {
          ctx.status.state = static_cast<int>(WorkerState::Starved);
          const std::string detail =
              "starved: f=" + std::to_string(done_f) + "/" +
              std::to_string(want_f) + " b=" + std::to_string(done_b) + "/" +
              std::to_string(want_b) + " live=" + std::to_string(live) +
              " cap=" + std::to_string(live_cap);
          ctx.instant("watchdog", obs::kCatFault, detail);
          ctx.events.push_back({fault::FaultEvent::Kind::Watchdog, stage,
                                ctx.now(), messages, detail});
          throw WorkerError("pipeline stage " + std::to_string(stage) +
                            " starved for " +
                            std::to_string(cfg.starvation_timeout.count()) +
                            " ms (" + detail + ")");
        }
        const double recv_start = ctx.now();
        const auto block_start = obs::MonoClock::now();
        std::vector<int> fds = {ctx.prev_dead ? -1 : cfg.prev_fd,
                                ctx.next_dead ? -1 : cfg.next_fd};
        const int slice_ms = static_cast<int>(std::min<std::int64_t>(
            cfg.heartbeat_interval.count(),
            std::max<std::int64_t>(1, cfg.starvation_timeout.count())));
        poll_readable_many(fds, slice_ms);
        ctx.blocked_recv_seconds +=
            std::chrono::duration<double>(obs::MonoClock::now() -
                                          block_start)
                .count();
        ctx.span(recv_start, "recv", obs::kCatComm);
        continue;
      }
      ctx.status.state = static_cast<int>(WorkerState::Running);
      Item item = std::move(inbox.front());
      inbox.pop_front();
      if (!item.counted) {
        ++messages;
        ctx.status.last_mb = item.frame.mb;
        item.counted = true;
        // Runtime fault hooks fire on arrival, like the threaded backend.
        if (cfg.faults.hang_after > 0 && messages == cfg.faults.hang_after) {
          park_forever(ctx);
        }
        if (cfg.faults.crash_after > 0 &&
            messages == cfg.faults.crash_after) {
          // A real crash: the process dies instantly, mid-protocol. No
          // frame, no cleanup — detection is the supervisor's problem. The
          // breadcrumb below never escapes (that's the point: only what was
          // already flushed survives into the postmortem tail).
          ctx.record(obs::FlightKind::Fault, item.frame.mb, item.frame.slice,
                     messages, "crash");
          ::raise(SIGKILL);
        }
        if (cfg.faults.delay_every > 0 &&
            messages % cfg.faults.delay_every == 0 &&
            cfg.faults.delay_seconds > 0.0) {
          if (ctx.events.empty() ||
              ctx.events.back().kind != fault::FaultEvent::Kind::Delay) {
            const std::string detail =
                "sleeping " + std::to_string(cfg.faults.delay_seconds) +
                " s every " + std::to_string(cfg.faults.delay_every) +
                " messages";
            ctx.events.push_back({fault::FaultEvent::Kind::Delay, stage,
                                  ctx.now(), messages, detail});
            ctx.instant("delay", obs::kCatFault, detail);
          }
          std::this_thread::sleep_for(
              std::chrono::duration<double>(cfg.faults.delay_seconds));
        }
        // Eq. 1's warm-up window: park forwards of younger microbatches
        // while the window is full.
        if (item.frame.kind == FrameKind::Forward &&
            item.frame.mb != admitted_mb && live >= live_cap) {
          deferred.push_back(std::move(item));
          publish();
          continue;
        }
      }
      msg = std::move(item.frame);
      have = true;
    }

    const double span_start = ctx.now();
    const auto busy_start = obs::MonoClock::now();
    const int rank = rank_of[static_cast<std::size_t>(msg.mb)];
    SLIM_CHECK(rank >= 0, "message for a microbatch outside the attempt");
    rt::StageCommit& mb_staged = staged[static_cast<std::size_t>(rank)];
    const bool is_fwd_msg = msg.kind == FrameKind::Forward;
    ctx.record(obs::FlightKind::SpanBegin, msg.mb, msg.slice, 0,
               is_fwd_msg ? "fwd" : "bwd");

    switch (msg.kind) {
      case FrameKind::Forward: {
        ++done_f;
        ++live;
        ctx.peak_live = std::max(ctx.peak_live, live);
        const std::int64_t pos = pos_of(msg.mb, msg.slice);
        const std::int64_t slice_len = len_of(msg.mb, msg.slice);
        num::Tensor x;
        if (stage == 0) {
          x = num::Tensor(slice_len, model.dims.hidden);
          const auto& ids = (*cfg.tokens)[static_cast<std::size_t>(msg.mb)];
          for (std::int64_t r = 0; r < slice_len; ++r) {
            const std::int64_t id = ids[static_cast<std::size_t>(pos + r)];
            for (std::int64_t c = 0; c < model.dims.hidden; ++c) {
              x.at(r, c) = model.embedding.at(id, c);
            }
          }
        } else {
          Reader reader(msg.payload);
          x = reader.tensor();
        }
        for (num::Layer& layer : layers) {
          x = layer.forward_slice(x, pos, msg.mb);
        }
        if (!is_last) {
          Frame out;
          out.kind = FrameKind::Forward;
          out.stage = stage + 1;
          out.mb = msg.mb;
          out.slice = msg.slice;
          Writer writer;
          writer.tensor(x);
          out.payload = writer.take();
          if (!ctx.next_dead && !send_data(ctx, cfg.next_fd, out)) {
            ctx.next_dead = true;
          }
          break;
        }
        const float slice_weight = slice_weight_of(msg.mb, msg.slice);
        const num::Tensor hidden = num::rmsnorm(x, model.final_norm);
        const num::Tensor logits = num::matmul_nt(hidden, model.embedding);
        num::CeResult ce =
            num::cross_entropy(logits, slice_targets_of(msg.mb, msg.slice));
        mb_staged.loss +=
            ce.loss * slice_weight * static_cast<double>(m_total);
        for (std::int64_t i = 0; i < ce.dlogits.size(); ++i) {
          ce.dlogits.data()[i] *= slice_weight;
        }
        mb_staged.head_shard.add_(num::matmul_tn(ce.dlogits, hidden));
        const num::Tensor dhidden = num::matmul(ce.dlogits, model.embedding);
        head_grad[idx(msg.mb, msg.slice)] = num::rmsnorm_bwd(
            x, model.final_norm, dhidden, mb_staged.final_norm);
        if (msg.slice == n_slices - 1) {
          Frame cont;
          cont.kind = FrameKind::Backward;
          cont.stage = stage;
          cont.mb = msg.mb;
          cont.slice = msg.slice;
          inbox.push_front({std::move(cont), false});
        }
        break;
      }
      case FrameKind::Backward: {
        ++done_b;
        --live;
        ++b_done[static_cast<std::size_t>(rank)];
        num::Tensor dx;
        if (is_last) {
          dx = std::move(head_grad[idx(msg.mb, msg.slice)]);
        } else {
          Reader reader(msg.payload);
          dx = reader.tensor();
        }
        for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
          const std::size_t local = static_cast<std::size_t>(
              layers.rend() - it - 1);
          dx = it->backward_slice(dx, mb_staged.layers[local], msg.mb);
        }
        if (stage > 0) {
          Frame out;
          out.kind = FrameKind::Backward;
          out.stage = stage - 1;
          out.mb = msg.mb;
          out.slice = msg.slice;
          Writer writer;
          writer.tensor(dx);
          out.payload = writer.take();
          if (!ctx.prev_dead && !send_data(ctx, cfg.prev_fd, out)) {
            ctx.prev_dead = true;
          }
        } else {
          const auto& ids = (*cfg.tokens)[static_cast<std::size_t>(msg.mb)];
          const std::int64_t pos = pos_of(msg.mb, msg.slice);
          const std::int64_t slice_len = len_of(msg.mb, msg.slice);
          for (std::int64_t r = 0; r < slice_len; ++r) {
            const std::int64_t id = ids[static_cast<std::size_t>(pos + r)];
            for (std::int64_t c = 0; c < model.dims.hidden; ++c) {
              mb_staged.embed_in.at(id, c) += dx.at(r, c);
            }
          }
        }
        if (b_done[static_cast<std::size_t>(rank)] == n_slices) {
          // Microbatch retired on this stage: the staged gradients are
          // final. The Commit frame IS the commit point — sent exactly
          // once, and a SIGKILL before or during the send leaves the
          // supervisor's slot incomplete (replayed), never half-applied.
          mb_staged.complete = true;
          ++ctx.status.committed;
          ctx.record(obs::FlightKind::Commit, msg.mb, -1,
                     ctx.status.committed, "commit");
          // Flush BEFORE the Commit frame: the control socket is FIFO, so
          // whoever sees the commit already holds the breadcrumbs that led
          // to it — the postmortem tail of a worker killed at mid-commit is
          // deterministic, not heartbeat-cadence lottery.
          ctx.flush_flight();
          Frame commit;
          commit.kind = FrameKind::Commit;
          commit.stage = stage;
          commit.mb = msg.mb;
          Writer writer;
          write_commit(writer, mb_staged);
          commit.payload = writer.take();
          ctx.send_control(commit);
          if (ctx.status.committed == cfg.kill_after_commit) {
            // The kill lands at the commit point by construction: this
            // Commit frame and the flush before it are already in the
            // supervisor's socket buffer, and the stage does nothing more.
            ::raise(SIGKILL);
          }
          ctx.instant("commit mb" + std::to_string(msg.mb), obs::kCatCommit);
        }
        if (is_last && msg.slice > 0) {
          Frame cont;
          cont.kind = FrameKind::Backward;
          cont.stage = stage;
          cont.mb = msg.mb;
          cont.slice = msg.slice - 1;
          inbox.push_front({std::move(cont), false});
        }
        break;
      }
      default:
        throw WorkerError("stage " + std::to_string(stage) +
                          ": unexpected data frame kind " +
                          std::string(frame_kind_name(msg.kind)));
    }

    ctx.busy_seconds +=
        std::chrono::duration<double>(obs::MonoClock::now() - busy_start)
            .count();
    ctx.record(obs::FlightKind::SpanEnd, msg.mb, msg.slice, 0,
               is_fwd_msg ? "fwd" : "bwd");
    ctx.span(span_start,
             std::string(msg.kind == FrameKind::Forward ? "fwd" : "bwd") +
                 " mb" + std::to_string(msg.mb) + " s" +
                 std::to_string(msg.slice) + " st" + std::to_string(stage),
             obs::kCatCompute, msg.mb, msg.slice, stage);
    publish();
    ctx.maybe_heartbeat();
  }

  for (const num::Layer& layer : layers) {
    SLIM_CHECK(layer.live_slices() == 0 && layer.cache_chunks() == 0,
               "stage leaked slices/chunks");
  }

  // All work retired: final status + metrics + trace in one Done frame.
  // Answer pending Pings first, so even a stage that finishes before its
  // first heartbeat returns the clock sample of the Ping written at fork.
  ctx.drain_control();
  ctx.status.state = static_cast<int>(WorkerState::Done);
  publish();
  WireStageDone done;
  done.status = ctx.status;
  done.busy_seconds = ctx.busy_seconds;
  done.comm_seconds = ctx.comm_seconds;
  done.blocked_recv_seconds = ctx.blocked_recv_seconds;
  done.p2p_messages = ctx.p2p_messages;
  done.p2p_bytes = ctx.p2p_bytes;
  done.peak_queue = ctx.peak_queue;
  done.peak_live = ctx.peak_live;
  if (cfg.measure_memory) {
    for (int c = 0; c < mem::kNumCategories; ++c) {
      done.arena_peak_bytes.push_back(arena_stats.peak_bytes(c));
    }
    done.arena_peak_total = arena_stats.total_peak_bytes();
  }
  done.events = ctx.events;
  done.spans = ctx.spans;
  done.instants = ctx.instants;
  done.flows = ctx.flows;
  ctx.record(obs::FlightKind::Mark, -1, -1, ctx.status.committed, "done");
  ctx.flush_flight();
  Frame frame;
  frame.kind = FrameKind::Done;
  frame.stage = stage;
  Writer writer;
  write_stage_done(writer, done);
  frame.payload = writer.take();
  ctx.send_control(frame);
  return 0;
}

}  // namespace

int run_stage_worker(const WorkerConfig& config) {
  WorkerContext ctx;
  ctx.cfg = &config;
  ctx.start = obs::MonoClock::now();
  ctx.last_beat = ctx.start;
  ctx.flight = obs::FlightRecorder(
      static_cast<std::size_t>(std::max(1, config.flight_capacity)));
  ctx.drops_fired.assign(config.faults.drops.size(), 0);
  try {
    Frame hello;
    hello.kind = FrameKind::Hello;
    hello.stage = config.stage;
    ctx.send_control(hello);
    ctx.record(obs::FlightKind::Mark, -1, -1, config.attempt, "start");
    return run_stage_worker_impl(config, ctx);
  } catch (const std::exception& error) {
    // Structured failure: everything the supervisor needs for the
    // postmortem — final status, message, fault events — in one Error
    // frame, then exit(2). Never an uncaught throw (this process must not
    // run the parent's terminate handler or atexit chain).
    ctx.record(obs::FlightKind::Fault, -1, -1, ctx.status.messages,
               "error");
    ctx.flush_flight();
    Frame frame;
    frame.kind = FrameKind::Error;
    frame.stage = config.stage;
    Writer writer;
    write_status(writer, ctx.status);
    writer.str(error.what());
    writer.i32(static_cast<std::int32_t>(ctx.events.size()));
    for (const fault::FaultEvent& event : ctx.events) {
      write_event(writer, event);
    }
    frame.payload = writer.take();
    ctx.send_control(frame);
    return 2;
  } catch (...) {
    return 2;
  }
}

}  // namespace slim::dist
