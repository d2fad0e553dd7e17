// Training workload: one SlimPipe training step on the threaded backend
// (train-threads, compute-bound). Its traced run also drives the
// multi-process backend at a many-small-slices shape, where wire, fork and
// supervisor costs dominate (the dist.* per-layer metrics).
//
// Weights are fixed; only the token ids come from --seed. Every step is
// checked against the monolithic reference (the tests' tolerances), against
// the last warm-up step (bit-identical gradients), against the Eq. 1
// live-slice bound and for fault-free wire counters.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/dist/process_pipeline.hpp"
#include "src/numerics/attention.hpp"
#include "src/numerics/cross_entropy.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/numerics/tensor.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace slim;

struct Shape {
  num::BlockDims dims;
  std::int64_t vocab;
  int layers;
  int stages;
  int microbatches;
  std::int64_t seq;  // tokens per microbatch
  int n;             // slices per sequence

  std::int64_t slice() const { return seq / n; }
  double tokens() const {
    return static_cast<double>(microbatches) * static_cast<double>(seq);
  }
};

// Compute-bound: the numerics kernels take most of the stage time.
const Shape kThreadsShape{{64, 4, 2, 192}, 256, 8, 4, 4, 512, 8};
// Many small slices (768 frames per step): wire, fork and supervisor costs
// dominate on the multi-process backend.
const Shape kProcsShape{{32, 4, 2, 96}, 64, 4, 4, 8, 32, 16};

/// Model weights do not depend on --seed.
constexpr std::uint64_t kWeightSeed = 2025;

using Result = rt::ThreadedPipeline::Result;

struct Batch {
  std::vector<std::vector<std::int64_t>> tokens;
  std::vector<std::vector<std::int64_t>> targets;
};

/// Next-token batches: random ids from the seed, targets shifted by one.
Batch make_batch(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  for (int mb = 0; mb < shape.microbatches; ++mb) {
    std::vector<std::int64_t> ids;
    for (std::int64_t i = 0; i <= shape.seq; ++i) {
      ids.push_back(static_cast<std::int64_t>(
          rng.next_u64() % static_cast<std::uint64_t>(shape.vocab)));
    }
    batch.tokens.emplace_back(ids.begin(), ids.end() - 1);
    batch.targets.emplace_back(ids.begin() + 1, ids.end());
  }
  return batch;
}

/// The per-step gates: reference tolerances, bit-identity with the warm-up
/// step, the Eq. 1 window and fault-free transport counters.
std::string check_step(const Shape& shape, const Result& r,
                       const Result& reference, const Result* warmup) {
  if (!(std::fabs(r.loss - reference.loss) <= 1e-5)) {
    return "loss " + std::to_string(r.loss) + " vs reference " +
           std::to_string(reference.loss);
  }
  const float ref_diff = r.grads.max_abs_diff(reference.grads);
  if (!(ref_diff < 5e-5f)) {
    return "grads differ from the reference by " + std::to_string(ref_diff);
  }
  if (warmup != nullptr && (r.loss != warmup->loss ||
                            r.grads.max_abs_diff(warmup->grads) != 0.0f)) {
    return "step is not bit-identical to the warm-up step";
  }
  const int p = shape.stages;
  if (static_cast<int>(r.stats.peak_live_slices.size()) != p) {
    return "missing per-stage live-slice peaks";
  }
  for (int s = 0; s < p; ++s) {
    const int bound = shape.n + 2 * (p - 1 - s);
    if (r.stats.peak_live_slices[static_cast<std::size_t>(s)] > bound) {
      return "stage " + std::to_string(s) + " exceeded the Eq. 1 window";
    }
  }
  const int eq1 = shape.n + 2 * (p - 1);
  if (r.stats.metrics.max_peak_live_slices() != eq1) {
    return "peak live slices " +
           std::to_string(r.stats.metrics.max_peak_live_slices()) +
           " != Eq. 1 bound " + std::to_string(eq1);
  }
  for (const obs::StageMetrics& st : r.stats.metrics.stages) {
    if (st.send_retries != 0 || st.crc_rejects != 0) {
      return "wire retries/crc rejects on a fault-free run";
    }
  }
  if (!r.stats.replayed_microbatches.empty()) {
    return "microbatches replayed on a fault-free run";
  }
  return {};
}

/// Per-step runtime probes (PipelineStats.metrics), one sample per step.
struct RuntimeSamples {
  std::vector<double> compute, blocked, bubble, outside, live, queue, mem,
      frames, bytes, comm, retries, crc;

  void add(const obs::RunMetrics& m, double step_seconds) {
    double c = 0, b = 0, longest = 0, q = 0, peak = 0, f = 0, by = 0, cm = 0,
           re = 0, cr = 0;
    for (const obs::StageMetrics& st : m.stages) {
      c += st.compute_seconds;
      b += st.blocked_recv_seconds;
      longest = std::max(longest, st.compute_seconds + st.comm_seconds +
                                      st.blocked_recv_seconds);
      q = std::max(q, static_cast<double>(st.peak_queue_depth));
      peak = std::max(peak, st.measured_peak_total);
      f += static_cast<double>(st.frames_sent);
      by += st.p2p_bytes;
      cm += st.comm_seconds;
      re += static_cast<double>(st.send_retries);
      cr += static_cast<double>(st.crc_rejects);
    }
    compute.push_back(c);
    blocked.push_back(b);
    bubble.push_back(m.mean_bubble_fraction());
    outside.push_back(step_seconds - longest);
    live.push_back(m.max_peak_live_slices());
    queue.push_back(q);
    mem.push_back(peak / (1024.0 * 1024.0));
    frames.push_back(f);
    bytes.push_back(by);
    comm.push_back(cm);
    retries.push_back(re);
    crc.push_back(cr);
  }

  void report(Report& r, const std::string& prefix) const {
    r.add(prefix + "runtime.compute_s", "s", compute);
    r.add(prefix + "runtime.blocked_s", "s", blocked);
    r.add(prefix + "runtime.bubble_fraction", "ratio", bubble);
    r.add(prefix + "runtime.outside_stage_s", "s", outside);
    r.add(prefix + "runtime.peak_live_slices", "count", live);
    r.add(prefix + "runtime.peak_queue_depth", "count", queue);
    r.add(prefix + "memory.measured_peak_mb", "MiB", mem);
    r.add(prefix + "wire.frames", "count", frames);
    r.add(prefix + "wire.bytes", "bytes", bytes);
    r.add(prefix + "wire.comm_s", "s", comm);
    r.add(prefix + "wire.retries", "count", retries);
    r.add(prefix + "wire.crc_rejects", "count", crc);
  }
};

/// Span seconds per traced step, grouped by name prefix; commits are
/// recorded as instants, so they are counted.
struct TraceSamples {
  std::vector<double> fwd, bwd, vocab, send, recv, commits;

  void add(const obs::Trace& trace) {
    double f = 0, b = 0, v = 0, s = 0, r = 0, c = 0;
    for (const obs::TraceSpan& span : trace.spans) {
      const double d = span.end - span.start;
      const std::string& name = span.name;
      if (name.rfind("fwd", 0) == 0) {
        f += d;
      } else if (name.rfind("bwd", 0) == 0) {
        b += d;
      } else if (name.rfind("vocab", 0) == 0) {
        v += d;
      } else if (name.rfind("send", 0) == 0) {
        s += d;
      } else if (name.rfind("recv", 0) == 0) {
        r += d;
      }
    }
    for (const obs::TraceInstant& instant : trace.instants) {
      if (instant.cat == obs::kCatCommit) c += 1.0;
    }
    fwd.push_back(f);
    bwd.push_back(b);
    vocab.push_back(v);
    send.push_back(s);
    recv.push_back(r);
    commits.push_back(c);
  }

  void report(Report& r, const std::string& prefix) const {
    r.add(prefix + "trace.fwd_s", "s", fwd);
    r.add(prefix + "trace.bwd_s", "s", bwd);
    r.add(prefix + "trace.vocab_s", "s", vocab);
    r.add(prefix + "trace.send_s", "s", send);
    r.add(prefix + "trace.recv_s", "s", recv);
    r.add(prefix + "trace.commits", "count", commits);
  }
};

/// Times `call` in batches of calls lasting >= 2 ms each; returns the
/// per-call seconds of every batch.
template <typename F>
std::vector<double> time_kernel(int batches, F&& call) {
  int reps = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < reps; ++i) call();
    if (seconds_since(start) >= 2e-3 || reps >= (1 << 20)) break;
    reps *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < reps; ++i) call();
    per_call.push_back(seconds_since(start) / reps);
  }
  return per_call;
}

/// Times the public kernels at the shape's per-slice, per-head sizes, with
/// the kernel-thread cap a pipeline stage of this shape runs under.
void report_kernels(const Shape& shape, Report& report) {
  const int pool = util::ThreadPool::global().max_threads();
  util::ScopedKernelThreads cap(std::max(1, pool / shape.stages));
  Rng rng(kWeightSeed + 1);
  const std::int64_t s = shape.slice();
  const std::int64_t h = shape.dims.hidden;
  const std::int64_t f = shape.dims.ffn;
  const std::int64_t d = shape.dims.head_dim();
  const int batches = 15;
  auto rate = [](double flops, std::vector<double> seconds) {
    for (double& x : seconds) x = flops / x * 1e-9;
    return seconds;
  };
  auto micros = [](std::vector<double> seconds) {
    for (double& x : seconds) x *= 1e6;
    return seconds;
  };

  // FFN up-projection: (s x h) . (h x f).
  const num::Tensor x = num::Tensor::randn(s, h, rng);
  const num::Tensor w = num::Tensor::randn(h, f, rng);
  report.add("numerics.matmul_gflops", "GFLOP/s",
             rate(2.0 * s * h * f,
                  time_kernel(batches, [&] { (void)num::matmul(x, w); })));

  // The last slice of a sequence attending to every earlier KV chunk.
  const num::Tensor q = num::Tensor::randn(s, d, rng);
  std::vector<num::KvChunk> chunks;
  for (int c = 0; c < shape.n; ++c) {
    chunks.push_back({num::Tensor::randn(s, d, rng),
                      num::Tensor::randn(s, d, rng), c * s});
  }
  const std::int64_t q_offset = (shape.n - 1) * s;
  const double visible = static_cast<double>(q_offset) * s +
                         static_cast<double>(s) * (s + 1) / 2.0;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  report.add("numerics.attn_fwd_gflops", "GFLOP/s",
             rate(4.0 * d * visible, time_kernel(batches, [&] {
                    (void)num::attn_streamed(q, chunks, q_offset, scale);
                  })));
  const num::AttnPartial fwd = num::attn_streamed(q, chunks, q_offset, scale);
  const num::Tensor dout = num::Tensor::randn(s, d, rng);
  // Backward: score recompute plus dV, dP, dQ and dK products.
  report.add("numerics.attn_bwd_gflops", "GFLOP/s",
             rate(10.0 * d * visible, time_kernel(batches, [&] {
                    num::Tensor dq;
                    std::vector<num::Tensor> dk, dv;
                    for (const num::KvChunk& c : chunks) {
                      dk.emplace_back(c.k.rows(), d);
                      dv.emplace_back(c.v.rows(), d);
                    }
                    num::attn_streamed_bwd(q, chunks, q_offset, scale, fwd,
                                           dout, dq, dk, dv);
                  })));

  const num::Tensor norm_w = num::Tensor::randn(1, h, rng);
  report.add("numerics.rmsnorm_us", "us", micros(time_kernel(batches, [&] {
               (void)num::rmsnorm(x, norm_w);
             })));
  const num::Tensor logits = num::Tensor::randn(s, shape.vocab, rng);
  std::vector<std::int64_t> targets;
  for (std::int64_t i = 0; i < s; ++i) {
    targets.push_back(static_cast<std::int64_t>(
        rng.next_u64() % static_cast<std::uint64_t>(shape.vocab)));
  }
  report.add("numerics.xent_us", "us", micros(time_kernel(batches, [&] {
               (void)num::cross_entropy(logits, targets);
             })));
}

/// One step on either backend, optionally traced.
Result step(rt::ThreadedPipeline& pipe, const Shape& shape, const Batch& batch,
            obs::Recorder* recorder) {
  rt::RunOptions options;
  options.n_slices = shape.n;
  options.recorder = recorder;
  return pipe.run_iteration(batch.tokens, batch.targets, options);
}

Result step(dist::ProcessPipeline& pipe, const Shape& shape,
            const Batch& batch, obs::Recorder* recorder) {
  dist::ProcessOptions options;
  options.n_slices = shape.n;
  options.recorder = recorder;
  return pipe.run_iteration(batch.tokens, batch.targets, options);
}

template <typename Pipeline>
std::unique_ptr<Pipeline> build_pipeline(const Shape& shape) {
  Rng rng(kWeightSeed);
  return std::make_unique<Pipeline>(shape.dims, shape.vocab, shape.layers,
                                    shape.stages, rng);
}

/// Traced loop: untraced and traced steps alternate, so the overhead ratio
/// compares neighbours under the same host load. Reports the runtime,
/// wire and span metrics, and the trace overhead, under `prefix`.
template <typename Pipeline>
std::vector<double> traced_steps(Pipeline& pipe, const Shape& shape,
                                 const Batch& batch, const Result& reference,
                                 const Result& warmup, double seconds,
                                 const std::string& prefix, Report& report) {
  RuntimeSamples runtime;
  TraceSamples spans;
  std::vector<double> untraced, traced;
  timed_loop(seconds, report, [&](double* elapsed) {
    Clock::time_point start = Clock::now();
    const Result plain = step(pipe, shape, batch, nullptr);
    *elapsed = seconds_since(start);
    std::string verdict = check_step(shape, plain, reference, &warmup);
    if (!verdict.empty()) return prefix + verdict;

    obs::Recorder recorder;
    start = Clock::now();
    const Result r = step(pipe, shape, batch, &recorder);
    const double traced_s = seconds_since(start);
    verdict = check_step(shape, r, reference, &warmup);
    if (!verdict.empty()) return prefix + "traced step: " + verdict;
    untraced.push_back(*elapsed);
    traced.push_back(traced_s);
    runtime.add(plain.stats.metrics, *elapsed);
    spans.add(recorder.take());
    return verdict;
  });
  runtime.report(report, prefix);
  spans.report(report, prefix);
  report.add(prefix + "trace.overhead", "ratio",
             untraced.empty() ? 0.0 : median(traced) / median(untraced) - 1.0);
  return untraced;
}

/// The multi-process backend at kProcsShape: set-up, reference and backend
/// parity checks, then a traced loop of `seconds`.
void probe_dist(const Options& options, Report& report) {
  const Shape& shape = kProcsShape;
  const Batch batch = make_batch(shape, options.seed);
  const std::unique_ptr<dist::ProcessPipeline> pipe =
      build_pipeline<dist::ProcessPipeline>(shape);
  const Result warmup = step(*pipe, shape, batch, nullptr);
  const Result reference = pipe->run_reference(batch.tokens, batch.targets);
  if (const std::string verdict = check_step(shape, warmup, reference, nullptr);
      !verdict.empty()) {
    report.error("dist warm-up step: " + verdict);
  }
  // Backend parity: the threaded backend with the same weights must give
  // the same bits.
  const Result threaded =
      step(*build_pipeline<rt::ThreadedPipeline>(shape), shape, batch, nullptr);
  if (warmup.grads.max_abs_diff(threaded.grads) != 0.0f ||
      warmup.loss != threaded.loss) {
    report.error("multi-process grads differ from the threaded backend's");
  }
  report.add("dist.step_s", "s",
             traced_steps(*pipe, shape, batch, reference, warmup,
                          options.seconds, "dist.", report));
}

}  // namespace

void run_train_threads(const Options& options, Report& report) {
  const Shape& shape = kThreadsShape;
  const Batch batch = make_batch(shape, options.seed);
  std::unique_ptr<rt::ThreadedPipeline> pipe;
  Result warmup;  // the last set-up's warm-up step
  report.add("setup_s", "s", time_setups(3, report, [&] {
               pipe = build_pipeline<rt::ThreadedPipeline>(shape);
               warmup = step(*pipe, shape, batch, nullptr);
               return std::string();
             }));
  if (!pipe) return;

  // Ground truth, outside every timed region.
  const Result reference = pipe->run_reference(batch.tokens, batch.targets);
  if (const std::string verdict = check_step(shape, warmup, reference, nullptr);
      !verdict.empty()) {
    report.error("warm-up step: " + verdict);
  }

  if (!options.trace) {
    const std::vector<double> iters =
        timed_loop(options.seconds, report, [&](double* elapsed) {
          const Clock::time_point start = Clock::now();
          const Result r = step(*pipe, shape, batch, nullptr);
          *elapsed = seconds_since(start);
          return check_step(shape, r, reference, &warmup);
        });
    report_end_to_end(report, iters, shape.tokens());
    return;
  }

  traced_steps(*pipe, shape, batch, reference, warmup, options.seconds, "",
               report);
  report_kernels(shape, report);
  probe_dist(options, report);
}

}  // namespace perfbench
