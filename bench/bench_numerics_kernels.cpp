// Numerics-kernel throughput on the shared parallel engine
// (src/util/thread_pool.hpp). For each hot kernel the bench sweeps the
// pool width in-process (ThreadPool::set_threads), reporting the time per
// call (calls repeated back to back until at least 2 ms have passed),
// GFLOP/s, speedup over the serial run, and — the engine's contract —
// whether the output is bit-identical to the 1-thread result at every
// width.
//
// SLIMPIPE_BENCH_SMOKE=1 shrinks the shapes so the sweep finishes in
// seconds (the `perf`-labelled ctest smoke uses it); the full shapes
// include the 1024^3 matmul the roadmap's speedup target is quoted on.

#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "src/numerics/arena.hpp"
#include "src/numerics/attention.hpp"
#include "src/numerics/cross_entropy.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/numerics/rope.hpp"
#include "src/numerics/tensor.hpp"
#include "src/numerics/transformer_block.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/units.hpp"

using namespace slim;
using num::Tensor;

namespace {

bool g_all_identical = true;

bool smoke_mode() {
  const char* env = std::getenv("SLIMPIPE_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

double seconds_of(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

/// Seconds per call of `fn`, like perfbench's time_kernel: a call of at
/// least 2 ms is timed once; a shorter one doubles its call count until a
/// batch of back-to-back calls takes 2 ms (which also warms caches and the
/// host clock), then one more batch of that many calls is timed.
double seconds_per_call(const std::function<void()>& fn) {
  const auto batch = [&](int reps) {
    return seconds_of([&] {
      for (int i = 0; i < reps; ++i) fn();
    });
  };
  const double once = batch(1);
  if (once >= 2e-3) return once;
  int reps = 2;
  while (batch(reps) < 2e-3 && reps < (1 << 20)) reps *= 2;
  return batch(reps) / reps;
}

std::vector<int> sweep_widths() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> widths = {1, 2, 4, 8};
  if (hw > 1) {
    bool present = false;
    for (int w : widths) present = present || w == hw;
    if (!present) widths.push_back(hw);
  }
  return widths;
}

/// Runs `fn` (which returns the kernel output) at every pool width,
/// appending one table row per width with the time per call, GFLOP/s,
/// speedup over the 1-thread time, heap-allocation count, peak workspace
/// bytes, and the bit-identity verdict against the 1-thread output.
/// Workspace peak is the high-water mark across every thread's scratch
/// arena during one call; allocs counts Tensor heap buffers it churned.
void sweep_kernel(Table& table, const std::string& kernel, double gflop,
                  const std::function<Tensor()>& fn) {
  util::ThreadPool& pool = util::ThreadPool::global();
  const int restore = pool.max_threads();
  double serial_time = 0.0;
  Tensor serial_out;
  for (int width : sweep_widths()) {
    pool.set_threads(width);
    num::workspace_stats().reset();
    const std::int64_t heap_before = num::tensor_heap_allocs();
    const Tensor out = fn();
    const std::int64_t heap_allocs = num::tensor_heap_allocs() - heap_before;
    const std::int64_t peak_ws = num::workspace_stats().total_peak_bytes();
    const double time = seconds_per_call([&] { (void)fn(); });
    if (width == 1) {
      serial_time = time;
      serial_out = out;
    }
    const bool identical = out.max_abs_diff(serial_out) == 0.0f;
    g_all_identical = g_all_identical && identical;
    char gflops[32], speedup[32];
    std::snprintf(gflops, sizeof gflops, "%.2f", gflop / time);
    std::snprintf(speedup, sizeof speedup, "%.2fx", serial_time / time);
    table.add_row({kernel, std::to_string(width), format_time(time), gflops,
                   speedup, std::to_string(heap_allocs),
                   format_bytes(static_cast<double>(peak_ws)),
                   identical ? "yes" : "NO"});
  }
  pool.set_threads(restore);
}

}  // namespace

static void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(7);
  const Tensor a = Tensor::randn(n, n, rng);
  const Tensor b = Tensor::randn(n, n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(num::matmul(a, b));
}
BENCHMARK(BM_Matmul)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  slimbench::open_report("numerics_kernels");
  const bool smoke = smoke_mode();
  slimbench::print_banner(
      "numerics kernels on the parallel engine",
      smoke ? "smoke shapes (SLIMPIPE_BENCH_SMOKE)" : "full shapes",
      "near-linear speedup until memory bandwidth saturates; outputs "
      "bit-identical at every thread count (the determinism contract)");

  Rng rng(7);
  Table table({"kernel", "threads", "time", "GFLOP/s", "speedup", "allocs",
               "peak ws", "bit-identical"});

  // --- matmul: the roadmap's speedup target is quoted on 1024^3 ---
  {
    const std::int64_t n = smoke ? 128 : 1024;
    const Tensor a = Tensor::randn(n, n, rng);
    const Tensor b = Tensor::randn(n, n, rng);
    const double gflop = 2.0 * static_cast<double>(n) * n * n * 1e-9;
    sweep_kernel(table, "matmul " + std::to_string(n) + "^3", gflop,
                 [&] { return num::matmul(a, b); });
    sweep_kernel(table, "matmul_nt " + std::to_string(n) + "^3", gflop,
                 [&] { return num::matmul_nt(a, b); });
    sweep_kernel(table, "matmul_tn " + std::to_string(n) + "^3", gflop,
                 [&] { return num::matmul_tn(a, b); });
  }

  // --- rmsnorm over a long activation slab ---
  {
    const std::int64_t rows = smoke ? 256 : 8192, cols = smoke ? 128 : 1024;
    const Tensor x = Tensor::randn(rows, cols, rng);
    Tensor w(1, cols);
    w.fill(1.0f);
    const double gflop = 3.0 * static_cast<double>(rows) * cols * 1e-9;
    sweep_kernel(table, "rmsnorm", gflop, [&] { return num::rmsnorm(x, w); });
  }

  // --- the element-wise layers at the perfbench train-threads shape: a
  // 64 x 192 SwiGLU slab, RoPE over a 64-row projection of 4 heads of
  // d = 16 (the row shows the copy the rotation works on as well) ---
  {
    const std::int64_t rows = 64, ffn = 192, heads = 4, d = 16;
    const Tensor gate = Tensor::randn(rows, ffn, rng, 2.0f);
    const Tensor up = Tensor::randn(rows, ffn, rng);
    const Tensor dout = Tensor::randn(rows, ffn, rng);
    // Nominal FLOPs, an exp counted as one: 4 per element forward, 12 per
    // element backward (incl. the fused forward output), 6 per RoPE pair.
    const double elems = static_cast<double>(rows) * ffn;
    sweep_kernel(table, "swiglu fwd 64x192", 4.0 * elems * 1e-9,
                 [&] { return num::swiglu(gate, up); });
    // The verdict covers dgate; dup and the output come from the same pass.
    sweep_kernel(table, "swiglu bwd 64x192", 12.0 * elems * 1e-9, [&] {
      Tensor dgate, dup;
      (void)num::swiglu_bwd(gate, up, dout, dgate, dup);
      return dgate;
    });
    const Tensor q = Tensor::randn(rows, heads * d, rng);
    sweep_kernel(table, "rope 64x4x16", 3.0 * rows * heads * d * 1e-9, [&] {
      Tensor x = q;
      num::rope_apply(x, 1984, d);
      return x;
    });
  }

  // --- transformer block forward (one slice; the runtime's unit of work) ---
  {
    num::BlockDims dims;
    dims.hidden = smoke ? 128 : 512;
    dims.heads = 8;
    dims.kv_heads = 4;
    dims.ffn = smoke ? 256 : 1536;
    const std::int64_t s = smoke ? 128 : 1024;
    num::Layer layer(dims, num::LayerWeights::random(dims, rng));
    const Tensor x = Tensor::randn(s, dims.hidden, rng);
    // Projections + FFN + attention (scores and values), approximately.
    const double gflop =
        (2.0 * s * dims.hidden *
             (2.0 * dims.hidden + 2.0 * dims.kv_hidden() + 3.0 * dims.ffn) +
         4.0 * s * s * dims.hidden) *
        1e-9;
    sweep_kernel(table, "block fwd", gflop, [&] {
      layer.reset();
      return layer.forward_slice(x, 0, 0);
    });
  }

  // --- streamed attention: the last slice of a sequence over every KV
  // chunk (d = 16 over 8 chunks of 64 keys is the perfbench train-threads
  // shape; d = 128 over 4 chunks of 256 keys a wide-head one) ---
  {
    struct AttnShape {
      std::int64_t d, chunks, keys;
    };
    const std::vector<AttnShape> shapes =
        smoke ? std::vector<AttnShape>{{16, 2, 32}, {32, 2, 64}}
              : std::vector<AttnShape>{{16, 8, 64}, {128, 4, 256}};
    for (const AttnShape& shape : shapes) {
      const std::int64_t s = shape.keys, d = shape.d;
      std::vector<num::KvChunk> chunks;
      for (std::int64_t c = 0; c < shape.chunks; ++c) {
        chunks.push_back({Tensor::randn(s, d, rng), Tensor::randn(s, d, rng),
                          c * s});
      }
      const Tensor q = Tensor::randn(s, d, rng);
      const Tensor dout = Tensor::randn(s, d, rng);
      const std::int64_t q_offset = (shape.chunks - 1) * s;
      const float scale = 1.0f / std::sqrt(static_cast<float>(d));
      // Visible (query, key) pairs: 4·d FLOPs each forward, 10·d backward.
      const double visible = static_cast<double>(q_offset) * s +
                             static_cast<double>(s) * (s + 1) / 2.0;
      const std::string name = " d=" + std::to_string(d) + " " +
                               std::to_string(shape.chunks) + "x" +
                               std::to_string(s);
      sweep_kernel(table, "attn fwd" + name, 4.0 * d * visible * 1e-9, [&] {
        return num::attn_streamed(q, chunks, q_offset, scale).out;
      });
      const num::AttnPartial fwd =
          num::attn_streamed(q, chunks, q_offset, scale);
      sweep_kernel(table, "attn bwd" + name, 10.0 * d * visible * 1e-9, [&] {
        Tensor dq;
        std::vector<Tensor> dk(chunks.size(), Tensor(s, d));
        std::vector<Tensor> dv(chunks.size(), Tensor(s, d));
        num::attn_streamed_bwd(q, chunks, q_offset, scale, fwd, dout, dq, dk,
                               dv);
        std::vector<Tensor> all = {dq};
        all.insert(all.end(), dk.begin(), dk.end());
        all.insert(all.end(), dv.begin(), dv.end());
        return Tensor::vcat(all);
      });
    }
  }

  // --- cross entropy (the output head's loss kernel) ---
  {
    const std::int64_t tokens = smoke ? 256 : 4096;
    const std::int64_t vocab = smoke ? 512 : 8192;
    const Tensor logits = Tensor::randn(tokens, vocab, rng);
    std::vector<std::int64_t> targets(static_cast<std::size_t>(tokens));
    for (std::size_t t = 0; t < targets.size(); ++t) {
      targets[t] = static_cast<std::int64_t>(t) % vocab;
    }
    const double gflop = 5.0 * static_cast<double>(tokens) * vocab * 1e-9;
    sweep_kernel(table, "cross entropy", gflop,
                 [&] { return num::cross_entropy(logits, targets).dlogits; });
  }

  slimbench::print_table("kernel throughput vs pool width", table);

  // --- arena vs heap ownership: block fwd+bwd over two slices ---
  //
  // The heap row churns one allocation per retained tensor per slice; the
  // arena row routes all of them through one per-microbatch bump arena,
  // collapsing the churn to block-granular reservations. In smoke mode the
  // measured arena peaks also gate the process exit: each category's
  // high-water mark must match Layer::slice_footprint's prediction for the
  // peak slice count within 0.5 slice units (the reconciliation contract
  // tests/test_arena.cpp asserts at model scale).
  bool reconcile_ok = true;
  {
    num::BlockDims dims;
    dims.hidden = smoke ? 128 : 512;
    dims.heads = 8;
    dims.kv_heads = 4;
    dims.ffn = smoke ? 256 : 1536;
    const std::int64_t s = smoke ? 128 : 1024;
    const num::LayerWeights weights = num::LayerWeights::random(dims, rng);
    const Tensor x0 = Tensor::randn(s, dims.hidden, rng);
    const Tensor x1 = Tensor::randn(s, dims.hidden, rng);

    Table ownership({"ownership", "time", "heap allocs", "arena allocs",
                     "peak retained"});
    const auto run = [&](num::ArenaStats* stats, const char* label) {
      num::Layer layer(dims, weights);
      if (stats != nullptr) layer.set_arena_stats(stats);
      num::LayerGrads grads = num::LayerGrads::zeros(dims);
      const std::int64_t heap_before = num::tensor_heap_allocs();
      const std::int64_t arena_before = num::tensor_arena_allocs();
      std::int64_t peak_retained = 0;
      const double time = seconds_of([&] {
        const Tensor y0 = layer.forward_slice(x0, 0);
        const Tensor y1 = layer.forward_slice(x1, s);
        if (stats != nullptr) peak_retained = stats->total_peak_bytes();
        Tensor dy(y1.rows(), y1.cols());
        dy.fill(0.01f);
        layer.backward_slice(dy, grads);
        Tensor dy0(y0.rows(), y0.cols());
        dy0.fill(0.01f);
        layer.backward_slice(dy0, grads);
      });
      ownership.add_row(
          {label, format_time(time),
           std::to_string(num::tensor_heap_allocs() - heap_before),
           std::to_string(num::tensor_arena_allocs() - arena_before),
           stats != nullptr
               ? format_bytes(static_cast<double>(peak_retained))
               : std::string("-")});
    };
    run(nullptr, "heap");
    num::ArenaStats stats;
    run(&stats, "arena");
    slimbench::print_table("block fwd+bwd x2 slices: retained-tensor "
                           "ownership",
                           ownership);

    // Reconcile the measured peaks against the analytical footprint: two
    // slices live at the peak (both forwards done, no backward yet).
    const num::Layer probe(dims, weights);
    const auto fp = probe.slice_footprint(s);
    const double kPeakSlices = 2.0;
    const double kTolerance = 0.5;  // slice units
    const struct {
      const char* name;
      std::int64_t measured;
      std::int64_t unit;
    } checks[] = {
        {"activation", stats.peak_bytes(mem::kActivation),
         fp.activation_bytes},
        {"kv", stats.peak_bytes(mem::kKvCache), fp.kv_bytes},
        {"grads", stats.peak_bytes(mem::kGrads), fp.grad_bytes},
    };
    for (const auto& check : checks) {
      const double units = check.unit > 0
                               ? static_cast<double>(check.measured) /
                                     static_cast<double>(check.unit)
                               : -1.0;
      if (units < kPeakSlices - kTolerance ||
          units > kPeakSlices + kTolerance) {
        std::fprintf(stderr,
                     "FAIL: measured %s peak %lld bytes is %.3f slice units "
                     "(analytical prediction %.1f +- %.1f)\n",
                     check.name, static_cast<long long>(check.measured),
                     units, kPeakSlices, kTolerance);
        reconcile_ok = false;
      }
    }
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!g_all_identical) {
    std::fprintf(stderr,
                 "FAIL: some kernel output was not bit-identical across "
                 "pool widths\n");
    return 1;
  }
  if (!reconcile_ok) return 1;
  return 0;
}
