// train and train_dist: the paper's Fig-5 job on the mapped 64-bit CSA
// multiplier, single-process through train::train_hoga_node and
// multi-process through dist::run_distributed.

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <thread>

#include "autograd/ops.hpp"
#include "dist/dist.hpp"
#include "dist/sharding.hpp"
#include "dist/wire.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "optim/optim.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels.hpp"
#include "train/node_trainer.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace hbench {
namespace {

using namespace hoga;

constexpr int kBits = 64;
constexpr std::int64_t kBatch = 512;
constexpr int kSetupReps = 5;
constexpr int kFeaturizeReps = 10;
// Two workers, not three: with three, coordinator and workers keep all four
// vCPUs busy, and on a shared host the hypervisor then steals enough CPU
// time to halve a run's throughput for minutes at a time.
constexpr int kDistWorkers = 2;
// Six logical shards split evenly over 1, 2, 3 or 6 workers; 6 x 86 rows
// per step keeps a dist step the size of a train step (512 rows).
constexpr int kDistShards = 6;
constexpr std::int64_t kDistShardBatch = 86;

train::NodeTrainConfig train_config(std::uint64_t seed) {
  train::NodeTrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = kBatch;
  cfg.seed = seed;
  return cfg;
}

core::Hoga fresh_model(std::uint64_t seed) {
  Rng rng(seed);
  return core::Hoga(model_config(), rng);
}

std::int64_t steps_per_epoch(std::int64_t n) { return (n + kBatch - 1) / kBatch; }

bool same_float(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One measured epoch of train_hoga_node from a fresh seeded model.
struct Epoch {
  double seconds = 0;
  float loss = 0;
};

Epoch train_epoch(const core::HopFeatures& hops, const std::vector<int>& labels,
                  std::uint64_t seed) {
  core::Hoga model = fresh_model(seed);
  const auto t0 = Clock::now();
  const train::TrainLog log =
      train::train_hoga_node(model, hops, labels, train_config(seed));
  Epoch e;
  e.seconds = seconds_since(t0);
  e.loss = log.epoch_losses.empty() ? NAN : log.epoch_losses[0];
  return e;
}

/// Per-step layer times of the traced replay, summed over one epoch.
struct StepLayers {
  double gather = 0, zero_grad = 0, forward = 0, loss = 0, backward = 0,
         clip = 0, adam = 0, step = 0;
  double covered() const {
    return gather + zero_grad + forward + loss + backward + clip + adam;
  }
  void add(const StepLayers& o) {
    gather += o.gather;
    zero_grad += o.zero_grad;
    forward += o.forward;
    loss += o.loss;
    backward += o.backward;
    clip += o.clip;
    adam += o.adam;
    step += o.step;
  }
};

/// The traced replay: the program train_hoga_node runs for one epoch
/// (node_trainer.cpp and run_fault_tolerant_epochs), written out from the
/// same public calls in the same order, with a timer around each layer.
/// Returns the epoch's mean loss exactly as the trainer computes it.
float traced_epoch(const core::HopFeatures& hops, const std::vector<int>& labels,
                   std::uint64_t seed, StepLayers* layers, double* wall_s) {
  const train::NodeTrainConfig cfg = train_config(seed);
  core::Hoga model = fresh_model(seed);
  const std::int64_t n = hops.num_nodes();
  Rng rng(cfg.seed);
  optim::Adam opt(model.parameters(), cfg.lr);
  model.set_training(true);
  bool finite = true;
  const auto t_epoch = Clock::now();
  const double mean_loss = with_arena([&] {
    std::vector<std::int64_t> ids(static_cast<std::size_t>(n));
    std::iota(ids.begin(), ids.end(), 0);
    rng.shuffle(ids);
    double epoch_loss = 0;
    std::int64_t batches = 0;
    for (std::int64_t lo = 0; lo < n; lo += cfg.batch_size) {
      const auto t_step = Clock::now();
      const std::int64_t hi = std::min(n, lo + cfg.batch_size);
      std::vector<std::int64_t> batch(ids.begin() + lo, ids.begin() + hi);
      auto t = Clock::now();
      auto lap = [&t](double& acc) {
        const auto now = Clock::now();
        acc += std::chrono::duration<double>(now - t).count();
        t = now;
      };
      opt.zero_grad();
      lap(layers->zero_grad);
      ag::Variable input = ag::constant(hops.gather(batch));
      std::vector<int> batch_labels;
      batch_labels.reserve(batch.size());
      for (std::int64_t i : batch) {
        batch_labels.push_back(labels[static_cast<std::size_t>(i)]);
      }
      lap(layers->gather);
      ag::Variable logits = model.forward(input, rng);
      lap(layers->forward);
      ag::Variable loss =
          ag::softmax_cross_entropy(logits, batch_labels, cfg.class_weights);
      lap(layers->loss);
      loss.backward();
      fault::maybe_corrupt_gradients(opt.params());
      lap(layers->backward);
      const float max_norm = cfg.grad_clip > 0
                                 ? cfg.grad_clip
                                 : std::numeric_limits<float>::infinity();
      const float norm = optim::clip_grad_norm(opt.params(), max_norm);
      lap(layers->clip);
      if (!std::isfinite(loss.value().data()[0]) || !std::isfinite(norm)) {
        finite = false;
        return 0.0;
      }
      opt.step();
      lap(layers->adam);
      epoch_loss += loss.value().data()[0];
      ++batches;
      layers->step += seconds_since(t_step);
    }
    return epoch_loss / std::max<std::int64_t>(1, batches);
  });
  *wall_s = seconds_since(t_epoch);
  return finite ? static_cast<float>(mean_loss) : NAN;
}

}  // namespace

Result run_train(const Options& opt) {
  Result res;
  Inputs in(kBits, [&opt] { fresh_model(opt.seed); }, kSetupReps,
            kFeaturizeReps, opt.seconds, res);
  const std::int64_t n = in.graph().num_nodes;
  const std::int64_t steps = steps_per_epoch(n);

  // Epochs until the budget is spent. Each starts from the same seeded
  // model, so each must reproduce the first loss. The traced run
  // alternates plain epochs with traced replays, under this benchmark's
  // registry (the program's own obs hooks on).
  obs::MetricsRegistry registry;
  std::vector<double> epoch_s, epoch_steal, replay_s, replay_steal;
  StepLayers sum;
  double gemm_calls = 0, gemm_flops = 0, pack_bytes = 0;
  float first_loss = NAN;
  const auto t0 = Clock::now();
  for (int i = 0; epoch_s.size() < 2 || replay_s.size() < (opt.trace ? 2u : 0u) ||
                  seconds_since(t0) < opt.seconds;
       ++i) {
    const CpuTicks c0 = CpuTicks::now();
    if (opt.trace && i % 2 == 1) {
      obs::ScopedObservability scoped({.metrics = &registry});
      StepLayers layers;
      double wall = 0;
      kernels::reset_stats();
      const float loss =
          traced_epoch(in.hops(), in.graph().labels, opt.seed, &layers, &wall);
      gemm_calls += static_cast<double>(kernels::stats().gemm_calls.load());
      gemm_flops += static_cast<double>(kernels::stats().gemm_flops.load());
      pack_bytes += static_cast<double>(kernels::stats().pack_bytes.load());
      const bool ok = res.check(same_float(loss, first_loss),
                                "traced replay loss differs from train_hoga_node's");
      res.attempted += steps;
      if (!ok) res.failed += steps;
      replay_s.push_back(wall);
      replay_steal.push_back(CpuTicks::now().steal_since(c0));
      sum.add(layers);
      note("traced replay %zu: %.3f s, loss %.6f", replay_s.size(), wall, loss);
    } else {
      const Epoch e = train_epoch(in.hops(), in.graph().labels, opt.seed);
      if (epoch_s.empty()) first_loss = e.loss;
      const bool ok =
          res.check(std::isfinite(e.loss) && same_float(e.loss, first_loss),
                    "train epoch loss differs from the first epoch");
      res.attempted += steps;
      if (!ok) res.failed += steps;
      epoch_s.push_back(e.seconds);
      epoch_steal.push_back(CpuTicks::now().steal_since(c0));
      note("train epoch %zu: %.3f s, loss %.6f", epoch_s.size(), e.seconds,
           e.loss);
    }
    in.tick();
  }
  in.finish();
  const double epoch_med = calm_median(epoch_s, epoch_steal);

  if (!opt.trace) {
    res.metric("setup_s", in.setup_s(), "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    res.metric("featurize_s", in.featurize_s(), "s");
    res.metric("rows_per_s", static_cast<double>(n) / epoch_med, "rows/s");
    res.metric("p50_ms", 1e3 * epoch_med / static_cast<double>(steps), "ms");
    res.metric("goodput_rps", static_cast<double>(steps) / epoch_med, "1/s");
    return res;
  }

  const double total_steps =
      static_cast<double>(steps) * static_cast<double>(replay_s.size());
  const auto per_step_ms = [&](double s) { return 1e3 * s / total_steps; };
  const double coverage = sum.covered() / sum.step;
  if (coverage < 0.95) {
    note("WARNING: traced layers cover %.1f%% of the step wall (< 95%%)",
         100 * coverage);
  }
  res.metric("core.gather_ms", per_step_ms(sum.gather), "ms");
  res.metric("core.forward_ms", per_step_ms(sum.forward), "ms");
  res.metric("autograd.loss_ms", per_step_ms(sum.loss), "ms");
  res.metric("autograd.backward_ms", per_step_ms(sum.backward), "ms");
  res.metric("optim.zero_grad_ms", per_step_ms(sum.zero_grad), "ms");
  res.metric("optim.clip_ms", per_step_ms(sum.clip), "ms");
  res.metric("optim.adam_ms", per_step_ms(sum.adam), "ms");
  res.metric("train.step_ms", per_step_ms(sum.step), "ms");
  res.metric("train.coverage", coverage, "ratio");
  res.metric("train.coverage_ok", coverage >= 0.95 ? 1 : 0, "bool");
  res.metric("tensor.gemm_calls_per_step", gemm_calls / total_steps, "count");
  res.metric("tensor.gemm_flops_per_step", gemm_flops / total_steps, "flop");
  res.metric("tensor.pack_bytes_per_step", pack_bytes / total_steps, "B");
  res.metric("tensor.arena_high_water_mb",
             static_cast<double>(registry.counter("arena.high_water").value()) /
                 (1024.0 * 1024.0),
             "MB");
  res.metric("graph.spmm_gflops", in.spmm_gflops(), "GFLOP/s");
  res.metric("obs.trace_overhead_frac",
             calm_median(replay_s, replay_steal) / epoch_med - 1, "ratio");
  return res;
}

namespace {

dist::DistConfig dist_config(std::uint64_t seed, int workers) {
  dist::DistConfig cfg;
  cfg.workers = workers;
  cfg.epochs = 1;
  cfg.num_shards = kDistShards;
  cfg.batch_size = kDistShardBatch;
  cfg.seed = seed;
  cfg.grad_clip = train_config(seed).grad_clip;
  return cfg;
}

std::int64_t dist_steps(std::int64_t rows) {
  std::int64_t max_rows = 0;
  for (const auto& s : dist::make_shards(rows, kDistShards, /*digest=*/0)) {
    max_rows = std::max(max_rows, s.rows());
  }
  return (max_rows + kDistShardBatch - 1) / kDistShardBatch;
}

/// Median round trip, in microseconds, of a `bytes`-payload ShardGrad
/// message echoed over a dist channel pair by a second thread.
double wire_rtt_us(std::size_t bytes, int rounds, Result& res) {
  const dist::ChannelPair fds = dist::make_channel_pair();
  std::string echo_error;
  std::thread echo([fd = fds.worker_fd, rounds, &echo_error] {
    try {
      dist::Channel ch(fd, dist::WireConfig{});
      for (int i = 0; i < rounds; ++i) {
        auto m = ch.recv(5000);
        if (!m) throw std::runtime_error("echo: receive timed out");
        ch.send(*m);
      }
    } catch (const std::exception& e) {
      echo_error = e.what();
    }
  });
  std::vector<double> rtt;
  {
    dist::Channel ch(fds.coordinator_fd, dist::WireConfig{});
    const dist::Message msg{dist::MsgType::kShardGrad, 0, 0, 0,
                            std::string(bytes, '\x5a')};
    try {
      for (int i = 0; i < rounds; ++i) {
        const auto t0 = Clock::now();
        ch.send(msg);
        auto back = ch.recv(5000);
        rtt.push_back(1e6 * seconds_since(t0));
        if (!back || back->payload != msg.payload) {
          throw std::runtime_error("echoed payload differs");
        }
      }
    } catch (const std::exception& e) {
      res.check(false, std::string("wire ping-pong: ") + e.what());
    }
    echo.join();
  }
  res.check(echo_error.empty(), "wire echo: " + echo_error);
  return median(rtt);
}

}  // namespace

Result run_train_dist(const Options& opt) {
  Result res;
  Inputs in(kBits, [&opt] { fresh_model(opt.seed); }, kSetupReps,
            kFeaturizeReps, opt.seconds, res);
  const data::ReasoningGraph& g = in.graph();
  const std::int64_t n = g.num_nodes;
  const std::int64_t steps = dist_steps(n);
  const core::HogaConfig mcfg = model_config();
  const dist::DistConfig cfg = dist_config(opt.seed, kDistWorkers);

  // The byte-identity target: the single-process run of the same schedule.
  // This first run is not timed.
  const dist::DistResult ref =
      dist::run_reference(mcfg, *g.adj_hop, g.features, g.labels, cfg);
  note("reference: %.3f s, loss %.6f", ref.seconds, ref.epoch_losses.at(0));

  // The first forked run pays one-off costs (page faults in the new
  // workers); it is checked but not timed.
  const dist::DistResult w =
      dist::run_distributed(mcfg, *g.adj_hop, g.features, g.labels, cfg);
  res.check(w.final_state == ref.final_state,
            "warm-up run_distributed final state differs from run_reference");

  // The traced run cycles through a plain run, a run under this
  // benchmark's registry (the program's own obs hooks on) and a timed
  // run_reference, so dist.ref_step_ms and dist.step_ms are medians over
  // the same host conditions. Only plain runs give the per-layer dist
  // numbers.
  enum class Kind { kPlain, kTraced, kReference };
  obs::MetricsRegistry registry;
  std::vector<double> run_s, traced_s, ref_s, bytes, retx;
  std::vector<double> run_steal, traced_steal, ref_steal;
  int recoveries = 0;
  const auto t0 = Clock::now();
  const double budget = opt.trace ? opt.seconds * 0.8 : opt.seconds;
  const std::size_t min_other = opt.trace ? 2 : 0;
  for (int i = 0; run_s.size() < 2 || traced_s.size() < min_other ||
                  ref_s.size() < min_other || seconds_since(t0) < budget;
       ++i) {
    const Kind kind = opt.trace ? static_cast<Kind>(i % 3) : Kind::kPlain;
    std::optional<obs::ScopedObservability> scoped;
    if (kind == Kind::kTraced) {
      scoped.emplace(obs::Observability{.metrics = &registry});
    }
    const CpuTicks c0 = CpuTicks::now();
    const dist::DistResult r =
        kind == Kind::kReference
            ? dist::run_reference(mcfg, *g.adj_hop, g.features, g.labels, cfg)
            : dist::run_distributed(mcfg, *g.adj_hop, g.features, g.labels, cfg);
    const double steal = CpuTicks::now().steal_since(c0);
    bool ok = res.check(r.final_state == ref.final_state,
                        "final state differs from the first run_reference");
    ok = res.check(r.recoveries == 0, "recovery on the clean workload") && ok;
    res.attempted += steps;
    if (!ok) res.failed += steps;
    recoveries += r.recoveries;
    static const char* const kLabel[] = {"dist run", "dist run (traced)",
                                         "reference"};
    note("%s %d: %.3f s, %lld bytes", kLabel[static_cast<int>(kind)], i + 1,
         r.seconds, r.bytes_sent);
    in.tick();
    if (kind == Kind::kTraced) {
      traced_s.push_back(r.seconds);
      traced_steal.push_back(steal);
      continue;
    }
    if (kind == Kind::kReference) {
      ref_s.push_back(r.seconds);
      ref_steal.push_back(steal);
      continue;
    }
    run_s.push_back(r.seconds);
    run_steal.push_back(steal);
    bytes.push_back(static_cast<double>(r.bytes_sent));
    retx.push_back(static_cast<double>(r.retransmits));
  }
  in.finish();
  const double run_med = calm_median(run_s, run_steal);
  const double coord_rss = peak_rss_mb();
  const double worker_rss = children_peak_rss_mb();

  if (!opt.trace) {
    res.metric("setup_s", in.setup_s(), "s");
    res.metric("peak_rss_mb", std::max(coord_rss, worker_rss), "MB");
    res.metric("featurize_s", in.featurize_s(), "s");
    res.metric("rows_per_s", static_cast<double>(n) / run_med, "rows/s");
    res.metric("p50_ms", 1e3 * run_med / static_cast<double>(steps), "ms");
    res.metric("goodput_rps", static_cast<double>(steps) / run_med, "1/s");
    return res;
  }

  std::size_t grad_bytes = 64;  // message header allowance
  for (const auto& p : fresh_model(opt.seed).parameters()) {
    grad_bytes += sizeof(float) * static_cast<std::size_t>(p.value().numel());
  }
  const double step_ms = 1e3 * run_med / static_cast<double>(steps);
  // Both walls include phase 1 (each run computes its hop features).
  const double ref_step_ms =
      1e3 * calm_median(ref_s, ref_steal) / static_cast<double>(steps);
  res.metric("dist.step_ms", step_ms, "ms");
  res.metric("dist.ref_step_ms", ref_step_ms, "ms");
  res.metric("dist.scaling_eff", ref_step_ms / (kDistWorkers * step_ms), "ratio");
  res.metric("dist.bytes_per_step", median(bytes) / static_cast<double>(steps), "B");
  res.metric("dist.retransmits", mean(retx), "count");
  res.metric("dist.recoveries", recoveries, "count");
  res.metric("dist.coordinator_rss_mb", coord_rss, "MB");
  res.metric("dist.worker_rss_mb", worker_rss, "MB");
  res.metric("wire.rtt_us", wire_rtt_us(grad_bytes, 400, res), "us");
  res.metric("graph.spmm_gflops", in.spmm_gflops(), "GFLOP/s");
  res.metric("obs.trace_overhead_frac",
             calm_median(traced_s, traced_steal) / run_med - 1, "ratio");
  return res;
}

}  // namespace hbench
