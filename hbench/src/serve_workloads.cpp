// serve_nodes and serve_batched: node queries against
// serve::InferenceService, batching off (pool executor) and on (batch
// scheduler), with the same request stream and the same schedule. Latency
// is measured open loop at fixed offered rates, capacity closed loop.

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "autograd/ops.hpp"
#include "core/hoga_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/serve.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace hbench {
namespace {

using namespace hoga;

constexpr int kBits = 32;
constexpr int kSetupReps = 9;
constexpr int kFeaturizeReps = 15;
constexpr int kSenders = 4;            // concurrent callers (= nproc)
constexpr int kPayloads = 2048;        // distinct queries, reused round robin
// Rows per query: the skewed-small 1-8 row mix of bench/bench_serving.cpp
// (2.75 rows on average). It is an assumption, not a measured trace.
constexpr std::int64_t kSizes[] = {1, 1, 1, 2, 2, 3, 4, 8};
constexpr double kLimitMs = 10;        // latency limit, from the due time
constexpr double kMeetShare = 0.99;    // share that must meet the limit
constexpr double kWarmupSeconds = 0.05;  // per fresh service, nominal rate
constexpr double kSliceSeconds = 2;    // one round over all legs
constexpr std::chrono::microseconds kSpinLead{150};
// The closed loop's goodput is read per window of this length, each with
// the hypervisor's steal share in it (steal is counted in 10 ms ticks).
constexpr std::chrono::milliseconds kWindow{200};

// Offered rates in requests/s, shared by both workloads; the first is the
// nominal rate. The ladder straddles the batched path's knee: with <= 4
// callers no batch reaches the eager-close threshold, so each waits out
// the 2 ms linger and capacity is about 4 / 2 ms = 2k req/s. The pool path
// keeps up at every rate.
const std::vector<double> kRates = {1000, 2000, 5000};
constexpr double kClosedLoop = 0;  // in place of a rate: the closed loop
// A rate past capacity stops sending at this multiple of its schedule, so
// a backlog cannot stretch the run; unsent queries count as missed.
constexpr double kRungCutoff = 1.5;

struct Query {
  Tensor payload;   // [b, K+1, d0] hop-feature rows
  Tensor expected;  // forward_eval of payload, computed outside the service
};

/// What one offered rate produced, pooled over the slices it ran in.
struct Rung {
  double rate = 0;
  double elapsed_s = 0;  // per slice: the longer of schedule and wall time
  // Closed loop: scheduled == sent, latency runs from the send time, and
  // no per-query latency or lag is kept, so the benchmark's own memory does
  // not grow with the service's throughput.
  long long scheduled = 0, sent = 0, good = 0, failed = 0;
  long long rows_good = 0;
  std::vector<double> latency_ms;  // completion - due time
  std::vector<double> lag_ms;      // send time - due time
  // Per open-loop slice, or per kWindow of the closed loop: p50 latency
  // (open loop only), queries and rows served correct within the limit per
  // second, and the hypervisor's steal share (CpuTicks).
  std::vector<double> slice_p50, slice_goodput, slice_rows_per_s, slice_steal;
  // What the slices' services counted, summed.
  std::vector<double> in_service_ms;  // ServeStats::latencies_ms
  long long rejected_overload = 0, timed_out = 0;
  long long batches = 0, batch_rows = 0, batch_requests = 0;
  long long closed_linger = 0, closed_eager = 0;
  double queue_wait_sum_ms = 0;  // serve.queue_wait_ms, when a registry is wired
  long long queue_wait_count = 0;
  double p(double q) const { return quantile(latency_ms, q); }
  bool meets() const {
    return static_cast<double>(good) >=
           kMeetShare * static_cast<double>(scheduled);
  }
  double per_s(long long n) const {
    return static_cast<double>(n) / std::max(elapsed_s, 1e-9);
  }
  double goodput() const { return per_s(good); }
  /// Medians over the calm slices or windows (calm_median).
  double calm_p50() const { return calm_median(slice_p50, slice_steal); }
  double calm_goodput() const { return calm_median(slice_goodput, slice_steal); }
  double calm_rows_per_s() const {
    return calm_median(slice_rows_per_s, slice_steal);
  }
  void add(const Rung& o) {
    rate = o.rate;
    elapsed_s += o.elapsed_s;
    scheduled += o.scheduled;
    sent += o.sent;
    good += o.good;
    failed += o.failed;
    rows_good += o.rows_good;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    for (auto [to, from] : {std::pair{&slice_p50, &o.slice_p50},
                            std::pair{&slice_goodput, &o.slice_goodput},
                            std::pair{&slice_rows_per_s, &o.slice_rows_per_s},
                            std::pair{&slice_steal, &o.slice_steal}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    in_service_ms.insert(in_service_ms.end(), o.in_service_ms.begin(),
                         o.in_service_ms.end());
    rejected_overload += o.rejected_overload;
    timed_out += o.timed_out;
    batches += o.batches;
    batch_rows += o.batch_rows;
    batch_requests += o.batch_requests;
    closed_linger += o.closed_linger;
    closed_eager += o.closed_eager;
    queue_wait_sum_ms += o.queue_wait_sum_ms;
    queue_wait_count += o.queue_wait_count;
  }
};

/// Sends queries from kSenders callers for `span_s` seconds. With a rate
/// the load is open loop: queries are due at seeded Poisson arrival times
/// and a free caller takes the next due one, so a stall delays later
/// queries and shows as lag and latency. With kClosedLoop each caller sends
/// its next query as soon as the last one returns, so the completions per
/// second are the service's capacity for kSenders callers.
Rung send(serve::InferenceService& svc, const std::vector<Query>& queries,
          double rate, double span_s, std::uint64_t seed,
          long long first_query, Result& res) {
  const bool closed = rate == kClosedLoop;
  const auto count =
      closed ? std::numeric_limits<long long>::max()
             : static_cast<long long>(rate * span_s);
  std::vector<double> due_s;
  if (!closed) {
    Rng rng(seed);
    due_s.resize(static_cast<std::size_t>(count));
    double t = 0.002;  // lead-in so the first sends are not already late
    for (auto& d : due_s) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      d = t;
    }
  }
  Rung rung;
  rung.rate = rate;
  const auto after = [](double s) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };
  const auto cutoff = after(closed ? span_s : kRungCutoff * span_s);
  std::atomic<long long> next{0}, sent{0};
  std::atomic<long long> good{0}, failed{0}, rows_good{0}, mismatched{0};
  std::vector<std::vector<double>> latency(kSenders), lag(kSenders);
  const auto t0 = Clock::now();
  auto sender = [&](int s) {
    for (;;) {
      const long long i = next.fetch_add(1);
      if (i >= count || Clock::now() > cutoff) return;
      sent.fetch_add(1);
      auto due = Clock::now();
      if (!closed) {
        due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
        // Sleep to just before the due time, then spin: the sender's own
        // wake-up jitter would otherwise show up as service latency. The
        // spin yields, so a service thread woken on this CPU runs at once.
        std::this_thread::sleep_until(due - kSpinLead);
        while (Clock::now() < due) {
          std::this_thread::yield();
        }
      }
      const auto sent_at = Clock::now();
      const Query& q =
          queries[static_cast<std::size_t>((first_query + i) % kPayloads)];
      serve::Request req;
      req.hop_batch = q.payload;
      const serve::Response r = svc.infer(req);
      const auto done = Clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(done - due).count();
      if (!closed) {
        latency[s].push_back(ms);
        lag[s].push_back(
            std::chrono::duration<double, std::milli>(sent_at - due).count());
      }
      if (r.outcome != serve::Outcome::kServed) {
        failed.fetch_add(1);
        continue;
      }
      if (r.output.numel() != q.expected.numel() ||
          std::memcmp(r.output.data(), q.expected.data(),
                      sizeof(float) * q.expected.numel()) != 0) {
        mismatched.fetch_add(1);
        failed.fetch_add(1);
        continue;
      }
      if (ms <= kLimitMs) {
        good.fetch_add(1);
        rows_good.fetch_add(q.payload.size(0));
      }
    }
  };
  const CpuTicks c0 = CpuTicks::now();
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) threads.emplace_back(sender, s);
  if (closed) {
    // Steal comes in phases of seconds to minutes and slows every
    // completion in them; windows let calm_median set the stolen ones
    // aside within a slice.
    auto w0 = t0;
    CpuTicks c = c0;
    long long g = 0, rows = 0;
    while (w0 + kWindow <= cutoff) {
      std::this_thread::sleep_until(w0 + kWindow);
      const auto w1 = Clock::now();
      const CpuTicks c1 = CpuTicks::now();
      const long long g1 = good.load(), rows1 = rows_good.load();
      const double s = std::chrono::duration<double>(w1 - w0).count();
      rung.slice_goodput.push_back(static_cast<double>(g1 - g) / s);
      rung.slice_rows_per_s.push_back(static_cast<double>(rows1 - rows) / s);
      rung.slice_steal.push_back(c1.steal_since(c));
      w0 = w1;
      c = c1;
      g = g1;
      rows = rows1;
    }
  }
  for (auto& th : threads) th.join();
  rung.elapsed_s =
      closed ? seconds_since(t0) : std::max(span_s, seconds_since(t0));
  for (int s = 0; s < kSenders; ++s) {
    rung.latency_ms.insert(rung.latency_ms.end(), latency[s].begin(),
                           latency[s].end());
    rung.lag_ms.insert(rung.lag_ms.end(), lag[s].begin(), lag[s].end());
  }
  rung.sent = sent;
  rung.scheduled = closed ? rung.sent : count;
  rung.good = good;
  rung.failed = failed;
  rung.rows_good = rows_good;
  if (!closed) {
    rung.slice_p50 = {rung.p(0.5)};
    rung.slice_goodput = {rung.goodput()};
    rung.slice_rows_per_s = {rung.per_s(rung.rows_good)};
    rung.slice_steal = {CpuTicks::now().steal_since(c0)};
  }
  res.check(mismatched == 0, std::to_string(mismatched.load()) +
                                 " served outputs differ from forward_eval");
  res.attempted += rung.sent;
  res.failed += rung.failed;
  return rung;
}

/// One slice of one rate on a fresh service: each slice samples a new
/// placement of the service's threads, which otherwise biases a whole run.
/// A short warm-up precedes the measured part.
Rung run_slice(const core::Hoga& model, const serve::ServeConfig& cfg,
               const std::vector<Query>& queries, double rate, double span_s,
               std::uint64_t seed, long long first_query, Result& res) {
  serve::InferenceService svc(model, cfg);
  Result warm;
  send(svc, queries, kRates.front(), kWarmupSeconds, seed ^ 0x5eed, 0, warm);
  res.check(warm.correct, "warm-up outputs differ from forward_eval");
  svc.reset_stats();
  obs::Histogram qwait;
  if (cfg.metrics != nullptr) {
    qwait = cfg.metrics->histogram("serve.queue_wait_ms", obs::latency_ms_bounds());
  }
  const long long qwait_count = qwait.count();
  const double qwait_sum = qwait.sum();

  Rung r = send(svc, queries, rate, span_s, seed, first_query, res);
  const serve::ServeStats st = svc.stats();
  const batch::BatchStats bs = svc.batch_stats();
  if (rate != kClosedLoop) r.in_service_ms = st.latencies_ms;
  r.rejected_overload = st.rejected_overload;
  r.timed_out = st.timed_out;
  r.batches = bs.batches;
  r.batch_rows = bs.rows;
  r.batch_requests = bs.submitted;
  r.closed_linger = bs.closed_linger;
  r.closed_eager = bs.closed_eager;
  r.queue_wait_count = qwait.count() - qwait_count;
  r.queue_wait_sum_ms = qwait.sum() - qwait_sum;
  return r;
}

}  // namespace

Result run_serve(const Options& opt, bool batching) {
  Result res;
  serve::ServeConfig scfg;
  scfg.batching = batching;
  Inputs in(
      kBits,
      [&] {
        Rng rng(opt.seed);
        const core::Hoga model(model_config(), rng);
        serve::InferenceService svc(model, scfg);
      },
      kSetupReps, kFeaturizeReps, opt.seconds, res);
  const data::ReasoningGraph& g = in.graph();
  const core::HopFeatures& hops = in.hops();

  // The size mix is fixed (so rows per query do not vary with the seed);
  // which size goes to which query, and the rows, come from the seed.
  Rng rng(opt.seed);
  const core::Hoga model(model_config(), rng);
  std::vector<std::int64_t> sizes(kPayloads);
  for (int i = 0; i < kPayloads; ++i) {
    sizes[static_cast<std::size_t>(i)] = kSizes[i % std::size(kSizes)];
  }
  rng.shuffle(sizes);
  std::vector<Query> queries(kPayloads);
  long long total_rows = 0;
  for (int k = 0; k < kPayloads; ++k) {
    std::vector<std::int64_t> ids;
    for (std::int64_t i = 0; i < sizes[static_cast<std::size_t>(k)]; ++i) {
      ids.push_back(static_cast<std::int64_t>(
          rng.uniform_int(static_cast<std::uint64_t>(g.num_nodes))));
    }
    Query& q = queries[static_cast<std::size_t>(k)];
    q.payload = hops.gather(ids);
    q.expected = model.forward_eval(ag::constant(q.payload)).value();
    total_rows += static_cast<long long>(ids.size());
  }
  note("queries: %d payloads, %.2f rows each on average", kPayloads,
       static_cast<double>(total_rows) / kPayloads);

  // A leg is one rate on one service configuration. Legs run in short
  // slices, round robin, so slow drifts of the host spread over every leg
  // alike instead of biasing whichever ran first or last.
  struct Leg {
    const serve::ServeConfig* cfg;
    double rate;
  };
  long long next_query = 0;
  std::uint64_t slice_seed = opt.seed * 1000003;
  auto run_legs = [&](const std::vector<Leg>& legs, double seconds) {
    std::vector<Rung> pooled(legs.size());
    const int rounds = std::max(1, static_cast<int>(seconds / kSliceSeconds));
    const double slice_s = seconds / rounds / static_cast<double>(legs.size());
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t k = 0; k < legs.size(); ++k) {
        const Rung slice = run_slice(model, *legs[k].cfg, queries, legs[k].rate,
                                     slice_s, ++slice_seed, next_query, res);
        next_query += slice.scheduled;
        pooled[k].add(slice);
      }
      in.tick();
    }
    for (const Rung& p : pooled) {
      const double within =
          100.0 * static_cast<double>(p.good) / static_cast<double>(p.scheduled);
      if (p.rate == kClosedLoop) {
        note("closed loop: goodput %.0f/s (calm median of slices), %.1f%% "
             "within %.0f ms",
             p.calm_goodput(), within, kLimitMs);
        continue;
      }
      note("%6.0f/s: p50 %.3f ms, p99 %.3f ms, %.1f%% within %.0f ms, "
           "goodput %.0f/s, lag p50 %.3f ms",
           p.rate, p.p(0.5), p.p(0.99), within, kLimitMs, p.goodput(),
           median(p.lag_ms));
    }
    return pooled;
  };

  if (!opt.trace) {
    // Latency at the nominal rate; capacity (goodput at an unbounded
    // offered rate) from the closed loop. Below capacity an open-loop rate
    // only reads back its own offered rate.
    const std::vector<Rung> legs =
        run_legs({{&scfg, kRates.front()}, {&scfg, kClosedLoop}}, opt.seconds);
    const Rung& nominal = legs[0];
    const Rung& closed = legs[1];
    in.finish();
    res.metric("setup_s", in.setup_s(), "s");
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    res.metric("featurize_s", in.featurize_s(), "s");
    res.metric("rows_per_s", closed.calm_rows_per_s(), "rows/s");
    res.metric("p50_ms", nominal.calm_p50(), "ms");
    res.metric("goodput_rps", closed.calm_goodput(), "1/s");
    return res;
  }

  // The traced run spends two thirds of its budget on the ladder and the
  // rest on the nominal rate, plain and with tracing wired in.
  std::vector<Leg> ladder_legs;
  for (double rate : kRates) ladder_legs.push_back({&scfg, rate});
  const std::vector<Rung> ladder = run_legs(ladder_legs, opt.seconds * 2 / 3);
  const Rung& nominal = ladder.front();
  double max_rate = 0;
  Rung all;  // the whole ladder, for the service counters
  for (const Rung& r : ladder) {
    if (r.meets()) max_rate = std::max(max_rate, r.rate);
    all.add(r);
  }
  obs::MetricsRegistry registry;
  obs::Tracer tracer(nullptr, 1 << 17);
  serve::ServeConfig tcfg = scfg;
  tcfg.metrics = &registry;
  tcfg.tracer = &tracer;
  const std::vector<Rung> pair =
      run_legs({{&scfg, kRates.front()}, {&tcfg, kRates.front()}}, opt.seconds / 3);
  const Rung& traced = pair[1];

  // forward_eval alone, single caller, on the same payloads.
  std::vector<double> fwd_us;
  for (const Query& q : queries) {
    const auto t0 = Clock::now();
    const Tensor out = model.forward_eval(ag::constant(q.payload)).value();
    fwd_us.push_back(1e6 * seconds_since(t0));
  }
  const double in_service_ms = median(traced.in_service_ms);
  const auto batches = static_cast<double>(std::max(1LL, all.batches));

  res.metric("serve.p99_ms", nominal.p(0.99), "ms");
  res.metric("serve.max_rate_rps", max_rate, "1/s");
  res.metric("serve.in_service_ms", in_service_ms, "ms");
  res.metric("serve.queue_wait_ms",
             traced.queue_wait_count > 0
                 ? traced.queue_wait_sum_ms / static_cast<double>(traced.queue_wait_count)
                 : 0,
             "ms");
  res.metric("core.forward_eval_us", median(fwd_us), "us");
  res.metric("serve.overhead_ms", in_service_ms - median(fwd_us) / 1e3, "ms");
  res.metric("serve.rejected_overload", static_cast<double>(all.rejected_overload),
             "count");
  res.metric("serve.timed_out", static_cast<double>(all.timed_out), "count");
  res.metric("batch.rows_per_batch", static_cast<double>(all.batch_rows) / batches,
             "rows");
  res.metric("batch.requests_per_batch",
             static_cast<double>(all.batch_requests) / batches, "count");
  res.metric("batch.closed_linger_frac",
             static_cast<double>(all.closed_linger) / batches, "ratio");
  res.metric("batch.closed_eager_frac",
             static_cast<double>(all.closed_eager) / batches, "ratio");
  res.metric("gen.lag_ms", median(nominal.lag_ms), "ms");
  in.finish();
  res.metric("graph.spmm_gflops", in.spmm_gflops(), "GFLOP/s");
  res.metric("obs.trace_overhead_frac", traced.p(0.5) / pair[0].p(0.5) - 1,
             "ratio");
  return res;
}

}  // namespace hbench
