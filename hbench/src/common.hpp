#pragma once
// Shared plumbing for the hbench workloads: options, wall-clock helpers,
// order statistics, hypervisor steal, process memory, repeated set-up
// timing, and the one-line JSON result.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measurement budget of one run
  bool trace = false;   // per-layer run instead of the end-to-end run
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// System-wide CPU time counters of /proc/stat. On a virtual machine,
/// steal is time the hypervisor gave to other guests while this one had
/// work to run; elsewhere it stays 0.
struct CpuTicks {
  long long steal = 0, total = 0;
  static CpuTicks now();
  /// Steal as a share of all CPU time since `start`.
  double steal_since(const CpuTicks& start) const;
};

/// Median of values[i] over the units whose steal[i] is at most the median
/// of `steal`. A unit during which the hypervisor took CPU time away
/// measures the host, not the program; on a shared host such phases last
/// tens of seconds and would otherwise move whole runs. Without steal this
/// is the plain median.
double calm_median(const std::vector<double>& values,
                   const std::vector<double>& steal);

/// Peak resident set of this process, and of its largest reaped child, in MB.
double peak_rss_mb();
double children_peak_rss_mb();

/// What one run reports. Checks that fail mark the run incorrect and are
/// explained on stderr; `attempted`/`failed` count the workload's operations.
struct Result {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit);
  /// Returns `ok`; on failure records the run as incorrect.
  bool check(bool ok, const std::string& what);
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  std::string json() const;
};

/// Times a step (a set-up or a precompute) several times across a run: once
/// on the first tick(), then at even intervals of the measured work, so its
/// median samples the same host conditions as the work itself. finish()
/// runs whatever repeats are left.
class Repeated {
 public:
  Repeated(std::function<void()> step, int reps, double run_s)
      : step_(std::move(step)), reps_(reps), every_s_(run_s / reps) {}
  void tick();
  void finish();
  double median_s() const { return calm_median(times_, steal_); }

 private:
  void run_once();
  std::function<void()> step_;
  int reps_;
  double every_s_;
  Clock::time_point t0_ = Clock::now();
  std::vector<double> times_, steal_;
};

/// Human-readable progress line on stderr (stdout carries the result).
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace hbench
