#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace hbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

CpuTicks CpuTicks::now() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream f("/proc/stat");
  std::string cpu;
  long long field[8] = {};
  f >> cpu;
  for (long long& x : field) f >> x;
  CpuTicks t;
  if (!f || cpu != "cpu") return t;
  t.steal = field[7];
  t.total = std::accumulate(std::begin(field), std::end(field), 0LL);
  return t;
}

double CpuTicks::steal_since(const CpuTicks& start) const {
  const long long total_ticks = total - start.total;
  if (total_ticks <= 0) return 0;
  return static_cast<double>(steal - start.steal) /
         static_cast<double>(total_ticks);
}

double calm_median(const std::vector<double>& values,
                   const std::vector<double>& steal) {
  const double limit = median(steal);
  std::vector<double> calm;
  for (std::size_t i = 0; i < values.size() && i < steal.size(); ++i) {
    if (steal[i] <= limit) calm.push_back(values[i]);
  }
  return median(calm);
}

namespace {
double maxrss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}
}  // namespace

double peak_rss_mb() { return maxrss_mb(RUSAGE_SELF); }
double children_peak_rss_mb() { return maxrss_mb(RUSAGE_CHILDREN); }

void Repeated::run_once() {
  const CpuTicks c0 = CpuTicks::now();
  const auto t0 = Clock::now();
  step_();
  times_.push_back(seconds_since(t0));
  steal_.push_back(CpuTicks::now().steal_since(c0));
}

void Repeated::tick() {
  const auto done = static_cast<double>(times_.size());
  if (static_cast<int>(times_.size()) < reps_ &&
      seconds_since(t0_) >= done * every_s_) {
    run_once();
  }
}

void Repeated::finish() {
  while (static_cast<int>(times_.size()) < reps_) run_once();
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0;
  }
  metrics.push_back({name, value, unit});
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

}  // namespace hbench
