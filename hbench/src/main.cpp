// hbench: the repository benchmark. One binary, four workloads:
//
//   hbench --workload train|train_dist|serve_nodes|serve_batched
//          --seed N --seconds S --trace 0|1
//
// The last stdout line is the JSON result; a readable metric table comes
// before it and progress goes to stderr. Exits 1 when a correctness check
// fails and 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hbench: %s\nusage: hbench --workload "
               "train|train_dist|serve_nodes|serve_batched --seed N "
               "--seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

double number(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') usage(("bad value for " + flag).c_str());
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  hbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const double s = number(flag, value);
      if (s < 0) usage("--seed must be >= 0");
      opt.seed = static_cast<std::uint64_t>(s);
    } else if (flag == "--seconds") {
      opt.seconds = number(flag, value);
      if (!(opt.seconds > 0 && opt.seconds <= 600)) usage("--seconds out of range");
    } else if (flag == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") usage("--trace must be 0 or 1");
      opt.trace = t == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  hbench::Result result;
  try {
    if (opt.workload == "train") {
      result = hbench::run_train(opt);
    } else if (opt.workload == "train_dist") {
      result = hbench::run_train_dist(opt);
    } else if (opt.workload == "serve_nodes") {
      result = hbench::run_serve(opt, /*batching=*/false);
    } else if (opt.workload == "serve_batched") {
      result = hbench::run_serve(opt, /*batching=*/true);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& m : result.metrics) {
    std::printf("%-30s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
