#pragma once
// The four hbench workloads. Each runs one set-up, measures for
// Options::seconds, checks every output it produced, and fills a Result
// with the end-to-end metrics (trace off) or the per-layer metrics
// (trace on). README.md says why each workload exists.

#include "common.hpp"

namespace hbench {

Result run_train(const Options& opt);
Result run_train_dist(const Options& opt);
/// serve_nodes (batching off) and serve_batched (batching on).
Result run_serve(const Options& opt, bool batching);

}  // namespace hbench
