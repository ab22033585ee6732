#pragma once
// What every workload starts from: a mapped CSA multiplier, its graph
// inputs and its phase-1 hop features, for the one model shape all
// workloads share.

#include <functional>

#include "common.hpp"
#include "core/hoga_model.hpp"
#include "core/hop_features.hpp"
#include "data/reasoning_dataset.hpp"

namespace hbench {

/// HOGA-5, hidden 32, one gated layer, 4 classes.
hoga::core::HogaConfig model_config();

/// The workload's inputs. Set-up (circuit, mapping, labels, graphs, plus
/// the workload's own `build_rest`, such as a model or a service) and
/// phase 1 (Eq. 3) are each repeated across the run so their medians see
/// the same host as the measured work; every phase-1 repeat must reproduce
/// the first result bit for bit.
class Inputs {
 public:
  Inputs(int bits, std::function<void()> build_rest, int setup_reps,
         int featurize_reps, double run_s, Result& res);
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  /// Runs a set-up or phase-1 repeat when one is due; call between units
  /// of measured work.
  void tick();
  /// Runs the repeats still left.
  void finish();

  const hoga::data::ReasoningGraph& graph() const { return g_; }
  const hoga::core::HopFeatures& hops() const { return hops_; }
  double setup_s() const { return setup_.median_s(); }
  double featurize_s() const { return featurize_.median_s(); }
  double spmm_gflops() const { return spmm_flops_ / featurize_s() / 1e9; }

 private:
  hoga::data::ReasoningGraph g_;
  hoga::core::HopFeatures hops_;
  double spmm_flops_ = 0;  // of one phase-1 run
  Repeated setup_, featurize_;
};

}  // namespace hbench
