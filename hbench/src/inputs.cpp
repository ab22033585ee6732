#include "inputs.hpp"

#include <cstring>

#include "reasoning/features.hpp"
#include "tensor/kernels.hpp"

namespace hbench {

using namespace hoga;

core::HogaConfig model_config() {
  return core::HogaConfig{.in_dim = reasoning::kNodeFeatureDim,
                          .hidden = 32,
                          .num_hops = 5,
                          .num_layers = 1,
                          .out_dim = 4};
}

Inputs::Inputs(int bits, std::function<void()> build_rest, int setup_reps,
               int featurize_reps, double run_s, Result& res)
    : setup_(
          [this, bits, build_rest = std::move(build_rest)] {
            data::ReasoningGraph built =
                data::make_reasoning_graph("csa", bits, /*mapped=*/true);
            build_rest();
            if (g_.num_nodes == 0) g_ = std::move(built);
          },
          setup_reps, run_s),
      featurize_(
          [this, &res] {
            kernels::reset_stats();
            core::HopFeatures h = core::HopFeatures::compute(
                *g_.adj_hop, g_.features, model_config().num_hops);
            spmm_flops_ = static_cast<double>(kernels::stats().spmm_flops.load());
            if (hops_.num_nodes() == 0) {
              hops_ = std::move(h);
              return;
            }
            const Tensor& a = h.stacked();
            const Tensor& b = hops_.stacked();
            res.check(a.numel() == b.numel() &&
                          std::memcmp(a.data(), b.data(),
                                      sizeof(float) * a.numel()) == 0,
                      "featurize repeat differs from the first result");
          },
          featurize_reps, run_s) {
  tick();
  note("inputs: csa%d mapped, %lld nodes, %lld edges", bits,
       static_cast<long long>(g_.num_nodes),
       static_cast<long long>(g_.num_edges));
}

void Inputs::tick() {
  setup_.tick();
  featurize_.tick();
}

void Inputs::finish() {
  setup_.finish();
  featurize_.finish();
}

}  // namespace hbench
