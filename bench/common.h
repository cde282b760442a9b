#pragma once

#include <algorithm>
#include <string>
#include <utility>

#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "core/router.h"
#include "verify/invariants.h"

/// \file common.h
/// Setup for the paper gate (`paper.cpp`): build a Design for an
/// r-benchmark with the evaluation workload of section 5 (20k-cycle
/// stream, ~40% average module activity unless overridden), and route it
/// under the verify invariant checker. Timing lives in `gcr_bench`, not
/// here.

namespace gcr::bench {

struct Instance {
  benchdata::RBench rb;
  core::Design design;
};

/// r-benchmark `name` with the evaluation workload of section 5.
inline Instance make_instance(const std::string& name, double activity = 0.4) {
  benchdata::RBench rb = benchdata::generate_rbench(name);
  benchdata::WorkloadSpec w;
  w.num_instructions = 32;
  // Functional blocks have bounded size in a real floorplan: scale the
  // cluster count with the design so co-active modules stay spatially
  // local on the larger benchmarks too.
  w.num_clusters = std::max(16, rb.spec.num_sinks / 32);
  w.target_activity = activity;
  w.in_cluster_use = 0.9;
  // Real program traces are phase-local: consecutive cycles usually run
  // related instructions, so enables toggle far less often than a Bernoulli
  // stream would suggest.
  w.locality = 0.85;
  w.stream_length = 20000;
  w.seed = 2026;
  benchdata::Workload wl = benchdata::generate_workload(w, rb.sinks, rb.die);
  core::Design d{rb.die, rb.sinks, std::move(wl.rtl), std::move(wl.stream), {}};
  return {std::move(rb), std::move(d)};
}

/// Every bench route runs under the verify invariant checker: a violation
/// throws verify::VerificationError and fails the program.
inline core::RouterResult route(const core::GatedClockRouter& router,
                                const core::RouterOptions& opts) {
  return router.route(opts, verify::make_self_check(router));
}

inline core::RouterResult run_style(const core::GatedClockRouter& router,
                                    core::TreeStyle style, int partitions = 1,
                                    bool auto_tune = false) {
  core::RouterOptions opts;
  opts.style = style;
  opts.controller_partitions = partitions;
  opts.auto_tune_reduction = auto_tune;
  return route(router, opts);
}

}  // namespace gcr::bench
