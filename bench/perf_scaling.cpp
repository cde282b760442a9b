/// \file perf_scaling.cpp
/// Validates the paper's complexity claims (sections 3.3 and 4.2):
///   * signal-probability queries: O(K) with the bit-packed tables
///     (paper: O(KL) over the raw tables),
///   * transition-probability queries: O(K^2) worst case,
///   * full construction: linear in the stream length; in the sink count
///     the paper's O(K^2 N^2) bounds the exhaustive Eq. 3 rescan, while the
///     partner-indexed greedy measured here grows near-linearly (log-log
///     slope 1.39 over 3.1k-100k sinks in gcr_bench's scale group; see
///     EXPERIMENTS.md).

#include <iostream>
#include <memory>
#include <random>
#include <string>

#include "activity/analyzer.h"
#include "common.h"
#include "cts/clustered.h"
#include "cts/greedy.h"

using namespace gcr;

namespace {

benchdata::Workload workload_for(int k, int n, int b, std::uint64_t seed) {
  benchdata::RBenchSpec spec{"s", n, 10000.0, 0.005, 0.08, seed};
  const auto rb = benchdata::generate_rbench(spec);
  benchdata::WorkloadSpec w;
  w.num_instructions = k;
  w.target_activity = 0.4;
  w.stream_length = b;
  w.seed = seed;
  return benchdata::generate_workload(w, rb.sinks, rb.die);
}

perf::BenchFactory prob_query(int k, bool transition) {
  return [k, transition] {
    auto wl = std::make_shared<const benchdata::Workload>(
        workload_for(k, 64, transition ? 8000 : 4000, transition ? 4 : 3));
    auto an =
        std::make_shared<const activity::ActivityAnalyzer>(wl->rtl, wl->stream);
    activity::ActivationMask mask(k);
    for (int i = 0; i < k; i += 2) mask.set(i);
    // wl stays captured: the analyzer references its rtl, not a copy.
    return [wl, an, mask, transition] {
      perf::do_not_optimize(transition ? an->transition_prob(mask)
                                       : an->signal_prob(mask));
    };
  };
}

perf::BenchFactory topology_build(int n) {
  return [n] {
    auto rb = std::make_shared<const benchdata::RBench>(benchdata::generate_rbench(
        benchdata::RBenchSpec{"s", n, 20000.0, 0.005, 0.08, 9}));
    auto wl = std::make_shared<const benchdata::Workload>(
        workload_for(32, n, 4000, 9));
    auto an =
        std::make_shared<const activity::ActivityAnalyzer>(wl->rtl, wl->stream);
    auto mods =
        std::make_shared<const std::vector<int>>(cts::identity_modules(n));
    cts::BuildOptions opts;
    opts.cost = cts::MergeCost::SwitchedCapacitance;
    opts.control_point = rb->die.center();
    return [rb, wl, an, mods, opts] {
      auto r = cts::build_topology(rb->sinks, an.get(), *mods, opts);
      perf::do_not_optimize(r.topo.root());
    };
  };
}

perf::BenchFactory construction(int n, bool clustered) {
  return [n, clustered] {
    auto rb = std::make_shared<const benchdata::RBench>(benchdata::generate_rbench(
        benchdata::RBenchSpec{"s", n, 40000.0, 0.005, 0.08, 10}));
    auto wl = std::make_shared<const benchdata::Workload>(
        workload_for(32, n, 4000, 10));
    auto an =
        std::make_shared<const activity::ActivityAnalyzer>(wl->rtl, wl->stream);
    auto mods =
        std::make_shared<const std::vector<int>>(cts::identity_modules(n));
    cts::BuildOptions opts;
    opts.cost = cts::MergeCost::SwitchedCapacitance;
    opts.control_point = rb->die.center();
    return [rb, wl, an, mods, opts, clustered] {
      if (clustered) {
        cts::ClusterOptions copts;
        copts.build = opts;
        auto r =
            cts::build_topology_clustered(rb->sinks, an.get(), *mods, copts);
        perf::do_not_optimize(r.topo.root());
      } else {
        auto r = cts::build_topology(rb->sinks, an.get(), *mods, opts);
        perf::do_not_optimize(r.topo.root());
      }
    };
  };
}

perf::BenchFactory end_to_end(const char* name) {
  return [name] {
    auto inst = std::make_shared<bench::Instance>(bench::make_instance(name));
    auto router =
        std::make_shared<const core::GatedClockRouter>(inst->design);
    return [router] {
      auto r = bench::run_style(*router, core::TreeStyle::GatedReduced);
      perf::do_not_optimize(r.swcap.total_swcap());
    };
  };
}

/// The n=<size> families feed the runner's log-log complexity fit.
struct RegisterAll {
  RegisterAll() {
    auto& r = perf::default_runner();
    for (int k = 8; k <= 256; k *= 2) {
      r.add("perf/signal_prob/n=" + std::to_string(k), prob_query(k, false));
      r.add("perf/transition_prob/n=" + std::to_string(k),
            prob_query(k, true));
    }
    for (int n = 32; n <= 1024; n *= 2)
      r.add("perf/topology_build/n=" + std::to_string(n), topology_build(n));
    for (const int n : {2000, 8000}) {
      r.add("perf/construct_flat/n=" + std::to_string(n),
            construction(n, false));
      r.add("perf/construct_clustered/n=" + std::to_string(n),
            construction(n, true));
    }
    r.add("perf/route/r1", end_to_end("r1"));
    r.add("perf/route/r2", end_to_end("r2"));
  }
};
const RegisterAll register_all{};

void print_header() {
  std::cout << "=== Complexity validation: O(B + K^2 N^2) construction ===\n"
            << "(see the complexity fits below the timing table)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, print_header);
}
