#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/router.h"
#include "cts/clustered.h"
#include "guard/status.h"
#include "verify/generator.h"

// The parallelism contract of docs/parallelism.md: a route is bit-identical
// at every thread width, and a clustered build that fails on a spawned lane
// fails the way a serial build does. Labelled `fast`, so CI's TSan leg
// (`-L fast`, GCR_THREADS=8) races the clustered builder's lanes.

namespace gcr {
namespace {

bool routed_trees_identical(const ct::RoutedTree& a, const ct::RoutedTree& b) {
  if (a.root != b.root || a.num_leaves != b.num_leaves ||
      a.nodes.size() != b.nodes.size())
    return false;
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    const ct::RoutedNode& x = a.nodes[i];
    const ct::RoutedNode& y = b.nodes[i];
    if (x.left != y.left || x.right != y.right || x.parent != y.parent ||
        x.loc.x != y.loc.x || x.loc.y != y.loc.y ||
        x.edge_len != y.edge_len || x.gated != y.gated ||
        x.gate_size != y.gate_size || x.down_cap != y.down_cap ||
        x.delay != y.delay)
      return false;
  }
  return true;
}

/// Route the same design at widths 1/2/8 and require bit-identical routed
/// trees and switched-capacitance reports.
void expect_width_invariant(std::uint64_t seed, bool clustered) {
  const verify::DesignSpec spec = verify::random_spec(seed);
  const core::GatedClockRouter router(verify::generate_design(spec));
  core::RouterOptions opts;
  opts.style = core::TreeStyle::Gated;
  opts.topology = core::TopologyScheme::MinSwitchedCap;
  opts.clustered = clustered;
  opts.num_threads = 1;
  const core::RouterResult serial = router.route(opts);
  for (const int width : {2, 8}) {
    opts.num_threads = width;
    const core::RouterResult wide = router.route(opts);
    EXPECT_TRUE(routed_trees_identical(serial.tree, wide.tree))
        << "seed=" << seed << " clustered=" << clustered
        << " width=" << width;
    EXPECT_EQ(serial.swcap.total_swcap(), wide.swcap.total_swcap())
        << "seed=" << seed << " width=" << width;
  }
}

// The flat greedy is serial and ignores the width; pin that it stays so.
TEST(ParDeterminism, FlatGreedyIdenticalAtAnyWidth) {
  for (const std::uint64_t seed : {101ull, 202ull, 303ull})
    expect_width_invariant(seed, /*clustered=*/false);
}

TEST(ParDeterminism, ClusteredGreedyIdenticalAtAnyWidth) {
  for (const std::uint64_t seed : {404ull, 505ull})
    expect_width_invariant(seed, /*clustered=*/true);
}

// A 1e308 pF sink in the last grid cell drives its gate into an infinite
// delay (R_g * C overflows), so that cell's nearest-neighbour build throws
// when it commits the sink's merge: on spawned lane 3 at width 4. The
// build fails with the error a serial build reports. Validation rejects
// such a load before any route (guard::kMaxSinkCap), so the builder is
// driven directly.
TEST(ParDeterminism, ClusteredCellErrorIsTheSameAtAnyWidth) {
  verify::DesignSpec spec = verify::random_spec(606);
  spec.num_sinks = 64;
  core::Design design = verify::generate_design(spec);
  double xmax = 0.0, ymax = 0.0;
  for (const ct::Sink& sink : design.sinks) {
    xmax = std::max(xmax, sink.loc.x);
    ymax = std::max(ymax, sink.loc.y);
  }
  design.sinks[0] = {{xmax, ymax}, 1e308};
  cts::ClusterOptions opts;
  opts.build.cost = cts::MergeCost::NearestNeighbor;
  const std::vector<int> modules =
      cts::identity_modules(static_cast<int>(design.sinks.size()));
  std::vector<guard::Status> errors;
  for (const int width : {1, 4}) {
    opts.build.num_threads = width;
    try {
      (void)cts::build_topology_clustered(design.sinks, nullptr, modules,
                                          opts);
      ADD_FAILURE() << "width " << width << " built an overflowing design";
    } catch (const guard::GuardError& e) {
      errors.push_back(e.status());
    }
  }
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].code, guard::Code::Internal);
  EXPECT_NE(errors[0].message.find("non-finite"), std::string::npos);
  EXPECT_EQ(errors[0].code, errors[1].code);
  EXPECT_EQ(errors[0].message, errors[1].message);
}

}  // namespace
}  // namespace gcr
