#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "benchdata/rbench.h"
#include "clocktree/elmore.h"
#include "clocktree/embed.h"
#include "cts/greedy.h"
#include "io/tree_io.h"

namespace gcr::io {
namespace {

ct::RoutedTree sample_tree(int n, std::uint64_t seed) {
  benchdata::RBenchSpec spec{"t", n, 5000.0, 0.005, 0.06, seed};
  const auto bench = benchdata::generate_rbench(spec);
  cts::BuildOptions opts;
  const auto built = cts::build_topology(bench.sinks, nullptr, {}, opts);
  std::vector<bool> gates(static_cast<std::size_t>(built.topo.num_nodes()),
                          true);
  gates[static_cast<std::size_t>(built.topo.root())] = false;
  return ct::embed(built.topo, bench.sinks, gates, opts.tech);
}

/// The writer's former formatting, kept here as the golden reference:
/// `ostream <<` at setprecision(max_digits10).
std::string reference_tree_text(const ct::RoutedTree& tree) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "# gcr routed clock tree\n";
  os << "tree " << tree.num_nodes() << ' ' << tree.num_leaves << ' '
     << tree.root << '\n';
  os << "# id x y parent edge_len gated down_cap delay\n";
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const ct::RoutedNode& n = tree.node(id);
    os << id << ' ' << n.loc.x << ' ' << n.loc.y << ' ' << n.parent << ' '
       << n.edge_len << ' ' << (n.gated ? 1 : 0) << ' ' << n.down_cap << ' '
       << n.delay << '\n';
  }
  return os.str();
}

std::string tree_text(const ct::RoutedTree& tree) {
  std::ostringstream os;
  write_routed_tree(os, tree);
  return os.str();
}

/// Any finite double, subnormals included, drawn by its bit pattern.
double random_finite(std::mt19937_64& rng) {
  for (;;) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) return v;
  }
}

TEST(TreeIo, WriterMatchesReferenceBytesAcrossBlocks) {
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> coord(0.0, 5000.0);
  ct::RoutedTree tree;
  tree.nodes.resize(4000);
  tree.num_leaves = 2000;
  tree.root = 3999;
  for (int id = 0; id < tree.num_nodes(); ++id) {
    ct::RoutedNode& n = tree.nodes[static_cast<std::size_t>(id)];
    const bool wild = id % 3 == 0;  // every third line takes raw bit patterns
    n.loc = {wild ? random_finite(rng) : coord(rng), coord(rng)};
    n.parent = id == tree.root ? -1 : static_cast<int>(rng() % 4000);
    n.edge_len = wild ? random_finite(rng) : coord(rng);
    n.gated = rng() % 2 == 0;
    n.down_cap = coord(rng) * 1e-4;
    n.delay = wild ? random_finite(rng) : coord(rng) * 1e-3;
  }
  const std::string got = tree_text(tree);
  EXPECT_GT(got.size(), 200u * 1024u);  // several block flushes
  EXPECT_EQ(got, reference_tree_text(tree));

  const ct::RoutedTree routed = sample_tree(300, 46);
  EXPECT_EQ(tree_text(routed), reference_tree_text(routed));
}

TEST(TreeIo, WriterMatchesReferenceBytesOnEdgeValues) {
  const double edges[] = {0.0,    -0.0,   0.1,
                          1e300,  5e-324, 123456789012345678.0,
                          -1.5,   1e-300, std::numeric_limits<double>::max(),
                          1.0 / 3};
  ct::RoutedTree tree;
  tree.num_leaves = INT_MAX;
  tree.root = INT_MAX;
  int id = 0;
  for (const double v : edges) {
    ct::RoutedNode n;
    n.loc = {v, -v};
    n.parent = id % 2 == 0 ? -1 : INT_MAX;
    n.edge_len = v;
    n.gated = id % 2 == 1;
    n.down_cap = v;
    n.delay = v;
    tree.nodes.push_back(n);
    ++id;
  }
  EXPECT_EQ(tree_text(tree), reference_tree_text(tree));
}

TEST(TreeIo, WriterLeavesStreamStateAlone) {
  const ct::RoutedTree tree = sample_tree(20, 44);
  std::ostringstream os;
  os << std::fixed << std::showpos << std::setprecision(3);
  const std::ios::fmtflags flags = os.flags();
  write_routed_tree(os, tree);
  EXPECT_EQ(os.precision(), 3);
  EXPECT_EQ(os.flags(), flags);
  // The stream's flags do not leak into the file either.
  EXPECT_EQ(os.str(), reference_tree_text(tree));
}

TEST(TreeIo, RoundTripPreservesEverything) {
  const ct::RoutedTree tree = sample_tree(20, 44);
  std::stringstream ss;
  write_routed_tree(ss, tree);
  const ct::RoutedTree back = read_routed_tree(ss);

  ASSERT_EQ(back.num_nodes(), tree.num_nodes());
  EXPECT_EQ(back.num_leaves, tree.num_leaves);
  EXPECT_EQ(back.root, tree.root);
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const ct::RoutedNode& a = tree.node(id);
    const ct::RoutedNode& b = back.node(id);
    EXPECT_DOUBLE_EQ(a.loc.x, b.loc.x);
    EXPECT_DOUBLE_EQ(a.loc.y, b.loc.y);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_DOUBLE_EQ(a.edge_len, b.edge_len);
    EXPECT_EQ(a.gated, b.gated);
    EXPECT_DOUBLE_EQ(a.down_cap, b.down_cap);
    EXPECT_DOUBLE_EQ(a.delay, b.delay);
  }
}

TEST(TreeIo, RoundTripRebuildChildLinks) {
  const ct::RoutedTree tree = sample_tree(12, 45);
  std::stringstream ss;
  write_routed_tree(ss, tree);
  const ct::RoutedTree back = read_routed_tree(ss);
  // Child sets must match (order of left/right may swap).
  for (int id = 0; id < tree.num_nodes(); ++id) {
    const auto& a = tree.node(id);
    const auto& b = back.node(id);
    const auto set_a = std::minmax(a.left, a.right);
    const auto set_b = std::minmax(b.left, b.right);
    EXPECT_EQ(set_a, set_b) << "node " << id;
  }
  // A reloaded tree is still a measurable tree: the Elmore referee runs.
  const tech::TechParams tech;
  const ct::DelayReport ra = ct::elmore_delays(tree, tech);
  const ct::DelayReport rb = ct::elmore_delays(back, tech);
  EXPECT_NEAR(ra.max_delay, rb.max_delay, 1e-9);
  EXPECT_NEAR(ra.skew(), rb.skew(), 1e-9);
}

TEST(TreeIo, RejectsMalformedHeaders) {
  {
    std::stringstream ss("");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    std::stringstream ss("wrong 3 2 2\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    std::stringstream ss("tree 3 2 7\n");  // root out of range
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    std::stringstream ss("tree -1 2 0\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
}

TEST(TreeIo, RejectsCorruptNodeLines) {
  {
    // Truncated node line.
    std::stringstream ss("tree 1 1 0\n0 1.0 2.0 -1\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    // Node id out of range.
    std::stringstream ss("tree 1 1 0\n5 1 2 -1 0 0 0.1 0\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    // Missing node.
    std::stringstream ss("tree 2 1 1\n0 1 2 1 10 0 0.1 0\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
  {
    // Parent out of range.
    std::stringstream ss(
        "tree 2 1 1\n0 1 2 9 10 0 0.1 0\n1 0 0 -1 0 0 0.2 1\n");
    EXPECT_THROW(read_routed_tree(ss), std::runtime_error);
  }
}

TEST(TreeIo, SingleNodeTree) {
  std::stringstream ss("tree 1 1 0\n0 5.5 6.5 -1 0 0 0.05 0\n");
  const ct::RoutedTree t = read_routed_tree(ss);
  EXPECT_EQ(t.num_nodes(), 1);
  EXPECT_TRUE(t.node(0).is_leaf());
  EXPECT_DOUBLE_EQ(t.node(0).loc.x, 5.5);
}

}  // namespace
}  // namespace gcr::io
