#include "cts/partner_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "activity/analyzer.h"
#include "benchdata/rbench.h"
#include "benchdata/workload.h"
#include "clocktree/zskew.h"
#include "cts/greedy.h"
#include "geom/point.h"
#include "obs/metrics.h"
#include "tech/params.h"
#include "test_seed.h"

/// \file partner_index_test.cpp
/// Property tests for cts::PartnerIndex: at every step of a seeded random
/// insert / merge / remove sequence, find_best must return exactly the
/// (cost, smallest-partner-id) argmin that a brute-force O(front^2) scan
/// over all stored items computes. This is the index's whole contract --
/// the greedy engine stays bit-identical to the exhaustive rescan only
/// because the query never misses a minimum and never loses a tie. After
/// every step the pyramid aggregates must also equal a from-scratch
/// recomputation: a stale (merely conservative) bound stays exact but
/// prunes less, so only this check catches it. The four-lane node pricing
/// (PartnerIndex::price_quad) is also held bitwise to the scalar per-node
/// formulas, kept below as the oracle.

namespace gcr {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Model {
  cts::PartnerIndex index;
  tech::TechParams tech;
  std::vector<cts::PartnerIndex::Item> items;  // id -> item
  std::vector<int> live;
  std::vector<char> is_live;
  int next_id = 0;

  explicit Model(cts::PartnerIndex::Metric metric, int capacity,
                 double side) {
    items.resize(static_cast<std::size_t>(capacity));
    is_live.assign(static_cast<std::size_t>(capacity), 0);
    index.init(metric, &tech, capacity, capacity / 2, 0.0, 0.0, side, side);
    metric_ = metric;
  }

  /// The exact pair cost the test evaluates: the per-side Eq. 3 shape the
  /// SwitchedCap metric contracts for -- the zero-skew balance split of
  /// the pair distance (ct::balance_lengths over the items' a/b
  /// coefficients, snaking included), each side's wire priced at its own
  /// p_floor. This is *equal* to the index's per-pair bound (modulo the
  /// 1-1e-9 slack), so it exercises every bound at its tightest.
  [[nodiscard]] double cost(int i, int j) const {
    const auto& a = items[static_cast<std::size_t>(i)];
    const auto& b = items[static_cast<std::size_t>(j)];
    const double d = std::max(
        0.0, geom::manhattan_dist(a.center, b.center) - a.reach - b.reach);
    if (metric_ == cts::PartnerIndex::Metric::Distance) return d;
    const ct::BalanceSplit s =
        ct::balance_lengths({a.a_coef, a.b_coef}, {b.a_coef, b.b_coef}, d,
                            tech.unit_res * tech.unit_cap);
    return a.self_cost + b.self_cost + tech.wire_cap(s.len_a) * a.p_floor +
           tech.wire_cap(s.len_b) * b.p_floor;
  }

  /// Brute-force reference: argmin of cost over every other live id, ties
  /// to the smallest id.
  [[nodiscard]] cts::PartnerIndex::Best brute_best(int i) const {
    cts::PartnerIndex::Best best;
    for (const int j : live) {
      if (j == i) continue;
      const double c = cost(i, j);
      if (c < best.cost || (c == best.cost && j < best.partner)) {
        best.cost = c;
        best.partner = j;
      }
    }
    return best;
  }

  int insert(const cts::PartnerIndex::Item& item) {
    const int id = next_id++;
    items[static_cast<std::size_t>(id)] = item;
    is_live[static_cast<std::size_t>(id)] = 1;
    live.push_back(id);
    index.insert(id, item);
    return id;
  }

  void remove(int id) {
    is_live[static_cast<std::size_t>(id)] = 0;
    live.erase(std::find(live.begin(), live.end(), id));
    index.remove(id);
  }

 private:
  cts::PartnerIndex::Metric metric_;
};

/// Check find_best against the brute force for `id`, both with a plain
/// exact eval and with an engine-style eval that prunes on the incumbent
/// (returns +inf when its own bound proves strict domination).
void expect_exact(const Model& m, int id) {
  const auto plain = [&](int j, double, bool) { return m.cost(id, j); };
  const auto pruning = [&](int j, double incumbent, bool has_incumbent) {
    const double c = m.cost(id, j);
    if (has_incumbent && c * (1.0 - 1e-9) > incumbent) return kInf;
    return c;
  };
  const cts::PartnerIndex::Best want = m.brute_best(id);
  cts::PartnerIndex::QueryStats stats;
  const cts::PartnerIndex::Best got = m.index.find_best(id, plain, &stats);
  EXPECT_EQ(got.partner, want.partner) << "id " << id;
  EXPECT_EQ(got.cost, want.cost) << "id " << id;
  const cts::PartnerIndex::Best got2 = m.index.find_best(id, pruning);
  EXPECT_EQ(got2.partner, want.partner) << "id " << id << " (pruning eval)";
  EXPECT_EQ(got2.cost, want.cost) << "id " << id << " (pruning eval)";
  if (static_cast<int>(m.live.size()) > 1) {
    EXPECT_GE(stats.evaluated, 1u);
  }
}

cts::PartnerIndex::Item random_item(std::mt19937_64& rng, double side,
                                    bool quantized) {
  std::uniform_real_distribution<double> xy(-0.02 * side, 1.02 * side);
  std::uniform_real_distribution<double> reach(0.0, 0.05 * side);
  std::uniform_real_distribution<double> self(0.0, 4.0);
  std::uniform_real_distribution<double> pf(0.005, 1.0);
  // Delay coefficients sized so the snake floor actually bites: with the
  // default tech (rc = 6e-6, b in [0.01, 0.1]) a-gaps up to 60 force
  // snakes from zero to beyond the die side.
  std::uniform_real_distribution<double> acoef(0.0, 60.0);
  std::uniform_real_distribution<double> bcoef(0.01, 0.1);
  cts::PartnerIndex::Item it;
  it.center = {xy(rng), xy(rng)};
  it.reach = reach(rng);
  it.self_cost = self(rng);
  it.p_floor = pf(rng);
  it.a_coef = acoef(rng);
  it.b_coef = bcoef(rng);
  if (quantized) {
    // Snap everything to a coarse lattice so exact cost ties (including
    // across bucket boundaries) happen constantly and the smallest-id
    // tie-break is really exercised. The delay floor is made inert (equal
    // a_coef) so ties stay exact.
    const double g = side / 8.0;
    it.center = {std::round(it.center.x / g) * g,
                 std::round(it.center.y / g) * g};
    it.reach = 0.0;
    it.self_cost = std::round(it.self_cost);
    it.p_floor = 0.5;
    it.a_coef = 0.0;
    it.b_coef = 0.05;
  }
  return it;
}

class PartnerIndexFuzz : public ::testing::TestWithParam<std::uint64_t> {};

void run_sequence(cts::PartnerIndex::Metric metric, std::uint64_t seed,
                  bool quantized) {
  std::mt19937_64 rng(seed);
  const double side = 1000.0;
  const int n0 = 48;
  const int steps = 160;
  Model m(metric, /*capacity=*/n0 + steps + 8, side);

  for (int i = 0; i < n0; ++i) m.insert(random_item(rng, side, quantized));

  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int step = 0; step < steps; ++step) {
    const double c = coin(rng);
    if (c < 0.55 && m.live.size() >= 2) {
      // Merge-like: remove two live items, insert their "parent" -- center
      // near the midpoint, self_cost grown (the engine's common case), but
      // sometimes *below* both (stresses the pyramid's min aggregates).
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      const int a = m.live[pick(rng)];
      int b = a;
      while (b == a) b = m.live[pick(rng)];
      const auto ia = m.items[static_cast<std::size_t>(a)];
      const auto ib = m.items[static_cast<std::size_t>(b)];
      m.remove(a);
      m.remove(b);
      cts::PartnerIndex::Item merged;
      merged.center = {0.5 * (ia.center.x + ib.center.x),
                       0.5 * (ia.center.y + ib.center.y)};
      merged.reach = std::max(ia.reach, ib.reach);
      const bool undercut = coin(rng) < 0.15;
      merged.self_cost = undercut
                             ? 0.5 * std::min(ia.self_cost, ib.self_cost)
                             : ia.self_cost + ib.self_cost;
      merged.p_floor = std::max(ia.p_floor, ib.p_floor);
      // Delay grows through a merge (like the engine's zero-skew delay);
      // keep the pessimistic b.
      merged.a_coef = ia.a_coef + ib.a_coef;
      merged.b_coef = std::max(ia.b_coef, ib.b_coef);
      if (quantized) {
        merged.reach = 0.0;
        merged.self_cost = std::round(merged.self_cost);
        merged.p_floor = 0.5;
        merged.a_coef = 0.0;
        merged.b_coef = 0.05;
      }
      m.insert(merged);
      m.index.maybe_rebuild();
    } else if (c < 0.75 && !m.live.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      m.remove(m.live[pick(rng)]);
      m.index.maybe_rebuild();
    } else {
      m.insert(random_item(rng, side, quantized));
    }
    ASSERT_EQ(m.index.size(), static_cast<int>(m.live.size()));
    ASSERT_TRUE(m.index.aggregates_exact()) << "step " << step;

    // Exactness after *every* step, on a handful of random live ids.
    if (!m.live.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      for (int k = 0; k < 3; ++k) expect_exact(m, m.live[pick(rng)]);
    }
  }
}

/// ECO-style churn: the incremental re-router (eco::route_incremental)
/// detaches preserved subtrees and feeds their roots back into the engine
/// as fresh candidates -- an item leaves the index and a new id re-enters
/// later at the *same* coordinates and coefficients. This sequence drives
/// exactly that shape: removals whose items are remembered, verbatim
/// re-insertions under fresh ids (duplicating a live item's position is
/// legal and must still tie-break to the smallest id), and merges in
/// between, with the brute-force exactness check after every step.
void run_eco_churn(cts::PartnerIndex::Metric metric, std::uint64_t seed,
                   bool quantized) {
  std::mt19937_64 rng(seed);
  const double side = 1000.0;
  const int n0 = 32;
  const int steps = 140;
  Model m(metric, /*capacity=*/n0 + 2 * steps + 8, side);
  for (int i = 0; i < n0; ++i) m.insert(random_item(rng, side, quantized));

  std::vector<cts::PartnerIndex::Item> graveyard;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int step = 0; step < steps; ++step) {
    const double c = coin(rng);
    if (c < 0.35 && m.live.size() >= 2) {
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      const int id = m.live[pick(rng)];
      graveyard.push_back(m.items[static_cast<std::size_t>(id)]);
      m.remove(id);
      m.index.maybe_rebuild();
    } else if (c < 0.70 && !graveyard.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, graveyard.size() - 1);
      const std::size_t g = pick(rng);
      m.insert(graveyard[g]);
      graveyard[g] = graveyard.back();
      graveyard.pop_back();
    } else if (m.live.size() >= 2) {
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      const int a = m.live[pick(rng)];
      int b = a;
      while (b == a) b = m.live[pick(rng)];
      const auto ia = m.items[static_cast<std::size_t>(a)];
      const auto ib = m.items[static_cast<std::size_t>(b)];
      m.remove(a);
      m.remove(b);
      cts::PartnerIndex::Item merged;
      merged.center = {0.5 * (ia.center.x + ib.center.x),
                       0.5 * (ia.center.y + ib.center.y)};
      merged.reach = quantized ? 0.0 : std::max(ia.reach, ib.reach);
      merged.self_cost = quantized
                             ? std::round(ia.self_cost + ib.self_cost)
                             : ia.self_cost + ib.self_cost;
      merged.p_floor = quantized ? 0.5 : std::max(ia.p_floor, ib.p_floor);
      merged.a_coef = quantized ? 0.0 : ia.a_coef + ib.a_coef;
      merged.b_coef = quantized ? 0.05 : std::max(ia.b_coef, ib.b_coef);
      m.insert(merged);
      m.index.maybe_rebuild();
    } else {
      m.insert(random_item(rng, side, quantized));
    }
    ASSERT_EQ(m.index.size(), static_cast<int>(m.live.size()));
    ASSERT_TRUE(m.index.aggregates_exact()) << "step " << step;
    if (!m.live.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, m.live.size() - 1);
      for (int k = 0; k < 3; ++k) expect_exact(m, m.live[pick(rng)]);
    }
  }
}

TEST_P(PartnerIndexFuzz, SwitchedCapMatchesBruteForceAtEveryStep) {
  run_sequence(cts::PartnerIndex::Metric::SwitchedCap, GetParam(), false);
}

TEST_P(PartnerIndexFuzz, EcoChurnRemoveReinsertMatchesBruteForce) {
  run_eco_churn(cts::PartnerIndex::Metric::SwitchedCap, GetParam(), false);
  // Quantized: re-inserted duplicates collide in cost constantly, so the
  // smallest-id tie-break is exercised on every query.
  run_eco_churn(cts::PartnerIndex::Metric::SwitchedCap,
                GetParam() ^ 0x5ca1ab1eull, true);
}

TEST_P(PartnerIndexFuzz, DistanceMatchesBruteForceAtEveryStep) {
  run_sequence(cts::PartnerIndex::Metric::Distance, GetParam(), false);
}

TEST_P(PartnerIndexFuzz, QuantizedTiesResolveToTheSmallestId) {
  run_sequence(cts::PartnerIndex::Metric::SwitchedCap, GetParam(), true);
  run_sequence(cts::PartnerIndex::Metric::Distance, GetParam() ^ 0x9e37ull,
               true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartnerIndexFuzz,
                         ::testing::ValuesIn(gcr::test::fuzz_seeds(
                             {11, 2026, 424242})),
                         gcr::test::SeedParamName{});

/// Odd grid widths: with dim 3, 5 or 7 the right column and bottom row of
/// every level's quads hold lanes past the grid's edge that never fill, so
/// the leaf-up walk meets an ancestor with fewer than 3 siblings at every
/// level. Fill every bucket with two items, then query from every corner
/// and edge bucket, before and after emptying the whole last row.
void run_odd_grid(cts::PartnerIndex::Metric metric, int dim, bool quantized) {
  const double side = 100.0 * dim;
  // init sizes the grid as floor(sqrt(expected / 2)) with expected =
  // capacity / 2, so 2 * dim^2 items at capacity 4 * dim^2 give `dim`.
  Model m(metric, /*capacity=*/4 * dim * dim, side);
  std::mt19937_64 rng(static_cast<std::uint64_t>(dim) * 131 + quantized);
  std::uniform_real_distribution<double> in_cell(0.05, 0.95);
  std::vector<std::vector<int>> ids_at(static_cast<std::size_t>(dim * dim));
  for (int y = 0; y < dim; ++y)
    for (int x = 0; x < dim; ++x)
      for (int k = 0; k < 2; ++k) {
        cts::PartnerIndex::Item it = random_item(rng, side, quantized);
        it.center = {100.0 * (x + in_cell(rng)), 100.0 * (y + in_cell(rng))};
        if (quantized)
          it.center = {100.0 * x + 50.0, 100.0 * y + 50.0};
        ids_at[static_cast<std::size_t>(y * dim + x)].push_back(m.insert(it));
      }
  ASSERT_TRUE(m.index.aggregates_exact());
  const auto query_edges = [&] {
    for (int y = 0; y < dim; ++y)
      for (int x = 0; x < dim; ++x) {
        if (x != 0 && y != 0 && x != dim - 1 && y != dim - 1) continue;
        for (const int id : ids_at[static_cast<std::size_t>(y * dim + x)])
          if (m.is_live[static_cast<std::size_t>(id)]) expect_exact(m, id);
      }
  };
  query_edges();
  for (int x = 0; x < dim; ++x)
    for (const int id :
         ids_at[static_cast<std::size_t>((dim - 1) * dim + x)])
      m.remove(id);
  ASSERT_TRUE(m.index.aggregates_exact());
  query_edges();
}

TEST(PartnerIndex, OddGridWidthsMatchBruteForceFromEveryEdgeBucket) {
  for (const int dim : {3, 5, 7}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    for (const bool quantized : {false, true}) {
      run_odd_grid(cts::PartnerIndex::Metric::SwitchedCap, dim, quantized);
      run_odd_grid(cts::PartnerIndex::Metric::Distance, dim, quantized);
    }
  }
}

TEST(PartnerIndex, NodeBoundsPerQueryStayWithinBudget) {
  // The walk's work on one seeded 4,096-sink Eq. 3 build. The counters are
  // exact and do not depend on timing, so a descent that prices more nodes
  // per query fails here without any flakiness. Measured with the leaf-up
  // walk: 20,094 queries pricing 1,079,605 nodes (53.7 per query); the
  // root-down descent with self-cost seeds priced 1,244,855 (62.0).
  const int n = 4096;
  const std::uint64_t seed = 23;
  const benchdata::RBench bench =
      benchdata::generate_rbench({"budget", n, 6000.0, 0.005, 0.08, seed});
  benchdata::WorkloadSpec wspec;
  wspec.num_instructions = 32;
  wspec.target_activity = 0.4;
  wspec.stream_length = 4000;
  wspec.seed = seed;
  const benchdata::Workload wl =
      benchdata::generate_workload(wspec, bench.sinks, bench.die);
  const activity::ActivityAnalyzer an(wl.rtl, wl.stream);
  cts::BuildOptions opts;
  opts.cost = cts::MergeCost::SwitchedCapacitance;
  opts.control_point = bench.die.center();

  obs::set_metrics_enabled(true);
  obs::Registry::global().reset();
  const cts::BuildResult r =
      cts::build_topology(bench.sinks, &an, cts::identity_modules(n), opts);
  const std::uint64_t queries =
      obs::Registry::global().counter("cts.index_queries").value();
  const std::uint64_t node_bounds =
      obs::Registry::global().counter("cts.index_node_bounds").value();
  const std::uint64_t quads =
      obs::Registry::global().counter("cts.index_quads").value();
  obs::set_metrics_enabled(false);
  ASSERT_TRUE(r.topo.valid());
  EXPECT_EQ(queries, 20094u);
  // Every price_quad pass prices between one and four of its lanes.
  EXPECT_LE(quads, node_bounds);
  EXPECT_GE(4 * quads, node_bounds);
  EXPECT_LE(static_cast<double>(node_bounds) / static_cast<double>(queries),
            1079605.0 / 20094.0 * 1.02)
      << node_bounds << " node bounds over " << queries << " queries";
}

/// The scalar per-node bound, one lane at a time. price_quad must reproduce
/// it bit for bit on every nonempty lane: the greedy's trees and the
/// walk's counters are pinned to these exact values. `paths` records which
/// branches a call took, so the test can show it reached each of them.
struct OraclePaths {
  int even_split = 0;  ///< a corner denominator <= 0 (balance_point's 0.5 d)
  int snake = 0;       ///< merge_wire_total's snake branch
  int whole = 0;       ///< q.p_floor <= min p_floor: whole-wire pricing
  int per_side = 0;
  int touching = 0;    ///< reaches cover the bbox distance (d == 0)
};

double oracle_balance_extreme(const ct::BranchCoeffs& qc, double a,
                              double min_b, double max_b, double d,
                              double rc, bool lowest, OraclePaths& paths) {
  const double base = a - qc.a + 0.5 * rc * d * d;
  const double n1 = base + d * min_b;
  const double n2 = base + d * max_b;
  const double d1 = qc.b + min_b + rc * d;
  const double d2 = qc.b + max_b + rc * d;
  if (d1 <= 0.0) {
    ++paths.even_split;
    const double p1 = ct::balance_point(qc, {a, min_b}, d, rc);
    const double p2 = ct::balance_point(qc, {a, max_b}, d, rc);
    return lowest ? std::min(p1, p2) : std::max(p1, p2);
  }
  if (lowest) return n1 * d2 <= n2 * d1 ? n1 / d1 : n2 / d2;
  return n1 * d2 >= n2 * d1 ? n1 / d1 : n2 / d2;
}

double oracle_node_bound(const cts::PartnerIndex::Item& q,
                         const cts::PartnerIndex::Quad& n, int k,
                         cts::PartnerIndex::Metric metric,
                         const tech::TechParams& tech, OraclePaths& paths) {
  constexpr double kSlack = 1.0 - 1e-9;
  const double rc = tech.unit_res * tech.unit_cap;
  const double dx =
      std::max({0.0, n.bx0[k] - q.center.x, q.center.x - n.bx1[k]});
  const double dy =
      std::max({0.0, n.by0[k] - q.center.y, q.center.y - n.by1[k]});
  const double d = std::max(0.0, dx + dy - q.reach - n.max_reach[k]);
  if (d == 0.0) ++paths.touching;
  if (metric == cts::PartnerIndex::Metric::Distance) return d * kSlack;
  const ct::BranchCoeffs qc{q.a_coef, q.b_coef};
  const ct::BranchCoeffs nearest{
      std::clamp(q.a_coef, n.min_a[k], n.max_a[k]), n.max_b[k]};
  const double total_lb = ct::merge_wire_total(qc, nearest, d, rc);
  if (total_lb != d) ++paths.snake;
  if (q.p_floor <= n.min_pf[k]) {
    ++paths.whole;
    return (q.self_cost + n.min_self[k] +
            tech.wire_cap(total_lb) * q.p_floor) *
           kSlack;
  }
  ++paths.per_side;
  const double len_a_lb = std::clamp(
      oracle_balance_extreme(qc, n.min_a[k], n.min_b[k], n.max_b[k], d, rc,
                             true, paths),
      0.0, d);
  const double len_b_lb = std::clamp(
      d - oracle_balance_extreme(qc, n.max_a[k], n.min_b[k], n.max_b[k], d,
                                 rc, false, paths),
      0.0, d);
  const double extra = std::max(0.0, total_lb - len_a_lb - len_b_lb);
  return (q.self_cost + n.min_self[k] + tech.wire_cap(len_a_lb) * q.p_floor +
          tech.wire_cap(len_b_lb) * n.min_pf[k] +
          tech.wire_cap(extra) * std::min(q.p_floor, n.min_pf[k])) *
         kSlack;
}

/// One random item for the pricing oracle. `regime` picks the corner the
/// item stresses: 0 the engine's usual ranges, 1 negative b (corner
/// denominators <= 0), 2 delay gaps far beyond any in-range split (snake
/// lanes), 3 a coarse lattice where exact ties (gap 0, a denominator of
/// exactly 0, q.p_floor == min p_floor) happen constantly.
cts::PartnerIndex::Item oracle_item(std::mt19937_64& rng, int regime) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  cts::PartnerIndex::Item it;
  it.center = {1000.0 * u(rng), 1000.0 * u(rng)};
  it.reach = 30.0 * u(rng);
  it.self_cost = 4.0 * u(rng);
  it.p_floor = 0.005 + u(rng);
  it.a_coef = 60.0 * u(rng);
  it.b_coef = 0.01 + 0.09 * u(rng);
  if (regime == 1) it.b_coef = -0.5 + 0.6 * u(rng);
  if (regime == 2) it.a_coef = 5000.0 * u(rng);
  if (regime == 3) {
    it.center = {250.0 * std::floor(4.0 * u(rng)),
                 250.0 * std::floor(4.0 * u(rng))};
    it.reach = 0.0;
    it.p_floor = u(rng) < 0.5 ? 0.25 : 0.5;
    it.a_coef = u(rng) < 0.5 ? 0.0 : 10.0;
    it.b_coef = 0.05 * (std::floor(3.0 * u(rng)) - 1.0);
  }
  return it;
}

/// Price seeded random quads with price_quad and require every nonempty
/// lane to be bitwise the oracle's value and every empty lane +infinity.
/// One lane of every other quad holds the query itself, like the ancestor
/// lane the walk skips. Returns the branches the oracle took.
OraclePaths expect_quads_match_oracle(cts::PartnerIndex::Metric metric,
                                      const tech::TechParams& tech,
                                      std::uint64_t seed) {
  cts::PartnerIndex index;
  index.init(metric, &tech, 4, 1, 0.0, 0.0, 1000.0, 1000.0);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> regimes(0, 3);
  std::uniform_int_distribution<int> members(0, 3);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  OraclePaths paths;
  for (int trial = 0; trial < 4000; ++trial) {
    const int regime = regimes(rng);
    cts::PartnerIndex::Item q = oracle_item(rng, regime);
    // Now and then a query whose reach covers every bbox distance.
    if (regime != 3 && u(rng) < 0.1) q.reach = 2000.0;
    cts::PartnerIndex::Quad n;
    for (int k = 0; k < 4; ++k)
      for (int m = members(rng); m > 0; --m)
        n.absorb(k, oracle_item(rng, regime));
    if (trial % 2 == 0) n.absorb(trial / 2 % 4, q);
    double got[4];
    index.price_quad(q, n, got);
    for (int k = 0; k < 4; ++k) {
      if (n.count[k] == 0) {
        EXPECT_EQ(got[k], kInf) << "trial " << trial << " lane " << k;
        continue;
      }
      const double want = oracle_node_bound(q, n, k, metric, tech, paths);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                std::bit_cast<std::uint64_t>(want))
          << "trial " << trial << " lane " << k << ": " << got[k]
          << " vs oracle " << want;
    }
  }
  return paths;
}

TEST(PartnerIndex, QuadPricingIsBitwiseTheScalarNodeBound) {
  const std::uint64_t seed = gcr::test::fuzz_seeds({29})[0];
  tech::TechParams tech;
  const OraclePaths sc = expect_quads_match_oracle(
      cts::PartnerIndex::Metric::SwitchedCap, tech, seed);
  EXPECT_GT(sc.even_split, 0);
  EXPECT_GT(sc.snake, 0);
  EXPECT_GT(sc.whole, 0);
  EXPECT_GT(sc.per_side, 0);
  EXPECT_GT(sc.touching, 0);

  // rc = 0: the snake length is linear and the balance point has no
  // quadratic term.
  tech::TechParams no_rc;
  no_rc.unit_res = 0.0;
  const OraclePaths flat = expect_quads_match_oracle(
      cts::PartnerIndex::Metric::SwitchedCap, no_rc, seed + 1);
  EXPECT_GT(flat.even_split, 0);
  EXPECT_GT(flat.snake, 0);
  EXPECT_GT(flat.per_side, 0);

  const OraclePaths dist = expect_quads_match_oracle(
      cts::PartnerIndex::Metric::Distance, tech, seed + 2);
  EXPECT_GT(dist.touching, 0);
}

TEST(PartnerIndex, RemoveThenReinsertSameCoordinateIsExact) {
  // The minimal ECO re-entry: an item leaves and an identical item comes
  // back under a fresh id. The index must treat the newcomer as a full
  // citizen -- findable, returned as a partner, exact against brute force.
  Model m(cts::PartnerIndex::Metric::SwitchedCap, /*capacity=*/16, 1000.0);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 6; ++i) m.insert(random_item(rng, 1000.0, false));
  const cts::PartnerIndex::Item departed = m.items[2];
  m.remove(2);
  m.index.maybe_rebuild();
  for (const int id : m.live) expect_exact(m, id);
  const int back = m.insert(departed);  // same coordinates, new id
  EXPECT_EQ(back, 6);
  for (const int id : m.live) expect_exact(m, id);
  // A second verbatim copy: duplicate positions are legal and the
  // smallest-id tie-break decides between them.
  m.insert(departed);
  for (const int id : m.live) expect_exact(m, id);
}

TEST(PartnerIndex, SingleItemHasNoPartner) {
  tech::TechParams tech;
  cts::PartnerIndex idx;
  idx.init(cts::PartnerIndex::Metric::SwitchedCap, &tech, 4, 1, 0.0, 0.0,
           100.0, 100.0);
  idx.insert(0, {{50.0, 50.0}, 0.0, 1.0, 0.5});
  const auto best = idx.find_best(
      0, [](int, double, bool) -> double { ADD_FAILURE(); return 0.0; });
  EXPECT_EQ(best.partner, -1);
  EXPECT_EQ(best.cost, kInf);
}

TEST(PartnerIndex, CoincidentCentersDegenerateBuckets) {
  // Every item in the same cell (and the same point): the grid carries one
  // hot bucket; exactness and tie-breaks must survive.
  tech::TechParams tech;
  cts::PartnerIndex idx;
  idx.init(cts::PartnerIndex::Metric::SwitchedCap, &tech, 16, 8, 0.0, 0.0,
           1000.0, 1000.0);
  for (int i = 0; i < 8; ++i) idx.insert(i, {{500.0, 500.0}, 0.0, 2.0, 0.5});
  for (int i = 0; i < 8; ++i) {
    const auto best = idx.find_best(
        i, [&](int j, double, bool) { return 4.0 + 0.0 * j; });
    EXPECT_EQ(best.partner, i == 0 ? 1 : 0);  // tie -> smallest id
    EXPECT_EQ(best.cost, 4.0);
  }
}

TEST(PartnerIndex, ZeroAreaDieDoesNotDivideByZero) {
  tech::TechParams tech;
  cts::PartnerIndex idx;
  idx.init(cts::PartnerIndex::Metric::Distance, &tech, 4, 2, 10.0, 10.0, 0.0,
           0.0);
  idx.insert(0, {{10.0, 10.0}, 0.0, 0.0, 1.0});
  idx.insert(1, {{10.0, 10.0}, 0.0, 0.0, 1.0});
  const auto best =
      idx.find_best(0, [](int, double, bool) { return 0.0; });
  EXPECT_EQ(best.partner, 1);
}

}  // namespace
}  // namespace gcr
