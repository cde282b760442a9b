#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "clocktree/zskew.h"
#include "geom/point.h"
#include "tech/params.h"

/// \file partner_index.h
/// A dynamic bucket-pyramid index over candidate merging segments -- the
/// structure that turns the Eq. 3 greedy's per-merge front rescan into a
/// near-constant neighborhood query (an Edahiro-style bucket decomposition
/// grown into a maintained branch-and-bound hierarchy).
///
/// Each live candidate is stored as an Item: the chip-plane center of its
/// merging segment, the segment's *reach* (the maximum Manhattan distance
/// from the center to any point of the segment -- for a tilted rectangle
/// `0.5 * max(uhi-ulo, whi-wlo)`, because chip-plane Manhattan distance is
/// Chebyshev distance in the rotated frame), and the two Eq. 3 ingredients
/// of the engine's lower bound: the merge-invariant `self_cost` and the
/// floored probability weight `p_floor`.
///
/// Items live in a uniform bucket grid; above the grid sits a pyramid of
/// 2x2 aggregation nodes (a quadtree built bottom-up), each carrying exact
/// aggregates over its subtree: the live count, the bounding box of member
/// centers, and min self_cost / min p_floor / max reach.
///
/// find_best(id) returns the *exact* (cost, partner-id) argmin over every
/// other stored item, where the cost of a pair is whatever the caller's
/// `eval` callback computes. Exactness -- including cost ties, which resolve
/// to the smallest partner id -- is what lets the greedy engine stay
/// bit-identical to the exhaustive rescan: the query only ever skips pairs
/// it can prove *strictly* dominated. All bounds are slackened by
/// `1 - 1e-9` (mirroring the engine's kLbSlack) and compared with strict
/// `>`, so a tie-capable candidate is never skipped.
///
/// The scan is a branch-and-bound walk over the pyramid: a node prices the
/// cheapest pair its subtree could possibly contain from a distance bound
///
///   d = max(0, dist(center_q, member-bbox) - reach_q - max_reach)
///
/// (for Metric::Distance the cost IS the distance; for SwitchedCap the
/// bound is priced through Eq. 3 with the node's min self_cost / min
/// p_floor), and a node whose bound strictly exceeds the incumbent is
/// discarded with its entire subtree.
///
/// SwitchedCap bounds price the wire *per side* of the zero-skew balance
/// split, each side's length at its own probability weight. This is the
/// load-bearing refinement: under activity floors an active query (large
/// p_floor) scanning idle candidates pays ~p_floor_q on its own half of
/// every merge's wire, so a min-p_floor whole-wire bound underestimates
/// by the weight ratio and lets every idle candidate for thousands of
/// lambda around survive -- per-side pricing shrinks the survivor radius
/// by that same ratio. The bounds also price the Elmore delay-mismatch
/// axis: a merge of subtrees whose branch-delay intercepts (`a_coef`)
/// differ must snake wire on the faster side until the gap closes,
/// however close the segments sit (ct::merge_wire_total). Items carry
/// their exact (a_coef, b_coef); nodes keep the [min_a, max_a] and
/// [min_b, max_b] envelopes, whose corners span the balance point's range
/// (it is monotone in each coefficient), so a subtree whose delay range
/// sits far from the query's is priced out even at distance 0.
///
/// Nodes are priced four siblings at a time: price_quad evaluates every
/// lane of a Quad in two 2-double vector halves (SSE2 at the baseline
/// x86-64 flags), with lane selects in place of the scalar formulas'
/// branches and the same IEEE operations in the same order, so each lane
/// is bitwise the per-node value. A half skips the snake square root, the
/// per-side corner divisions or the even-split corners only when neither
/// of its lanes needs them. Routing route_large's design (16,384 sinks,
/// generation order) prices 2,993,947 nodes in 930,639 passes, 3.2 lanes
/// each.
///
/// The walk starts at the query and climbs. It scans the query's own
/// bucket first -- the distance-0 neighborhood, which arms the incumbent
/// before any node is priced. Then, one level at a time from the buckets
/// up to the root's children, it prices the <= 3 nonempty siblings of the
/// query's ancestor and searches the survivors to the bottom (a
/// cheapest-bound-first DFS, ties toward the lower lane) before climbing.
/// The own bucket and those siblings cover every stored item exactly once,
/// the ancestors themselves are never priced, and near quadrants are
/// searched before far ones, so the incumbent is usually final by the time
/// the far quadrants are priced and they fall at the top. Per candidate a
/// per-pair bound (center distance minus reaches, priced through the
/// metric) is tried before `eval`; survivors pay the exact pair cost, which
/// the engine computes from the closed-form balance split without touching
/// merged-segment geometry.
///
/// Aggregates are *exact* after every mutation: insert folds the item into
/// each node on its leaf-to-root path (running min/max, bbox growth), and
/// remove recomputes the leaf from its remaining bucket members and then
/// each ancestor from its <= 4 children, so a dead member never keeps a
/// bound loose. The full rebuild that runs whenever the population halves
/// only re-derives the grid dimension from the live size, so bucket
/// occupancy stays O(1) as the merge front shrinks.
///
/// The structure is single-writer: insert/remove/rebuild happen on the
/// engine's coordinating thread between scans. find_best is const and
/// touches no mutable state, so any number of threads may query
/// concurrently, and every query's result is independent of enumeration
/// order -- the determinism contract of docs/parallelism.md.
namespace gcr::cts {

class PartnerIndex {
 public:
  /// How a pair's cost is lower-bounded from a distance bound `d`:
  ///   Distance    -- the cost *is* the merging-segment distance
  ///                  (NearestNeighbor), so the bound is d itself.
  ///   SwitchedCap -- the per-side Eq. 3 bound: self_x + self_y plus the
  ///                  zero-skew balance split of `d`, each side's wire at
  ///                  its *own* p_floor. The eval callback must therefore
  ///                  compute the matching Eq. 3 per-side cost (as the
  ///                  greedy's pair_cost does) -- a cost below this bound
  ///                  would break exactness.
  enum class Metric { Distance, SwitchedCap };

  struct Item {
    geom::Point center;     ///< chip-plane center of the merging segment
    double reach{0.0};      ///< max Manhattan dist from center to the segment
    double self_cost{0.0};  ///< Eq. 3 merge-invariant part (SwitchedCap)
    double p_floor{1.0};    ///< floored probability weight (SwitchedCap)
    /// Elmore branch-delay coefficients (delay(L) = a_coef + b_coef*L +
    /// (rc/2) L^2): a zero-skew merge of delay-mismatched subtrees must
    /// buy at least the snaked wire that closes the |a_coef| gap, however
    /// close the segments sit -- the SwitchedCap bounds price that floor
    /// via ct::merge_wire_total. Defaults make the floor inert.
    double a_coef{0.0};
    double b_coef{0.0};
  };

  struct Best {
    double cost{std::numeric_limits<double>::infinity()};
    int partner{-1};
  };

  /// Telemetry for one find_best call: exact evaluations paid, discarded
  /// pyramid nodes (all levels), pyramid nodes priced (nonempty lanes the
  /// walk reads a bound for, all levels), and price_quad calls.
  struct QueryStats {
    std::uint64_t evaluated{0};
    std::uint64_t bucket_skips{0};
    std::uint64_t node_bounds{0};
    std::uint64_t quads{0};
  };

  /// `tech` must outlive the index (only its wire RC is used, and only for
  /// Metric::SwitchedCap). `capacity` bounds the node ids ever stored;
  /// `expected` sizes the initial grid (the number of initial inserts).
  /// The grid covers [xlo, xlo+w] x [ylo, ylo+h].
  void init(Metric metric, const tech::TechParams* tech, int capacity,
            int expected, double xlo, double ylo, double w, double h);

  void insert(int id, const Item& item);
  void remove(int id);
  [[nodiscard]] bool contains(int id) const {
    return cell_of_[static_cast<std::size_t>(id)] >= 0;
  }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] std::uint64_t rebuild_count() const { return rebuilds_; }

  /// Re-bucket every item on a grid re-derived from the live size when the
  /// population has halved since the last rebuild (aggregates are already
  /// exact; only the grid dimension changes). Returns true when a rebuild
  /// happened. Call between merges, never during queries.
  bool maybe_rebuild();

  /// True when every pyramid aggregate equals a from-scratch recomputation
  /// over the stored items. An O(size + nodes) consistency check for tests.
  [[nodiscard]] bool aggregates_exact() const;

  /// Exact best partner of `id` (which must be stored): the (cost,
  /// partner-id) argmin of `eval` over every other stored item, ties to
  /// the smallest id. `eval(j, incumbent, has_incumbent)` returns the
  /// exact pair cost, or +infinity to signal that its own lower bound
  /// proved the pair strictly worse than `incumbent` (it must never do so
  /// when `has_incumbent` is false, and never prune a pair that could tie
  /// the incumbent). Returns partner -1 iff `id` is the only item.
  template <class Eval>
  [[nodiscard]] Best find_best(int id, Eval&& eval,
                               QueryStats* stats = nullptr) const;

  /// Four sibling pyramid nodes stored struct-of-arrays, one lane each, so
  /// price_quad prices a node's children in one vector pass. Each lane
  /// holds the exact aggregates over its subtree (level 0:
  /// one bucket; level k: the four level-(k-1) lanes of one quad). The
  /// children of node (x, y) at level k are quad y * level_dim_[k] + x of
  /// level k-1 (see quad_of), lane 2*(y'&1) + (x'&1) for child (x', y') --
  /// the siblings' (y, x) order. An empty lane (including a lane past an
  /// odd-width grid's edge, which never fills) holds the identities of its
  /// reductions. The 16-byte alignment puts every double array on a
  /// 16-byte boundary, so price_quad reads lane pairs with aligned loads.
  struct alignas(16) Quad {
    int count[4];
    double min_self[4];
    double min_pf[4];
    double max_reach[4];
    /// Delay-coefficient envelope of the members: [min_a, max_a] bounds
    /// the gap any query's a_coef must bridge by snaking; max_b bounds the
    /// faster side's linear coefficient from above (larger b = less snake,
    /// so the max is the conservative choice).
    double min_a[4];
    double max_a[4];
    double min_b[4];
    double max_b[4];
    double bx0[4], by0[4], bx1[4], by1[4];  ///< member-center bbox

    Quad() {
      for (int k = 0; k < 4; ++k) clear(k);
    }

    void clear(int k) {
      constexpr double inf = std::numeric_limits<double>::infinity();
      count[k] = 0;
      min_self[k] = min_pf[k] = min_a[k] = min_b[k] = inf;
      max_a[k] = -inf;
      max_reach[k] = max_b[k] = 0.0;
      bx0[k] = by0[k] = inf;
      bx1[k] = by1[k] = -inf;
    }

    /// Fold one member into lane k.
    void absorb(int k, const Item& item) {
      ++count[k];
      min_self[k] = std::min(min_self[k], item.self_cost);
      min_pf[k] = std::min(min_pf[k], item.p_floor);
      max_reach[k] = std::max(max_reach[k], item.reach);
      min_a[k] = std::min(min_a[k], item.a_coef);
      max_a[k] = std::max(max_a[k], item.a_coef);
      min_b[k] = std::min(min_b[k], item.b_coef);
      max_b[k] = std::max(max_b[k], item.b_coef);
      bx0[k] = std::min(bx0[k], item.center.x);
      by0[k] = std::min(by0[k], item.center.y);
      bx1[k] = std::max(bx1[k], item.center.x);
      by1[k] = std::max(by1[k], item.center.y);
    }

    /// Set lane k to the aggregate of all four lanes of `kids`.
    void merge(int k, const Quad& kids) {
      clear(k);
      for (int c = 0; c < 4; ++c) {
        count[k] += kids.count[c];
        min_self[k] = std::min(min_self[k], kids.min_self[c]);
        min_pf[k] = std::min(min_pf[k], kids.min_pf[c]);
        max_reach[k] = std::max(max_reach[k], kids.max_reach[c]);
        min_a[k] = std::min(min_a[k], kids.min_a[c]);
        max_a[k] = std::max(max_a[k], kids.max_a[c]);
        min_b[k] = std::min(min_b[k], kids.min_b[c]);
        max_b[k] = std::max(max_b[k], kids.max_b[c]);
        bx0[k] = std::min(bx0[k], kids.bx0[c]);
        by0[k] = std::min(by0[k], kids.by0[c]);
        bx1[k] = std::max(bx1[k], kids.bx1[c]);
        by1[k] = std::max(by1[k], kids.by1[c]);
      }
    }

    [[nodiscard]] bool lane_equals(int k, const Quad& o) const {
      return count[k] == o.count[k] && min_self[k] == o.min_self[k] &&
             min_pf[k] == o.min_pf[k] && max_reach[k] == o.max_reach[k] &&
             min_a[k] == o.min_a[k] && max_a[k] == o.max_a[k] &&
             min_b[k] == o.min_b[k] && max_b[k] == o.max_b[k] &&
             bx0[k] == o.bx0[k] && by0[k] == o.by0[k] &&
             bx1[k] == o.bx1[k] && by1[k] == o.by1[k];
    }
  };

  /// The priced lower bounds of all four lanes of `n` against query item
  /// `q`, written to `out` (see the file comment); an empty lane prices to
  /// +infinity. The per-side wire floors come from the balance point's
  /// monotonicity: at fixed distance it is increasing in the partner's `a`
  /// and a monotone Mobius function of the partner's `b`, so its range
  /// over the node's coefficient envelope is spanned by the corners (the
  /// extremes are picked by cross-multiplied corner fractions, then one
  /// division). Clamping the corner extremes into [0, d] lower-bounds each
  /// side's length (snake cases land on the clamp boundaries
  /// conservatively), the total keeps the snake floor
  /// (ct::merge_wire_total with the envelope-nearest `a` and max_b), and
  /// the slack between the total and the two per-side floors is priced at
  /// min(p_floor) -- a tiny LP solved in closed form. When the query itself
  /// carries the floor weight (q.p_floor <= the lane's min p_floor) the
  /// per-side refine cannot beat pricing the whole total at p_floor_q, and
  /// the lane takes that value instead. Every branch of the scalar formulas
  /// is a lane select, so each lane is bitwise the value the per-node
  /// formulas give (tests/partner_index_test.cpp keeps them as the oracle).
  /// Slackened; compare with strict `>` only.
  void price_quad(const Item& q, const Quad& n, double out[4]) const;

 private:
  /// Bound on the pyramid height (sizes the descent stack): the grid
  /// dimension never exceeds sqrt(INT_MAX / 2) < 2^15, and each level
  /// halves it (ceil) until 1x1.
  static constexpr int kMaxLevels = 16;

  void bucket_insert(int id, const Item& item);
  void rebuild();
  void build_levels();
  /// The quad holding node (x, y) of level k (its lane is lane_of(x, y)).
  [[nodiscard]] std::size_t quad_of(std::size_t k, int x, int y) const {
    return static_cast<std::size_t>(y >> 1) * level_dim_[k + 1] +
           static_cast<std::size_t>(x >> 1);
  }
  [[nodiscard]] static int lane_of(int x, int y) {
    return ((y & 1) << 1) | (x & 1);
  }
  /// Fold `item` into every node on the path from bucket `cell` to the
  /// root.
  void absorb_path(std::vector<std::vector<Quad>>& levels, int cell,
                   const Item& item) const;
  [[nodiscard]] int cell_index(const geom::Point& c) const;

  /// Lower bound on cost(query, j) given a lower bound `d` on the
  /// merging-segment distance and j's exact item. Prices the Eq. 3 wire
  /// term *per side*: the balance split at distance `d` with the exact
  /// coefficients, each side's length weighted by its own p_floor. Valid
  /// because both split lengths are nondecreasing in the merge distance,
  /// so evaluating at `d` <= the true distance only shrinks them -- and
  /// decisively tighter than a min-p_floor whole-wire bound when the two
  /// weights differ by orders of magnitude (an active query scanning idle
  /// candidates, the dominant regime under activity floors). Slackened;
  /// compare with strict `>` only.
  [[nodiscard]] double pair_bound(const Item& q, double d,
                                  const Item& j) const {
    if (metric_ == Metric::Distance) return d * kSlack;
    const ct::BalanceSplit s = ct::balance_lengths(
        {q.a_coef, q.b_coef}, {j.a_coef, j.b_coef}, d, rc_);
    return (q.self_cost + j.self_cost +
            tech_->wire_cap(s.len_a) * q.p_floor +
            tech_->wire_cap(s.len_b) * j.p_floor) *
           kSlack;
  }

  /// Mirrors the greedy engine's kLbSlack: bounds and exact costs come
  /// from different float expressions, so a few ulps of slack keep a
  /// legitimate (tie-capable) candidate from looking strictly dominated.
  static constexpr double kSlack = 1.0 - 1e-9;

  Metric metric_{Metric::Distance};
  const tech::TechParams* tech_{nullptr};
  double rc_{0.0};  ///< unit_res * unit_cap (snake-length quadratic term)
  int dim_{1};
  int size_{0};
  int last_rebuild_size_{0};
  std::uint64_t rebuilds_{0};
  double xlo_{0.0}, ylo_{0.0}, w_{1.0}, h_{1.0};
  std::vector<std::vector<int>> bucket_ids_;  ///< level-0 member lists
  /// levels_[k] holds the level-k nodes (dim_ x dim_ at level 0, each
  /// higher level halving the dimension, ceil, until 1x1), four to a quad
  /// (see Quad); levels_.back() is the root's quad (lane 0).
  /// level_dim_[k] is level k's width, with a trailing 1 above the root.
  std::vector<std::vector<Quad>> levels_;
  std::vector<int> level_dim_;
  std::vector<Item> items_;   ///< node id -> item (valid while stored)
  std::vector<int> cell_of_;  ///< node id -> level-0 cell (-1 when absent)
};

template <class Eval>
PartnerIndex::Best PartnerIndex::find_best(int id, Eval&& eval,
                                           QueryStats* stats) const {
  Best best;
  const Item& q = items_[static_cast<std::size_t>(id)];
  std::uint64_t evaluated = 0;
  std::uint64_t node_skips = 0;

  /// Price one candidate: per-pair distance bound, then the caller's eval
  /// (which may apply its own tighter bound via the +inf protocol); ties
  /// resolve to the smallest partner id.
  const auto consider = [&](int j) {
    if (j == id) return;
    const Item& pj = items_[static_cast<std::size_t>(j)];
    if (best.partner >= 0) {
      const double d = std::max(
          0.0, geom::manhattan_dist(q.center, pj.center) - q.reach -
                   pj.reach);
      if (pair_bound(q, d, pj) > best.cost) return;
    }
    const double cost = eval(j, best.cost, best.partner >= 0);
    if (cost == std::numeric_limits<double>::infinity()) return;
    ++evaluated;
    if (cost < best.cost || (cost == best.cost && j < best.partner)) {
      best.cost = cost;
      best.partner = j;
    }
  };

  // Best-first DFS over an explicit stack: expand the cheapest child first
  // so the incumbent tightens early; re-test each node's bound when it is
  // popped because the incumbent may have improved since it was computed.
  struct Visit {
    double bound;
    int level;
    int x, y;
  };
  Visit stack[3 * kMaxLevels + 1];
  int depth = 0;
  std::uint64_t node_bounds = 0;
  std::uint64_t quads = 0;

  /// Price the nonempty lanes of `c` (the level-`level` nodes whose
  /// top-left sibling is (x0, y0)) other than `skip` in one price_quad
  /// pass, and push the survivors cheapest bound first; ties keep lane
  /// order, i.e. (y, x). A lane already strictly dominated is discarded
  /// here instead of when popped -- the incumbent only improves, so the pop
  /// would discard it too.
  const auto push_lanes = [&](const Quad& c, int level, int x0, int y0,
                              int skip) {
    unsigned live = 0;
    for (int k = 0; k < 4; ++k)
      if (k != skip && c.count[k] != 0) live |= 1u << k;
    if (live == 0) return;
    double bound[4];
    price_quad(q, c, bound);
    ++quads;
    Visit kids[4];
    int nk = 0;
    for (int k = 0; k < 4; ++k) {
      if ((live >> k & 1u) == 0) continue;
      const Visit kid{bound[k], level, x0 + (k & 1), y0 + (k >> 1)};
      ++node_bounds;
      if (best.partner >= 0 && kid.bound > best.cost) {
        ++node_skips;
        continue;
      }
      int at = nk++;
      for (; at > 0 && kid.bound < kids[at - 1].bound; --at)
        kids[at] = kids[at - 1];
      kids[at] = kid;
    }
    while (nk > 0) stack[depth++] = kids[--nk];
  };

  // Walk up from the query: its own bucket (the distance-0 neighborhood)
  // first, then at each level the <= 3 siblings of the query's ancestor,
  // each searched to the bottom before the walk climbs. The own bucket and
  // those siblings partition the stored items, so every item is covered
  // exactly once; near partners arm the incumbent before far quadrants are
  // priced, and the ancestor path itself is never priced.
  const int qcell = cell_of_[static_cast<std::size_t>(id)];
  for (const int j : bucket_ids_[static_cast<std::size_t>(qcell)])
    consider(j);
  int ax = qcell % dim_;
  int ay = qcell / dim_;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    push_lanes(levels_[level][quad_of(level, ax, ay)],
               static_cast<int>(level), ax & ~1, ay & ~1, lane_of(ax, ay));
    while (depth > 0) {
      const Visit v = stack[--depth];
      if (best.partner >= 0 && v.bound > best.cost) {
        ++node_skips;
        continue;
      }
      if (v.level == 0) {
        for (const int j :
             bucket_ids_[static_cast<std::size_t>(v.y * dim_ + v.x)])
          consider(j);
        continue;
      }
      const auto below = static_cast<std::size_t>(v.level - 1);
      push_lanes(levels_[below][quad_of(below, 2 * v.x, 2 * v.y)],
                 v.level - 1, 2 * v.x, 2 * v.y, -1);
    }
    ax >>= 1;
    ay >>= 1;
  }

  if (stats != nullptr) {
    stats->evaluated += evaluated;
    stats->bucket_skips += node_skips;
    stats->node_bounds += node_bounds;
    stats->quads += quads;
  }
  return best;
}

}  // namespace gcr::cts
