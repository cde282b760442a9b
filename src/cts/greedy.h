#pragma once

#include <optional>
#include <span>
#include <vector>

#include "activity/analyzer.h"
#include "clocktree/sink.h"
#include "clocktree/topology.h"
#include "clocktree/zskew.h"
#include "geom/point.h"
#include "tech/params.h"

/// \file greedy.h
/// Greedy bottom-up topology construction (paper section 4.2).
///
/// The greedy repeatedly merges the pair of active subtrees with the
/// minimum cost, performing an exact zero-skew merge at each step. The
/// costs (see also MergeCost::ActivityOnly):
///
///   * NearestNeighbor -- the conventional heuristic [Edahiro'91]: cost is
///     the Manhattan distance between merging segments. Used for the
///     buffered baseline tree.
///   * SwitchedCapacitance -- the paper's Eq. 3: the switched capacitance a
///     merge adds, counting the two new gated clock edges (weighted by the
///     subtrees' enable signal probabilities) and the two new star-routed
///     enable wires (estimated as the distance from the control point CP to
///     the midpoint of each merging segment, weighted by the enables'
///     transition probabilities).
///
/// The engine caches each candidate's electrical tap, activation mask,
/// P(EN), P_tr(EN) and CP distance, so evaluating a pair cost is a closed-
/// form zero-skew merge plus a handful of flops. Picks run on one of two
/// serial engines, which build bit-identical topologies under the strict
/// (cost, lower-id, higher-id) order:
///
///   * the indexed engine (BuildOptions::partner_index, the default for
///     the geometric costs): a maintained dynamic bucket index
///     (cts/partner_index.h) holds every live candidate's best partner
///     under lazy invalidation, a lazy-deletion heap keyed by the same
///     strict order yields the next merge, and each merge recomputes only
///     the new node plus the candidates whose cached partner died and
///     whose entry surfaces -- near-linear construction (see
///     docs/ALGORITHMS.md for the invariant and its proof sketch);
///   * the exhaustive rescan: a best-partner array with lazy recomputation
///     and a post-merge refresh, ~O(N^2). It is the ActivityOnly engine
///     (that cost has no geometric bound for the index) and the
///     `partner_index = false` oracle `gcr_check --index-diff` compares
///     the indexed engine against.

namespace gcr::cts {

enum class MergeCost {
  NearestNeighbor,
  SwitchedCapacitance,
  /// Activity-pattern clustering in the spirit of [Tellez-Farrahi-
  /// Sarrafzadeh'95]: merge the pair whose joint enable probability is
  /// lowest (most co-active / least union growth), geometry only as a tie
  /// break. The tie term is scaled by the seed bounding-box diagonal so it
  /// stays below any probability step of the stream even for chip-scale
  /// coordinates. Included as a prior-work-style baseline for ablation.
  ActivityOnly,
};

struct BuildOptions {
  MergeCost cost{MergeCost::NearestNeighbor};
  /// Gates assumed at the tops of the new edges during merging; the
  /// buffered baseline also sets this (buffers balance like gates) but
  /// passes buffer-valued gate parameters in `tech`.
  bool gated_edges{true};
  geom::Point control_point{0.0, 0.0};  ///< CP for the Eq. 3 estimate
  /// Floor on the probability weights in the Eq. 3 cost. With a literal
  /// Eq. 3, wire among never-active sinks is free and the greedy strings
  /// them across the die -- harmless while they stay gated, pathological
  /// once gate reduction merges them into live enable domains. The floor
  /// keeps a geometric term in every merge; 0 reproduces the literal paper
  /// cost.
  double min_prob_weight{0.05};
  /// Threads for the clustered builder's per-cell fan-out
  /// (cts/clustered.h). 0 resolves to the GCR_THREADS environment default
  /// (else the hardware thread count); 1 runs serially. A single greedy build is always serial and ignores it. The
  /// built topology is bit-identical at every setting.
  int num_threads{0};
  /// Serve best-partner queries from a maintained dynamic bucket index
  /// (cts/partner_index.h) instead of rescanning the whole front per
  /// merge: near-linear construction instead of ~O(N^2). Applies to the
  /// geometric costs (NearestNeighbor, SwitchedCapacitance); ActivityOnly
  /// has no geometric bound and always uses the rescan engine. Never
  /// changes the result -- the topology is bit-identical to the exhaustive
  /// rescan; `false` selects the rescan and is the reference
  /// `gcr_check --index-diff` compares against.
  bool partner_index{true};
  tech::TechParams tech{};
};

struct BuildResult {
  ct::Topology topo;
  /// Per-node activity (empty when no analyzer was supplied).
  std::vector<activity::ActivationMask> mask;
  std::vector<double> p_en;
  std::vector<double> p_tr;
};

/// Build a topology over `sinks`. `analyzer` may be null only for
/// NearestNeighbor cost; `leaf_module[i]` maps sink i to its module.
[[nodiscard]] BuildResult build_topology(
    std::span<const ct::Sink> sinks,
    const activity::ActivityAnalyzer* analyzer,
    std::span<const int> leaf_module, const BuildOptions& opts);

/// A pre-aggregated starting candidate: a point location/cap with an
/// explicit activation mask (used by the clustered builder, where the
/// leaves of the top level are whole cell subtrees rather than modules).
struct SeedSink {
  ct::Sink sink;
  activity::ActivationMask mask;
};

/// Build a topology over arbitrary seeds; leaf i of the result is seed i.
/// An empty `seeds` span yields an empty result (a zero-leaf topology and
/// empty activity arrays) rather than undefined behaviour.
[[nodiscard]] BuildResult build_topology_seeded(
    std::span<const SeedSink> seeds,
    const activity::ActivityAnalyzer* analyzer, const BuildOptions& opts);

/// A starting candidate that is already a merged subtree: its electrical
/// tap (merging segment, zero-skew delay, downstream cap) plus activation
/// mask. This is the ECO re-entry surface (src/eco/): preserved subtrees
/// of a previous route enter the greedy front exactly as the engine's own
/// internal candidates would, so the spine re-merge prices them with the
/// same Eq. 3 terms as a from-scratch run.
struct TapSeed {
  ct::SubtreeTap tap;
  activity::ActivationMask mask;
};

/// Build a topology over subtree-valued seeds; leaf i of the result is
/// seed i. Same contract as build_topology_seeded (empty span -> empty
/// result, `analyzer` nullable only for NearestNeighbor cost).
[[nodiscard]] BuildResult build_topology_taps(
    std::span<const TapSeed> seeds,
    const activity::ActivityAnalyzer* analyzer, const BuildOptions& opts);

/// Identity sink->module map helper.
[[nodiscard]] std::vector<int> identity_modules(int num_sinks);

/// Per-node activity annotation for a topology built elsewhere (e.g. MMM):
/// the same masks / P(EN) / P_tr(EN) arrays build_topology produces.
struct TopologyActivity {
  std::vector<activity::ActivationMask> mask;
  std::vector<double> p_en;
  std::vector<double> p_tr;
};

[[nodiscard]] TopologyActivity annotate_topology(
    const ct::Topology& topo, const activity::ActivityAnalyzer& analyzer,
    std::span<const int> leaf_module);

}  // namespace gcr::cts
