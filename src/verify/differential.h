#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "verify/generator.h"
#include "verify/invariants.h"

/// \file differential.h
/// Differential / metamorphic verification driver. For each random design
/// it cross-checks independent implementations of the same quantity and
/// runs the invariant checker on every routed result:
///
///   * table-driven activities vs the BruteForceActivity full-rescan oracle
///     (paper section 3.2/3.3) on random module sets, bit-for-bit;
///   * every TopologyScheme (Eq. 3 greedy, nearest-neighbor, activity-only,
///     MMM) must produce an invariant-clean exact-zero-skew tree;
///   * flat vs clustered greedy: identical zero-skew guarantee, clustered
///     wirelength within a documented factor of flat;
///   * serial vs multi-threaded clustered Eq. 3 build: bit-identical
///     routed trees (the determinism contract, docs/parallelism.md);
///   * gate reduction (auto-tuned, so the strength-0 candidate anchors the
///     sweep) never increases total switched capacitance;
///   * the buffered baseline stays invariant-clean with buffer parameters.
///
/// Failing designs are dumped as replayable JSON artifacts (generator.h).
/// Per-design progress is emitted as Debug-level structured events
/// (`verify.design`, `verify.clustered_ratio`, `verify.index_diff_design`)
/// through gcr::log -- run with the logger at Debug (gcr_check --verbose)
/// to see it; there is no raw-ostream side channel.

namespace gcr::verify {

struct DiffOptions {
  int num_designs{100};
  std::uint64_t seed{2026};    ///< base seed; design i uses a mix of both
  int activity_trials{24};     ///< random module sets per design
  bool reduction_check{true};  ///< run the auto-tuned GatedReduced leg
  bool clustered_check{true};  ///< run the flat-vs-clustered leg
  /// Documented metamorphic bound: clustered total wirelength may exceed
  /// flat by at most this factor. The generator's adversarial clouds
  /// (clustered/diagonal, small N => a 2x2 grid that cuts natural clusters
  /// apart) reach ~2.7x over thousands of designs; benign inputs (uniform
  /// cloud, larger N) stay under 1.5x, which tests/clustered_test.cpp pins
  /// separately. Only enforced for designs with at least
  /// `clustered_min_sinks` sinks -- below that the decomposition overhead
  /// is additive and a ratio is meaningless; the clustered tree's
  /// zero-skew and electrical invariants are still checked for every
  /// design (docs/verification.md).
  double clustered_wl_factor{3.0};
  int clustered_min_sinks{24};
  /// Route the clustered Eq. 3 gated tree serially and at 4 threads and
  /// require bit-identical routed trees (the determinism contract,
  /// docs/parallelism.md).
  bool thread_check{true};
  /// Route the Eq. 3 gated tree with the dynamic partner index disabled
  /// and require a tree bit-identical to the indexed default -- the
  /// index-vs-exhaustive contract of cts::BuildOptions::partner_index.
  /// (gcr_check --index-diff runs the full scheme x flat/clustered matrix;
  /// this leg keeps one always-on cross-check in every sweep.)
  bool index_check{true};
  std::string dump_dir;  ///< write failing artifacts here ("" = off)
  /// When non-empty, these exact seeds are replayed instead of the
  /// `num_designs` derived ones (gcr_check --replay).
  std::vector<std::uint64_t> explicit_seeds;
};

struct DiffFailure {
  DesignSpec spec;
  std::string stage;  ///< e.g. "route:gated:mmm", "activity-oracle"
  std::string message;
  Report report;  ///< invariant violations (empty for pure differentials)
};

struct DiffStats {
  int designs{0};
  int routes{0};
  int activity_checks{0};
  std::vector<DiffFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// The design seed used for design index `i` (exposed so failures replay
/// with `--replay <seed>` independently of the base seed and index).
[[nodiscard]] std::uint64_t design_seed(std::uint64_t base, int index);

/// Exact (bit-level) equality of two routed trees: same shape, same
/// embedding, same gating, same electrical annotation. Any divergence in
/// the greedy's merge order shows up here.
[[nodiscard]] bool trees_identical(const ct::RoutedTree& a,
                                   const ct::RoutedTree& b);

[[nodiscard]] DiffStats run_differential(const DiffOptions& opts);

/// Options for the dedicated partner-index differential
/// (gcr_check --index-diff): for each random design, every greedy
/// TopologyScheme x {flat, clustered at 1 and 4 worker threads} is routed
/// with the dynamic partner index on and off, and the two routed trees
/// must be bit-identical (trees_identical).
struct IndexDiffOptions {
  int num_designs{25};
  std::uint64_t seed{2026};
  std::string dump_dir;  ///< write failing artifacts here ("" = off)
};

[[nodiscard]] DiffStats run_index_differential(const IndexDiffOptions& opts);

/// Options for the incremental-ECO differential (gcr_check --eco-diff).
/// For each random design a random DesignDelta is drawn (rotating through
/// single-move, removal, addition, mixed structural and stream-replacement
/// edits) and, for every greedy TopologyScheme plus the GatedReduced
/// cone-reduction leg, eco::route_incremental is cross-checked against a
/// from-scratch route of the applied design:
///
///   * the incremental result passes the full invariant catalogue;
///   * incremental == from-scratch (trees_identical), or -- when the spine
///     re-merge legitimately picks a different order -- the symmetric
///     total-swcap ratio stays within `max_swcap_ratio` (the documented
///     equivalence-or-bounded-delta contract, docs/incremental.md);
///   * every out-of-cone carried-over node preserves its bottom-up fields
///     (edge length, gate bit/size, cap, delay) bit-for-bit from the
///     previous route (structural deltas; placement is excluded).
struct EcoDiffOptions {
  int num_designs{25};
  std::uint64_t seed{2026};
  std::string dump_dir;  ///< write failing artifacts here ("" = off)
  /// Bounded-delta arm: when the trees differ, the larger total switched
  /// capacitance may exceed the smaller by at most this factor. The
  /// generator's adversarial corner designs (a handful of sinks, where one
  /// re-decided merge near the root shifts W(S) wholesale) reach ~2.6x
  /// over hundreds of design sweeps; realistic regimes stay close to 1
  /// (the eco bench group pins the n=2048/16384 behaviour separately).
  double max_swcap_ratio{3.0};
};

[[nodiscard]] DiffStats run_eco_differential(const EcoDiffOptions& opts);

}  // namespace gcr::verify
