#pragma once

#include <vector>

#include "geom/die.h"
#include "geom/point.h"

/// \file controller.h
/// Gate-controller placement and the star routing of enable signals.
///
/// The paper's base configuration is a single centralized controller at the
/// chip center (CP); every gate's enable is star-routed from it, so the
/// enable wirelength of a gate is its Manhattan distance to CP. Section 6
/// proposes *distributed* controllers: the chip is divided into k equal
/// partitions (k a power of two, arranged as a grid), each with its own
/// controller at the partition center, cutting the expected star length by
/// about 1/sqrt(k).

namespace gcr::gating {

class ControllerPlacement {
 public:
  /// `num_partitions` must be a perfect square (1, 4, 16, 64, ...) so the
  /// die divides into a gxg grid of equal partitions.
  ControllerPlacement(const geom::DieArea& die, int num_partitions);

  /// The constructor's precondition: `k` is a perfect square >= 1. Front
  /// ends check a requested partition count with this before routing.
  [[nodiscard]] static bool valid_partitions(int k);

  [[nodiscard]] int num_partitions() const { return grid_ * grid_; }
  [[nodiscard]] const geom::DieArea& die() const { return die_; }

  /// Index of the partition containing `p` (points outside the die clamp to
  /// the nearest partition).
  [[nodiscard]] int partition_of(const geom::Point& p) const;

  /// The controller serving a gate at `gate_loc`.
  [[nodiscard]] geom::Point controller_for(const geom::Point& gate_loc) const;

  /// Star (enable) wirelength for a gate at `gate_loc`.
  [[nodiscard]] double star_length(const geom::Point& gate_loc) const;

  /// All controller locations (partition centers).
  [[nodiscard]] std::vector<geom::Point> controller_locations() const;

  /// The paper's closed-form estimate of total star routing area for G
  /// gates on a side-D die with k partitions: G * D / (4 sqrt(k)) wire
  /// length (times wire width gives area). Used by the Fig. 6 analysis.
  [[nodiscard]] double analytic_total_star_length(int num_gates) const;

 private:
  geom::DieArea die_;
  int grid_;
};

}  // namespace gcr::gating
