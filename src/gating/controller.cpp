#include "gating/controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.h"

namespace gcr::gating {

namespace {

/// sqrt(k) when `k` is a perfect square >= 1, else -1.
int isqrt_exact(int k) {
  if (k < 1) return -1;
  const long long g = std::llround(std::sqrt(static_cast<double>(k)));
  return g * g == k ? static_cast<int>(g) : -1;
}

}  // namespace

ControllerPlacement::ControllerPlacement(const geom::DieArea& die,
                                         int num_partitions)
    : die_(die), grid_(isqrt_exact(num_partitions)) {
  assert(grid_ >= 1 && "num_partitions must be a perfect square >= 1");
}

bool ControllerPlacement::valid_partitions(int k) {
  return isqrt_exact(k) >= 1;
}

int ControllerPlacement::partition_of(const geom::Point& p) const {
  const double fx = (p.x - die_.xlo) / die_.width();
  const double fy = (p.y - die_.ylo) / die_.height();
  const int cx = std::clamp(static_cast<int>(fx * grid_), 0, grid_ - 1);
  const int cy = std::clamp(static_cast<int>(fy * grid_), 0, grid_ - 1);
  return cy * grid_ + cx;
}

geom::Point ControllerPlacement::controller_for(
    const geom::Point& gate_loc) const {
  const int part = partition_of(gate_loc);
  const int cx = part % grid_;
  const int cy = part / grid_;
  const double pw = die_.width() / grid_;
  const double ph = die_.height() / grid_;
  return {die_.xlo + (cx + 0.5) * pw, die_.ylo + (cy + 0.5) * ph};
}

double ControllerPlacement::star_length(const geom::Point& gate_loc) const {
  const double len = geom::manhattan_dist(gate_loc, controller_for(gate_loc));
  if (obs::metrics_enabled()) [[unlikely]] {
    static obs::Counter& c =
        obs::Registry::global().counter("controller.star_queries");
    c.inc();
    obs::Registry::global().histogram("controller.star_length").observe(len);
  }
  return len;
}

std::vector<geom::Point> ControllerPlacement::controller_locations() const {
  std::vector<geom::Point> locs;
  locs.reserve(static_cast<std::size_t>(grid_) * grid_);
  const double pw = die_.width() / grid_;
  const double ph = die_.height() / grid_;
  for (int cy = 0; cy < grid_; ++cy)
    for (int cx = 0; cx < grid_; ++cx)
      locs.push_back(
          {die_.xlo + (cx + 0.5) * pw, die_.ylo + (cy + 0.5) * ph});
  return locs;
}

double ControllerPlacement::analytic_total_star_length(int num_gates) const {
  // Paper section 6: side-D chip, longest star edge D/2, average assumed
  // half of that (D/4); with k partitions each edge shrinks by 1/sqrt(k).
  const double d = std::max(die_.width(), die_.height());
  return num_gates * d / (4.0 * grid_);
}

}  // namespace gcr::gating
