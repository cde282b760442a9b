#include "cts/partner_index.h"

#include <cassert>
#include <cmath>

namespace gcr::cts {

void PartnerIndex::init(Metric metric, const tech::TechParams* tech,
                        int capacity, int expected, double xlo, double ylo,
                        double w, double h) {
  assert(metric == Metric::Distance || tech != nullptr);
  metric_ = metric;
  tech_ = tech;
  rc_ = tech != nullptr ? tech->unit_res * tech->unit_cap : 0.0;
  xlo_ = xlo;
  ylo_ = ylo;
  w_ = std::max(w, 1e-12);
  h_ = std::max(h, 1e-12);
  // Same occupancy target as the seed grid: ~2 items per bucket at the
  // expected population.
  dim_ = std::max(1, static_cast<int>(std::floor(std::sqrt(expected / 2.0))));
  size_ = 0;
  last_rebuild_size_ = expected;
  rebuilds_ = 0;
  items_.assign(static_cast<std::size_t>(capacity), {});
  cell_of_.assign(static_cast<std::size_t>(capacity), -1);
  build_levels();
}

void PartnerIndex::build_levels() {
  bucket_ids_.assign(static_cast<std::size_t>(dim_) * dim_, {});
  level_dim_.clear();
  for (int d = dim_;; d = (d + 1) / 2) {
    level_dim_.push_back(d);
    if (d == 1) break;
  }
  assert(static_cast<int>(level_dim_.size()) <= kMaxLevels);
  levels_.assign(level_dim_.size(), {});
  level_dim_.push_back(1);  // above the root
  for (std::size_t k = 0; k < levels_.size(); ++k) {
    const auto up = static_cast<std::size_t>(level_dim_[k + 1]);
    levels_[k].assign(up * up, Quad{});
  }
}

int PartnerIndex::cell_index(const geom::Point& c) const {
  const int cx = std::clamp(
      static_cast<int>((c.x - xlo_) * dim_ / w_), 0, dim_ - 1);
  const int cy = std::clamp(
      static_cast<int>((c.y - ylo_) * dim_ / h_), 0, dim_ - 1);
  return cy * dim_ + cx;
}

void PartnerIndex::absorb_path(std::vector<std::vector<Quad>>& levels,
                               int cell, const Item& item) const {
  int x = cell % dim_;
  int y = cell / dim_;
  for (std::size_t k = 0; k < levels.size(); ++k) {
    levels[k][quad_of(k, x, y)].absorb(lane_of(x, y), item);
    x >>= 1;
    y >>= 1;
  }
}

void PartnerIndex::bucket_insert(int id, const Item& item) {
  const int cell = cell_index(item.center);
  bucket_ids_[static_cast<std::size_t>(cell)].push_back(id);
  cell_of_[static_cast<std::size_t>(id)] = cell;
  absorb_path(levels_, cell, item);
}

void PartnerIndex::insert(int id, const Item& item) {
  assert(cell_of_[static_cast<std::size_t>(id)] < 0);
  items_[static_cast<std::size_t>(id)] = item;
  bucket_insert(id, item);
  ++size_;
}

void PartnerIndex::remove(int id) {
  const int cell = cell_of_[static_cast<std::size_t>(id)];
  assert(cell >= 0);
  auto& ids = bucket_ids_[static_cast<std::size_t>(cell)];
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] == id) {
      ids[k] = ids.back();
      ids.pop_back();
      break;
    }
  }
  cell_of_[static_cast<std::size_t>(id)] = -1;
  --size_;
  // Keep every aggregate exact: recompute the leaf from its remaining
  // members, then each ancestor from its four child lanes.
  int x = cell % dim_;
  int y = cell / dim_;
  Quad& leaf = levels_[0][quad_of(0, x, y)];
  leaf.clear(lane_of(x, y));
  for (const int j : ids)
    leaf.absorb(lane_of(x, y), items_[static_cast<std::size_t>(j)]);
  for (std::size_t k = 1; k < levels_.size(); ++k) {
    const std::size_t kids =
        static_cast<std::size_t>(y >> 1) * level_dim_[k] +
        static_cast<std::size_t>(x >> 1);
    x >>= 1;
    y >>= 1;
    levels_[k][quad_of(k, x, y)].merge(lane_of(x, y), levels_[k - 1][kids]);
  }
}

bool PartnerIndex::maybe_rebuild() {
  if (size_ < 1 || 2 * size_ > last_rebuild_size_) return false;
  rebuild();
  return true;
}

void PartnerIndex::rebuild() {
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(size_));
  for (const auto& ids : bucket_ids_)
    live.insert(live.end(), ids.begin(), ids.end());
  dim_ = std::max(1, static_cast<int>(std::floor(std::sqrt(size_ / 2.0))));
  build_levels();
  for (const int id : live)
    bucket_insert(id, items_[static_cast<std::size_t>(id)]);
  last_rebuild_size_ = size_;
  ++rebuilds_;
}

bool PartnerIndex::aggregates_exact() const {
  // Rebuild every level from scratch over the stored items.
  std::vector<std::vector<Quad>> fresh(levels_.size());
  for (std::size_t k = 0; k < levels_.size(); ++k)
    fresh[k].resize(levels_[k].size());
  int stored = 0;
  for (std::size_t cell = 0; cell < bucket_ids_.size(); ++cell) {
    for (const int id : bucket_ids_[cell]) {
      const Item& item = items_[static_cast<std::size_t>(id)];
      if (cell_of_[static_cast<std::size_t>(id)] != static_cast<int>(cell) ||
          cell_index(item.center) != static_cast<int>(cell))
        return false;
      absorb_path(fresh, static_cast<int>(cell), item);
      ++stored;
    }
  }
  if (stored != size_) return false;
  for (std::size_t k = 0; k < levels_.size(); ++k)
    for (std::size_t i = 0; i < levels_[k].size(); ++i)
      for (int lane = 0; lane < 4; ++lane)
        if (!levels_[k][i].lane_equals(lane, fresh[k][i])) return false;

  return true;
}

}  // namespace gcr::cts
