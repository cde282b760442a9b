#include "cts/partner_index.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace gcr::cts {

namespace {

// Two lanes of doubles. The arithmetic operators are lane-wise IEEE
// operations (addpd, mulpd, divpd at the baseline x86-64 flags), and a
// comparison yields an all-ones / all-zeros mask per lane.
using V2 = double __attribute__((vector_size(16)));
using M2 = decltype(V2{} < V2{});

V2 splat(double x) { return V2{x, x}; }

/// Two lanes of a Quad array: every array sits at a multiple of 16 bytes.
V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, __builtin_assume_aligned(p, 16), sizeof v);
  return v;
}

/// Per lane: `m` ? `a` : `b`.
V2 select(M2 m, V2 a, V2 b) {
  return reinterpret_cast<V2>((m & reinterpret_cast<M2>(a)) |
                              (~m & reinterpret_cast<M2>(b)));
}

/// std::max(a, b) per lane, i.e. a < b ? b : a, NaN and signed-zero
/// behavior included.
V2 vmax(V2 a, V2 b) {
#if defined(__SSE2__)
  return _mm_max_pd(b, a);
#else
  return select(a < b, b, a);
#endif
}

/// std::min(a, b) per lane, i.e. b < a ? b : a.
V2 vmin(V2 a, V2 b) {
#if defined(__SSE2__)
  return _mm_min_pd(b, a);
#else
  return select(b < a, b, a);
#endif
}

V2 vsqrt(V2 a) {
#if defined(__SSE2__)
  return _mm_sqrt_pd(a);
#else
  return V2{std::sqrt(a[0]), std::sqrt(a[1])};
#endif
}

/// True when every lane of `m` is set.
bool all(M2 m) {
#if defined(__SSE2__)
  return _mm_movemask_pd(reinterpret_cast<__m128d>(m)) == 3;
#else
  return (m[0] & m[1]) != 0;
#endif
}

V2 vabs(V2 a) {
  return reinterpret_cast<V2>(reinterpret_cast<M2>(a) &
                              ~reinterpret_cast<M2>(splat(-0.0)));
}

}  // namespace

void PartnerIndex::price_quad(const Item& q, const Quad& n,
                              double out[4]) const {
  const V2 zero = splat(0.0);
  const V2 slack = splat(kSlack);
  const V2 qx = splat(q.center.x);
  const V2 qy = splat(q.center.y);
  const V2 qreach = splat(q.reach);
  const V2 qa = splat(q.a_coef);
  const V2 qb = splat(q.b_coef);
  const V2 qself = splat(q.self_cost);
  const V2 qpf = splat(q.p_floor);
  const V2 rc = splat(rc_);
  const V2 half_rc = splat(0.5 * rc_);
  const V2 two_rc = splat(2.0 * rc_);
  const V2 unit_cap =
      splat(metric_ == Metric::SwitchedCap ? tech_->unit_cap : 0.0);
  for (int h = 0; h < 4; h += 2) {
    const V2 bx0 = load2(n.bx0 + h);
    const V2 by0 = load2(n.by0 + h);
    const V2 bx1 = load2(n.bx1 + h);
    const V2 by1 = load2(n.by1 + h);
    // Manhattan distance from the query center to the member-center bbox,
    // less both reaches: a lower bound on every member's segment distance.
    const V2 d_rect = vmax(vmax(zero, bx0 - qx), qx - bx1) +
                      vmax(vmax(zero, by0 - qy), qy - by1);
    const V2 d = vmax(zero, d_rect - qreach - load2(n.max_reach + h));
    V2 bound = d * slack;
    if (metric_ == Metric::SwitchedCap) {
      const V2 min_a = load2(n.min_a + h);
      const V2 max_a = load2(n.max_a + h);
      const V2 min_b = load2(n.min_b + h);
      const V2 max_b = load2(n.max_b + h);
      const V2 min_pf = load2(n.min_pf + h);
      const V2 self = qself + load2(n.min_self + h);

      // ct::merge_wire_total against the envelope-nearest a and max_b:
      // the whole span when the faster side absorbs the delay gap,
      // otherwise ct::snake_length of the gap.
      const V2 gap = vmax(vmin(qa, max_a), min_a) - qa;
      const V2 bf = select(gap >= zero, qb, max_b);
      const V2 ad = vabs(gap);
      const M2 in_range = ad <= d * (bf + half_rc * d);
      V2 total = d;
      if (!all(in_range)) [[unlikely]] {
        V2 snake;
        if (rc_ <= 0.0)
          snake = select(bf > zero, ad / bf, zero);
        else
          snake = (-bf + vsqrt(bf * bf + two_rc * ad)) / rc;
        snake = select(ad == zero, zero, snake);
        total = select(in_range, d, snake);
      }
      const V2 whole = (self + unit_cap * total * qpf) * slack;
      const M2 whole_lane = qpf <= min_pf;
      bound = whole;
      if (!all(whole_lane)) {
        // Balance-point extremes over the coefficient envelope: at each
        // end of the a envelope, the corner fraction picked by
        // cross-multiplication (both denominators positive), one division.
        const V2 half_d_sq = half_rc * d * d;
        const V2 d_min_b = d * min_b;
        const V2 d_max_b = d * max_b;
        const V2 den1 = qb + min_b + rc * d;
        const V2 den2 = qb + max_b + rc * d;
        const M2 even = den1 <= zero;
        const auto corner = [&](V2 a_env, bool lowest) {
          const V2 base = a_env - qa + half_d_sq;
          const V2 num1 = base + d_min_b;
          const V2 num2 = base + d_max_b;
          const M2 first = lowest ? num1 * den2 <= num2 * den1
                                  : num1 * den2 >= num2 * den1;
          return select(first, num1, num2) / select(first, den1, den2);
        };
        // A lane whose min-b denominator is not positive takes
        // ct::balance_point at both b corners: the even split at min_b, and
        // at max_b its own fraction, or the even split again.
        const auto even_corner = [&](V2 a_env, bool lowest) {
          const V2 base = a_env - qa + half_d_sq;
          const V2 num1 = base + d_min_b;
          const V2 num2 = base + d_max_b;
          const M2 first = lowest ? num1 * den2 <= num2 * den1
                                  : num1 * den2 >= num2 * den1;
          const V2 half_d = splat(0.5) * d;
          const V2 ratio =
              select(even, a_env - qa + d * (max_b + half_rc * d),
                     select(first, num1, num2)) /
              select(even, den2, select(first, den1, den2));
          const V2 at_max_b = select(den2 <= zero, half_d, ratio);
          return select(even,
                        lowest ? vmin(half_d, at_max_b)
                               : vmax(half_d, at_max_b),
                        ratio);
        };
        V2 lowest_point;
        V2 highest_point;
        if (all(~even)) {
          lowest_point = corner(min_a, true);
          highest_point = corner(max_a, false);
        } else [[unlikely]] {
          lowest_point = even_corner(min_a, true);
          highest_point = even_corner(max_a, false);
        }
        const V2 len_a = vmax(vmin(lowest_point, d), zero);
        const V2 len_b = vmax(vmin(d - highest_point, d), zero);
        const V2 extra = vmax(zero, total - len_a - len_b);
        const V2 per_side = (self + unit_cap * len_a * qpf +
                             unit_cap * len_b * min_pf +
                             unit_cap * extra * vmin(qpf, min_pf)) *
                            slack;
        bound = select(whole_lane, whole, per_side);
      }
    }
    // An empty lane's bbox is inverted (+inf lower corner).
    bound = select(bx1 < bx0, splat(std::numeric_limits<double>::infinity()),
                   bound);
    std::memcpy(out + h, &bound, sizeof bound);
  }
}

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
