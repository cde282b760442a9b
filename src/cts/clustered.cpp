#include "cts/clustered.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <optional>
#include <thread>

#include "guard/deadline.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/timer.h"

namespace gcr::cts {

namespace {

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// BuildOptions::num_threads as a width: > 0 passes through; 0 reads
/// GCR_THREADS (clamped to [1, 256]) once per process, else the hardware
/// thread count.
int resolve_width(int requested) {
  if (requested > 0) return requested;
  static const int env_default = [] {
    if (const char* env = std::getenv("GCR_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env) return static_cast<int>(std::clamp(v, 1L, 256L));
    }
    return hardware_threads();
  }();
  return env_default;
}

/// Run body(ci) for every cell ci in [0, num_cells) on `lanes` threads.
/// The caller is lane 0; lane l builds cell l first, then claims the
/// lowest unclaimed cell until none is left (cell costs vary, so a fixed
/// l, l + lanes, ... split leaves lanes idle). Spawned lanes bind a worker
/// view of the caller's obs session. A lane stops at its first throw;
/// cells are claimed in increasing order, so every cell below the lowest
/// failing one still runs, and that cell's exception -- the one a serial
/// loop would have hit first -- is rethrown after all lanes have joined.
template <typename Body>
void for_each_cell(int lanes, int num_cells, const Body& body) {
  struct Failure {
    int cell{-1};
    std::exception_ptr error;
  };
  std::vector<Failure> failures(static_cast<std::size_t>(lanes));
  std::atomic<int> next_cell{lanes};
  // `view_of`: the session a spawned lane views; nullptr keeps the
  // thread's own binding (the caller's lanes).
  const auto run_lane = [&](int lane, obs::Session* view_of) {
    int ci = lane;
    try {
      std::optional<obs::Session> view;
      std::optional<obs::Bind> bind;
      if (view_of != nullptr) {
        view.emplace(obs::Session::WorkerViewTag{}, *view_of);
        bind.emplace(&*view);
      }
      for (; ci < num_cells; ci = next_cell.fetch_add(1)) body(ci);
    } catch (...) {
      failures[static_cast<std::size_t>(lane)] = {ci, std::current_exception()};
    }
  };
  obs::Session* const session = obs::current();
  std::vector<std::thread> spawned;
  spawned.reserve(static_cast<std::size_t>(lanes - 1));
  int lane = 1;
  try {
    for (; lane < lanes; ++lane)
      spawned.emplace_back([&, lane] { run_lane(lane, session); });
  } catch (...) {
    // No thread to spare: the caller runs the lanes that did not start.
  }
  run_lane(0, nullptr);
  for (; lane < lanes; ++lane) run_lane(lane, nullptr);
  for (std::thread& t : spawned) t.join();
  const Failure* first = nullptr;
  for (const Failure& f : failures)
    if (f.error && (first == nullptr || f.cell < first->cell)) first = &f;
  if (first != nullptr) std::rethrow_exception(first->error);
}

/// Replay the merges of a local topology inside the global one.
/// `local_to_global[k]` maps the local *leaf* k; grows with internal nodes
/// as merges replay. Returns the global id of the local root.
int splice(const ct::Topology& local, std::vector<int> local_to_global,
           ct::Topology& global) {
  local_to_global.resize(static_cast<std::size_t>(local.num_nodes()), -1);
  for (int id = local.num_leaves(); id < local.num_nodes(); ++id) {
    const ct::TreeNode& n = local.node(id);
    local_to_global[static_cast<std::size_t>(id)] =
        global.merge(local_to_global[static_cast<std::size_t>(n.left)],
                     local_to_global[static_cast<std::size_t>(n.right)]);
  }
  return local_to_global[static_cast<std::size_t>(local.root())];
}

}  // namespace

BuildResult build_topology_clustered(std::span<const ct::Sink> sinks,
                                     const activity::ActivityAnalyzer* analyzer,
                                     std::span<const int> leaf_module,
                                     const ClusterOptions& opts) {
  const int n = static_cast<int>(sinks.size());
  assert(n > 0);
  int grid = opts.grid;
  if (grid <= 0)
    grid = std::max(2, static_cast<int>(std::lround(std::sqrt(n) / 8.0)));

  // Bucket sinks into grid cells over the sink bounding box.
  double xlo = 1e300, xhi = -1e300, ylo = 1e300, yhi = -1e300;
  for (const auto& s : sinks) {
    xlo = std::min(xlo, s.loc.x);
    xhi = std::max(xhi, s.loc.x);
    ylo = std::min(ylo, s.loc.y);
    yhi = std::max(yhi, s.loc.y);
  }
  const double w = std::max(1e-9, xhi - xlo);
  const double h = std::max(1e-9, yhi - ylo);
  std::vector<std::vector<int>> cells(
      static_cast<std::size_t>(grid) * grid);
  for (int i = 0; i < n; ++i) {
    const auto& p = sinks[static_cast<std::size_t>(i)].loc;
    const int cx = std::min(grid - 1, static_cast<int>((p.x - xlo) / w * grid));
    const int cy = std::min(grid - 1, static_cast<int>((p.y - ylo) / h * grid));
    cells[static_cast<std::size_t>(cy) * grid + cx].push_back(i);
  }
  std::erase_if(cells, [](const auto& c) { return c.empty(); });
  if (obs::metrics_enabled()) {
    obs::Registry::global().gauge("cts.cluster_grid").set(grid);
    obs::Registry::global()
        .gauge("cts.clusters")
        .set(static_cast<double>(cells.size()));
  }

  ct::Topology global(n);
  const int num_cells = static_cast<int>(cells.size());
  std::vector<SeedSink> tops(static_cast<std::size_t>(num_cells));
  std::vector<int> cell_roots;

  {
    // Cell builds are independent, so they fan out over fixed lanes; each
    // cell writes only its own locals/tops slot. The splice into the
    // global topology stays serial, in cell order, so the result is
    // identical at every thread count.
    const obs::ScopedTimer obs_cells_timer("cluster_cells");
    std::vector<std::optional<BuildResult>> locals(
        static_cast<std::size_t>(num_cells));
    // The deadline is polled here, on the caller, and never on a spawned
    // lane, so the abort points are the same at every width.
    guard::poll_deadline("parallel");
    const int lanes =
        std::min({resolve_width(opts.build.num_threads), num_cells,
                  std::max(hardware_threads(), 8)});
    for_each_cell(lanes, num_cells, [&](int ci) {
      const auto& cell = cells[static_cast<std::size_t>(ci)];
      // Local build over the cell's sinks.
      std::vector<SeedSink> seeds;
      seeds.reserve(cell.size());
      activity::ActivationMask cell_mask(
          analyzer ? analyzer->num_instructions() : 0);
      geom::Point centroid{0.0, 0.0};
      double cap = 0.0;
      for (const int s : cell) {
        SeedSink seed{sinks[static_cast<std::size_t>(s)],
                      activity::ActivationMask()};
        if (analyzer) {
          seed.mask =
              analyzer->module_mask(leaf_module[static_cast<std::size_t>(s)]);
          cell_mask |= seed.mask;
        }
        centroid.x += seed.sink.loc.x;
        centroid.y += seed.sink.loc.y;
        cap += seed.sink.cap;
        seeds.push_back(std::move(seed));
      }
      centroid.x /= static_cast<double>(cell.size());
      centroid.y /= static_cast<double>(cell.size());

      locals[static_cast<std::size_t>(ci)] =
          build_topology_seeded(seeds, analyzer, opts.build);
      // The top level sees the cell as a pseudo-sink at its centroid. The
      // cap only steers merge costs; the real embedding recomputes it.
      tops[static_cast<std::size_t>(ci)] = {
          {centroid,
           opts.build.gated_edges ? opts.build.tech.gate_input_cap : cap},
          std::move(cell_mask)};
    });
    cell_roots.reserve(static_cast<std::size_t>(num_cells));
    for (int ci = 0; ci < num_cells; ++ci)
      cell_roots.push_back(splice(locals[static_cast<std::size_t>(ci)]->topo,
                                  cells[static_cast<std::size_t>(ci)], global));
  }

  {
    // Top-level build over the cells, then splice it in.
    const obs::ScopedTimer obs_top_timer("cluster_top");
    BuildResult top = build_topology_seeded(tops, analyzer, opts.build);
    splice(top.topo, cell_roots, global);
  }

  BuildResult out{std::move(global), {}, {}, {}};
  assert(out.topo.valid());
  if (analyzer) {
    const obs::ScopedTimer obs_annotate_timer("cluster_annotate");
    TopologyActivity act = annotate_topology(out.topo, *analyzer, leaf_module);
    out.mask = std::move(act.mask);
    out.p_en = std::move(act.p_en);
    out.p_tr = std::move(act.p_tr);
  }
  return out;
}

}  // namespace gcr::cts
