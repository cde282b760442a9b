#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/design.h"
#include "core/router.h"
#include "eco/delta.h"
#include "eco/incremental.h"
#include "obs/timer.h"
#include "serve/service.h"

/// \file perfbench.h
/// Shared pieces of the end-to-end benchmark driver (perfbench/README.md):
/// run options, the metric sink, seeded input files, per-op span and
/// counter recording, and the layer-by-layer replay of one route.

namespace gcr::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  bool smoke{false};      ///< tiny inputs, for the benchmark's own tests
  std::string work_dir;   ///< scratch for generated inputs and outputs
  std::string spans_out;  ///< span dump written at the end of a traced run
};

/// One printed metric.
struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};
};

/// What a workload reports; main() prints it as the final JSON line.
struct RunResult {
  bool correct{true};
  long attempted{0};
  long failed{0};
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human lines printed before the JSON

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
};

/// Every workload entry point: generate inputs, set up, run for
/// `opts.seconds`, check outputs, report.
RunResult run_route_large(const RunOptions& opts);
RunResult run_trace_long(const RunOptions& opts);
RunResult run_serve_eco(const RunOptions& opts);

// --- statistics -----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

// --- inputs ---------------------------------------------------------------

/// A synthetic design in the style of the r1..r5 stand-ins: `n` sinks on a
/// die whose side tracks sqrt(n), and a clustered K-instruction workload
/// with a `stream_length`-instruction stream, all from `seed`.
[[nodiscard]] core::Design make_design(int n, int k, int stream_length,
                                       std::uint64_t seed);

/// The same design with its sinks listed in a seeded random order (and RTL
/// module ids renamed to match): identical geometry and activity, so the
/// routed tree is the same up to node numbering and its switched
/// capacitance repeats across seeds, while the files and the order of all
/// per-sink work differ.
[[nodiscard]] core::Design relabel_sinks(const core::Design& d,
                                         std::uint64_t seed);

struct DesignFiles {
  std::string sinks, rtl, stream;
  [[nodiscard]] std::uintmax_t bytes() const;
};

/// Write the design's three input files as `<dir>/<stem>.{sinks,rtl,stream}`.
DesignFiles write_design(const core::Design& d, const std::string& dir,
                         const std::string& stem);

/// `count` single-sink-move ECOs, each moving a different sink of `d` to a
/// point drawn inside the die, from `seed`.
[[nodiscard]] std::vector<eco::DesignDelta> sink_moves(const core::Design& d,
                                                       int count,
                                                       std::uint64_t seed);
/// Write a `.delta` file and return its path.
std::string write_delta_file(const eco::DesignDelta& delta,
                             const std::string& path);
/// Write a `.reqs` batch file and return its parsed requests, as gcr_serve
/// would receive them.
[[nodiscard]] std::vector<io::RouteRequest> write_and_read_reqs(
    const std::vector<io::RouteRequest>& reqs, const std::string& path);

/// Options of every routed request: the reduced style with the Eq. 3
/// greedy, serial topology (trees are bit-identical at any width).
[[nodiscard]] core::RouterOptions route_options();

[[nodiscard]] std::string tree_bytes(const ct::RoutedTree& tree);
/// Write `bytes` to `path`; false when the file cannot be written.
bool write_file(const std::string& path, const std::string& bytes);

/// Share of the fully gated tree's gates the reduction kept.
[[nodiscard]] double gates_kept_frac(const ct::RoutedTree& tree);

// --- tracing --------------------------------------------------------------

/// Spans recorded by the benchmark around its calls into the library: name,
/// start, end, parent span and op id. Kept in memory; written at the end.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Open a new op; its root span is `name`. Clears the per-op sums.
  void begin_op(const char* name);
  /// Close the op's root span and return its duration [ms].
  double end_op();

  /// Run `f` inside a span named `name` (a child of the innermost open
  /// span) and add its duration to the per-op sum under `name`.
  template <typename F>
  decltype(auto) span(const char* name, F&& f) {
    const int id = open(name);
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() { t->close(id); }
    } closer{this, id};
    return f();
  }

  /// Clear the per-op sums but stay in the current op, so later spans of
  /// the same op (replays beside it) are summed apart from the op's own.
  void reset_sums() {
    op_ms_.clear();
    op_calls_.clear();
  }

  /// Per-op sums of span durations by name [ms], and call counts.
  [[nodiscard]] double op_ms(const std::string& name) const;
  [[nodiscard]] int op_calls(const std::string& name) const;
  /// Sum of the current op's leaf spans, i.e. the time attributed to a layer.
  [[nodiscard]] double op_leaf_ms() const;

  /// Chrome trace-event JSON ("X" slices; args carry op and parent ids).
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    int op{0};
    int id{0};
    int parent{-1};
    const char* name{""};
    double start_us{0.0};
    double end_us{0.0};
    bool leaf{true};
  };

  int open(const char* name);
  void close(int id);
  [[nodiscard]] double now_us() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int op_{0};
  std::size_t op_first_{0};  ///< first span index of the current op
  std::map<std::string, double> op_ms_;
  std::map<std::string, int> op_calls_;
};

/// obs::Registry counter snapshot, for per-op deltas.
using Counters = std::map<std::string, std::uint64_t>;
[[nodiscard]] Counters snapshot_counters();
[[nodiscard]] double counter_delta(const Counters& before,
                                   const Counters& after,
                                   const std::string& name);

/// Sum of the durations of every phase named `name` in an obs phase tree.
[[nodiscard]] double phase_ms(const obs::PhaseStats& node,
                              const std::string& name);

/// Per-op metric samples; each per-layer metric is reported as the median
/// of its per-op values.
class LayerSamples {
 public:
  void add(const std::string& name, double v) { samples_[name].push_back(v); }
  [[nodiscard]] double median_of(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

// --- the route path -------------------------------------------------------

/// One routed output plus the facts the checks and metrics read off it.
struct RouteOutput {
  bool ok{false};
  std::string bytes;
  double swcap_pf{0.0};
  double gates_kept_frac{0.0};
};

/// What `gcr_route --tree` runs: read the three files, validate, build the
/// router, route_guarded, write the tree. Untraced.
[[nodiscard]] RouteOutput route_files(const DesignFiles& files,
                                      const core::RouterOptions& opts,
                                      const std::string& tree_path);

/// The same op with every layer call wrapped in a span: the guarded route
/// is replayed call by call in route_impl's order (build_topology, embed
/// fully gated, reduce_gates, embed, evaluate_swcap, elmore_delays). The
/// caller asserts the bytes equal route_guarded's.
[[nodiscard]] RouteOutput route_files_traced(const DesignFiles& files,
                                             const core::RouterOptions& opts,
                                             const std::string& tree_path,
                                             Tracer& tr);

/// Per-op layer metrics of a traced route op, read from the tracer's sums.
void add_route_layers(const Tracer& tr, double op_ms, LayerSamples& out);

/// serve.* metrics of one batch: outcomes plus service stats around it.
void add_serve_layers(const std::vector<serve::RequestOutcome>& outcomes,
                      const serve::ServeStats& before,
                      const serve::ServeStats& after, int lanes,
                      double makespan_ms, LayerSamples& out);

/// eco.* metrics of one incremental re-route.
void add_eco_layers(double incremental_ms, const eco::EcoInfo& info,
                    LayerSamples& out);

/// Counter-derived per-op metrics (activity.queries, cts.*) from registry
/// snapshots taken around one op.
void add_counter_layers(const Counters& before, const Counters& after,
                        LayerSamples& out);

/// What a workload's op loop measured; report() turns it into metrics.
struct LoopStats {
  std::vector<double> setup_s;    ///< one per setup repetition
  std::vector<double> plain_ms;   ///< untraced op times
  std::vector<double> traced_ms;  ///< traced op times (--trace 1)
  long good_requests{0};  ///< untraced requests Done with reference bytes
  double good_ms{0.0};    ///< time of the untraced ops holding them
  double swcap_pf{0.0};   ///< mean over the distinct outputs produced
};

/// Fill `res` from the loop: the end-to-end metrics, or under --trace 1
/// every layer metric (medians of the per-op samples) plus the tracing
/// overhead, and write the spans.
void report(const RunOptions& o, const LoopStats& st, LayerSamples& layers,
            const Tracer& tr, RunResult& res);

/// Setup helper: route `files` once on a fresh router for the reference,
/// keeping the router and result for later ECO or verification use.
struct Reference {
  std::unique_ptr<core::GatedClockRouter> router;
  core::RouterResult result;
  std::string bytes;
};
[[nodiscard]] Reference reference_route(const DesignFiles& files,
                                        const core::RouterOptions& opts);

/// verify::verify_result on a finished result; throws on violation.
void verify_or_throw(const core::GatedClockRouter& router,
                     const core::RouterOptions& opts,
                     const core::RouterResult& result, const std::string& what);

}  // namespace gcr::perfbench
