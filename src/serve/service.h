#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/router.h"
#include "guard/status.h"
#include "io/reqs_io.h"
#include "serve/cache.h"

/// \file service.h
/// gcr::serve -- a long-lived, in-process batch routing service
/// (docs/serving.md). `BatchService` owns a bounded admission queue, a
/// fixed set of worker lanes and two content-hash caches; callers submit
/// `io::RouteRequest`s (usually parsed from a `.reqs` batch) and collect
/// `RequestOutcome`s.
///
/// The contract that makes it a *service* rather than a loop:
///
///   * Backpressure is explicit. The queue is bounded; when full, policy
///     `Shed` rejects the submission with GCR_E_OVERLOAD (recorded as a
///     normal outcome, counted in `serve.shed`), policy `Block` parks the
///     submitter until a slot frees. Nothing is ever dropped silently.
///   * Requests are isolated. Each runs under its own guard::Deadline;
///     parse errors, validation findings, injected faults, expiries and
///     unexpected exceptions all become a per-request outcome with a
///     stable GCR_E_* code. No request outcome -- including an internal
///     error -- stops the service from draining the rest of the batch.
///   * Intermediates are cached. Parsed designs plus their activity
///     engine are keyed by the content hash of the three input files;
///     finished route results by (design hash, option fingerprint).
///     Both caches are bounded with LRU eviction (GCR_W_CACHE_EVICT);
///     an entry implicated in an internal error is invalidated, never
///     re-served.
///   * Shutdown is graceful. `begin_drain()` stops admission (late
///     submissions shed), `drain()` completes every admitted request,
///     joins the lanes and emits a `serve.drain` event carrying
///     per-state counts.
///
/// Determinism: a request's routed tree depends only on its design and
/// options -- never on queue order, worker assignment, cache state or
/// the number of lanes -- so serving is bit-identical to one-shot
/// `gcr_route` runs of the same requests (the serve fault gate checks
/// this byte-for-byte).

namespace gcr::serve {

/// What to do with a submission when the admission queue is full.
enum class AdmitPolicy {
  Shed,   ///< reject now with GCR_E_OVERLOAD (bounded latency)
  Block,  ///< park the submitter until a slot frees (bounded memory)
};

struct ServeOptions {
  int workers{2};                   ///< request lanes (clamped to >= 1)
  std::size_t queue_capacity{64};   ///< admission queue bound (>= 1)
  AdmitPolicy policy{AdmitPolicy::Shed};
  std::size_t design_cache_capacity{32};  ///< parsed design + activity engine
  std::size_t result_cache_capacity{64};  ///< finished route results
  /// Budget for requests that do not carry their own deadline_ms.
  /// < 0 = unlimited.
  double default_deadline_ms{-1.0};
  /// RouterOptions::num_threads of every request. It has no effect: only
  /// the clustered builder reads the width, and a serve request never
  /// routes clustered (make_router_options leaves RouterOptions::clustered
  /// off). Lanes give inter-request parallelism.
  int route_threads{1};
  std::string base_dir;  ///< resolve relative request paths against this
};

/// Terminal state of one request. Every admitted or shed request ends in
/// exactly one of these -- the service has no silent outcomes.
enum class RequestState {
  Done,     ///< routed; `result` holds the tree
  Shed,     ///< never admitted (queue full / draining / injected fault)
  Expired,  ///< deadline fired; partial work discarded
  Invalid,  ///< request's input files unreadable, unparsable or bad
  Error,    ///< internal failure confined to this request
};

[[nodiscard]] std::string_view state_name(RequestState s);

struct RequestOutcome {
  std::string id;         ///< request id from the batch file
  std::uint64_t seq{0};   ///< admission order (1-based, assigned at submit)
  RequestState state{RequestState::Error};
  guard::Code code{guard::Code::Ok};  ///< worst diagnostic (Ok when Done)
  std::string message;                ///< first error's message ("" if none)
  bool cache_hit{false};         ///< result came from the result cache
  bool design_cache_hit{false};  ///< design bundle came warm
  bool eco{false};               ///< request applied an ECO delta
  double elapsed_ms{0.0};        ///< wall time inside the worker lane
  /// The routed result (Done only). Shared with the result cache: a later
  /// eviction never invalidates an outcome already handed out.
  std::shared_ptr<const core::RouterResult> result;

  [[nodiscard]] bool ok() const { return state == RequestState::Done; }
  /// This request's exit code under the CLI contract (0/2/3/4).
  [[nodiscard]] int exit_code() const {
    return ok() ? guard::kExitOk : guard::exit_code_for(code);
  }
};

struct ServeStats {
  std::uint64_t submitted{0};
  std::uint64_t admitted{0};
  std::uint64_t done{0};
  std::uint64_t shed{0};
  std::uint64_t expired{0};
  std::uint64_t invalid{0};
  std::uint64_t errors{0};
  std::size_t queue_depth{0};
  std::size_t peak_queue_depth{0};
  CacheStats design_cache;
  CacheStats result_cache;
};

/// The service. Construct, start(), submit requests from any thread,
/// drain() exactly once when done (the destructor drains if the caller
/// forgot). Not copyable or movable -- lanes hold `this`.
class BatchService {
 public:
  explicit BatchService(ServeOptions opts);
  ~BatchService();
  BatchService(const BatchService&) = delete;
  BatchService& operator=(const BatchService&) = delete;

  [[nodiscard]] const ServeOptions& options() const { return opts_; }

  /// Spawn the worker lanes and open admission. Idempotent.
  void start();

  /// Submit one request. True when admitted; false when shed (the shed
  /// outcome is already recorded with GCR_E_OVERLOAD). Thread-safe.
  /// Submitting before start() is allowed -- requests queue (and shed at
  /// the bound) until the lanes come up. The `serve.enqueue` fault point
  /// fires here: an injected admission fault sheds the request exactly
  /// like a full queue.
  bool submit(io::RouteRequest req);

  /// Stop admitting; in-flight and queued requests still complete.
  /// Subsequent submissions shed. Wakes blocked (policy Block)
  /// submitters, which shed their request.
  void begin_drain();

  /// begin_drain(), run the queue dry, join the lanes, emit the
  /// `serve.drain` event with per-state counts. Idempotent.
  void drain();

  /// Block until the queue is empty and every lane is idle -- i.e. every
  /// request submitted so far has an outcome. Unlike drain(), admission
  /// stays open; the steady-state wait of a long-lived service.
  void wait_idle();

  /// All outcomes recorded so far, in completion order; clears the
  /// internal buffer (call after drain() for the full batch).
  [[nodiscard]] std::vector<RequestOutcome> take_outcomes();

  [[nodiscard]] ServeStats stats() const;

  /// Drop both caches (tests, explicit invalidation).
  void clear_caches();

 private:
  /// A parsed design plus the router (which owns the activity engine
  /// built from its instruction stream) -- the expensive intermediate
  /// the design cache amortizes. The router is not movable, hence the
  /// unique_ptr indirection under the shared cache handle.
  struct DesignBundle {
    std::unique_ptr<const core::GatedClockRouter> router;
    std::uint64_t content_hash{0};
  };

  struct Pending {
    std::uint64_t seq{0};
    io::RouteRequest req;
  };

  void worker_loop();
  [[nodiscard]] RequestOutcome process(const io::RouteRequest& req,
                                       std::uint64_t seq);
  void record(RequestOutcome out);
  [[nodiscard]] RequestOutcome make_shed(const io::RouteRequest& req,
                                         std::uint64_t seq,
                                         std::string why) const;

  [[nodiscard]] std::string resolve(const std::string& path) const;
  /// Read a whole file (through the `serve.read` fault point); false and
  /// a GCR_E_IO diagnostic when unreadable.
  [[nodiscard]] bool slurp(const std::string& path, std::string& text,
                           guard::Diag& diag) const;
  [[nodiscard]] std::shared_ptr<const DesignBundle> load_design(
      const io::RouteRequest& req, guard::Diag& diag, std::uint64_t* key,
      bool* cache_hit);

  ServeOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;  ///< workers park here
  std::condition_variable not_full_;   ///< Block-policy submitters park here
  std::condition_variable idle_;       ///< wait_idle() parks here
  std::deque<Pending> queue_;
  std::vector<std::thread> workers_;
  bool started_{false};
  bool draining_{false};
  int busy_{0};  ///< lanes currently processing a request
  std::uint64_t next_seq_{0};
  std::vector<RequestOutcome> outcomes_;

  // Counters (guarded by mu_); obs mirrors live under "serve.*".
  std::uint64_t submitted_{0};
  std::uint64_t admitted_{0};
  std::uint64_t done_{0};
  std::uint64_t shed_{0};
  std::uint64_t expired_{0};
  std::uint64_t invalid_{0};
  std::uint64_t errors_{0};
  std::size_t peak_depth_{0};

  LruCache<DesignBundle> design_cache_;
  LruCache<core::RouterResult> result_cache_;
};

}  // namespace gcr::serve
