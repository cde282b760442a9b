#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

/// \file recorder.h
/// gcr::prof -- the per-thread event recorder every observability view
/// reads from.
///
/// Each thread that records claims one slot of a fixed registry: a thread
/// ordinal, a ring holding the *last kRingCapacity* events it recorded
/// (older events are overwritten, never blocked on) and a seqlock'd stack
/// of its open phase names. Instrumented code records each event exactly
/// once -- ScopedTimer phase transitions, greedy merges, deadline polls and
/// fault hits always; best-partner recomputes and gate-reduction decisions
/// only while a `Capture` is open -- and every consumer only reads:
///
///   * the flight record and the crash dump read the ring tails
///     (`write_flight_record_fd`, guard/postmortem.h);
///   * the sampling profiler reads every thread's phase stack
///     (`read_phase_stack`);
///   * the log stamps events with the calling thread's `current_phase_path`
///     and `thread_ordinal`;
///   * the Chrome trace is `Capture::write_chrome_json` over the same
///     events, collected process-wide while the capture is open.
///
/// Recording is a handful of stores plus one steady-clock read, cheap
/// enough to stay always on. This translation unit is dependency-free on
/// purpose: it sits *below* `obs` and `guard` in the link graph so both
/// layers (and `cts`, `gating`) can record without cycles. Its JSON is
/// hand-rolled for the same reason, and the flight-record writer avoids
/// allocation and iostreams so a crashing signal handler can call it.

namespace gcr::prof {

enum class Ev : std::uint8_t {
  PhaseEnter,       ///< ScopedTimer opened a phase (what = phase name)
  PhaseExit,        ///< ScopedTimer closed a phase (x = elapsed us)
  Merge,            ///< greedy merge chosen, recorded before it is applied
  Recompute,        ///< best-partner recompute (capture only)
  Reduce,           ///< gate-reduction decision (capture only)
  DeadlinePoll,     ///< poll_deadline under a limited deadline (what = site)
  DeadlineExpired,  ///< the poll that threw CancelledError
  FaultHit,         ///< fault injector fired (what = site, a = visit)
  Mark,             ///< free-form marker (what, a, b, x)
};

[[nodiscard]] const char* ev_name(Ev kind);

/// `Reduce` rule bits in Event::flags.
enum ReduceFlag : std::uint8_t {
  kRuleActivity = 1,
  kRuleSwcap = 2,
  kRuleParent = 4,
  kForcedInsertion = 8,
  kRemoved = 16,
};

/// Longest name kept (bytes, incl. NUL) for `what` and phase-stack frames.
inline constexpr int kMaxName = 40;

/// One recorded event. Plain old data: rings and captures copy it by
/// value, and `what` is a truncated copy, never a pointer, so the recorder
/// cannot dangle into dynamically built phase names. Field use by kind:
///
///   Merge      a, b merged node ids; x Eq. 3 cost. Captured merges add
///              the runner-up pair c, d (c < 0: none), its cost y and the
///              front size n before the merge.
///   Recompute  a node, b best partner, x its cost, n pairs evaluated.
///   Reduce     a node, x p_en, y edge switched cap, flags ReduceFlag bits.
struct Event {
  std::uint64_t id{0};     ///< per-thread sequence number, from 1
  std::uint64_t ts_ns{0};  ///< steady-clock ns since process start
  std::int64_t a{0};
  std::int64_t b{0};
  double x{0.0};
  double y{0.0};
  std::int32_t c{0};
  std::int32_t d{0};
  std::uint32_t n{0};
  std::uint32_t thread{0};  ///< recording thread's ordinal
  Ev kind{Ev::Mark};
  std::uint8_t flags{0};
  char what[kMaxName]{};
};

/// An event of `kind` named `what` (truncated to fit; may be null).
[[nodiscard]] Event event(Ev kind, const char* what = nullptr);

/// Record `e` into the calling thread's ring (stamping id, ts_ns and
/// thread) and, while a Capture is open, into the capture.
void record(const Event& e);

inline void record(Ev kind, const char* what, std::int64_t a = 0,
                   std::int64_t b = 0, double x = 0.0) {
  Event e = event(kind, what);
  e.a = a;
  e.b = b;
  e.x = x;
  record(e);
}

/// Open a phase on the calling thread: push `name` onto its phase stack
/// and record PhaseEnter. Frames past the 16th are counted, not named.
void phase_enter(const char* name);
/// Close the innermost phase: record PhaseExit (x = elapsed_us), then pop.
void phase_exit(const char* name, double elapsed_us);

/// The calling thread's open phase path, outermost first and slash-joined
/// ("route/topology"); "" when no phase is open.
[[nodiscard]] std::string current_phase_path();

/// The calling thread's ordinal: 1 for the first thread that records,
/// successive ids after. The flight record, the trace `tid` and the log
/// `tid` all carry this one number.
[[nodiscard]] std::uint32_t thread_ordinal();

// --- readers ----------------------------------------------------------------

/// Ring capacity per thread (power of two; last-N semantics).
inline constexpr std::uint32_t kRingCapacity = 256;

/// Registry slots in use; slot indices for read_phase_stack.
[[nodiscard]] std::size_t thread_count();

enum class StackRead : std::uint8_t {
  Ok,       ///< `out` holds the open phases, outermost first
  Torn,     ///< the owner kept mutating across every retry
  Retired,  ///< the owning thread has exited (or the slot is not live yet)
};

/// Seqlock read of registry slot `i`'s open phase names: safe from any
/// thread while the owner pushes and pops.
StackRead read_phase_stack(std::size_t i, std::vector<std::string>& out);

/// The tail retained for one thread, oldest event first.
struct ThreadTail {
  std::uint32_t thread_ordinal{0};
  bool retired{false};        ///< the owning thread has exited
  std::uint64_t recorded{0};  ///< events ever recorded by the thread
  std::uint64_t dropped{0};   ///< overwritten (recorded - retained)
  std::vector<Event> events;
};

/// Copy every registered ring. Exact for quiescent or joined threads;
/// best-effort for threads still recording (a slot being overwritten
/// during the copy may read torn -- acceptable for a post-mortem).
[[nodiscard]] std::vector<ThreadTail> snapshot_rings();

/// Total events recorded into registered rings, process-wide.
[[nodiscard]] std::uint64_t total_recorded();

/// Write every ring as a `gcr.flight_record` v1 JSON document to `fd`.
/// Async-signal-safe: no allocation, no locks, only snprintf into stack
/// buffers and write(2), so the crash handler uses it as is. `crash`
/// marks a dump taken from a fatal signal or std::terminate. Returns
/// false when a write failed.
bool write_flight_record_fd(int fd, bool crash);

// --- capture ----------------------------------------------------------------

/// While open, every event any thread records is also appended to one
/// mutex-guarded buffer, and the capture-only events (recomputes,
/// reduction decisions, merge runner-ups) are recorded at all. At most one
/// capture is open at a time; opening one clears the previous buffer.
class Capture {
 public:
  Capture();
  ~Capture();  ///< stops if still open
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  /// Stop appending (idempotent). Captured events stay readable.
  void stop();

  /// The captured events in record order.
  [[nodiscard]] std::vector<Event> events() const;

  /// Chrome trace-event JSON array (chrome://tracing or Perfetto): phase
  /// slices as `X`, everything else as thread-scoped instants, `ts` in
  /// microseconds since the capture opened, `tid` the thread ordinal.
  void write_chrome_json(std::ostream& os) const;

 private:
  std::uint64_t t0_ns_;
};

/// True while a Capture is open: the guard for capture-only events.
[[nodiscard]] bool capturing();

}  // namespace gcr::prof
