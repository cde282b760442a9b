#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file logger.h
/// gcr::log -- leveled structured event logging (docs/observability.md).
///
/// Every emission is a schema-versioned `gcr.event` v2 record: monotonic
/// and wall-clock timestamps, the run id, the emitting thread's open phase
/// path and thread ordinal (both from the event recorder), a stable
/// dot-separated event name and a key-value payload.
/// Call sites use the GCR_LOG_* macros:
///
///   GCR_LOG_EVENT(gcr::log::Level::Info, "route.done")
///       .kv("sinks", n).kv("swcap_pf", w);
///
/// The macro checks `enabled(level)` before the builder exists, so a
/// disabled logger costs one relaxed atomic load and allocates nothing;
/// levels below GCR_LOG_COMPILE_MIN_LEVEL compile to no code at all (the
/// trace level's compile-out switch). An admitted record is rendered and
/// written to every sink on the emitting thread, under the logger's one
/// mutex, so it is in the sinks when its statement returns and nothing is
/// ever dropped. Per-event-name token buckets rate-limit floods;
/// suppressed emissions are counted and the count rides on the next
/// admitted record of that name (and a final `log.suppressed` summary at
/// shutdown), so nothing disappears silently.

namespace gcr::guard {
struct Status;
}  // namespace gcr::guard

namespace gcr::log {

inline constexpr int kEventSchemaVersion = 2;
/// `gcr.snapshot` lines (prof::Ticker writes them through Logger::write).
inline constexpr int kSnapshotSchemaVersion = 2;

enum class Level : int { Trace = 0, Debug, Info, Warn, Error, Off };

[[nodiscard]] std::string_view level_name(Level l);
/// "trace"/"debug"/"info"/"warn"/"error"/"off" -> Level; nullopt on junk.
[[nodiscard]] std::optional<Level> parse_level(std::string_view s);

/// Levels below this floor are removed at compile time: the macro body
/// becomes an empty statement, arguments are never evaluated. Default 0
/// keeps every level linkable; a release build that wants trace calls
/// gone entirely configures -DGCR_LOG_COMPILE_MIN_LEVEL=1.
#ifndef GCR_LOG_COMPILE_MIN_LEVEL
#define GCR_LOG_COMPILE_MIN_LEVEL 0
#endif

[[nodiscard]] constexpr bool level_compiled_in(Level l) {
  return static_cast<int>(l) >= GCR_LOG_COMPILE_MIN_LEVEL;
}

namespace detail {
extern std::atomic<bool> g_log_on;  ///< fast gate, set only by init/shutdown
extern std::atomic<int> g_runtime_level;
}  // namespace detail

/// The one check every call site pays when the logger is off: a relaxed
/// bool load, then the runtime level compare only when it was on.
[[nodiscard]] inline bool enabled(Level l) {
  return detail::g_log_on.load(std::memory_order_relaxed) &&
         static_cast<int>(l) >=
             detail::g_runtime_level.load(std::memory_order_relaxed);
}

/// One event, timestamps and context captured at the call site, payload
/// pre-rendered (writing it only assembles the line).
struct Record {
  enum class Kind : std::uint8_t { Event, Snapshot };
  Kind kind{Kind::Event};
  Level level{Level::Info};
  std::string name;         ///< stable event name ("route.done")
  std::string phase;        ///< open phase path "route/topology" ("" = none)
  std::uint32_t tid{0};     ///< prof::thread_ordinal()
  double t_ms{0.0};         ///< monotonic ms since logger init
  std::int64_t wall_ns{0};  ///< wall clock, ns since the Unix epoch
  std::string data;         ///< rendered `"k":v,...` payload (no braces);
                            ///< for Kind::Snapshot the complete JSON line
  std::uint64_t suppressed{0};  ///< drops this record amortizes
  std::uint64_t session{0};  ///< logger session that admitted it; 0 = any
};

/// Render a Record as one `gcr.event` v2 JSON line (no trailing newline).
[[nodiscard]] std::string render_event_json(const Record& r,
                                            const std::string& run_id);
/// Human one-liner for the stderr sink: "[  12.3ms] warn  guard.diag ...".
[[nodiscard]] std::string render_human(const Record& r);

/// ISO-8601 UTC with millisecond precision ("2026-08-09T12:34:56.789Z").
[[nodiscard]] std::string iso8601_utc_ms(std::int64_t wall_ns);

/// A record consumer. write() runs on the emitting thread, under the
/// logger's mutex, so a sink sees one record at a time.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(const Record& r, const std::string& json_line) = 0;
  virtual void flush() {}
};

/// Human-readable lines to stderr for records at >= min_level; snapshot
/// records are machine data and are never printed here.
class StderrSink final : public Sink {
 public:
  explicit StderrSink(Level min_level) : min_level_(min_level) {}
  void write(const Record& r, const std::string& json_line) override;
  void flush() override;

 private:
  Level min_level_;
};

/// JSONL file sink: one rendered line per record, events and snapshots.
class FileSink final : public Sink {
 public:
  /// False (and a failed open() state) when the path is not writable.
  [[nodiscard]] bool open(const std::string& path);
  [[nodiscard]] bool ok() const { return file_ != nullptr; }
  ~FileSink() override;
  void write(const Record& r, const std::string& json_line) override;
  void flush() override;

 private:
  std::FILE* file_{nullptr};
};

/// Test sink: buffers records and rendered lines in memory.
class MemorySink final : public Sink {
 public:
  void write(const Record& r, const std::string& json_line) override;
  [[nodiscard]] std::vector<Record> records() const;
  [[nodiscard]] std::vector<std::string> lines() const;
  void clear();

 private:
  struct Impl;
  [[nodiscard]] Impl& impl() const;
  mutable std::shared_ptr<Impl> impl_;
};

struct Options {
  Level level{Level::Info};         ///< runtime floor for all sinks
  Level stderr_level{Level::Warn};  ///< human sink floor (Off = no stderr)
  std::string json_path;            ///< JSONL file ("" = no file sink)
  std::string run_id;               ///< "" = derive from wall clock + pid
  /// Token bucket per event name: sustained events/sec and burst size.
  /// <= 0 disables rate limiting.
  double rate_per_sec{200.0};
  double rate_burst{50.0};
  /// Extra sink (tests); the logger takes ownership.
  std::unique_ptr<Sink> extra_sink;
};

/// Per-event-name admission statistics (tests, shutdown summary).
struct RateStats {
  std::uint64_t admitted{0};
  std::uint64_t suppressed{0};
};

class Logger {
 public:
  static Logger& instance();

  /// Install sinks and open the gate. Idempotent while running (a second
  /// init is ignored); re-init after shutdown() is supported (tests).
  /// Returns false when `json_path` was set but could not be opened (the
  /// logger still starts with the remaining sinks).
  bool init(Options opts);

  /// Close the gate, write the per-name suppression summary, flush and
  /// drop the sinks. A record that arrives afterwards is discarded. Safe
  /// to call when never inited.
  void shutdown();

  [[nodiscard]] bool running() const;

  /// fflush every sink. No-op when not running.
  void flush();

  void set_level(Level l);
  [[nodiscard]] Level runtime_level() const;
  [[nodiscard]] const std::string& run_id() const;
  /// Monotonic milliseconds since init (the event t_ms epoch).
  [[nodiscard]] double now_ms() const;

  /// Admission check for `r.name`. True when the logger is running and the
  /// event may be emitted; then `r.session` and `r.t_ms` are stamped and
  /// `r.suppressed` receives the number of previously suppressed
  /// emissions this record accounts for.
  bool admit(Record& r);

  /// Render `r` and write it to every sink on the calling thread
  /// (EventBuilder and prof::Ticker's snapshots). Discarded when the logger
  /// is stopped or `r.session` names an earlier session.
  void write(const Record& r);

  [[nodiscard]] RateStats rate_stats(const std::string& name) const;

 private:
  Logger();
  ~Logger();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Builds one event record inline at the call site; writes it on
/// destruction. Construct only via the GCR_LOG_EVENT macro (which has
/// already checked enabled()); a rate-limited builder turns inert.
class EventBuilder {
 public:
  EventBuilder(Level level, std::string_view name);
  ~EventBuilder();
  EventBuilder(const EventBuilder&) = delete;
  EventBuilder& operator=(const EventBuilder&) = delete;

  EventBuilder& kv(std::string_view key, std::string_view v);
  EventBuilder& kv(std::string_view key, const char* v) {
    return kv(key, std::string_view(v));
  }
  EventBuilder& kv(std::string_view key, const std::string& v) {
    return kv(key, std::string_view(v));
  }
  EventBuilder& kv(std::string_view key, double v);
  EventBuilder& kv(std::string_view key, std::int64_t v);
  EventBuilder& kv(std::string_view key, std::uint64_t v);
  EventBuilder& kv(std::string_view key, int v) {
    return kv(key, static_cast<std::int64_t>(v));
  }
  EventBuilder& kv(std::string_view key, unsigned v) {
    return kv(key, static_cast<std::uint64_t>(v));
  }
  EventBuilder& kv(std::string_view key, bool v);
  /// Shorthand for the conventional human-message key.
  EventBuilder& msg(std::string_view m) { return kv("msg", m); }

 private:
  void append_key(std::string_view key);

  bool admitted_{false};
  Record rec_;
};

/// Every guard::Diag report becomes a `guard.diag` event (severity mapped
/// to Warn/Error) and bumps the `log.guard_warnings` / `log.guard_errors`
/// obs counters. Installed by the CLIs after Logger::init; library code
/// and tests that never install it see unchanged Diag behavior.
void install_guard_bridge();
/// Restore the previous hook (e.g. around intentional fault sweeps).
void remove_guard_bridge();

/// The CLIs' logger bring-up, held for the whole of main(). Flag values
/// win over the GCR_LOG / GCR_LOG_LEVEL environment; `verbose` lowers the
/// runtime floor and the human stderr floor to debug; `floor` is the
/// runtime floor when neither flag nor environment names one. Installs the
/// guard bridge; the destructor removes it and shuts the logger down.
class CliLogger {
 public:
  struct Flags {
    std::string json_path;  ///< --log-json ("" = GCR_LOG or none)
    std::string level;      ///< --log-level ("" = GCR_LOG_LEVEL or floor)
    bool verbose{false};    ///< --verbose / --debug
  };

  explicit CliLogger(const Flags& flags, Level floor = Level::Info);
  ~CliLogger();
  CliLogger(const CliLogger&) = delete;
  CliLogger& operator=(const CliLogger&) = delete;

  /// False when the JSONL path could not be opened.
  [[nodiscard]] bool ok() const { return ok_; }
  /// True when a JSONL file sink is open (the only sink that keeps
  /// gcr.snapshot lines).
  [[nodiscard]] bool jsonl() const { return jsonl_; }

 private:
  bool ok_;
  bool jsonl_;
};

}  // namespace gcr::log

/// Emit a structured event. Usage:
///   GCR_LOG_EVENT(gcr::log::Level::Warn, "route.partial").kv("phase", p);
/// The whole statement (builder, kv arguments) evaluates only when the
/// level is compiled in AND the logger is enabled at that level.
#define GCR_LOG_EVENT(lvl, name)                               \
  if (!(gcr::log::level_compiled_in(lvl) && gcr::log::enabled(lvl))) {} \
  else gcr::log::EventBuilder(lvl, name)

#define GCR_LOG_TRACE(name) GCR_LOG_EVENT(gcr::log::Level::Trace, name)
#define GCR_LOG_DEBUG(name) GCR_LOG_EVENT(gcr::log::Level::Debug, name)
#define GCR_LOG_INFO(name) GCR_LOG_EVENT(gcr::log::Level::Info, name)
#define GCR_LOG_WARN(name) GCR_LOG_EVENT(gcr::log::Level::Warn, name)
#define GCR_LOG_ERROR(name) GCR_LOG_EVENT(gcr::log::Level::Error, name)
