#include "prof/ticker.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>

#include "log/logger.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "prof/recorder.h"

namespace gcr::prof {

namespace {

struct Tally {
  std::uint64_t self{0};
  std::uint64_t total{0};
};

struct HistoPrev {
  std::uint64_t count{0};
  double sum{0.0};
};

constexpr std::int64_t kNsPerSec = 1000000000;

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * kNsPerSec + ts.tv_nsec;
}

/// Current resident set size in bytes (/proc/self/statm), 0 when the proc
/// interface is unavailable.
std::uint64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  static const long page = ::sysconf(_SC_PAGESIZE);
  return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
}

}  // namespace

struct Ticker::Impl {
  std::mutex mu;
  std::condition_variable wake;  // stop() wakes the sleeping tick thread
  bool stop{false};              // guarded by mu
  bool running{false};
  Options opts;

  // Owned by the tick thread while running; read after join.
  std::map<std::string, Tally> tallies;
  std::uint64_t ticks{0};
  std::uint64_t torn{0};
  std::uint64_t seq{0};
  std::map<std::string, std::uint64_t> prev_counters;
  std::map<std::string, HistoPrev> prev_histograms;
  std::vector<std::string> stack;  // per-tick scratch, reused
  std::vector<std::string_view> seen;
  std::thread thread;  // last: runs loop() over every member above

  void sample() {
    ++ticks;
    const std::size_t threads = thread_count();
    for (std::size_t i = 0; i < threads; ++i) {
      const StackRead read = read_phase_stack(i, stack);
      if (read == StackRead::Torn) ++torn;
      if (read != StackRead::Ok || stack.empty()) continue;
      tallies[stack.back()].self += 1;
      // `total` counts each *distinct* name once per snapshot so a
      // re-entered phase (auto-tune's embed loop) is not double-counted.
      seen.clear();
      for (const std::string& name : stack) {
        if (std::find(seen.begin(), seen.end(), std::string_view(name)) !=
            seen.end())
          continue;
        seen.push_back(name);
        tallies[name].total += 1;
      }
    }
  }

  /// Render one gcr.snapshot line and write it through the logger.
  void snapshot() {
    log::Logger& lg = log::Logger::instance();
    std::string out;
    out.reserve(512);
    out += "{\"schema\":\"gcr.snapshot\",\"v\":";
    out += std::to_string(log::kSnapshotSchemaVersion);
    out += ",\"run\":";
    out += obs::json::quote(lg.run_id());
    out += ",\"seq\":";
    out += std::to_string(++seq);
    out += ",\"t_ms\":";
    out += obs::json::number(lg.now_ms());
    out += ",\"wall\":";
    out += obs::json::quote(log::iso8601_utc_ms(clock_ns(CLOCK_REALTIME)));
    out += ",\"interval_ms\":";
    out += std::to_string(opts.snapshot_ms);

    const obs::Registry& reg = obs::Registry::global();
    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : reg.counters()) {
      std::uint64_t& prev = prev_counters[name];
      if (value == prev) continue;
      // Registry::reset() between runs rewinds counters; restart deltas.
      const std::uint64_t delta = value >= prev ? value - prev : value;
      prev = value;
      if (delta == 0) continue;
      if (!first) out += ',';
      first = false;
      out += obs::json::quote(name);
      out += ':';
      out += std::to_string(delta);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : reg.gauges()) {
      if (value == 0.0) continue;
      if (!first) out += ',';
      first = false;
      out += obs::json::quote(name);
      out += ':';
      out += obs::json::number(value);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, snap] : reg.histograms()) {
      HistoPrev& prev = prev_histograms[name];
      const std::uint64_t dcount =
          snap.count >= prev.count ? snap.count - prev.count : snap.count;
      const double dsum =
          snap.count >= prev.count ? snap.sum - prev.sum : snap.sum;
      prev.count = snap.count;
      prev.sum = snap.sum;
      if (dcount == 0) continue;
      if (!first) out += ',';
      first = false;
      out += obs::json::quote(name);
      out += ":{\"count\":";
      out += std::to_string(dcount);
      out += ",\"sum\":";
      out += obs::json::number(dsum);
      out += '}';
    }
    out += '}';

    out += ",\"rss_bytes\":";
    out += std::to_string(current_rss_bytes());
    out += '}';

    log::Record r;
    r.kind = log::Record::Kind::Snapshot;
    r.level = log::Level::Info;
    r.name = "gcr.snapshot";
    r.t_ms = lg.now_ms();
    r.data = std::move(out);
    lg.write(r);
  }

  void loop() {
    using Clock = std::chrono::steady_clock;
    const std::chrono::nanoseconds snap_ns =
        std::chrono::milliseconds(opts.snapshot_ms);
    const std::chrono::nanoseconds tick_ns =
        opts.sample_us > 0 ? std::chrono::microseconds(opts.sample_us)
                           : snap_ns;
    Clock::time_point next = Clock::now();
    Clock::time_point snap_due = next + snap_ns;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      next += tick_ns;
      // An absolute deadline keeps the tick drift-free; stop() ends the
      // wait at once instead of after the rest of the period.
      if (wake.wait_until(lock, next, [this] { return stop; })) break;
      lock.unlock();
      if (opts.sample_us > 0) sample();
      if (snap_ns.count() > 0 && next >= snap_due) {
        snapshot();
        // One line per passed deadline at most: a tick that overslept
        // several snapshot periods does not emit a catch-up burst.
        while (snap_due <= next) snap_due += snap_ns;
      }
      lock.lock();
    }
  }
};

Ticker::Ticker() : impl_(std::make_unique<Impl>()) {}

Ticker::~Ticker() {
  if (impl_->running) (void)stop();
}

bool Ticker::running() const { return impl_->running; }

void Ticker::start(const Options& opts) {
  if (impl_->running || (opts.sample_us <= 0 && opts.snapshot_ms <= 0)) return;
  Options& o = impl_->opts;
  o.sample_us = std::max(0, opts.sample_us);
  o.snapshot_ms = std::max(0, opts.snapshot_ms);
  if (o.sample_us > 0) {
    // GCR_PROF_INTERVAL_US overrides the caller's period: the CLIs expose
    // no flag for it, and sub-10ms runs (the demo design) need a finer
    // tick than the 1 kHz default to land any samples at all.
    if (const char* env = std::getenv("GCR_PROF_INTERVAL_US")) {
      const int v = std::atoi(env);
      if (v > 0) o.sample_us = v;
    }
    o.sample_us = std::max(50, o.sample_us);
  }
  impl_->stop = false;
  impl_->tallies.clear();
  impl_->ticks = 0;
  impl_->torn = 0;
  impl_->seq = 0;
  impl_->prev_counters.clear();
  impl_->prev_histograms.clear();
  impl_->thread = std::thread([this] { impl_->loop(); });
  impl_->running = true;
}

Ticker::Profile Ticker::stop() {
  Profile p;
  if (!impl_->running) return p;
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->wake.notify_one();
  impl_->thread.join();
  impl_->running = false;
  if (impl_->opts.snapshot_ms > 0) impl_->snapshot();  // the tail delta
  p.interval_us = impl_->opts.sample_us;
  p.ticks = impl_->ticks;
  p.torn = impl_->torn;
  p.snapshots = impl_->seq;
  p.entries.reserve(impl_->tallies.size());
  for (const auto& [phase, tally] : impl_->tallies)
    p.entries.push_back({phase, tally.self, tally.total});
  std::sort(p.entries.begin(), p.entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.self != b.self) return a.self > b.self;
              return a.phase < b.phase;
            });
  return p;
}

}  // namespace gcr::prof
