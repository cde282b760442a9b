#include "log/telemetry.h"

#include <atomic>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>

#include "log/logger.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace gcr::log {

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

namespace {

void add_us(timespec& ts, long us) {
  ts.tv_nsec += us * 1000L;
  while (ts.tv_nsec >= 1000000000L) {
    ts.tv_nsec -= 1000000000L;
    ++ts.tv_sec;
  }
}

std::int64_t wall_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct HistoPrev {
  std::uint64_t count{0};
  double sum{0.0};
};

}  // namespace

struct TelemetryEmitter::Impl {
  std::thread thread;
  std::atomic<bool> stop{false};
  bool running{false};
  int interval_ms{1000};
  std::uint64_t seq{0};

  std::map<std::string, std::uint64_t> prev_counters;
  std::map<std::string, HistoPrev> prev_histograms;

  /// Render one snapshot line and write it through the logger.
  void emit() {
    Logger& lg = Logger::instance();
    std::string out;
    out.reserve(512);
    out += "{\"schema\":\"gcr.snapshot\",\"v\":";
    out += std::to_string(kSnapshotSchemaVersion);
    out += ",\"run\":";
    out += obs::json::quote(lg.run_id());
    out += ",\"seq\":";
    out += std::to_string(++seq);
    out += ",\"t_ms\":";
    out += obs::json::number(lg.now_ms());
    out += ",\"wall\":";
    out += obs::json::quote(iso8601_utc_ms(wall_now_ns()));
    out += ",\"interval_ms\":";
    out += std::to_string(interval_ms);

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

    Record r;
    r.kind = Record::Kind::Snapshot;
    r.level = Level::Info;
    r.name = "gcr.snapshot";
    r.t_ms = lg.now_ms();
    r.data = std::move(out);
    lg.write(r);
  }

  void loop() {
    timespec next{};
    clock_gettime(CLOCK_MONOTONIC, &next);
    const long interval_us = static_cast<long>(interval_ms) * 1000;
    while (!stop.load(std::memory_order_acquire)) {
      add_us(next, interval_us);
      clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &next, nullptr);
      if (stop.load(std::memory_order_acquire)) break;
      emit();
    }
  }
};

TelemetryEmitter::TelemetryEmitter() : impl_(new Impl) {}

TelemetryEmitter::~TelemetryEmitter() {
  if (impl_->running) (void)stop();
}

void TelemetryEmitter::start(const Options& opts) {
  if (impl_->running) return;
  impl_->interval_ms = opts.interval_ms < 1 ? 1 : opts.interval_ms;
  impl_->stop.store(false, std::memory_order_release);
  impl_->seq = 0;
  impl_->prev_counters.clear();
  impl_->prev_histograms.clear();
  impl_->thread = std::thread([this] { impl_->loop(); });
  impl_->running = true;
}

std::uint64_t TelemetryEmitter::stop() {
  if (!impl_->running) return impl_->seq;
  impl_->stop.store(true, std::memory_order_release);
  if (impl_->thread.joinable()) impl_->thread.join();
  impl_->emit();  // the tail delta, so short runs still snapshot once
  impl_->running = false;
  return impl_->seq;
}

bool TelemetryEmitter::running() const { return impl_->running; }

}  // namespace gcr::log
