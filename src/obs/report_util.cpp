#include "obs/report_util.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <iomanip>
#include <ostream>
#include <string>
#include <unistd.h>
#include <vector>

#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/timer.h"

namespace gcr::obs {

namespace {

void write_phases(json::Writer& w, const PhaseStats& node) {
  w.begin_object();
  w.field("name", node.name);
  w.field("calls", node.calls);
  w.field("total_ms", node.total_ms);
  if (node.alloc_count > 0 || node.alloc_bytes > 0) {
    w.field("alloc_count", node.alloc_count);
    w.field("alloc_bytes", node.alloc_bytes);
  }
  if (node.has_hw) {
    const std::array<const char*, kHwSlots>& names = hw_counter_names();
    w.key("hw").begin_object();
    for (int i = 0; i < kHwSlots; ++i)
      w.field(names[static_cast<std::size_t>(i)],
              node.hw[static_cast<std::size_t>(i)]);
    w.end_object();
  }
  w.key("children").begin_array();
  for (const auto& c : node.children) write_phases(w, *c);
  w.end_array();
  w.end_object();
}

}  // namespace

void write_phase_forest(json::Writer& w, const Session& session) {
  w.key("phases").begin_array();
  for (const auto& c : session.timers().root().children) write_phases(w, *c);
  w.end_array();
}

void write_metrics(json::Writer& w) {
  const Registry& reg = Registry::global();
  w.key("counters").begin_object();
  for (const auto& [name, value] : reg.counters()) w.field(name, value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : reg.gauges()) w.field(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, snap] : reg.histograms()) {
    w.key(name).begin_object();
    w.field("count", snap.count);
    w.field("sum", snap.sum);
    w.field("min", snap.min);
    w.field("max", snap.max);
    w.field("mean", snap.mean());
    // The bucket layout is part of the schema: pow2 = sparse map keyed by
    // each bucket's lower bound, plus an explicit "overflow" entry for
    // observations past the top bound (never folded into the last bucket).
    w.field("bucket_scheme", "pow2");
    w.key("buckets").begin_object();
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = snap.buckets[static_cast<std::size_t>(i)];
      if (n == 0) continue;
      w.field(json::number(std::ldexp(1.0, i - Histogram::kExpBias)), n);
    }
    if (snap.overflow > 0) w.field("overflow", snap.overflow);
    w.end_object();
    w.end_object();
  }
  w.end_object();
}

namespace {

std::string human_bytes(std::uint64_t b) {
  char buf[32];
  if (b >= 10ull * 1024 * 1024)
    std::snprintf(buf, sizeof buf, "%.1f MiB", double(b) / (1024.0 * 1024.0));
  else if (b >= 10ull * 1024)
    std::snprintf(buf, sizeof buf, "%.1f KiB", double(b) / 1024.0);
  else
    std::snprintf(buf, sizeof buf, "%llu B", static_cast<unsigned long long>(b));
  return buf;
}

void print_phase(std::ostream& os, const PhaseStats& node, int indent) {
  os << std::string(static_cast<std::size_t>(2 * indent), ' ') << node.name
     << "  " << std::fixed << std::setprecision(2) << node.total_ms << " ms";
  if (node.calls > 1) os << "  (x" << node.calls << ")";
  if (node.alloc_count > 0)
    os << "  [" << node.alloc_count << " allocs, "
       << human_bytes(node.alloc_bytes) << "]";
  os << '\n';
  for (const auto& c : node.children) print_phase(os, *c, indent + 1);
}

}  // namespace

void print_session_summary(std::ostream& os, const Session& session) {
  os << "-- phases --\n";
  for (const auto& c : session.timers().root().children)
    print_phase(os, *c, 1);
  os << "-- counters --\n";
  // Counters print largest first: the interesting number in a diagnosis
  // ("why is this slow") is almost always near the top of that order.
  std::vector<Registry::CounterEntry> counters = Registry::global().counters();
  std::stable_sort(counters.begin(), counters.end(),
                   [](const Registry::CounterEntry& a,
                      const Registry::CounterEntry& b) {
                     return a.value > b.value;
                   });
  for (const auto& [name, value] : counters)
    if (value != 0) os << "  " << name << " = " << value << '\n';
  for (const auto& [name, value] : Registry::global().gauges())
    if (value != 0.0) os << "  " << name << " = " << value << '\n';
  bool wrote_histo_header = false;
  for (const auto& [name, snap] : Registry::global().histograms()) {
    if (snap.count == 0) continue;
    if (!wrote_histo_header) {
      os << "-- histograms --\n";
      wrote_histo_header = true;
    }
    os << "  " << name << ": n=" << snap.count << " mean=" << snap.mean()
       << " min=" << snap.min << " max=" << snap.max << '\n';
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = snap.buckets[static_cast<std::size_t>(i)];
      if (n == 0) continue;  // non-zero buckets only
      os << "    >= " << std::ldexp(1.0, i - Histogram::kExpBias) << ": " << n
         << '\n';
    }
    if (snap.overflow > 0)
      os << "    overflow (>= "
         << std::ldexp(1.0, Histogram::kBuckets - Histogram::kExpBias)
         << "): " << snap.overflow << '\n';
  }
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[80];  // room for any int in every field: no truncation possible
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02dT%02d:%02d:%02dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec);
  return buf;
}

std::string host_name() {
  char buf[256];
  if (gethostname(buf, sizeof buf) != 0) return "unknown";
  buf[sizeof buf - 1] = '\0';
  return buf[0] != '\0' ? buf : "unknown";
}

}  // namespace gcr::obs
