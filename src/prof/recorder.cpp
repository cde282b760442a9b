#include "prof/recorder.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <ostream>

namespace gcr::prof {

namespace {

/// Registry size. A new thread takes over the slot of an exited one when
/// there is one (its tail is lost), so the registry grows only to the peak
/// number of live recording threads; past kMaxThreads of them, a new
/// thread records into a private slot no reader sees.
constexpr std::size_t kMaxThreads = 1024;
/// Phase-stack frames named per thread.
constexpr int kMaxDepth = 16;

std::uint64_t mono_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void copy_name(char* dst, const char* src) {
  int i = 0;
  if (src != nullptr)
    for (; i + 1 < kMaxName && src[i] != '\0'; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

/// One per thread, leaked on purpose: an exited thread's tail must
/// survive until the post-mortem dump, and readers hold raw pointers.
struct Slot {
  std::atomic<std::uint32_t> ordinal{0};
  std::atomic<std::uint64_t> head{0};  ///< events ever recorded in the slot
  std::atomic<std::uint64_t> base{0};  ///< head when the owner claimed it
  std::atomic<bool> retired{false};
  Event ring[kRingCapacity];

  /// Open phase names. Seqlock: `seq` is odd while the owner mutates.
  /// Names are atomic bytes so a concurrent reader never races a plain
  /// store; a read that saw `seq` move is discarded.
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::int32_t> depth{0};
  std::atomic<char> names[kMaxDepth][kMaxName];
};

/// A fixed array, never reallocated: the crash handler walks it without a
/// lock. Slots publish with release after `g_count` is bumped, so readers
/// skip a null entry.
std::atomic<Slot*> g_slots[kMaxThreads];
std::atomic<std::size_t> g_count{0};
std::atomic<std::uint32_t> g_next_ordinal{1};

Slot* slot_at(std::size_t i) {
  return i < kMaxThreads ? g_slots[i].load(std::memory_order_acquire)
                         : nullptr;
}

/// Events the slot's current owner recorded, given a `head` just read.
std::uint64_t owner_events(const Slot& s, std::uint64_t head) {
  const std::uint64_t base = s.base.load(std::memory_order_acquire);
  return head > base ? head - base : 0;
}

Slot* claim_slot() {
  const std::uint32_t ordinal =
      g_next_ordinal.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < thread_count(); ++i) {
    Slot* s = slot_at(i);
    bool retired = true;
    if (s != nullptr &&
        s->retired.compare_exchange_strong(retired, false,
                                           std::memory_order_acq_rel)) {
      s->ordinal.store(ordinal, std::memory_order_relaxed);
      s->depth.store(0, std::memory_order_relaxed);
      s->base.store(s->head.load(std::memory_order_relaxed),
                    std::memory_order_release);
      return s;
    }
  }
  Slot* s = new Slot();
  s->ordinal.store(ordinal, std::memory_order_relaxed);
  const std::size_t i = g_count.fetch_add(1, std::memory_order_acq_rel);
  if (i < kMaxThreads) g_slots[i].store(s, std::memory_order_release);
  return s;
}

/// Thread-local handle; marks the slot retired when the thread exits.
struct ThreadSlot {
  Slot* slot = claim_slot();
  ~ThreadSlot() { slot->retired.store(true, std::memory_order_release); }
};

Slot& self() {
  thread_local ThreadSlot t;
  return *t.slot;
}

// Capture buffer, leaked so a late recorder never meets a destroyed one.
std::atomic<bool> g_capturing{false};
std::mutex g_capture_mu;
std::vector<Event>& captured() {
  static std::vector<Event>* v = new std::vector<Event>();
  return *v;
}

void record_into(Slot& s, const Event& e) {
  const std::uint64_t h = s.head.load(std::memory_order_relaxed);
  Event& slot = s.ring[h % kRingCapacity];
  slot = e;
  slot.id = h - s.base.load(std::memory_order_relaxed) + 1;
  slot.ts_ns = mono_ns();
  slot.thread = s.ordinal.load(std::memory_order_relaxed);
  // Release-publish so a cross-thread snapshot that observes the new head
  // also observes the slot contents.
  s.head.store(h + 1, std::memory_order_release);
  if (g_capturing.load(std::memory_order_relaxed)) [[unlikely]] {
    const std::lock_guard<std::mutex> lk(g_capture_mu);
    if (g_capturing.load(std::memory_order_relaxed))
      captured().push_back(slot);
  }
}

/// Shortest round-tripping JSON number ("null" when not finite).
/// Allocation-free, so the crash path can use it.
const char* json_number(char (&buf)[32], double v) {
  if (!std::isfinite(v)) return "null";
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf - 1, v,
                                       std::chars_format::general, 17);
  assert(ec == std::errc());
  *end = '\0';
  return buf;
}

/// JSON-escape a name of at most kMaxName - 1 bytes; stops there even
/// without a terminator, which a torn ring slot may lack.
const char* json_escape(char (&out)[6 * kMaxName], const char* s) {
  char* o = out;
  for (int i = 0; i + 1 < kMaxName && s[i] != '\0'; ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c == '"' || c == '\\') {
      *o++ = '\\';
      *o++ = static_cast<char>(c);
    } else if (c < 0x20) {
      o += std::snprintf(o, 7, "\\u%04x", c);
    } else {
      *o++ = static_cast<char>(c);
    }
  }
  *o = '\0';
  return out;
}

/// write(2) the first `n` bytes of `s`, retrying short and interrupted
/// writes. False on error (including a failed format, n < 0).
bool write_all(int fd, const char* s, int n) {
  for (int off = 0; n >= 0 && off < n;) {
    const ssize_t w = write(fd, s + off, static_cast<std::size_t>(n - off));
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += static_cast<int>(w);
  }
  return n >= 0;
}

}  // namespace

const char* ev_name(Ev kind) {
  switch (kind) {
    case Ev::PhaseEnter: return "phase_enter";
    case Ev::PhaseExit: return "phase_exit";
    case Ev::Merge: return "merge";
    case Ev::Recompute: return "recompute";
    case Ev::Reduce: return "reduce";
    case Ev::DeadlinePoll: return "deadline_poll";
    case Ev::DeadlineExpired: return "deadline_expired";
    case Ev::FaultHit: return "fault_hit";
    case Ev::Mark: return "mark";
  }
  return "unknown";
}

Event event(Ev kind, const char* what) {
  Event e;
  e.kind = kind;
  copy_name(e.what, what);
  return e;
}

void record(const Event& e) { record_into(self(), e); }

void phase_enter(const char* name) {
  Slot& s = self();
  const std::uint32_t s0 = s.seq.load(std::memory_order_relaxed);
  s.seq.store(s0 + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  const std::int32_t d = s.depth.load(std::memory_order_relaxed);
  if (d < kMaxDepth) {
    std::atomic<char>* frame = s.names[d];
    int i = 0;
    if (name != nullptr)
      for (; i + 1 < kMaxName && name[i] != '\0'; ++i)
        frame[i].store(name[i], std::memory_order_relaxed);
    frame[i].store('\0', std::memory_order_relaxed);
  }
  s.depth.store(d + 1, std::memory_order_relaxed);
  s.seq.store(s0 + 2, std::memory_order_release);
  record_into(s, event(Ev::PhaseEnter, name));
}

void phase_exit(const char* name, double elapsed_us) {
  Slot& s = self();
  Event e = event(Ev::PhaseExit, name);
  e.x = elapsed_us;
  record_into(s, e);
  const std::uint32_t s0 = s.seq.load(std::memory_order_relaxed);
  s.seq.store(s0 + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  const std::int32_t d = s.depth.load(std::memory_order_relaxed);
  if (d > 0) s.depth.store(d - 1, std::memory_order_relaxed);
  s.seq.store(s0 + 2, std::memory_order_release);
}

std::string current_phase_path() {
  // Owner-side read: only this thread mutates its stack, so no retry.
  const Slot& s = self();
  const std::int32_t d =
      std::min(s.depth.load(std::memory_order_relaxed), kMaxDepth);
  std::string out;
  for (std::int32_t f = 0; f < d; ++f) {
    if (f > 0) out += '/';
    for (int i = 0; i < kMaxName; ++i) {
      const char c = s.names[f][i].load(std::memory_order_relaxed);
      if (c == '\0') break;
      out += c;
    }
  }
  return out;
}

std::uint32_t thread_ordinal() {
  return self().ordinal.load(std::memory_order_relaxed);
}

std::size_t thread_count() {
  return std::min(g_count.load(std::memory_order_acquire), kMaxThreads);
}

StackRead read_phase_stack(std::size_t i, std::vector<std::string>& out) {
  out.clear();
  const Slot* s = slot_at(i);
  if (s == nullptr || s->retired.load(std::memory_order_acquire))
    return StackRead::Retired;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint32_t s0 = s->seq.load(std::memory_order_acquire);
    if (s0 & 1u) continue;  // owner mid-update
    out.clear();
    const std::int32_t d =
        std::min(s->depth.load(std::memory_order_relaxed), kMaxDepth);
    for (std::int32_t f = 0; f < d; ++f) {
      char buf[kMaxName];
      for (int c = 0; c < kMaxName; ++c)
        buf[c] = s->names[f][c].load(std::memory_order_relaxed);
      buf[kMaxName - 1] = '\0';
      out.emplace_back(buf);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s->seq.load(std::memory_order_relaxed) == s0) return StackRead::Ok;
  }
  out.clear();
  return StackRead::Torn;
}

std::vector<ThreadTail> snapshot_rings() {
  std::vector<ThreadTail> out;
  const std::size_t count = thread_count();
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Slot* s = slot_at(i);
    if (s == nullptr) continue;
    const std::uint64_t head = s->head.load(std::memory_order_acquire);
    ThreadTail t;
    t.thread_ordinal = s->ordinal.load(std::memory_order_relaxed);
    t.retired = s->retired.load(std::memory_order_acquire);
    t.recorded = owner_events(*s, head);
    const std::uint64_t n = std::min<std::uint64_t>(t.recorded, kRingCapacity);
    t.dropped = t.recorded - n;
    t.events.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t k = head - n; k < head; ++k)
      t.events.push_back(s->ring[k % kRingCapacity]);
    out.push_back(std::move(t));
  }
  return out;
}

std::uint64_t total_recorded() {
  std::uint64_t sum = 0;
  const std::size_t count = thread_count();
  for (std::size_t i = 0; i < count; ++i)
    if (const Slot* s = slot_at(i))
      sum += s->head.load(std::memory_order_relaxed);
  return sum;
}

bool write_flight_record_fd(int fd, bool crash) {
  // Crash path: no allocation, no locks -- only the registry's atomics. A
  // ring still being written may contribute a torn event, never a crash.
  char line[512];
  bool ok = true;
  const auto emit = [&](int len) {
    ok = write_all(fd, line, std::min(len, int{sizeof line} - 1)) && ok;
  };
  emit(std::snprintf(
      line, sizeof line,
      "{\"schema\":\"gcr.flight_record\",\"version\":1,\"crash\":%s,"
      "\"events_recorded\":%llu,\"threads\":[",
      crash ? "true" : "false",
      static_cast<unsigned long long>(total_recorded())));
  const char* sep = "";
  const std::size_t count = thread_count();
  for (std::size_t i = 0; i < count; ++i) {
    const Slot* s = slot_at(i);
    if (s == nullptr) continue;
    const std::uint64_t head = s->head.load(std::memory_order_acquire);
    const std::uint64_t recorded = owner_events(*s, head);
    if (recorded == 0) continue;  // never-recording threads add no signal
    const std::uint64_t n = std::min<std::uint64_t>(recorded, kRingCapacity);
    emit(std::snprintf(
        line, sizeof line,
        "%s{\"thread\":%u,\"retired\":%s,\"dropped\":%llu,\"events\":[",
        sep, s->ordinal.load(std::memory_order_relaxed),
        s->retired.load(std::memory_order_acquire) ? "true" : "false",
        static_cast<unsigned long long>(recorded - n)));
    sep = ",";
    for (std::uint64_t k = head - n; k < head; ++k) {
      const Event& e = s->ring[k % kRingCapacity];
      char what[6 * kMaxName];
      char x[32];
      emit(std::snprintf(
          line, sizeof line,
          "%s{\"id\":%llu,\"ts_ns\":%llu,\"kind\":\"%s\",\"what\":\"%s\","
          "\"a\":%lld,\"b\":%lld,\"x\":%s}",
          k == head - n ? "" : ",", static_cast<unsigned long long>(e.id),
          static_cast<unsigned long long>(e.ts_ns), ev_name(e.kind),
          json_escape(what, e.what), static_cast<long long>(e.a),
          static_cast<long long>(e.b), json_number(x, e.x)));
    }
    emit(std::snprintf(line, sizeof line, "]}"));
  }
  emit(std::snprintf(line, sizeof line, "]}\n"));
  return ok;
}

Capture::Capture() {
  const std::lock_guard<std::mutex> lk(g_capture_mu);
  assert(!g_capturing.load(std::memory_order_relaxed) &&
         "one Capture at a time");
  captured().clear();
  t0_ns_ = mono_ns();
  g_capturing.store(true, std::memory_order_relaxed);
}

Capture::~Capture() { stop(); }

void Capture::stop() {
  const std::lock_guard<std::mutex> lk(g_capture_mu);
  g_capturing.store(false, std::memory_order_relaxed);
}

std::vector<Event> Capture::events() const {
  const std::lock_guard<std::mutex> lk(g_capture_mu);
  return captured();
}

bool capturing() { return g_capturing.load(std::memory_order_relaxed); }

namespace {

const char* chrome_category(Ev kind) {
  switch (kind) {
    case Ev::PhaseEnter:
    case Ev::PhaseExit: return "phase";
    case Ev::Merge:
    case Ev::Recompute: return "cts";
    case Ev::Reduce: return "reduction";
    case Ev::Mark: return "mark";
    default: return "guard";
  }
}

/// The `"k":v,...` members of an instant event's "args" object.
std::string chrome_args(const Event& e) {
  std::string out;
  const auto add = [&](const char* key, const std::string& token) {
    if (!out.empty()) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += token;
  };
  const auto num = [&](const char* key, double v) {
    char buf[32];
    add(key, json_number(buf, v));
  };
  const auto i64 = [&](const char* key, std::int64_t v) {
    add(key, std::to_string(v));
  };
  const auto flag = [&](const char* key, std::uint8_t bit) {
    add(key, (e.flags & bit) != 0 ? "true" : "false");
  };
  char esc[6 * kMaxName];
  switch (e.kind) {
    case Ev::Merge:
      i64("a", e.a);
      i64("b", e.b);
      num("cost", e.x);
      if (e.c >= 0) {
        i64("runner_up_a", e.c);
        i64("runner_up_b", e.d);
        num("runner_up_cost", e.y);
      }
      i64("front", e.n);
      break;
    case Ev::Recompute:
      i64("node", e.a);
      i64("partner", e.b);
      num("cost", e.x);
      i64("evaluated", e.n);
      break;
    case Ev::Reduce:
      i64("node", e.a);
      num("p_en", e.x);
      num("edge_swcap", e.y);
      flag("rule_activity", kRuleActivity);
      flag("rule_swcap", kRuleSwcap);
      flag("rule_parent", kRuleParent);
      flag("forced_insertion", kForcedInsertion);
      flag("removed", kRemoved);
      break;
    case Ev::Mark:
      i64("a", e.a);
      i64("b", e.b);
      num("x", e.x);
      break;
    default:  // the guard events: deadline polls and fault hits
      add("site", std::string("\"") + json_escape(esc, e.what) + '"');
      if (e.kind == Ev::FaultHit) i64("visit", e.a);
      break;
  }
  return out;
}

}  // namespace

void Capture::write_chrome_json(std::ostream& os) const {
  std::string out = "[";
  for (const Event& e : events()) {
    if (e.kind == Ev::PhaseEnter) continue;  // its exit carries the slice
    if (out.size() > 1) out += ',';
    const bool slice = e.kind == Ev::PhaseExit;
    const double ts_us = (static_cast<double>(e.ts_ns) -
                          static_cast<double>(t0_ns_)) / 1000.0;
    char esc[6 * kMaxName];
    char num[32];
    out += "{\"name\":\"";
    out += json_escape(esc, slice || e.kind == Ev::Mark ? e.what
                                                        : ev_name(e.kind));
    out += "\",\"cat\":\"";
    out += chrome_category(e.kind);
    out += slice ? "\",\"ph\":\"X\"" : "\",\"ph\":\"i\"";
    out += ",\"pid\":1,\"tid\":" + std::to_string(e.thread) + ",\"ts\":";
    out += json_number(num, slice ? ts_us - e.x : ts_us);
    if (slice) {
      out += ",\"dur\":";
      out += json_number(num, e.x);
      out += '}';
    } else {
      out += ",\"s\":\"t\",\"args\":{" + chrome_args(e) + "}}";
    }
  }
  out += "]\n";
  os << out;
}

}  // namespace gcr::prof
