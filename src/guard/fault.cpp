#include "guard/fault.h"

#include <algorithm>
#include <ios>
#include <utility>

#include "prof/recorder.h"

namespace gcr::guard {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed hash so per-visit fire
/// decisions are independent of each other and of the visit order of
/// unrelated sites.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjector& FaultInjector::global() {
  static FaultInjector instance;
  return instance;
}

void FaultInjector::arm(const FaultPlan& plan) {
  plan_ = plan;
  visited_.store(0, std::memory_order_relaxed);
  fired_.store(0, std::memory_order_relaxed);
  last_site_.store(nullptr, std::memory_order_relaxed);
  armed_.store(plan.armed(), std::memory_order_release);
}

void FaultInjector::disarm() {
  armed_.store(false, std::memory_order_release);
}

bool FaultInjector::should_inject(const char* site) {
  if (!armed()) return false;
  const std::uint64_t visit =
      visited_.fetch_add(1, std::memory_order_relaxed) + 1;  // 1-based
  bool fire = false;
  if (plan_.nth > 0) {
    fire = visit == plan_.nth;
  } else if (plan_.probability > 0.0) {
    // Deterministic Bernoulli draw from (seed, visit index).
    const std::uint64_t h = mix64(plan_.seed ^ mix64(visit));
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
    fire = u < plan_.probability;
  }
  if (fire) {
    fired_.fetch_add(1, std::memory_order_relaxed);
    last_site_.store(site, std::memory_order_relaxed);
    prof::record(prof::Ev::FaultHit, site, static_cast<std::int64_t>(visit));
  }
  return fire;
}

std::string FaultInjector::last_site() const {
  const char* s = last_site_.load(std::memory_order_relaxed);
  return s == nullptr ? std::string{} : std::string{s};
}

ShortReadStreambuf::ShortReadStreambuf(std::string payload, std::size_t fail_at,
                                       Mode mode)
    : payload_(std::move(payload)), fail_at_(fail_at), mode_(mode) {
  const std::size_t avail = std::min(fail_at_, payload_.size());
  char* base = payload_.data();
  setg(base, base, base + avail);
}

ShortReadStreambuf::int_type ShortReadStreambuf::underflow() {
  // The whole serveable window was installed in the constructor, so any
  // refill request means the window is exhausted.
  if (fail_at_ >= payload_.size()) return traits_type::eof();  // true EOF
  tripped_ = true;
  if (mode_ == Mode::Truncate) return traits_type::eof();
  // Mode::Fail: istream turns an exception from underflow into badbit.
  throw std::ios_base::failure("injected mid-file read failure");
}

ShortReadStream::ShortReadStream(std::string payload, std::size_t fail_at,
                                 ShortReadStreambuf::Mode mode)
    : std::istream(nullptr), buf_(std::move(payload), fail_at, mode) {
  rdbuf(&buf_);
}

}  // namespace gcr::guard
