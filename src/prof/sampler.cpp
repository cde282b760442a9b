#include "prof/sampler.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <string_view>
#include <thread>
#include <utility>

#include "prof/recorder.h"

namespace gcr::prof {

namespace {

struct Tally {
  std::uint64_t self{0};
  std::uint64_t total{0};
};

timespec add_us(timespec t, long us) {
  t.tv_nsec += us * 1000L;
  while (t.tv_nsec >= 1000000000L) {
    t.tv_nsec -= 1000000000L;
    t.tv_sec += 1;
  }
  return t;
}

}  // namespace

struct Sampler::Impl {
  std::thread thread;
  std::atomic<bool> stop{false};
  bool running{false};
  Options opts;

  // Owned by the sampler thread while running; read after join.
  std::map<std::string, Tally> tallies;
  std::uint64_t ticks{0};
  std::uint64_t torn{0};

  void loop() {
    timespec next{};
    clock_gettime(CLOCK_MONOTONIC, &next);
    std::vector<std::string> stack;
    std::vector<std::string_view> seen;
    while (!stop.load(std::memory_order_acquire)) {
      next = add_us(next, opts.interval_us);
      while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &next, nullptr) ==
             EINTR) {
      }
      if (stop.load(std::memory_order_acquire)) break;
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
  }
};

Sampler::Sampler() : impl_(std::make_unique<Impl>()) {}

Sampler::~Sampler() {
  if (impl_->running) stop();
}

bool Sampler::running() const { return impl_->running; }

void Sampler::start(const Options& opts) {
  if (impl_->running) return;
  impl_->opts = opts;
  // GCR_PROF_INTERVAL_US overrides the caller's interval: the CLIs expose
  // no flag for it, and sub-10ms runs (the demo design) need a finer tick
  // than the 1 kHz default to land any samples at all.
  if (const char* env = std::getenv("GCR_PROF_INTERVAL_US")) {
    const int v = std::atoi(env);
    if (v > 0) impl_->opts.interval_us = v;
  }
  impl_->opts.interval_us = std::max(50, impl_->opts.interval_us);
  impl_->stop.store(false, std::memory_order_release);
  impl_->tallies.clear();
  impl_->ticks = 0;
  impl_->torn = 0;
  impl_->thread = std::thread([this] { impl_->loop(); });
  impl_->running = true;
}

Sampler::Profile Sampler::stop() {
  Profile p;
  if (!impl_->running) return p;
  impl_->stop.store(true, std::memory_order_release);
  impl_->thread.join();
  impl_->running = false;
  p.interval_us = impl_->opts.interval_us;
  p.ticks = impl_->ticks;
  p.torn = impl_->torn;
  p.entries.reserve(impl_->tallies.size());
  for (const auto& [phase, tally] : impl_->tallies) {
    Entry e;
    e.phase = phase;
    e.self = tally.self;
    e.total = tally.total;
    p.entries.push_back(std::move(e));
  }
  std::sort(p.entries.begin(), p.entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.self != b.self) return a.self > b.self;
              return a.phase < b.phase;
            });
  return p;
}

}  // namespace gcr::prof
