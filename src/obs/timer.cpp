#include "obs/timer.h"

#include <cassert>

#include "obs/session.h"
#include "prof/recorder.h"

namespace gcr::obs {

namespace {
AllocSamplerFn g_alloc_sampler = nullptr;
HwSamplerFn g_hw_sampler = nullptr;
std::array<const char*, kHwSlots> g_hw_names = {"hw0", "hw1", "hw2", "hw3"};
}  // namespace

void set_alloc_sampler(AllocSamplerFn fn) { g_alloc_sampler = fn; }

AllocSamplerFn alloc_sampler() { return g_alloc_sampler; }

void set_hw_sampler(HwSamplerFn fn,
                    const std::array<const char*, kHwSlots>& names) {
  g_hw_sampler = fn;
  // Names stick on uninstall: reports written after disable_hw_counters()
  // must still label the per-phase values collected while it was on.
  if (fn != nullptr) g_hw_names = names;
}

HwSamplerFn hw_sampler() { return g_hw_sampler; }

const std::array<const char*, kHwSlots>& hw_counter_names() {
  return g_hw_names;
}

PhaseStats& PhaseStats::child(std::string_view child_name) {
  for (const auto& c : children)
    if (c->name == child_name) return *c;
  children.push_back(std::make_unique<PhaseStats>());
  children.back()->name = std::string(child_name);
  return *children.back();
}

PhaseStats& PhaseTimers::push(std::string_view name) {
  PhaseStats& node = stack_.back()->child(name);
  stack_.push_back(&node);
  return node;
}

void PhaseTimers::pop(double elapsed_ms, std::uint64_t alloc_count,
                      std::uint64_t alloc_bytes, const HwSample* hw_delta) {
  assert(stack_.size() > 1 && "pop without matching push");
  PhaseStats* node = stack_.back();
  stack_.pop_back();
  node->calls += 1;
  node->total_ms += elapsed_ms;
  node->alloc_count += alloc_count;
  node->alloc_bytes += alloc_bytes;
  if (hw_delta != nullptr) {
    node->has_hw = true;
    for (int i = 0; i < kHwSlots; ++i)
      node->hw[static_cast<std::size_t>(i)] +=
          hw_delta->v[static_cast<std::size_t>(i)];
  }
}

ScopedTimer::ScopedTimer(const char* name) : name_(name) {
  Session* s = current();
  if (!s) return;
  session_ = s;
  s->timers().push(name);
  if (const AllocSamplerFn sampler = alloc_sampler()) a0_ = sampler();
  if (const HwSamplerFn sampler = hw_sampler()) {
    h0_ = sampler();
    hw_ = true;
  }
  prof::phase_enter(name);
  t0_us_ = s->now_us();
}

ScopedTimer::~ScopedTimer() {
  if (!session_) return;
  const double t1_us = session_->now_us();
  AllocSample da;
  if (const AllocSamplerFn sampler = alloc_sampler()) {
    const AllocSample a1 = sampler();
    // Cumulative counters only grow; guard anyway in case the hook was
    // toggled mid-phase.
    da.allocs = a1.allocs >= a0_.allocs ? a1.allocs - a0_.allocs : 0;
    da.bytes = a1.bytes >= a0_.bytes ? a1.bytes - a0_.bytes : 0;
  }
  HwSample dh;
  bool have_hw = false;
  if (hw_) {
    if (const HwSamplerFn sampler = hw_sampler()) {
      const HwSample h1 = sampler();
      for (int i = 0; i < kHwSlots; ++i) {
        const std::size_t k = static_cast<std::size_t>(i);
        dh.v[k] = h1.v[k] >= h0_.v[k] ? h1.v[k] - h0_.v[k] : 0;
      }
      have_hw = true;
    }
  }
  session_->timers().pop((t1_us - t0_us_) / 1000.0, da.allocs, da.bytes,
                         have_hw ? &dh : nullptr);
  prof::phase_exit(name_, t1_us - t0_us_);
}

}  // namespace gcr::obs
