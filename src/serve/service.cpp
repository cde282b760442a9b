#include "serve/service.h"

#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "eco/incremental.h"
#include "guard/deadline.h"
#include "guard/fault.h"
#include "io/delta_io.h"
#include "io/text_io.h"
#include "log/logger.h"
#include "obs/metrics.h"

namespace gcr::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void bump(const char* name, std::uint64_t n = 1) {
  if (obs::metrics_enabled()) [[unlikely]]
    obs::Registry::global().counter(name).inc(n);
}

void set_gauge(const char* name, double v) {
  if (obs::metrics_enabled()) [[unlikely]]
    obs::Registry::global().gauge(name).set(v);
}

/// Map the request's options onto RouterOptions. Serve routes flat, so
/// `threads` (ServeOptions::route_threads) shapes nothing.
core::RouterOptions make_router_options(const io::RouteRequest& req,
                                        int threads) {
  core::RouterOptions opts;
  opts.style = req.style;
  opts.topology = req.topology;
  opts.auto_tune_reduction = req.auto_tune;
  if (req.strength)
    opts.reduction = gating::GateReductionParams::from_strength(*req.strength);
  opts.num_threads = threads;
  return opts;
}

/// Result-cache fingerprint of everything that shapes the routed tree.
std::uint64_t options_fingerprint(const io::RouteRequest& req) {
  std::uint64_t h = hash_bytes(core::option_name(req.style), 0x517);
  h = hash_combine(h, hash_bytes(core::option_name(req.topology), 0x709));
  std::uint64_t strength_bits = 0x5e111;  // sentinel: defaulted strength
  if (req.strength)
    std::memcpy(&strength_bits, &*req.strength, sizeof strength_bits);
  h = hash_combine(h, strength_bits);
  return hash_combine(h, req.auto_tune ? 0xa1 : 0xa0);
}

/// Derive the terminal state a failed run's worst diagnostic maps to.
RequestState state_for_code(guard::Code code, bool cancelled) {
  if (cancelled || code == guard::Code::Deadline) return RequestState::Expired;
  if (guard::exit_code_for(code) == guard::kExitInvalidInput)
    return RequestState::Invalid;
  return RequestState::Error;
}

void fail_from_diag(RequestOutcome& out, const guard::Diag& diag,
                    bool cancelled = false) {
  const guard::Status first = diag.first_error();
  out.code = first.is_ok() ? guard::Code::Internal : first.code;
  out.message = first.is_ok() ? "request failed without a diagnostic"
                              : first.to_string();
  out.state = state_for_code(out.code, cancelled);
}

}  // namespace

std::string_view state_name(RequestState s) {
  switch (s) {
    case RequestState::Done: return "done";
    case RequestState::Shed: return "shed";
    case RequestState::Expired: return "expired";
    case RequestState::Invalid: return "invalid";
    case RequestState::Error: return "error";
  }
  return "error";
}

BatchService::BatchService(ServeOptions opts)
    : opts_(std::move(opts)),
      design_cache_("serve.design_cache", opts_.design_cache_capacity),
      result_cache_("serve.result_cache", opts_.result_cache_capacity) {
  if (opts_.workers < 1) opts_.workers = 1;
  if (opts_.queue_capacity < 1) opts_.queue_capacity = 1;
}

BatchService::~BatchService() { drain(); }

void BatchService::start() {
  const std::lock_guard<std::mutex> lk(mu_);
  if (started_) return;
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  GCR_LOG_INFO("serve.start")
      .kv("workers", opts_.workers)
      .kv("queue_capacity", static_cast<std::uint64_t>(opts_.queue_capacity))
      .kv("policy", opts_.policy == AdmitPolicy::Shed ? "shed" : "block")
      .kv("design_cache",
          static_cast<std::uint64_t>(opts_.design_cache_capacity))
      .kv("result_cache",
          static_cast<std::uint64_t>(opts_.result_cache_capacity));
}

RequestOutcome BatchService::make_shed(const io::RouteRequest& req,
                                       std::uint64_t seq,
                                       std::string why) const {
  RequestOutcome out;
  out.id = req.id;
  out.seq = seq;
  out.state = RequestState::Shed;
  out.code = guard::Code::Overload;
  out.message = std::move(why);
  return out;
}

bool BatchService::submit(io::RouteRequest req) {
  RequestOutcome shed_out;
  bool shed = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    ++submitted_;
    const std::uint64_t seq = ++next_seq_;
    if (guard::fault_point("serve.enqueue")) {
      shed_out = make_shed(req, seq, "injected admission fault");
      shed = true;
    } else if (draining_) {
      shed_out = make_shed(req, seq, "service is not admitting (draining)");
      shed = true;
    } else if (queue_.size() >= opts_.queue_capacity) {
      if (opts_.policy == AdmitPolicy::Block) {
        not_full_.wait(lk, [&] {
          return queue_.size() < opts_.queue_capacity || draining_;
        });
        if (draining_) {
          shed_out = make_shed(req, seq, "service began draining while queued");
          shed = true;
        }
      } else {
        shed_out = make_shed(
            req, seq,
            "admission queue full (" + std::to_string(opts_.queue_capacity) +
                " pending), request shed");
        shed = true;
      }
    }
    if (!shed) {
      ++admitted_;
      queue_.push_back(Pending{seq, std::move(req)});
      peak_depth_ = std::max(peak_depth_, queue_.size());
      set_gauge("serve.queue_depth", static_cast<double>(queue_.size()));
    }
  }
  if (shed) {
    bump("serve.shed");
    GCR_LOG_WARN("serve.shed")
        .kv("id", shed_out.id)
        .kv("code", guard::code_name(guard::Code::Overload))
        .msg(shed_out.message);
    record(std::move(shed_out));
    return false;
  }
  bump("serve.admitted");
  not_empty_.notify_one();
  return true;
}

void BatchService::begin_drain() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    if (draining_) return;
    draining_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

void BatchService::drain() {
  begin_drain();
  std::vector<std::thread> lanes;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    lanes.swap(workers_);
  }
  if (lanes.empty()) return;  // already drained (or never started)
  for (std::thread& w : lanes) w.join();
  std::uint64_t done = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t invalid = 0;
  std::uint64_t errors = 0;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    done = done_;
    shed = shed_;
    expired = expired_;
    invalid = invalid_;
    errors = errors_;
  }
  GCR_LOG_INFO("serve.drain")
      .kv("done", done)
      .kv("shed", shed)
      .kv("expired", expired)
      .kv("invalid", invalid)
      .kv("errors", errors);
}

void BatchService::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_.wait(lk, [&] {
    return queue_.empty() && busy_ == 0;
  });
}

std::vector<RequestOutcome> BatchService::take_outcomes() {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<RequestOutcome> out;
  out.swap(outcomes_);
  return out;
}

ServeStats BatchService::stats() const {
  ServeStats s;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    s.submitted = submitted_;
    s.admitted = admitted_;
    s.done = done_;
    s.shed = shed_;
    s.expired = expired_;
    s.invalid = invalid_;
    s.errors = errors_;
    s.queue_depth = queue_.size();
    s.peak_queue_depth = peak_depth_;
  }
  s.design_cache = design_cache_.stats();
  s.result_cache = result_cache_.stats();
  return s;
}

void BatchService::clear_caches() {
  design_cache_.clear();
  result_cache_.clear();
}

void BatchService::record(RequestOutcome out) {
  GCR_LOG_EVENT(out.ok() ? log::Level::Info : log::Level::Warn,
                "serve.outcome")
      .kv("id", out.id)
      .kv("seq", out.seq)
      .kv("state", state_name(out.state))
      .kv("code", out.code == guard::Code::Ok
                      ? std::string_view("")
                      : guard::code_name(out.code))
      .kv("cache_hit", out.cache_hit)
      .kv("eco", out.eco)
      .kv("elapsed_ms", out.elapsed_ms);
  const std::lock_guard<std::mutex> lk(mu_);
  switch (out.state) {
    case RequestState::Done: ++done_; break;
    case RequestState::Shed: ++shed_; break;
    case RequestState::Expired: ++expired_; break;
    case RequestState::Invalid: ++invalid_; break;
    case RequestState::Error: ++errors_; break;
  }
  outcomes_.push_back(std::move(out));
}

void BatchService::worker_loop() {
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lk(mu_);
      not_empty_.wait(lk, [&] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and dry
      p = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
      set_gauge("serve.queue_depth", static_cast<double>(queue_.size()));
    }
    not_full_.notify_one();
    record(process(p.req, p.seq));
    {
      const std::lock_guard<std::mutex> lk(mu_);
      --busy_;
      if (busy_ == 0 && queue_.empty()) idle_.notify_all();
    }
  }
}

std::string BatchService::resolve(const std::string& path) const {
  if (opts_.base_dir.empty()) return path;
  const std::filesystem::path p(path);
  if (p.is_absolute()) return path;
  return (std::filesystem::path(opts_.base_dir) / p).string();
}

bool BatchService::slurp(const std::string& path, std::string& text,
                         guard::Diag& diag) const {
  const std::string full = resolve(path);
  std::ifstream is(full, std::ios::binary);
  if (!is || guard::fault_point("serve.read")) {
    diag.error(guard::Code::Io, "cannot read '" + full + "'");
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  if (is.bad()) {
    diag.error(guard::Code::Io, "read failed on '" + full + "'");
    return false;
  }
  text = ss.str();
  return true;
}

std::shared_ptr<const BatchService::DesignBundle> BatchService::load_design(
    const io::RouteRequest& req, guard::Diag& diag, std::uint64_t* key,
    bool* cache_hit) {
  std::string sinks_text;
  std::string rtl_text;
  std::string stream_text;
  if (!slurp(req.sinks, sinks_text, diag)) return nullptr;
  if (!slurp(req.rtl, rtl_text, diag)) return nullptr;
  if (!slurp(req.stream, stream_text, diag)) return nullptr;
  const std::uint64_t h =
      hash_combine(hash_combine(hash_bytes(sinks_text, 1),
                                hash_bytes(rtl_text, 2)),
                   hash_bytes(stream_text, 3));
  *key = h;
  if (std::shared_ptr<const DesignBundle> cached = design_cache_.get(h)) {
    *cache_hit = true;
    return cached;
  }
  std::istringstream sinks_is(sinks_text);
  std::istringstream rtl_is(rtl_text);
  std::istringstream stream_is(stream_text);
  const std::optional<io::SinksFile> sinks =
      io::read_sinks(sinks_is, diag, req.sinks);
  const std::optional<activity::RtlDescription> rtl =
      io::read_rtl(rtl_is, diag, req.rtl);
  const std::optional<activity::InstructionStream> stream =
      io::read_stream(stream_is, diag, req.stream);
  if (!sinks || !rtl || !stream) return nullptr;
  core::Design d{sinks->die, sinks->sinks, *rtl, *stream, /*sink_module=*/{}};
  auto bundle = std::make_shared<DesignBundle>();
  bundle->router = std::make_unique<core::GatedClockRouter>(std::move(d));
  bundle->content_hash = h;
  std::uint64_t victim = 0;
  if (design_cache_.put(h, bundle, &victim)) {
    GCR_LOG_WARN("serve.cache_evict")
        .kv("cache", "design")
        .kv("key", victim)
        .kv("code", guard::code_name(guard::Code::CacheEvict));
  }
  return bundle;
}

RequestOutcome BatchService::process(const io::RouteRequest& req,
                                     std::uint64_t seq) {
  RequestOutcome out;
  out.id = req.id;
  out.seq = seq;
  const Clock::time_point t0 = Clock::now();
  const double budget =
      req.deadline_ms >= 0.0 ? req.deadline_ms : opts_.default_deadline_ms;
  const guard::Deadline deadline = budget >= 0.0
                                       ? guard::Deadline::after_ms(budget)
                                       : guard::Deadline();
  std::uint64_t design_key = 0;
  try {
    const guard::DeadlineScope scope(deadline);
    // A request that aged past its budget while queued dies here, before
    // any file I/O -- queue time counts against the deadline.
    guard::poll_deadline("serve.dequeue");
    guard::Diag diag;
    const std::shared_ptr<const DesignBundle> bundle =
        load_design(req, diag, &design_key, &out.design_cache_hit);
    if (bundle == nullptr) {
      fail_from_diag(out, diag);
      out.elapsed_ms = ms_since(t0);
      return out;
    }
    const core::RouterOptions ropts =
        make_router_options(req, opts_.route_threads);
    const std::uint64_t base_key =
        hash_combine(design_key, options_fingerprint(req));

    // Base route: warm from the result cache or computed and cached.
    std::shared_ptr<const core::RouterResult> base = result_cache_.get(base_key);
    if (base == nullptr) {
      core::RouteOutcome ro = bundle->router->route_guarded(ropts, deadline);
      if (!ro.ok()) {
        fail_from_diag(out, ro.diag, ro.cancelled);
        if (out.state == RequestState::Error) design_cache_.invalidate(design_key);
        out.elapsed_ms = ms_since(t0);
        return out;
      }
      base = std::make_shared<const core::RouterResult>(std::move(*ro.result));
      std::uint64_t victim = 0;
      if (result_cache_.put(base_key, base, &victim)) {
        GCR_LOG_WARN("serve.cache_evict")
            .kv("cache", "result")
            .kv("key", victim)
            .kv("code", guard::code_name(guard::Code::CacheEvict));
      }
    } else if (req.eco.empty()) {
      out.cache_hit = true;
    }

    if (req.eco.empty()) {
      out.result = base;
      out.state = RequestState::Done;
      out.elapsed_ms = ms_since(t0);
      return out;
    }

    // ECO request: incremental re-route on top of the (cached) base.
    out.eco = true;
    std::string delta_text;
    if (!slurp(req.eco, delta_text, diag)) {
      fail_from_diag(out, diag);
      out.elapsed_ms = ms_since(t0);
      return out;
    }
    const std::uint64_t eco_key =
        hash_combine(base_key, hash_bytes(delta_text, 4));
    if (std::shared_ptr<const core::RouterResult> cached =
            result_cache_.get(eco_key)) {
      out.result = cached;
      out.cache_hit = true;
      out.state = RequestState::Done;
      out.elapsed_ms = ms_since(t0);
      return out;
    }
    std::istringstream delta_is(delta_text);
    const std::optional<eco::DesignDelta> delta =
        io::read_delta(delta_is, diag, req.eco);
    if (!delta) {
      fail_from_diag(out, diag);
      out.elapsed_ms = ms_since(t0);
      return out;
    }
    core::RouteOutcome ro = eco::route_incremental(*bundle->router, *base,
                                                   *delta, ropts,
                                                   /*info=*/nullptr, deadline);
    if (!ro.ok()) {
      fail_from_diag(out, ro.diag, ro.cancelled);
      if (out.state == RequestState::Error) design_cache_.invalidate(design_key);
      out.elapsed_ms = ms_since(t0);
      return out;
    }
    const auto result =
        std::make_shared<const core::RouterResult>(std::move(*ro.result));
    std::uint64_t victim = 0;
    if (result_cache_.put(eco_key, result, &victim)) {
      GCR_LOG_WARN("serve.cache_evict")
          .kv("cache", "result")
          .kv("key", victim)
          .kv("code", guard::code_name(guard::Code::CacheEvict));
    }
    out.result = result;
    out.state = RequestState::Done;
  } catch (const guard::CancelledError& e) {
    out.state = RequestState::Expired;
    out.code = guard::Code::Deadline;
    out.message = e.status().message;
  } catch (const guard::GuardError& e) {
    out.code = e.status().code;
    out.message = e.status().message;
    out.state = state_for_code(out.code, /*cancelled=*/false);
    if (out.state == RequestState::Error && design_key != 0)
      design_cache_.invalidate(design_key);
  } catch (const std::exception& e) {
    // Anything else -- bad_alloc, a rejecting self-check, a logic error --
    // is confined to this request; a design-level intermediate that was
    // live when it happened is dropped as potentially poisoned.
    out.state = RequestState::Error;
    out.code = guard::Code::Internal;
    out.message = e.what();
    if (design_key != 0) design_cache_.invalidate(design_key);
  }
  out.elapsed_ms = ms_since(t0);
  return out;
}

}  // namespace gcr::serve
