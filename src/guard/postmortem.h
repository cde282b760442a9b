#pragma once

#include <string>

/// \file postmortem.h
/// gcr::guard glue between the structured-diagnostics layer and the
/// gcr::prof event recorder (prof/recorder.h).
///
/// The recorder is always on and holds the last-N events per thread; this
/// file decides *when that tail gets written to disk*, always through the
/// one signal-safe `gcr.flight_record` writer:
///
///   * `postmortem_dump(path)` -- explicit dump, used by the CLIs on
///     deadline expiry and other non-zero exits, and by the gcr_check
///     fault harness after an injected-failure sweep. The caller then
///     attaches a `GCR_W_FLIGHTREC` warning naming the file to its Diag,
///     so the dump is discoverable from the diagnostic stream alone.
///   * `install_postmortem(path)` -- crash insurance: registers fatal
///     signal handlers (SIGSEGV/SIGABRT/SIGBUS/SIGFPE) and a terminate
///     handler that write the rings with the signal-safe fd writer before
///     re-raising. Skipped when the build runs under ASan/TSan -- the
///     sanitizers own those signals and their report is strictly more
///     useful than ours.

namespace gcr::guard {

/// Write the flight-recorder rings to `path` now. Returns false (quietly)
/// when the file cannot be opened -- a failing dump must never turn a
/// diagnosed run into a worse one.
bool postmortem_dump(const std::string& path);

/// Install crash handlers that dump to `path` (copied into static storage,
/// truncated to 255 bytes) before re-raising the fatal signal. Idempotent;
/// the latest path wins.
void install_postmortem(const std::string& path);

}  // namespace gcr::guard
