#pragma once

#include <cstddef>
#include <memory>
#include <vector>

/// \file arena.h
/// A byte-capped owner of input blocks. Parsers stage untrusted input
/// through a `BoundedArena` so a hostile or corrupt file cannot grow memory
/// without bound: once the configured cap is reached, `adopt` returns
/// nullptr and the caller reports GCR_E_RESOURCE instead of letting the
/// process OOM. The arena is also a fault-injection site ("arena.alloc"),
/// which is how `gcr_check --faults` simulates allocation failure on every
/// parser path without poisoning the global allocator.

namespace gcr::guard {

class BoundedArena {
 public:
  /// `capacity_bytes` caps the *sum* of all block sizes (bookkeeping
  /// overhead is not charged; the cap is a policy limit, not an accounting
  /// of real RSS).
  explicit BoundedArena(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Take ownership of a block the caller already filled, charging `size`
  /// bytes against the cap without copying them. nullptr (and the block
  /// freed) when the cap would be exceeded or an armed fault plan fires at
  /// "arena.alloc"; otherwise the block, which lives until the arena is
  /// destroyed.
  char* adopt(std::unique_ptr<char[]> block, std::size_t size);

  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::size_t used_{0};
  std::vector<std::unique_ptr<char[]>> blocks_;
};

}  // namespace gcr::guard
