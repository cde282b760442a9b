#include "guard/arena.h"

#include <utility>

#include "guard/fault.h"

namespace gcr::guard {

char* BoundedArena::adopt(std::unique_ptr<char[]> block, std::size_t size) {
  if (size > capacity_ || used_ > capacity_ - size) return nullptr;
  if (fault_point("arena.alloc")) return nullptr;
  char* p = block.get();
  blocks_.push_back(std::move(block));
  used_ += size;
  return p;
}

}  // namespace gcr::guard
