#ifndef RAQO_COMMON_ARENA_H_
#define RAQO_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace raqo {

/// A bump allocator for planner scratch memory. The join-enumeration
/// inner loops (Selinger's 2^n memo, bushy DP's connectivity tables, the
/// reconstruction chain) are allocated afresh for every query; routing
/// them through the global allocator costs a malloc/free pair per
/// structure per query and scatters the memo across the heap. An Arena
/// hands out pointers by bumping a cursor through large blocks and frees
/// nothing until Reset(), which retains the largest block so a planner
/// that is reused across queries stops touching the global allocator
/// entirely once its blocks have grown to the workload's high-water mark.
///
/// Ownership/reset rules (see docs/PERF.md):
///   - one Arena per planner, owned by RaqoPlanner and reset per query;
///   - only trivially-destructible scratch goes in (DP entries, masks,
///     bitsets) — destructors are never run by the arena;
///   - returned plans (PlanNode trees) stay heap-allocated: they outlive
///     the query and their unique_ptr children run real destructors.
///
/// Not thread-safe: an arena belongs to one planner, and a planner to
/// one thread at a time (each PlanningService::Handle call plans on a
/// private RaqoPlanner).
class Arena {
 public:
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;
  static constexpr size_t kMaxAlign = alignof(std::max_align_t);

  explicit Arena(size_t min_block_bytes = kDefaultBlockBytes)
      : min_block_bytes_(min_block_bytes < 64 ? 64 : min_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two, at
  /// most kMaxAlign). Never returns nullptr; zero-byte requests get a
  /// unique valid pointer.
  void* Allocate(size_t bytes, size_t align = kMaxAlign);

  /// Typed array allocation; elements are NOT constructed.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(alignof(T) <= kMaxAlign,
                  "over-aligned types are not supported by the arena");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Drops every allocation. The largest block is kept for reuse, so a
  /// reset arena serves the next query of similar size without touching
  /// the global allocator. No destructors run — that is the contract:
  /// only trivially-destructible scratch may live here.
  void Reset();

  /// Bytes handed out since construction/Reset (before alignment pad).
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// Capacity currently held in blocks (survives Reset).
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
  };

  /// Grows the block list so the current block fits `bytes`.
  void AddBlock(size_t bytes);

  size_t min_block_bytes_;
  std::vector<Block> blocks_;
  char* cursor_ = nullptr;
  char* limit_ = nullptr;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

/// A std::allocator adapter so standard containers (the DP memo vectors)
/// draw from an arena. Deallocation is a no-op — memory returns only at
/// Arena::Reset() — so containers that grow geometrically leave their old
/// buffers behind; size scratch up front (reserve/resize once) where it
/// matters. The container still runs element destructors itself, so any
/// T works, but trivially-destructible T is the intended use.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) { return arena_->AllocateArray<T>(n); }
  void deallocate(T*, size_t) {}

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& other) const {
    return arena_ != other.arena();
  }

 private:
  Arena* arena_;
};

/// The common container shape for arena-backed planner scratch.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace raqo

#endif  // RAQO_COMMON_ARENA_H_
