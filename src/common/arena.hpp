// Arena: a per-worker bump allocator with size-class recycling, and
// the std-allocator adaptor that lets container-heavy hot state
// (JoinStore buckets and hash nodes) live off the global allocator.
//
// Design, in order of importance:
//
//  1. *Thread ownership, not thread safety.* An Arena belongs to one
//     thread (a live-engine worker). All operations are
//     unsynchronized.
//  2. *Bump + free list.* Fresh blocks are carved from chunk tails
//     (pointer bump, no metadata). Freed blocks go onto a per-size-
//     class free list threaded through the blocks themselves, so
//     steady-state churn (deque pages, hash nodes) recycles
//     without ever touching ::operator new again.
//  3. *Graceful exhaustion.* Requests that exceed the chunk size, an
//     optional byte budget, or an alignment the arena cannot honor
//     fall back to the global allocator — counted, never fatal. An
//     arena is an optimization, not a correctness boundary.
//
// Blocks are rounded up to power-of-two size classes (min 16 bytes, so
// every block can hold the free-list link and is 16-aligned). Chunks
// are allocated with alignof(std::max_align_t); requests with stricter
// alignment than the size-class guarantees use the fallback path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace fastjoin {

/// Running counters for one arena; cheap enough to keep always-on.
struct ArenaStats {
  std::uint64_t chunk_allocs = 0;     ///< chunks fetched from ::new
  std::uint64_t bump_allocs = 0;      ///< blocks carved from chunk tails
  std::uint64_t freelist_allocs = 0;  ///< blocks recycled off free lists
  std::uint64_t fallback_allocs = 0;  ///< handed to the global allocator
  std::uint64_t frees = 0;            ///< blocks returned (either path)
  std::uint64_t bytes_reserved = 0;   ///< total chunk bytes held
};

class Arena {
 public:
  /// `chunk_bytes`: size of each slab requested from the global
  /// allocator. `max_bytes`: optional budget; once reserved chunk
  /// bytes reach it, further block requests use the fallback path
  /// (0 = unbounded).
  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes,
                 std::size_t max_bytes = 0)
      : chunk_bytes_(chunk_bytes < kMinClass ? kMinClass : chunk_bytes),
        max_bytes_(max_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (void* p : chunks_) ::operator delete(p);
  }

  void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    if (align > alignof(std::max_align_t) || bytes > max_block_bytes()) {
      return fallback_alloc(bytes, align);
    }
    const unsigned cls = size_class(bytes);
    if (void* p = free_[cls]) {
      free_[cls] = *static_cast<void**>(p);
      ++stats_.freelist_allocs;
      return p;
    }
    const std::size_t want = std::size_t{1} << (cls + kMinClassLog);
    if (bump_ + want > bump_end_) {
      if (!grow()) {
        // Budget exhausted (or chunk allocation failed): serve this
        // block from the heap but keep OWNING it, so it still recycles
        // through the free list and is reclaimed by the destructor.
        void* p = ::operator new(want);
        chunks_.push_back(p);
        ++stats_.fallback_allocs;
        return p;
      }
    }
    void* p = bump_;
    bump_ += want;
    ++stats_.bump_allocs;
    return p;
  }

  void deallocate(void* p, std::size_t bytes, std::size_t align) {
    if (p == nullptr) return;
    if (bytes == 0) bytes = 1;
    ++stats_.frees;
    if (align > alignof(std::max_align_t)) {
      ::operator delete(p, std::align_val_t{align});
      return;
    }
    if (bytes > max_block_bytes()) {
      ::operator delete(p);
      return;
    }
    const unsigned cls = size_class(bytes);
    *static_cast<void**>(p) = free_[cls];
    free_[cls] = p;
  }

  const ArenaStats& stats() const { return stats_; }

  /// Largest request served from chunks; larger ones fall back.
  std::size_t max_block_bytes() const { return chunk_bytes_ / 2; }

  static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

 private:
  static constexpr unsigned kMinClassLog = 4;  // 16-byte minimum class
  static constexpr std::size_t kMinClass = std::size_t{1} << kMinClassLog;
  static constexpr unsigned kNumClasses = 32;

  /// Index of the smallest power-of-two class holding `bytes`.
  static unsigned size_class(std::size_t bytes) {
    unsigned cls = 0;
    std::size_t cap = kMinClass;
    while (cap < bytes) {
      cap <<= 1;
      ++cls;
    }
    return cls;
  }

  bool grow() {
    if (max_bytes_ != 0 && stats_.bytes_reserved + chunk_bytes_ > max_bytes_) {
      return false;
    }
    void* chunk = ::operator new(chunk_bytes_, std::nothrow);
    if (chunk == nullptr) return false;
    chunks_.push_back(chunk);
    bump_ = static_cast<std::byte*>(chunk);
    bump_end_ = bump_ + chunk_bytes_;
    ++stats_.chunk_allocs;
    stats_.bytes_reserved += chunk_bytes_;
    return true;
  }

  void* fallback_alloc(std::size_t bytes, std::size_t align) {
    ++stats_.fallback_allocs;
    if (align > alignof(std::max_align_t)) {
      return ::operator new(bytes, std::align_val_t{align});
    }
    return ::operator new(bytes);
  }

  std::size_t chunk_bytes_;
  std::size_t max_bytes_;
  std::byte* bump_ = nullptr;
  std::byte* bump_end_ = nullptr;
  std::vector<void*> chunks_;
  void* free_[kNumClasses] = {};
  ArenaStats stats_;
};

/// std-allocator adaptor. A null arena degrades to the global
/// allocator, so arena use stays a constructor-time decision instead
/// of a template split through every container type. Propagates on
/// container copy/move/swap: a bucket built on worker A's arena must
/// not follow a rebalance to worker B still pointing at A's chunks.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() = default;
  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other)  // NOLINT(runtime/explicit)
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) {
    if (arena_ != nullptr) {
      arena_->deallocate(p, n * sizeof(T), alignof(T));
      return;
    }
    ::operator delete(p);
  }

  Arena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return !(a == b);
  }

 private:
  Arena* arena_ = nullptr;
};

}  // namespace fastjoin
