// Generation-checked slab pool for short-lived simulation objects.
//
// The event loop keeps one slot per scheduled event here. SlabPool keeps
// all objects in one growable slab and recycles slots through a free
// list, so acquire/release allocates nothing once the slab has grown to
// the peak number of live objects. The objects themselves may still
// allocate: the loop's std::function callbacks put every closure over 16
// bytes, most of the engine's, on the heap (DESIGN.md §12).
//
// Handles are (slot index, generation) pairs packed into a uint64_t. A
// slot's generation bumps on every release, so a stale handle — one held
// past its object's release — dereferences to nullptr instead of someone
// else's object. That property is what lets the event loop implement
// O(1) cancel() as "release if still live" with no tombstone set.
//
// Not thread-safe by design: pools live inside a single shard thread,
// like every other engine structure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace catalyst {

template <class T>
class SlabPool {
 public:
  /// Opaque handle: (slot << 32) | generation. Never 0 for a live object
  /// (generations start at 1), so 0 can serve as "no handle".
  using Handle = std::uint64_t;
  static constexpr Handle kNull = 0;

  /// Takes a slot (reusing a released one when available) and returns its
  /// handle. The object is default-state: freshly constructed or reset by
  /// the previous release().
  Handle acquire() {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].live = true;
    ++live_;
    return pack(slot, slots_[slot].gen);
  }

  /// The object behind `h`, or nullptr when `h` is stale/null. The
  /// pointer is invalidated by any later acquire() (slab growth) — use
  /// and drop it within one step.
  T* get(Handle h) {
    const std::uint32_t slot = static_cast<std::uint32_t>(h >> 32);
    if (slot >= slots_.size()) return nullptr;
    Entry& e = slots_[slot];
    if (!e.live || e.gen != static_cast<std::uint32_t>(h)) return nullptr;
    return &e.value;
  }
  const T* get(Handle h) const {
    return const_cast<SlabPool*>(this)->get(h);
  }

  /// Releases the object behind `h`: resets it to T{} (dropping any
  /// captured resources immediately), bumps the generation, and recycles
  /// the slot. Returns false when `h` was already stale (double release
  /// is a safe no-op).
  bool release(Handle h) {
    const std::uint32_t slot = static_cast<std::uint32_t>(h >> 32);
    if (slot >= slots_.size()) return false;
    Entry& e = slots_[slot];
    if (!e.live || e.gen != static_cast<std::uint32_t>(h)) return false;
    e.value = T{};
    e.live = false;
    ++e.gen;
    if (e.gen == 0) e.gen = 1;  // skip 0 after wrap so handles stay non-null
    --live_;
    free_.push_back(slot);
    return true;
  }

  /// Objects currently acquired.
  std::size_t live() const { return live_; }
  /// Slots ever created (high-water mark; tests/telemetry).
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Entry {
    T value{};
    std::uint32_t gen = 1;
    bool live = false;
  };

  static Handle pack(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<Handle>(slot) << 32) | gen;
  }

  std::vector<Entry> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace catalyst
