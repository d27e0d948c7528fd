// Global string interning for hot-path keys.
//
// The simulator keys almost everything by small strings — resource paths,
// host names, cache keys — and population-scale replay hashes and
// compares those strings millions of times. InternTable maps each
// distinct string to a dense uint32_t handle once; after that, every
// lookup, comparison and map key is integer-sized.
//
// Threading model: the fleet engine is share-nothing — each shard thread
// owns its sites, caches and testbeds outright. Interned ids follow the
// same discipline: `tls_intern()` returns a thread-local table, so
// interning is lock-free, and ids are valid only on the thread that
// produced them. Ids must therefore NEVER be serialized, stored in
// cross-thread structures, or compared across threads. Everything that
// leaves a shard (reports, traces, golden files) uses the original
// strings, which is also what keeps output byte-identical for any
// --threads value.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.h"

namespace catalyst {

/// Dense handle for an interned string; valid on the interning thread
/// only. Ids are assigned 0,1,2,... in first-intern order.
using InternId = std::uint32_t;

/// Sentinel for "no string": never returned by intern().
inline constexpr InternId kNoIntern = 0xffffffffu;

/// Semantic aliases for the hottest key spaces.
using SiteId = InternId;      // site identities in workload/fleet code
using HostId = InternId;      // network host names ("a.example")
using ResourceId = InternId;  // resource paths ("/index.html")

/// Append-only open-addressing string → InternId table. No erase: a
/// handle, once issued, stays valid for the table's lifetime, and
/// id-indexed side tables (vectors) never shift.
class InternTable {
 public:
  InternTable();

  /// Returns the id for `s`, interning it on first sight. O(1) amortized.
  InternId intern(std::string_view s);

  /// Returns the id for `s` if already interned, else kNoIntern. Never
  /// allocates.
  InternId find(std::string_view s) const;

  /// The interned string for `id`. Reference stays valid forever (arena
  /// storage). Precondition: `id` was returned by this table.
  const std::string& str(InternId id) const { return strings_[id]; }
  std::string_view view(InternId id) const { return strings_[id]; }

  /// Cached FNV-1a of the interned string (computed once at intern time).
  std::uint64_t hash_of(InternId id) const { return hashes_[id]; }

  /// Number of distinct strings interned.
  std::size_t size() const { return strings_.size(); }

 private:
  void grow();
  std::size_t mask() const { return slots_.size() - 1; }

  // Probe slots hold id+1 so zero-initialised means empty.
  std::vector<std::uint32_t> slots_;
  // Per-id storage, indexed by InternId. std::deque: stable references
  // across growth, so str() results can be held indefinitely.
  std::deque<std::string> strings_;
  std::vector<std::uint64_t> hashes_;
};

/// The calling thread's intern table (one per thread, created on first
/// use). All hot-path code shares this instance so equal strings map to
/// equal ids within a shard.
InternTable& tls_intern();

/// Convenience: intern on the calling thread's table.
inline InternId intern(std::string_view s) { return tls_intern().intern(s); }

}  // namespace catalyst
