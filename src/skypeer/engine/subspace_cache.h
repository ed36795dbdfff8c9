#ifndef SKYPEER_ENGINE_SUBSPACE_CACHE_H_
#define SKYPEER_ENGINE_SUBSPACE_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "skypeer/algo/sorted_skyline.h"
#include "skypeer/common/macros.h"

namespace skypeer {

/// \brief Thread-safe cache of unconstrained per-subspace scan traces,
/// keyed by (super-peer id, store epoch, subspace mask, filter
/// fingerprint).
///
/// The cached value is the event trace of the threshold scan over the
/// owning super-peer's store with no threshold (see `SortedSkyline`'s
/// `trace` argument); `ReplayScanTrace` then reproduces the exact
/// scan result — survivors, consumed-point count, final threshold — for
/// *any* incoming threshold without a single dominance test. A trace is
/// a pure function of (store, mask, broadcast filter set), so any filler
/// — the query path, a speculative staging worker, or a
/// `CloneForQueries` replica whose store is a copy of the original's —
/// produces bit-identical traces. That makes a single shared instance
/// safe to attach to a whole replica group: whichever thread fills an
/// entry first, every reader replays the same trace, and workload
/// aggregates stay independent of query order.
///
/// The filter fingerprint (`FilterFingerprint`, 0 = no filter) is part of
/// the key because a filtered scan's accept/evict decisions differ from
/// an unfiltered one's: replaying a no-filter trace for a filtered query
/// (or a trace recorded under a different initiator's filter) would
/// silently return the wrong survivors — the same class of inexactness
/// the threshold-constrained cache of PR 3 had. Entries are immutable
/// once published; churn invalidates per super-peer.
///
/// The store epoch is part of the key because churn installs may happen
/// while a pinned query still scans the *previous* epoch of the same
/// super-peer (see `SuperPeer::PinStoreEpoch`): without the epoch, a
/// pinned query's old-store trace fill could serve later queries of the
/// new store. Epochs are never reused, so a stale entry can never alias
/// a live one; `Invalidate` still drops every epoch of a super-peer in
/// one scoped range erase.
///
/// Capacity: `max_entries` > 0 bounds the cache with least-recently-used
/// eviction (a lookup hit or an insert refreshes the entry's recency;
/// the stalest entry is evicted on overflow). Eviction order is a pure
/// function of the lookup/insert sequence, so a fixed query order evicts
/// identically on every run. Because an evicted entry is refilled by the
/// same pure function and the miss path's replay equals the hit path's,
/// simulated metrics are identical at any cap — only the physical
/// hit/miss/eviction counters below differ.
class SubspaceScanTraceCache {
 public:
  /// Physical cache counters — out-of-band observability, never part of
  /// simulated metrics (their values depend on thread interleaving in
  /// parallel workloads).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Entries and trace bytes currently resident.
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };

  /// `max_entries` = 0 keeps the cache unbounded.
  explicit SubspaceScanTraceCache(size_t max_entries = 0)
      : max_entries_(max_entries) {}

  /// The cached unconstrained scan trace of `super_peer`'s store epoch
  /// `epoch` for `mask` under the filter identified by `filter_fp` (0 =
  /// no filter), or null. A hit refreshes the entry's recency.
  std::shared_ptr<const ScanTrace> Lookup(int super_peer, uint64_t epoch,
                                          uint32_t mask,
                                          uint64_t filter_fp) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find({super_peer, epoch, mask, filter_fp});
    if (it == entries_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    TouchLocked(&it->second, it->first);
    return it->second.trace;
  }

  /// Publishes `trace` for (super_peer, epoch, mask, filter_fp) and
  /// returns the entry. If another thread published first, its
  /// (identical) trace wins and is returned instead, so concurrent
  /// fillers converge on one object. Evicts the least-recently-used
  /// entries while over capacity.
  std::shared_ptr<const ScanTrace> Insert(
      int super_peer, uint64_t epoch, uint32_t mask, uint64_t filter_fp,
      std::shared_ptr<const ScanTrace> trace) {
    std::lock_guard<std::mutex> lock(mutex_);
    const Key key{super_peer, epoch, mask, filter_fp};
    const auto [it, inserted] = entries_.emplace(key, Entry{});
    if (inserted) {
      it->second.trace = std::move(trace);
      bytes_ += it->second.trace->ByteSize();
    }
    TouchLocked(&it->second, key);
    if (inserted && max_entries_ > 0) {
      while (entries_.size() > max_entries_) {
        EvictLocked();
      }
    }
    return it->second.trace;
  }

  /// Drops every entry of `super_peer` (all epochs) — call when its
  /// store changes (churn, snapshot restore). Scoped: entries of other
  /// super-peers are untouched.
  void Invalidate(int super_peer) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto begin = entries_.lower_bound({super_peer, 0, 0, 0});
    const auto end = entries_.upper_bound(
        {super_peer, UINT64_MAX, UINT32_MAX, UINT64_MAX});
    for (auto it = begin; it != end; ++it) {
      bytes_ -= it->second.trace->ByteSize();
      recency_.erase(it->second.tick);
    }
    entries_.erase(begin, end);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  size_t max_entries() const { return max_entries_; }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Stats stats = stats_;
    stats.entries = entries_.size();
    stats.bytes = bytes_;
    return stats;
  }

 private:
  /// (super-peer id, store epoch, subspace mask, filter fingerprint).
  using Key = std::tuple<int, uint64_t, uint32_t, uint64_t>;
  struct Entry {
    std::shared_ptr<const ScanTrace> trace;
    /// Recency stamp; key into `recency_`.
    uint64_t tick = 0;
  };

  void TouchLocked(Entry* entry, const Key& key) const {
    if (entry->tick != 0) {
      recency_.erase(entry->tick);
    }
    entry->tick = ++tick_;
    recency_.emplace(entry->tick, key);
  }

  void EvictLocked() {
    SKYPEER_DCHECK(!recency_.empty());
    const auto oldest = recency_.begin();
    const auto it = entries_.find(oldest->second);
    SKYPEER_DCHECK(it != entries_.end());
    bytes_ -= it->second.trace->ByteSize();
    entries_.erase(it);
    recency_.erase(oldest);
    ++stats_.evictions;
  }

  const size_t max_entries_;
  mutable std::mutex mutex_;
  mutable std::map<Key, Entry> entries_;
  /// tick -> key, ordered stalest-first. Ticks start at 1 (0 = unset).
  mutable std::map<uint64_t, Key> recency_;
  mutable uint64_t tick_ = 0;
  mutable uint64_t bytes_ = 0;
  mutable Stats stats_;
};

}  // namespace skypeer

#endif  // SKYPEER_ENGINE_SUBSPACE_CACHE_H_
