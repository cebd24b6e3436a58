#include "engine/sharded_engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "blueprint/parser.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/log.hpp"

namespace damocles::engine {

using events::EventMessage;
using metadb::Oid;
using metadb::OidId;

namespace {

/// Smallest power of two >= n (and >= 4).
size_t RingCapacity(size_t n) {
  size_t capacity = 4;
  while (capacity < n) capacity <<= 1;
  return capacity;
}

}  // namespace

// --- Task & ring ------------------------------------------------------------

/// One unit of shard work: a routed queue event, or a cross-shard
/// sub-wave (seeds + shared payload).
struct ShardedEngine::Task {
  enum class Kind : uint8_t { kEvent, kSeededWave };

  Kind kind = Kind::kEvent;
  uint32_t hops = 0;  ///< Cross-shard handoffs behind this task.
  uint64_t ticket = 0;  ///< Global intake order (deterministic mode).
  /// The top-level wave this task transitively descends from — the
  /// deterministic scheduling key. Differs from event.wave_epoch for
  /// direction-posted sub-waves: they claim under their own epoch (a
  /// fresh visited universe) but schedule under their spawning wave, so
  /// a wave's reachable work — direction posts included — completes
  /// before the next wave starts, like the single FIFO queue.
  uint64_t order_epoch = 0;
  EventMessage event;
  std::vector<OidId> seeds;  ///< kSeededWave only.
};

/// Bounded Vyukov ring. Producers never lock; a full ring is reported
/// to the caller, which falls back to the lane's overflow deque so
/// intake can never deadlock on a saturated shard. Two pop flavours:
/// TryPop assumes a single consumer (the lane's busy flag serializes
/// claimants — the top-level event ring), TryPopShared runs the full
/// MPMC protocol so stealers and the lane occupant can drain the
/// sub-wave ring concurrently.
class ShardedEngine::TaskRing {
 public:
  explicit TaskRing(size_t capacity)
      : cells_(new Cell[capacity]), mask_(capacity - 1) {
    for (size_t i = 0; i < capacity; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  bool TryPush(Task&& task) {
    size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.sequence.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          cell.task = std::move(task);
          cell.sequence.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // Full.
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single consumer at a time (the lane's busy flag serializes
  /// claimants and publishes dequeue_pos_ between them).
  bool TryPop(Task& out) {
    const size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const size_t seq = cell.sequence.load(std::memory_order_acquire);
    if (static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1) < 0) {
      return false;  // Empty.
    }
    out = std::move(cell.task);
    cell.task = Task{};  // Release payloads eagerly.
    cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Multi-consumer pop (Vyukov MPMC): concurrent claimants race on
  /// dequeue_pos_ with CAS; the winner owns the cell.
  bool TryPopShared(Task& out) {
    size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const size_t seq = cell.sequence.load(std::memory_order_acquire);
      const intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          out = std::move(cell.task);
          cell.task = Task{};  // Release payloads eagerly.
          cell.sequence.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // Empty.
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Approximate (racy reads are fine: idle wakeup predicate only).
  bool Empty() const {
    const size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    const Cell& cell = cells_[pos & mask_];
    return static_cast<intptr_t>(
               cell.sequence.load(std::memory_order_acquire)) -
               static_cast<intptr_t>(pos + 1) < 0;
  }

 private:
  struct Cell {
    std::atomic<size_t> sequence;
    Task task;
  };

  std::unique_ptr<Cell[]> cells_;
  size_t mask_;
  std::atomic<size_t> enqueue_pos_{0};
  std::atomic<size_t> dequeue_pos_{0};
};

// --- Shared counters --------------------------------------------------------

struct ShardedEngine::Counters {
  std::atomic<uint64_t> next_ticket{0};
  std::atomic<size_t> pending{0};  ///< Enqueued but not yet finished tasks.
  std::atomic<bool> stop{false};

  /// Per-OID delivery locks, striped by OID slot: a lane occupant and a
  /// stealer may deliver *different* epochs to the same OID
  /// concurrently; the stripe serializes the rule execution (and the
  /// property writes inside it). Stripe collisions only over-serialize.
  /// Cache-line padded: neighbouring stripes are hit by unrelated
  /// executors on every delivery, so sharing a line would put false
  /// sharing on exactly the path this layer optimizes.
  struct alignas(64) DeliveryStripe {
    std::atomic<uint8_t> flag{0};
  };
  std::array<DeliveryStripe, 256> delivery_stripes{};

  std::atomic<size_t> events_posted{0};
  std::atomic<size_t> tasks_processed{0};
  std::atomic<size_t> handoff_waves{0};
  std::atomic<size_t> handoff_seeds{0};
  std::atomic<size_t> seed_batch_splits{0};
  std::atomic<size_t> stolen_subwaves{0};
  std::atomic<size_t> handoff_waves_truncated{0};
  std::atomic<size_t> reposted_events{0};
  std::atomic<size_t> ring_overflows{0};

  // --- Wave epochs (exactly-once dedup) ---------------------------------
  std::atomic<uint64_t> next_epoch{0};   ///< Last minted epoch (0 = none).
  std::atomic<size_t> wave_epochs{0};    ///< Minted, for stats.
  /// In-flight refcounts per epoch; the ordered map keeps the purge
  /// horizon (the lowest live epoch) one begin() away. Guarded by
  /// epoch_mutex — this is per-task bookkeeping, far off the per-OID
  /// claim path, which stays lock-free inside the owning lane.
  std::mutex epoch_mutex;
  std::map<uint64_t, size_t> live_epochs;
  std::atomic<uint64_t> min_live_epoch{~uint64_t{0}};

  std::mutex drain_mutex;
  std::condition_variable drain_cv;

  /// Shared worker parking lot (workers service any lane, so there is
  /// no per-lane consumer to target a wakeup at).
  std::mutex wake_mutex;
  std::condition_variable wake_cv;
};

// --- Claim sets --------------------------------------------------------------

namespace {

/// (epoch -> delivered OID slots) exactly-once claim map with
/// rate-limited lazy merge-out. The ONE implementation of the claim
/// filter and purge cadence, wrapped unlocked by the lane-local router
/// path and under a mutex by the shared ClaimStore.
class EpochClaimSet {
 public:
  /// Filters `seeds` down to the claim winners (preserving order);
  /// returns the number suppressed. `horizon` is the caller's
  /// lowest-live-epoch snapshot, the merge-out bound.
  size_t Filter(uint64_t epoch, std::vector<OidId>& seeds, uint64_t horizon) {
    MaybePurge(horizon);
    claims_since_purge_ += seeds.size();
    std::unordered_set<uint32_t>& set = claims_[epoch];
    size_t suppressed = 0;
    auto keep = seeds.begin();
    for (const OidId seed : seeds) {
      if (set.insert(seed.value()).second) {
        *keep++ = seed;
      } else {
        ++suppressed;
      }
    }
    seeds.erase(keep, seeds.end());
    return suppressed;
  }

  /// The epoch below which completed waves' claim sets have been
  /// merged out (0 until the first purge).
  uint64_t purge_floor() const noexcept { return purge_floor_; }

 private:
  /// Lazy merge-out. Rate-limited: when many epochs are pinned live (a
  /// deep cross-shard backlog) an eager scan would free nothing and
  /// turn every claim round into an O(live-epochs) traversal.
  void MaybePurge(uint64_t horizon) {
    if (claims_since_purge_ < kPurgeInterval &&
        (claims_.size() <= kPurgeEpochThreshold ||
         claims_since_purge_ < kPurgeSizeBackoff)) {
      return;
    }
    claims_since_purge_ = 0;
    for (auto it = claims_.begin(); it != claims_.end();) {
      it = it->first < horizon ? claims_.erase(it) : std::next(it);
    }
    purge_floor_ = horizon;
  }

  /// Purge cadence: often enough that completed waves cannot pile up,
  /// rare enough to stay invisible next to rule execution. The size
  /// trigger fires at most once per kPurgeSizeBackoff claims.
  static constexpr size_t kPurgeInterval = 512;
  static constexpr size_t kPurgeEpochThreshold = 64;
  static constexpr size_t kPurgeSizeBackoff = 64;

  std::unordered_map<uint64_t, std::unordered_set<uint32_t>> claims_;
  size_t claims_since_purge_ = 0;
  uint64_t purge_floor_ = 0;
};

}  // namespace

/// The per-shard exactly-once claim set, published behind an
/// epoch-versioned read path so sub-waves of the shard can be claimed
/// from ANY executor (the owning lane's occupant or a stealing
/// worker): claim rounds happen under the store mutex — one batched
/// round per BFS generation, not one lock per receiver — and the purge
/// floor (the epoch below which claim sets have been merged out, i.e.
/// the version of the published claim state) is an atomic any thread
/// may read without the lock; ShardedStats::claim_purge_floor surfaces
/// it and the ShardedSteal suite asserts it advances. Only
/// instantiated for threaded multi-shard engines with lane stealing;
/// single-executor shards keep their lock-free lane-local claim sets
/// in the router.
class ShardedEngine::ClaimStore {
 public:
  /// Batched claim round under one lock acquisition; see
  /// EpochClaimSet::Filter.
  size_t ClaimBatch(uint64_t epoch, std::vector<OidId>& seeds,
                    uint64_t horizon) {
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t suppressed = claims_.Filter(epoch, seeds, horizon);
    purge_floor_.store(claims_.purge_floor(), std::memory_order_release);
    return suppressed;
  }

  /// Lock-free view of the merge-out horizon.
  uint64_t purge_floor() const noexcept {
    return purge_floor_.load(std::memory_order_acquire);
  }

 private:
  std::mutex mutex_;
  EpochClaimSet claims_;
  std::atomic<uint64_t> purge_floor_{0};
};

// --- Cross-shard router ------------------------------------------------------

/// Per-executor WaveRouter bound to one shard: answers ownership from
/// the shard map, arbitrates the per-wave (epoch, OID) exactly-once
/// claims for the OIDs the bound shard owns, and accumulates foreign
/// receivers until the executor flushes them as seeded sub-wave tasks
/// after the current task completes. Lane routers stay bound to their
/// lane for life; each stealing worker owns one router it re-binds to
/// the stolen task's shard.
///
/// Claim routing: with lane stealing active, claims go to the bound
/// shard's shared ClaimStore (any executor may consult it); otherwise
/// every task of a shard runs under the lane's busy flag and the claims
/// stay in a lane-local map — no locks, no atomics on the claim path,
/// published between workers by the busy flag's acquire/release.
///
/// Handoff batching: foreign receivers aggregate per (wave epoch,
/// target shard) in first-encounter order — the epoch uniquely
/// identifies the wave payload within a task, each direction post
/// minting its own — so a wave whose receivers interleave across shards
/// posts one aggregated sub-wave per shard, not one per receiver run.
class ShardedEngine::LaneRouter final : public WaveRouter {
 public:
  LaneRouter(ShardedEngine& owner, uint32_t shard)
      : owner_(owner), shard_(shard) {}

  /// Re-targets this router at `shard` (steal contexts only; called
  /// between tasks, never mid-wave).
  void Bind(uint32_t shard) noexcept { shard_ = shard; }

  bool Owns(OidId receiver) override {
    // Cache the lookup: Handoff(receiver) follows immediately when this
    // returns false (AdmitReceiver), so the foreign path walks the
    // shard map once, not twice.
    last_receiver_ = receiver;
    last_shard_ = owner_.shard_map_.ShardOf(receiver);
    return last_shard_ == shard_;
  }

  uint64_t MintEpoch() override {
    const uint64_t epoch = owner_.MintEpoch();
    // Hold a ref for the rest of the current task: claims under this
    // epoch begin immediately (direction-post collection), before any
    // handoff task of the epoch is enqueued. Released by the executor
    // after Flush().
    owner_.AcquireEpochRef(epoch);
    minted_.push_back(epoch);
    return epoch;
  }

  size_t ClaimSeedBatch(uint64_t epoch, std::vector<OidId>& seeds) override {
    if (owner_.stealing_active_) {
      return owner_.StoreOf(shard_).ClaimBatch(epoch, seeds,
                                               owner_.MinLiveEpoch());
    }
    // Lane-local claims: same filter, no synchronization.
    return claims_.Filter(epoch, seeds, owner_.MinLiveEpoch());
  }

  void BeginDelivery(OidId receiver) override {
    owner_.LockDelivery(receiver);
  }

  void EndDelivery(OidId receiver) override {
    owner_.UnlockDelivery(receiver);
  }

  /// Epoch refs minted during the current task; the executor releases
  /// them once the task's handoffs are enqueued.
  std::vector<uint64_t> TakeMintedEpochs() {
    return std::exchange(minted_, {});
  }

  void Handoff(OidId receiver, const EventMessage& event) override {
    const uint32_t target = receiver == last_receiver_
                                ? last_shard_
                                : owner_.shard_map_.ShardOf(receiver);
    // One aggregated sub-wave per (epoch, target shard), regardless of
    // how receivers interleave. Runs of same-shard receivers are the
    // common case, so the last pending wave is checked before the map.
    // Shards fit in 16 bits (enforced at construction); the packed key
    // below cannot alias, and epochs are dense counters nowhere near
    // 2^48.
    if (!pending_.empty() && pending_.back().target_shard == target &&
        pending_.back().epoch == event.wave_epoch) {
      pending_.back().seeds.push_back(receiver);
      return;
    }
    const uint64_t key =
        (event.wave_epoch << 16) | static_cast<uint64_t>(target & 0xFFFF);
    const auto [it, inserted] =
        pending_index_.try_emplace(key, pending_.size());
    if (inserted) {
      pending_.push_back(PendingWave{target, event.wave_epoch, event, {}});
    }
    pending_[it->second].seeds.push_back(receiver);
  }

  /// Enqueues every accumulated sub-wave on its target shard, splitting
  /// batches larger than max_batch_seeds into consecutive FIFO chunks.
  /// Called by the executor between tasks (never mid-wave). `hops` is
  /// the handoff depth of the task that produced these waves,
  /// `order_epoch` its scheduling root (inherited so direction-post
  /// handoffs stay inside their spawning wave's deterministic slot). A
  /// chain past the configured hop cap is dropped — the backstop behind
  /// the (epoch, OID) claims.
  void Flush(uint32_t hops, uint64_t order_epoch) {
    const bool truncate = hops >= owner_.options_.max_handoff_hops;
    const size_t limit = owner_.options_.max_batch_seeds;
    for (PendingWave& wave : pending_) {
      if (truncate) {
        owner_.counters_->handoff_waves_truncated.fetch_add(
            1, std::memory_order_relaxed);
        Log::Warning("cross-shard wave truncated after " +
                     std::to_string(hops) + " handoffs (event '" +
                     wave.event.name + "')");
        continue;
      }
      owner_.counters_->handoff_seeds.fetch_add(wave.seeds.size(),
                                                std::memory_order_relaxed);
      const size_t chunks =
          limit == 0 ? 1 : (wave.seeds.size() + limit - 1) / limit;
      if (chunks > 1) {
        owner_.counters_->seed_batch_splits.fetch_add(
            chunks - 1, std::memory_order_relaxed);
      }
      for (size_t chunk = 0; chunk < chunks; ++chunk) {
        Task task;
        task.kind = Task::Kind::kSeededWave;
        task.hops = hops + 1;
        task.ticket = owner_.counters_->next_ticket.fetch_add(
            1, std::memory_order_relaxed);
        task.order_epoch = order_epoch;
        if (chunk + 1 == chunks) {
          task.event = std::move(wave.event);
        } else {
          task.event = wave.event;
        }
        if (chunks == 1) {
          task.seeds = std::move(wave.seeds);
        } else {
          const size_t begin = chunk * limit;
          const size_t end = std::min(begin + limit, wave.seeds.size());
          task.seeds.assign(wave.seeds.begin() + static_cast<ptrdiff_t>(begin),
                            wave.seeds.begin() + static_cast<ptrdiff_t>(end));
        }
        owner_.counters_->handoff_waves.fetch_add(1, std::memory_order_relaxed);
        owner_.Enqueue(wave.target_shard, std::move(task));
      }
    }
    pending_.clear();
    pending_index_.clear();
  }

 private:
  struct PendingWave {
    uint32_t target_shard = 0;
    uint64_t epoch = 0;   ///< Payload identity within this task.
    EventMessage event;   ///< Snapshot of the payload.
    std::vector<OidId> seeds;
  };

  ShardedEngine& owner_;
  uint32_t shard_;
  OidId last_receiver_;  ///< Owns() memo consumed by Handoff().
  uint32_t last_shard_ = 0;
  std::vector<PendingWave> pending_;  ///< First-encounter order.
  /// (epoch, target shard) -> pending_ slot.
  std::unordered_map<uint64_t, size_t> pending_index_;
  /// Lane-local claims (single-executor shards; no stealing).
  EpochClaimSet claims_;
  std::vector<uint64_t> minted_;  ///< Epoch refs held for this task.
};

// --- Index router ------------------------------------------------------------

/// Routes meta-database link notifications to the owning shard's
/// propagation index (the shard engines themselves stop observing), so
/// a link op costs O(1) index updates instead of one per shard, and the
/// N shard indexes together hold ~1× the link graph. Also owns the
/// boundary set — the links whose endpoints currently sit on different
/// shards, i.e. exactly the links that can carry a wave across a
/// handoff — and, as the ShardMap's listener, migrates an OID's buckets
/// between shard indexes when its assignment changes (incremental union
/// pulls and Rebalance re-deals; no index is ever rebuilt for either).
///
/// Registration order matters twice: the router registers with the
/// database *before* the ShardMap, so a link op is indexed under the
/// pre-union assignment and the union's migration then moves complete
/// buckets; and it registers as the map's listener so re-assignments
/// arrive after the map has switched, when ShardOf() already answers
/// the new shard.
class ShardedEngine::IndexRouter final : public metadb::LinkObserver,
                                         public metadb::ShardMapListener {
 public:
  explicit IndexRouter(ShardedEngine& owner) : owner_(owner) {
    owner_.db_.AddLinkObserver(this);
  }

  ~IndexRouter() override { owner_.db_.RemoveLinkObserver(this); }

  /// Armed at the end of the sharded engine's constructor, once the
  /// shard engines exist to route to.
  void Activate() noexcept { active_ = true; }

  size_t boundary_link_count() const noexcept { return boundary_.size(); }
  size_t observer_updates() const noexcept { return observer_updates_; }
  size_t migrated_sources() const noexcept { return migrated_sources_; }

  // --- metadb::LinkObserver ---------------------------------------------

  void OnLinkAdded(metadb::LinkId id, const metadb::Link& link) override {
    if (!active_) return;
    ++observer_updates_;
    IndexOf(link.from).AddLinkSide(id, link, /*down_side=*/true);
    IndexOf(link.to).AddLinkSide(id, link, /*down_side=*/false);
    UpdateBoundary(id, link);
  }

  void OnLinkRemoved(metadb::LinkId id, const metadb::Link& link) override {
    if (!active_) return;
    ++observer_updates_;
    IndexOf(link.from).RemoveLinkSide(id, link, /*down_side=*/true);
    IndexOf(link.to).RemoveLinkSide(id, link, /*down_side=*/false);
    boundary_.erase(id.value());
  }

  void OnLinkEndpointMoved(metadb::LinkId id, bool endpoint_from,
                           OidId old_endpoint,
                           const metadb::Link& link) override {
    if (!active_) return;
    ++observer_updates_;
    const auto& events = link.propagates;
    using events::Direction;
    if (endpoint_from) {
      IndexOf(old_endpoint)
          .EraseEntriesAt(old_endpoint, Direction::kDown, events, id);
      IndexOf(link.from).AppendEntriesAt(link.from, Direction::kDown, events,
                                         id, link.to);
      IndexOf(link.to).PatchNeighborAt(link.to, Direction::kUp, events, id,
                                       link.from);
    } else {
      IndexOf(old_endpoint)
          .EraseEntriesAt(old_endpoint, Direction::kUp, events, id);
      IndexOf(link.to).AppendEntriesAt(link.to, Direction::kUp, events, id,
                                       link.from);
      IndexOf(link.from).PatchNeighborAt(link.from, Direction::kDown, events,
                                         id, link.to);
    }
    UpdateBoundary(id, link);
  }

  void OnLinkPropagatesChanged(metadb::LinkId /*id*/,
                               const std::vector<std::string>& old_propagates,
                               const metadb::Link& link) override {
    if (!active_) return;
    ++observer_updates_;
    using events::Direction;
    IndexOf(link.from).RebuildBucketsAt(owner_.db_, link.from,
                                        Direction::kDown, old_propagates,
                                        link.propagates);
    IndexOf(link.to).RebuildBucketsAt(owner_.db_, link.to, Direction::kUp,
                                      old_propagates, link.propagates);
    // Connectivity (and thus the boundary set) is unchanged.
  }

  // --- metadb::ShardMapListener -----------------------------------------

  void OnShardChanged(OidId id, uint32_t old_shard,
                      uint32_t new_shard) override {
    if (!active_) return;
    ++migrated_sources_;
    owner_.ShardIndex(old_shard).RemoveSourceBuckets(owner_.db_, id);
    owner_.ShardIndex(new_shard).AddSourceBuckets(owner_.db_, id);
    // The move can flip the crossing status of every adjacent link.
    for (const metadb::LinkId link_id : owner_.db_.OutLinks(id)) {
      UpdateBoundary(link_id, owner_.db_.GetLink(link_id));
    }
    for (const metadb::LinkId link_id : owner_.db_.InLinks(id)) {
      UpdateBoundary(link_id, owner_.db_.GetLink(link_id));
    }
  }

 private:
  PropagationIndex& IndexOf(OidId source) {
    return owner_.ShardIndex(owner_.shard_map_.ShardOf(source));
  }

  void UpdateBoundary(metadb::LinkId id, const metadb::Link& link) {
    const bool crossing = owner_.shard_map_.ShardOf(link.from) !=
                          owner_.shard_map_.ShardOf(link.to);
    if (crossing) {
      boundary_.insert(id.value());
    } else {
      boundary_.erase(id.value());
    }
  }

  ShardedEngine& owner_;
  bool active_ = false;
  std::unordered_set<uint32_t> boundary_;  ///< Cross-shard link slots.
  size_t observer_updates_ = 0;
  size_t migrated_sources_ = 0;
};

// --- Lane -------------------------------------------------------------------

struct ShardedEngine::Lane {
  uint32_t shard = 0;
  std::unique_ptr<RunTimeEngine> engine;
  std::unique_ptr<LaneRouter> router;

  /// Lock-free intake for TOP-LEVEL queue events (threaded mode); null
  /// in deterministic mode and at one shard. Single consumer (the occupant), so
  /// per-shard FIFO for top-level waves is structural: stealing never
  /// touches this ring.
  std::unique_ptr<TaskRing> ring;

  /// Epoch-tagged cross-shard sub-waves (threaded mode); null in
  /// deterministic mode and at one shard. Multi-consumer: the occupant and stealing
  /// workers pop concurrently (TryPopShared) — sub-wave order across
  /// executors is free, exactly-once comes from the claim stores.
  std::unique_ptr<TaskRing> sub_ring;

  /// Claim flag: at most one worker occupies a lane at a time, which
  /// keeps the event ring single-consumer and the shard's top-level
  /// delivery order FIFO with any worker count.
  std::atomic<bool> busy{false};

  /// Overflow fallbacks (threaded only). Once a push overflows, later
  /// pushes follow until a consumer drains the deque, so FIFO order
  /// holds across the spill.
  std::mutex overflow_mutex;
  std::deque<Task> overflow;
  std::atomic<bool> overflowed{false};
  std::mutex sub_overflow_mutex;
  std::deque<Task> sub_overflow;
  std::atomic<bool> sub_overflowed{false};

  /// Queued sub-wave gauge (incremented before a push is visible, so
  /// it never under-counts): the stealers' cheap probe for whether this
  /// lane has stealable work.
  std::atomic<size_t> queued_subwaves{0};

  /// Deterministic-mode storage: tasks keyed by (order epoch, ticket),
  /// so the scheduler's pick is one begin() away — O(log n) per push
  /// and pop instead of a deque scan. Tickets are globally unique, so
  /// keys never collide.
  std::map<std::pair<uint64_t, uint64_t>, Task> ordered;

  bool HasWork() {
    if (ring != nullptr && !ring->Empty()) return true;
    if (queued_subwaves.load(std::memory_order_acquire) > 0) return true;
    if (!overflowed.load(std::memory_order_acquire)) return false;
    std::lock_guard<std::mutex> lock(overflow_mutex);
    return !overflow.empty();
  }

  void Push(Task&& task, std::atomic<size_t>& overflow_counter) {
    if (ring == nullptr) {  // Deterministic mode.
      std::lock_guard<std::mutex> lock(overflow_mutex);
      const auto key = std::make_pair(task.order_epoch, task.ticket);
      ordered.emplace(key, std::move(task));
      return;
    }
    if (task.kind == Task::Kind::kSeededWave) {
      PushSub(std::move(task), overflow_counter);
      return;
    }
    // Chaos hook: a hit forces this task onto the overflow deque as
    // if the lock-free ring were full, exercising the spill path.
    common::FailpointHit spill;
    if (!DAMOCLES_FAILPOINT("sharded.ring.spill", &spill) &&
        !overflowed.load(std::memory_order_acquire) &&
        ring->TryPush(std::move(task))) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(overflow_mutex);
      overflowed.store(true, std::memory_order_release);
      overflow.push_back(std::move(task));
    }
    overflow_counter.fetch_add(1, std::memory_order_relaxed);
  }

  void PushSub(Task&& task, std::atomic<size_t>& overflow_counter) {
    queued_subwaves.fetch_add(1, std::memory_order_release);
    common::FailpointHit spill;
    if (!DAMOCLES_FAILPOINT("sharded.ring.spill", &spill) &&
        !sub_overflowed.load(std::memory_order_acquire) &&
        sub_ring->TryPush(std::move(task))) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(sub_overflow_mutex);
      sub_overflowed.store(true, std::memory_order_release);
      sub_overflow.push_back(std::move(task));
    }
    overflow_counter.fetch_add(1, std::memory_order_relaxed);
  }

  /// Single consumer (the occupant): event ring first (older tasks),
  /// then the spill.
  bool Pop(Task& out) {
    if (ring != nullptr && ring->TryPop(out)) return true;
    if (!overflowed.load(std::memory_order_acquire)) return false;
    std::lock_guard<std::mutex> lock(overflow_mutex);
    if (overflow.empty()) {
      overflowed.store(false, std::memory_order_release);
      return false;
    }
    out = std::move(overflow.front());
    overflow.pop_front();
    if (overflow.empty()) overflowed.store(false, std::memory_order_release);
    return true;
  }

  /// Multi-consumer sub-wave pop: occupant and stealers race through
  /// the MPMC ring, then the spill deque under its mutex.
  bool PopSub(Task& out) {
    if (sub_ring == nullptr) return false;
    if (sub_ring->TryPopShared(out)) {
      queued_subwaves.fetch_sub(1, std::memory_order_release);
      return true;
    }
    if (!sub_overflowed.load(std::memory_order_acquire)) return false;
    std::lock_guard<std::mutex> lock(sub_overflow_mutex);
    if (sub_overflow.empty()) {
      sub_overflowed.store(false, std::memory_order_release);
      return false;
    }
    out = std::move(sub_overflow.front());
    sub_overflow.pop_front();
    if (sub_overflow.empty()) {
      sub_overflowed.store(false, std::memory_order_release);
    }
    queued_subwaves.fetch_sub(1, std::memory_order_release);
    return true;
  }

  /// Deterministic mode: the lane's best (order epoch, ticket) key —
  /// root wave first, intake ticket within it — so the global scheduler
  /// finishes each wave's reachable work before the next wave starts,
  /// like the single FIFO queue would.
  bool PeekBest(std::pair<uint64_t, uint64_t>& key) {
    std::lock_guard<std::mutex> lock(overflow_mutex);
    if (ordered.empty()) return false;
    key = ordered.begin()->first;
    return true;
  }

  /// Deterministic mode: removes the head task (the one PeekBest saw).
  /// Same-wave tasks keep their enqueue (ticket) order; only cross-wave
  /// tasks jump the line, which a single-threaded drain may freely do.
  void PopBest(Task& out) {
    std::lock_guard<std::mutex> lock(overflow_mutex);
    out = std::move(ordered.begin()->second);
    ordered.erase(ordered.begin());
  }
};

// --- Steal contexts ----------------------------------------------------------

/// One stealing worker's private executor: a RunTimeEngine over the
/// shared meta-database plus a re-bindable router. The engine runs in
/// scan mode (use_propagation_index = false): wave expansion reads the
/// immutable-during-drain link graph directly, so it needs neither a
/// propagation index of its own nor access to the owning lane's (whose
/// symbol table the occupant may be growing concurrently). Scan and
/// index expansion produce identical receiver sets, so the delivered
/// record multiset is unchanged; the steal path trades per-hop lookup
/// speed for running on cycles that were idle anyway. Journal and
/// stats are private and merged into the engine-wide views.
struct ShardedEngine::StealContext {
  std::unique_ptr<RunTimeEngine> engine;
  std::unique_ptr<LaneRouter> router;
};

// --- Construction -----------------------------------------------------------

ShardedEngine::ShardedEngine(metadb::MetaDatabase& db, SimClock& clock,
                             ShardedEngineOptions options)
    : db_(db),
      clock_(clock),
      options_(options),
      num_shards_(options.num_shards == 0 ? 1 : options.num_shards),
      // Registers as a link observer ahead of shard_map_: link ops must
      // reach the indexes under pre-union assignments. Only sharded
      // index engines have shard indexes to route to; scan-mode engines
      // (use_propagation_index = false) query none.
      index_router_(num_shards_ > 1 && options.engine.use_propagation_index
                        ? std::make_unique<IndexRouter>(*this)
                        : nullptr),
      shard_map_(db, num_shards_),
      counters_(std::make_unique<Counters>()) {
  if (num_shards_ > 0xFFFF) {
    // The batched-handoff key packs the target shard into 16 bits
    // (LaneRouter::Handoff); aliasing shards would break exactly-once.
    throw Error("ShardedEngine: num_shards must be <= 65535");
  }
  if (num_shards_ == 1) {
    // Inline: the single engine keeps its self-maintained full index
    // and gets no router (no receiver can be foreign), rings or workers.
    auto lane = std::make_unique<Lane>();
    lane->engine =
        std::make_unique<RunTimeEngine>(db_, clock_, options_.engine);
    lanes_.push_back(std::move(lane));
    return;
  }
  lanes_.reserve(num_shards_);
  // Shard engines never self-maintain their index: SetIndexScope below
  // installs the scoped build, so the constructor's full-graph build
  // would be N wasted passes over a pre-populated database.
  EngineOptions engine_options = options_.engine;
  engine_options.external_index_maintenance = true;
  for (uint32_t shard = 0; shard < num_shards_; ++shard) {
    auto lane = std::make_unique<Lane>();
    lane->shard = shard;
    lane->engine =
        std::make_unique<RunTimeEngine>(db_, clock_, engine_options);
    lane->router = std::make_unique<LaneRouter>(*this, shard);
    lane->engine->SetWaveRouter(lane->router.get());
    if (!options_.deterministic) {
      lane->ring = std::make_unique<TaskRing>(
          RingCapacity(options_.queue_capacity));
      lane->sub_ring = std::make_unique<TaskRing>(
          RingCapacity(options_.queue_capacity));
    }
    lanes_.push_back(std::move(lane));
  }
  if (index_router_ != nullptr) {
    // Scope every shard engine's index to its own subtree (the engine
    // never self-registered — external_index_maintenance above), then
    // fill all N indexes in ONE routed pass over the database instead
    // of N filtered walks, and arm the router + migration listener.
    for (uint32_t shard = 0; shard < num_shards_; ++shard) {
      lanes_[shard]->engine->SetIndexScope(
          [this, shard](OidId id) { return shard_map_.ShardOf(id) == shard; },
          /*rebuild=*/false);
    }
    db_.ForEachObject([this](OidId id, const metadb::MetaObject&) {
      ShardIndex(shard_map_.ShardOf(id)).AddSourceBuckets(db_, id);
    });
    index_router_->Activate();
    shard_map_.SetListener(index_router_.get());
  }
  if (!options_.deterministic) {
    size_t worker_count = options_.worker_threads;
    if (worker_count == 0) {
      const size_t cores = std::max(1u, std::thread::hardware_concurrency());
      worker_count = std::min<size_t>(num_shards_, cores);
    }
    worker_count = std::min<size_t>(worker_count, num_shards_);
    // Lane stealing: idle workers steal queued cross-shard sub-wave
    // tasks (never top-level waves, whose single-consumer ring keeps
    // per-shard FIFO) and run them on a private scan-mode steal engine.
    // Shared per-shard claim stores, replacing the lane-local claim
    // sets, arbitrate exactly-once; per-OID delivery locks serialize
    // same-OID rules. A single worker never observes a busy lane.
    stealing_active_ = worker_count > 1;
    if (stealing_active_) {
      claim_stores_.reserve(num_shards_);
      for (uint32_t shard = 0; shard < num_shards_; ++shard) {
        claim_stores_.push_back(std::make_unique<ClaimStore>());
      }
      EngineOptions steal_options = options_.engine;
      steal_options.use_propagation_index = false;
      steal_options.external_index_maintenance = false;
      steal_contexts_.reserve(worker_count);
      for (size_t i = 0; i < worker_count; ++i) {
        auto context = std::make_unique<StealContext>();
        context->engine =
            std::make_unique<RunTimeEngine>(db_, clock_, steal_options);
        context->router = std::make_unique<LaneRouter>(*this, 0);
        context->engine->SetWaveRouter(context->router.get());
        steal_contexts_.push_back(std::move(context));
      }
    }
    workers_.reserve(worker_count);
    for (size_t i = 0; i < worker_count; ++i) {
      workers_.emplace_back(&ShardedEngine::WorkerLoop, this, i);
    }
  }
}

ShardedEngine::~ShardedEngine() {
  counters_->stop.store(true, std::memory_order_release);
  counters_->wake_cv.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  shard_map_.SetListener(nullptr);
}

PropagationIndex& ShardedEngine::ShardIndex(uint32_t shard) {
  return lanes_[shard]->engine->mutable_propagation_index();
}

ShardedEngine::ClaimStore& ShardedEngine::StoreOf(uint32_t shard) {
  return *claim_stores_[shard];
}

void ShardedEngine::LockDelivery(OidId receiver) {
  if (!stealing_active_) return;
  std::atomic<uint8_t>& stripe =
      counters_->delivery_stripes[receiver.value() %
                                  counters_->delivery_stripes.size()]
          .flag;
  // Spin with yield: the bracket covers one OID's rule phases, which
  // are short, and each executor holds at most one stripe at a time
  // (no hold-and-wait, so no deadlock).
  while (stripe.exchange(1, std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

void ShardedEngine::UnlockDelivery(OidId receiver) {
  if (!stealing_active_) return;
  counters_->delivery_stripes[receiver.value() %
                              counters_->delivery_stripes.size()]
      .flag.store(0, std::memory_order_release);
}

// --- Wave epochs -------------------------------------------------------------

uint64_t ShardedEngine::MintEpoch() {
  counters_->wave_epochs.fetch_add(1, std::memory_order_relaxed);
  return counters_->next_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint64_t ShardedEngine::epoch_ceiling() const noexcept {
  return counters_->next_epoch.load(std::memory_order_relaxed);
}

void ShardedEngine::RestoreEpochCeiling(uint64_t next_epoch,
                                        size_t wave_epochs) {
  counters_->next_epoch.store(next_epoch, std::memory_order_relaxed);
  counters_->wave_epochs.store(wave_epochs, std::memory_order_relaxed);
}

size_t ShardedEngine::steal_journal_count() const noexcept {
  return steal_contexts_.size();
}

events::EventJournal& ShardedEngine::steal_journal(size_t index) {
  return steal_contexts_[index]->engine->mutable_journal();
}

void ShardedEngine::AcquireEpochRef(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(counters_->epoch_mutex);
  ++counters_->live_epochs[epoch];
  counters_->min_live_epoch.store(counters_->live_epochs.begin()->first,
                                  std::memory_order_release);
}

void ShardedEngine::ReleaseEpochRef(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(counters_->epoch_mutex);
  const auto it = counters_->live_epochs.find(epoch);
  if (it != counters_->live_epochs.end() && --it->second == 0) {
    counters_->live_epochs.erase(it);
  }
  counters_->min_live_epoch.store(counters_->live_epochs.empty()
                                      ? ~uint64_t{0}
                                      : counters_->live_epochs.begin()->first,
                                  std::memory_order_release);
}

uint64_t ShardedEngine::MinLiveEpoch() const noexcept {
  return counters_->min_live_epoch.load(std::memory_order_acquire);
}

// --- Structural operations ---------------------------------------------------

void ShardedEngine::LoadBlueprint(blueprint::Blueprint blueprint,
                                  uint64_t policy_version) {
  // Every other engine gets a deep copy; shard 0 takes the original.
  for (size_t i = 1; i < lanes_.size(); ++i) {
    lanes_[i]->engine->LoadBlueprint(blueprint.Clone(), policy_version);
  }
  for (auto& context : steal_contexts_) {
    context->engine->LoadBlueprint(blueprint.Clone(), policy_version);
  }
  lanes_.front()->engine->LoadBlueprint(std::move(blueprint), policy_version);
}

void ShardedEngine::LoadBlueprintText(std::string_view text,
                                      uint64_t policy_version) {
  LoadBlueprint(blueprint::ParseBlueprint(text), policy_version);
}

uint64_t ShardedEngine::policy_version() const {
  return lanes_.front()->engine->policy_version();
}

OidId ShardedEngine::OnCreateObject(std::string_view block,
                                    std::string_view view,
                                    std::string_view user) {
  return lanes_.front()->engine->OnCreateObject(block, view, user);
}

metadb::LinkId ShardedEngine::OnCreateLink(metadb::LinkKind kind, OidId from,
                                           OidId to) {
  return lanes_.front()->engine->OnCreateLink(kind, from, to);
}

// --- Intake -----------------------------------------------------------------

uint32_t ShardedEngine::ShardOfTarget(const Oid& target) const {
  if (const std::optional<OidId> id = db_.FindObject(target)) {
    return shard_map_.ShardOf(*id);
  }
  // Dangling target: hash the block name so the journal warning lands
  // on a stable shard regardless of sharding degree.
  return static_cast<uint32_t>(std::hash<std::string>{}(target.block) %
                               num_shards_);
}

void ShardedEngine::Route(EventMessage event) {
  if (event.timestamp == 0) event.timestamp = clock_.NowSeconds();
  // Every top-level event opens a fresh wave scope — rule-posted events
  // re-enter here and scope like the queue boundary of the unsharded
  // engine. Overwrites whatever epoch a reposted event inherited from
  // the wave that posted it.
  event.wave_epoch = MintEpoch();
  const uint32_t shard = ShardOfTarget(event.target);
  Task task;
  task.kind = Task::Kind::kEvent;
  task.ticket = counters_->next_ticket.fetch_add(1, std::memory_order_relaxed);
  // A top-level wave schedules under itself (reposted events included:
  // the single FIFO queue runs them after everything already queued).
  task.order_epoch = event.wave_epoch;
  task.event = std::move(event);
  Enqueue(shard, std::move(task));
}

void ShardedEngine::PostEvent(EventMessage event) {
  counters_->events_posted.fetch_add(1, std::memory_order_relaxed);
  if (num_shards_ == 1) {
    lanes_.front()->engine->PostEvent(std::move(event));
    return;
  }
  Route(std::move(event));
}

void ShardedEngine::Enqueue(uint32_t shard, Task&& task) {
  counters_->pending.fetch_add(1, std::memory_order_acq_rel);
  // The task pins its wave's epoch while queued/executing, so no lane
  // purges the wave's claim sets mid-flight. Acquired before the task
  // becomes visible to workers; released in FinishTask.
  if (task.event.wave_epoch != 0) AcquireEpochRef(task.event.wave_epoch);
  lanes_[shard]->Push(std::move(task), counters_->ring_overflows);
  if (!options_.deterministic) counters_->wake_cv.notify_one();
}

// --- Execution ---------------------------------------------------------------

void ShardedEngine::ExecuteTask(RunTimeEngine& engine, LaneRouter& router,
                                Task&& task) {
  const uint32_t hops = task.hops;
  const uint64_t order_epoch = task.order_epoch;
  if (task.kind == Task::Kind::kEvent) {
    engine.queue().Push(std::move(task.event));
    engine.ProcessOne();
  } else {
    engine.DeliverSeededWave(std::move(task.seeds), std::move(task.event));
  }
  // Cross-shard sub-waves accumulated during the task go out first (in
  // the single-queue engine those deliveries happened inside the wave,
  // before anything the wave posted), then the events the wave posted
  // to the shard engine's local queue re-enter sharded intake. Epoch
  // refs minted mid-task (direction-post scopes) are dropped last, so
  // their handoff tasks are pinned before the mint ref lapses.
  router.Flush(hops, order_epoch);
  while (std::optional<EventMessage> posted = engine.queue().Pop()) {
    counters_->reposted_events.fetch_add(1, std::memory_order_relaxed);
    Route(std::move(*posted));
  }
  for (const uint64_t epoch : router.TakeMintedEpochs()) {
    ReleaseEpochRef(epoch);
  }
  counters_->tasks_processed.fetch_add(1, std::memory_order_relaxed);
}

void ShardedEngine::FinishTask(uint64_t epoch) {
  if (epoch != 0) ReleaseEpochRef(epoch);
  if (counters_->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(counters_->drain_mutex);
    counters_->drain_cv.notify_all();
  }
}

bool ShardedEngine::TrySteal(size_t worker_index) {
  // One stolen task per pass, then back to the regular sweep: occupying
  // a free lane beats stealing from a busy one. Sub-waves may be stolen
  // from any lane (busy or not) — exactly-once is arbitrated by the
  // shared claim stores and same-OID execution by the delivery locks,
  // and top-level waves are untouched (they live in the single-consumer
  // event rings).
  StealContext& context = *steal_contexts_[worker_index];
  Task task;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = *lanes_[(worker_index + i) % lanes_.size()];
    if (lane.queued_subwaves.load(std::memory_order_acquire) == 0) continue;
    if (!lane.PopSub(task)) continue;
    counters_->stolen_subwaves.fetch_add(1, std::memory_order_relaxed);
    context.router->Bind(lane.shard);
    const uint64_t epoch = task.event.wave_epoch;
    ExecuteTask(*context.engine, *context.router, std::move(task));
    FinishTask(epoch);
    return true;
  }
  return false;
}

void ShardedEngine::WorkerLoop(size_t worker_index) {
  Task task;
  int idle_spins = 0;
  for (;;) {
    // Sweep the lanes, starting at this worker's home lane so workers
    // spread out. A claimed lane is skipped — its occupant drains it —
    // which keeps every event ring single-consumer.
    bool did_work = false;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      Lane& lane = *lanes_[(worker_index + i) % lanes_.size()];
      if (lane.busy.exchange(true, std::memory_order_acquire)) continue;
      // Bounded burst per claim so one hot lane cannot starve the rest
      // of this worker's sweep. Queued sub-waves first: they complete
      // in-flight epochs, which lowers the claim purge horizon.
      for (int burst = 0;
           burst < 64 && (lane.PopSub(task) || lane.Pop(task)); ++burst) {
        const uint64_t epoch = task.event.wave_epoch;
        ExecuteTask(*lane.engine, *lane.router, std::move(task));
        FinishTask(epoch);
        did_work = true;
      }
      lane.busy.store(false, std::memory_order_release);
    }
    if (!did_work && stealing_active_) did_work = TrySteal(worker_index);
    if (did_work) {
      idle_spins = 0;
      continue;
    }
    if (counters_->stop.load(std::memory_order_acquire)) return;
    // Briefly yield before parking: intake usually refills within a
    // scheduling quantum, and a yield is far cheaper than the
    // sleep/notify round trip (on a loaded host it also lets the
    // producer run).
    if (++idle_spins < 16) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(counters_->wake_mutex);
    // Timed wait: the producer's notify races the predicate check, and
    // the short timeout makes a lost wakeup cost a millisecond, not a
    // hang.
    counters_->wake_cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
      if (counters_->stop.load(std::memory_order_acquire)) return true;
      for (const auto& lane : lanes_) {
        if (lane->HasWork()) return true;
      }
      return false;
    });
  }
}

void ShardedEngine::DrainDeterministic() {
  // Global (order epoch, ticket) order across every queued task — not
  // arrival order: a wave's cross-shard sub-waves (direction posts
  // included, which schedule under their spawning wave) run before any
  // later wave's work, reproducing the wave atomicity of the single
  // FIFO queue under the dedup path. Within a wave, tickets rise along
  // the handoff chain, so causal order holds.
  for (;;) {
    Lane* next = nullptr;
    std::pair<uint64_t, uint64_t> best{};
    for (auto& lane : lanes_) {
      std::pair<uint64_t, uint64_t> key{};
      if (lane->PeekBest(key) && (next == nullptr || key < best)) {
        next = lane.get();
        best = key;
      }
    }
    if (next == nullptr) return;
    Task task;
    next->PopBest(task);
    const uint64_t epoch = task.event.wave_epoch;
    ExecuteTask(*next->engine, *next->router, std::move(task));
    if (epoch != 0) ReleaseEpochRef(epoch);
    counters_->pending.fetch_sub(1, std::memory_order_acq_rel);
  }
}

size_t ShardedEngine::Drain() {
  if (num_shards_ == 1) {
    counters_->tasks_processed.fetch_add(lanes_.front()->engine->ProcessAll(),
                                         std::memory_order_relaxed);
  } else if (options_.deterministic) {
    DrainDeterministic();
  } else {
    std::unique_lock<std::mutex> lock(counters_->drain_mutex);
    counters_->drain_cv.wait(lock, [&] {
      return counters_->pending.load(std::memory_order_acquire) == 0;
    });
  }
  const size_t total =
      counters_->tasks_processed.load(std::memory_order_acquire);
  const size_t delta = total - last_drain_processed_;
  last_drain_processed_ = total;
  return delta;
}

void ShardedEngine::RebalanceShards() {
  if (!shard_map_.dirty()) return;
  shard_map_.Rebalance();
}

// --- Introspection -----------------------------------------------------------

RunTimeEngine& ShardedEngine::shard(uint32_t index) {
  if (index >= lanes_.size()) {
    throw Error("ShardedEngine::shard: index out of range");
  }
  return *lanes_[index]->engine;
}

const RunTimeEngine& ShardedEngine::shard(uint32_t index) const {
  if (index >= lanes_.size()) {
    throw Error("ShardedEngine::shard: index out of range");
  }
  return *lanes_[index]->engine;
}

ShardedStats ShardedEngine::stats() const {
  ShardedStats stats;
  stats.events_posted =
      counters_->events_posted.load(std::memory_order_relaxed);
  stats.tasks_processed =
      counters_->tasks_processed.load(std::memory_order_relaxed);
  stats.handoff_waves =
      counters_->handoff_waves.load(std::memory_order_relaxed);
  stats.handoff_seeds =
      counters_->handoff_seeds.load(std::memory_order_relaxed);
  stats.seed_batch_splits =
      counters_->seed_batch_splits.load(std::memory_order_relaxed);
  stats.stolen_subwaves =
      counters_->stolen_subwaves.load(std::memory_order_relaxed);
  for (const auto& store : claim_stores_) {
    stats.claim_purge_floor =
        std::max(stats.claim_purge_floor, store->purge_floor());
  }
  stats.handoff_waves_truncated =
      counters_->handoff_waves_truncated.load(std::memory_order_relaxed);
  stats.reposted_events =
      counters_->reposted_events.load(std::memory_order_relaxed);
  stats.ring_overflows =
      counters_->ring_overflows.load(std::memory_order_relaxed);
  // Sourced from the map so direct shard_map().Rebalance() calls count.
  stats.rebalances = shard_map_.stats().rebalances;
  stats.wave_epochs = counters_->wave_epochs.load(std::memory_order_relaxed);
  for (const auto& lane : lanes_) {
    stats.index_entries += lane->engine->propagation_index().entry_count();
  }
  if (index_router_ != nullptr) {
    stats.boundary_links = index_router_->boundary_link_count();
    stats.index_observer_updates = index_router_->observer_updates();
    stats.index_migrated_sources = index_router_->migrated_sources();
  }
  return stats;
}

EngineStats ShardedEngine::AggregateEngineStats() const {
  EngineStats total;
  for (const auto& lane : lanes_) {
    total.Accumulate(lane->engine->stats());
  }
  for (const auto& context : steal_contexts_) {
    total.Accumulate(context->engine->stats());
  }
  return total;
}

std::string ShardedEngine::MergedJournalDump() const {
  std::string text;
  for (const auto& lane : lanes_) {
    text += "shard " + std::to_string(lane->shard) + ":\n";
    text += lane->engine->journal().Dump();
  }
  for (size_t i = 0; i < steal_contexts_.size(); ++i) {
    const events::EventJournal& journal = steal_contexts_[i]->engine->journal();
    if (journal.Empty()) continue;
    text += "steal worker " + std::to_string(i) + ":\n";
    text += journal.Dump();
  }
  return text;
}

std::vector<std::string> ShardedEngine::JournalLines() const {
  std::vector<std::string> lines;
  const auto append = [&lines](const events::EventJournal& journal) {
    for (size_t i = 0; i < journal.Size(); ++i) {
      const events::JournalRecord record = journal.At(i);
      std::string line = "[";
      line += events::EventOriginName(record.event.origin);
      line += "] ";
      line += events::FormatEvent(record.event);
      lines.push_back(std::move(line));
    }
  };
  for (const auto& lane : lanes_) append(lane->engine->journal());
  for (const auto& context : steal_contexts_) {
    append(context->engine->journal());
  }
  return lines;
}

void ShardedEngine::ClearJournals() {
  for (auto& lane : lanes_) lane->engine->ClearJournal();
  for (auto& context : steal_contexts_) context->engine->ClearJournal();
}

void ShardedEngine::ResetStats() {
  for (auto& lane : lanes_) lane->engine->ResetStats();
  for (auto& context : steal_contexts_) context->engine->ResetStats();
  counters_->events_posted.store(0, std::memory_order_relaxed);
  counters_->tasks_processed.store(0, std::memory_order_relaxed);
  counters_->handoff_waves.store(0, std::memory_order_relaxed);
  counters_->handoff_seeds.store(0, std::memory_order_relaxed);
  counters_->seed_batch_splits.store(0, std::memory_order_relaxed);
  counters_->stolen_subwaves.store(0, std::memory_order_relaxed);
  counters_->handoff_waves_truncated.store(0, std::memory_order_relaxed);
  counters_->reposted_events.store(0, std::memory_order_relaxed);
  counters_->ring_overflows.store(0, std::memory_order_relaxed);
  counters_->wave_epochs.store(0, std::memory_order_relaxed);
  last_drain_processed_ = 0;
}

}  // namespace damocles::engine
