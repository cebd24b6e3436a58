// The sharded wave engine: parallel change propagation over
// block-subtree shards.
//
// PR 2 made per-delivery cost flat (integer-keyed receiver lookups,
// compiled rule tables, copy-free payloads); the remaining ceiling is
// single-threaded wave throughput. The paper's propagation model is
// naturally partitionable: a wave confined to one block subtree never
// touches another, so independent subtrees can process waves
// concurrently. This layer owns N per-shard RunTimeEngines over ONE
// shared meta-database and
//  * routes intake: PostEvent resolves the target's shard through the
//    metadb::ShardMap (use-link subtree roots, dealt round-robin) and
//    enqueues the event on that shard's bounded lock-free MPSC ring —
//    intake never blocks on wave execution;
//  * runs one worker thread per shard, each draining its ring in FIFO
//    order through its shard engine, so delivery order *within a
//    shard* is byte-identical to the unsharded PR-2 engine;
//  * hands cross-shard waves off BATCHED: when a delivery's receiver
//    set spans shards (a derive link between blocks of different
//    subtrees — the PropagationIndex surfaces the receiver, the
//    WaveRouter detects the foreign shard), the foreign receivers
//    aggregate per (wave epoch, target shard) — however they interleave
//    — and re-enter the target shard as ONE seeded sub-wave per shard
//    (RunTimeEngine::DeliverSeededWave), split into FIFO chunks above
//    max_batch_seeds; epochs identify wave payloads, so no payload
//    comparison is ever needed;
//  * re-routes rule-posted events ('post ... to <View>') from each
//    shard engine's local queue back through sharded intake after every
//    task, preserving the relative order a single queue would produce.
//
// Exactly-once waves. Every top-level wave gets a global WaveEpoch
// ticket minted at intake (and every direction-posted sub-wave its own
// — it opens a fresh visited universe in the unsharded engine too); all
// cross-shard sub-waves of a wave carry the epoch in their payload.
// Delivery is arbitrated per (epoch, OID) by the receiver's OWNING
// shard, one batched claim round per BFS generation: without stealing
// each lane keeps its own claim set (touched only by the worker
// occupying the lane — no locks, no atomics on the claim path); with
// lane stealing the claims live in per-shard ClaimStores published
// behind an epoch-versioned read path (mutex-guarded writes, an atomic
// purge floor) so ANY executor can consult the owning shard's claims.
// Foreign receivers are handed off unclaimed, and the claim at the
// target collapses however many sub-waves reach an OID into one
// delivery. Retired epochs are merged out lazily: claim sets below the
// globally lowest in-flight epoch (refcounted per task) drop on the
// next claim round. The hop cap is thereby a backstop against runaway
// chains of *distinct* OIDs, not a termination patch — cross-shard
// cycles terminate through the claims exactly like the single visited
// set of an unsharded wave.
//
// Lane stealing. Top-level events and sub-waves queue separately: the
// event ring stays single-consumer under the lane's busy flag (per
// -shard FIFO for top-level waves is structural), while sub-wave tasks
// sit in an MPMC ring any idle worker may pop. A stealing worker runs
// the stolen sub-wave on its private scan-mode engine (wave expansion
// reads the drain-quiescent link graph directly; scan and index
// expansion deliver identical receiver sets), claims against the
// owning shard's ClaimStore, and serializes same-OID rule execution
// against the lane's occupant through striped per-OID delivery locks
// (different epochs may reach one OID concurrently). Stolen deliveries
// journal into the steal engine's private journal; the merged views
// below and AggregateEngineStats fold them in.
//
// Per-shard propagation indexes. Each shard engine's PropagationIndex
// is scoped to the sources its shard owns (SetIndexScope), so N shards
// together hold ~1× the link graph instead of N×. The shard engines do
// not observe the meta-database; one IndexRouter (registered before the
// ShardMap so it sees pre-union assignments) applies each link op to
// the owning shard's index — O(1) observer updates per op, not O(N) —
// tracks the boundary set (links whose endpoints sit on different
// shards), and, when the ShardMap reassigns an OID (incremental union
// or Rebalance re-deal), migrates that OID's buckets between shard
// indexes instead of rebuilding either one.
//
// The journal is the synchronization point: each shard engine journals
// its own deliveries under dense per-shard sequence numbers, and the
// merged views below stitch them together. For N > 1 the multiset of
// journal records equals the 1-shard run — including reconvergent
// topologies where one wave reaches an OID through two shards (the
// epoch claim delivers it once); only the interleaving *across* shards
// differs.
// ShardedEngineOptions::deterministic = true disables the worker pool:
// tasks execute on the calling thread ordered by (wave epoch, intake
// ticket) — all of a wave's reachable work completes before the next
// wave's, mirroring the wave atomicity of the single FIFO queue — so
// differential tests get a reproducible schedule.
//
// One shard runs inline. With nothing to partition, the engine is its
// single RunTimeEngine: PostEvent pushes onto that engine's queue and
// Drain is its ProcessAll on the calling thread. No worker, ring, task,
// wave epoch, index router or steal context exists, and the shard map
// tracks nothing (every OID is on shard 0). This is the engine every
// ProjectServer runs at its default shard count.
//
// Threading contract: with N > 1, PostEvent / Drain may be called from
// any thread (intake is lock-free until a ring overflows to its fallback
// deque); with one shard they share the caller's single thread.
// Everything structural — LoadBlueprint, OnCreateObject / OnCreateLink,
// direct MetaDatabase mutations, Rebalance, journal/stat accessors —
// must happen while the engine is quiescent (after Drain returns and
// before new events are posted). Workers only write disjoint state:
// per-shard engine internals and the properties of OIDs inside their
// own shard's waves.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "engine/run_time_engine.hpp"
#include "metadb/shard_map.hpp"

namespace damocles::engine {

/// Tuning knobs for the sharded engine.
struct ShardedEngineOptions {
  /// Number of shards (and worker threads). 1 runs the single shard
  /// engine inline on the caller: no threads, rings or epochs.
  uint32_t num_shards = 1;

  /// Execute tasks on the calling thread in global intake-ticket order
  /// instead of on the worker pool (differential testing; fully
  /// reproducible schedules).
  bool deterministic = false;

  /// Per-shard ring capacity (rounded up to a power of two). Overflow
  /// falls back to a locked deque so producers never deadlock.
  size_t queue_capacity = 1024;

  /// Worker threads servicing the shard lanes. 0 = auto:
  /// min(num_shards, hardware cores). A worker claims one lane at a
  /// time (per-shard FIFO is preserved with any worker count), so
  /// fewer workers than shards degrades gracefully instead of
  /// oversubscribing the host.
  size_t worker_threads = 0;

  /// Backstop cap on cross-shard handoff chains. Cycles terminate
  /// through the per-wave (epoch, OID) claims — an OID is delivered
  /// once per wave no matter how often the wave re-enters its shard —
  /// so this only stops pathological chains of *distinct* OIDs
  /// snaking across shards; a wave that exceeds this many hops is
  /// dropped and counted (stats().handoff_waves_truncated — the
  /// sharded analogue of max_wave_deliveries). Legitimate chains are
  /// bounded by the number of subtree crossings, far below this.
  uint32_t max_handoff_hops = 64;

  /// Upper bound on seeds per handoff task (0 = unbounded). A batch
  /// larger than this is split into consecutive FIFO chunks, which
  /// bounds task granularity so stolen sub-waves stay small and a batch
  /// larger than the intake ring spills cleanly instead of wedging one
  /// giant task.
  size_t max_batch_seeds = 1024;

  /// Options forwarded to every per-shard engine.
  EngineOptions engine;
};

/// Counters the sharded layer maintains (per-shard engine counters live
/// in each shard's EngineStats; AggregateEngineStats sums them).
struct ShardedStats {
  size_t events_posted = 0;    ///< External events routed through intake.
  size_t tasks_processed = 0;  ///< Queue events + handoff waves executed.
  size_t handoff_waves = 0;    ///< Cross-shard sub-wave tasks enqueued.
  size_t handoff_seeds = 0;    ///< Receivers carried by those tasks (the
                               ///< batching win: seeds per task).
  size_t seed_batch_splits = 0;  ///< Extra chunks created when a batch
                                 ///< exceeded max_batch_seeds.
  size_t stolen_subwaves = 0;  ///< Sub-wave tasks executed by a worker
                               ///< that did not occupy the owning lane.
  uint64_t claim_purge_floor = 0;  ///< Gauge: highest epoch below which
                                   ///< some shard's ClaimStore has
                                   ///< merged out completed waves (the
                                   ///< epoch-versioned read path's
                                   ///< published version; 0 with
                                   ///< lane-local claims or before the
                                   ///< first merge-out).
  size_t handoff_waves_truncated = 0;  ///< Dropped at max_handoff_hops.
  size_t reposted_events = 0;  ///< Rule-posted events re-routed at intake.
  size_t ring_overflows = 0;   ///< Pushes that took the fallback deque.
  size_t rebalances = 0;       ///< Shard-map rebalance passes (from the
                               ///< map's own stats; survives ResetStats).
  size_t wave_epochs = 0;      ///< Wave scopes minted (top-level waves +
                               ///< direction-posted sub-waves).
  size_t index_entries = 0;    ///< Gauge: live propagation-index entries
                               ///< summed across shard indexes (~1× the
                               ///< link graph; the pre-split engine held
                               ///< num_shards ×).
  size_t boundary_links = 0;   ///< Gauge: live links whose endpoints sit
                               ///< on different shards (router-owned
                               ///< boundary set).
  size_t index_observer_updates = 0;  ///< Link ops applied to shard
                                      ///< indexes (O(1) per op; the
                                      ///< pre-split engine paid one per
                                      ///< shard). Survives ResetStats.
  size_t index_migrated_sources = 0;  ///< OIDs whose index buckets moved
                                      ///< between shards (union pulls +
                                      ///< rebalance re-deals). Survives
                                      ///< ResetStats.
};

/// N per-shard engines + shard map + intake queues + worker pool.
class ShardedEngine {
 public:
  ShardedEngine(metadb::MetaDatabase& db, SimClock& clock,
                ShardedEngineOptions options = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // --- Structural operations (quiescent engine only) --------------------

  /// Installs the blueprint on every shard engine (deep copies; each
  /// engine compiles its own rule tables against its own interner).
  /// `policy_version` stamps the PolicyStore commit the blueprint came
  /// from (0 = direct install); every shard's compiled generation
  /// carries it, so live rebinds stay version-traceable per shard.
  void LoadBlueprint(blueprint::Blueprint blueprint,
                     uint64_t policy_version = 0);

  /// Parses rule-file text and installs it. Throws ParseError.
  void LoadBlueprintText(std::string_view text, uint64_t policy_version = 0);

  /// PolicyStore version id the installed blueprint was compiled from
  /// (0 = unversioned); identical across shards by construction.
  uint64_t policy_version() const;

  /// Creation notifications, template application included. Delegated
  /// to shard 0's engine: template application only mutates the shared
  /// meta-database, so any engine produces identical meta-data.
  metadb::OidId OnCreateObject(std::string_view block, std::string_view view,
                               std::string_view user);
  metadb::LinkId OnCreateLink(metadb::LinkKind kind, metadb::OidId from,
                              metadb::OidId to);

  // --- Intake and execution ---------------------------------------------

  /// Routes an event to its target's shard and enqueues it. Lock-free
  /// until the ring overflows; safe from multiple threads when N > 1.
  /// With one shard, a plain push onto the shard engine's queue.
  void PostEvent(events::EventMessage event);

  /// Blocks until every queued event (and every task it spawned) has
  /// been processed. Returns the number of tasks processed by this
  /// drain. One drainer at a time (the coordinating thread); PostEvent
  /// from other threads stays safe while a drain waits (N > 1). With
  /// one shard, the shard engine's ProcessAll on the calling thread.
  size_t Drain();

  /// Rebalances the shard map if a use-link removal/move dirtied it
  /// (subtree re-parenting). Structural: call only while quiescent. A
  /// stale map never loses events — waves crossing a stale boundary
  /// ride the handoff path — it only costs locality until rebalanced.
  /// Re-assigned OIDs have their propagation-index buckets migrated to
  /// the new shard's index (stats().index_migrated_sources); neither
  /// index is rebuilt.
  void RebalanceShards();

  // --- Introspection -----------------------------------------------------

  uint32_t num_shards() const noexcept { return num_shards_; }
  RunTimeEngine& shard(uint32_t index);
  const RunTimeEngine& shard(uint32_t index) const;
  metadb::ShardMap& shard_map() noexcept { return shard_map_; }
  const metadb::ShardMap& shard_map() const noexcept { return shard_map_; }

  ShardedStats stats() const;

  /// Sums every shard engine's counters (max_wave_extent is the max).
  EngineStats AggregateEngineStats() const;

  /// All shards' journals, one "shard N:" section per shard, each in
  /// its own per-shard sequence order.
  std::string MergedJournalDump() const;

  /// Every journal record across all shards as "[origin] <event>"
  /// lines (no sequence numbers), shard by shard. Sorting the result
  /// gives the multiset differential tests compare.
  std::vector<std::string> JournalLines() const;

  void ClearJournals();
  void ResetStats();

  // --- Durability hooks (events/wal.hpp, metadb/recovery.hpp) ------------

  /// Last minted wave epoch (0 when none yet): the value a checkpoint
  /// records so a recovered engine keeps minting past every epoch the
  /// crashed process ever issued.
  uint64_t epoch_ceiling() const noexcept;

  /// Restores the epoch counters from a checkpoint manifest. Call only
  /// while quiescent, before any post-recovery event is posted.
  void RestoreEpochCeiling(uint64_t next_epoch, size_t wave_epochs);

  /// Steal-context journals (threaded lane stealing); the durability
  /// layer mirrors each one as its own WAL row stream.
  size_t steal_journal_count() const noexcept;
  events::EventJournal& steal_journal(size_t index);

 private:
  struct Task;
  class TaskRing;
  struct Lane;
  class LaneRouter;
  class IndexRouter;
  class ClaimStore;
  struct StealContext;

  uint32_t ShardOfTarget(const metadb::Oid& target) const;
  PropagationIndex& ShardIndex(uint32_t shard);
  void Route(events::EventMessage event);
  void Enqueue(uint32_t shard, Task&& task);
  void ExecuteTask(RunTimeEngine& engine, LaneRouter& router, Task&& task);
  void FinishTask(uint64_t epoch);
  void WorkerLoop(size_t worker_index);
  void DrainDeterministic();

  /// One steal pass for `worker_index`: pops queued sub-wave tasks from
  /// any lane (busy or not) and executes them on the worker's steal
  /// engine against the owning shard's claim store. Returns true when a
  /// task was executed.
  bool TrySteal(size_t worker_index);

  /// The shared (epoch, OID) claim store arbitrating shard `shard`'s
  /// deliveries.
  ClaimStore& StoreOf(uint32_t shard);

  /// Per-OID delivery locks (striped): serialize same-OID rule
  /// execution between a lane's occupant and stealers. No-ops unless
  /// lane stealing is active.
  void LockDelivery(metadb::OidId receiver);
  void UnlockDelivery(metadb::OidId receiver);

  /// Mints the next wave-scope epoch (monotone from 1; 0 is reserved
  /// for "no scope").
  uint64_t MintEpoch();

  /// Per-epoch in-flight refcounts: one ref per queued/executing task
  /// of the epoch plus one per mid-task mint. When an epoch's count
  /// drops to zero its wave is complete and every lane may purge its
  /// claim set ("merged lazily").
  void AcquireEpochRef(uint64_t epoch);
  void ReleaseEpochRef(uint64_t epoch);

  /// Lowest epoch still in flight (UINT64_MAX when none): the lanes'
  /// lock-free purge horizon.
  uint64_t MinLiveEpoch() const noexcept;

  metadb::MetaDatabase& db_;
  SimClock& clock_;
  ShardedEngineOptions options_;
  uint32_t num_shards_;
  /// Declared (and so registered as a link observer) before shard_map_:
  /// the router must see link ops before the map re-groups, so entries
  /// land under the assignment they were placed with. Null unless N > 1
  /// with propagation indexes.
  std::unique_ptr<IndexRouter> index_router_;
  metadb::ShardMap shard_map_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Per-shard shared claim stores (threaded N > 1 only; deterministic
  /// and 1-shard runs keep lane-local claims inside the routers).
  std::vector<std::unique_ptr<ClaimStore>> claim_stores_;
  /// Per-worker steal engines (threaded, two or more workers): scan-mode
  /// expansion over the shared read-only link graph, private journal
  /// and stats merged into the engine-wide views.
  std::vector<std::unique_ptr<StealContext>> steal_contexts_;
  bool stealing_active_ = false;
  std::vector<std::thread> workers_;

  // Threading state lives behind the Lane pimpl plus these counters;
  // see sharded_engine.cpp.
  struct Counters;
  std::unique_ptr<Counters> counters_;
  size_t last_drain_processed_ = 0;
};

}  // namespace damocles::engine
