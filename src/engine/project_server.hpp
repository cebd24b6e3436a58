// The DAMOCLES project server (paper Fig. 1).
//
// Owns the meta-database, the run-time engine, the simulated clock and
// one workspace, and wires them together:
//  * workspace check-ins are observed (non-obstructively) and turned
//    into meta-data registration plus a `ckin` event;
//  * wrapper programs submit textual `postEvent` lines over the
//    simulated network channel;
//  * designers query project state through the query layer, which takes
//    a const reference to the database.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "engine/run_time_engine.hpp"
#include "engine/sharded_engine.hpp"
#include "events/wal.hpp"
#include "events/wire.hpp"
#include "metadb/meta_database.hpp"
#include "metadb/recovery.hpp"
#include "metadb/workspace.hpp"
#include "policy/policy_engine.hpp"
#include "policy/policy_store.hpp"

namespace damocles::engine {

/// What a checkpoint writes: the complete database dump, or only the
/// slots dirtied since the previous checkpoint. Delta checkpoints chain
/// onto their base manifest (base → delta → delta …); recovery loads
/// the base, applies the deltas in order, then replays the ops tail.
enum class CheckpointMode { kFull, kDelta };

/// Server configuration.
struct ServerOptions {
  EngineOptions engine;
  /// Number of ShardedEngine shards behind the server. 1 (default) runs
  /// the single shard engine inline on the calling thread; >1 routes
  /// submitted events through the lock-free sharded intake rings to the
  /// worker pool. Structural operations (check-in registration, link
  /// registration, blueprint loads) remain single-writer: the session
  /// mux serializes all mutations onto its apply thread.
  uint32_t num_shards = 1;
  /// ShardedEngineOptions::deterministic (moot at one shard, which
  /// always runs on the caller).
  bool deterministic_shards = false;
  /// Direction stamped on auto-posted ckin events; the paper's sample
  /// command uses `up` ("postEvent ckin up reg,verilog,4 ...").
  events::Direction checkin_direction = events::Direction::kUp;
  /// Process the queue after every submitted event (interactive mode)
  /// instead of waiting for an explicit Drain() (batch mode).
  bool auto_drain = true;
  /// On InitializeBlueprint, re-apply the new link templates to every
  /// existing link (PROPAGATE / TYPE / carry). This makes switching
  /// between loose and strict blueprints effective for data created
  /// under the previous phase (paper §3.2).
  bool retemplate_on_init = true;

  // --- Durability (write-ahead log; see events/wal.hpp) ------------------

  /// Directory for WAL segments, checkpoints and manifests. Created on
  /// demand; its contents are recovered at construction. Empty
  /// (default) disables durability entirely.
  std::string wal_dir;
  /// When appended WAL bytes are forced down (none|batch|every_record).
  events::FsyncPolicy wal_fsync = events::FsyncPolicy::kNone;
  /// Segment roll threshold.
  size_t wal_segment_bytes = 4u << 20;
  /// Take a checkpoint automatically every N logged operations
  /// (0 = only explicit WalCheckpoint / wire "wal-checkpoint" calls).
  size_t checkpoint_every_ops = 0;
  /// Every file operation on wal_dir goes through this file system.
  /// Not owned, must outlive the server; null (default) means POSIX.
  /// Tests substitute one that records or fails operations.
  common::FileSystem* file_system = nullptr;
  /// WAL append/flush/fsync failures retry on this jittered-exponential
  /// schedule before the server trips into degraded read-only mode
  /// (attempts = 0 degrades on the first failure).
  common::BackoffPolicy wal_retry{3, std::chrono::milliseconds(1),
                                  std::chrono::milliseconds(50), 2.0, 0.5};
  /// Kind of checkpoint the auto-checkpoint path takes. Delta (default)
  /// writes only the dirty slots since the last committed checkpoint;
  /// the first checkpoint (no base on record) is always full, and every
  /// checkpoint_chain_limit-th forces a full to re-anchor the chain.
  CheckpointMode auto_checkpoint_mode = CheckpointMode::kDelta;
  /// Manifests a base→delta chain may span before the next checkpoint
  /// is forced full, bounding recovery's base + deltas + tail work.
  size_t checkpoint_chain_limit = 8;
  /// Write checkpoints on a dedicated background thread: the apply
  /// thread only builds the cut (pinned snapshot, dirty delta, stream
  /// offsets) and keeps serving mutations while the worker serializes,
  /// writes and commits. Synchronous WalCheckpoint() calls enqueue and
  /// wait; auto-checkpoints enqueue and return.
  bool background_checkpoints = false;
  /// Segment retention: after a checkpoint commits, WAL segments wholly
  /// below the committed floor (ops offset for "ops", last journal
  /// reset for row streams) are pruned, keeping this many prunable
  /// segments as a safety margin. Negative (default) never prunes —
  /// RecoverFrom()-style full-genesis replay needs the complete ops
  /// history. Checkpoint chains older than the committed base are
  /// pruned under the same knob.
  int wal_retain_segments = -1;
};

/// Fault-tolerance snapshot (the wire "health" command's payload).
struct ServerHealth {
  bool durable = false;
  bool degraded = false;    ///< WAL failing; mutations rejected in-band.
  std::string reason;       ///< Failure that tripped degraded mode.
  uint64_t wal_failures = 0;         ///< WAL I/O failures observed.
  uint64_t wal_retries = 0;          ///< Backoff retry attempts made.
  uint64_t checkpoint_failures = 0;  ///< Checkpoint attempts that failed.
  uint64_t checkpoint_retries = 0;   ///< Backoff-gated checkpoint re-arms.
  uint64_t heals = 0;                ///< Successful WalReopen() calls.
  /// Garbage collection (segment retention, checkpoint pruning, startup
  /// sweeps) has observed failed removals: disk is leaking and
  /// pruning is falling behind. A warning, not degraded mode — the
  /// durable state itself is intact.
  bool prune_behind = false;
  uint64_t failed_removals = 0;      ///< Failed removals across GC paths.
};

/// Durability-state snapshot (the wire "wal-status" command's payload).
struct WalStatus {
  bool enabled = false;
  std::string dir;
  events::FsyncPolicy fsync = events::FsyncPolicy::kNone;
  bool recovered = false;  ///< A checkpoint was loaded at construction.
  uint64_t checkpoint_id = 0;       ///< Checkpoint recovered from.
  uint64_t recovered_op_seq = 0;    ///< op_seq the checkpoint covered.
  size_t replayed_ops = 0;          ///< WAL tail ops re-executed.
  uint64_t replayed_ops_offset = 0; ///< Ops offset replayed through.
  size_t restored_rows = 0;         ///< Journal rows restored.
  size_t manifests_skipped = 0;     ///< Torn checkpoints passed over.
  uint64_t ops_logged = 0;          ///< Current operation sequence number.
  uint64_t ops_end_offset = 0;      ///< Ops stream logical end, now.
  uint64_t checkpoints_taken = 0;   ///< Checkpoints this process wrote.

  // Incremental-checkpoint chain + retention state.
  uint64_t last_checkpoint_id = 0;  ///< Newest committed checkpoint.
  bool last_checkpoint_delta = false;  ///< Its kind (true = delta).
  uint64_t chain_base_id = 0;       ///< Full checkpoint anchoring the chain.
  size_t chain_length = 0;          ///< Manifests in the chain (1 = full only).
  bool background = false;          ///< Background checkpointing enabled.
  int retain_segments = -1;         ///< Retention knob (-1 = never prune).
  uint64_t segments_pruned = 0;     ///< WAL segments removed by retention.
  uint64_t bytes_pruned = 0;        ///< Bytes those segments held.
  uint64_t checkpoints_pruned = 0;  ///< Superseded manifest/checkpoint files.
  uint64_t gc_artifacts_removed = 0;  ///< Startup-sweep removals (tmp, orphans).
  uint64_t failed_removals = 0;     ///< Failed removals across GC paths.
};

/// Facade bundling the tracking system's moving parts.
class ProjectServer {
 public:
  explicit ProjectServer(std::string project_name, ServerOptions options = {});
  ~ProjectServer();

  // Non-copyable, non-movable: the workspace observer captures `this`.
  ProjectServer(const ProjectServer&) = delete;
  ProjectServer& operator=(const ProjectServer&) = delete;

  const std::string& project_name() const noexcept { return project_name_; }

  /// Initializes (or re-initializes, between project phases) the
  /// blueprint from rule-file text. Throws ParseError on bad input.
  /// The text is adopted into the policy store as a directly installed
  /// (already promoted) version, keeping the commit chain complete.
  void InitializeBlueprint(std::string_view rule_file_text);

  // --- Versioned policy lifecycle ----------------------------------------
  //
  // The gated path to changing the live rule set:
  //   PolicyPropose -> PolicyValidate -> PolicyPromote -> PolicyRollback
  // Promotion and rollback recompile the chosen version through the
  // compiled-rules generation counter, so every shard engine rebinds
  // its per-OID rule caches lazily — no stop-the-world
  // reload. All four are durable structural operations: they append to
  // the WAL post-apply and replay through the same methods.

  /// Registers a candidate rule file. Throws ParseError on malformed
  /// text; never touches the live engines. Returns the version id.
  uint64_t PolicyPropose(std::string_view blueprint_text,
                         std::string_view author, std::string_view message);

  /// Statically validates a proposed version (kValidated / kRejected).
  blueprint::ValidationReport PolicyValidate(uint64_t id);

  /// Makes a validated (or previously active) version the live rule
  /// set. Returns a copy of the newly active version.
  policy::PolicyVersion PolicyPromote(uint64_t id);

  /// Restores the previously promoted version's compiled tables without
  /// a restart. Returns a copy of the re-activated version.
  policy::PolicyVersion PolicyRollback();

  /// The versioned policy table (thread-safe; hands out copies).
  policy::PolicyStore& policy_store() noexcept { return policy_store_; }
  const policy::PolicyStore& policy_store() const noexcept {
    return policy_store_;
  }

  // --- Project policies --------------------------------------------------

  /// Installs a policy engine; designer operations are checked against
  /// it from now on (nullptr removes the policy — everything allowed).
  /// The engine is not owned and must outlive the server.
  void SetPolicy(policy::PolicyEngine* policy) noexcept { policy_ = policy; }
  policy::PolicyEngine* policy() const noexcept { return policy_; }

  /// Sets the project phase the policy rules match against.
  void SetProjectPhase(std::string phase);
  const std::string& project_phase() const noexcept { return phase_; }

  // --- Designer-facing operations -------------------------------------

  /// Checks design data in; the observer registers the new version with
  /// the engine and posts `ckin`. Returns the new OID.
  metadb::Oid CheckIn(std::string_view block, std::string_view view,
                      std::string_view content, std::string_view user);

  /// Checks the latest version out for editing.
  metadb::Oid CheckOut(std::string_view block, std::string_view view,
                       std::string_view user);

  /// Registers a link created by a design activity (tools call this via
  /// their wrappers, e.g. the synthesizer registering hierarchy).
  metadb::LinkId RegisterLink(metadb::LinkKind kind, const metadb::Oid& from,
                              const metadb::Oid& to);

  /// Accepts one wire-protocol line ("postEvent ckin up cpu,hdl,3 ...").
  void SubmitWireLine(std::string_view line, std::string_view user);

  /// Posts an already parsed event.
  void Submit(events::EventMessage event);

  /// Drains the event queue; returns events processed.
  size_t Drain();

  /// Advances simulated time (design activities take time).
  void AdvanceClock(int64_t seconds);

  // --- Durability ---------------------------------------------------------

  /// True when operations and journal rows are mirrored to a WAL.
  bool durable() const noexcept { return ops_writer_ != nullptr; }

  /// Drains, syncs every stream and writes a checkpoint (database,
  /// blueprint, workspace, per-stream offsets). Returns the checkpoint
  /// id. Throws Error when durability is off. kFull (default) dumps the
  /// complete database; kDelta writes only the slots dirtied since the
  /// last committed checkpoint and chains onto it (silently upgraded to
  /// full when no base exists or the chain hit checkpoint_chain_limit).
  /// With background_checkpoints on, the call enqueues the cut to the
  /// worker thread and waits for the commit.
  uint64_t WalCheckpoint(CheckpointMode mode = CheckpointMode::kFull);

  /// Current durability state (recovery provenance included).
  WalStatus GetWalStatus() const;

  // --- Fault tolerance -----------------------------------------------------

  /// True while the server is in degraded read-only mode: the WAL hit
  /// an unrecoverable I/O failure, mutations are rejected with
  /// DegradedError, reads keep serving from pinned snapshots. Safe to
  /// call from any thread.
  bool degraded() const noexcept {
    return degraded_.load(std::memory_order_acquire);
  }

  /// Fault-tolerance counters + degraded reason. Safe from any thread.
  ServerHealth GetHealth() const;

  /// Heals a degraded server once the fault cleared: quiesces the
  /// engine, discards the (possibly wedged) writers, re-verifies every
  /// stream's tail by truncating to its CRC-valid prefix, reopens fresh
  /// writers and takes a checkpoint re-baselining durability at the
  /// current in-memory state. The checkpoint neutralizes both halves of
  /// the fsync ambiguity: operations that reached disk but were
  /// rejected ("ghosts") carry op_seq <= the new manifest's and are
  /// never replayed; applied operations whose frames were lost are
  /// captured by the checkpointed state itself. Returns the checkpoint
  /// id; throws (and stays degraded) while the fault persists. Also
  /// valid on a healthy server (rolls every stream onto fresh
  /// segments). Callers must serialize this against mutations — the
  /// session mux runs it on the apply thread.
  uint64_t WalReopen();

  /// Throws DegradedError when mutations are currently rejected.
  void RequireWritable() const;

  /// Replays the complete operation history of another WAL directory
  /// into this server (full-genesis replay: checkpoints in `dir` are
  /// ignored, the ops stream alone is the source). Intended for
  /// standing up a fresh server from a crashed one's log; throws Error
  /// when `dir` is this server's own WAL directory. Returns the number
  /// of operations applied.
  size_t RecoverFrom(const std::string& dir);

  // --- Component access --------------------------------------------------

  metadb::MetaDatabase& database() noexcept { return db_; }
  const metadb::MetaDatabase& database() const noexcept { return db_; }

  /// Shard 0 of the engine: template application and retemplating
  /// delegate to it, and at one shard it is the whole engine.
  RunTimeEngine& engine() noexcept { return sharded_->shard(0); }
  const RunTimeEngine& engine() const noexcept { return sharded_->shard(0); }

  /// True when events flow through the sharded intake rings (N > 1).
  bool is_sharded() const noexcept { return sharded_->num_shards() > 1; }

  /// The engine behind the server (never null).
  ShardedEngine* sharded_engine() noexcept { return sharded_.get(); }
  const ShardedEngine* sharded_engine() const noexcept {
    return sharded_.get();
  }

  metadb::Workspace& workspace() noexcept { return workspace_; }
  SimClock& clock() noexcept { return clock_; }

 private:
  /// Throws PermissionError when the installed policy denies the request.
  void EnforcePolicy(policy::Operation operation, std::string_view user,
                     std::string_view view, std::string_view block) const;

  /// Parses `rule_file_text` and installs it into the live engines,
  /// stamping the compiled rules with `version_id` so bindings rebind.
  /// Shared by InitializeBlueprint, promote/rollback and the recovery
  /// re-install; does not touch the policy store and never logs.
  void InstallBlueprintRules(std::string_view rule_file_text,
                             uint64_t version_id);

  // --- Durability internals ----------------------------------------------

  /// The journal a WAL row stream mirrors ("shard<K>" -> lane K,
  /// "steal<K>" -> steal context K; unknown names fold into shard 0 so
  /// a config change never loses restored rows). Null only when the
  /// stream index is out of range and no fallback exists.
  events::EventJournal* JournalForStream(const std::string& name);

  /// Creates the ops + row writers and attaches the journal sinks.
  void AttachWal();

  /// True when operations should be appended to the ops stream: the
  /// call sites log through the writer's zero-copy Append*Op methods
  /// after an operation succeeded (policy, validation and mutation),
  /// and skip it while replaying or when durability is off.
  bool logging() const noexcept {
    return ops_writer_ != nullptr && !replaying_;
  }

  /// Assigns the next op_seq (and counts toward auto-checkpointing).
  uint64_t NextOpSeq() noexcept {
    ++ops_since_checkpoint_;
    return ++op_seq_;
  }

  /// Re-executes one logged operation (replay path).
  void ApplyOp(const events::WalOpRecord& op);

  /// Replays the post-checkpoint ops tail at construction.
  void ReplayOps(const std::vector<events::WalOpEntry>& ops);

  /// Applies the fsync policy at drain boundaries. Never throws: a
  /// failure retries on options_.wal_retry, then trips degraded mode
  /// (the drained mutations already applied and were acked).
  void FlushWal();

  void MaybeAutoCheckpoint();

  // --- Incremental / background checkpointing ------------------------------

  /// Everything a checkpoint write needs, frozen on the apply thread at
  /// a drain-quiescent point: the request minus its database text. The
  /// snapshot pins the database version (background mode) or wraps it
  /// live (inline mode); serialization happens wherever the write runs,
  /// so with background checkpointing on the apply thread never pays
  /// the dump cost.
  struct CheckpointCut {
    metadb::CheckpointRequest request;
    metadb::Snapshot snap;
    metadb::DirtySet dirty;
    /// Segment-retention floors captured at cut time: the checkpoint
    /// ops offset for "ops", each row writer's last-reset end (0 keeps
    /// the stream untouched). Applied only after the write commits.
    std::vector<std::pair<std::string, uint64_t>> prune_floors;
  };

  /// Apply-thread half: drains, heals stale mirrors, syncs every
  /// stream, then freezes offsets + snapshot + dirty delta. Anything
  /// that can throw runs before the dirty cut, so a failed build never
  /// loses dirty marks. Resolves kDelta down to full when no base
  /// exists or the chain hit its limit.
  CheckpointCut BuildCheckpointCut(CheckpointMode mode);

  /// Write half (worker thread in background mode): serializes the
  /// database from the cut's snapshot, writes checkpoint files +
  /// manifest, then commits and prunes. Returns the new checkpoint id.
  uint64_t RunCheckpointWrite(const CheckpointCut& cut);

  /// Publishes a committed checkpoint: chain/floor atomics, counter
  /// resets, backoff re-arm. Worker thread in background mode — touches
  /// atomics and the checkpoint mutex only, never the live database.
  void CommitCheckpoint(const CheckpointCut& cut, uint64_t id);

  /// Retention after a commit: prunes WAL segments wholly below the
  /// cut's floors and checkpoint chains below the committed base.
  /// Failures surface as counters (prune-behind warning), never as a
  /// checkpoint failure — the manifest already committed.
  void PruneAfterCommit(const CheckpointCut& cut);

  /// Failure bookkeeping shared by the inline and worker paths: counts
  /// the failure, parks the cut's dirty set for merge-back on the apply
  /// thread, and arms the next auto-attempt on the backoff schedule
  /// (after the schedule exhausts, re-attempts keep the max interval —
  /// never once-per-op).
  void HandleCheckpointFailure(CheckpointCut&& cut);

  /// Re-marks dirty sets parked by failed checkpoints (apply thread
  /// only; caller holds checkpoint_mutex_).
  void MergeBackFailedDirtyLocked();

  uint64_t CheckpointInline(CheckpointCut&& cut);
  uint64_t CheckpointThroughWorker(CheckpointCut&& cut);
  void CheckpointWorkerLoop();
  void StopCheckpointWorker();

  /// Logs one ops-stream record, assigning its op_seq. The happy path
  /// is exactly one inlined Append*Op call; WalIoError diverts to the
  /// cold retry/degrade path. `pre_apply` marks ops logged before their
  /// mutation executes (Submit): those throw DegradedError on
  /// exhaustion because rejecting the client is still truthful. Ops
  /// logged after their mutation applied swallow the failure instead —
  /// the client is acked and durability re-baselines at WalReopen().
  template <typename AppendFn>
  void LogOp(bool pre_apply, AppendFn&& append) {
    const uint64_t seq = NextOpSeq();
    const uint64_t mark = ops_writer_->frames_appended();
    try {
      append(seq);
    } catch (const WalIoError& error) {
      RetryFailedAppend([&append](uint64_t s) { append(s); }, seq,
                        error.what(),
                        ops_writer_->frames_appended() != mark, pre_apply);
    }
  }

  /// Cold path behind LogOp: bounded jittered-exponential retry, then
  /// TripDegraded. When the failed append already framed its record
  /// into the writer's buffer, retries re-drive the I/O (Flush/Sync)
  /// instead of re-appending — a second frame would duplicate the op.
  void RetryFailedAppend(const std::function<void(uint64_t)>& append,
                         uint64_t seq, std::string last_error,
                         bool frame_buffered, bool pre_apply);

  /// Enters degraded read-only mode (idempotent).
  void TripDegraded(const std::string& reason);

  std::string project_name_;
  ServerOptions options_;
  common::FileSystem& fs_;  ///< options_.file_system, or POSIX.
  SimClock clock_;
  metadb::MetaDatabase db_;
  std::unique_ptr<ShardedEngine> sharded_;
  metadb::Workspace workspace_;
  policy::PolicyEngine* policy_ = nullptr;
  policy::PolicyStore policy_store_;
  std::string phase_;

  // Durability state (all inert when wal_dir is empty).
  std::unique_ptr<events::WalWriter> ops_writer_;
  std::vector<std::unique_ptr<events::WalWriter>> row_writers_;
  /// Journals with an attached sink, for detaching at destruction.
  std::vector<events::EventJournal*> sink_journals_;
  uint64_t op_seq_ = 0;
  /// Ops since the last *committed* checkpoint (reset at commit, which
  /// runs on the worker thread in background mode — hence atomic).
  std::atomic<size_t> ops_since_checkpoint_{0};
  bool replaying_ = false;
  /// The active blueprint's source text (checkpointed alongside the
  /// database so recovery can re-install the rules).
  std::string blueprint_text_;
  bool recovered_checkpoint_ = false;
  uint64_t recovered_checkpoint_id_ = 0;
  uint64_t recovered_op_seq_ = 0;
  size_t replayed_ops_ = 0;
  uint64_t replayed_ops_offset_ = 0;
  size_t restored_rows_ = 0;
  size_t manifests_skipped_ = 0;
  std::atomic<uint64_t> checkpoints_taken_{0};

  // Committed-checkpoint chain + retention state. Written by whichever
  // thread commits (worker in background mode), read by health/status
  // sessions — atomics throughout.
  std::atomic<uint64_t> committed_checkpoint_id_{0};
  std::atomic<bool> committed_checkpoint_delta_{false};
  std::atomic<uint64_t> committed_chain_base_{0};
  std::atomic<uint64_t> committed_chain_length_{0};
  std::atomic<uint64_t> segments_pruned_{0};
  std::atomic<uint64_t> bytes_pruned_{0};
  std::atomic<uint64_t> checkpoints_pruned_{0};
  std::atomic<uint64_t> gc_artifacts_removed_{0};
  std::atomic<uint64_t> failed_removals_{0};
  std::atomic<uint64_t> checkpoint_retries_{0};
  /// steady_clock deadline (ms since epoch) before which the
  /// auto-checkpoint path will not re-attempt after a failure. The fix
  /// for the checkpoint-failure storm: failures used to reset the op
  /// counter to the threshold, re-attempting on *every* subsequent op.
  std::atomic<int64_t> checkpoint_retry_at_ms_{0};

  // Background-checkpoint worker. One cut pending or in flight at a
  // time; only the apply thread enqueues.
  std::mutex checkpoint_mutex_;
  std::condition_variable checkpoint_cv_;
  std::thread checkpoint_thread_;
  bool checkpoint_shutdown_ = false;
  bool checkpoint_busy_ = false;  ///< A cut is pending or being written.
  std::optional<CheckpointCut> pending_cut_;
  uint64_t checkpoint_ticket_ = 0;  ///< Cuts enqueued.
  uint64_t checkpoint_done_ = 0;    ///< Cuts completed (either way).
  uint64_t last_worker_id_ = 0;     ///< Id from the last completed cut.
  std::exception_ptr last_worker_error_;  ///< Its failure, if any.
  /// Dirty sets from failed cuts, parked until the apply thread can
  /// safely restamp them (the tracker's arrays may grow concurrently).
  std::vector<metadb::DirtySet> failed_dirty_;
  common::BackoffState checkpoint_backoff_;

  // Fault-tolerance state. The atomics are read by concurrent health /
  // read sessions while the apply thread mutates; the reason string is
  // guarded separately.
  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> wal_failures_{0};
  std::atomic<uint64_t> wal_retries_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};
  std::atomic<uint64_t> heals_{0};
  mutable std::mutex degraded_reason_mutex_;
  std::string degraded_reason_;
};

}  // namespace damocles::engine
