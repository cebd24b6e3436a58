#include "engine/project_server.hpp"

#include <chrono>
#include <thread>

#include "blueprint/parser.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "metadb/persistence.hpp"

namespace damocles::engine {
namespace {

/// steady_clock now, in milliseconds — the currency of the checkpoint
/// retry deadline atomic.
int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ProjectServer::ProjectServer(std::string project_name, ServerOptions options)
    : project_name_(std::move(project_name)),
      options_(options),
      fs_(options_.file_system != nullptr ? *options_.file_system
                                          : common::PosixFileSystem()),
      workspace_(project_name_ + ".workspace"),
      checkpoint_backoff_(options_.wal_retry) {
  const bool durable = !options_.wal_dir.empty();
  metadb::RecoveryPlan plan;
  if (durable) {
    if (const int err = fs_.CreateDirectories(options_.wal_dir); err != 0) {
      throw Error("wal: cannot create directory " + options_.wal_dir + ": " +
                  common::ErrnoString(err));
    }
    plan = metadb::BuildRecoveryPlan(options_.wal_dir, fs_);
    const common::RemovalStats gc =
        metadb::PrepareWalDirectory(options_.wal_dir, plan, fs_);
    gc_artifacts_removed_.store(gc.files_removed, std::memory_order_relaxed);
    failed_removals_.store(gc.failed_removals, std::memory_order_relaxed);
    if (plan.have_checkpoint) {
      // Load the checkpoint before any engine exists: move-assigning
      // the database is only safe while its observer list is empty.
      // The plan's db text is the chain's full base; deltas layer the
      // dirty slots of each chained checkpoint on top, in order.
      db_ = metadb::LoadDatabaseString(plan.db_text);
      for (const std::string& delta : plan.db_deltas) {
        metadb::ApplyDatabaseDeltaString(delta, db_);
      }
      metadb::LoadWorkspaceText(plan.workspace_text, workspace_);
      clock_.Advance(plan.manifest.clock_seconds - clock_.NowSeconds());
      blueprint_text_ = plan.blueprint_text;
      committed_checkpoint_id_.store(plan.manifest.checkpoint_id,
                                     std::memory_order_relaxed);
      committed_checkpoint_delta_.store(plan.manifest.delta,
                                        std::memory_order_relaxed);
      committed_chain_base_.store(plan.chain_ids.front(),
                                  std::memory_order_relaxed);
      committed_chain_length_.store(plan.chain_ids.size(),
                                    std::memory_order_relaxed);
    }
    // Track dirty slots from here on: every mutation below (blueprint
    // retemplating, replayed ops, live traffic) lands in the delta of
    // the next chained checkpoint, whose base is exactly the state
    // loaded above.
    db_.EnableDirtyTracking();
  }

  ShardedEngineOptions sharded;
  sharded.num_shards = options_.num_shards;
  sharded.deterministic = options_.deterministic_shards;
  sharded.engine = options_.engine;
  sharded_ = std::make_unique<ShardedEngine>(db_, clock_, sharded);
  // The observer hook: DAMOCLES watches the repository, designers never
  // talk to the tracking system directly.
  workspace_.AddObserver([this](const metadb::WorkspaceNotification& note) {
    if (note.action != metadb::WorkspaceAction::kCheckIn) return;
    sharded_->OnCreateObject(note.oid.block, note.oid.view, note.user);
    events::EventMessage event;
    event.name = "ckin";
    event.direction = options_.checkin_direction;
    event.target = note.oid;
    event.user = note.user;
    event.timestamp = note.timestamp;
    event.origin = events::EventOrigin::kExternal;
    sharded_->PostEvent(std::move(event));
  });

  if (plan.have_checkpoint) {
    // Restore the policy commit chain, then re-install the checkpointed
    // rules (suppressing op logging), then the pre-checkpoint journal
    // rows and the epoch bookkeeping — sinks are not attached yet, so
    // none of this re-enters the WAL. The restored store is
    // authoritative: the rule text is re-installed directly (no Adopt),
    // stamped with the recovered active version id. Pre-versioning
    // checkpoints carry no policy text; their blueprint goes through
    // InitializeBlueprint and is adopted as version 1.
    if (!plan.policy_text.empty()) {
      policy_store_.RestoreFromText(plan.policy_text);
    }
    if (!blueprint_text_.empty()) {
      replaying_ = true;
      if (policy_store_.active_id() != 0) {
        InstallBlueprintRules(blueprint_text_, policy_store_.active_id());
      } else {
        InitializeBlueprint(blueprint_text_);
      }
      replaying_ = false;
    }
    for (const metadb::RecoveredStream& stream : plan.streams) {
      events::EventJournal* journal = JournalForStream(stream.name);
      if (journal == nullptr) continue;
      for (const events::WalRestoredRow& row : stream.rows) {
        journal->Record(row.event);
      }
    }
    sharded_->RestoreEpochCeiling(
        plan.manifest.epoch_next,
        static_cast<size_t>(plan.manifest.epoch_waves));
    recovered_checkpoint_ = true;
    recovered_checkpoint_id_ = plan.manifest.checkpoint_id;
    recovered_op_seq_ = plan.manifest.op_seq;
    restored_rows_ = plan.restored_rows;
  }

  if (durable) {
    manifests_skipped_ = plan.manifests_skipped;
    AttachWal();
    op_seq_ = plan.last_op_seq;
    replayed_ops_offset_ = plan.replay_ops_end;
    if (!plan.replay_ops.empty()) ReplayOps(plan.replay_ops);
    if (options_.background_checkpoints) {
      checkpoint_thread_ =
          std::thread([this] { CheckpointWorkerLoop(); });
    }
  }
}

ProjectServer::~ProjectServer() {
  StopCheckpointWorker();
  // Detach sinks before the writers die; the journals (inside the
  // engines) outlive the writers by declaration order.
  for (events::EventJournal* journal : sink_journals_) {
    journal->SetSink(nullptr);
  }
}

void ProjectServer::StopCheckpointWorker() {
  if (!checkpoint_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(checkpoint_mutex_);
    checkpoint_shutdown_ = true;
    // A cut still pending is dropped: the process is exiting and the
    // WAL tail past the previous checkpoint covers the same state.
    checkpoint_cv_.notify_all();
  }
  checkpoint_thread_.join();
}

events::EventJournal* ProjectServer::JournalForStream(
    const std::string& name) {
  uint64_t index = 0;
  if (common::ParseNumberedName(name, "shard", "", index) &&
      index < sharded_->num_shards()) {
    return &sharded_->shard(static_cast<uint32_t>(index)).mutable_journal();
  }
  if (common::ParseNumberedName(name, "steal", "", index) &&
      index < sharded_->steal_journal_count()) {
    return &sharded_->steal_journal(static_cast<size_t>(index));
  }
  // Config drift (fewer shards / steal contexts than the checkpointing
  // process had): fold leftovers into shard 0 — the journal multiset
  // across all streams is what recovery preserves.
  return &sharded_->shard(0).mutable_journal();
}

void ProjectServer::AttachWal() {
  const auto make_writer = [this](const std::string& stream,
                                  uint32_t shard_id) {
    events::WalWriterOptions wal;
    wal.dir = options_.wal_dir;
    wal.stream = stream;
    wal.shard_id = shard_id;
    wal.segment_bytes = options_.wal_segment_bytes;
    wal.fsync = options_.wal_fsync;
    wal.fs = &fs_;
    wal.epoch_floor = [this] { return sharded_->stats().claim_purge_floor; };
    return std::make_unique<events::WalWriter>(std::move(wal));
  };

  ops_writer_ = make_writer("ops", 0);

  const auto attach = [this](events::EventJournal& journal,
                             std::unique_ptr<events::WalWriter> writer) {
    journal.SetSink(writer.get());
    sink_journals_.push_back(&journal);
    row_writers_.push_back(std::move(writer));
  };
  for (uint32_t i = 0; i < sharded_->num_shards(); ++i) {
    attach(sharded_->shard(i).mutable_journal(),
           make_writer("shard" + std::to_string(i), i));
  }
  for (size_t i = 0; i < sharded_->steal_journal_count(); ++i) {
    attach(sharded_->steal_journal(i),
           make_writer("steal" + std::to_string(i), 0));
  }
}

void ProjectServer::ApplyOp(const events::WalOpRecord& op) {
  switch (op.type) {
    case events::WalRecordType::kOpEvent:
      Submit(op.event);
      break;
    case events::WalRecordType::kOpCheckIn:
      CheckIn(op.block, op.view, op.content, op.user);
      break;
    case events::WalRecordType::kOpLink:
      RegisterLink(static_cast<metadb::LinkKind>(op.link_kind), op.link_from,
                   op.link_to);
      break;
    case events::WalRecordType::kOpBlueprint:
      InitializeBlueprint(op.text);
      break;
    case events::WalRecordType::kOpClock:
      // Clock ops carry absolute simulated time; never step backwards.
      if (op.clock_seconds > clock_.NowSeconds()) {
        clock_.Advance(op.clock_seconds - clock_.NowSeconds());
      }
      break;
    case events::WalRecordType::kOpPolicyPropose:
      // The id is re-derived from store state: replay re-executes every
      // propose in logged order, so the dense id sequence matches.
      PolicyPropose(op.text, op.user, op.content);
      break;
    case events::WalRecordType::kOpPolicyValidate:
      PolicyValidate(op.policy_version);
      break;
    case events::WalRecordType::kOpPolicyPromote:
      PolicyPromote(op.policy_version);
      break;
    case events::WalRecordType::kOpPolicyRollback:
      PolicyRollback();
      break;
    default:
      throw Error("ApplyOp: record type " +
                  std::to_string(static_cast<int>(op.type)) +
                  " is not an operation");
  }
}

void ProjectServer::ReplayOps(const std::vector<events::WalOpEntry>& ops) {
  replaying_ = true;
  for (const events::WalOpEntry& entry : ops) {
    try {
      ApplyOp(entry.op);
    } catch (const Error&) {
      // The op failed identically when it ran the first time, or the
      // environment it needed (an installed policy, say) is gone;
      // either way the surviving timeline continues without it.
    }
    ++replayed_ops_;
  }
  Drain();
  replaying_ = false;
  FlushWal();
}

void ProjectServer::FlushWal() {
  if (!durable()) return;
  // While degraded the writers are known-failing; buffered tails are
  // discarded by the WalReopen() heal, so re-driving them here would
  // only burn the retry budget on every drain.
  if (degraded_.load(std::memory_order_acquire)) return;
  const auto flush_all = [this] {
    // fsync=none: records stay buffered until a buffer fills, a
    // checkpoint syncs, or a clean shutdown; a kill -9 can lose the
    // buffered tail (the crash fuzz exercises exactly this). Otherwise
    // Sync skips writers with nothing new since their last fsync — all
    // of them under every_record, whose append groups synced already.
    if (options_.wal_fsync == events::FsyncPolicy::kNone) return;
    ops_writer_->Sync();
    for (auto& writer : row_writers_) writer->Sync();
  };
  // Drains run after their mutations applied and were (or will be)
  // acked, so a flush failure must not throw back through the caller:
  // retry on the shared schedule, then degrade and keep serving reads.
  common::BackoffState backoff(options_.wal_retry);
  for (;;) {
    try {
      flush_all();
      break;
    } catch (const WalIoError& error) {
      wal_failures_.fetch_add(1, std::memory_order_relaxed);
      if (!backoff.ShouldRetry()) {
        TripDegraded(error.what());
        return;
      }
      wal_retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(backoff.NextDelay());
    }
  }
  // The fail-soft sinks run inside engine worker threads and cannot
  // throw; a row they dropped is only visible in the writer's failure
  // record. Surface it here so the next mutation is rejected instead of
  // acked against a mirror that would lose its row at the next
  // checkpoint.
  for (const auto& writer : row_writers_) {
    if (!writer->ok()) {
      wal_failures_.fetch_add(1, std::memory_order_relaxed);
      TripDegraded("row mirror '" + writer->stream() +
                   "' failed: " + writer->failure());
      return;
    }
  }
}

void ProjectServer::MaybeAutoCheckpoint() {
  if (!durable() || replaying_) return;
  if (degraded_.load(std::memory_order_acquire)) return;
  if (options_.checkpoint_every_ops == 0) return;
  if (ops_since_checkpoint_.load(std::memory_order_relaxed) <
      options_.checkpoint_every_ops) {
    return;
  }
  // Failed attempts re-arm on the shared backoff schedule instead of
  // re-attempting on every subsequent op (the checkpoint-failure
  // storm); a disk that stays broken costs one attempt per backoff
  // interval, not one per mutation.
  if (SteadyNowMs() < checkpoint_retry_at_ms_.load(std::memory_order_acquire)) {
    return;
  }
  try {
    if (options_.background_checkpoints && checkpoint_thread_.joinable()) {
      // Fire and forget: skip when the worker is already on a cut.
      {
        std::lock_guard<std::mutex> lock(checkpoint_mutex_);
        if (checkpoint_busy_ || checkpoint_shutdown_) return;
      }
      CheckpointCut cut = BuildCheckpointCut(options_.auto_checkpoint_mode);
      std::lock_guard<std::mutex> lock(checkpoint_mutex_);
      pending_cut_.emplace(std::move(cut));
      checkpoint_busy_ = true;
      ++checkpoint_ticket_;
      checkpoint_cv_.notify_all();
    } else {
      WalCheckpoint(options_.auto_checkpoint_mode);
    }
  } catch (const Error&) {
    // A failed checkpoint (disk full mid-write, torn manifest) leaves
    // the previous manifest chain valid — recovery falls back to it.
    // The triggering mutation already applied and logged, so swallow;
    // HandleCheckpointFailure already armed the backoff deadline.
  }
}

void ProjectServer::TripDegraded(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(degraded_reason_mutex_);
    if (degraded_reason_.empty()) degraded_reason_ = reason;
  }
  degraded_.store(true, std::memory_order_release);
}

void ProjectServer::RequireWritable() const {
  if (replaying_) return;
  if (!degraded_.load(std::memory_order_acquire)) return;
  std::string reason;
  {
    std::lock_guard<std::mutex> lock(degraded_reason_mutex_);
    reason = degraded_reason_;
  }
  throw DegradedError("server is read-only (" + reason +
                      "); heal with wal-reopen");
}

void ProjectServer::RetryFailedAppend(
    const std::function<void(uint64_t)>& append, uint64_t seq,
    std::string last_error, bool frame_buffered, bool pre_apply) {
  wal_failures_.fetch_add(1, std::memory_order_relaxed);
  common::BackoffState backoff(options_.wal_retry);
  while (backoff.ShouldRetry()) {
    wal_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(backoff.NextDelay());
    const uint64_t mark = ops_writer_->frames_appended();
    try {
      if (frame_buffered) {
        // The record is already framed in the writer's buffer (the
        // flush behind it failed); re-drive the I/O. Re-appending would
        // write the op twice.
        if (options_.wal_fsync == events::FsyncPolicy::kEveryRecord) {
          ops_writer_->Sync();
        } else {
          ops_writer_->Flush();
        }
      } else {
        append(seq);
      }
      return;  // Transient fault: healed within the retry budget.
    } catch (const WalIoError& error) {
      wal_failures_.fetch_add(1, std::memory_order_relaxed);
      last_error = error.what();
      frame_buffered =
          frame_buffered || ops_writer_->frames_appended() != mark;
    }
  }
  TripDegraded(last_error);
  if (pre_apply) {
    // The mutation has not executed; rejecting it is truthful. (Its
    // frame may still have reached disk — such a "ghost" op carries
    // op_seq <= the heal checkpoint's and is never replayed.)
    throw DegradedError("mutation rejected, WAL unavailable (" + last_error +
                        "); heal with wal-reopen");
  }
  // Post-apply ops: the mutation is live in memory and the client gets
  // its ack; the WalReopen() heal checkpoint makes it durable again.
}

ServerHealth ProjectServer::GetHealth() const {
  ServerHealth health;
  health.durable = durable();
  health.degraded = degraded_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(degraded_reason_mutex_);
    health.reason = degraded_reason_;
  }
  health.wal_failures = wal_failures_.load(std::memory_order_relaxed);
  health.wal_retries = wal_retries_.load(std::memory_order_relaxed);
  health.checkpoint_failures =
      checkpoint_failures_.load(std::memory_order_relaxed);
  health.checkpoint_retries =
      checkpoint_retries_.load(std::memory_order_relaxed);
  health.heals = heals_.load(std::memory_order_relaxed);
  health.failed_removals = failed_removals_.load(std::memory_order_relaxed);
  health.prune_behind = health.failed_removals > 0;
  return health;
}

uint64_t ProjectServer::WalReopen() {
  if (!durable()) {
    throw Error("wal-reopen: durability is off (no wal_dir configured)");
  }
  // Quiesce the engine without touching the wedged writers (FlushWal
  // no-ops while degraded; the sinks are fail-soft).
  sharded_->Drain();
  // Discard the writers and their buffered tails. Anything buffered but
  // not durable is unrecoverable through a failing fd anyway; the
  // checkpoint below re-captures it from memory.
  for (events::EventJournal* journal : sink_journals_) {
    journal->SetSink(nullptr);
  }
  sink_journals_.clear();
  row_writers_.clear();
  ops_writer_.reset();
  // Re-verify the tail: drop any torn suffix a partial flush left, so
  // the reopened writers continue from a CRC-valid prefix.
  try {
    for (const std::string& stream :
         events::ListWalStreams(options_.wal_dir, fs_)) {
      const events::WalStreamData data =
          events::ReadWalStream(options_.wal_dir, stream, fs_);
      failed_removals_.fetch_add(
          events::TruncateWalStream(options_.wal_dir, stream, data.valid_end,
                                    fs_),
          std::memory_order_relaxed);
    }
    AttachWal();
    // The fail-soft sinks may have dropped rows while the WAL was
    // failing, so the truncated mirrors can be short of the in-memory
    // journals. Re-mirror each journal in full (reset + every row);
    // the checkpoint below then records stream offsets that cover it.
    for (size_t i = 0; i < sink_journals_.size(); ++i) {
      row_writers_[i]->MirrorJournal(*sink_journals_[i]);
    }
    // Re-baseline durability at the live state. This closes the fsync
    // ambiguity window: ghost ops (durable but rejected) sit below the
    // new manifest's op_seq and are never replayed; applied ops whose
    // frames were lost are inside the checkpointed state.
    degraded_.store(false, std::memory_order_release);
    const uint64_t id = WalCheckpoint();
    {
      std::lock_guard<std::mutex> lock(degraded_reason_mutex_);
      degraded_reason_.clear();
    }
    heals_.fetch_add(1, std::memory_order_relaxed);
    return id;
  } catch (const Error& error) {
    // Still failing: back to degraded, writers in whatever state the
    // failure left them (a later wal-reopen starts over cleanly).
    TripDegraded(error.what());
    throw;
  }
}

uint64_t ProjectServer::WalCheckpoint(CheckpointMode mode) {
  if (!durable()) {
    throw Error("wal-checkpoint: durability is off (no wal_dir configured)");
  }
  const bool background =
      options_.background_checkpoints && checkpoint_thread_.joinable();
  if (background) {
    // One cut pending or in flight at a time; synchronous callers queue
    // behind whatever the worker is writing.
    std::unique_lock<std::mutex> lock(checkpoint_mutex_);
    checkpoint_cv_.wait(lock, [this] { return !checkpoint_busy_; });
  }
  CheckpointCut cut;
  try {
    cut = BuildCheckpointCut(mode);
  } catch (const Error&) {
    // The cut never froze (a drain/sync failure): no dirty marks were
    // consumed, but arm the retry deadline so auto-attempts don't storm.
    HandleCheckpointFailure(CheckpointCut{});
    throw;
  }
  return background ? CheckpointThroughWorker(std::move(cut))
                    : CheckpointInline(std::move(cut));
}

ProjectServer::CheckpointCut ProjectServer::BuildCheckpointCut(
    CheckpointMode mode) {
  {
    // Failed cuts parked their dirty sets; restamp them before cutting
    // so the next delta re-covers those slots. Apply thread only — the
    // tracker's stamp arrays may grow under structural appends, which
    // only this thread performs.
    std::lock_guard<std::mutex> lock(checkpoint_mutex_);
    MergeBackFailedDirtyLocked();
  }
  Drain();
  // Self-heal stale mirrors before freezing offsets: a fail-soft sink
  // that dropped rows leaves its stream short of the in-memory journal,
  // and a checkpoint taken over the short mirror would lose those rows
  // forever on recovery. Re-mirroring throws if the stream still fails,
  // which fails the checkpoint — the previous manifest stays in charge.
  for (size_t i = 0; i < row_writers_.size(); ++i) {
    if (!row_writers_[i]->ok()) {
      row_writers_[i]->MirrorJournal(*sink_journals_[i]);
    }
  }
  ops_writer_->Sync();
  for (auto& writer : row_writers_) writer->Sync();

  CheckpointCut cut;
  metadb::CheckpointRequest& request = cut.request;
  const uint64_t base =
      committed_checkpoint_id_.load(std::memory_order_relaxed);
  request.delta = mode == CheckpointMode::kDelta && base != 0 &&
                  db_.dirty_tracking_enabled() &&
                  committed_chain_length_.load(std::memory_order_relaxed) <
                      options_.checkpoint_chain_limit;
  request.base_id = request.delta ? base : 0;
  request.op_seq = op_seq_;
  request.ops_offset = ops_writer_->logical_end();
  request.clock_seconds = clock_.NowSeconds();
  request.epoch_next = sharded_->epoch_ceiling();
  request.epoch_waves = sharded_->stats().wave_epochs;
  request.num_shards = options_.num_shards;
  request.blueprint_text = blueprint_text_;
  request.workspace_text = metadb::SaveWorkspaceText(workspace_);
  // Only serialized once versions exist, so pre-versioning WAL
  // directories keep producing byte-identical manifests.
  if (policy_store_.size() > 0) {
    request.policy_text = policy_store_.SerializeText();
  }
  for (const auto& writer : row_writers_) {
    request.streams.emplace_back(writer->stream(), writer->logical_end());
  }
  request.sync_directory = options_.wal_fsync != events::FsyncPolicy::kNone;
  // Retention floors: everything below the checkpointed ops offset is
  // covered by the chain; row-stream rows below the writer's last
  // journal reset are invisible to recovery (0 = no reset yet, keep
  // the stream whole).
  cut.prune_floors.emplace_back("ops", request.ops_offset);
  for (const auto& writer : row_writers_) {
    cut.prune_floors.emplace_back(writer->stream(), writer->last_reset_end());
  }
  // The dirty cut and the snapshot pin come last, after everything that
  // can throw: a failed build must never consume marks.
  if (db_.dirty_tracking_enabled()) cut.dirty = db_.CutDirtySet();
  // Background writes serialize off-thread from a pinned immutable
  // version; inline writes serialize right here and can use the live
  // database without paying the publish copy.
  cut.snap = options_.background_checkpoints ? db_.PublishSnapshot()
                                             : metadb::Snapshot::Live(db_);
  return cut;
}

uint64_t ProjectServer::RunCheckpointWrite(const CheckpointCut& cut) {
  metadb::CheckpointRequest request = cut.request;
  request.db_text =
      request.delta ? metadb::SaveDatabaseDeltaString(cut.snap.db(), cut.dirty)
                    : metadb::SaveDatabaseString(cut.snap.db());
  const uint64_t id =
      metadb::WriteWalCheckpoint(options_.wal_dir, request, fs_);
  CommitCheckpoint(cut, id);
  PruneAfterCommit(cut);
  return id;
}

void ProjectServer::CommitCheckpoint(const CheckpointCut& cut, uint64_t id) {
  committed_checkpoint_id_.store(id, std::memory_order_relaxed);
  committed_checkpoint_delta_.store(cut.request.delta,
                                    std::memory_order_relaxed);
  if (cut.request.delta) {
    committed_chain_length_.fetch_add(1, std::memory_order_relaxed);
  } else {
    committed_chain_base_.store(id, std::memory_order_relaxed);
    committed_chain_length_.store(1, std::memory_order_relaxed);
  }
  ops_since_checkpoint_.store(0, std::memory_order_relaxed);
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_retry_at_ms_.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lock(checkpoint_mutex_);
  checkpoint_backoff_.Reset();
}

void ProjectServer::PruneAfterCommit(const CheckpointCut& cut) {
  if (options_.wal_retain_segments < 0) return;
  for (const auto& [stream, floor] : cut.prune_floors) {
    if (floor == 0) continue;
    try {
      const common::RemovalStats stats =
          events::PruneWalSegments(options_.wal_dir, stream, floor,
                                   options_.wal_retain_segments, fs_);
      segments_pruned_.fetch_add(stats.files_removed,
                                 std::memory_order_relaxed);
      bytes_pruned_.fetch_add(stats.bytes_removed, std::memory_order_relaxed);
      failed_removals_.fetch_add(stats.failed_removals,
                                 std::memory_order_relaxed);
    } catch (const Error&) {
      // A prune interrupted mid-loop leaves removed-prefix + intact
      // suffix; recovery's orphaned-prefix sweep finishes the job.
      // Count it and move on — the checkpoint already committed.
      failed_removals_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const uint64_t keep_from =
      committed_chain_base_.load(std::memory_order_relaxed);
  if (keep_from > 0) {
    const common::RemovalStats gc =
        metadb::PruneWalCheckpoints(options_.wal_dir, keep_from, fs_);
    checkpoints_pruned_.fetch_add(gc.files_removed,
                                  std::memory_order_relaxed);
    failed_removals_.fetch_add(gc.failed_removals, std::memory_order_relaxed);
  }
}

uint64_t ProjectServer::CheckpointInline(CheckpointCut&& cut) {
  try {
    return RunCheckpointWrite(cut);
  } catch (const Error&) {
    HandleCheckpointFailure(std::move(cut));
    throw;
  }
}

uint64_t ProjectServer::CheckpointThroughWorker(CheckpointCut&& cut) {
  std::unique_lock<std::mutex> lock(checkpoint_mutex_);
  if (checkpoint_shutdown_) {
    throw Error("wal-checkpoint: checkpoint worker is shut down");
  }
  pending_cut_.emplace(std::move(cut));
  checkpoint_busy_ = true;
  const uint64_t ticket = ++checkpoint_ticket_;
  checkpoint_cv_.notify_all();
  checkpoint_cv_.wait(lock,
                      [this, ticket] { return checkpoint_done_ >= ticket; });
  // Single producer: our ticket completed last, so the slots are ours.
  if (last_worker_error_ != nullptr) {
    std::rethrow_exception(last_worker_error_);
  }
  return last_worker_id_;
}

void ProjectServer::CheckpointWorkerLoop() {
  std::unique_lock<std::mutex> lock(checkpoint_mutex_);
  for (;;) {
    checkpoint_cv_.wait(lock, [this] {
      return checkpoint_shutdown_ || pending_cut_.has_value();
    });
    if (checkpoint_shutdown_) return;
    CheckpointCut cut = std::move(*pending_cut_);
    pending_cut_.reset();
    lock.unlock();
    uint64_t id = 0;
    std::exception_ptr error;
    try {
      id = RunCheckpointWrite(cut);
    } catch (...) {
      error = std::current_exception();
    }
    if (error != nullptr) HandleCheckpointFailure(std::move(cut));
    lock.lock();
    ++checkpoint_done_;
    last_worker_id_ = id;
    last_worker_error_ = error;
    checkpoint_busy_ = false;
    checkpoint_cv_.notify_all();
  }
}

void ProjectServer::HandleCheckpointFailure(CheckpointCut&& cut) {
  checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_retries_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(checkpoint_mutex_);
  if (!cut.dirty.empty()) failed_dirty_.push_back(std::move(cut.dirty));
  // Walk the shared schedule; once exhausted, keep re-arming at the cap
  // instead of giving up — the next success resets the walk.
  std::chrono::milliseconds delay = options_.wal_retry.max;
  if (checkpoint_backoff_.ShouldRetry()) {
    delay = checkpoint_backoff_.NextDelay();
  }
  checkpoint_retry_at_ms_.store(SteadyNowMs() + delay.count(),
                                std::memory_order_release);
}

void ProjectServer::MergeBackFailedDirtyLocked() {
  for (const metadb::DirtySet& dirty : failed_dirty_) {
    db_.MergeBackDirtySet(dirty);
  }
  failed_dirty_.clear();
}

WalStatus ProjectServer::GetWalStatus() const {
  WalStatus status;
  status.enabled = durable();
  status.dir = options_.wal_dir;
  status.fsync = options_.wal_fsync;
  status.recovered = recovered_checkpoint_;
  status.checkpoint_id = recovered_checkpoint_id_;
  status.recovered_op_seq = recovered_op_seq_;
  status.replayed_ops = replayed_ops_;
  status.replayed_ops_offset = replayed_ops_offset_;
  status.restored_rows = restored_rows_;
  status.manifests_skipped = manifests_skipped_;
  status.ops_logged = op_seq_;
  status.ops_end_offset =
      ops_writer_ != nullptr ? ops_writer_->logical_end() : 0;
  status.checkpoints_taken =
      checkpoints_taken_.load(std::memory_order_relaxed);
  status.last_checkpoint_id =
      committed_checkpoint_id_.load(std::memory_order_relaxed);
  status.last_checkpoint_delta =
      committed_checkpoint_delta_.load(std::memory_order_relaxed);
  status.chain_base_id = committed_chain_base_.load(std::memory_order_relaxed);
  status.chain_length = static_cast<size_t>(
      committed_chain_length_.load(std::memory_order_relaxed));
  status.background = options_.background_checkpoints;
  status.retain_segments = options_.wal_retain_segments;
  status.segments_pruned = segments_pruned_.load(std::memory_order_relaxed);
  status.bytes_pruned = bytes_pruned_.load(std::memory_order_relaxed);
  status.checkpoints_pruned =
      checkpoints_pruned_.load(std::memory_order_relaxed);
  status.gc_artifacts_removed =
      gc_artifacts_removed_.load(std::memory_order_relaxed);
  status.failed_removals = failed_removals_.load(std::memory_order_relaxed);
  return status;
}

size_t ProjectServer::RecoverFrom(const std::string& dir) {
  if (durable() && dir == options_.wal_dir) {
    throw Error("recover: refusing to replay this server's own WAL "
                "directory into itself");
  }
  const events::WalStreamData ops = events::ReadWalStream(dir, "ops", fs_);
  size_t applied = 0;
  for (const events::WalOpEntry& entry : ops.ops) {
    try {
      ApplyOp(entry.op);
      ++applied;
    } catch (const Error&) {
      // Ops that failed in the original timeline re-fail here.
    }
  }
  Drain();
  return applied;
}

void ProjectServer::InstallBlueprintRules(std::string_view rule_file_text,
                                          uint64_t version_id) {
  sharded_->LoadBlueprint(blueprint::ParseBlueprint(rule_file_text),
                          version_id);
  // Retemplating only mutates the shared meta-database (observers keep
  // every shard index in step), so shard 0's engine covers every shard.
  if (options_.retemplate_on_init) engine().RetemplateLinks();
  blueprint_text_ = std::string(rule_file_text);
}

void ProjectServer::InitializeBlueprint(std::string_view rule_file_text) {
  RequireWritable();
  EnforcePolicy(policy::Operation::kReinitBlueprint, "", "", "");
  // Adopt parses first and throws ParseError before any state moves.
  const uint64_t version_id = policy_store_.Adopt(
      std::string(rule_file_text), "", "initializeBlueprint");
  InstallBlueprintRules(rule_file_text, version_id);
  if (logging()) {
    LogOp(/*pre_apply=*/false, [this](uint64_t seq) {
      ops_writer_->AppendBlueprintOp(seq, blueprint_text_);
    });
  }
  MaybeAutoCheckpoint();
}

uint64_t ProjectServer::PolicyPropose(std::string_view blueprint_text,
                                      std::string_view author,
                                      std::string_view message) {
  RequireWritable();
  EnforcePolicy(policy::Operation::kReinitBlueprint, author, "", "");
  const uint64_t id =
      policy_store_.Propose(std::string(blueprint_text), std::string(author),
                            std::string(message));
  if (logging()) {
    LogOp(/*pre_apply=*/false, [&](uint64_t seq) {
      ops_writer_->AppendPolicyProposeOp(seq, blueprint_text, author, message);
    });
  }
  MaybeAutoCheckpoint();
  return id;
}

blueprint::ValidationReport ProjectServer::PolicyValidate(uint64_t id) {
  RequireWritable();
  blueprint::ValidationReport report = policy_store_.Validate(id);
  if (logging()) {
    LogOp(/*pre_apply=*/false, [&](uint64_t seq) {
      ops_writer_->AppendPolicyVersionOp(
          events::WalRecordType::kOpPolicyValidate, seq, id);
    });
  }
  MaybeAutoCheckpoint();
  return report;
}

policy::PolicyVersion ProjectServer::PolicyPromote(uint64_t id) {
  RequireWritable();
  EnforcePolicy(policy::Operation::kReinitBlueprint, "", "", "");
  const policy::PolicyVersion version = policy_store_.Promote(id);
  // The text parsed at propose time, so the install cannot throw and
  // the store transition above stays consistent with the live rules.
  InstallBlueprintRules(version.blueprint_text, version.id);
  if (logging()) {
    LogOp(/*pre_apply=*/false, [&](uint64_t seq) {
      ops_writer_->AppendPolicyVersionOp(
          events::WalRecordType::kOpPolicyPromote, seq, id);
    });
  }
  MaybeAutoCheckpoint();
  return version;
}

policy::PolicyVersion ProjectServer::PolicyRollback() {
  RequireWritable();
  EnforcePolicy(policy::Operation::kReinitBlueprint, "", "", "");
  const policy::PolicyVersion version = policy_store_.Rollback();
  InstallBlueprintRules(version.blueprint_text, version.id);
  if (logging()) {
    LogOp(/*pre_apply=*/false, [this](uint64_t seq) {
      ops_writer_->AppendPolicyRollbackOp(seq);
    });
  }
  MaybeAutoCheckpoint();
  return version;
}

void ProjectServer::SetProjectPhase(std::string phase) {
  phase_ = std::move(phase);
  if (policy_ != nullptr) policy_->SetPhase(phase_);
}

void ProjectServer::EnforcePolicy(policy::Operation operation,
                                  std::string_view user,
                                  std::string_view view,
                                  std::string_view block) const {
  if (policy_ == nullptr) return;
  policy::PolicyRequest request;
  request.operation = operation;
  request.user = std::string(user);
  request.view = std::string(view);
  request.block = std::string(block);
  const policy::PolicyDecision decision = policy_->Evaluate(request);
  if (!decision.allowed) {
    throw PermissionError("project policy: " + decision.reason);
  }
}

metadb::Oid ProjectServer::CheckIn(std::string_view block,
                                   std::string_view view,
                                   std::string_view content,
                                   std::string_view user) {
  RequireWritable();
  EnforcePolicy(policy::Operation::kCheckIn, user, view, block);
  const metadb::Oid oid =
      workspace_.CheckIn(block, view, content, user, clock_.NowSeconds());
  if (logging()) {
    LogOp(/*pre_apply=*/false, [&](uint64_t seq) {
      ops_writer_->AppendCheckInOp(seq, block, view, content, user);
    });
  }
  if (options_.auto_drain) Drain();
  MaybeAutoCheckpoint();
  return oid;
}

metadb::Oid ProjectServer::CheckOut(std::string_view block,
                                    std::string_view view,
                                    std::string_view user) {
  EnforcePolicy(policy::Operation::kCheckOut, user, view, block);
  return workspace_.CheckOut(block, view, user, clock_.NowSeconds());
}

metadb::LinkId ProjectServer::RegisterLink(metadb::LinkKind kind,
                                           const metadb::Oid& from,
                                           const metadb::Oid& to) {
  RequireWritable();
  EnforcePolicy(policy::Operation::kRegisterLink, "", to.view, to.block);
  const auto from_id = db_.FindObject(from);
  const auto to_id = db_.FindObject(to);
  if (!from_id.has_value() || !to_id.has_value()) {
    throw NotFoundError("RegisterLink: unknown endpoint " +
                        FormatOid(!from_id.has_value() ? from : to));
  }
  const metadb::LinkId link = sharded_->OnCreateLink(kind, *from_id, *to_id);
  if (logging()) {
    LogOp(/*pre_apply=*/false, [&](uint64_t seq) {
      ops_writer_->AppendLinkOp(seq, static_cast<uint8_t>(kind), from, to);
    });
  }
  MaybeAutoCheckpoint();
  return link;
}

void ProjectServer::SubmitWireLine(std::string_view line,
                                   std::string_view user) {
  events::EventMessage event = events::ParseWireEvent(line);
  event.user = std::string(user);
  Submit(std::move(event));
}

void ProjectServer::Submit(events::EventMessage event) {
  RequireWritable();
  // Policies gate designer-originated traffic; events the engine's own
  // rules post internally are not re-checked.
  EnforcePolicy(policy::Operation::kPostEvent, event.user, event.name,
                event.target.block);
  // Logged before the move hands the fields to the engine; intake is a
  // queue push that cannot fail once the policy gate passed, and replay
  // tolerates ops that re-fail. pre_apply: nothing executed yet, so an
  // exhausted retry budget rejects the event outright.
  if (logging()) {
    LogOp(/*pre_apply=*/true,
          [&](uint64_t seq) { ops_writer_->AppendEventOp(seq, event); });
  }
  sharded_->PostEvent(std::move(event));
  if (options_.auto_drain) Drain();
  MaybeAutoCheckpoint();
}

size_t ProjectServer::Drain() {
  const size_t processed = sharded_->Drain();
  FlushWal();
  return processed;
}

void ProjectServer::AdvanceClock(int64_t seconds) {
  RequireWritable();
  clock_.Advance(seconds);
  if (logging()) {
    LogOp(/*pre_apply=*/false, [this](uint64_t seq) {
      ops_writer_->AppendClockOp(seq, clock_.NowSeconds());
    });
  }
  MaybeAutoCheckpoint();
}

}  // namespace damocles::engine
