// Checkpoint manifests and crash recovery over the write-ahead log.
//
// A durable server periodically checkpoints: the full meta-database
// (metadb/persistence text format), the active blueprint text and the
// workspace contents are written to checkpoint files, and a manifest
// records them together with the logical WAL offset each stream had
// reached. Recovery picks the newest manifest whose files all validate
// (a torn checkpoint write falls back to the previous one), loads the
// checkpoint, re-records the pre-checkpoint journal rows from the row
// streams, and replays the operation-stream tail past the checkpoint to
// regenerate everything newer — property state, journal contents and
// per-shard epoch bookkeeping alike.
//
// The invariant the crash-point fuzz enforces: for any crash point,
// recover + resume produces the same journal record multiset, property
// state and claim/epoch state as the uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/file_system.hpp"
#include "events/wal.hpp"
#include "metadb/workspace.hpp"

namespace damocles::metadb {

/// One checkpoint's metadata: what was saved, and how far each WAL
/// stream reached when the checkpoint was taken.
struct WalManifest {
  uint64_t checkpoint_id = 0;
  /// Delta checkpoints record only the dirty slots since `base_id` and
  /// chain onto it (base → delta → delta …). Full checkpoints stand
  /// alone. The manifest text carries `kind delta` + `base <id>` lines
  /// only for deltas, so full manifests stay byte-stable for servers
  /// predating incremental checkpoints.
  bool delta = false;
  uint64_t base_id = 0;
  /// Last operation sequence number covered by the checkpoint; recovery
  /// replays ops with op_seq greater than this.
  uint64_t op_seq = 0;
  /// Logical end offset of the "ops" stream at checkpoint time.
  uint64_t ops_offset = 0;
  int64_t clock_seconds = 0;
  /// Sharded-epoch bookkeeping (ShardedEngine counters): last minted
  /// wave epoch and the cumulative wave count. Zero when unsharded.
  uint64_t epoch_next = 0;
  uint64_t epoch_waves = 0;
  uint32_t num_shards = 1;
  std::string db_file;
  uint64_t db_bytes = 0;
  std::string blueprint_file;
  uint64_t blueprint_bytes = 0;
  std::string workspace_file;
  uint64_t workspace_bytes = 0;
  /// Serialized PolicyStore (commit chain + promotion stack). Empty
  /// file name on manifests written before policy versioning existed;
  /// such checkpoints load with an empty store and the blueprint is
  /// re-adopted as version 1.
  std::string policy_file;
  uint64_t policy_bytes = 0;
  /// (row stream name, logical offset at checkpoint time).
  std::vector<std::pair<std::string, uint64_t>> streams;
};

/// Renders the manifest in its line-oriented text format.
std::string FormatWalManifest(const WalManifest& manifest);

/// Inverse of FormatWalManifest. Throws WireFormatError (with the
/// offending line number) on malformed input.
WalManifest ParseWalManifest(const std::string& text);

/// Manifest / checkpoint file names within the WAL directory:
/// "manifest-000003.txt", "checkpoint-000003.db".
std::string ManifestFileName(uint64_t checkpoint_id);
std::string CheckpointFileName(uint64_t checkpoint_id, const std::string& ext);


// --- Workspace checkpoint text ---------------------------------------------

/// Serializes workspace contents (files and latest-version floors) in a
/// line-oriented text format. Deterministic.
std::string SaveWorkspaceText(const Workspace& workspace);

/// Restores a SaveWorkspaceText dump into `workspace` via the restore
/// APIs (no observer notifications). Throws WireFormatError with the
/// offending line number on malformed input.
void LoadWorkspaceText(const std::string& text, Workspace& workspace);

// --- Recovery --------------------------------------------------------------

/// Journal rows to re-record into one row stream's journal.
struct RecoveredStream {
  std::string name;
  std::vector<events::WalRestoredRow> rows;
};

/// Everything a server needs to rebuild its state from a WAL directory.
struct RecoveryPlan {
  bool have_checkpoint = false;
  WalManifest manifest;       ///< The chain TIP when have_checkpoint.
  std::string db_text;        ///< Base (full) checkpoint database dump.
  /// Delta texts to apply on top of db_text, base-to-tip order. Empty
  /// when the tip is itself a full checkpoint.
  std::vector<std::string> db_deltas;
  /// Manifest ids of the loaded chain, base first, tip last. One entry
  /// (the tip) for full checkpoints; empty without a checkpoint.
  std::vector<uint64_t> chain_ids;
  std::string blueprint_text; ///< Checkpoint blueprint (may be empty).
  std::string workspace_text; ///< Checkpoint workspace dump.
  std::string policy_text;    ///< Checkpoint PolicyStore dump (may be empty).
  /// Pre-checkpoint journal rows per row stream (already cut to the
  /// manifest offsets, with resets applied).
  std::vector<RecoveredStream> streams;
  /// Intact operations past the checkpoint, in logged order.
  std::vector<events::WalOpEntry> replay_ops;
  /// Logical end of the intact "ops" prefix (the torn tail starts here).
  uint64_t replay_ops_end = 0;
  /// Highest op_seq on record (checkpoint or ops stream); the server
  /// continues numbering from here.
  uint64_t last_op_seq = 0;
  /// Segments stranded below a pruned gap, which recovery skips.
  std::vector<std::string> orphaned_segments;
  /// Newer-but-invalid manifests that were passed over.
  size_t manifests_skipped = 0;
  /// Total journal rows restored across streams.
  size_t restored_rows = 0;
};

/// Scans `wal_dir` and builds the plan: newest valid checkpoint (every
/// referenced file must exist, match its recorded size and parse),
/// pre-checkpoint rows per stream, and the ops tail to replay. Read-only;
/// a missing or empty directory yields an empty plan.
RecoveryPlan BuildRecoveryPlan(const std::string& wal_dir,
                               common::FileSystem& fs);

/// Human-readable report over the checkpoint manifests in `wal_dir`:
/// one line per manifest (kind, base, op-seq, ops offset, db payload
/// size) plus the base→tip chain recovery would load. Read-only; the
/// wal_inspect CLI appends this to the stream report.
std::string FormatWalCheckpointChains(const std::string& wal_dir);

/// Makes the directory consistent with `plan` before writers re-attach:
/// truncates the ops stream at its torn tail, cuts every row stream back
/// to its manifest offset (streams unknown to the manifest are removed),
/// deletes manifests newer than the chosen chain tip together with
/// their checkpoint files, and sweeps the manifest `.tmp` leftovers of
/// killed renames, the segments the plan found orphaned and checkpoint
/// files no manifest on disk references. Returns what was (and could
/// not be) garbage-collected; segments cut by truncation do not count
/// as removed. A failed removal leaks disk: the server surfaces the
/// count through wal-status and a pruning-behind warning.
common::RemovalStats PrepareWalDirectory(const std::string& wal_dir,
                                         const RecoveryPlan& plan,
                                         common::FileSystem& fs);

/// Removes every manifest (and its checkpoint files) with id strictly
/// below `keep_from_id` — the retention path after a committed
/// checkpoint supersedes older chains. Never touches ids >=
/// `keep_from_id`. Returns removal/failure counts like
/// PrepareWalDirectory.
common::RemovalStats PruneWalCheckpoints(const std::string& wal_dir,
                                         uint64_t keep_from_id,
                                         common::FileSystem& fs);

// --- Checkpointing ---------------------------------------------------------

/// Input to WriteWalCheckpoint; the server fills it after draining and
/// syncing every stream.
struct CheckpointRequest {
  /// Delta checkpoints carry the dirty-slot delta in db_text (the
  /// "dbd" checkpoint file) and chain onto manifest `base_id`; full
  /// checkpoints carry the complete database dump ("db" file).
  bool delta = false;
  uint64_t base_id = 0;
  uint64_t op_seq = 0;
  uint64_t ops_offset = 0;
  int64_t clock_seconds = 0;
  uint64_t epoch_next = 0;
  uint64_t epoch_waves = 0;
  uint32_t num_shards = 1;
  std::string db_text;
  std::string blueprint_text;
  std::string workspace_text;
  std::string policy_text;
  std::vector<std::pair<std::string, uint64_t>> streams;
  /// Sync the WAL directory after the manifest rename (off at fsync=none).
  bool sync_directory = true;
};

/// Writes the checkpoint files (fsynced) and then the manifest via
/// write-to-temp + rename, so a crash mid-checkpoint leaves either the
/// old manifest chain or a complete new one. Returns the checkpoint id.
/// Throws Error when any step fails, closes and directory sync included.
uint64_t WriteWalCheckpoint(const std::string& wal_dir,
                            const CheckpointRequest& request,
                            common::FileSystem& fs);

}  // namespace damocles::metadb
