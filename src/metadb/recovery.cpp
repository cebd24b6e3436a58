#include "metadb/recovery.hpp"

#include <algorithm>
#include <cerrno>
#include <map>
#include <set>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"
#include "metadb/persistence.hpp"

namespace damocles::metadb {

namespace {

constexpr const char* kManifestMagic = "damocles-wal-manifest v1";
constexpr const char* kWorkspaceMagic = "damocles-workspace v1";

[[noreturn]] void FailLine(const char* what, size_t line_no,
                           const std::string& message) {
  throw WireFormatError(std::string(what) + ", line " +
                        std::to_string(line_no) + ": " + message);
}

/// Cursor over one manifest / workspace line: quoted strings and
/// whitespace-separated integers.
struct LineCursor {
  std::string_view line;
  size_t pos = 0;
  size_t line_no = 0;
  const char* what = "";

  void SkipSpaces() {
    while (pos < line.size() && line[pos] == ' ') ++pos;
  }

  std::string Quoted(const char* field) {
    SkipSpaces();
    std::string out;
    if (!UnquoteString(line, pos, out)) {
      FailLine(what, line_no, std::string("expected quoted ") + field);
    }
    return out;
  }

  uint64_t U64(const char* field) {
    SkipSpaces();
    const size_t begin = pos;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') ++pos;
    if (pos == begin) {
      FailLine(what, line_no, std::string("expected number for ") + field);
    }
    return std::stoull(std::string(line.substr(begin, pos - begin)));
  }

  int64_t I64(const char* field) {
    SkipSpaces();
    bool negative = false;
    if (pos < line.size() && line[pos] == '-') {
      negative = true;
      ++pos;
    }
    const uint64_t magnitude = U64(field);
    return negative ? -static_cast<int64_t>(magnitude)
                    : static_cast<int64_t>(magnitude);
  }

  void ExpectEnd() {
    SkipSpaces();
    if (pos != line.size()) {
      FailLine(what, line_no, "trailing garbage on line");
    }
  }
};

/// Walks a dump of a `magic` line, then `key ...` lines up to "end"
/// (blank lines only after it), calling `parse(key, cursor)` per line
/// and expecting the cursor at the line's end afterwards. Returns the
/// line count for the caller's final checks.
template <typename Parse>
size_t ParseKeyedLines(const std::string& text, const char* magic,
                       const char* what, Parse&& parse) {
  const std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || lines[0] != magic) {
    FailLine(what, 1, std::string("expected magic '") + magic + "'");
  }
  bool saw_end = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    const size_t line_no = i + 1;
    const std::string& line = lines[i];
    if (line.empty()) {
      if (!saw_end) FailLine(what, line_no, "unexpected blank line");
      continue;
    }
    if (saw_end) FailLine(what, line_no, "content after 'end'");
    if (line == "end") {
      saw_end = true;
      continue;
    }
    const size_t space = line.find(' ');
    LineCursor cursor{line, space == std::string::npos ? line.size() : space,
                      line_no, what};
    parse(line.substr(0, space), cursor);
    cursor.ExpectEnd();
  }
  if (!saw_end) FailLine(what, lines.size(), "missing 'end'");
  return lines.size();
}

/// Writes + fsyncs a checkpoint file, throwing on failure.
///
/// "checkpoint.write" failpoint: `short:<n>` writes only the first n
/// bytes before failing (the partial file a real ENOSPC leaves behind);
/// `error` / `errno:<E>` fail after the full write. Either way the
/// previous manifest chain stays untouched — the manifest pointing at
/// this file is never written.
void WriteCheckpointFile(common::FileSystem& fs, const std::string& path,
                         std::string_view content) {
  common::FailpointHit hit;
  const bool injected = DAMOCLES_FAILPOINT("checkpoint.write", &hit);
  if (injected && hit.action == common::FailpointAction::kShortWrite) {
    content = content.substr(0, static_cast<size_t>(hit.param));
  }
  int err = fs.WriteFileDurable(path, content);
  if (injected) {
    err = hit.action == common::FailpointAction::kErrno ? hit.error_number
                                                        : EIO;
  }
  if (err != 0) {
    throw Error("checkpoint: write failed on " + path + ": " +
                common::ErrnoString(err) + (injected ? " (injected)" : ""));
  }
}

/// (id, path) of every manifest file, sorted ascending by id.
std::vector<common::NumberedFile> ListManifests(common::FileSystem& fs,
                                                const std::string& dir) {
  return fs.ListNumbered(dir, "manifest-", ".txt");
}

}  // namespace

// --- Manifest text ---------------------------------------------------------

std::string FormatWalManifest(const WalManifest& manifest) {
  std::string out = kManifestMagic;
  out += "\n";
  out += "checkpoint " + std::to_string(manifest.checkpoint_id) + "\n";
  if (manifest.delta) {
    // Written only for delta checkpoints, so full manifests stay
    // byte-stable for servers predating incremental checkpoints.
    out += "kind delta\n";
    out += "base " + std::to_string(manifest.base_id) + "\n";
  }
  out += "op-seq " + std::to_string(manifest.op_seq) + "\n";
  out += "ops-offset " + std::to_string(manifest.ops_offset) + "\n";
  out += "clock " + std::to_string(manifest.clock_seconds) + "\n";
  out += "epoch-next " + std::to_string(manifest.epoch_next) + "\n";
  out += "epoch-waves " + std::to_string(manifest.epoch_waves) + "\n";
  out += "shards " + std::to_string(manifest.num_shards) + "\n";
  out += "db " + QuoteString(manifest.db_file) + " " +
         std::to_string(manifest.db_bytes) + "\n";
  out += "blueprint " + QuoteString(manifest.blueprint_file) + " " +
         std::to_string(manifest.blueprint_bytes) + "\n";
  out += "workspace " + QuoteString(manifest.workspace_file) + " " +
         std::to_string(manifest.workspace_bytes) + "\n";
  if (!manifest.policy_file.empty()) {
    // Written only when a policy store was checkpointed, so manifests
    // stay byte-stable for servers predating policy versioning.
    out += "policy " + QuoteString(manifest.policy_file) + " " +
           std::to_string(manifest.policy_bytes) + "\n";
  }
  for (const auto& [name, offset] : manifest.streams) {
    out += "stream " + QuoteString(name) + " " + std::to_string(offset) + "\n";
  }
  out += "end\n";
  return out;
}

WalManifest ParseWalManifest(const std::string& text) {
  constexpr const char* kWhat = "wal manifest";
  WalManifest manifest;
  bool saw_db = false;
  bool saw_workspace = false;
  const size_t line_count = ParseKeyedLines(
      text, kManifestMagic, kWhat,
      [&](const std::string& key, LineCursor& cursor) {
        if (key == "checkpoint") {
          manifest.checkpoint_id = cursor.U64("checkpoint id");
        } else if (key == "kind") {
          // Optional: absent (meaning "full") on manifests from before
          // incremental checkpoints.
          const std::string kind(Trim(cursor.line.substr(cursor.pos)));
          cursor.pos = cursor.line.size();
          if (kind == "delta") {
            manifest.delta = true;
          } else if (kind != "full") {
            FailLine(kWhat, cursor.line_no,
                     "unknown checkpoint kind '" + kind + "'");
          }
        } else if (key == "base") {
          manifest.base_id = cursor.U64("base checkpoint id");
        } else if (key == "op-seq") {
          manifest.op_seq = cursor.U64("op-seq");
        } else if (key == "ops-offset") {
          manifest.ops_offset = cursor.U64("ops-offset");
        } else if (key == "clock") {
          manifest.clock_seconds = cursor.I64("clock");
        } else if (key == "epoch-next") {
          manifest.epoch_next = cursor.U64("epoch-next");
        } else if (key == "epoch-waves") {
          manifest.epoch_waves = cursor.U64("epoch-waves");
        } else if (key == "shards") {
          manifest.num_shards = static_cast<uint32_t>(cursor.U64("shards"));
        } else if (key == "db") {
          manifest.db_file = cursor.Quoted("file name");
          manifest.db_bytes = cursor.U64("byte count");
          saw_db = true;
        } else if (key == "blueprint") {
          manifest.blueprint_file = cursor.Quoted("file name");
          manifest.blueprint_bytes = cursor.U64("byte count");
        } else if (key == "workspace") {
          manifest.workspace_file = cursor.Quoted("file name");
          manifest.workspace_bytes = cursor.U64("byte count");
          saw_workspace = true;
        } else if (key == "policy") {
          // Optional: absent on manifests from before policy versioning.
          manifest.policy_file = cursor.Quoted("file name");
          manifest.policy_bytes = cursor.U64("byte count");
        } else if (key == "stream") {
          const std::string name = cursor.Quoted("stream name");
          const uint64_t offset = cursor.U64("offset");
          manifest.streams.emplace_back(name, offset);
        } else {
          FailLine(kWhat, cursor.line_no, "unknown key '" + key + "'");
        }
      });
  if (!saw_db) FailLine(kWhat, line_count, "missing 'db' entry");
  if (!saw_workspace) {
    FailLine(kWhat, line_count, "missing 'workspace' entry");
  }
  if (manifest.delta && manifest.base_id == 0) {
    FailLine(kWhat, line_count, "delta manifest missing 'base'");
  }
  if (!manifest.delta && manifest.base_id != 0) {
    FailLine(kWhat, line_count, "'base' entry on a full manifest");
  }
  if (manifest.delta && manifest.base_id >= manifest.checkpoint_id) {
    FailLine(kWhat, line_count,
             "delta base must precede the checkpoint id (chain must descend)");
  }
  return manifest;
}

std::string ManifestFileName(uint64_t checkpoint_id) {
  return common::NumberedFileName("manifest-", checkpoint_id, ".txt");
}

std::string CheckpointFileName(uint64_t checkpoint_id,
                               const std::string& ext) {
  return common::NumberedFileName("checkpoint-", checkpoint_id, "." + ext);
}

// --- Workspace checkpoint text ---------------------------------------------

std::string SaveWorkspaceText(const Workspace& workspace) {
  std::string out = kWorkspaceMagic;
  out += "\n";
  workspace.ForEachFile([&out](const Oid& oid, const DesignFile& file) {
    out += "file " + QuoteString(oid.block) + " " + QuoteString(oid.view) +
           " " + std::to_string(oid.version) + " " +
           std::to_string(file.modified_at) + " " +
           QuoteString(file.content) + "\n";
  });
  workspace.ForEachLatest(
      [&out](std::string_view block, std::string_view view, int version) {
        out += "latest " + QuoteString(block) + " " + QuoteString(view) + " " +
               std::to_string(version) + "\n";
      });
  out += "end\n";
  return out;
}

void LoadWorkspaceText(const std::string& text, Workspace& workspace) {
  ParseKeyedLines(
      text, kWorkspaceMagic, "workspace dump",
      [&](const std::string& key, LineCursor& cursor) {
        if (key == "file") {
          Oid oid;
          oid.block = cursor.Quoted("block");
          oid.view = cursor.Quoted("view");
          oid.version = static_cast<int>(cursor.U64("version"));
          const int64_t modified_at = cursor.I64("modified_at");
          std::string content = cursor.Quoted("content");
          workspace.RestoreFile(oid, std::move(content), modified_at);
        } else if (key == "latest") {
          const std::string block = cursor.Quoted("block");
          const std::string view = cursor.Quoted("view");
          const int version = static_cast<int>(cursor.U64("version"));
          workspace.RestoreLatestVersion(block, view, version);
        } else {
          FailLine(cursor.what, cursor.line_no, "unknown key '" + key + "'");
        }
      });
}

// --- Recovery --------------------------------------------------------------

RecoveryPlan BuildRecoveryPlan(const std::string& wal_dir,
                               common::FileSystem& fs) {
  RecoveryPlan plan;
  // Every stream, "ops" included (empty when absent).
  std::map<std::string, events::WalStreamData> streams;
  for (const std::string& name : events::ListWalStreams(wal_dir, fs)) {
    const events::WalStreamData& stream =
        streams.emplace(name, events::ReadWalStream(wal_dir, name, fs))
            .first->second;
    for (const events::WalSegmentInfo& segment : stream.segments) {
      if (segment.orphaned) plan.orphaned_segments.push_back(segment.path);
    }
  }
  events::WalStreamData& ops = streams["ops"];
  plan.replay_ops_end = ops.valid_end;

  // Newest manifest whose checkpoint fully validates wins; torn or
  // incomplete checkpoint writes fall back to their predecessor. A
  // delta manifest validates only if its whole base→delta chain does:
  // every member's manifest and db/dbd file must load, and the deltas
  // must apply cleanly onto the base in order. A delta tip with a
  // broken chain is skipped exactly like a torn full checkpoint (its
  // own base, one step shorter, is tried next).
  const auto manifests = ListManifests(fs, wal_dir);
  std::map<uint64_t, std::string> manifest_paths;
  for (const common::NumberedFile& manifest : manifests) {
    manifest_paths.emplace(manifest.number, manifest.path);
  }
  const auto load_part = [&](const std::string& file, uint64_t bytes,
                             std::string& out) {
    if (file.empty()) return bytes == 0;
    return fs.ReadFile(wal_dir + "/" + file, out) == 0 && out.size() == bytes;
  };
  for (auto it = manifests.rbegin(); it != manifests.rend(); ++it) {
    const uint64_t tip_id = it->number;
    // (manifest, db text), tip first while following base pointers.
    std::vector<std::pair<WalManifest, std::string>> members;
    std::string blueprint_text;
    std::string workspace_text;
    std::string policy_text;
    bool valid = true;
    uint64_t next_id = tip_id;
    while (valid) {
      const auto path_it = manifest_paths.find(next_id);
      if (path_it == manifest_paths.end()) {
        valid = false;
        break;
      }
      std::string text;
      WalManifest manifest;
      valid = fs.ReadFile(path_it->second, text) == 0;
      if (valid) {
        try {
          manifest = ParseWalManifest(text);
        } catch (const WireFormatError&) {
          valid = false;
        }
      }
      if (valid && manifest.checkpoint_id != next_id) valid = false;
      std::string db_text;
      if (valid) {
        valid = load_part(manifest.db_file, manifest.db_bytes, db_text);
      }
      if (!valid) break;
      const bool is_delta = manifest.delta;
      const uint64_t base_id = manifest.base_id;
      members.emplace_back(std::move(manifest), std::move(db_text));
      if (!is_delta) break;  // Reached the chain's full base.
      // ParseWalManifest enforces base < id, so the walk strictly
      // descends and cannot cycle.
      next_id = base_id;
    }
    if (valid) {
      const WalManifest& tip = members.front().first;
      valid = load_part(tip.blueprint_file, tip.blueprint_bytes,
                        blueprint_text) &&
              load_part(tip.workspace_file, tip.workspace_bytes,
                        workspace_text) &&
              // Trusted at the size level like the blueprint text; the
              // server parses it (and fails recovery loudly) when
              // rebuilding the store.
              load_part(tip.policy_file, tip.policy_bytes, policy_text);
    }
    if (valid) {
      // Parse proof over the whole chain: load the base, apply every
      // delta in order. A delta written against a different base (or
      // torn mid-write) fails here and the chain is passed over.
      try {
        MetaDatabase proof = LoadDatabaseString(members.back().second);
        for (size_t i = members.size() - 1; i-- > 0;) {
          ApplyDatabaseDeltaString(members[i].second, proof);
        }
        Workspace scratch("recovery-scratch");
        LoadWorkspaceText(workspace_text, scratch);
      } catch (const Error&) {
        valid = false;
      }
    }
    if (valid) {
      // Every checkpointed row offset must lie inside the stream's
      // intact prefix, or the pre-checkpoint journal is unrecoverable
      // from this manifest.
      for (const auto& [name, offset] : members.front().first.streams) {
        const auto stream_it = streams.find(name);
        const uint64_t valid_end =
            stream_it == streams.end() ? 0 : stream_it->second.valid_end;
        if (offset > valid_end) {
          valid = false;
          break;
        }
      }
    }
    if (!valid) {
      ++plan.manifests_skipped;
      continue;
    }
    plan.have_checkpoint = true;
    plan.manifest = members.front().first;
    plan.db_text = std::move(members.back().second);
    for (size_t i = members.size() - 1; i-- > 0;) {
      plan.db_deltas.push_back(std::move(members[i].second));
    }
    for (auto member = members.rbegin(); member != members.rend(); ++member) {
      plan.chain_ids.push_back(member->first.checkpoint_id);
    }
    plan.blueprint_text = std::move(blueprint_text);
    plan.workspace_text = std::move(workspace_text);
    plan.policy_text = std::move(policy_text);
    break;
  }

  if (plan.have_checkpoint) {
    for (const auto& [name, offset] : plan.manifest.streams) {
      RecoveredStream recovered;
      recovered.name = name;
      const auto stream_it = streams.find(name);
      if (stream_it != streams.end()) {
        // A journal clear drops everything before it: only rows after
        // the last reset at-or-before the cutoff are restored.
        uint64_t reset_floor = 0;
        for (const uint64_t reset : stream_it->second.resets) {
          if (reset <= offset) reset_floor = std::max(reset_floor, reset);
        }
        for (const events::WalRestoredRow& row : stream_it->second.rows) {
          if (row.end_offset > reset_floor && row.end_offset <= offset) {
            recovered.rows.push_back(row);
          }
        }
      }
      plan.restored_rows += recovered.rows.size();
      plan.streams.push_back(std::move(recovered));
    }
  }

  const uint64_t cutoff = plan.have_checkpoint ? plan.manifest.op_seq : 0;
  plan.last_op_seq = cutoff;
  for (events::WalOpEntry& entry : ops.ops) {
    plan.last_op_seq = std::max(plan.last_op_seq, entry.op.op_seq);
    if (entry.op.op_seq > cutoff) plan.replay_ops.push_back(std::move(entry));
  }
  return plan;
}

std::string FormatWalCheckpointChains(const std::string& wal_dir) {
  common::FileSystem& fs = common::PosixFileSystem();
  std::string out = "checkpoints:\n";
  const auto manifests = ListManifests(fs, wal_dir);
  if (manifests.empty()) {
    return "checkpoints: none\n";
  }
  for (const auto& [id, path] : manifests) {
    out += "  manifest " + std::to_string(id) + ": ";
    WalManifest manifest;
    std::string text;
    if (fs.ReadFile(path, text) != 0) {
      out += "UNREADABLE (cannot read " + path + ")\n";
      continue;
    }
    try {
      manifest = ParseWalManifest(text);
    } catch (const Error& error) {
      out += std::string("UNREADABLE (") + error.what() + ")\n";
      continue;
    }
    out += manifest.delta
               ? "delta base " + std::to_string(manifest.base_id)
               : "full";
    out += ", op-seq " + std::to_string(manifest.op_seq) + ", ops-offset " +
           std::to_string(manifest.ops_offset);
    uint64_t db_bytes = 0;
    const bool missing =
        fs.FileSize(wal_dir + "/" + manifest.db_file, db_bytes) != 0;
    out += ", db " + manifest.db_file +
           (missing ? " (MISSING)"
                    : " (" + std::to_string(db_bytes) + " bytes)");
    out += "\n";
  }
  const RecoveryPlan plan = BuildRecoveryPlan(wal_dir, fs);
  if (!plan.have_checkpoint) {
    out += "recovery chain: none (no valid checkpoint)\n";
    return out;
  }
  out += "recovery chain:";
  for (const uint64_t id : plan.chain_ids) {
    out += (id == plan.chain_ids.front() ? " " : " -> ") + std::to_string(id);
  }
  out += " (tip " + std::to_string(plan.manifest.checkpoint_id) +
         ", replays " + std::to_string(plan.replay_ops.size()) +
         " op(s) past offset " + std::to_string(plan.manifest.ops_offset) +
         ")\n";
  return out;
}

namespace {

constexpr const char* kCheckpointExts[] = {"db", "dbd", "bp", "ws", "ps"};

/// Removes manifest `id` and every checkpoint file it may name.
void RemoveCheckpoint(common::FileSystem& fs, const std::string& wal_dir,
                      const common::NumberedFile& manifest,
                      common::RemovalStats& stats) {
  fs.RemoveCounted(manifest.path, stats);
  for (const char* ext : kCheckpointExts) {
    fs.RemoveCounted(wal_dir + "/" + CheckpointFileName(manifest.number, ext),
                     stats);
  }
}

}  // namespace

common::RemovalStats PrepareWalDirectory(const std::string& wal_dir,
                                         const RecoveryPlan& plan,
                                         common::FileSystem& fs) {
  common::RemovalStats stats;

  // Drop manifests newer than the chosen chain tip (torn or invalid)
  // together with their checkpoint files, plus temp leftovers from
  // killed manifest renames. Chain members all have ids <= the tip, so
  // a delta chain's base and intermediates are never touched.
  const uint64_t keep_id =
      plan.have_checkpoint ? plan.manifest.checkpoint_id : 0;
  std::set<uint64_t> manifest_ids;
  for (const common::NumberedFile& manifest : ListManifests(fs, wal_dir)) {
    manifest_ids.insert(manifest.number);
    if (manifest.number > keep_id) {
      RemoveCheckpoint(fs, wal_dir, manifest, stats);
    }
  }
  for (const common::NumberedFile& tmp :
       fs.ListNumbered(wal_dir, "manifest-", ".txt.tmp")) {
    fs.RemoveCounted(tmp.path, stats);
  }

  // Orphaned checkpoint files — written but never covered by a manifest
  // (a crash between the file writes and the manifest rename). Without
  // a manifest nothing can ever reference them; remove them by name.
  // (Files of the manifests removed above were removed with them.)
  for (const char* ext : kCheckpointExts) {
    const std::string suffix = std::string(".") + ext;
    for (const common::NumberedFile& file :
         fs.ListNumbered(wal_dir, "checkpoint-", suffix)) {
      if (manifest_ids.count(file.number) == 0) {
        fs.RemoveCounted(file.path, stats);
      }
    }
  }

  // Cut the torn ops tail; cut every row stream back to its checkpoint
  // offset (replayed ops regenerate the rows past it). Streams the
  // manifest does not know restart from zero. Segments stranded below a
  // pruned gap (an interrupted retention pass) are swept first. Only
  // the failures of the truncations count here: the segments they cut
  // are not leftovers.
  for (const std::string& path : plan.orphaned_segments) {
    fs.RemoveCounted(path, stats);
  }
  for (const std::string& name : events::ListWalStreams(wal_dir, fs)) {
    // Without a checkpoint the manifest names no streams.
    uint64_t offset = name == "ops" ? plan.replay_ops_end : 0;
    for (const auto& [stream_name, stream_offset] : plan.manifest.streams) {
      if (stream_name == name) offset = stream_offset;
    }
    stats.failed_removals +=
        events::TruncateWalStream(wal_dir, name, offset, fs);
  }
  return stats;
}

common::RemovalStats PruneWalCheckpoints(const std::string& wal_dir,
                                         uint64_t keep_from_id,
                                         common::FileSystem& fs) {
  common::RemovalStats stats;
  for (const common::NumberedFile& manifest : ListManifests(fs, wal_dir)) {
    if (manifest.number < keep_from_id) {
      RemoveCheckpoint(fs, wal_dir, manifest, stats);
    }
  }
  return stats;
}

// --- Checkpointing ---------------------------------------------------------

uint64_t WriteWalCheckpoint(const std::string& wal_dir,
                            const CheckpointRequest& request,
                            common::FileSystem& fs) {
  const auto manifests = ListManifests(fs, wal_dir);
  const uint64_t id = manifests.empty() ? 1 : manifests.back().number + 1;

  WalManifest manifest;
  manifest.checkpoint_id = id;
  manifest.delta = request.delta;
  manifest.base_id = request.delta ? request.base_id : 0;
  manifest.op_seq = request.op_seq;
  manifest.ops_offset = request.ops_offset;
  manifest.clock_seconds = request.clock_seconds;
  manifest.epoch_next = request.epoch_next;
  manifest.epoch_waves = request.epoch_waves;
  manifest.num_shards = request.num_shards;
  // Delta checkpoints store the dirty-slot delta under the "dbd"
  // extension so a delta file can never be mistaken for a full dump.
  manifest.db_file = CheckpointFileName(id, request.delta ? "dbd" : "db");
  manifest.db_bytes = request.db_text.size();
  manifest.blueprint_file = CheckpointFileName(id, "bp");
  manifest.blueprint_bytes = request.blueprint_text.size();
  manifest.workspace_file = CheckpointFileName(id, "ws");
  manifest.workspace_bytes = request.workspace_text.size();
  if (!request.policy_text.empty()) {
    manifest.policy_file = CheckpointFileName(id, "ps");
    manifest.policy_bytes = request.policy_text.size();
  }
  manifest.streams = request.streams;

  WriteCheckpointFile(fs, wal_dir + "/" + manifest.db_file, request.db_text);
  WriteCheckpointFile(fs, wal_dir + "/" + manifest.blueprint_file,
                      request.blueprint_text);
  WriteCheckpointFile(fs, wal_dir + "/" + manifest.workspace_file,
                      request.workspace_text);
  if (!manifest.policy_file.empty()) {
    WriteCheckpointFile(fs, wal_dir + "/" + manifest.policy_file,
                        request.policy_text);
  }

  // Manifest last, via temp + rename: a crash mid-checkpoint leaves the
  // previous manifest chain intact and this one invisible.
  const std::string manifest_text = FormatWalManifest(manifest);
  const std::string final_path = wal_dir + "/" + ManifestFileName(id);
  const std::string tmp_path = final_path + ".tmp";
  WriteCheckpointFile(fs, tmp_path, manifest_text);
  common::FailpointHit hit;
  if (DAMOCLES_FAILPOINT("checkpoint.manifest.rename", &hit)) {
    // The tmp file stays behind, exactly like a crash between write and
    // rename; PrepareWalDirectory sweeps *.tmp on the next recovery.
    throw Error("checkpoint: cannot rename " + tmp_path +
                ": injected failure (failpoint checkpoint.manifest.rename)");
  }
  if (const int err = fs.Rename(tmp_path, final_path); err != 0) {
    throw Error("checkpoint: cannot rename " + tmp_path + ": " +
                common::ErrnoString(err));
  }
  // Until the directory is synced the rename may not survive power
  // loss, so a failed sync fails the checkpoint.
  if (request.sync_directory) {
    if (const int err = fs.SyncDirectory(wal_dir); err != 0) {
      throw Error("checkpoint: directory sync failed on " + wal_dir + ": " +
                  common::ErrnoString(err));
    }
  }
  return id;
}

}  // namespace damocles::metadb
