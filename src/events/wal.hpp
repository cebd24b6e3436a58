// Segmented write-ahead log for the event journal and server operations.
//
// The durability layer mirrors two kinds of streams into append-only
// binary segment files under one WAL directory:
//
//  * Row streams ("shard0", "steal1", ...): every journal append is
//    re-encoded against a segment-local symbol table and written as one
//    framed record, so a recovered process can rebuild the exact journal
//    contents (and their interned side tables) up to a checkpointed
//    offset. Row streams are an audit mirror — they are truncated back
//    to the checkpoint manifest's offsets on recovery, because rows past
//    the checkpoint are re-derived by replaying operations.
//
//  * The operation stream ("ops"): structural server operations
//    (check-in, link registration, event submission, blueprint load,
//    clock advance) logged *before* execution. This is the replay
//    source: recovery re-executes the tail of "ops" past the newest
//    checkpoint to regenerate post-checkpoint state — property values,
//    journal rows, and per-shard epoch bookkeeping alike.
//
// Record framing: u32 payload length, u8 record type, payload bytes,
// u32 CRC32 over (type + payload). Recovery truncates a stream at the
// first short or CRC-failing record — a torn write loses the tail, never
// the prefix. Segments roll at a size threshold; every segment starts
// with a fixed header (magic, format version, shard id, logical base
// offset, epoch floor, header CRC) and a fresh symbol table, so a
// post-truncation writer never has to reconstruct interning state.
//
// All integers are little-endian. Logical stream offsets are continuous
// across segments (header bytes included): a segment's records cover
// [base_offset + header, base_offset + file size).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/file_system.hpp"
#include "events/event.hpp"
#include "events/journal.hpp"
#include "metadb/link.hpp"
#include "metadb/oid.hpp"

namespace damocles::events {

// --- Framing primitives ----------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
/// `seed` chains partial computations: Crc32(b, Crc32(a)) == Crc32(a+b).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0) noexcept;

/// Record type tags. Row-stream records are < 0x10; operation records
/// carry the 0x10 bit.
enum class WalRecordType : uint8_t {
  kSymbol = 0x01,     ///< Segment-local symbol definition (id + text).
  kRow = 0x02,        ///< One journal row (symbol ids are segment-local).
  kReset = 0x03,      ///< The journal was cleared.
  kOpEvent = 0x10,    ///< ProjectServer::Submit.
  kOpCheckIn = 0x11,  ///< ProjectServer::CheckIn.
  kOpLink = 0x12,     ///< ProjectServer::RegisterLink.
  kOpBlueprint = 0x13,  ///< ProjectServer::InitializeBlueprint.
  kOpClock = 0x14,    ///< ProjectServer::AdvanceClock (absolute seconds).
  kOpPolicyPropose = 0x15,   ///< ProjectServer::PolicyPropose.
  kOpPolicyValidate = 0x16,  ///< ProjectServer::PolicyValidate.
  kOpPolicyPromote = 0x17,   ///< ProjectServer::PolicyPromote.
  kOpPolicyRollback = 0x18,  ///< ProjectServer::PolicyRollback.
};

/// True for the operation record types (the "ops" stream).
bool IsWalOpType(WalRecordType type) noexcept;

/// When appended bytes are forced to the OS / the disk.
enum class FsyncPolicy {
  /// Best-effort: records stay in the writer's buffer until it fills,
  /// a checkpoint syncs, or the writer closes. Appends are pure
  /// memcpys (no syscalls on the mutation path); a kill -9 loses the
  /// buffered tail of recent operations.
  kNone,
  kBatch,        ///< Flush + fsync at drain boundaries.
  kEveryRecord,  ///< Fsync after every append group (slowest, safest).
};

const char* FsyncPolicyName(FsyncPolicy policy) noexcept;

/// Parses "none" / "batch" / "every_record". Throws WireFormatError on
/// anything else.
FsyncPolicy ParseFsyncPolicy(std::string_view text);

// --- Operation records -----------------------------------------------------

/// One logged server operation. Which fields are meaningful depends on
/// `type`; unused fields stay default-initialized (and encode empty).
struct WalOpRecord {
  WalRecordType type = WalRecordType::kOpEvent;
  /// Dense per-server operation sequence number; recovery replays ops
  /// with op_seq greater than the checkpoint manifest's.
  uint64_t op_seq = 0;

  EventMessage event;  ///< kOpEvent.

  std::string block;    ///< kOpCheckIn.
  std::string view;     ///< kOpCheckIn.
  std::string content;  ///< kOpCheckIn.
  std::string user;     ///< kOpCheckIn.

  uint8_t link_kind = 0;   ///< kOpLink (metadb::LinkKind).
  metadb::Oid link_from;   ///< kOpLink.
  metadb::Oid link_to;     ///< kOpLink.

  std::string text;  ///< kOpBlueprint / kOpPolicyPropose (rule-file text).

  int64_t clock_seconds = 0;  ///< kOpClock (absolute simulated time).

  /// kOpPolicyValidate / kOpPolicyPromote: the PolicyStore version id
  /// the operation addressed. kOpPolicyPropose reuses `text` (proposed
  /// rule-file text), `user` (author) and `content` (commit message);
  /// replay re-derives the id from the store, so it is not encoded.
  uint64_t policy_version = 0;
};

/// Serializes the payload of an operation record (framing excluded).
std::string EncodeWalOp(const WalOpRecord& op);

/// Inverse of EncodeWalOp. Throws WireFormatError on malformed payloads.
WalOpRecord DecodeWalOp(WalRecordType type, std::string_view payload);

// --- Writer ----------------------------------------------------------------

struct WalWriterOptions {
  std::string dir;      ///< WAL directory (must exist).
  std::string stream;   ///< Stream name, e.g. "ops" or "shard0".
  uint32_t shard_id = 0;
  size_t segment_bytes = 4u << 20;  ///< Roll threshold (may overshoot by
                                    ///< one append group).
  FsyncPolicy fsync = FsyncPolicy::kNone;
  /// Sampled at segment open to stamp the header's epoch floor (the
  /// sharded claim purge floor; 0 when unsharded / unset).
  std::function<uint64_t()> epoch_floor;
  common::FileSystem* fs = nullptr;  ///< Not owned; null means POSIX.
};

/// Appends framed records to a stream's segment files. As a JournalSink
/// it mirrors journal rows; AppendOp serves the operation stream. A
/// writer always opens a *new* segment (index = last on disk + 1, base
/// offset continuing where the last segment ends), so its segment-local
/// symbol table starts empty and can never collide with pre-existing
/// records — in particular after recovery truncated a torn tail.
class WalWriter final : public JournalSink {
 public:
  explicit WalWriter(WalWriterOptions options);
  ~WalWriter() override;

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // JournalSink: mirrors the newest row / the clear marker.
  void OnAppend(const EventJournal& journal) override;
  void OnClear(const EventJournal& journal) override;

  /// Logs one operation record (the caller fills op_seq).
  void AppendOp(const WalOpRecord& op);

  /// Rewrites the stream to mirror the journal's full current
  /// contents: one kReset record (recovery drops everything before it)
  /// followed by every row. The heal path uses this on freshly
  /// reopened writers, because the fail-soft sink may have dropped
  /// rows while the WAL was failing — after the mirror, the stream's
  /// end offset covers the complete in-memory journal again. Throws
  /// WalIoError on failure.
  void MirrorJournal(const EventJournal& journal);

  // Zero-copy logging for the hot server operations: encodes straight
  // from the caller's fields into the reused scratch buffer, skipping
  // the WalOpRecord (and its string copies) entirely. Byte-identical to
  // AppendOp with the equivalent record.
  void AppendCheckInOp(uint64_t op_seq, std::string_view block,
                       std::string_view view, std::string_view content,
                       std::string_view user);
  void AppendEventOp(uint64_t op_seq, const EventMessage& event);
  void AppendLinkOp(uint64_t op_seq, uint8_t link_kind,
                    const metadb::Oid& from, const metadb::Oid& to);
  void AppendBlueprintOp(uint64_t op_seq, std::string_view text);
  void AppendClockOp(uint64_t op_seq, int64_t clock_seconds);
  void AppendPolicyProposeOp(uint64_t op_seq, std::string_view text,
                             std::string_view author,
                             std::string_view message);
  /// kOpPolicyValidate or kOpPolicyPromote (both carry one version id).
  void AppendPolicyVersionOp(WalRecordType type, uint64_t op_seq,
                             uint64_t policy_version);
  void AppendPolicyRollbackOp(uint64_t op_seq);

  /// Hands buffered bytes to the OS. Throws WalIoError on write
  /// failure; already-written bytes are consumed
  /// from the buffer first, so a retry continues where the last attempt
  /// stopped instead of duplicating bytes mid-stream.
  void Flush();

  /// Flush + fsync (durable against power loss); the fsync is skipped
  /// when nothing was appended since the last successful one. Unless
  /// fsync=none, a segment's first Sync also syncs the WAL directory so
  /// its entry is durable before any record in it is acknowledged.
  /// Throws WalIoError on failure. After a failed fsync the kernel may
  /// have dropped the dirty pages, so callers must treat the unflushed
  /// tail as lost and heal by re-checkpointing, not by retrying it.
  void Sync();

  /// Empty while every mirrored row reached the stream. The JournalSink
  /// paths (OnAppend / OnClear) are fail-soft — they must not throw
  /// through engine worker threads — so the first I/O failure is
  /// recorded here and later rows are dropped. The row mirror is then
  /// incomplete; ProjectServer::WalReopen() rebuilds it by truncating
  /// to the CRC-valid prefix and taking a fresh checkpoint.
  const std::string& failure() const noexcept { return failure_; }
  bool ok() const noexcept { return failure_.empty(); }

  /// Logical end offset of the stream (base + bytes in the open segment).
  uint64_t logical_end() const noexcept { return base_offset_ + file_bytes_; }

  /// End offset of the newest kReset record this writer appended (0 when
  /// it appended none). Recovery drops every row before the last reset,
  /// so segment retention may prune row-stream segments wholly below
  /// this floor; 0 conservatively disables pruning for the stream.
  uint64_t last_reset_end() const noexcept { return last_reset_end_; }

  /// Frames committed to the buffer so far (flushed or not). Lets the
  /// retry path tell "append failed before framing — re-append" from
  /// "frame is buffered, the flush failed — re-drive the I/O only".
  uint64_t frames_appended() const noexcept { return frames_appended_; }

  const std::string& stream() const noexcept { return options_.stream; }
  uint64_t segment_index() const noexcept { return segment_index_; }

 private:
  void OpenSegment();
  void CloseSegment();
  /// Rolls to the next segment when the threshold is reached. Called
  /// once per append group so a group's symbol records and its row land
  /// in the same segment.
  void MaybeRoll();
  void WriteRecord(WalRecordType type, std::string_view payload);
  /// Opens a frame in the write buffer (length placeholder + type byte)
  /// and returns its start offset. The payload is then appended
  /// directly to the buffer; nothing may flush or start another record
  /// until the matching EndRecord.
  size_t BeginRecord(WalRecordType type);
  /// Back-patches the length, CRCs type + payload in place, appends the
  /// trailer and runs the spill check.
  void EndRecord(size_t mark);
  void WriteRaw(const void* data, size_t size);
  /// Logs one operation as its own append group: failpoint, roll check,
  /// then a frame whose payload `encode(buffer)` appends. A throwing
  /// encoder leaves no half-open frame behind.
  template <typename Encode>
  void AppendOpRecord(WalRecordType type, Encode&& encode);
  /// Evaluates the "wal.append" failpoint; throws WalIoError on a hit.
  void CheckAppendFailpoint();
  /// Throwing body of OnAppend (the override wraps it fail-soft).
  void AppendRowOrThrow(const EventJournal& journal);
  /// Frames one journal row (symbols first). No failpoint check, no
  /// append-group end — callers own both.
  void AppendRowAt(const EventJournal& journal, size_t index);
  /// Returns the segment-local id for `text`, emitting a kSymbol record
  /// on first sight within the current segment.
  uint32_t InternStreamSymbol(const std::string& text);
  /// InternStreamSymbol via a dense journal-id cache, so steady-state
  /// row mirroring never hashes symbol text.
  uint32_t InternJournalSymbol(const EventJournal& journal, SymbolId id);
  void EndAppendGroup();

  WalWriterOptions options_;
  common::FileSystem& fs_;
  int handle_ = -1;  ///< Open segment; -1 when none.
  /// Appended frames not yet handed to the OS. An own buffer instead of
  /// stdio: appends are plain memcpys with no per-call stream locking,
  /// and every flush point is policy-driven.
  std::string write_buffer_;
  std::string path_;
  uint64_t segment_index_ = 0;
  uint64_t base_offset_ = 0;
  uint64_t file_bytes_ = 0;
  bool unsynced_ = false;  ///< Bytes appended since the last good fsync.
  bool directory_unsynced_ = false;  ///< Open segment's entry not synced.
  uint64_t frames_appended_ = 0;
  uint64_t last_reset_end_ = 0;
  std::string failure_;  ///< First fail-soft sink failure; see failure().
  std::unordered_map<std::string, uint32_t> stream_symbols_;
  /// Journal SymbolId -> segment-local id; invalidated with
  /// stream_symbols_ at segment open and when the journal resets its
  /// own symbol table (OnClear).
  std::vector<uint32_t> journal_symbol_cache_;
  std::string payload_scratch_;  ///< Reused row/op encode buffer.
};

// --- Reader ----------------------------------------------------------------

/// Per-segment inspection result.
struct WalSegmentInfo {
  std::string path;
  uint64_t index = 0;
  uint32_t version = 0;
  uint32_t shard_id = 0;
  uint64_t base_offset = 0;
  uint64_t epoch_floor = 0;
  uint64_t file_bytes = 0;   ///< Physical size on disk.
  uint64_t valid_bytes = 0;  ///< Bytes covered by intact records (header
                             ///< included).
  size_t records = 0;
  size_t symbols = 0;
  bool header_valid = false;
  bool torn = false;         ///< Scan stopped inside this segment.
  /// Stranded below a base-offset gap (a prune interrupted before its
  /// directory update fully persisted): the scan skips it.
  bool orphaned = false;
  std::string error;         ///< Human-readable reason when torn/invalid.
};

/// One decoded journal row with the logical offset just past its frame.
struct WalRestoredRow {
  EventMessage event;
  uint64_t end_offset = 0;
};

/// One decoded operation with the logical offset just past its frame.
struct WalOpEntry {
  WalOpRecord op;
  uint64_t end_offset = 0;
};

/// Everything recovered from one stream's segment chain, scanned in
/// logical order and stopped at the first torn or corrupt record.
struct WalStreamData {
  std::vector<WalSegmentInfo> segments;
  uint64_t valid_end = 0;  ///< Logical offset of the last intact record.
  bool torn = false;
  std::string error;
  std::vector<WalRestoredRow> rows;
  std::vector<uint64_t> resets;  ///< End offsets of kReset records.
  std::vector<WalOpEntry> ops;
};

/// File name for segment `index` of `stream`: "<stream>-000042.wal".
std::string WalSegmentFileName(const std::string& stream, uint64_t index);

/// Stream names present in `dir`, sorted. A missing directory yields {}.
std::vector<std::string> ListWalStreams(
    const std::string& dir, common::FileSystem& fs = common::PosixFileSystem());

/// Scans a stream's segments in index order, validating every frame.
WalStreamData ReadWalStream(
    const std::string& dir, const std::string& stream,
    common::FileSystem& fs = common::PosixFileSystem());

/// Physically truncates a stream to `logical_offset`: later segments are
/// deleted, the segment containing the offset is resized (and deleted
/// when the cut falls inside its header). Writers opened afterwards
/// continue at exactly `logical_offset` in a fresh segment. Throws
/// Error when the resize fails; returns the number of failed removals,
/// which leak disk until the next sweep (the server surfaces the count
/// through wal-status).
size_t TruncateWalStream(const std::string& dir, const std::string& stream,
                         uint64_t logical_offset,
                         common::FileSystem& fs = common::PosixFileSystem());

/// WAL segment retention: removes segments of `stream` that lie wholly
/// below `floor_offset` (the committed checkpoint's logical offset for
/// this stream — recovery never reads below it), oldest first, keeping
/// the newest `retain_segments` of the prunable prefix as margin. The
/// newest segment of a stream is never pruned (the writer's
/// continuation point lives there), and removal is strictly ascending
/// by segment index so a crash mid-prune leaves a removed prefix plus a
/// contiguous remainder, which ReadWalStream absorbs like any pruned
/// prefix. A negative `retain_segments` disables pruning entirely.
common::RemovalStats PruneWalSegments(const std::string& dir,
                                      const std::string& stream,
                                      uint64_t floor_offset,
                                      int retain_segments,
                                      common::FileSystem& fs);

/// Multi-line human-readable report over every stream in `dir` (segment
/// headers, record counts, CRC verification, truncation points; torn
/// segments include the physical byte offset where the tail begins).
/// The wal-inspect CLI prints exactly this. When `any_torn` is given it
/// is set to whether any stream failed CRC verification, so callers get
/// the verdict from the same single scan that built the report.
std::string FormatWalInspection(const std::string& dir,
                                bool* any_torn = nullptr);

/// Machine-readable sibling of FormatWalInspection: one JSON object
/// over the same single scan ({"dir", "torn", "streams": [{"name",
/// "valid_end", "torn", "torn_offset", "rows", "resets", "ops",
/// "segments": [...]}, ...]}). Segment entries carry the header fields
/// (index, version, shard, base offset, epoch floor), the byte extents
/// (file vs CRC-valid) and record/symbol counts; a torn segment's
/// `torn_offset` is the physical byte offset where the tail begins.
/// The wal_inspect CLI prints exactly this under --json.
std::string FormatWalInspectionJson(const std::string& dir,
                                    bool* any_torn = nullptr);

}  // namespace damocles::events
