// Unit tests for the WAL layer: framing, segment rolls, torn-tail
// truncation, manifests, workspace text and the ProjectServer
// durability wiring (checkpoint, recovery, wire commands). The
// randomized crash-point fuzz lives in test_wal_crash_fuzz.cpp.
#include "events/wal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "engine/project_server.hpp"
#include "engine/wire_session.hpp"
#include "events/journal.hpp"
#include "metadb/persistence.hpp"
#include "metadb/recovery.hpp"
#include "metadb/workspace.hpp"
#include "test_util.hpp"
#include "workload/edtc.hpp"

namespace damocles {
namespace {

using engine::ProjectServer;
using engine::ServerOptions;
using engine::WireSession;
using events::Direction;
using events::EventJournal;
using events::EventMessage;
using events::FsyncPolicy;
using events::WalOpRecord;
using events::WalRecordType;
using events::WalStreamData;
using events::WalWriter;
using events::WalWriterOptions;
using metadb::Oid;

/// A per-test scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("damocles-" + tag + "-" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  std::filesystem::path path() const { return path_; }

 private:
  std::filesystem::path path_;
};

EventMessage MakeEvent(const std::string& name, const std::string& block,
                       int version = 1) {
  EventMessage event;
  event.name = name;
  event.direction = Direction::kUp;
  event.target = Oid{block, "HDL_model", version};
  event.arg = "arg for " + name;
  event.user = "tester";
  event.timestamp = 42;
  return event;
}

// --- Framing primitives ----------------------------------------------------

TEST(WalFraming, Crc32MatchesKnownVector) {
  // The IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(events::Crc32("123456789", 9), 0xCBF43926u);
  // Seed chaining: CRC(a+b) == CRC(b, CRC(a)).
  const uint32_t whole = events::Crc32("123456789", 9);
  const uint32_t chained =
      events::Crc32("456789", 6, events::Crc32("123", 3));
  EXPECT_EQ(whole, chained);
}

TEST(WalFraming, FsyncPolicyParsesAndFormats) {
  EXPECT_EQ(events::ParseFsyncPolicy("none"), FsyncPolicy::kNone);
  EXPECT_EQ(events::ParseFsyncPolicy("batch"), FsyncPolicy::kBatch);
  EXPECT_EQ(events::ParseFsyncPolicy("every_record"),
            FsyncPolicy::kEveryRecord);
  EXPECT_THROW(events::ParseFsyncPolicy("sometimes"), WireFormatError);
  EXPECT_STREQ(events::FsyncPolicyName(FsyncPolicy::kBatch), "batch");
}

TEST(WalFraming, OpRecordsRoundTrip) {
  WalOpRecord event_op;
  event_op.type = WalRecordType::kOpEvent;
  event_op.op_seq = 7;
  event_op.event = MakeEvent("hdl_sim", "CPU");
  event_op.event.extra_args = {"x", "y with space"};

  WalOpRecord checkin;
  checkin.type = WalRecordType::kOpCheckIn;
  checkin.op_seq = 8;
  checkin.block = "CPU";
  checkin.view = "HDL_model";
  checkin.content = "module cpu; endmodule";
  checkin.user = "alice";

  WalOpRecord link;
  link.type = WalRecordType::kOpLink;
  link.op_seq = 9;
  link.link_kind = 1;
  link.link_from = Oid{"CPU", "HDL_model", 2};
  link.link_to = Oid{"CPU", "schematic", 1};

  WalOpRecord blueprint;
  blueprint.type = WalRecordType::kOpBlueprint;
  blueprint.op_seq = 10;
  blueprint.text = "blueprint x\nendblueprint";

  WalOpRecord clock;
  clock.type = WalRecordType::kOpClock;
  clock.op_seq = 11;
  clock.clock_seconds = 3600;

  for (const WalOpRecord& op :
       {event_op, checkin, link, blueprint, clock}) {
    const std::string payload = events::EncodeWalOp(op);
    const WalOpRecord back = events::DecodeWalOp(op.type, payload);
    EXPECT_EQ(back.op_seq, op.op_seq);
    EXPECT_EQ(back.event.name, op.event.name);
    EXPECT_EQ(back.event.arg, op.event.arg);
    EXPECT_EQ(back.event.extra_args, op.event.extra_args);
    EXPECT_EQ(back.block, op.block);
    EXPECT_EQ(back.content, op.content);
    EXPECT_EQ(back.link_kind, op.link_kind);
    EXPECT_EQ(back.link_from, op.link_from);
    EXPECT_EQ(back.link_to, op.link_to);
    EXPECT_EQ(back.text, op.text);
    EXPECT_EQ(back.clock_seconds, op.clock_seconds);
  }
}

TEST(WalFraming, DecodeRejectsTruncatedPayload) {
  WalOpRecord op;
  op.type = WalRecordType::kOpCheckIn;
  op.block = "CPU";
  op.view = "HDL_model";
  const std::string payload = events::EncodeWalOp(op);
  EXPECT_THROW(events::DecodeWalOp(op.type,
                                   std::string_view(payload).substr(
                                       0, payload.size() / 2)),
               WireFormatError);
}

// --- Writer / reader -------------------------------------------------------

std::vector<std::string> RowNames(const WalStreamData& data) {
  std::vector<std::string> names;
  for (const auto& row : data.rows) names.push_back(row.event.name);
  return names;
}

TEST(WalWriterReader, RowsRoundTripThroughTheSink) {
  TempDir dir("wal-roundtrip");
  EventJournal journal;
  {
    WalWriterOptions options;
    options.dir = dir.str();
    options.stream = "shard0";
    WalWriter writer(options);
    journal.SetSink(&writer);
    journal.Record(MakeEvent("ckin", "CPU"));
    journal.Record(MakeEvent("edit", "FPU"));
    journal.Record(MakeEvent("hdl_sim", "CPU", 2));
    writer.Flush();
    journal.SetSink(nullptr);
  }
  const WalStreamData data = events::ReadWalStream(dir.str(), "shard0");
  EXPECT_FALSE(data.torn) << data.error;
  ASSERT_EQ(data.rows.size(), 3u);
  EXPECT_EQ(RowNames(data),
            (std::vector<std::string>{"ckin", "edit", "hdl_sim"}));
  EXPECT_EQ(data.rows[0].event.target, (Oid{"CPU", "HDL_model", 1}));
  EXPECT_EQ(data.rows[0].event.arg, "arg for ckin");
  EXPECT_EQ(data.rows[0].event.user, "tester");
  EXPECT_EQ(data.rows[0].event.timestamp, 42);
  // Offsets ascend and the stream end matches the last record.
  EXPECT_LT(data.rows[0].end_offset, data.rows[2].end_offset);
  EXPECT_EQ(data.valid_end, data.rows[2].end_offset);
}

TEST(WalWriterReader, SegmentsRollAndStayContinuous) {
  TempDir dir("wal-roll");
  EventJournal journal;
  {
    WalWriterOptions options;
    options.dir = dir.str();
    options.stream = "shard0";
    options.segment_bytes = 256;  // Tiny: every few rows roll.
    WalWriter writer(options);
    journal.SetSink(&writer);
    for (int i = 0; i < 40; ++i) {
      journal.Record(MakeEvent("ev" + std::to_string(i), "CPU"));
    }
    writer.Flush();
    journal.SetSink(nullptr);
    EXPECT_GT(writer.segment_index(), 2u);
  }
  const WalStreamData data = events::ReadWalStream(dir.str(), "shard0");
  EXPECT_FALSE(data.torn) << data.error;
  ASSERT_EQ(data.rows.size(), 40u);
  EXPECT_GT(data.segments.size(), 2u);
  // Base offsets chain exactly: segment N starts where N-1 ended.
  for (size_t i = 1; i < data.segments.size(); ++i) {
    EXPECT_EQ(data.segments[i].base_offset,
              data.segments[i - 1].base_offset +
                  data.segments[i - 1].file_bytes);
  }
  // Symbols re-intern per segment: every segment defines some.
  for (const auto& segment : data.segments) {
    EXPECT_TRUE(segment.header_valid);
    EXPECT_GT(segment.symbols, 0u);
  }
}

#if defined(DAMOCLES_FAILPOINTS_ENABLED)

// A segment roll syncs the outgoing segment through Sync(): an fsync
// failure there throws instead of being dropped, leaves the segment
// open, and the retried append rolls cleanly.
TEST(WalWriterReader, RollSurfacesFsyncFailure) {
  TempDir dir("wal-roll-fsync");
  {
    WalWriterOptions options;
    options.dir = dir.str();
    options.stream = "ops";
    options.fsync = FsyncPolicy::kBatch;
    options.segment_bytes = 40;  // Header + one op: the next op rolls.
    WalWriter writer(options);
    writer.AppendClockOp(1, 10);
    ASSERT_EQ(writer.segment_index(), 1u);

    common::Failpoints::Instance().Configure("wal.fsync", "error,count=1");
    EXPECT_THROW(writer.AppendClockOp(2, 20), WalIoError);
    common::Failpoints::Instance().ClearAll();
    EXPECT_EQ(writer.segment_index(), 1u);

    writer.AppendClockOp(2, 20);
    EXPECT_EQ(writer.segment_index(), 2u);
    writer.Sync();
  }
  const WalStreamData data = events::ReadWalStream(dir.str(), "ops");
  EXPECT_FALSE(data.torn) << data.error;
  ASSERT_EQ(data.ops.size(), 2u);
  EXPECT_EQ(data.ops[1].op.clock_seconds, 20);
  EXPECT_EQ(data.segments.size(), 2u);
}

#endif  // DAMOCLES_FAILPOINTS_ENABLED

TEST(WalWriterReader, ClearEmitsResetMarker) {
  TempDir dir("wal-reset");
  EventJournal journal;
  {
    WalWriterOptions options;
    options.dir = dir.str();
    options.stream = "shard0";
    WalWriter writer(options);
    journal.SetSink(&writer);
    journal.Record(MakeEvent("ckin", "CPU"));
    journal.Clear();
    journal.Record(MakeEvent("edit", "FPU"));
    writer.Flush();
    journal.SetSink(nullptr);
  }
  const WalStreamData data = events::ReadWalStream(dir.str(), "shard0");
  ASSERT_EQ(data.resets.size(), 1u);
  ASSERT_EQ(data.rows.size(), 2u);
  // The reset falls between the two rows' end offsets.
  EXPECT_GT(data.resets[0], data.rows[0].end_offset);
  EXPECT_LT(data.resets[0], data.rows[1].end_offset);
}

TEST(WalWriterReader, CorruptionTruncatesAtTheTornRecord) {
  TempDir dir("wal-torn");
  std::filesystem::path segment;
  uint64_t intact_end = 0;
  {
    WalWriterOptions options;
    options.dir = dir.str();
    options.stream = "ops";
    WalWriter writer(options);
    for (uint64_t i = 1; i <= 5; ++i) {
      WalOpRecord op;
      op.type = WalRecordType::kOpClock;
      op.op_seq = i;
      op.clock_seconds = static_cast<int64_t>(i) * 100;
      writer.AppendOp(op);
      if (i == 3) intact_end = writer.logical_end();
    }
    writer.Flush();
    segment = dir.path() / events::WalSegmentFileName("ops", 1);
  }
  // Flip one byte inside the 4th record's payload.
  {
    std::fstream file(segment,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(static_cast<std::streamoff>(intact_end) + 6);
    file.put('\xff');
  }
  const WalStreamData data = events::ReadWalStream(dir.str(), "ops");
  EXPECT_TRUE(data.torn);
  EXPECT_EQ(data.valid_end, intact_end);
  ASSERT_EQ(data.ops.size(), 3u);
  EXPECT_EQ(data.ops.back().op.clock_seconds, 300);
}

TEST(WalWriterReader, HalfWrittenFrameIsATornTail) {
  TempDir dir("wal-half");
  {
    WalWriterOptions options;
    options.dir = dir.str();
    options.stream = "ops";
    WalWriter writer(options);
    WalOpRecord op;
    op.type = WalRecordType::kOpClock;
    op.op_seq = 1;
    op.clock_seconds = 100;
    writer.AppendOp(op);
    writer.Flush();
  }
  const uint64_t intact =
      events::ReadWalStream(dir.str(), "ops").valid_end;
  {
    std::ofstream file(dir.path() / events::WalSegmentFileName("ops", 1),
                       std::ios::binary | std::ios::app);
    // A plausible length prefix with no record behind it.
    file.write("\x40\x00\x00\x00\x14", 5);
  }
  const WalStreamData data = events::ReadWalStream(dir.str(), "ops");
  EXPECT_TRUE(data.torn);
  EXPECT_EQ(data.valid_end, intact);
  EXPECT_EQ(data.ops.size(), 1u);
}

TEST(WalWriterReader, TruncateThenContinueWrites) {
  TempDir dir("wal-truncate");
  uint64_t cut = 0;
  {
    WalWriterOptions options;
    options.dir = dir.str();
    options.stream = "ops";
    WalWriter writer(options);
    for (uint64_t i = 1; i <= 6; ++i) {
      WalOpRecord op;
      op.type = WalRecordType::kOpClock;
      op.op_seq = i;
      op.clock_seconds = static_cast<int64_t>(i);
      writer.AppendOp(op);
      if (i == 2) cut = writer.logical_end();
    }
    writer.Flush();
  }
  events::TruncateWalStream(dir.str(), "ops", cut);
  {
    WalWriterOptions options;
    options.dir = dir.str();
    options.stream = "ops";
    WalWriter writer(options);
    EXPECT_EQ(writer.logical_end(), cut + 36u)  // Fresh segment header.
        << "writer should continue at the truncation point";
    WalOpRecord op;
    op.type = WalRecordType::kOpClock;
    op.op_seq = 3;
    op.clock_seconds = 333;
    writer.AppendOp(op);
    writer.Flush();
  }
  const WalStreamData data = events::ReadWalStream(dir.str(), "ops");
  EXPECT_FALSE(data.torn) << data.error;
  ASSERT_EQ(data.ops.size(), 3u);
  EXPECT_EQ(data.ops[2].op.clock_seconds, 333);
}

TEST(WalWriterReader, InspectionReportsEveryStream) {
  TempDir dir("wal-inspect");
  EventJournal journal;
  {
    WalWriterOptions options;
    options.dir = dir.str();
    options.stream = "shard0";
    WalWriter writer(options);
    journal.SetSink(&writer);
    journal.Record(MakeEvent("ckin", "CPU"));
    writer.Flush();
    journal.SetSink(nullptr);
  }
  const std::string report = events::FormatWalInspection(dir.str());
  EXPECT_NE(report.find("shard0"), std::string::npos);
  EXPECT_NE(report.find("rows 1"), std::string::npos);
  EXPECT_EQ(report.find("torn"), std::string::npos);
}

// --- Manifests and workspace text ------------------------------------------

TEST(WalManifest, RoundTripsThroughText) {
  metadb::WalManifest manifest;
  manifest.checkpoint_id = 3;
  manifest.op_seq = 17;
  manifest.ops_offset = 4096;
  manifest.clock_seconds = 7200;
  manifest.epoch_next = 12;
  manifest.epoch_waves = 9;
  manifest.num_shards = 4;
  manifest.db_file = "checkpoint-000003.db";
  manifest.db_bytes = 1234;
  manifest.blueprint_file = "checkpoint-000003.bp";
  manifest.blueprint_bytes = 99;
  manifest.workspace_file = "checkpoint-000003.ws";
  manifest.workspace_bytes = 55;
  manifest.streams = {{"shard0", 100}, {"shard1", 200}, {"steal0", 0}};

  const std::string text = metadb::FormatWalManifest(manifest);
  const metadb::WalManifest back = metadb::ParseWalManifest(text);
  EXPECT_EQ(back.checkpoint_id, 3u);
  EXPECT_EQ(back.op_seq, 17u);
  EXPECT_EQ(back.ops_offset, 4096u);
  EXPECT_EQ(back.clock_seconds, 7200);
  EXPECT_EQ(back.epoch_next, 12u);
  EXPECT_EQ(back.epoch_waves, 9u);
  EXPECT_EQ(back.num_shards, 4u);
  EXPECT_EQ(back.db_file, manifest.db_file);
  EXPECT_EQ(back.db_bytes, 1234u);
  EXPECT_EQ(back.streams, manifest.streams);
}

TEST(WalManifest, ParseFailuresNameTheLine) {
  metadb::WalManifest manifest;
  manifest.db_file = "a.db";
  manifest.workspace_file = "a.ws";
  std::string text = metadb::FormatWalManifest(manifest);
  // Truncation (no "end") is rejected.
  const std::string truncated = text.substr(0, text.rfind("end"));
  EXPECT_THROW(metadb::ParseWalManifest(truncated), WireFormatError);
  // Garbage after "end" is rejected, with a line number in the message.
  try {
    metadb::ParseWalManifest(text + "trailing garbage\n");
    FAIL() << "expected WireFormatError";
  } catch (const WireFormatError& error) {
    EXPECT_NE(std::string(error.what()).find("line"), std::string::npos);
  }
}

TEST(WalWorkspaceText, RoundTripsFilesAndVersionFloors) {
  metadb::Workspace workspace("ws");
  workspace.RestoreFile(Oid{"CPU", "HDL_model", 1}, "v1 content", 100);
  workspace.RestoreFile(Oid{"CPU", "HDL_model", 2}, "v2 content", 200);
  workspace.RestoreFile(Oid{"FPU", "schematic", 1}, "with \"quotes\"", 300);
  workspace.RestoreLatestVersion("GONE", "HDL_model", 9);

  const std::string text = metadb::SaveWorkspaceText(workspace);
  metadb::Workspace loaded("ws");
  metadb::LoadWorkspaceText(text, loaded);
  EXPECT_EQ(metadb::SaveWorkspaceText(loaded), text);

  // Version floors survive: the next check-in continues after them.
  size_t files = 0;
  loaded.ForEachFile([&](const Oid&, const metadb::DesignFile&) { ++files; });
  EXPECT_EQ(files, 3u);
  bool saw_floor = false;
  loaded.ForEachLatest([&](std::string_view block, std::string_view,
                           int version) {
    if (block == "GONE") {
      saw_floor = true;
      EXPECT_EQ(version, 9);
    }
  });
  EXPECT_TRUE(saw_floor);
}

// --- Server durability -----------------------------------------------------

std::vector<std::string> ServerJournalLines(ProjectServer& server) {
  return server.sharded_engine()->JournalLines();
}

ServerOptions DurableOptions(const std::string& wal_dir,
                             uint32_t shards = 1) {
  ServerOptions options;
  options.wal_dir = wal_dir;
  options.num_shards = shards;
  if (shards > 1) options.deterministic_shards = true;
  return options;
}

void RunSampleWorkload(ProjectServer& server) {
  const Oid hdl = server.CheckIn("CPU", "HDL_model", "module cpu;", "alice");
  const Oid sch = server.CheckIn("CPU", "schematic", "cpu gates", "bob");
  server.RegisterLink(metadb::LinkKind::kDerive, hdl, sch);
  server.SubmitWireLine("postEvent hdl_sim up CPU,HDL_model,1 \"good\"",
                        "alice");
  server.AdvanceClock(60);
  server.CheckIn("CPU", "HDL_model", "module cpu; // v2", "alice");
  server.Drain();
}

TEST(ServerDurability, WalDoesNotChangeObservableBehavior) {
  TempDir dir("srv-differential");
  auto plain = testutil::MakeEdtcServer();
  auto durable = testutil::MakeEdtcServer(DurableOptions(dir.str()));
  RunSampleWorkload(*plain);
  RunSampleWorkload(*durable);
  EXPECT_TRUE(durable->durable());
  EXPECT_FALSE(plain->durable());
  EXPECT_EQ(ServerJournalLines(*plain), ServerJournalLines(*durable));
  EXPECT_EQ(metadb::SaveDatabaseString(plain->database()),
            metadb::SaveDatabaseString(durable->database()));
}

TEST(ServerDurability, RecoversFromOpsAloneWithoutCheckpoint) {
  TempDir dir("srv-genesis");
  std::vector<std::string> lines;
  std::string db_text;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
    RunSampleWorkload(*server);
    lines = ServerJournalLines(*server);
    db_text = metadb::SaveDatabaseString(server->database());
  }
  auto recovered = std::make_unique<ProjectServer>(
      "edtc", DurableOptions(dir.str()));
  const engine::WalStatus status = recovered->GetWalStatus();
  EXPECT_FALSE(status.recovered);  // No checkpoint was ever taken.
  EXPECT_GT(status.replayed_ops, 0u);
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(metadb::SaveDatabaseString(recovered->database()), db_text);
}

TEST(ServerDurability, RecoversFromCheckpointPlusTail) {
  TempDir dir("srv-checkpoint");
  std::vector<std::string> lines;
  std::string db_text;
  std::string ws_text;
  int64_t clock_seconds = 0;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
    RunSampleWorkload(*server);
    EXPECT_EQ(server->WalCheckpoint(), 1u);
    // Post-checkpoint tail.
    server->CheckIn("FPU", "HDL_model", "module fpu;", "carol");
    server->AdvanceClock(30);
    server->Drain();
    lines = ServerJournalLines(*server);
    db_text = metadb::SaveDatabaseString(server->database());
    ws_text = metadb::SaveWorkspaceText(server->workspace());
    clock_seconds = server->clock().NowSeconds();
  }
  auto recovered = std::make_unique<ProjectServer>(
      "edtc", DurableOptions(dir.str()));
  const engine::WalStatus status = recovered->GetWalStatus();
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(status.checkpoint_id, 1u);
  EXPECT_GT(status.replayed_ops, 0u);
  EXPECT_GT(status.restored_rows, 0u);
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(metadb::SaveDatabaseString(recovered->database()), db_text);
  EXPECT_EQ(metadb::SaveWorkspaceText(recovered->workspace()), ws_text);
  EXPECT_EQ(recovered->clock().NowSeconds(), clock_seconds);
  // The recovered server keeps working: next version numbers continue.
  const Oid next =
      recovered->CheckIn("CPU", "HDL_model", "module cpu; // v3", "alice");
  EXPECT_EQ(next.version, 3);
}

TEST(ServerDurability, TornCheckpointFallsBackToThePreviousOne) {
  TempDir dir("srv-fallback");
  std::vector<std::string> lines;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
    RunSampleWorkload(*server);
    EXPECT_EQ(server->WalCheckpoint(), 1u);
    server->CheckIn("FPU", "HDL_model", "module fpu;", "carol");
    EXPECT_EQ(server->WalCheckpoint(), 2u);
    lines = ServerJournalLines(*server);
  }
  // Corrupt the newest checkpoint's database file: recovery must skip
  // manifest 2 and rebuild from checkpoint 1 + the ops tail.
  {
    std::ofstream file(dir.path() / metadb::CheckpointFileName(2, "db"),
                       std::ios::binary | std::ios::trunc);
    file << "damocles-metadb v1\nobjects 9999\n";
  }
  auto recovered = std::make_unique<ProjectServer>(
      "edtc", DurableOptions(dir.str()));
  const engine::WalStatus status = recovered->GetWalStatus();
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(status.checkpoint_id, 1u);
  EXPECT_EQ(status.manifests_skipped, 1u);
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
}

#if defined(DAMOCLES_FAILPOINTS_ENABLED)

// ENOSPC mid-checkpoint: the partially-written checkpoint file must not
// be adopted — the previous manifest chain stays in charge and a fresh
// server recovers from it plus the ops tail.
TEST(ServerDurability, EnospcMidCheckpointKeepsPreviousManifest) {
  TempDir dir("srv-enospc-ckpt");
  std::vector<std::string> lines;
  std::string db_text;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
    RunSampleWorkload(*server);
    EXPECT_EQ(server->WalCheckpoint(), 1u);
    server->CheckIn("FPU", "HDL_model", "module fpu;", "carol");
    server->Drain();

    // Disk full 64 bytes into the next checkpoint's first file.
    common::Failpoints::Instance().Configure("checkpoint.write", "short:64");
    EXPECT_THROW(server->WalCheckpoint(), Error);
    common::Failpoints::Instance().ClearAll();

    // The failed checkpoint must not have poisoned the server: it keeps
    // serving and a later checkpoint succeeds.
    EXPECT_FALSE(server->degraded());
    server->CheckIn("FPU", "schematic", "fpu gates", "carol");
    server->Drain();
    lines = ServerJournalLines(*server);
    db_text = metadb::SaveDatabaseString(server->database());
  }
  auto recovered =
      std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
  const engine::WalStatus status = recovered->GetWalStatus();
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(status.checkpoint_id, 1u);  // The ENOSPC one was never adopted.
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  EXPECT_EQ(metadb::SaveDatabaseString(recovered->database()), db_text);
}

// Crash-equivalent failure between manifest write and rename: the .tmp
// manifest stays behind; recovery sweeps it and loads the previous one.
TEST(ServerDurability, ManifestRenameFailureLeavesTmpAndFallsBack) {
  TempDir dir("srv-rename-ckpt");
  std::vector<std::string> lines;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
    RunSampleWorkload(*server);
    EXPECT_EQ(server->WalCheckpoint(), 1u);
    server->CheckIn("FPU", "HDL_model", "module fpu;", "carol");
    server->Drain();

    common::Failpoints::Instance().Configure("checkpoint.manifest.rename",
                                             "error,count=1");
    EXPECT_THROW(server->WalCheckpoint(), Error);
    common::Failpoints::Instance().ClearAll();
    lines = ServerJournalLines(*server);
  }
  // The torn attempt left its manifest as *.tmp only.
  bool saw_tmp = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".tmp") saw_tmp = true;
  }
  EXPECT_TRUE(saw_tmp);

  auto recovered =
      std::make_unique<ProjectServer>("edtc", DurableOptions(dir.str()));
  const engine::WalStatus status = recovered->GetWalStatus();
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(status.checkpoint_id, 1u);
  EXPECT_EQ(ServerJournalLines(*recovered), lines);
  // The sweep removed the tmp leftover.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

#endif  // DAMOCLES_FAILPOINTS_ENABLED

TEST(ServerDurability, ShardedServerRecoversEpochCeiling) {
  TempDir dir("srv-sharded");
  std::vector<std::string> lines;
  uint64_t epoch_ceiling = 0;
  std::string db_text;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(dir.str(), 4));
    RunSampleWorkload(*server);
    std::vector<std::string> sorted = ServerJournalLines(*server);
    std::sort(sorted.begin(), sorted.end());
    lines = std::move(sorted);
    epoch_ceiling = server->sharded_engine()->epoch_ceiling();
    db_text = metadb::SaveDatabaseString(server->database());
  }
  auto recovered = std::make_unique<ProjectServer>(
      "edtc", DurableOptions(dir.str(), 4));
  std::vector<std::string> recovered_lines = ServerJournalLines(*recovered);
  std::sort(recovered_lines.begin(), recovered_lines.end());
  EXPECT_EQ(recovered_lines, lines);
  EXPECT_EQ(metadb::SaveDatabaseString(recovered->database()), db_text);
  EXPECT_EQ(recovered->sharded_engine()->epoch_ceiling(), epoch_ceiling);
}

TEST(ServerDurability, RecoverFromReplaysAnotherDirectory) {
  TempDir source_dir("srv-source");
  std::vector<std::string> lines;
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(source_dir.str()));
    RunSampleWorkload(*server);
    lines = ServerJournalLines(*server);
  }
  auto fresh = std::make_unique<ProjectServer>("edtc", ServerOptions{});
  const size_t applied = fresh->RecoverFrom(source_dir.str());
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(ServerJournalLines(*fresh), lines);
}

TEST(ServerDurability, RecoverFromOwnDirectoryIsRejected) {
  TempDir dir("srv-self");
  auto server = testutil::MakeEdtcServer(DurableOptions(dir.str()));
  EXPECT_THROW(server->RecoverFrom(dir.str()), Error);
}

TEST(ServerDurability, AutoCheckpointEveryNOps) {
  TempDir dir("srv-autockpt");
  ServerOptions options = DurableOptions(dir.str());
  options.checkpoint_every_ops = 3;
  auto server = testutil::MakeEdtcServer(options);
  RunSampleWorkload(*server);  // 6 logged ops (blueprint excluded).
  EXPECT_GE(server->GetWalStatus().checkpoints_taken, 2u);
}

// --- Wire commands ---------------------------------------------------------

TEST(WireDurability, WalStatusReportsOffAndOn) {
  auto plain = testutil::MakeEdtcServer();
  WireSession off(*plain, "alice");
  EXPECT_EQ(off.HandleLine("wal-status"), "wal off\n");

  TempDir dir("wire-status");
  auto durable = testutil::MakeEdtcServer(DurableOptions(dir.str()));
  WireSession on(*durable, "alice");
  const std::string status = on.HandleLine("wal-status");
  EXPECT_NE(status.find("wal on"), std::string::npos);
  EXPECT_NE(status.find("fsync none"), std::string::npos);
}

TEST(WireDurability, WalCheckpointAndRecoverCommands) {
  TempDir source_dir("wire-recover");
  {
    auto server = testutil::MakeEdtcServer(DurableOptions(source_dir.str()));
    WireSession session(*server, "alice");
    EXPECT_EQ(session.HandleLine("checkin CPU HDL_model \"module cpu;\""),
              "ok CPU,HDL_model,1\n");
    EXPECT_EQ(session.HandleLine("wal-checkpoint"), "ok checkpoint 1\n");
  }
  auto fresh = testutil::MakeEdtcServer();
  WireSession session(*fresh, "alice");
  // Two ops: the blueprint install and the check-in.
  EXPECT_EQ(session.HandleLine("recover " + source_dir.str()),
            "ok replayed 2 op(s)\n");
  EXPECT_TRUE(
      fresh->database().FindObject(Oid{"CPU", "HDL_model", 1}).has_value());
  // Errors stay in-band.
  EXPECT_EQ(session.HandleLine("recover"), "error: usage: recover <wal-dir>\n");
}

TEST(WireDurability, CommandsAreClassifiedForTheMux) {
  EXPECT_EQ(engine::ClassifyWireLine("wal-status"),
            engine::WireCommandKind::kRead);
  EXPECT_EQ(engine::ClassifyWireLine("wal-checkpoint"),
            engine::WireCommandKind::kMutate);
  EXPECT_EQ(engine::ClassifyWireLine("recover /tmp/x"),
            engine::WireCommandKind::kMutate);
}

// --- The file-system seam ---------------------------------------------------

using FsKind = testutil::RecordingFileSystem::Kind;

// Under every_record a record is acknowledged once the Sync that ends
// its append group returns. A freshly rolled segment's directory entry
// must be durable by then, or power loss can drop the whole segment
// along with its acked records.
TEST(FileSystemSeam, RolledSegmentDirectoryIsSyncedBeforeTheFirstAck) {
  TempDir dir("fs-roll-dirsync");
  testutil::RecordingFileSystem fs;
  {
    WalWriterOptions options;
    options.dir = dir.str();
    options.stream = "ops";
    options.fsync = FsyncPolicy::kEveryRecord;
    options.segment_bytes = 40;  // Header + one op: every op rolls.
    options.fs = &fs;
    WalWriter writer(options);
    for (int i = 1; i <= 4; ++i) writer.AppendClockOp(i, i * 10);
    EXPECT_EQ(writer.segment_index(), 4u);
  }
  const std::vector<testutil::RecordingFileSystem::Op> ops = fs.ops();
  size_t segments = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != FsKind::kCreate) continue;
    ++segments;
    bool dir_synced = false;
    size_t j = i + 1;
    for (; j < ops.size(); ++j) {
      if (ops[j].kind == FsKind::kSyncDirectory && ops[j].path == dir.str()) {
        dir_synced = true;
      }
      if (ops[j].kind == FsKind::kSync && ops[j].path == ops[i].path) break;
    }
    ASSERT_LT(j, ops.size()) << ops[i].path << " was never synced";
    EXPECT_TRUE(dir_synced) << ops[i].path;
  }
  EXPECT_EQ(segments, 4u);
}

// A checkpoint whose manifest rename may not survive power loss, or
// whose files did not close cleanly, is a failed checkpoint: it throws,
// counts in health, and the previous chain stays in charge.
TEST(FileSystemSeam, FailedDirectorySyncOrCloseFailsTheCheckpoint) {
  for (const FsKind kind : {FsKind::kSyncDirectory, FsKind::kClose}) {
    TempDir dir("fs-ckpt-dirsync");
    testutil::RecordingFileSystem fs;
    ServerOptions options = DurableOptions(dir.str());
    options.wal_fsync = FsyncPolicy::kBatch;
    options.file_system = &fs;
    auto server = testutil::MakeEdtcServer(options);
    RunSampleWorkload(*server);
    const uint64_t committed = server->WalCheckpoint();

    server->AdvanceClock(60);
    fs.Fail(kind, EIO);
    EXPECT_THROW(server->WalCheckpoint(), Error);
    fs.Fail(kind, 0);
    EXPECT_EQ(server->GetHealth().checkpoint_failures, 1u);
    EXPECT_EQ(server->GetWalStatus().last_checkpoint_id, committed);

    EXPECT_GT(server->WalCheckpoint(), committed);
    EXPECT_EQ(server->GetHealth().checkpoint_failures, 1u);
  }
}

// A batch drain syncs only the streams that took bytes since their last
// sync: a mutation that logs to "ops" alone costs one fsync, not one
// per shard and steal stream.
TEST(FileSystemSeam, BatchDrainSyncsOnlyWrittenStreams) {
  TempDir dir("fs-batch-dirty");
  testutil::RecordingFileSystem fs;
  ServerOptions options = DurableOptions(dir.str(), 4);
  options.wal_fsync = FsyncPolicy::kBatch;
  options.file_system = &fs;
  auto server = testutil::MakeEdtcServer(options);
  const Oid hdl = server->CheckIn("CPU", "HDL_model", "module cpu;", "alice");
  const Oid sch = server->CheckIn("CPU", "schematic", "cpu gates", "bob");
  server->Drain();

  const size_t syncs_before = fs.Count(FsKind::kSync);
  server->RegisterLink(metadb::LinkKind::kDerive, hdl, sch);
  server->Drain();
  EXPECT_EQ(fs.Count(FsKind::kSync), syncs_before + 1);
  server->Drain();  // Nothing new: no fsync at all.
  EXPECT_EQ(fs.Count(FsKind::kSync), syncs_before + 1);
}

// Every file a durable server leaves behind — segments, checkpoint
// files, manifests — was created through its file system, across
// background delta checkpoints, segment retention and a restart.
TEST(FileSystemSeam, EveryFileInTheWalDirectoryWasCreatedThroughIt) {
  TempDir dir("fs-all-files");
  testutil::RecordingFileSystem fs;
  ServerOptions options = DurableOptions(dir.str(), 4);
  options.deterministic_shards = false;
  options.wal_fsync = FsyncPolicy::kBatch;
  options.wal_segment_bytes = 512;
  options.wal_retain_segments = 0;
  options.checkpoint_every_ops = 4;
  options.background_checkpoints = true;
  options.file_system = &fs;
  uint64_t pruned = 0;
  for (int run = 0; run < 2; ++run) {
    auto server = run == 0 ? testutil::MakeEdtcServer(options)
                           : std::make_unique<ProjectServer>("edtc", options);
    for (int i = 0; i < 12; ++i) {
      std::string block = "B";
      block += std::to_string(run * 100 + i);
      server->CheckIn(block, "HDL_model", "module m;", "alice");
      server->AdvanceClock(1);
    }
    server->WalCheckpoint();
    pruned += server->GetWalStatus().segments_pruned;
  }
  EXPECT_GT(pruned, 0u);

  std::set<std::string> created;
  bool saw_delta = false;
  for (const auto& op : fs.ops()) {
    if (op.kind == FsKind::kCreate || op.kind == FsKind::kRename) {
      created.insert(op.path);
      saw_delta = saw_delta ||
                  std::filesystem::path(op.path).extension() == ".dbd";
    }
  }
  EXPECT_TRUE(saw_delta);
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    ++files;
    EXPECT_EQ(created.count(entry.path().string()), 1u) << entry.path();
  }
  EXPECT_GT(files, 0u);
}

}  // namespace
}  // namespace damocles
