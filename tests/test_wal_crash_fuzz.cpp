// Crash-point fuzz for WAL recovery (the PR's durability invariant):
// for ANY kill point — including mid-record and mid-checkpoint byte
// offsets — recover + resume must reproduce the uninterrupted run's
// journal record multiset, property state, workspace, clock and
// sharded epoch ceiling.
//
// Each seeded iteration builds a random workload (check-ins, derive
// links, event posts, clock advances, explicit checkpoints) and runs
// it to completion on a durable server whose recording file system logs
// every durable extent (path, end offset) in global order — the exact
// byte ranges a kill -9 would have preserved at each instant. The
// harness then picks a random extent and a random byte offset *within*
// it, rewinds the WAL directory to that cut (later files removed,
// the cut file truncated mid-record), constructs a fresh server on the
// directory (auto-recovery), resumes the workload right after the last
// surviving operation and asserts end-state equality with the
// uninterrupted run.
//
// Variants by seed: even seeds run 1-shard; seed % 4 == 1 runs 4-shard
// deterministic; seed % 4 == 3 runs 4-shard THREADED (lane stealing +
// worker-thread WAL appends; the suite runs under ASan in CI). The
// fsync policy and segment size are random per seed so rolls and every
// flush discipline are exercised.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "engine/project_server.hpp"
#include "events/wal.hpp"
#include "metadb/persistence.hpp"
#include "metadb/recovery.hpp"
#include "test_util.hpp"

namespace damocles {
namespace {

using engine::ProjectServer;
using engine::ServerOptions;
using events::FsyncPolicy;
using metadb::Oid;

// Constant-valued rules plus link templates, so RegisterLink produces
// propagating links and the final property state is schedule-invariant
// (any delivery order yields the same values — required for the
// threaded variant).
constexpr const char* kCrashBlueprint = R"(blueprint crash_fuzz
view default
  when edit do edited = yes done
  when ckin do checked = yes done
endview
view hdl
  when edit do edited = yes done
  when ckin do checked = yes done
  when note do noted = yes done
endview
view relay
  link_from hdl propagates edit, ckin type derived
  when edit do post note down done
  when note do noted = yes done
  when ckin do checked = yes done
endview
view sink
  link_from relay propagates note, edit type derived
  link_from hdl propagates ckin type derived
  when note do noted = yes done
  when edit do edited = yes done
  when ckin do checked = yes done
endview
endblueprint)";

// A loosened variant proposed/promoted by the policy-lifecycle steps:
// same views and constant-valued rules (still schedule-invariant), but
// fewer events propagate, so promotions genuinely change wave shapes.
constexpr const char* kCrashBlueprintLoose = R"(blueprint crash_fuzz
view default
  when edit do edited = yes done
  when ckin do checked = yes done
endview
view hdl
  when edit do edited = yes done
  when ckin do checked = yes done
  when note do noted = yes done
endview
view relay
  link_from hdl propagates edit type derived
  when edit do edited = yes done
  when note do noted = yes done
  when ckin do checked = yes done
endview
view sink
  link_from relay propagates note type derived
  link_from hdl propagates ckin type derived
  when note do noted = yes done
  when edit do edited = yes done
  when ckin do checked = yes done
endview
endblueprint)";

/// One deterministic workload step. The plan is a pure function of the
/// seed, so the resumed run replays byte-identical operations.
struct Step {
  enum Kind {
    kCheckIn,
    kLink,
    kEvent,
    kAdvance,
    kCheckpoint,
    kPolicyPropose,
    kPolicyValidate,
    kPolicyPromote,
    kPolicyRollback,
  } kind = kCheckIn;
  std::string block;
  std::string view;
  std::string content;   ///< kCheckIn.
  Oid link_from;         ///< kLink.
  Oid link_to;           ///< kLink.
  std::string event;     ///< kEvent.
  bool delta = false;    ///< kCheckpoint kind (delta chains onto the base).
  int version = 1;       ///< kEvent target version.
  int64_t seconds = 0;   ///< kAdvance.
  uint64_t policy_id = 0;     ///< kPolicyValidate / kPolicyPromote.
  bool policy_loose = false;  ///< kPolicyPropose text variant.
};

/// Mirror of the PolicyStore lifecycle, so MakePlan only emits legal
/// transitions (every policy step then logs exactly one WAL op, which
/// the op->step resume mapping depends on). Version 1 is the adopted
/// InitializeBlueprint install.
struct PolicyModel {
  enum Status { kProposed, kValidated, kPromoted, kSuperseded, kRolledBack };
  uint64_t next_id = 2;
  std::vector<uint64_t> stack{1};
  std::map<uint64_t, Status> status{{1, kPromoted}};

  Step Propose() {
    Step step;
    step.kind = Step::kPolicyPropose;
    step.policy_id = next_id++;
    step.policy_loose = step.policy_id % 2 == 0;
    status[step.policy_id] = kProposed;
    return step;
  }

  std::vector<uint64_t> WithStatus(std::initializer_list<Status> wanted,
                                   uint64_t exclude) const {
    std::vector<uint64_t> out;
    for (const auto& [id, st] : status) {
      if (id == exclude) continue;
      for (const Status w : wanted) {
        if (st == w) {
          out.push_back(id);
          break;
        }
      }
    }
    return out;
  }

  /// Emits one random legal lifecycle step (falls back to propose).
  Step RandomStep(Rng& rng) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        return Propose();
      case 1: {
        const std::vector<uint64_t> ids = WithStatus({kProposed}, 0);
        if (ids.empty()) return Propose();
        Step step;
        step.kind = Step::kPolicyValidate;
        step.policy_id = ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
        // Both blueprint variants validate cleanly.
        status[step.policy_id] = kValidated;
        return step;
      }
      case 2: {
        const std::vector<uint64_t> ids =
            WithStatus({kValidated, kSuperseded, kRolledBack}, stack.back());
        if (ids.empty()) return Propose();
        Step step;
        step.kind = Step::kPolicyPromote;
        step.policy_id = ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
        status[stack.back()] = kSuperseded;
        stack.push_back(step.policy_id);
        status[step.policy_id] = kPromoted;
        return step;
      }
      default: {
        if (stack.size() < 2) return Propose();
        Step step;
        step.kind = Step::kPolicyRollback;
        status[stack.back()] = kRolledBack;
        stack.pop_back();
        status[stack.back()] = kPromoted;
        return step;
      }
    }
  }
};

struct Plan {
  std::vector<Step> steps;
};

Plan MakePlan(uint64_t seed) {
  Rng rng(seed);
  Plan plan;
  const char* kViews[] = {"hdl", "relay", "sink", "sch"};
  const char* kEvents[] = {"edit", "note", "ckin"};
  const int blocks = static_cast<int>(rng.UniformInt(3, 6));

  // Model of workspace state, so later steps reference OIDs that exist.
  std::map<std::pair<std::string, std::string>, int> versions;
  std::vector<Oid> oids;
  PolicyModel policy;

  const int steps = static_cast<int>(rng.UniformInt(20, 30));
  for (int i = 0; i < steps; ++i) {
    Step step;
    const double draw = oids.empty() ? 0.0 : rng.UniformDouble();
    if (draw < 0.30) {
      step.kind = Step::kCheckIn;
      step.block = "blk" + std::to_string(rng.UniformInt(0, blocks - 1));
      step.view = kViews[rng.UniformInt(0, 3)];
      const int version = ++versions[{step.block, step.view}];
      step.content = step.block + "/" + step.view + " v" +
                     std::to_string(version) + " seed" + std::to_string(seed);
      oids.push_back(Oid{step.block, step.view, version});
    } else if (draw < 0.45 && oids.size() >= 2) {
      step.kind = Step::kLink;
      step.link_from = oids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
      step.link_to = oids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
      if (step.link_from == step.link_to) continue;
    } else if (draw < 0.70) {
      step.kind = Step::kEvent;
      const Oid& target = oids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
      step.block = target.block;
      step.view = target.view;
      step.version = target.version;
      step.event = kEvents[rng.UniformInt(0, 2)];
    } else if (draw < 0.78) {
      step.kind = Step::kAdvance;
      step.seconds = rng.UniformInt(1, 600);
    } else if (draw < 0.85) {
      step.kind = Step::kCheckpoint;
      // Half the explicit checkpoints are deltas, so kill points land
      // inside delta file writes and mid-chain manifest renames too.
      step.delta = rng.UniformInt(0, 1) == 1;
    } else {
      // Policy lifecycle: propose/validate/promote/rollback, legal by
      // construction (mid-promote kill points are the interesting part).
      step = policy.RandomStep(rng);
    }
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

/// Executes plan steps [from, plan.size()). Link registrations that the
/// database rejects (duplicate endpoints etc.) fail identically in the
/// full and the resumed run, because both see the same state.
void RunSteps(ProjectServer& server, const Plan& plan, size_t from,
              std::vector<size_t>* op_to_step) {
  for (size_t i = from; i < plan.steps.size(); ++i) {
    const Step& step = plan.steps[i];
    const uint64_t before = server.GetWalStatus().ops_logged;
    switch (step.kind) {
      case Step::kCheckIn:
        server.CheckIn(step.block, step.view, step.content, "fuzz");
        break;
      case Step::kLink:
        try {
          server.RegisterLink(metadb::LinkKind::kDerive, step.link_from,
                              step.link_to);
        } catch (const Error&) {
          // Deterministically rejected in both runs.
        }
        break;
      case Step::kEvent: {
        events::EventMessage event;
        event.name = step.event;
        event.direction = events::Direction::kDown;
        event.target = Oid{step.block, step.view, step.version};
        event.user = "fuzz";
        event.timestamp = server.clock().NowSeconds();
        server.Submit(std::move(event));
        break;
      }
      case Step::kAdvance:
        server.AdvanceClock(step.seconds);
        break;
      case Step::kCheckpoint:
        server.WalCheckpoint(step.delta ? engine::CheckpointMode::kDelta
                                        : engine::CheckpointMode::kFull);
        break;
      case Step::kPolicyPropose:
        server.PolicyPropose(
            step.policy_loose ? kCrashBlueprintLoose : kCrashBlueprint,
            "fuzz", "proposal " + std::to_string(step.policy_id));
        break;
      case Step::kPolicyValidate:
        server.PolicyValidate(step.policy_id);
        break;
      case Step::kPolicyPromote:
        server.PolicyPromote(step.policy_id);
        break;
      case Step::kPolicyRollback:
        server.PolicyRollback();
        break;
    }
    if (op_to_step != nullptr) {
      // Record which step produced each op_seq (one op per op-bearing
      // step; checkpoints and rejected links log nothing).
      const uint64_t after = server.GetWalStatus().ops_logged;
      for (uint64_t seq = before + 1; seq <= after; ++seq) {
        op_to_step->resize(static_cast<size_t>(seq) + 1, i);
        (*op_to_step)[static_cast<size_t>(seq)] = i;
      }
    }
  }
  server.Drain();
}

/// End-state fingerprint compared between the runs.
struct Fingerprint {
  std::vector<std::string> journal;  ///< Sorted record lines.
  std::string db_text;
  std::string workspace_text;
  int64_t clock_seconds = 0;
  uint64_t epoch_ceiling = 0;
  std::string policy_text;      ///< Serialized policy commit chain.
  uint64_t policy_version = 0;  ///< Version the engines are bound to.
};

Fingerprint Capture(ProjectServer& server) {
  Fingerprint fp;
  fp.journal = server.sharded_engine()->JournalLines();
  fp.epoch_ceiling = server.sharded_engine()->epoch_ceiling();
  std::sort(fp.journal.begin(), fp.journal.end());
  fp.db_text = metadb::SaveDatabaseString(server.database());
  fp.workspace_text = metadb::SaveWorkspaceText(server.workspace());
  fp.clock_seconds = server.clock().NowSeconds();
  fp.policy_text = server.policy_store().SerializeText();
  fp.policy_version = server.engine().policy_version();
  return fp;
}

using AppendTrace = testutil::RecordingFileSystem;

/// Bytes [0, end) of `path` reached the OS.
struct Extent {
  std::string path;
  uint64_t end = 0;
};

/// Every durable extent the traced run produced, in global order: each
/// append extends its file, and a rename makes the target's whole
/// content appear at once.
std::vector<Extent> DurableExtents(const AppendTrace& trace) {
  std::vector<Extent> extents;
  for (const AppendTrace::Op& op : trace.ops()) {
    if (op.kind == AppendTrace::Kind::kAppend ||
        op.kind == AppendTrace::Kind::kRename) {
      extents.push_back(Extent{op.path, op.size});
    }
  }
  return extents;
}

/// Rewinds `dir` to the kill point: every byte durable before the cut
/// extent survives; the cut extent itself survives only up to
/// `cut_bytes` (possibly mid-record); everything later is gone.
void ApplyCut(const std::filesystem::path& dir,
              const std::vector<Extent>& extents,
              size_t cut_index, uint64_t cut_bytes) {
  std::map<std::string, uint64_t> survive;
  for (size_t i = 0; i < cut_index; ++i) {
    uint64_t& end = survive[extents[i].path];
    end = std::max(end, extents[i].end);
  }
  uint64_t& cut_end = survive[extents[cut_index].path];
  cut_end = std::max(cut_end, cut_bytes);

  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    const auto it = survive.find(path);
    if (it == survive.end() || it->second == 0) {
      std::filesystem::remove(entry.path());
    } else if (std::filesystem::file_size(entry.path()) > it->second) {
      std::filesystem::resize_file(entry.path(), it->second);
    }
  }
}

ServerOptions MakeOptions(uint64_t seed, const std::string& wal_dir,
                          AppendTrace* trace) {
  Rng rng(seed ^ 0xc0ffee);
  ServerOptions options;
  options.wal_dir = wal_dir;
  options.wal_segment_bytes = static_cast<size_t>(rng.UniformInt(256, 4096));
  const FsyncPolicy policies[] = {FsyncPolicy::kNone, FsyncPolicy::kBatch,
                                  FsyncPolicy::kEveryRecord};
  options.wal_fsync = policies[rng.UniformInt(0, 2)];
  options.file_system = trace;
  if (seed % 2 == 1) {
    options.num_shards = 4;
    options.deterministic_shards = (seed % 4 == 1);
  }
  return options;
}

void RunSeed(uint64_t seed) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("damocles-crash-" + std::to_string(::getpid()) + "-" +
       std::to_string(seed));
  std::filesystem::remove_all(dir);

  const Plan plan = MakePlan(seed);
  AppendTrace trace;
  Fingerprint expected;
  std::vector<size_t> op_to_step;

  {
    auto server = std::make_unique<ProjectServer>(
        "crash", MakeOptions(seed, dir.string(), &trace));
    server->InitializeBlueprint(kCrashBlueprint);
    RunSteps(*server, plan, 0, &op_to_step);
    expected = Capture(*server);
  }

  const std::vector<Extent> extents = DurableExtents(trace);
  ASSERT_FALSE(extents.empty()) << "seed " << seed;

  // The kill point: a random durable extent, cut at a random byte
  // offset inside it (mid-record and mid-checkpoint cuts included).
  Rng cut_rng(seed ^ 0xdeadbeef);
  const size_t cut_index = static_cast<size_t>(
      cut_rng.UniformInt(0, static_cast<int64_t>(extents.size()) - 1));
  uint64_t prev_end = 0;
  for (size_t i = 0; i < cut_index; ++i) {
    if (extents[i].path == extents[cut_index].path) {
      prev_end = std::max(prev_end, extents[i].end);
    }
  }
  const uint64_t cut_bytes =
      prev_end + static_cast<uint64_t>(cut_rng.UniformInt(
                     0, static_cast<int64_t>(extents[cut_index].end -
                                             prev_end)));
  ApplyCut(dir, extents, cut_index, cut_bytes);

  // Recover on the rewound directory and resume right after the last
  // surviving operation (op 1 is the blueprint install).
  {
    auto recovered = std::make_unique<ProjectServer>(
        "crash", MakeOptions(seed, dir.string(), nullptr));
    const engine::WalStatus status = recovered->GetWalStatus();
    size_t resume_from = 0;
    if (status.ops_logged == 0) {
      recovered->InitializeBlueprint(kCrashBlueprint);
    } else if (status.ops_logged >= 2) {
      ASSERT_LT(status.ops_logged, op_to_step.size()) << "seed " << seed;
      resume_from = op_to_step[static_cast<size_t>(status.ops_logged)] + 1;
    }
    RunSteps(*recovered, plan, resume_from, nullptr);

    const Fingerprint actual = Capture(*recovered);
    ASSERT_EQ(actual.journal, expected.journal)
        << "seed " << seed << " cut " << cut_index << "/" << extents.size()
        << " at byte " << cut_bytes << " in " << extents[cut_index].path;
    ASSERT_EQ(actual.db_text, expected.db_text) << "seed " << seed;
    ASSERT_EQ(actual.workspace_text, expected.workspace_text)
        << "seed " << seed;
    ASSERT_EQ(actual.clock_seconds, expected.clock_seconds)
        << "seed " << seed;
    ASSERT_EQ(actual.epoch_ceiling, expected.epoch_ceiling)
        << "seed " << seed;
    ASSERT_EQ(actual.policy_text, expected.policy_text) << "seed " << seed;
    ASSERT_EQ(actual.policy_version, expected.policy_version)
        << "seed " << seed;
  }

  std::filesystem::remove_all(dir);
}

void RunSeedRange(uint64_t first_seed, uint64_t last_seed) {
  for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    RunSeed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// --- Retention fuzz: mid-prune kill points ----------------------------------

/// Disarms every failpoint on scope exit (failure paths included).
struct FailpointGuard {
  ~FailpointGuard() { common::Failpoints::Instance().ClearAll(); }
};

uint64_t DirBytes(const std::filesystem::path& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// Like RunSeed, with segment retention enabled and prunes randomly
/// aborted mid-loop by the "wal.prune" failpoint (each removal is
/// atomic, so an aborted loop leaves exactly what a kill -9 between
/// removals leaves: a partial prefix or a gap). Because pruned segments
/// cannot be resurrected by rewinding the final directory, the kill
/// point is restricted to the last committed manifest or later — every
/// earlier cut could need ops legitimately below the committed floor.
/// Returns the full run's pruned-segment count so the batch can assert
/// retention actually fired.
uint64_t RunRetentionSeed(uint64_t seed) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("damocles-crash-ret-" + std::to_string(::getpid()) + "-" +
       std::to_string(seed));
  std::filesystem::remove_all(dir);

  const Plan plan = MakePlan(seed);
  AppendTrace trace;
  Fingerprint expected;
  std::vector<size_t> op_to_step;
  uint64_t segments_pruned = 0;

  auto retention_options = [&dir, seed](AppendTrace* t) {
    ServerOptions options = MakeOptions(seed, dir.string(), t);
    options.wal_segment_bytes = static_cast<size_t>(
        Rng(seed ^ 0x5e9).UniformInt(256, 1024));  // Roll constantly.
    options.wal_retain_segments = static_cast<int>(seed % 2);
    return options;
  };

  {
    FailpointGuard guard;
#if defined(DAMOCLES_FAILPOINTS_ENABLED)
    // Abort a fraction of prune loops partway: the committed manifest
    // stays in charge, the directory keeps a partial/gapped prefix.
    common::Failpoints::Instance().Configure(
        "wal.prune", "error,prob=0.4,seed=" + std::to_string(seed));
#endif
    auto server =
        std::make_unique<ProjectServer>("crash", retention_options(&trace));
    server->InitializeBlueprint(kCrashBlueprint);
    RunSteps(*server, plan, 0, &op_to_step);
    expected = Capture(*server);
    segments_pruned = server->GetWalStatus().segments_pruned;
    // The disk-bound the retention knob promises: segments + checkpoint
    // files for this bounded workload stay far under the cap even with
    // some prunes aborted.
    EXPECT_LE(DirBytes(dir), 256u * 1024u) << "seed " << seed;
  }

  const std::vector<Extent> extents = DurableExtents(trace);
  if (extents.empty()) {
    std::filesystem::remove_all(dir);
    return segments_pruned;
  }

  // Find the last committed manifest extent (final rename target); cuts
  // start there. Cutting exactly at it keeps the manifest whole — the
  // crash-right-after-commit / mid-prune point.
  size_t first_valid = 0;
  for (size_t i = 0; i < extents.size(); ++i) {
    const std::string name =
        std::filesystem::path(extents[i].path).filename().string();
    if (name.rfind("manifest-", 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".txt") {
      first_valid = i;
    }
  }
  Rng cut_rng(seed ^ 0xdeadbeef);
  const size_t cut_index = static_cast<size_t>(cut_rng.UniformInt(
      static_cast<int64_t>(first_valid),
      static_cast<int64_t>(extents.size()) - 1));
  uint64_t prev_end = 0;
  for (size_t i = 0; i < cut_index; ++i) {
    if (extents[i].path == extents[cut_index].path) {
      prev_end = std::max(prev_end, extents[i].end);
    }
  }
  uint64_t cut_bytes =
      prev_end + static_cast<uint64_t>(cut_rng.UniformInt(
                     0, static_cast<int64_t>(extents[cut_index].end -
                                             prev_end)));
  if (cut_index == first_valid) cut_bytes = extents[cut_index].end;
  ApplyCut(dir, extents, cut_index, cut_bytes);

  {
    FailpointGuard guard;
#if defined(DAMOCLES_FAILPOINTS_ENABLED)
    common::Failpoints::Instance().Configure(
        "wal.prune", "error,prob=0.4,seed=" + std::to_string(seed ^ 0xf00d));
#endif
    auto recovered =
        std::make_unique<ProjectServer>("crash", retention_options(nullptr));
    const engine::WalStatus status = recovered->GetWalStatus();
    size_t resume_from = 0;
    if (status.ops_logged == 0) {
      recovered->InitializeBlueprint(kCrashBlueprint);
    } else if (status.ops_logged >= 2) {
      EXPECT_LT(status.ops_logged, op_to_step.size()) << "seed " << seed;
      if (status.ops_logged >= op_to_step.size()) {
        std::filesystem::remove_all(dir);
        return segments_pruned;
      }
      resume_from = op_to_step[static_cast<size_t>(status.ops_logged)] + 1;
    }
    RunSteps(*recovered, plan, resume_from, nullptr);

    const Fingerprint actual = Capture(*recovered);
    EXPECT_EQ(actual.journal, expected.journal)
        << "seed " << seed << " cut " << cut_index << "/" << extents.size()
        << " at byte " << cut_bytes << " in " << extents[cut_index].path;
    EXPECT_EQ(actual.db_text, expected.db_text) << "seed " << seed;
    EXPECT_EQ(actual.workspace_text, expected.workspace_text)
        << "seed " << seed;
    EXPECT_EQ(actual.clock_seconds, expected.clock_seconds) << "seed " << seed;
    EXPECT_EQ(actual.epoch_ceiling, expected.epoch_ceiling) << "seed " << seed;
    EXPECT_EQ(actual.policy_text, expected.policy_text) << "seed " << seed;
    EXPECT_EQ(actual.policy_version, expected.policy_version)
        << "seed " << seed;
  }

  std::filesystem::remove_all(dir);
  return segments_pruned;
}

void RunRetentionSeedRange(uint64_t first_seed, uint64_t last_seed) {
  uint64_t total_pruned = 0;
  for (uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    total_pruned += RunRetentionSeed(seed);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
  // Retention must actually have pruned somewhere in the batch, or the
  // disk-cap assertion above is vacuous.
  EXPECT_GT(total_pruned, 0u) << "seeds " << first_seed << ".." << last_seed;
}

// 4 × 40 = 160 seeded kill points, split so ctest parallelism spreads
// them across cores. Even seeds run 1-shard, odd seeds 4-shard
// (deterministic and threaded alternating).
TEST(WalCrashFuzz, RecoverResumeEqualsContinuousSeeds0To39) {
  RunSeedRange(0, 39);
}

TEST(WalCrashFuzz, RecoverResumeEqualsContinuousSeeds40To79) {
  RunSeedRange(40, 79);
}

TEST(WalCrashFuzz, RecoverResumeEqualsContinuousSeeds80To119) {
  RunSeedRange(80, 119);
}

TEST(WalCrashFuzz, RecoverResumeEqualsContinuousSeeds120To159) {
  RunSeedRange(120, 159);
}

// Retention variant: segment pruning on (retain 0 or 1 by seed), prune
// loops randomly aborted mid-removal, kill points at or after the last
// committed manifest. Even seeds 1-shard, odd seeds 4-shard as above.
TEST(WalCrashFuzz, RetentionRecoverResumeSeeds200To239) {
  RunRetentionSeedRange(200, 239);
}

TEST(WalCrashFuzz, RetentionRecoverResumeSeeds240To279) {
  RunRetentionSeedRange(240, 279);
}

}  // namespace
}  // namespace damocles
