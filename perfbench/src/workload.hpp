// Workload definitions: project shapes, server settings and the seeded
// per-session command streams.
//
// A workload is a project (a use-link block hierarchy with a 5-view
// derive flow per block) plus a traffic mix. Each of the 3 client
// sessions draws its own fixed stream of wire lines from the run seed,
// so the i-th line of session s is the same in every run with that
// seed, whatever the interleaving. That holds because a session only
// checks in leaves it owns (it knows their versions) and only session 0
// runs the policy cycle (it alone learns the version ids).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "engine/project_server.hpp"
#include "policy/policy_engine.hpp"

namespace perfbench {

inline constexpr int kSessions = 3;
inline constexpr int kViews = 5;
inline constexpr int kFanout = 4;

/// What one generated line asks for.
enum class Command {
  kQueryBlock,
  kVizBlock,
  kQueryOutOfDate,
  kBlockers,
  kReport,
  kShadowWave,
  kResultPost,
  kCkinPost,
  kLeafCheckin,
  kPolicyPropose,
  kPolicyValidate,
  kPolicyPromote,
  kPolicyRollback,
};

inline constexpr int kCommandCount = 13;

const char* CommandName(Command command);
bool IsWrite(Command command);

struct WorkloadSpec {
  std::string name;
  uint32_t shards = 1;
  int depth = 4;  ///< Hierarchy depth; fanout kFanout, kViews views per block.
  /// Iterations per run at --seconds 10 (scaled linearly with
  /// --seconds). Each builds the project afresh and runs a fresh stream
  /// of the same length, so every figure is a median across them.
  int iterations = 4;
  /// Stream length per session and iteration (fixed work, the same on
  /// every commit).
  size_t ops_per_session = 0;
  /// Draw weights per Command (policy commands are injected, not drawn).
  std::vector<std::pair<Command, double>> mix;
  size_t checkpoint_every_ops = 0;  ///< Delta checkpoint cadence (0 = none).
  bool background_checkpoints = false;
  int retain_segments = -1;
  /// Session 0 runs propose/validate/promote/rollback after every this
  /// many of its own writes (0 = never).
  size_t policy_cycle_every = 0;
  bool signoff_policy = false;  ///< Install the sign-off PolicyEngine.
  bool shadow_version = false;  ///< Propose a version for shadow-wave reads.
};

const WorkloadSpec* FindWorkload(std::string_view name);

/// Block names in breadth-first order (root first).
struct ProjectShape {
  std::vector<std::string> blocks;
  std::vector<int> parent;  ///< Index of the parent block, -1 for the root.
  std::vector<int> depth;   ///< 0 for the root; leaves sit at `leaf_depth`.
  int leaf_depth = 0;
  bool leaf(size_t block) const { return depth[block] == leaf_depth; }
  size_t oids() const { return blocks.size() * kViews; }
};

ProjectShape MakeShape(const WorkloadSpec& spec);

/// Exact per-stream count of each mix command (largest remainder of
/// ops_per_session split by weight), in spec.mix order.
std::vector<size_t> MixCounts(const WorkloadSpec& spec);

/// The hierarchy level of every ckin post in a run, dealt to the
/// streams: entry [iteration * kSessions + session]. Each run carries
/// exactly its share of waves per level (levels weighted by their node
/// count, so nodes are hit uniformly in expectation), dealt evenly over
/// the iterations; only their order, the iterations the rare levels land
/// in and the node within a level vary with the seed. Without the quota
/// a run's few whole-tree waves would be a Poisson draw.
std::vector<std::vector<int>> PlanCkinLevels(const WorkloadSpec& spec,
                                             const ProjectShape& shape,
                                             uint64_t seed);

/// The project's blueprint (5-view flow, outofdate down use links).
const std::string& FlowBlueprint();
/// The sign-off variant proposed for shadow-wave reads and the policy
/// cycle: derive links past view_2 stop propagating outofdate.
const std::string& SignoffBlueprint();

/// Sign-off phase rules: every mutation is evaluated, none is denied.
damocles::policy::PolicyEngine MakeSignoffPolicy();
inline constexpr const char* kSignoffPhase = "signoff";

/// Server options for the workload; `wal_dir` empty turns the WAL off.
damocles::engine::ServerOptions MakeServerOptions(const WorkloadSpec& spec,
                                                  const std::string& wal_dir);

/// Builds the project on a freshly constructed server: blueprint, one
/// flow per block, use links parent -> child on view_0, the proposed
/// shadow version and the policy. `policy` must outlive the server.
/// `drain_each` drains after every setup mutation, for servers built
/// with auto_drain off, so their state matches an auto-draining one.
void SetUpProject(const WorkloadSpec& spec, const ProjectShape& shape,
                  damocles::engine::ProjectServer& server,
                  damocles::policy::PolicyEngine* policy, bool drain_each);

/// One session's seeded command stream.
class SessionStream {
 public:
  /// `ckin_levels`: this stream's share of PlanCkinLevels.
  SessionStream(const WorkloadSpec& spec, const ProjectShape& shape,
                uint64_t seed, int session, std::vector<int> ckin_levels);

  bool done() const { return next_ >= kinds_.size() && policy_step_ == 0; }

  /// Draws the next line. Call Accept() with its response (or an
  /// equivalent text in the traced run) before the next call.
  const std::string& Next();
  Command command() const { return command_; }
  const std::string& line() const { return line_; }

  /// Checks the response shape for the current line and learns what the
  /// stream needs from it (the proposed version id). Returns an empty
  /// string when the shape is right, otherwise what was wrong.
  std::string Accept(std::string_view response);

  // Parsed fields of the current line, for the traced run.
  const std::string& block() const { return block_; }
  const std::string& view() const { return view_; }
  const std::string& content() const { return content_; }
  int version() const { return version_; }
  uint64_t policy_id() const { return policy_id_; }

 private:
  int PickBlock(const std::vector<int>& pool);
  int VersionOf(int block, int view) const;

  const WorkloadSpec* spec_;
  const ProjectShape* shape_;
  damocles::Rng rng_;
  int session_;
  std::vector<Command> kinds_;  ///< The drawn commands, shuffled.
  size_t next_ = 0;
  std::vector<int> ckin_levels_;
  size_t next_ckin_ = 0;
  std::vector<int> targets_;  ///< Internal blocks + own leaves.
  /// Per level: its internal blocks, or this session's own leaves.
  std::vector<std::vector<int>> level_targets_;
  std::vector<int> leaf_version_;  ///< view_0 version per block (own leaves).
  size_t writes_ = 0;
  int policy_step_ = 0;  ///< 0 idle; 1..4 = next cycle command.
  uint64_t policy_id_ = 0;

  Command command_ = Command::kQueryBlock;
  std::string line_;
  std::string block_;
  std::string view_;
  std::string content_;
  int version_ = 0;
};

/// Derives an independent stream seed from the run seed.
uint64_t MixSeed(uint64_t seed, std::string_view salt, uint64_t index);

/// The wire user of session `session` ("lead0", "designer1", ...).
std::string UserOf(int session);

/// What one iteration's streams are drawn from.
struct StreamPlan {
  uint64_t seed = 0;
  std::array<std::vector<int>, kSessions> ckin_levels;
};

/// One plan per iteration of a run with this seed.
std::vector<StreamPlan> PlanRun(const WorkloadSpec& spec,
                                const ProjectShape& shape, uint64_t seed);

/// The kSessions streams of one iteration.
std::vector<SessionStream> MakeStreams(const WorkloadSpec& spec,
                                       const ProjectShape& shape,
                                       const StreamPlan& plan);

/// A whitespace word from `text` starting at `pos` (advances pos).
std::string NextWord(std::string_view text, size_t& pos);

}  // namespace perfbench
