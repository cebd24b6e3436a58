#include "workload.hpp"

#include <cstdlib>
#include <stdexcept>

#include "common/strings.hpp"
#include "metadb/link.hpp"
#include "workload/generators.hpp"

namespace perfbench {

using damocles::engine::ProjectServer;
using damocles::engine::ServerOptions;
using damocles::metadb::LinkKind;
using damocles::metadb::Oid;

namespace {

/// Version id the shadow-wave reads name: version 1 is the blueprint
/// InitializeBlueprint adopts, the proposal right after it is 2.
constexpr uint64_t kShadowVersionId = 2;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> out;

  // Design review on a server with a WAL: 95% reads over a medium project
  // (341 blocks, 1,705 OIDs); the query/viz layers and the snapshot read
  // path do the work. The writes (result posts) go through a sign-off
  // PolicyEngine, background delta checkpoints, WAL segment retention and
  // session 0's propose/validate/promote/rollback cycle, and every
  // iteration ends with a restart on its WAL directory.
  WorkloadSpec review;
  review.name = "review_mix";
  review.shards = 1;
  review.depth = 4;
  review.iterations = 6;
  review.ops_per_session = 2400;
  review.mix = {{Command::kQueryBlock, 45},   {Command::kVizBlock, 25},
                {Command::kQueryOutOfDate, 10}, {Command::kBlockers, 5},
                {Command::kReport, 5},        {Command::kShadowWave, 5},
                {Command::kResultPost, 5}};
  review.shadow_version = true;
  review.checkpoint_every_ops = 128;
  review.background_checkpoints = true;
  review.retain_segments = 1;
  review.policy_cycle_every = 30;
  review.signoff_policy = true;
  out.push_back(review);

  // Regression storm: writes over a large project (1365 blocks, 6825
  // OIDs, beyond a 2 MiB L2) on 2 shards; engine waves and the snapshot
  // publish do the work, fsync costs nothing. A write applies in ~15 ms,
  // so reads are 60% of lines to give the read p99 enough samples; they
  // still take about 1% of the time. Two shards, not four: four shard
  // workers beside the apply thread and three sessions oversubscribe a
  // 4-vCPU host, and the read tail then measured the scheduler.
  WorkloadSpec storm;
  storm.name = "ckin_waves";
  storm.shards = 2;
  storm.depth = 5;
  storm.iterations = 4;
  storm.ops_per_session = 125;
  storm.mix = {{Command::kCkinPost, 18},
               {Command::kResultPost, 15},
               {Command::kLeafCheckin, 7},
               {Command::kQueryBlock, 60}};
  out.push_back(storm);
  return out;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

damocles::workload::FlowSpec Flow() {
  damocles::workload::FlowSpec flow;
  flow.n_views = kViews;
  return flow;
}

}  // namespace

uint64_t MixSeed(uint64_t seed, std::string_view salt, uint64_t index) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the salt.
  for (const char c : salt) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return (seed * 0x9e3779b97f4a7c15ULL) ^ h ^ (index * 0xbf58476d1ce4e5b9ULL);
}

std::string UserOf(int session) {
  return (session == 0 ? "lead" : "designer") + std::to_string(session);
}

const char* CommandName(Command command) {
  switch (command) {
    case Command::kQueryBlock: return "query_block";
    case Command::kVizBlock: return "viz_block";
    case Command::kQueryOutOfDate: return "query_outofdate";
    case Command::kBlockers: return "blockers";
    case Command::kReport: return "report";
    case Command::kShadowWave: return "shadow_wave";
    case Command::kResultPost: return "result_post";
    case Command::kCkinPost: return "ckin_post";
    case Command::kLeafCheckin: return "checkin";
    case Command::kPolicyPropose: return "policy_propose";
    case Command::kPolicyValidate: return "policy_validate";
    case Command::kPolicyPromote: return "policy_promote";
    case Command::kPolicyRollback: return "policy_rollback";
  }
  return "unknown";
}

bool IsWrite(Command command) {
  return command >= Command::kResultPost;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ProjectShape MakeShape(const WorkloadSpec& spec) {
  ProjectShape shape;
  shape.leaf_depth = spec.depth;
  shape.blocks.push_back("top");
  shape.parent.push_back(-1);
  shape.depth.push_back(0);
  for (size_t i = 0; i < shape.blocks.size(); ++i) {
    if (shape.depth[i] >= spec.depth) continue;
    for (int child = 0; child < kFanout; ++child) {
      shape.blocks.push_back(shape.blocks[i] + "_" + std::to_string(child));
      shape.parent.push_back(static_cast<int>(i));
      shape.depth.push_back(shape.depth[i] + 1);
    }
  }
  return shape;
}

namespace {

/// Splits `total` into integer parts proportional to `weights`
/// (largest remainder; ties go to the earlier entry).
std::vector<size_t> Apportion(size_t total, const std::vector<double>& weights) {
  double sum = 0.0;
  for (double w : weights) sum += w;
  std::vector<size_t> parts(weights.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t given = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(total) * weights[i] / sum;
    parts[i] = static_cast<size_t>(exact);
    given += parts[i];
    remainders.emplace_back(exact - static_cast<double>(parts[i]), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t k = 0; given < total; ++k, ++given) {
    ++parts[remainders[k % remainders.size()].second];
  }
  return parts;
}

template <typename T>
void Shuffle(std::vector<T>& items, damocles::Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(i) - 1))]);
  }
}

}  // namespace

std::vector<size_t> MixCounts(const WorkloadSpec& spec) {
  std::vector<double> weights;
  for (const auto& entry : spec.mix) weights.push_back(entry.second);
  return Apportion(spec.ops_per_session, weights);
}

std::vector<std::vector<int>> PlanCkinLevels(const WorkloadSpec& spec,
                                             const ProjectShape& shape,
                                             uint64_t seed) {
  size_t per_stream = 0;
  const std::vector<size_t> counts = MixCounts(spec);
  for (size_t i = 0; i < counts.size(); ++i) {
    if (spec.mix[i].first == Command::kCkinPost) per_stream = counts[i];
  }
  // Targets per level: every internal block, a third of the leaves.
  std::vector<double> weights(static_cast<size_t>(shape.leaf_depth) + 1, 0.0);
  for (int depth : shape.depth) weights[static_cast<size_t>(depth)] += 1.0;
  weights.back() /= kSessions;
  const size_t streams = static_cast<size_t>(spec.iterations) * kSessions;
  std::vector<std::vector<int>> plan(streams);
  if (per_stream == 0) return plan;
  const std::vector<size_t> quota = Apportion(per_stream * streams, weights);
  std::vector<int> levels;
  for (size_t level = 0; level < quota.size(); ++level) {
    levels.insert(levels.end(), quota[level], static_cast<int>(level));
  }
  // Deal the levels root first, round-robin over the iterations, so
  // every iteration carries its even share of each level as near as the
  // counts allow; the seed picks where the deal starts and the order
  // within each stream.
  damocles::Rng rng(MixSeed(seed, "ckin-levels", 0));
  const size_t iterations = static_cast<size_t>(spec.iterations);
  const size_t start = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(streams) - 1));
  for (size_t i = 0; i < levels.size(); ++i) {
    const size_t k = (start + i) % streams;
    plan[(k % iterations) * kSessions + k / iterations].push_back(levels[i]);
  }
  for (std::vector<int>& stream : plan) Shuffle(stream, rng);
  return plan;
}

const std::string& FlowBlueprint() {
  static const std::string text =
      damocles::workload::MakeFlowBlueprint(Flow(), "bench");
  return text;
}

const std::string& SignoffBlueprint() {
  static const std::string text = [] {
    damocles::workload::FlowSpec flow = Flow();
    flow.propagation_cutoff = 2;
    return damocles::workload::MakeFlowBlueprint(flow, "bench_signoff");
  }();
  return text;
}

damocles::policy::PolicyEngine MakeSignoffPolicy() {
  damocles::policy::PolicyEngine policy = damocles::policy::ParsePolicyText(
      "group designers designer1 designer2\n"
      "deny reinit_blueprint user=@designers phase=signoff "
      "reason=\"rules frozen\"\n"
      "deny checkin view=layout phase=signoff reason=\"layout frozen\"\n"
      "deny post_event view=tapeout user=@designers phase=signoff "
      "reason=\"leads tape out\"\n"
      "deny register_link phase=signoff reason=\"hierarchy frozen\"\n");
  policy.SetPhase(kSignoffPhase);
  return policy;
}

ServerOptions MakeServerOptions(const WorkloadSpec& spec,
                                const std::string& wal_dir) {
  ServerOptions options;
  options.num_shards = spec.shards;
  options.wal_dir = wal_dir;
  // The WAL keeps the default fsync=none: fsync latency on a shared
  // virtual disk swings too widely for a steady figure.
  options.checkpoint_every_ops = spec.checkpoint_every_ops;
  options.background_checkpoints = spec.background_checkpoints;
  options.wal_retain_segments = spec.retain_segments;
  // Small segments so retention has segments to prune within one run.
  if (spec.retain_segments >= 0) options.wal_segment_bytes = 64u << 10;
  return options;
}

void SetUpProject(const WorkloadSpec& spec, const ProjectShape& shape,
                  ProjectServer& server,
                  damocles::policy::PolicyEngine* policy, bool drain_each) {
  server.InitializeBlueprint(FlowBlueprint());
  const auto drain = [&] {
    if (drain_each) server.Drain();
  };
  for (size_t i = 0; i < shape.blocks.size(); ++i) {
    const std::string& block = shape.blocks[i];
    // One flow per block, as workload::InstantiateFlow builds it.
    for (int view = 0; view < kViews; ++view) {
      const std::string name = "view_" + std::to_string(view);
      server.CheckIn(block, name, "seed data for " + block, "workload");
      drain();
      if (view > 0) {
        server.RegisterLink(LinkKind::kDerive,
                            Oid{block, "view_" + std::to_string(view - 1), 1},
                            Oid{block, name, 1});
        drain();
      }
    }
    if (shape.parent[i] >= 0) {
      server.RegisterLink(
          LinkKind::kUse,
          Oid{shape.blocks[static_cast<size_t>(shape.parent[i])], "view_0", 1},
          Oid{block, "view_0", 1});
      drain();
    }
  }
  if (spec.shadow_version) {
    const uint64_t id =
        server.PolicyPropose(SignoffBlueprint(), "lead0", "sign-off rules");
    if (id != kShadowVersionId) {
      throw std::runtime_error("unexpected shadow version id " +
                               std::to_string(id));
    }
  }
  if (policy != nullptr) {
    server.SetPolicy(policy);
    server.SetProjectPhase(kSignoffPhase);
  }
}

std::string NextWord(std::string_view text, size_t& pos) {
  while (pos < text.size() && text[pos] == ' ') ++pos;
  const size_t start = pos;
  while (pos < text.size() && text[pos] != ' ') ++pos;
  return std::string(text.substr(start, pos - start));
}

// --- SessionStream ------------------------------------------------------------

SessionStream::SessionStream(const WorkloadSpec& spec,
                             const ProjectShape& shape, uint64_t seed,
                             int session, std::vector<int> ckin_levels)
    : spec_(&spec),
      shape_(&shape),
      rng_(MixSeed(seed, spec.name, static_cast<uint64_t>(session))),
      session_(session),
      ckin_levels_(std::move(ckin_levels)),
      level_targets_(static_cast<size_t>(shape.leaf_depth) + 1),
      leaf_version_(shape.blocks.size(), 1) {
  const std::vector<size_t> counts = MixCounts(spec);
  for (size_t i = 0; i < counts.size(); ++i) {
    kinds_.insert(kinds_.end(), counts[i], spec.mix[i].first);
  }
  Shuffle(kinds_, rng_);
  int leaf_index = 0;
  for (size_t i = 0; i < shape.blocks.size(); ++i) {
    if (shape.leaf(i) && leaf_index++ % kSessions != session) continue;
    targets_.push_back(static_cast<int>(i));
    level_targets_[static_cast<size_t>(shape.depth[i])].push_back(
        static_cast<int>(i));
  }
}

std::vector<StreamPlan> PlanRun(const WorkloadSpec& spec,
                                const ProjectShape& shape, uint64_t seed) {
  const std::vector<std::vector<int>> levels =
      PlanCkinLevels(spec, shape, seed);
  std::vector<StreamPlan> plans(static_cast<size_t>(spec.iterations));
  for (size_t i = 0; i < plans.size(); ++i) {
    plans[i].seed = MixSeed(seed, "iteration", i);
    for (size_t s = 0; s < kSessions; ++s) {
      plans[i].ckin_levels[s] = levels[i * kSessions + s];
    }
  }
  return plans;
}

std::vector<SessionStream> MakeStreams(const WorkloadSpec& spec,
                                       const ProjectShape& shape,
                                       const StreamPlan& plan) {
  std::vector<SessionStream> streams;
  for (int s = 0; s < kSessions; ++s) {
    streams.emplace_back(spec, shape, plan.seed, s,
                         plan.ckin_levels[static_cast<size_t>(s)]);
  }
  return streams;
}

int SessionStream::PickBlock(const std::vector<int>& pool) {
  return pool[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
}

int SessionStream::VersionOf(int block, int view) const {
  return view == 0 ? leaf_version_[static_cast<size_t>(block)] : 1;
}

const std::string& SessionStream::Next() {
  command_ = policy_step_ > 0
                 ? static_cast<Command>(
                       static_cast<int>(Command::kPolicyPropose) +
                       policy_step_ - 1)
                 : kinds_[next_++];
  const auto any_block = [this] {
    return shape_->blocks[static_cast<size_t>(rng_.UniformInt(
        0, static_cast<int64_t>(shape_->blocks.size()) - 1))];
  };
  switch (command_) {
    case Command::kQueryBlock:
      block_ = any_block();
      line_ = "query block " + block_;
      break;
    case Command::kVizBlock:
      block_ = any_block();
      line_ = "viz block " + block_;
      break;
    case Command::kQueryOutOfDate:
      line_ = "query outofdate";
      break;
    case Command::kBlockers:
      line_ = "blockers state=true";
      break;
    case Command::kReport:
      line_ = "report";
      break;
    case Command::kShadowWave: {
      const int block = PickBlock(targets_);
      block_ = shape_->blocks[static_cast<size_t>(block)];
      version_ = VersionOf(block, 0);
      line_ = "shadow-wave " + std::to_string(kShadowVersionId) +
              " outofdate down " + block_ + ",view_0," +
              std::to_string(version_);
      break;
    }
    case Command::kResultPost: {
      const int block = PickBlock(targets_);
      const int view = static_cast<int>(rng_.UniformInt(0, kViews - 1));
      block_ = shape_->blocks[static_cast<size_t>(block)];
      view_ = "view_" + std::to_string(view);
      version_ = VersionOf(block, view);
      content_ = rng_.Chance(0.5) ? "good" : "bad";
      line_ = "postEvent res" + std::to_string(rng_.UniformInt(0, 1)) +
              " up " + block_ + "," + view_ + "," + std::to_string(version_) +
              " \"" + content_ + "\"";
      break;
    }
    case Command::kCkinPost: {
      const int block = PickBlock(
          level_targets_[static_cast<size_t>(ckin_levels_.at(next_ckin_++))]);
      block_ = shape_->blocks[static_cast<size_t>(block)];
      view_ = "view_0";
      version_ = VersionOf(block, 0);
      line_ = "postEvent ckin up " + block_ + ",view_0," +
              std::to_string(version_);
      break;
    }
    case Command::kLeafCheckin: {
      const int block = PickBlock(level_targets_.back());
      block_ = shape_->blocks[static_cast<size_t>(block)];
      view_ = "view_0";
      version_ = ++leaf_version_[static_cast<size_t>(block)];
      content_ = "edit " + std::to_string(version_) + " by " + UserOf(session_);
      line_ = "checkin " + block_ + " view_0 \"" + content_ + "\"";
      break;
    }
    case Command::kPolicyPropose:
      content_ = SignoffBlueprint();
      line_ = "policy-propose " + damocles::QuoteString(content_) +
              " \"sign-off cycle\"";
      break;
    case Command::kPolicyValidate:
      line_ = "policy-validate " + std::to_string(policy_id_);
      break;
    case Command::kPolicyPromote:
      line_ = "policy-promote " + std::to_string(policy_id_);
      break;
    case Command::kPolicyRollback:
      line_ = "policy-rollback";
      break;
  }
  return line_;
}

std::string SessionStream::Accept(std::string_view response) {
  const auto starts = [&](std::string_view prefix) {
    return response.substr(0, prefix.size()) == prefix;
  };
  const auto counted = [&](std::string_view suffix) {
    size_t pos = 0;
    while (pos < response.size() && response[pos] >= '0' &&
           response[pos] <= '9') {
      ++pos;
    }
    return pos > 0 && response.substr(pos, suffix.size()) == suffix;
  };
  bool ok = false;
  switch (command_) {
    case Command::kQueryBlock:
      ok = counted(" object(s)\n") && !starts("0 ");
      break;
    case Command::kVizBlock:
      ok = starts("block '" + block_ + "'\n") &&
           response.find("(no tracked data)") == std::string_view::npos;
      break;
    case Command::kQueryOutOfDate:
      ok = counted(" out of date\n");
      break;
    case Command::kBlockers:
      ok = starts("blockers before planned state:\n") ||
           starts("planned state reached: no blockers\n");
      break;
    case Command::kReport:
      ok = starts("OID ");
      break;
    case Command::kShadowWave:
      ok = starts("shadow-wave version " + std::to_string(kShadowVersionId) +
                  " ");
      break;
    case Command::kResultPost:
    case Command::kCkinPost:
      ok = response == "ok\n";
      break;
    case Command::kLeafCheckin:
      ok = response ==
           "ok " + block_ + ",view_0," + std::to_string(version_) + "\n";
      break;
    case Command::kPolicyPropose: {
      constexpr std::string_view kProposed = "ok proposed version ";
      if (starts(kProposed)) {
        policy_id_ = std::strtoull(
            std::string(response.substr(kProposed.size())).c_str(), nullptr,
            10);
        ok = policy_id_ > 0;
      }
      break;
    }
    case Command::kPolicyValidate:
      ok = starts("version " + std::to_string(policy_id_) + " validated\n");
      break;
    case Command::kPolicyPromote:
      ok = starts("ok promoted version " + std::to_string(policy_id_) + " ");
      break;
    case Command::kPolicyRollback:
      ok = starts("ok rolled back to version ");
      break;
  }
  if (IsWrite(command_)) {
    if (policy_step_ > 0) {
      policy_step_ = policy_step_ == 4 ? 0 : policy_step_ + 1;
    } else if (session_ == 0 && spec_->policy_cycle_every > 0 &&
               ++writes_ % spec_->policy_cycle_every == 0) {
      policy_step_ = 1;
    }
  }
  if (ok) return {};
  return std::string(CommandName(command_)) + " '" +
         line_.substr(0, 80) + "' got '" +
         std::string(response.substr(0, 120)) + "'";
}

}  // namespace perfbench
