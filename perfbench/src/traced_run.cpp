// Single-thread traced replay: the per-layer split.
//
// The streams of one iteration are replayed round-robin (session 0, 1,
// 2, 0, ...) on one thread. Each line calls the layers' public functions
// directly, in the order the mux apply thread reaches them for a wire
// line, and each call records a span {name, start, end, op}:
//
//   write: events::ParseWireEvent -> ProjectServer::Submit / CheckIn
//          (auto_drain off) -> ShardedEngine::Drain / ProcessAll ->
//          ProjectServer::Drain (only FlushWal is left) ->
//          MetaDatabase::PublishSnapshot -> WalCheckpoint(kDelta) at the
//          workload's cadence; policy lines call PolicyPropose/Validate/
//          Promote/Rollback and publish.
//   read:  the query/report/viz/shadow-wave call on the latest published
//          snapshot, then WireSession::HandleLine on the same line, then
//          the call again; HandleLine minus the second call is the wire
//          dispatch cost.
//
// Spans stay in memory and are written out at the end.
#include <cstdio>
#include <filesystem>
#include <memory>

#include "blueprint/parser.hpp"
#include "runs.hpp"
#include "engine/wire_session.hpp"
#include "events/wire.hpp"
#include "measure.hpp"
#include "metadb/persistence.hpp"
#include "policy/shadow_wave.hpp"
#include "query/query.hpp"
#include "query/report.hpp"
#include "viz/flow_viz.hpp"

namespace perfbench {

using damocles::engine::CheckpointMode;
using damocles::engine::ProjectServer;

namespace {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint32_t op;
};

/// Span recorder; with spans off it only runs the calls.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  template <typename Fn>
  decltype(auto) Time(const char* name, uint32_t op, Fn&& fn) {
    if (!on_) return fn();
    const int64_t start = NowNs();
    struct Close {
      Tracer* self;
      const char* name;
      int64_t start;
      uint32_t op;
      ~Close() { self->spans_.push_back({name, start, NowNs(), op}); }
    } close{this, name, start, op};
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

std::map<std::string, std::vector<double>> DurationsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& span : spans) {
    out[span.name].push_back(static_cast<double>(span.end_ns - span.start_ns) /
                             1e3);
  }
  return out;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  std::fprintf(file, "op,name,start_ns,end_ns\n");
  const int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) {
    std::fprintf(file, "%u,%s,%lld,%lld\n", span.op, span.name,
                 static_cast<long long>(span.start_ns - base),
                 static_cast<long long>(span.end_ns - base));
  }
  std::fclose(file);
}

const char* ReadSpanName(Command command) {
  switch (command) {
    case Command::kQueryBlock: return "query.block";
    case Command::kVizBlock: return "viz.block";
    case Command::kQueryOutOfDate: return "query.outofdate";
    case Command::kBlockers: return "query.blockers";
    case Command::kReport: return "query.report";
    default: return "policy.shadow_wave";
  }
}

/// The read command's layer call, without the wire formatting.
size_t DirectRead(const ProjectServer& server, const SessionStream& stream,
                  const damocles::metadb::Snapshot& snap) {
  namespace query = damocles::query;
  switch (stream.command()) {
    case Command::kQueryBlock:
      return query::ProjectQuery(snap).FindByBlock(stream.block()).size();
    case Command::kVizBlock:
      return damocles::viz::RenderBlockState(snap, stream.block()).size();
    case Command::kQueryOutOfDate:
      return query::ProjectQuery(snap).OutOfDate().size();
    case Command::kBlockers:
      return query::ProjectQuery(snap)
          .DistanceToPlannedState({{"state", "true"}}, {})
          .size();
    case Command::kReport:
      return query::BuildProjectReport(snap).rows.size();
    default: {
      size_t pos = std::string("shadow-wave ").size();
      const uint64_t id = std::stoull(NextWord(stream.line(), pos));
      const damocles::policy::PolicyVersion version =
          server.policy_store().Get(id);
      return damocles::policy::TraceShadowWave(
                 snap.db(),
                 damocles::blueprint::ParseBlueprint(version.blueprint_text),
                 id, "outofdate", damocles::events::Direction::kDown,
                 damocles::metadb::Oid{stream.block(), "view_0",
                                       stream.version()},
                 {})
          .paths.size();
    }
  }
}

struct Counters {
  damocles::engine::EngineStats engine;
  damocles::engine::ShardedStats sharded;
  uint64_t ops_logged = 0;
};

Counters ReadCounters(const ProjectServer& server) {
  Counters c;
  if (server.is_sharded()) {
    c.engine = server.sharded_engine()->AggregateEngineStats();
    c.sharded = server.sharded_engine()->stats();
  } else {
    c.engine = server.engine().stats();
  }
  c.ops_logged = server.GetWalStatus().ops_logged;
  return c;
}

}  // namespace

TracedResult RunTraced(const WorkloadSpec& spec, const ProjectShape& shape,
                       const StreamPlan& plan, const std::string& wal_dir,
                       bool spans, const std::string& spans_path) {
  TracedResult result;
  std::filesystem::remove_all(wal_dir);
  damocles::policy::PolicyEngine policy = MakeSignoffPolicy();
  damocles::engine::ServerOptions options = MakeServerOptions(spec, wal_dir);
  options.auto_drain = false;
  options.checkpoint_every_ops = 0;  // Checkpoints are called below.
  auto server = std::make_unique<ProjectServer>("bench", options);
  SetUpProject(spec, shape, *server, spec.signoff_policy ? &policy : nullptr,
               true);
  server->WalCheckpoint(CheckpointMode::kFull);  // Base of the delta chain.
  server->database().PublishSnapshot();
  SettleDisk(std::filesystem::path(wal_dir).parent_path().string());

  std::vector<SessionStream> streams = MakeStreams(spec, shape, plan);
  std::vector<std::unique_ptr<damocles::engine::WireSession>> readers;
  for (int s = 0; s < kSessions; ++s) {
    readers.push_back(
        std::make_unique<damocles::engine::WireSession>(*server, UserOf(s)));
    readers.back()->set_snapshot_reads(true);
  }
  // Mutations in apply order, for the serial wire replay below.
  std::vector<damocles::engine::MuxLogEntry> applied;

  Tracer tracer(spans);
  std::vector<double> dispatch_us;
  std::array<std::vector<double>, kCommandCount> apply_us;
  std::vector<double> delta_us;
  size_t writes = 0;
  uint32_t op = 0;
  const Counters before = ReadCounters(*server);
  // I/O this thread hands the OS outside checkpoint calls is WAL I/O:
  // op appends, row appends and FlushWal. Checkpoint I/O (and anything a
  // background checkpoint worker writes) stays out.
  const DeviceCounters io_start = ReadThreadDeviceCounters();
  DeviceCounters checkpoint_io;
  const int64_t stream_start = NowNs();
  int64_t op_ns_total = 0;

  for (bool any = true; any && result.error.empty();) {
    any = false;
    for (int s = 0; s < kSessions && result.error.empty(); ++s) {
      SessionStream& stream = streams[static_cast<size_t>(s)];
      if (stream.done()) continue;
      any = true;
      const std::string& line = stream.Next();
      const Command command = stream.command();
      const std::string user = UserOf(s);
      ++op;
      const int64_t op_start = NowNs();
      std::string response;
      if (!IsWrite(command)) {
        // The layer call first, as the mux meets it; then the wire line,
        // then the layer call again, so the dispatch difference compares
        // two calls that both find the data in cache.
        const auto snap = server->database().Latest();
        tracer.Time(ReadSpanName(command), op,
                    [&] { return DirectRead(*server, stream, snap); });
        const int64_t wire_start = NowNs();
        response = tracer.Time("wire.read", op, [&] {
          return readers[static_cast<size_t>(s)]->HandleLine(line);
        });
        const int64_t wire_end = NowNs();
        tracer.Time("wire.baseline", op,
                    [&] { return DirectRead(*server, stream, snap); });
        dispatch_us.push_back(
            static_cast<double>((wire_end - wire_start) - (NowNs() - wire_end)) /
            1e3);
      } else {
        applied.push_back({op, user, line, "", 0});
        bool drains = true;
        switch (command) {
          case Command::kResultPost:
          case Command::kCkinPost: {
            damocles::events::EventMessage event = tracer.Time(
                "wire.parse", op,
                [&] { return damocles::events::ParseWireEvent(line); });
            event.user = user;
            tracer.Time("server.submit", op,
                        [&] { server->Submit(std::move(event)); });
            response = "ok\n";
            break;
          }
          case Command::kLeafCheckin: {
            const damocles::metadb::Oid oid =
                tracer.Time("server.checkin", op, [&] {
                  return server->CheckIn(stream.block(), stream.view(),
                                         stream.content(), user);
                });
            response = "ok " + damocles::metadb::FormatOidWire(oid) + "\n";
            break;
          }
          case Command::kPolicyPropose: {
            const uint64_t id = tracer.Time("policy.propose", op, [&] {
              return server->PolicyPropose(stream.content(), user,
                                           "sign-off cycle");
            });
            response = "ok proposed version " + std::to_string(id) + "\n";
            drains = false;
            break;
          }
          case Command::kPolicyValidate: {
            tracer.Time("policy.validate", op, [&] {
              return server->PolicyValidate(stream.policy_id());
            });
            response =
                "version " + std::to_string(stream.policy_id()) + " " +
                damocles::policy::PolicyVersionStatusName(
                    server->policy_store().Get(stream.policy_id()).status) +
                "\n";
            drains = false;
            break;
          }
          case Command::kPolicyPromote: {
            const auto version = tracer.Time("policy.promote", op, [&] {
              return server->PolicyPromote(stream.policy_id());
            });
            response = "ok promoted version " + std::to_string(version.id) + " ";
            drains = false;
            break;
          }
          default: {
            const auto version = tracer.Time(
                "policy.rollback", op, [&] { return server->PolicyRollback(); });
            response =
                "ok rolled back to version " + std::to_string(version.id) + " ";
            drains = false;
            break;
          }
        }
        if (drains) {
          tracer.Time("engine.drain", op, [&] {
            return server->is_sharded() ? server->sharded_engine()->Drain()
                                        : server->engine().ProcessAll();
          });
          tracer.Time("wal.flush", op, [&] { return server->Drain(); });
        }
        tracer.Time("snapshot.publish", op,
                    [&] { return server->database().PublishSnapshot(); });
        ++writes;
        if (spec.checkpoint_every_ops > 0 &&
            writes % spec.checkpoint_every_ops == 0) {
          const DeviceCounters io_before = ReadThreadDeviceCounters();
          const int64_t start = NowNs();
          tracer.Time("checkpoint.cadence", op, [&] {
            return server->WalCheckpoint(CheckpointMode::kDelta);
          });
          const int64_t end = NowNs();
          checkpoint_io =
              checkpoint_io + (ReadThreadDeviceCounters() - io_before);
          if (server->GetWalStatus().last_checkpoint_delta) {
            delta_us.push_back(static_cast<double>(end - start) / 1e3);
          }
        }
      }
      const int64_t op_ns = NowNs() - op_start;
      op_ns_total += op_ns;
      if (IsWrite(command)) {
        apply_us[static_cast<size_t>(command)].push_back(
            static_cast<double>(op_ns) / 1e3);
      }
      std::string wrong = stream.Accept(response);
      if (!wrong.empty()) result.error = "traced " + wrong;
    }
  }
  result.stream_s = static_cast<double>(NowNs() - stream_start) / 1e9;
  const DeviceCounters wal_io =
      (ReadThreadDeviceCounters() - io_start) - checkpoint_io;
  const Counters after = ReadCounters(*server);
  const damocles::engine::ServerHealth health = server->GetHealth();
  if (result.error.empty() && health.degraded) {
    result.error = "traced server degraded: " + health.reason;
  }
  if (!result.error.empty()) return result;

  // One delta and one full checkpoint at the end.
  const int64_t delta_start = NowNs();
  server->WalCheckpoint(CheckpointMode::kDelta);
  const double end_delta_us = static_cast<double>(NowNs() - delta_start) / 1e3;
  if (server->GetWalStatus().last_checkpoint_delta) {
    delta_us.push_back(end_delta_us);
  }
  const int64_t full_start = NowNs();
  server->WalCheckpoint(CheckpointMode::kFull);
  const double full_us = static_cast<double>(NowNs() - full_start) / 1e3;

  // Gate: the direct layer calls must leave the same state as the same
  // lines sent serially through WireSession on a fresh 1-shard server.
  result.error = CheckSerialReplay(
      spec, shape, applied, false,
      damocles::metadb::SaveDatabaseString(server->database()));
  if (!result.error.empty()) {
    result.error = "traced run: " + result.error;
    return result;
  }

  // --- Per-layer figures ---------------------------------------------------
  auto& m = result.metrics;
  const auto durations = DurationsByName(tracer.spans());
  const auto median_of = [&](const char* name) {
    const auto found = durations.find(name);
    return found == durations.end() ? 0.0 : Median(found->second);
  };
  const auto p99_of = [&](const char* name) {
    const auto found = durations.find(name);
    return found == durations.end() ? 0.0 : Percentile(found->second, 0.99);
  };
  m["snapshot.publish_us"] = median_of("snapshot.publish");
  m["engine.drain_p50_us"] = median_of("engine.drain");
  m["engine.drain_p99_us"] = p99_of("engine.drain");
  m["server.submit_us"] = median_of("server.submit");
  m["server.checkin_us"] = median_of("server.checkin");
  m["wire.parse_us"] = median_of("wire.parse");
  m["wal.flush_us"] = median_of("wal.flush");
  m["query.block_us"] = median_of("query.block");
  m["query.outofdate_us"] = median_of("query.outofdate");
  m["query.report_us"] = median_of("query.report");
  m["query.blockers_us"] = median_of("query.blockers");
  m["viz.block_us"] = median_of("viz.block");
  m["policy.shadow_wave_us"] = median_of("policy.shadow_wave");
  m["policy.promote_us"] = median_of("policy.promote");
  m["policy.rollback_us"] = median_of("policy.rollback");
  m["wire.dispatch_us"] = Median(dispatch_us);

  const double w = static_cast<double>(writes);
  m["wal.bytes_per_write"] = Ratio(static_cast<double>(wal_io.bytes_written), w);
  m["checkpoint.delta_us"] = delta_us.empty() ? 0.0 : delta_us.back();
  m["checkpoint.full_us"] = full_us;
  m["checkpoint.delta_full_ratio"] = Ratio(m["checkpoint.delta_us"], full_us);

  const auto& e0 = before.engine;
  const auto& e1 = after.engine;
  const double deliveries =
      static_cast<double>(e1.wave_deliveries - e0.wave_deliveries);
  const double dedup =
      static_cast<double>(e1.dedup_suppressed - e0.dedup_suppressed);
  m["engine.deliveries_per_wave"] = Ratio(
      deliveries, static_cast<double>(e1.waves_started - e0.waves_started));
  m["engine.dedup_ratio"] = Ratio(dedup, deliveries + dedup);
  const auto& s0 = before.sharded;
  const auto& s1 = after.sharded;
  m["sharded.seeds_per_handoff"] =
      Ratio(static_cast<double>(s1.handoff_seeds - s0.handoff_seeds),
            static_cast<double>(s1.handoff_waves - s0.handoff_waves));
  m["sharded.stolen_subwaves"] =
      static_cast<double>(s1.stolen_subwaves - s0.stolen_subwaves);
  m["sharded.ring_overflows"] =
      static_cast<double>(s1.ring_overflows - s0.ring_overflows);

  // Counters that depend only on the stream and the apply order.
  auto& c = result.counters;
  c["count.engine.wave_deliveries"] = deliveries;
  c["count.engine.property_writes"] =
      static_cast<double>(e1.property_writes - e0.property_writes);
  c["count.engine.waves_started"] =
      static_cast<double>(e1.waves_started - e0.waves_started);
  c["count.engine.events_processed"] =
      static_cast<double>(e1.events_processed - e0.events_processed);
  c["count.engine.links_carried"] =
      static_cast<double>(e1.links_carried - e0.links_carried);
  c["count.wal.ops_logged"] =
      static_cast<double>(after.ops_logged - before.ops_logged);
  const damocles::metadb::DatabaseStats db = server->database().Stats();
  c["count.db.live_objects"] = static_cast<double>(db.live_objects);
  c["count.db.live_links"] = static_cast<double>(db.live_links);
  c["count.db.property_values"] = static_cast<double>(db.property_values);
  c["count.sharded.handoff_waves"] =
      static_cast<double>(s1.handoff_waves - s0.handoff_waves);
  c["count.health.wal_failures"] = static_cast<double>(health.wal_failures);
  c["count.health.checkpoint_failures"] =
      static_cast<double>(health.checkpoint_failures);
  c["count.health.failed_removals"] =
      static_cast<double>(health.failed_removals);

  for (size_t i = 0; i < apply_us.size(); ++i) {
    result.apply_us[i] = Median(apply_us[i]);
  }
  double span_ns = 0.0;
  for (const Span& span : tracer.spans()) {
    span_ns += static_cast<double>(span.end_ns - span.start_ns);
  }
  m["trace.coverage"] = Ratio(span_ns, static_cast<double>(op_ns_total));
  if (spans && !spans_path.empty()) WriteSpans(tracer.spans(), spans_path);
  server.reset();
  std::filesystem::remove_all(wal_dir);
  return result;
}

}  // namespace perfbench
