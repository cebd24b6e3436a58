// Closed-loop load through SessionMux::Session::Execute.
//
// kSessions threads each own one session and send their next line only
// after the previous reply arrived, the way a designer or a tool wrapper
// waits. Latency is the Execute call. After the window the gate checks
// the run: a serial replay of the mux mutation log into a fresh 1-shard
// server must reproduce every response and the database dump, and a
// server recovered from the run's WAL directory must hold the same dump.
#include <malloc.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "runs.hpp"
#include "engine/session_mux.hpp"
#include "measure.hpp"
#include "metadb/persistence.hpp"

namespace perfbench {

using damocles::engine::MuxLogEntry;
using damocles::engine::ProjectServer;
using damocles::engine::SessionMux;
using damocles::engine::WireSession;

namespace {

/// Set-ups and restarts repeat within an iteration until this much time
/// is spent (at least once, at most kMaxRepeats times), so short ones
/// get enough samples for a steady median.
constexpr double kRepeatSeconds = 0.3;
constexpr int kMaxRepeats = 8;

bool RepeatAgain(const std::vector<double>& samples) {
  double spent = 0.0;
  for (double s : samples) spent += s;
  return samples.size() < kMaxRepeats && spent < kRepeatSeconds;
}

bool IsFailure(const std::string& response) {
  for (const char* prefix : {"busy:", "timeout:", "degraded:", "error:"}) {
    if (response.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// What one session thread measured.
struct SessionLog {
  std::vector<std::pair<Command, double>> latencies;
  std::set<uint64_t> read_epochs;
  uint64_t failed = 0;
  std::string error;
};

void RunSession(SessionMux& mux, SessionStream& stream, int session,
                const std::atomic<bool>& go, SessionLog& out) {
  auto connection = mux.Connect(UserOf(session));
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  while (!stream.done()) {
    const std::string& line = stream.Next();
    const int64_t start = NowNs();
    const std::string response = connection->Execute(line);
    const double us = static_cast<double>(NowNs() - start) / 1e3;
    out.latencies.emplace_back(stream.command(), us);
    if (!IsWrite(stream.command())) {
      out.read_epochs.insert(connection->last_read_epoch());
    }
    if (IsFailure(response)) ++out.failed;
    std::string wrong = stream.Accept(response);
    if (!wrong.empty() && out.error.empty()) {
      out.error = "session " + std::to_string(session) + ": " + wrong;
    }
  }
}

}  // namespace

MuxIteration RunMuxIteration(const WorkloadSpec& spec,
                             const ProjectShape& shape, const StreamPlan& plan,
                             const std::string& wal_dir) {
  MuxIteration it;
  const std::string work_dir =
      std::filesystem::path(wal_dir).parent_path().string();
  std::filesystem::remove_all(wal_dir);
  damocles::policy::PolicyEngine policy = MakeSignoffPolicy();
  const damocles::engine::ServerOptions options =
      MakeServerOptions(spec, wal_dir);

  // Start every iteration from the same heap: hand what earlier
  // iterations freed back to the OS, so the window's peak resident set
  // is this iteration's own. Within the iteration freed blocks stay in
  // the heap (see main), and the window reuses the set-up's.
  malloc_trim(0);
  // The last set-up serves the run.
  std::unique_ptr<ProjectServer> server;
  while (RepeatAgain(it.setup_s)) {
    server.reset();
    std::filesystem::remove_all(wal_dir);
    SettleDisk(work_dir);
    const int64_t start = NowNs();
    server = std::make_unique<ProjectServer>("bench", options);
    SetUpProject(spec, shape, *server, spec.signoff_policy ? &policy : nullptr,
                 false);
    it.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  SettleDisk(work_dir);
  std::vector<SessionStream> streams = MakeStreams(spec, shape, plan);
  std::array<SessionLog, kSessions> logs;
  std::vector<MuxLogEntry> mutation_log;
  {
    SessionMux mux(*server);
    const uint64_t first_epoch = mux.head_epoch();
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back(RunSession, std::ref(mux),
                           std::ref(streams[static_cast<size_t>(s)]), s,
                           std::cref(go), std::ref(logs[static_cast<size_t>(s)]));
    }
    const DeviceCounters device_start = ReadDeviceCounters();
    ResetPeakRss();
    const int64_t start = NowNs();
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
    it.window_s = static_cast<double>(NowNs() - start) / 1e9;
    it.device = ReadDeviceCounters() - device_start;
    // Readers may answer from the epoch current at the start and from
    // every epoch published during the window.
    it.epochs_readable = mux.head_epoch() - first_epoch + 1;
    it.rss_mb = PeakRssMb();  // Live state, clones and snapshot history.
    it.busy = mux.busy_rejections();
    it.mux_retries = mux.mutation_retries();
    it.mutations_applied = mux.mutations_applied();
    mutation_log = mux.MutationLog();
  }

  std::set<uint64_t> read_epochs;
  for (const SessionLog& log : logs) {
    for (const auto& [command, us] : log.latencies) {
      ++it.attempted;
      it.command_us[static_cast<size_t>(command)].push_back(us);
      if (IsWrite(command)) ++it.writes_attempted;
    }
    it.failed += log.failed;
    read_epochs.insert(log.read_epochs.begin(), log.read_epochs.end());
    if (it.error.empty()) it.error = log.error;
  }
  it.read_epochs = read_epochs.size();
  for (const MuxLogEntry& entry : mutation_log) {
    if (!IsFailure(entry.response)) ++it.writes_acked;
  }

  if (it.error.empty() && server->GetHealth().degraded) {
    it.error = "server degraded: " + server->GetHealth().reason;
  }
  const std::string live_dump =
      damocles::metadb::SaveDatabaseString(server->database());
  server.reset();  // Clean shutdown: joins the checkpoint worker, flushes.
  it.wal_bytes = DirBytes(wal_dir);

  // Each restart recovers a fresh copy of the run's WAL directory, so
  // every restart reads the same input.
  const std::string copy_dir = wal_dir + "-restart";
  damocles::engine::ServerOptions restart = options;
  restart.wal_dir = copy_dir;
  while (it.error.empty() && RepeatAgain(it.recover_s)) {
    std::filesystem::remove_all(copy_dir);
    std::filesystem::copy(wal_dir, copy_dir,
                          std::filesystem::copy_options::recursive);
    SettleDisk(work_dir);
    const int64_t start = NowNs();
    ProjectServer recovered("bench", restart);
    it.recover_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (damocles::metadb::SaveDatabaseString(recovered.database()) !=
        live_dump) {
      it.error = "server recovered from the WAL differs from the live dump";
    }
  }
  std::filesystem::remove_all(copy_dir);
  std::filesystem::remove_all(wal_dir);
  SettleDisk(work_dir);
  if (it.error.empty()) {
    it.error = CheckSerialReplay(spec, shape, mutation_log, true, live_dump);
  }
  return it;
}

std::string CheckSerialReplay(const WorkloadSpec& spec,
                              const ProjectShape& shape,
                              const std::vector<MuxLogEntry>& log,
                              bool check_responses,
                              const std::string& live_dump) {
  WorkloadSpec serial = spec;
  serial.shards = 1;
  damocles::policy::PolicyEngine policy = MakeSignoffPolicy();
  ProjectServer replay("bench", MakeServerOptions(serial, ""));
  SetUpProject(serial, shape, replay, spec.signoff_policy ? &policy : nullptr,
               false);
  std::map<std::string, std::unique_ptr<WireSession>> sessions;
  for (const MuxLogEntry& entry : log) {
    auto& session = sessions[entry.user];
    if (session == nullptr) {
      session = std::make_unique<WireSession>(replay, entry.user);
    }
    const std::string response = session->HandleLine(entry.line);
    if (check_responses && response != entry.response) {
      return "replay diverged at seq " + std::to_string(entry.seq) + ": '" +
             entry.line.substr(0, 80) + "' gave '" + response.substr(0, 80) +
             "', mux gave '" + entry.response.substr(0, 80) + "'";
    }
  }
  if (damocles::metadb::SaveDatabaseString(replay.database()) != live_dump) {
    return "serial replay dump differs from the live server's";
  }
  return {};
}

}  // namespace perfbench
