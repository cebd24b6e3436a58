// The two runs: the closed-loop SessionMux run that gives the
// end-to-end metrics, and the single-thread traced run that calls each
// layer's public function directly and gives the per-layer split.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "device_io.hpp"
#include "engine/session_mux.hpp"
#include "workload.hpp"

namespace perfbench {

/// One iteration of the closed-loop mux run: fresh project, the fixed
/// seeded streams of kSessions sessions, then the correctness gate.
struct MuxIteration {
  /// Latency samples (us) per command.
  std::array<std::vector<double>, kCommandCount> command_us;
  double window_s = 0.0;
  std::vector<double> setup_s;    ///< One per set-up.
  std::vector<double> recover_s;  ///< One per restart.
  double rss_mb = 0.0;  ///< Peak resident set during the window.
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< busy:/timeout:/degraded:/error: responses.
  uint64_t writes_attempted = 0;
  uint64_t writes_acked = 0;
  uint64_t busy = 0;
  uint64_t mux_retries = 0;       ///< Mux waits for queue space.
  uint64_t mutations_applied = 0;  ///< Mux apply-thread count.
  uint64_t epochs_readable = 0;  ///< Epochs a read could answer from.
  uint64_t read_epochs = 0;  ///< Distinct epochs some read answered from.
  uint64_t wal_bytes = 0;
  DeviceCounters device;
  std::string error;  ///< Non-empty when the correctness gate failed.
};

MuxIteration RunMuxIteration(const WorkloadSpec& spec,
                             const ProjectShape& shape, const StreamPlan& plan,
                             const std::string& wal_dir);

/// Replays `log` in order through WireSession into a fresh 1-shard
/// server without a WAL. Returns an error text, or empty when the
/// replay's dump equals `live_dump` and, with `check_responses`, every
/// response equals the logged one.
std::string CheckSerialReplay(
    const WorkloadSpec& spec, const ProjectShape& shape,
    const std::vector<damocles::engine::MuxLogEntry>& log,
    bool check_responses, const std::string& live_dump);

/// Per-layer figures of one traced replay of a stream.
struct TracedResult {
  std::map<std::string, double> metrics;
  /// Exact-repeat counters (stats structs read after the stream).
  std::map<std::string, double> counters;
  /// Median traced apply time per write command (queue-wait base).
  std::array<double, kCommandCount> apply_us{};
  double stream_s = 0.0;  ///< Wall time of the stream loop.
  std::string error;
};

/// Replays the streams of `plan` round-robin on one thread.
/// With `spans` on, each layer call records a span; `spans_path`
/// (non-empty) receives them as CSV at the end.
TracedResult RunTraced(const WorkloadSpec& spec, const ProjectShape& shape,
                       const StreamPlan& plan, const std::string& wal_dir,
                       bool spans, const std::string& spans_path);

}  // namespace perfbench
