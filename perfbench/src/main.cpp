// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Runs the workload's iterations of its fixed seeded stream
// through SessionMux (the end-to-end metrics). With --trace 1 it runs
// only the first iteration through SessionMux and then replays that
// iteration's stream on one thread, calling each layer directly (the
// per-layer metrics). The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; a failed
// correctness gate exits 1 with correct=false and no metrics.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "runs.hpp"
#include "measure.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-work";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (key == "--trace") {
      args.trace = std::stoi(value);
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.seconds < 1 || (args.trace != 0 && args.trace != 1)) {
    throw std::invalid_argument("--seconds must be >= 1, --trace 0 or 1");
  }
  return args;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

/// The metrics BENCHMARK.json lists, with their units. --trace 0 prints
/// the end-to-end set, --trace 1 the per-layer set; a layer a workload
/// does not run reads 0.
constexpr std::pair<const char*, const char*> kEndToEnd[] = {
    {"ops_per_s", "1/s"},     {"read_p50_us", "us"},
    {"read_p99_us", "us"},    {"write_p50_us", "us"},
    {"write_p99_us", "us"},   {"setup_s", "s"},
    {"recover_s", "s"},       {"rss_mb", "MiB"},
    {"disk_bytes_per_write", "bytes"},
};

constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"snapshot.publish_us", "us"},
    {"snapshot.read_epoch_ratio", "ratio"},
    {"engine.drain_p50_us", "us"},
    {"engine.drain_p99_us", "us"},
    {"engine.deliveries_per_wave", "count"},
    {"engine.dedup_ratio", "ratio"},
    {"sharded.seeds_per_handoff", "count"},
    {"sharded.stolen_subwaves", "count"},
    {"sharded.ring_overflows", "count"},
    {"server.submit_us", "us"},
    {"server.checkin_us", "us"},
    {"wire.parse_us", "us"},
    {"wal.flush_us", "us"},
    {"wal.bytes_per_write", "bytes"},
    {"checkpoint.delta_us", "us"},
    {"checkpoint.full_us", "us"},
    {"checkpoint.delta_full_ratio", "ratio"},
    {"query.block_us", "us"},
    {"query.outofdate_us", "us"},
    {"query.report_us", "us"},
    {"query.blockers_us", "us"},
    {"viz.block_us", "us"},
    {"policy.shadow_wave_us", "us"},
    {"wire.dispatch_us", "us"},
    {"policy.promote_us", "us"},
    {"policy.rollback_us", "us"},
    {"mux.queue_wait_us", "us"},
    {"mux.busy_ratio", "ratio"},
    {"mux.retry_ratio", "ratio"},
    {"failed_ratio", "ratio"},
    {"dev.fsyncs_per_write", "count"},
    {"dev.bytes_per_write", "bytes"},
    {"dev.fsync_us_per_write", "us"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"count.engine.wave_deliveries", "count"},
    {"count.engine.property_writes", "count"},
    {"count.engine.waves_started", "count"},
    {"count.engine.events_processed", "count"},
    {"count.engine.links_carried", "count"},
    {"count.sharded.handoff_waves", "count"},
    {"count.wal.ops_logged", "count"},
    {"count.health.wal_failures", "count"},
    {"count.health.checkpoint_failures", "count"},
    {"count.health.failed_removals", "count"},
    {"count.mux.mutations_applied", "count"},
    {"count.db.live_objects", "count"},
    {"count.db.live_links", "count"},
    {"count.db.property_values", "count"},
    {"count.repeat_mismatches", "count"},
};

/// `{"name": {"value": v, "unit": u}, ...}` over `names`, in their order.
template <size_t N>
std::string MetricsJson(const std::pair<const char*, const char*> (&names)[N],
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, unit] : names) {
    const auto found = values.find(name);
    if (out.size() > 1) out += ", ";
    out += Quote(name) + ": {\"value\": " +
           Number(found == values.end() ? 0.0 : found->second) +
           ", \"unit\": " + Quote(unit) + "}";
  }
  return out + "}";
}

/// Iterations pool into groups of at least this many samples for a p99
/// (30 beyond it); a run with fewer samples makes one group.
constexpr size_t kTailSamples = 3000;

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  // The run is fixed work sized from --seconds, the same on every
  // commit, so state size and recovery input repeat from run to run.
  WorkloadSpec spec = *found;
  spec.iterations = std::max(1, spec.iterations * args.seconds / 10);
  // The per-layer set needs the mux run only for its queue-wait,
  // device and mux figures, which one iteration gives.
  const int iterations = args.trace == 1 ? 1 : spec.iterations;
  const ProjectShape shape = MakeShape(spec);
  std::filesystem::create_directories(args.work_dir);
  const std::string tag = spec.name + "-seed" + std::to_string(args.seed);
  const std::string wal_dir = args.work_dir + "/wal-" + tag;

  std::printf("{\"build\": {\"compiler\": %s, \"build_type\": %s, "
              "\"flags\": %s, \"nproc\": %ld}, \"workload\": %s, "
              "\"oids\": %zu, \"ops_per_session\": %zu, \"iterations\": %d}\n",
              Quote(PERFBENCH_COMPILER).c_str(),
              Quote(PERFBENCH_BUILD_TYPE).c_str(),
              Quote(PERFBENCH_CXX_FLAGS).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              Quote(spec.name).c_str(), shape.oids(), spec.ops_per_session,
              iterations);
  std::fflush(stdout);

  const std::vector<StreamPlan> plans = PlanRun(spec, shape, args.seed);
  std::vector<MuxIteration> runs;
  std::string error;
  for (int i = 0; i < iterations && error.empty(); ++i) {
    runs.push_back(RunMuxIteration(spec, shape,
                                   plans[static_cast<size_t>(i)], wal_dir));
    error = runs.back().error;
  }

  uint64_t attempted = 0, failed = 0, writes_attempted = 0, writes_acked = 0;
  uint64_t busy = 0, retries = 0, applied = 0, epochs = 0, read_epochs = 0;
  // Per iteration: throughput, latency samples by class, sizes.
  std::vector<double> iteration_ops, iteration_window_s, setup_s, recover_s,
      rss_mb, disk_per_write;
  std::vector<std::vector<double>> read_us, write_us;
  std::array<std::vector<double>, kCommandCount> command_us;
  size_t read_samples = 0, write_samples = 0;
  DeviceCounters device;
  for (const MuxIteration& it : runs) {
    attempted += it.attempted;
    failed += it.failed;
    writes_attempted += it.writes_attempted;
    writes_acked += it.writes_acked;
    busy += it.busy;
    retries += it.mux_retries;
    applied += it.mutations_applied;
    epochs += it.epochs_readable;
    read_epochs += it.read_epochs;
    iteration_window_s.push_back(it.window_s);
    iteration_ops.push_back(Ratio(static_cast<double>(it.attempted), it.window_s));
    rss_mb.push_back(it.rss_mb);
    read_us.emplace_back();
    write_us.emplace_back();
    for (size_t c = 0; c < command_us.size(); ++c) {
      const std::vector<double>& samples = it.command_us[c];
      command_us[c].insert(command_us[c].end(), samples.begin(), samples.end());
      std::vector<double>& pooled =
          IsWrite(static_cast<Command>(c)) ? write_us.back() : read_us.back();
      pooled.insert(pooled.end(), samples.begin(), samples.end());
    }
    setup_s.insert(setup_s.end(), it.setup_s.begin(), it.setup_s.end());
    recover_s.insert(recover_s.end(), it.recover_s.begin(), it.recover_s.end());
    disk_per_write.push_back(Ratio(static_cast<double>(it.wal_bytes),
                                   static_cast<double>(it.writes_acked)));
    read_samples += read_us.back().size();
    write_samples += write_us.back().size();
    device = device + it.device;
  }

  std::map<std::string, double> m;
  std::vector<double> read_p99s, write_p99s;  // One per group.
  if (error.empty()) {
    // Medians over iterations, so an iteration that met a slow spell of
    // the host moves a figure less. A p99 comes from groups of
    // iterations with at least kTailSamples samples each.
    std::vector<double> read_p50, write_p50;
    for (size_t i = 0; i < runs.size(); ++i) {
      read_p50.push_back(Percentile(read_us[i], 0.50));
      write_p50.push_back(Percentile(write_us[i], 0.50));
    }
    m["ops_per_s"] = Median(iteration_ops);
    m["read_p50_us"] = Median(read_p50);
    read_p99s = GroupPercentiles(read_us, 0.99, kTailSamples);
    write_p99s = GroupPercentiles(write_us, 0.99, kTailSamples);
    m["read_p99_us"] = Median(read_p99s);
    m["write_p50_us"] = Median(write_p50);
    m["write_p99_us"] = Median(write_p99s);
    m["setup_s"] = Median(setup_s);
    m["recover_s"] = Median(recover_s);
    m["rss_mb"] = Median(rss_mb);
    m["disk_bytes_per_write"] = Median(disk_per_write);
  }
  if (error.empty() && args.trace == 1) {
    // Spans off, on, off: the overhead compares the spans-on replay with
    // the mean of the two around it, so neither side is always first.
    const TracedResult off1 =
        RunTraced(spec, shape, plans[0], wal_dir, false, "");
    const TracedResult on = RunTraced(spec, shape, plans[0], wal_dir, true,
                                      args.work_dir + "/" + tag + "-spans.csv");
    const TracedResult off2 =
        RunTraced(spec, shape, plans[0], wal_dir, false, "");
    for (const TracedResult* traced : {&off1, &on, &off2}) {
      if (error.empty()) error = traced->error;
    }
    if (error.empty()) {
      m.insert(on.metrics.begin(), on.metrics.end());
      // The counters must repeat exactly across the three replays.
      double mismatches = 0;
      for (const auto& [name, value] : on.counters) {
        m[name] = value;
        if (off1.counters.at(name) != value || off2.counters.at(name) != value) {
          ++mismatches;
        }
      }
      m["count.repeat_mismatches"] = mismatches;
      m["trace.overhead_ratio"] =
          Ratio(on.stream_s, (off1.stream_s + off2.stream_s) / 2);

      // Queue wait: mux latency minus the traced apply time, per write
      // command, weighted by how often the mux run sent it.
      double wait_sum = 0.0, wait_n = 0.0;
      for (size_t c = 0; c < command_us.size(); ++c) {
        if (!IsWrite(static_cast<Command>(c)) || command_us[c].empty()) continue;
        const double n = static_cast<double>(command_us[c].size());
        wait_sum += n * (Median(command_us[c]) - on.apply_us[c]);
        wait_n += n;
      }
      m["mux.queue_wait_us"] = Ratio(wait_sum, wait_n);
      m["mux.busy_ratio"] = Ratio(static_cast<double>(busy),
                                  static_cast<double>(writes_attempted));
      m["mux.retry_ratio"] = Ratio(static_cast<double>(retries),
                                   static_cast<double>(writes_attempted));
      m["count.mux.mutations_applied"] = static_cast<double>(applied);
      m["failed_ratio"] =
          Ratio(static_cast<double>(failed), static_cast<double>(attempted));
      m["snapshot.read_epoch_ratio"] =
          Ratio(static_cast<double>(read_epochs), static_cast<double>(epochs));
      const double acked = static_cast<double>(writes_acked);
      m["dev.fsyncs_per_write"] = Ratio(static_cast<double>(device.fsyncs), acked);
      m["dev.bytes_per_write"] =
          Ratio(static_cast<double>(device.bytes_written), acked);
      m["dev.fsync_us_per_write"] =
          Ratio(static_cast<double>(device.fsync_ns) / 1e3, acked);
    }
  }
  std::filesystem::remove_all(wal_dir);

  const bool correct = error.empty();
  if (!correct) std::fprintf(stderr, "perfbench: correctness gate: %s\n", error.c_str());
  const auto list = [](const std::vector<double>& values) {
    std::string out;
    for (const double v : values) {
      if (!out.empty()) out += ", ";
      out += Number(v);
    }
    return "[" + out + "]";
  };
  std::printf("{\"samples\": {\"read\": %zu, \"write\": %zu}, "
              "\"group_p99_us\": {\"read\": %s, \"write\": %s}, "
              "\"window_s\": %s, \"ops_per_s\": %s, \"setup_s\": %s, "
              "\"recover_s\": %s, \"writes_acked\": %llu}\n",
              read_samples, write_samples, list(read_p99s).c_str(),
              list(write_p99s).c_str(), list(iteration_window_s).c_str(),
              list(iteration_ops).c_str(), list(setup_s).c_str(),
              list(recover_s).c_str(),
              static_cast<unsigned long long>(writes_acked));
  const std::string metrics = !correct          ? "{}"
                              : args.trace == 0 ? MetricsJson(kEndToEnd, m)
                                                : MetricsJson(kPerLayer, m);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed heap in the process, as a long-running server's heap
  // settles, and serve large blocks (snapshot clones) from it rather than
  // from fresh mmaps: faulting returned memory back in is slow and uneven
  // on a VM. Each iteration trims once, before its set-up.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
