// Small measurement helpers shared by the two runs.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

/// Median that averages the two middle values of an even-sized sample;
/// 0 for an empty one.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Percentile q of each group of consecutive iterations: iterations
/// are pooled until a group holds at least `min_samples` samples (a
/// short last group joins the one before it). The median of the
/// returned figures is the reported one, so with enough samples per
/// iteration a slow iteration moves one group, not the whole figure.
inline std::vector<double> GroupPercentiles(
    const std::vector<std::vector<double>>& per_iteration, double q,
    size_t min_samples) {
  std::vector<std::vector<double>> pooled;
  for (const std::vector<double>& samples : per_iteration) {
    if (pooled.empty() || pooled.back().size() >= min_samples) {
      pooled.emplace_back();
    }
    pooled.back().insert(pooled.back().end(), samples.begin(), samples.end());
  }
  if (pooled.size() > 1 && pooled.back().size() < min_samples) {
    pooled[pooled.size() - 2].insert(pooled[pooled.size() - 2].end(),
                                     pooled.back().begin(),
                                     pooled.back().end());
    pooled.pop_back();
  }
  std::vector<double> figures;
  for (const std::vector<double>& samples : pooled) {
    figures.push_back(Percentile(samples, q));
  }
  return figures;
}

/// Resets this process's peak resident set (VmHWM) to the current one.
/// Where /proc/self/clear_refs cannot be written, the peak stays the
/// process's lifetime peak.
inline void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// Peak resident set of this process since the last ResetPeakRss(), in
/// MiB (VmHWM).
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Bytes of all regular files under `dir`.
inline uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

/// Writes back the dirty data of the filesystem holding `dir` and
/// commits its pending deletes, so buffered WAL bytes and freed blocks
/// from an earlier step are not flushed during a later timed one.
inline void SettleDisk(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

}  // namespace perfbench
