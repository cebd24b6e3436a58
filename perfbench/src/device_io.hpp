// Device-layer counters, measured from outside the library.
//
// The bench binary defines its own fsync, write and fwrite symbols
// (device_io.cpp). The dynamic linker binds the library's calls to them,
// so every byte the WAL and the checkpoint writer hand to the operating
// system, and every fsync with its duration, is counted here without a
// change to src/. The figures are the host's: page-cache writes and
// whatever fsync costs on its filesystem, not a storage device's.
#pragma once

#include <cstdint>

namespace perfbench {

struct DeviceCounters {
  uint64_t fsyncs = 0;
  uint64_t fsync_ns = 0;
  uint64_t bytes_written = 0;  ///< Bytes passed to write() and fwrite().
};

/// Totals since process start (all threads).
DeviceCounters ReadDeviceCounters();

/// Totals of the calling thread since it started.
DeviceCounters ReadThreadDeviceCounters();

/// a - b and a + b, field by field.
DeviceCounters operator-(const DeviceCounters& a, const DeviceCounters& b);
DeviceCounters operator+(const DeviceCounters& a, const DeviceCounters& b);

}  // namespace perfbench
