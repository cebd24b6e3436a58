#include "device_io.hpp"

#include <dlfcn.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>

namespace {

std::atomic<uint64_t> g_fsyncs{0};
std::atomic<uint64_t> g_fsync_ns{0};
std::atomic<uint64_t> g_bytes{0};
// The same counts for the calling thread alone.
thread_local perfbench::DeviceCounters t_counters;

using FwriteFn = size_t (*)(const void*, size_t, size_t, FILE*);

FwriteFn RealFwrite() {
  static const FwriteFn real =
      reinterpret_cast<FwriteFn>(dlsym(RTLD_NEXT, "fwrite"));
  return real;
}

}  // namespace

// Interposed libc entry points. write and fsync forward straight to the
// system call; fwrite forwards to the next definition (libc's), whose
// own buffered flushes use libc-internal write and are not counted twice.
extern "C" int fsync(int fd) {
  const auto start = std::chrono::steady_clock::now();
  const long rc = syscall(SYS_fsync, fd);
  const auto ns =
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  g_fsync_ns.fetch_add(ns, std::memory_order_relaxed);
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  t_counters.fsync_ns += ns;
  ++t_counters.fsyncs;
  return static_cast<int>(rc);
}

extern "C" ssize_t write(int fd, const void* data, size_t size) {
  const long rc = syscall(SYS_write, fd, data, size);
  if (rc > 0) {
    g_bytes.fetch_add(static_cast<uint64_t>(rc), std::memory_order_relaxed);
    t_counters.bytes_written += static_cast<uint64_t>(rc);
  }
  return static_cast<ssize_t>(rc);
}

extern "C" size_t fwrite(const void* data, size_t size, size_t count,
                         FILE* file) {
  const size_t done = RealFwrite()(data, size, count, file);
  g_bytes.fetch_add(static_cast<uint64_t>(done * size), std::memory_order_relaxed);
  t_counters.bytes_written += static_cast<uint64_t>(done * size);
  return done;
}

namespace perfbench {

DeviceCounters ReadDeviceCounters() {
  DeviceCounters c;
  c.fsyncs = g_fsyncs.load(std::memory_order_relaxed);
  c.fsync_ns = g_fsync_ns.load(std::memory_order_relaxed);
  c.bytes_written = g_bytes.load(std::memory_order_relaxed);
  return c;
}

DeviceCounters ReadThreadDeviceCounters() { return t_counters; }

DeviceCounters operator-(const DeviceCounters& a, const DeviceCounters& b) {
  return DeviceCounters{a.fsyncs - b.fsyncs, a.fsync_ns - b.fsync_ns,
                        a.bytes_written - b.bytes_written};
}

DeviceCounters operator+(const DeviceCounters& a, const DeviceCounters& b) {
  return DeviceCounters{a.fsyncs + b.fsyncs, a.fsync_ns + b.fsync_ns,
                        a.bytes_written + b.bytes_written};
}

}  // namespace perfbench
