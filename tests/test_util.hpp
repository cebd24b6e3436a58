// Shared helpers for the DAMOCLES/BluePrint test suite.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/file_system.hpp"
#include "engine/project_server.hpp"
#include "workload/edtc.hpp"

namespace damocles::testutil {

/// A project server with the EDTC blueprint installed.
inline std::unique_ptr<engine::ProjectServer> MakeEdtcServer(
    engine::ServerOptions options = {}) {
  auto server = std::make_unique<engine::ProjectServer>("edtc", options);
  server->InitializeBlueprint(workload::EdtcBlueprintText());
  return server;
}

/// Property value or "" when absent.
inline std::string Prop(const engine::ProjectServer& server,
                        const metadb::Oid& oid, const std::string& name) {
  const auto id = server.database().FindObject(oid);
  if (!id.has_value()) return "<no such oid>";
  const std::string* value = server.database().GetProperty(*id, name);
  return value == nullptr ? std::string() : *value;
}

/// Property of the latest version of (block, view), or "".
inline std::string LatestProp(const engine::ProjectServer& server,
                              const std::string& block,
                              const std::string& view,
                              const std::string& name) {
  const auto id = server.database().FindLatest(block, view);
  if (!id.has_value()) return "<no version>";
  const std::string* value = server.database().GetProperty(*id, name);
  return value == nullptr ? std::string() : *value;
}

/// A FileSystem that forwards to POSIX and records every mutating
/// operation in issue order, with the path it named and the file's
/// size after it. It can also fail chosen operations. Thread-safe.
class RecordingFileSystem final : public common::FileSystem {
 public:
  enum class Kind {
    kCreate, kAppend, kSync, kClose, kRename, kRemove, kTruncate,
    kSyncDirectory, kCreateDirectories,
  };
  struct Op {
    Kind kind = Kind::kCreate;
    std::string path;  ///< The rename target for kRename.
    uint64_t size = 0;  ///< File size after kCreate/kAppend/kRename.
  };

  std::vector<Op> ops() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ops_;
  }

  size_t Count(Kind kind) const {
    size_t count = 0;
    for (const Op& op : ops()) count += op.kind == kind ? 1 : 0;
    return count;
  }

  /// From now on every `kind` operation fails with `err` without
  /// reaching the disk; `err` = 0 disarms.
  void Fail(Kind kind, int err) {
    std::lock_guard<std::mutex> lock(mutex_);
    fail_kind_ = kind;
    fail_errno_ = err;
  }

  int ReadFile(const std::string& path, std::string& out,
               size_t max_bytes) override {
    return posix_.ReadFile(path, out, max_bytes);
  }
  int FileSize(const std::string& path, uint64_t& size) override {
    return posix_.FileSize(path, size);
  }
  int ListDirectory(const std::string& dir,
                    std::vector<std::string>& names) override {
    return posix_.ListDirectory(dir, names);
  }
  int Create(const std::string& path, int& handle) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const int err = Injected(Kind::kCreate)) return err;
    const int err = posix_.Create(path, handle);
    if (err == 0) {
      handles_[handle] = path;
      sizes_[path] = 0;
      ops_.push_back(Op{Kind::kCreate, path, 0});
    }
    return err;
  }
  int Append(int handle, const char* data, size_t size,
             size_t& written) override {
    std::lock_guard<std::mutex> lock(mutex_);
    written = 0;
    if (const int err = Injected(Kind::kAppend)) return err;
    const int err = posix_.Append(handle, data, size, written);
    const std::string& path = handles_[handle];
    uint64_t& file_size = sizes_[path];
    file_size += written;
    if (written > 0) ops_.push_back(Op{Kind::kAppend, path, file_size});
    return err;
  }
  int Sync(int handle) override {
    return Forward(Kind::kSync, PathOf(handle),
                   [&] { return posix_.Sync(handle); });
  }
  int Close(int handle) override {
    const std::string path = PathOf(handle);
    const int err = posix_.Close(handle);
    std::lock_guard<std::mutex> lock(mutex_);
    handles_.erase(handle);
    if (const int injected = Injected(Kind::kClose)) return injected;
    ops_.push_back(Op{Kind::kClose, path, 0});
    return err;
  }
  int Rename(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const int err = Injected(Kind::kRename)) return err;
    const int err = posix_.Rename(from, to);
    if (err == 0) {
      sizes_[to] = sizes_[from];
      sizes_.erase(from);
      ops_.push_back(Op{Kind::kRename, to, sizes_[to]});
    }
    return err;
  }
  int Remove(const std::string& path) override {
    return Forward(Kind::kRemove, path, [&] { return posix_.Remove(path); });
  }
  int Truncate(const std::string& path, uint64_t size) override {
    return Forward(Kind::kTruncate, path,
                   [&] { return posix_.Truncate(path, size); });
  }
  int SyncDirectory(const std::string& dir) override {
    return Forward(Kind::kSyncDirectory, dir,
                   [&] { return posix_.SyncDirectory(dir); });
  }
  int CreateDirectories(const std::string& dir) override {
    return Forward(Kind::kCreateDirectories, dir,
                   [&] { return posix_.CreateDirectories(dir); });
  }

 private:
  // Callers hold mutex_.
  int Injected(Kind kind) const {
    return fail_errno_ != 0 && fail_kind_ == kind ? fail_errno_ : 0;
  }

  std::string PathOf(int handle) {
    std::lock_guard<std::mutex> lock(mutex_);
    return handles_[handle];
  }

  template <typename Call>
  int Forward(Kind kind, const std::string& path, Call call) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const int err = Injected(kind)) return err;
    const int err = call();
    if (err == 0) ops_.push_back(Op{kind, path, 0});
    return err;
  }

  common::FileSystem& posix_ = common::PosixFileSystem();
  mutable std::mutex mutex_;
  std::vector<Op> ops_;
  std::map<int, std::string> handles_;
  std::map<std::string, uint64_t> sizes_;
  Kind fail_kind_ = Kind::kCreate;
  int fail_errno_ = 0;
};

}  // namespace damocles::testutil
