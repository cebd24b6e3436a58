// The file-I/O layer under the durable state: WAL segments, checkpoint
// files, manifests and the garbage collection over them.
//
// Operations return 0 or the errno value of the failing step; callers
// turn it into their own error (WalIoError on the append path, Error
// for checkpoints) or count it (garbage collection). PosixFileSystem()
// is the production implementation and checks every return value,
// close included. Tests wrap it to record or fail operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace damocles::common {

/// The message for `errno_value` ("No space left on device"), owned by
/// the caller. Safe from any thread, unlike std::strerror, which the
/// WAL writer and the background checkpoint thread would race on.
/// Unknown values format as "errno <n>".
std::string ErrnoString(int errno_value);

/// A `<prefix><digits><suffix>` file and the number its digits spell.
struct NumberedFile {
  uint64_t number = 0;
  std::string path;
};

/// Whether `name` is `<prefix><digits><suffix>`; sets `number` if so.
bool ParseNumberedName(std::string_view name, std::string_view prefix,
                       std::string_view suffix, uint64_t& number);

/// `<prefix><number><suffix>`, the number zero-padded to six digits.
std::string NumberedFileName(std::string_view prefix, uint64_t number,
                             std::string_view suffix);

/// Tally of a garbage-collection pass.
struct RemovalStats {
  size_t files_removed = 0;
  size_t failed_removals = 0;  ///< The disk those files hold is leaked.
  uint64_t bytes_removed = 0;  ///< Where the caller knew the sizes.
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// The whole file, or only its first `max_bytes`.
  [[nodiscard]] virtual int ReadFile(const std::string& path, std::string& out,
                                     size_t max_bytes = SIZE_MAX) = 0;
  [[nodiscard]] virtual int FileSize(const std::string& path,
                                     uint64_t& size) = 0;
  /// Names of the regular files in `dir`, in no order.
  [[nodiscard]] virtual int ListDirectory(const std::string& dir,
                                          std::vector<std::string>& names) = 0;

  /// Creates (or truncates) `path`; `handle` names it to the next three.
  [[nodiscard]] virtual int Create(const std::string& path, int& handle) = 0;
  /// `written` counts the bytes that reached the file; it is below
  /// `size` exactly when the append fails.
  [[nodiscard]] virtual int Append(int handle, const char* data, size_t size,
                                   size_t& written) = 0;
  [[nodiscard]] virtual int Sync(int handle) = 0;
  /// Releases `handle` even when it reports an error.
  [[nodiscard]] virtual int Close(int handle) = 0;

  [[nodiscard]] virtual int Rename(const std::string& from,
                                   const std::string& to) = 0;
  /// ENOENT when there was nothing to remove.
  [[nodiscard]] virtual int Remove(const std::string& path) = 0;
  [[nodiscard]] virtual int Truncate(const std::string& path,
                                     uint64_t size) = 0;
  /// Makes the entries created, renamed or removed in `dir` durable.
  [[nodiscard]] virtual int SyncDirectory(const std::string& dir) = 0;
  [[nodiscard]] virtual int CreateDirectories(const std::string& dir) = 0;

  /// Create, append, sync, close: durable once it returns 0. The handle
  /// is closed even when an earlier step fails.
  [[nodiscard]] int WriteFileDurable(const std::string& path,
                                     std::string_view content);
  /// The `<prefix><digits><suffix>` files in `dir` by ascending number;
  /// none when the directory cannot be listed.
  std::vector<NumberedFile> ListNumbered(const std::string& dir,
                                         std::string_view prefix,
                                         std::string_view suffix);
  /// Removes `path` and tallies it as removed (with `bytes`) or failed;
  /// a file that was already gone is neither.
  void RemoveCounted(const std::string& path, RemovalStats& stats,
                     uint64_t bytes = 0);
};

/// The process-wide POSIX implementation. It writes with ::write and
/// ::fsync, so tools that interpose those symbols see every durable
/// byte.
FileSystem& PosixFileSystem();

}  // namespace damocles::common
