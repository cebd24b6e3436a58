#include "common/file_system.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>

#include "common/strings.hpp"

namespace damocles::common {

namespace fs = std::filesystem;

namespace {

// strerror_r comes in two flavors: glibc's GNU variant returns char*
// (possibly a static string, possibly `buf`), the XSI/POSIX variant
// returns int and always fills `buf`. Overload resolution picks the
// adapter for whichever one <cstring> declared.
[[maybe_unused]] const char* AdaptStrerror(char* result, const char* /*buf*/) {
  return result;
}

[[maybe_unused]] const char* AdaptStrerror(int result, const char* buf) {
  return result == 0 ? buf : nullptr;
}

}  // namespace

std::string ErrnoString(int errno_value) {
  char buf[256];
  buf[0] = '\0';
  const char* message =
      AdaptStrerror(strerror_r(errno_value, buf, sizeof buf), buf);
  if (message == nullptr || message[0] == '\0') {
    std::string fallback = "errno ";
    fallback += std::to_string(errno_value);
    return fallback;
  }
  return message;
}

bool ParseNumberedName(std::string_view name, std::string_view prefix,
                       std::string_view suffix, uint64_t& number) {
  if (name.size() <= prefix.size() + suffix.size() ||
      !StartsWith(name, prefix) || !EndsWith(name, suffix)) {
    return false;
  }
  const char* first = name.data() + prefix.size();
  const char* last = name.data() + name.size() - suffix.size();
  const auto [end, ec] = std::from_chars(first, last, number);
  return ec == std::errc() && end == last;
}

std::string NumberedFileName(std::string_view prefix, uint64_t number,
                             std::string_view suffix) {
  const std::string digits = std::to_string(number);
  std::string name(prefix);
  if (digits.size() < 6) name.append(6 - digits.size(), '0');
  name += digits;
  name += suffix;
  return name;
}

int FileSystem::WriteFileDurable(const std::string& path,
                                 std::string_view content) {
  int handle = -1;
  if (const int err = Create(path, handle); err != 0) return err;
  size_t written = 0;
  int err = content.empty()
                ? 0
                : Append(handle, content.data(), content.size(), written);
  if (err == 0) err = Sync(handle);
  const int close_err = Close(handle);
  return err != 0 ? err : close_err;
}

std::vector<NumberedFile> FileSystem::ListNumbered(const std::string& dir,
                                                   std::string_view prefix,
                                                   std::string_view suffix) {
  std::vector<NumberedFile> files;
  std::vector<std::string> names;
  if (ListDirectory(dir, names) != 0) return files;
  for (const std::string& name : names) {
    uint64_t number = 0;
    if (!ParseNumberedName(name, prefix, suffix, number)) continue;
    std::string path = dir;
    path += '/';
    path += name;
    files.push_back(NumberedFile{number, std::move(path)});
  }
  std::sort(files.begin(), files.end(),
            [](const NumberedFile& a, const NumberedFile& b) {
              return a.number != b.number ? a.number < b.number
                                          : a.path < b.path;
            });
  return files;
}

void FileSystem::RemoveCounted(const std::string& path, RemovalStats& stats,
                               uint64_t bytes) {
  const int err = Remove(path);
  if (err == 0) {
    ++stats.files_removed;
    stats.bytes_removed += bytes;
  } else if (err != ENOENT) {
    ++stats.failed_removals;
  }
}

namespace {

class PosixFs final : public FileSystem {
 public:
  int ReadFile(const std::string& path, std::string& out,
               size_t max_bytes) override {
    out.clear();
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return errno;
    char buffer[1u << 16];
    int err = 0;
    while (out.size() < max_bytes) {
      const size_t ask = std::min(sizeof buffer, max_bytes - out.size());
      const ssize_t got = ::read(fd, buffer, ask);
      if (got < 0) {
        if (errno == EINTR) continue;
        err = errno;
        break;
      }
      if (got == 0) break;
      out.append(buffer, static_cast<size_t>(got));
    }
    if (::close(fd) != 0 && err == 0) err = errno;
    return err;
  }

  int FileSize(const std::string& path, uint64_t& size) override {
    std::error_code ec;
    size = fs::file_size(path, ec);
    return ec.value();
  }

  int ListDirectory(const std::string& dir,
                    std::vector<std::string>& names) override {
    names.clear();
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      std::error_code type_ec;
      if (it->is_regular_file(type_ec)) {
        names.push_back(it->path().filename().string());
      }
    }
    return ec.value();
  }

  int Create(const std::string& path, int& handle) override {
    handle = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    return handle < 0 ? errno : 0;
  }

  int Append(int handle, const char* data, size_t size,
             size_t& written) override {
    written = 0;
    while (written < size) {
      const ssize_t wrote = ::write(handle, data + written, size - written);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        return errno;
      }
      if (wrote == 0) return EIO;
      written += static_cast<size_t>(wrote);
    }
    return 0;
  }

  int Sync(int handle) override { return ::fsync(handle) != 0 ? errno : 0; }

  int Close(int handle) override { return ::close(handle) != 0 ? errno : 0; }

  int Rename(const std::string& from, const std::string& to) override {
    return ::rename(from.c_str(), to.c_str()) != 0 ? errno : 0;
  }

  int Remove(const std::string& path) override {
    return ::unlink(path.c_str()) != 0 ? errno : 0;
  }

  int Truncate(const std::string& path, uint64_t size) override {
    return ::truncate(path.c_str(), static_cast<off_t>(size)) != 0 ? errno : 0;
  }

  int SyncDirectory(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return errno;
    int err = ::fsync(fd) != 0 ? errno : 0;
    if (::close(fd) != 0 && err == 0) err = errno;
    return err;
  }

  int CreateDirectories(const std::string& dir) override {
    std::error_code ec;
    fs::create_directories(dir, ec);
    return ec.value();
  }
};

}  // namespace

FileSystem& PosixFileSystem() {
  static PosixFs instance;
  return instance;
}

}  // namespace damocles::common
