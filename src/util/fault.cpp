#include "util/fault.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace adtp {

void FileOps::write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (size > 0) {
    const std::size_t n = write_some(fd, p, size);
    if (n == 0) throw IoError("write_all: wrote 0 bytes");
    p += n;
    size -= n;
  }
}

bool FileOps::pread_all(int fd, void* data, std::size_t size,
                        std::uint64_t offset) {
  auto* p = static_cast<unsigned char*>(data);
  while (size > 0) {
    const std::size_t n = pread_some(fd, p, size, offset);
    if (n == 0) return false;  // EOF short of the request
    p += n;
    size -= n;
    offset += n;
  }
  return true;
}

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  const int err = errno;
  const bool transient = err == EINTR || err == EAGAIN;
  throw IoError(what + ": " + std::strerror(err), transient);
}

class RealFileOps final : public FileOps {
 public:
  bool exists(const std::string& path) override {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
  }

  int open_file(const std::string& path, OpenMode mode) override {
    int flags = 0;
    switch (mode) {
      case OpenMode::Read:
        flags = O_RDONLY;
        break;
      case OpenMode::Append:
        flags = O_RDWR | O_CREAT | O_APPEND;
        break;
      case OpenMode::Truncate:
        flags = O_RDWR | O_CREAT | O_TRUNC | O_APPEND;
        break;
    }
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) throw_errno("open " + path);
    return fd;
  }

  std::size_t write_some(int fd, const void* data, std::size_t size) override {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) throw_errno("write");
    return static_cast<std::size_t>(n);
  }

  std::size_t pread_some(int fd, void* data, std::size_t size,
                         std::uint64_t offset) override {
    const ssize_t n = ::pread(fd, data, size, static_cast<off_t>(offset));
    if (n < 0) throw_errno("pread");
    return static_cast<std::size_t>(n);
  }

  void sync_file(int fd) override {
    if (::fsync(fd) != 0) throw_errno("fsync");
  }

  void truncate_file(int fd, std::uint64_t size) override {
    if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      throw_errno("ftruncate");
    }
  }

  std::uint64_t file_size(int fd) override {
    struct stat st{};
    if (::fstat(fd, &st) != 0) throw_errno("fstat");
    return static_cast<std::uint64_t>(st.st_size);
  }

  void close_fd(int fd) noexcept override { ::close(fd); }

  void rename_file(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      throw_errno("rename " + from + " -> " + to);
    }
  }

  void remove_file(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) throw_errno("unlink " + path);
  }

  int try_lock_file(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) throw_errno("open lock " + path);
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      const int err = errno;
      ::close(fd);
      if (err == EWOULDBLOCK || err == EAGAIN) return -1;
      errno = err;
      throw_errno("flock " + path);
    }
    return fd;
  }

  void make_dir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      throw_errno("mkdir " + path);
    }
  }

  void sync_dir(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) throw_errno("open dir " + path);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) throw_errno("fsync dir " + path);
  }

  std::vector<std::string> list_dir(const std::string& path) override {
    DIR* dir = ::opendir(path.c_str());
    if (dir == nullptr) throw_errno("opendir " + path);
    std::vector<std::string> names;
    while (const dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      names.push_back(name);
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    return names;
  }
};

}  // namespace

FileOps& real_file_ops() {
  static RealFileOps ops;
  return ops;
}

// ---- FaultFileOps ----------------------------------------------------------

void FaultFileOps::set_write_byte_budget(std::uint64_t budget) {
  const std::lock_guard<std::mutex> lock(mutex_);
  write_budget_ = budget;
  crashed_ = false;
}

void FaultFileOps::fail_op(Op op, std::uint64_t countdown, bool transient,
                           std::uint64_t times) {
  const std::lock_guard<std::mutex> lock(mutex_);
  fault_armed_ = true;
  fault_op_ = op;
  fault_countdown_ = countdown;
  fault_times_ = times;
  fault_transient_ = transient;
}

void FaultFileOps::short_write(std::uint64_t countdown) {
  const std::lock_guard<std::mutex> lock(mutex_);
  short_armed_ = true;
  short_countdown_ = countdown;
}

void FaultFileOps::reset_faults() {
  const std::lock_guard<std::mutex> lock(mutex_);
  write_budget_ = kNoLimit;
  crashed_ = false;
  fault_armed_ = false;
  short_armed_ = false;
}

std::uint64_t FaultFileOps::bytes_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_written_;
}

std::uint64_t FaultFileOps::ops_performed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ops_;
}

bool FaultFileOps::crashed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return crashed_;
}

void FaultFileOps::check(Op op) {
  ++ops_;
  if (crashed_) throw IoError("simulated crash", false);
  if (fault_armed_ && fault_op_ == op) {
    if (fault_countdown_ > 0) {
      --fault_countdown_;
    } else if (fault_times_ > 0) {
      --fault_times_;
      if (fault_times_ == 0) fault_armed_ = false;
      throw IoError("injected fault", fault_transient_);
    }
  }
}

bool FaultFileOps::exists(const std::string& path) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::Open);
  }
  return inner_.exists(path);
}

int FaultFileOps::open_file(const std::string& path, OpenMode mode) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::Open);
  }
  return inner_.open_file(path, mode);
}

std::size_t FaultFileOps::write_some(int fd, const void* data,
                                     std::size_t size) {
  std::size_t allowed = size;
  bool crash_after = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::Write);
    if (short_armed_) {
      if (short_countdown_ > 0) {
        --short_countdown_;
      } else {
        short_armed_ = false;
        allowed = std::max<std::size_t>(1, size / 2);
      }
    }
    if (write_budget_ != kNoLimit) {
      if (allowed >= write_budget_) {
        // This write crosses the crash point: its prefix persists, the
        // process "dies" before acknowledging it.
        allowed = static_cast<std::size_t>(write_budget_);
        write_budget_ = 0;
        crash_after = true;
      } else {
        write_budget_ -= allowed;
      }
    }
    bytes_written_ += allowed;
  }
  if (allowed > 0) inner_.write_all(fd, data, allowed);
  if (crash_after) {
    const std::lock_guard<std::mutex> lock(mutex_);
    crashed_ = true;
    throw IoError("simulated crash", false);
  }
  return allowed;
}

std::size_t FaultFileOps::pread_some(int fd, void* data, std::size_t size,
                                     std::uint64_t offset) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::Read);
  }
  return inner_.pread_some(fd, data, size, offset);
}

void FaultFileOps::sync_file(int) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check(Op::Sync);
}

void FaultFileOps::truncate_file(int fd, std::uint64_t size) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::Truncate);
  }
  inner_.truncate_file(fd, size);
}

std::uint64_t FaultFileOps::file_size(int fd) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::Open);
  }
  return inner_.file_size(fd);
}

void FaultFileOps::close_fd(int fd) noexcept { inner_.close_fd(fd); }

void FaultFileOps::rename_file(const std::string& from,
                               const std::string& to) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::Rename);
  }
  inner_.rename_file(from, to);
}

void FaultFileOps::remove_file(const std::string& path) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::Remove);
  }
  inner_.remove_file(path);
}

int FaultFileOps::try_lock_file(const std::string& path) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::Lock);
  }
  return inner_.try_lock_file(path);
}

void FaultFileOps::make_dir(const std::string& path) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::Mkdir);
  }
  inner_.make_dir(path);
}

void FaultFileOps::sync_dir(const std::string&) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check(Op::SyncDir);
}

std::vector<std::string> FaultFileOps::list_dir(const std::string& path) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    check(Op::List);
  }
  return inner_.list_dir(path);
}

}  // namespace adtp
