/// \file fault.hpp
/// \brief The file-system seam of the persistent store, plus fault
///        injection for crash-safety testing.
///
/// Everything in src/store/ performs file I/O exclusively through the
/// FileOps interface. Production code uses real_file_ops() (thin POSIX
/// wrappers); tests substitute a FaultFileOps that can fail any
/// operation, short-write any write, or simulate a crash at any byte
/// offset. The store's crash-safety claims are only as strong as this
/// seam is complete - if a store ever touches a file behind FileOps'
/// back, the crash matrix cannot see it, so don't.
///
/// The crash model is kill -9, not power loss: bytes handed to write()
/// before the crash point persist in order (the page cache survives the
/// process), bytes after do not, and a write straddling the crash point
/// persists exactly its prefix. FaultFileOps implements this with a
/// byte budget: writes consume it, the write that crosses it applies
/// only the remaining bytes, and every subsequent operation fails. The
/// crash-matrix test in tests/store sweeps the budget over every byte
/// offset of a workload and asserts recovery yields a prefix of the
/// committed entries. (Power-loss reordering is out of scope; the
/// store still fsyncs in publish order so the format is sound there
/// too, but no test drives that model.)
///
/// IoError carries a \p transient flag: injected EAGAIN-style failures
/// set it, and PersistentFrontCache retries transient failures with
/// bounded exponential backoff before degrading to memory-only.

#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace adtp {

/// A FileOps operation failed. \p transient signals "worth retrying"
/// (injected or EINTR/EAGAIN-style); everything else is permanent.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what, bool transient = false)
      : Error(what), transient_(transient) {}

  [[nodiscard]] bool transient() const noexcept { return transient_; }

 private:
  bool transient_;
};

/// The syscall surface of the persistent store. Operations throw
/// IoError on failure unless noted; fds are plain POSIX descriptors
/// owned by the caller (close via close_fd).
class FileOps {
 public:
  enum class OpenMode : std::uint8_t {
    Read,      ///< existing file, read-only
    Append,    ///< create if absent, writes go to the end
    Truncate,  ///< create or truncate to empty, then append
  };

  virtual ~FileOps() = default;

  [[nodiscard]] virtual bool exists(const std::string& path) = 0;
  [[nodiscard]] virtual int open_file(const std::string& path,
                                      OpenMode mode) = 0;
  /// Appends up to \p size bytes at the file's write offset; returns the
  /// number actually written (short writes are legal and the caller must
  /// resume); throws IoError on hard failure.
  virtual std::size_t write_some(int fd, const void* data,
                                 std::size_t size) = 0;
  /// Reads up to \p size bytes at absolute \p offset; returns the number
  /// read (0 at EOF); throws IoError on hard failure.
  virtual std::size_t pread_some(int fd, void* data, std::size_t size,
                                 std::uint64_t offset) = 0;
  virtual void sync_file(int fd) = 0;
  virtual void truncate_file(int fd, std::uint64_t size) = 0;
  [[nodiscard]] virtual std::uint64_t file_size(int fd) = 0;
  virtual void close_fd(int fd) noexcept = 0;
  virtual void rename_file(const std::string& from,
                           const std::string& to) = 0;
  virtual void remove_file(const std::string& path) = 0;
  /// Opens (creating if absent) \p path and takes an exclusive,
  /// non-blocking advisory lock on it - flock semantics: the lock lives
  /// with the open file description, so it is released by close_fd or
  /// by process death (kill -9 included), never by merely unlinking the
  /// path. Returns the locked fd, or -1 when another holder (process or
  /// separate open description) has it. Throws IoError on any other
  /// failure. This is the store's writer-lease primitive.
  [[nodiscard]] virtual int try_lock_file(const std::string& path) = 0;
  /// Creates \p path (single level); succeeding when it already exists.
  virtual void make_dir(const std::string& path) = 0;
  /// fsyncs the directory itself so renames/creates within it persist.
  virtual void sync_dir(const std::string& path) = 0;
  /// Names (not paths) of the regular files in \p path, sorted.
  [[nodiscard]] virtual std::vector<std::string> list_dir(
      const std::string& path) = 0;

  /// Writes all of \p size bytes, resuming short writes. Not virtual -
  /// built on write_some so injected short writes still exercise the
  /// resume loop.
  void write_all(int fd, const void* data, std::size_t size);
  /// Reads exactly \p size bytes at \p offset; returns false on EOF
  /// before \p size (caller decides whether that is corruption).
  [[nodiscard]] bool pread_all(int fd, void* data, std::size_t size,
                               std::uint64_t offset);
};

/// The process-wide POSIX implementation.
[[nodiscard]] FileOps& real_file_ops();

/// A fault-injecting FileOps decorator; see the file comment for the
/// crash model. All knobs may be re-armed between phases of a test; the
/// wrapper is thread-safe (one mutex around the counters). sync_file and
/// sync_dir count and can fail, but never forward to the inner ops: the
/// page cache survives kill -9, so real fsyncs would only cost test time.
class FaultFileOps final : public FileOps {
 public:
  /// Operation classes for targeted failure injection.
  enum class Op : std::uint8_t {
    Open,
    Write,
    Read,
    Sync,
    Truncate,
    Rename,
    Remove,
    Mkdir,
    SyncDir,
    List,
    Lock,
  };

  explicit FaultFileOps(FileOps& inner) : inner_(inner) {}

  // ---- knobs -------------------------------------------------------------

  /// Crash simulation: after \p budget further payload bytes have been
  /// accepted by write_some, the wrapper enters the crashed state - the
  /// crossing write applies only the remaining budget, and every later
  /// operation throws IoError("simulated crash"). kNoLimit disarms.
  static constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};
  void set_write_byte_budget(std::uint64_t budget);

  /// Fails the (countdown+1)-th subsequent operation of class \p op with
  /// IoError(\p transient), \p times consecutive times (then the fault
  /// disarms itself). One armed fault per call; re-arm as needed.
  void fail_op(Op op, std::uint64_t countdown, bool transient = false,
               std::uint64_t times = 1);

  /// The (countdown+1)-th subsequent write_some accepts only half its
  /// bytes (at least one) and returns normally - the legal short write
  /// every caller must resume.
  void short_write(std::uint64_t countdown);

  /// Clears every armed fault and the crashed state (counters keep
  /// running).
  void reset_faults();

  // ---- counters ----------------------------------------------------------

  [[nodiscard]] std::uint64_t bytes_written() const;
  [[nodiscard]] std::uint64_t ops_performed() const;
  [[nodiscard]] bool crashed() const;

  // ---- FileOps -----------------------------------------------------------

  [[nodiscard]] bool exists(const std::string& path) override;
  [[nodiscard]] int open_file(const std::string& path, OpenMode mode) override;
  std::size_t write_some(int fd, const void* data, std::size_t size) override;
  std::size_t pread_some(int fd, void* data, std::size_t size,
                         std::uint64_t offset) override;
  void sync_file(int fd) override;
  void truncate_file(int fd, std::uint64_t size) override;
  [[nodiscard]] std::uint64_t file_size(int fd) override;
  void close_fd(int fd) noexcept override;
  void rename_file(const std::string& from, const std::string& to) override;
  void remove_file(const std::string& path) override;
  [[nodiscard]] int try_lock_file(const std::string& path) override;
  void make_dir(const std::string& path) override;
  void sync_dir(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list_dir(
      const std::string& path) override;

 private:
  /// Advances the op counter and throws if crashed or if an armed fault
  /// fires for \p op. Called with the mutex held by the public methods.
  void check(Op op);

  FileOps& inner_;
  mutable std::mutex mutex_;
  std::uint64_t write_budget_ = kNoLimit;
  bool crashed_ = false;
  bool fault_armed_ = false;
  Op fault_op_ = Op::Write;
  std::uint64_t fault_countdown_ = 0;
  std::uint64_t fault_times_ = 0;
  bool fault_transient_ = false;
  bool short_armed_ = false;
  std::uint64_t short_countdown_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t ops_ = 0;
};

}  // namespace adtp
