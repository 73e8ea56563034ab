// MappedFile: a move-only RAII wrapper around one read-only mmap of a
// whole file, plus the descriptor it was mapped from.
//
// Contract:
//   * open() is EINTR-safe (the open(2) retry loop; mmap/munmap do not
//     return EINTR). from_bytes() copies a buffer into an anonymous
//     memory file (memfd) and maps that the same way, so a store built in
//     memory and a store read from disk are one kind of object.
//   * The descriptor stays open for the mapping's lifetime: read_at()
//     re-reads the backing (the file's inode, or the memfd) rather than
//     the mapping, which is how a shard whose mapped bytes rotted is
//     re-read from clean bytes.
//   * The mapping is MAP_PRIVATE. Normally it is PROT_READ; when the
//     active fault plan injects map-flips or shard-fails the caller
//     requests a writable private mapping, so injected damage is
//     copy-on-write memory rot that never reaches the backing.
//   * madvise(MADV_WILLNEED) is advisory-only; its failure is ignored.
//   * Fault hooks: fault::should_fail_mmap() can fail open()
//     deterministically (DecodeError), exercising callers' mmap-error
//     paths.
//   * An empty file maps to {data() == nullptr, size() == 0} rather than
//     an error (mmap rejects zero-length maps); format validation above
//     this layer rejects it as truncated.
//
// SIGBUS discipline: dereferencing a mapping past EOF raises SIGBUS, not
// a catchable exception. This layer exposes size() so readers validate
// every structure against the real file size BEFORE touching mapped
// bytes; store/mapped_store.h does exactly that for the v3 layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace plg::store {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)),
        addr_(std::exchange(other.addr_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      release();
      fd_ = std::exchange(other.fd_, -1);
      addr_ = std::exchange(other.addr_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  /// Maps `path` read-only (private). With `writable_private`, the pages
  /// are additionally PROT_WRITE so in-memory fault injection can flip
  /// bits without touching the file. Throws DecodeError on open/mmap
  /// failure or an injected mmap fault.
  static MappedFile open(const std::string& path, bool writable_private);

  /// Copies `data[0..n)` into a fresh memfd and maps it like open().
  /// Throws DecodeError when the memfd cannot be created, written or
  /// mapped.
  static MappedFile from_bytes(const std::uint8_t* data, std::size_t n,
                               bool writable_private);

  const std::uint8_t* data() const noexcept {
    return static_cast<const std::uint8_t*>(addr_);
  }
  /// Writable alias; only meaningful when mapped with writable_private.
  std::uint8_t* mutable_data() const noexcept {
    return static_cast<std::uint8_t*>(addr_);
  }
  std::size_t size() const noexcept { return size_; }

  /// Reads `n` bytes at byte `offset` of the backing descriptor (not the
  /// mapping) into `dst`. Throws DecodeError on a failed or short read.
  void read_at(std::uint64_t offset, void* dst, std::size_t n) const;

 private:
  /// Maps the whole of `fd` and takes ownership of it (closed on failure).
  static MappedFile map_fd(int fd, const std::string& what,
                           bool writable_private);

  void release() noexcept;

  int fd_ = -1;
  void* addr_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace plg::store
