#include "store/mapped_file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/errors.h"
#include "util/fault_injection.h"

namespace plg::store {

MappedFile::~MappedFile() { release(); }

void MappedFile::release() noexcept {
  if (addr_ != nullptr) {
    ::munmap(addr_, size_);
    addr_ = nullptr;
  }
  size_ = 0;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

MappedFile MappedFile::open(const std::string& path, bool writable_private) {
  int fd = -1;
  for (;;) {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0 || errno != EINTR) break;
  }
  if (fd < 0) {
    throw DecodeError("MappedFile: cannot open " + path + ": " +
                      std::strerror(errno));
  }
  if (fault::should_fail_mmap()) {
    ::close(fd);
    throw DecodeError("MappedFile: injected mmap failure for " + path);
  }
  return map_fd(fd, path, writable_private);
}

MappedFile MappedFile::from_bytes(const std::uint8_t* data, std::size_t n,
                                  bool writable_private) {
  const int fd = ::memfd_create("plg-image", MFD_CLOEXEC);
  if (fd < 0) {
    const int err = errno;
    throw DecodeError(std::string("MappedFile: memfd_create failed: ") +
                      std::strerror(err));
  }
  std::size_t done = 0;
  while (done < n) {
    const ::ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      const int err = w < 0 ? errno : ENOSPC;
      ::close(fd);
      throw DecodeError(std::string("MappedFile: memfd write failed: ") +
                        std::strerror(err));
    }
    done += static_cast<std::size_t>(w);
  }
  return map_fd(fd, "memory image", writable_private);
}

MappedFile MappedFile::map_fd(int fd, const std::string& what,
                              bool writable_private) {
  MappedFile file;
  file.fd_ = fd;  // owned from here on: ~MappedFile closes it on a throw

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    throw DecodeError("MappedFile: fstat failed for " + what + ": " +
                      std::strerror(err));
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // mmap rejects zero-length maps; an empty file is a valid (empty)
    // mapping here and a format error one layer up.
    return file;
  }

  const int prot = PROT_READ | (writable_private ? PROT_WRITE : 0);
  void* addr = ::mmap(nullptr, size, prot, MAP_PRIVATE, fd, 0);
  if (addr == MAP_FAILED) {
    const int err = errno;
    throw DecodeError("MappedFile: mmap failed for " + what + ": " +
                      std::strerror(err));
  }
  file.addr_ = addr;
  file.size_ = size;
  // Sequential admission (plan build + lazy CRC) touches most pages soon;
  // the advice is best-effort and its failure is deliberately ignored.
  (void)::madvise(addr, size, MADV_WILLNEED);
  return file;
}

void MappedFile::read_at(std::uint64_t offset, void* dst,
                         std::size_t n) const {
  auto* out = static_cast<std::uint8_t*>(dst);
  std::size_t done = 0;
  while (done < n) {
    const ::ssize_t r = ::pread(fd_, out + done, n - done,
                                static_cast<::off_t>(offset + done));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      throw DecodeError("MappedFile: short read of " + std::to_string(n) +
                        " bytes at byte " + std::to_string(offset));
    }
    done += static_cast<std::size_t>(r);
  }
}

}  // namespace plg::store
