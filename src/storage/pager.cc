#include "storage/pager.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <utility>

#include "storage/checksum.h"

namespace graphql::storage {

namespace {

constexpr char kMagic[4] = {'G', 'Q', 'P', '3'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kDirEntryBytes = 24;

// Header field offsets within page 0.
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffPageSize = 8;
constexpr size_t kOffSectionCount = 12;
constexpr size_t kOffTotalPages = 16;
constexpr size_t kOffDirOffset = 24;
constexpr size_t kOffDirLength = 32;
constexpr size_t kOffCrcTableOffset = 40;
constexpr size_t kOffCrcTableLength = 48;
constexpr size_t kOffDataStartPage = 56;
constexpr size_t kOffDirCrc = 64;
constexpr size_t kOffCrcTableCrc = 68;
constexpr size_t kOffHeaderCrc = 72;

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

uint64_t PagesFor(uint64_t bytes) {
  return (bytes + kPageSize - 1) / kPageSize;
}

}  // namespace

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

PageFile::~PageFile() {
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_len_);
  }
}

Result<std::shared_ptr<PageFile>> PageFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound("cannot open '" + path + "': " +
                            std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("fstat '" + path + "' failed");
  }
  const size_t size = static_cast<size_t>(st.st_size);
  auto file = std::shared_ptr<PageFile>(new PageFile());
  const char* no_mmap = std::getenv("GQL_NO_MMAP");
  if (size > 0 && (no_mmap == nullptr || no_mmap[0] == '\0' ||
                   std::strcmp(no_mmap, "0") == 0)) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      file->map_base_ = base;
      file->map_len_ = size;
      file->mapped_ = true;
      file->bytes_ = {static_cast<const uint8_t*>(base), size};
    }
  }
  if (!file->mapped_) {
    // Portable fallback: read the whole image. Same bytes, same
    // validation; only the paging economics differ.
    // invariant-lint: allow(length-validated-alloc) size is fstat() of the
    // real file, not a decoded length; Validate() then rejects anything
    // that is not a page multiple with a checksummed header.
    file->owned_.resize(size);
    size_t got = 0;
    while (got < size) {
      ssize_t n = ::pread(fd, file->owned_.data() + got, size - got,
                          static_cast<off_t>(got));
      if (n <= 0) {
        ::close(fd);
        return Status::Internal("read '" + path + "' failed");
      }
      got += static_cast<size_t>(n);
    }
    file->bytes_ = {file->owned_.data(), file->owned_.size()};
  }
  ::close(fd);
  return Validate(std::move(file));
}

Result<std::shared_ptr<PageFile>> PageFile::FromBuffer(
    std::vector<uint8_t> bytes) {
  auto file = std::shared_ptr<PageFile>(new PageFile());
  file->owned_ = std::move(bytes);
  file->bytes_ = {file->owned_.data(), file->owned_.size()};
  return Validate(std::move(file));
}

Result<std::shared_ptr<PageFile>> PageFile::Validate(
    std::shared_ptr<PageFile> file) {
  std::span<const uint8_t> b = file->bytes_;
  if (b.size() < kPageSize || b.size() % kPageSize != 0) {
    return Status::ParseError("paged file: size is not a page multiple");
  }
  if (std::memcmp(b.data(), kMagic, 4) != 0) {
    return Status::ParseError("paged file: bad magic");
  }
  // Verify the header page before trusting any field in it: CRC over the
  // page with the stored CRC zeroed.
  uint8_t header[kPageSize];
  std::memcpy(header, b.data(), kPageSize);
  const uint32_t stored_header_crc = GetU32(header + kOffHeaderCrc);
  PutU32(header + kOffHeaderCrc, 0);
  if (Crc32c(header, kPageSize) != stored_header_crc) {
    return Status::DataLoss("paged file: header checksum mismatch");
  }
  if (GetU32(header + kOffVersion) != kFormatVersion) {
    return Status::ParseError("paged file: unsupported format version " +
                              std::to_string(GetU32(header + kOffVersion)));
  }
  if (GetU32(header + kOffPageSize) != kPageSize) {
    return Status::ParseError("paged file: unexpected page size");
  }
  const uint32_t section_count = GetU32(header + kOffSectionCount);
  const uint64_t total_pages = GetU64(header + kOffTotalPages);
  const uint64_t dir_offset = GetU64(header + kOffDirOffset);
  const uint64_t dir_length = GetU64(header + kOffDirLength);
  const uint64_t crc_offset = GetU64(header + kOffCrcTableOffset);
  const uint64_t crc_length = GetU64(header + kOffCrcTableLength);
  const uint64_t data_start_page = GetU64(header + kOffDataStartPage);
  const uint64_t size = b.size();
  if (total_pages * kPageSize != size) {
    return Status::ParseError("paged file: page count disagrees with size");
  }
  auto region_ok = [size](uint64_t off, uint64_t len) {
    return off <= size && len <= size - off;
  };
  if (!region_ok(dir_offset, dir_length) ||
      dir_length != uint64_t{section_count} * kDirEntryBytes) {
    return Status::ParseError("paged file: directory out of bounds");
  }
  if (!region_ok(crc_offset, crc_length)) {
    return Status::ParseError("paged file: checksum table out of bounds");
  }
  if (data_start_page > total_pages) {
    return Status::ParseError("paged file: data start out of bounds");
  }
  const uint64_t data_pages = total_pages - data_start_page;
  if (crc_length != data_pages * 4) {
    return Status::ParseError("paged file: checksum table size mismatch");
  }
  // Metadata regions are verified eagerly — they are the trust root for
  // the lazily verified data pages.
  std::span<const uint8_t> dir = b.subspan(dir_offset, dir_length);
  if (Crc32c(dir) != GetU32(header + kOffDirCrc)) {
    return Status::DataLoss("paged file: directory checksum mismatch");
  }
  std::span<const uint8_t> crc_table = b.subspan(crc_offset, crc_length);
  if (Crc32c(crc_table) != GetU32(header + kOffCrcTableCrc)) {
    return Status::DataLoss("paged file: checksum-table checksum mismatch");
  }
  file->crc_table_ = crc_table;
  file->data_start_page_ = data_start_page;
  for (uint32_t i = 0; i < section_count; ++i) {
    const uint8_t* e = dir.data() + size_t{i} * kDirEntryBytes;
    SectionEntry entry;
    const uint32_t id = GetU32(e);
    entry.offset = GetU64(e + 8);
    entry.length = GetU64(e + 16);
    entry.index = i;
    if (entry.offset % kPageSize != 0 ||
        entry.offset < data_start_page * kPageSize ||
        !region_ok(entry.offset, entry.length)) {
      return Status::ParseError("paged file: section " + std::to_string(id) +
                                " out of bounds");
    }
    if (!file->sections_.emplace(id, entry).second) {
      return Status::ParseError("paged file: duplicate section id " +
                                std::to_string(id));
    }
  }
  {
    MutexLock lock(&file->verify_mu_);
    file->section_verified_.assign(section_count, 0);
  }
  return file;
}

Status PageFile::VerifyPages(uint64_t first_page, uint64_t page_count) const {
  for (uint64_t p = first_page; p < first_page + page_count; ++p) {
    const uint64_t slot = p - data_start_page_;
    const uint32_t want = GetU32(crc_table_.data() + slot * 4);
    const uint32_t got = Crc32c(bytes_.subspan(p * kPageSize, kPageSize));
    if (want != got) {
      return Status::DataLoss("paged file: page " + std::to_string(p) +
                              " checksum mismatch");
    }
  }
  return Status::OK();
}

Result<std::span<const uint8_t>> PageFile::Section(uint32_t id) const {
  auto it = sections_.find(id);
  if (it == sections_.end()) {
    return Status::NotFound("paged file: no section " + std::to_string(id));
  }
  const SectionEntry& e = it->second;
  {
    MutexLock lock(&verify_mu_);
    if (!section_verified_[e.index]) {
      // checksum-before-trust: the span is only released after every page
      // the section spans verifies.
      GQL_RETURN_IF_ERROR(
          VerifyPages(e.offset / kPageSize, PagesFor(e.length)));
      section_verified_[e.index] = 1;
    }
  }
  return bytes_.subspan(e.offset, e.length);
}

bool PageFile::HasSection(uint32_t id) const {
  return sections_.find(id) != sections_.end();
}

std::vector<uint32_t> PageFile::SectionIds() const {
  std::vector<uint32_t> ids;
  // invariant-lint: allow(length-validated-alloc) sections_ was built by
  // Validate() from a directory whose entry count was bounds-checked
  // against the checksummed header.
  ids.reserve(sections_.size());
  for (const auto& [id, entry] : sections_) ids.push_back(id);
  return ids;
}

Status PageFile::VerifyAllPages() const {
  const uint64_t total_pages = bytes_.size() / kPageSize;
  return VerifyPages(data_start_page_, total_pages - data_start_page_);
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

void PageFileWriter::AddSection(uint32_t id, std::vector<uint8_t> bytes) {
  sections_.emplace_back(id, std::move(bytes));
}

std::vector<uint8_t> PageFileWriter::Build() const {
  const uint64_t section_count = sections_.size();
  const uint64_t dir_length = section_count * kDirEntryBytes;
  const uint64_t dir_pages = PagesFor(dir_length);
  uint64_t data_pages = 0;
  for (const auto& [id, bytes] : sections_) {
    data_pages += PagesFor(bytes.size());
  }
  const uint64_t crc_length = data_pages * 4;
  const uint64_t crc_pages = PagesFor(crc_length);
  const uint64_t data_start_page = 1 + dir_pages + crc_pages;
  const uint64_t total_pages = data_start_page + data_pages;

  std::vector<uint8_t> out(total_pages * kPageSize, 0);
  uint8_t* header = out.data();
  std::memcpy(header + kOffMagic, kMagic, 4);
  PutU32(header + kOffVersion, kFormatVersion);
  PutU32(header + kOffPageSize, kPageSize);
  PutU32(header + kOffSectionCount, static_cast<uint32_t>(section_count));
  PutU64(header + kOffTotalPages, total_pages);
  PutU64(header + kOffDirOffset, kPageSize);
  PutU64(header + kOffDirLength, dir_length);
  PutU64(header + kOffCrcTableOffset, (1 + dir_pages) * kPageSize);
  PutU64(header + kOffCrcTableLength, crc_length);
  PutU64(header + kOffDataStartPage, data_start_page);

  uint8_t* dir = out.data() + kPageSize;
  uint8_t* crc_table = out.data() + (1 + dir_pages) * kPageSize;
  uint64_t cursor = data_start_page * kPageSize;
  uint64_t page_slot = 0;
  for (size_t i = 0; i < sections_.size(); ++i) {
    const auto& [id, bytes] = sections_[i];
    uint8_t* e = dir + i * kDirEntryBytes;
    PutU32(e, id);
    PutU32(e + 4, 0);
    PutU64(e + 8, cursor);
    PutU64(e + 16, bytes.size());
    if (!bytes.empty()) {  // An empty vector's data() may be null.
      std::memcpy(out.data() + cursor, bytes.data(), bytes.size());
    }
    const uint64_t pages = PagesFor(bytes.size());
    for (uint64_t p = 0; p < pages; ++p) {
      PutU32(crc_table + (page_slot + p) * 4,
             Crc32c(out.data() + cursor + p * kPageSize, kPageSize));
    }
    cursor += pages * kPageSize;
    page_slot += pages;
  }
  PutU32(header + kOffDirCrc, Crc32c(dir, dir_length));
  PutU32(header + kOffCrcTableCrc, Crc32c(crc_table, crc_length));
  PutU32(header + kOffHeaderCrc, 0);
  PutU32(header + kOffHeaderCrc, Crc32c(header, kPageSize));
  return out;
}

Status PageFileWriter::WriteTo(const std::string& path) const {
  std::vector<uint8_t> image = Build();
  return AtomicWriteFile(path, image);
}

Status AtomicWriteFile(const std::string& path,
                       std::span<const uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal("cannot create '" + tmp + "': " +
                            std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal("write '" + tmp + "' failed");
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("fsync '" + tmp + "' failed");
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("rename '" + tmp + "' -> '" + path + "' failed");
  }
  // fsync the directory so the rename itself is durable.
  std::string dir = ".";
  if (size_t slash = path.find_last_of('/'); slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace graphql::storage
