#include "storage/pager.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/status.h"
#include "storage/checksum.h"

namespace graphql::storage {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return out;
}

/// A three-section image: small, empty, and multi-page.
std::vector<uint8_t> SampleImage() {
  PageFileWriter w;
  w.AddSection(7, Pattern(100, 1));
  w.AddSection(3, {});
  w.AddSection(42, Pattern(3 * kPageSize + 17, 9));
  return w.Build();
}

class TempPath {
 public:
  TempPath() {
    char buf[] = "/tmp/gql_pager_test_XXXXXX";
    int fd = ::mkstemp(buf);
    if (fd >= 0) ::close(fd);
    path_ = buf;
  }
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(PagerTest, RoundTripsSectionsThroughBuffer) {
  auto file = PageFile::FromBuffer(SampleImage());
  ASSERT_TRUE(file.ok()) << file.status().message();

  auto small = file.value()->Section(7);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(std::vector<uint8_t>(small.value().begin(), small.value().end()),
            Pattern(100, 1));

  auto empty = file.value()->Section(3);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());

  auto big = file.value()->Section(42);
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(std::vector<uint8_t>(big.value().begin(), big.value().end()),
            Pattern(3 * kPageSize + 17, 9));

  EXPECT_TRUE(file.value()->HasSection(7));
  EXPECT_FALSE(file.value()->HasSection(8));
  EXPECT_FALSE(file.value()->Section(8).ok());
  EXPECT_EQ(file.value()->Section(8).status().code(), StatusCode::kNotFound);
}

TEST(PagerTest, RoundTripsImageOfEmptySections) {
  // An empty section occupies no data page; the last one sits at the end
  // of the image. Both round-trip through a disk write and an mmap open.
  PageFileWriter w;
  w.AddSection(1, {});
  w.AddSection(2, Pattern(10, 4));
  w.AddSection(3, {});
  TempPath tmp;
  ASSERT_TRUE(w.WriteTo(tmp.path()).ok());
  auto file = PageFile::Open(tmp.path());
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_TRUE(file.value()->VerifyAllPages().ok());
  for (uint32_t id : {1u, 3u}) {
    auto empty = file.value()->Section(id);
    ASSERT_TRUE(empty.ok()) << "section " << id;
    EXPECT_TRUE(empty.value().empty()) << "section " << id;
  }
  auto small = file.value()->Section(2);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(std::vector<uint8_t>(small.value().begin(), small.value().end()),
            Pattern(10, 4));
}

TEST(PagerTest, ImageIsPageMultipleAndSectionsPageAligned) {
  std::vector<uint8_t> image = SampleImage();
  EXPECT_EQ(image.size() % kPageSize, 0u);

  // Absolute pointer alignment needs the mmap path: the kernel maps the
  // file at a page boundary, and sections sit at page-aligned offsets, so
  // every section pointer is page-aligned (hence safe for any typed view).
  TempPath tmp;
  PageFileWriter w;
  w.AddSection(7, Pattern(100, 1));
  w.AddSection(42, Pattern(3 * kPageSize + 17, 9));
  ASSERT_TRUE(w.WriteTo(tmp.path()).ok());
  auto file = PageFile::Open(tmp.path());
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->mapped());
  for (uint32_t id : file.value()->SectionIds()) {
    auto sec = file.value()->Section(id);
    ASSERT_TRUE(sec.ok());
    if (sec.value().empty()) continue;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(sec.value().data()) % kPageSize,
              0u)
        << "section " << id;
  }
}

TEST(PagerTest, RoundTripsThroughDiskWithMmap) {
  TempPath tmp;
  PageFileWriter w;
  w.AddSection(1, Pattern(kPageSize + 5, 3));
  ASSERT_TRUE(w.WriteTo(tmp.path()).ok());

  auto file = PageFile::Open(tmp.path());
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_TRUE(file.value()->mapped());
  EXPECT_GT(file.value()->resident_bytes(), 0u);
  auto sec = file.value()->Section(1);
  ASSERT_TRUE(sec.ok());
  EXPECT_EQ(std::vector<uint8_t>(sec.value().begin(), sec.value().end()),
            Pattern(kPageSize + 5, 3));
}

TEST(PagerTest, PreadFallbackServesSameBytes) {
  TempPath tmp;
  PageFileWriter w;
  w.AddSection(1, Pattern(kPageSize + 5, 3));
  ASSERT_TRUE(w.WriteTo(tmp.path()).ok());

  ::setenv("GQL_NO_MMAP", "1", 1);
  auto file = PageFile::Open(tmp.path());
  ::unsetenv("GQL_NO_MMAP");
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_FALSE(file.value()->mapped());
  auto sec = file.value()->Section(1);
  ASSERT_TRUE(sec.ok());
  EXPECT_EQ(std::vector<uint8_t>(sec.value().begin(), sec.value().end()),
            Pattern(kPageSize + 5, 3));
}

TEST(PagerTest, DataPageCorruptionIsCaughtOnFirstAccess) {
  std::vector<uint8_t> image = SampleImage();
  // Flip a byte inside the multi-page section by locating its content
  // pattern in the raw image.
  std::vector<uint8_t> expected = Pattern(3 * kPageSize + 17, 9);
  auto it = std::search(image.begin(), image.end(), expected.begin(),
                        expected.begin() + 64);
  ASSERT_NE(it, image.end());
  *(it + kPageSize + 100) ^= 0xff;

  auto file = PageFile::FromBuffer(image);
  // Metadata is intact, so the open itself succeeds...
  ASSERT_TRUE(file.ok()) << file.status().message();
  // ...the untouched sections still verify...
  EXPECT_TRUE(file.value()->Section(7).ok());
  EXPECT_TRUE(file.value()->Section(3).ok());
  // ...and the corrupted section is refused before a byte is handed out.
  auto bad = file.value()->Section(42);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(file.value()->VerifyAllPages().ok());
}

TEST(PagerTest, HeaderCorruptionFailsOpen) {
  std::vector<uint8_t> image = SampleImage();
  image[4] ^= 0xff;  // Version field; header CRC must catch it.
  EXPECT_FALSE(PageFile::FromBuffer(image).ok());

  image = SampleImage();
  image[0] = 'X';  // Magic.
  EXPECT_FALSE(PageFile::FromBuffer(image).ok());
}

TEST(PagerTest, DirectoryCorruptionFailsOpen) {
  std::vector<uint8_t> image = SampleImage();
  // Directory lives in page 1; flip a section-id byte there.
  image[kPageSize] ^= 0x01;
  auto file = PageFile::FromBuffer(image);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kDataLoss);
}

TEST(PagerTest, TruncatedAndTinyImagesAreRejected) {
  std::vector<uint8_t> image = SampleImage();
  image.resize(image.size() - kPageSize);
  EXPECT_FALSE(PageFile::FromBuffer(image).ok());

  EXPECT_FALSE(PageFile::FromBuffer({}).ok());
  EXPECT_FALSE(PageFile::FromBuffer(Pattern(100, 0)).ok());
  EXPECT_FALSE(PageFile::FromBuffer(Pattern(kPageSize, 0)).ok());
}

TEST(PagerTest, VerifyAllPagesPassesOnCleanImage) {
  auto file = PageFile::FromBuffer(SampleImage());
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file.value()->VerifyAllPages().ok());
}

TEST(ChecksumTest, MatchesKnownCrc32cVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
  // "123456789" — the classic check value.
  const char* digits = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xe3069283u);
  // Seeded continuation must equal one-shot.
  std::vector<uint8_t> data = Pattern(1000, 5);
  uint32_t whole = Crc32c(data);
  uint32_t split = Crc32c(std::span<const uint8_t>(data).subspan(300),
                          Crc32c(std::span<const uint8_t>(data).first(300)));
  EXPECT_EQ(whole, split);
}

TEST(PagerTest, AtomicWriteFileReplacesContent) {
  TempPath tmp;
  std::vector<uint8_t> first = Pattern(10, 1);
  std::vector<uint8_t> second = Pattern(20, 2);
  ASSERT_TRUE(AtomicWriteFile(tmp.path(), first).ok());
  ASSERT_TRUE(AtomicWriteFile(tmp.path(), second).ok());
  FILE* f = std::fopen(tmp.path().c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> got(64);
  size_t n = std::fread(got.data(), 1, got.size(), f);
  std::fclose(f);
  got.resize(n);
  EXPECT_EQ(got, second);
}

}  // namespace
}  // namespace graphql::storage
