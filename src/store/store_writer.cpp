#include "store/store_writer.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "core/label.h"
#include "core/label_store.h"
#include "store/format_v3.h"
#include "store/shard_map.h"
#include "util/bits.h"
#include "util/crc32.h"
#include "util/errors.h"
#include "util/fault_injection.h"

namespace plg::store {

namespace {

template <typename T>
void append(std::vector<std::uint8_t>& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
void poke(std::vector<std::uint8_t>& out, std::size_t at, T value) {
  std::memcpy(out.data() + at, &value, sizeof(T));
}

/// ORs `value` into the little-endian word `word` of `dst`.
void or_word(std::uint8_t* dst, std::uint64_t word, std::uint64_t value) {
  std::uint64_t w = 0;
  std::memcpy(&w, dst + word * 8, sizeof(w));
  w |= value;
  std::memcpy(dst + word * 8, &w, sizeof(w));
}

/// Canonical re-pack of one label into the zeroed packed-bits section at
/// `dst`, starting at bit `at`: its words in 64-bit chunks, the last cut
/// to size_bits, so stale bits past size_bits never leak into the file.
void pack_label(const Label& l, std::uint8_t* dst, std::uint64_t at) {
  const std::vector<std::uint64_t>& words = l.words();
  std::size_t remaining = l.size_bits();
  for (std::size_t i = 0; remaining > 0; ++i) {
    const std::size_t chunk = std::min<std::size_t>(64, remaining);
    const std::uint64_t value =
        chunk == 64 ? words[i] : words[i] & ((std::uint64_t{1} << chunk) - 1);
    const unsigned shift = static_cast<unsigned>(at % 64);
    or_word(dst, at / 64, value << shift);
    if (shift + chunk > 64) or_word(dst, at / 64 + 1, value >> (64 - shift));
    at += chunk;
    remaining -= chunk;
  }
}

}  // namespace

std::vector<std::uint8_t> StoreWriter::serialize(const Labeling& labeling,
                                                 std::size_t num_shards) {
  const auto n = static_cast<std::uint64_t>(labeling.size());
  const ShardMap map(n, num_shards);
  const std::size_t shards = map.num_shards();

  // Pass 1: directory geometry. Region offsets/lengths are a pure
  // function of the per-shard label sizes, so the directory can be laid
  // down before any bits are packed (CRCs patched in pass 2).
  std::vector<ShardDirEntry> dir(shards);
  std::uint64_t total_bits = 0;
  std::uint64_t cursor = kHeaderBytes + kDirEntryBytes * shards;
  for (std::size_t s = 0; s < shards; ++s) {
    ShardDirEntry& e = dir[s];
    e.label_count = map.shard_size(s);
    for (std::uint64_t v = map.shard_begin(s); v < map.shard_end(s); ++v) {
      e.total_bits += labeling[static_cast<Vertex>(v)].size_bits();
    }
    e.byte_off = cursor;
    e.byte_len = shard_region_bytes(e.label_count, e.total_bits);
    cursor += e.byte_len;
    total_bits += e.total_bits;
  }

  std::vector<std::uint8_t> out;
  out.reserve(static_cast<std::size_t>(cursor));
  append(out, kMagicV3);
  append(out, kVersion3);
  append(out, n);
  append(out, total_bits);
  append(out, static_cast<std::uint32_t>(shards));
  append(out, std::uint32_t{0});  // header_crc, patched below
  append(out, std::uint32_t{0});  // dir_crc, patched below
  append(out, std::uint32_t{0});  // pad: directory starts 8-aligned
  for (const ShardDirEntry& e : dir) {
    append(out, e.byte_off);
    append(out, e.byte_len);
    append(out, e.label_count);
    append(out, e.total_bits);
    append(out, e.crc);
    append(out, e.reserved);
  }

  // Pass 2: shard regions — offsets, labelsums (zero-padded to a word
  // boundary), packed bits — with the region CRC poked back into the
  // directory as each shard completes.
  for (std::size_t s = 0; s < shards; ++s) {
    const ShardDirEntry& e = dir[s];
    const std::size_t region_start = out.size();
    std::uint64_t offset = 0;
    append(out, offset);
    for (std::uint64_t v = map.shard_begin(s); v < map.shard_end(s); ++v) {
      offset += labeling[static_cast<Vertex>(v)].size_bits();
      append(out, offset);
    }
    for (std::uint64_t v = map.shard_begin(s); v < map.shard_end(s); ++v) {
      append(out, label_spot_checksum(labeling[static_cast<Vertex>(v)]));
    }
    const std::size_t bits_start =
        region_start +
        static_cast<std::size_t>(bits_offset_in_region(e.label_count));
    out.resize(region_start + static_cast<std::size_t>(e.byte_len));
    std::uint64_t at = 0;
    for (std::uint64_t v = map.shard_begin(s); v < map.shard_end(s); ++v) {
      const Label& l = labeling[static_cast<Vertex>(v)];
      pack_label(l, out.data() + bits_start, at);
      at += l.size_bits();
    }

    // crc sits 32 bytes into the serialized entry (after four u64 fields).
    const std::size_t dir_at = kHeaderBytes + kDirEntryBytes * s + 32;
    poke(out, dir_at,
         crc32c(out.data() + region_start, out.size() - region_start));
  }

  poke(out, kHeaderCrcAt, crc32c(out.data(), kHeaderCrcCoverage));
  poke(out, kDirCrcAt,
       crc32c(out.data() + kHeaderBytes, kDirEntryBytes * shards));
  return out;
}

void StoreWriter::write_file(const std::string& path, const Labeling& labeling,
                             std::size_t num_shards) {
  const auto blob = serialize(labeling, num_shards);
  std::ofstream file(path, std::ios::binary);
  if (!file) throw EncodeError("StoreWriter: cannot open " + path);
  if (fault::enabled()) {
    fault::FaultOutputStream out(file, fault::active_plan());
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) throw EncodeError("StoreWriter: write failed for " + path);
  } else {
    file.write(reinterpret_cast<const char*>(blob.data()),
               static_cast<std::streamsize>(blob.size()));
  }
  file.flush();
  if (!file) throw EncodeError("StoreWriter: write failed for " + path);
}

}  // namespace plg::store
