//===- store/StoreFormat.h - Binary profile container format ----*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On-disk format of the binary profile store (the ExtBinary-style
/// sectioned container, see DESIGN.md "Profile store"):
///
///   header (20 bytes, fixed little-endian):
///     [0..3]   magic "CSPF"
///     [4..5]   u16 format version (currently 3)
///     [6]      u8 flag bits (context-sensitive / probe-based /
///              compact-names / exact-counts); unknown bits are rejected
///     [7]      u8 reserved, must be 0
///     [8..15]  u64 content hash (hashStoreBytes) of every byte from offset
///              16 to the end — any truncation or bit flip anywhere in the
///              file fails open()
///     [16..19] u32 section count
///   section table (24 bytes per entry, fixed little-endian):
///     { u32 section id, u32 reserved(0), u64 absolute offset, u64 size }
///   section payloads. The metadata sections that open() must walk in
///   full (string table, function index) are fixed-width so they decode
///   with plain word loads; the per-function payload blocks stay
///   ULEB128-encoded (they are only decoded on demand, and varints keep
///   them small).
///
/// Flat and context-sensitive stores hold the same five sections and one
/// payload format: each function is a block of contexts in the cs-payload
/// section, and a flat store's block is one one-frame context with node
/// flags 0. Unknown section ids are skipped (forward compatibility); every
/// store requires all five.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_STORE_STOREFORMAT_H
#define CSSPGO_STORE_STOREFORMAT_H

#include <cstdint>
#include <string>
#include <string_view>

namespace csspgo {

inline constexpr char StoreMagic[4] = {'C', 'S', 'P', 'F'};
/// Version 2: content hash switched from byte-serial FNV-1a to a
/// word-at-a-time multiply-xor chain. Version 3: the chain was split into
/// four independent lanes (hashStoreBytes below), so the hash value — and
/// therefore the container — changed again. The layout is otherwise
/// unchanged; older stores are rejected (nothing persists stores across
/// versions — they are build artifacts, not archives). Flat stores later
/// moved from the retired flat-payload (id 4) and probe-meta (id 6)
/// sections into cs-payload blocks of one-frame contexts without a
/// version bump, so that context-sensitive stores keep their exact bytes:
/// a flat store written before that move fails open() with "missing
/// required section: cs-payload".
inline constexpr uint16_t StoreVersion = 3;
inline constexpr size_t StoreHeaderSize = 20;
inline constexpr size_t StoreSectionEntrySize = 24;

/// Reads the 8-byte little-endian word at \p P. memcpy compiles to one
/// load (the shift-assembly idiom does not — it was the hash bottleneck);
/// the bswap on big-endian hosts keeps the value, and so every store
/// hash, endian-independent.
inline uint64_t loadStoreWord(const char *P) {
  uint64_t W;
  __builtin_memcpy(&W, P, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  W = __builtin_bswap64(W);
#endif
  return W;
}

/// 4-byte counterpart of loadStoreWord, for the fixed-width section
/// layouts (string-table offsets, index entries).
inline uint32_t loadStoreWord32(const char *P) {
  uint32_t W;
  __builtin_memcpy(&W, P, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  W = __builtin_bswap32(W);
#endif
  return W;
}

/// Content hash of the store body. Validating the whole container on open
/// is the fixed cost every reader pays — including the zero-copy lazy
/// path, whose point is to *not* touch most of the payload — so this has
/// to run at memory speed: four independent 64-bit multiply-xor chains
/// over 8-byte words (a single chain is serialized on the multiply
/// latency; four lanes keep the multipliers full and measure ~4x the
/// single-chain throughput). The length is mixed into the seed so "abc"
/// and "abc\0" cannot collide via the zero-padded tail.
inline uint64_t hashStoreBytes(std::string_view Data) {
  constexpr uint64_t M = 0x9e3779b97f4a7c15ull;
  uint64_t H0 = 0xcbf29ce484222325ull ^ (Data.size() * M);
  uint64_t H1 = 0x84222325cbf29ce4ull;
  uint64_t H2 = 0x9ce484222325cbf2ull;
  uint64_t H3 = 0x2325cbf29ce48422ull;
  size_t I = 0;
  for (; I + 32 <= Data.size(); I += 32) {
    H0 = (H0 ^ loadStoreWord(Data.data() + I)) * M;
    H1 = (H1 ^ loadStoreWord(Data.data() + I + 8)) * M;
    H2 = (H2 ^ loadStoreWord(Data.data() + I + 16)) * M;
    H3 = (H3 ^ loadStoreWord(Data.data() + I + 24)) * M;
  }
  for (; I + 8 <= Data.size(); I += 8)
    H0 = (H0 ^ loadStoreWord(Data.data() + I)) * M;
  if (I != Data.size()) {
    uint64_t W = 0;
    for (int B = 0; I + B < Data.size(); ++B)
      W |= static_cast<uint64_t>(static_cast<uint8_t>(Data[I + B])) << (8 * B);
    H0 = (H0 ^ W) * M;
  }
  // Fold the lanes (every lane passes through a multiply so no input
  // word can cancel another lane's), then avalanche the high bits back
  // down so truncating consumers of any byte range still see every input
  // bit.
  uint64_t H = (((H1 * M ^ H2) * M ^ H3) * M ^ H0) * M;
  H ^= H >> 32;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 29;
  return H;
}

/// Header flag bits. Open rejects any bit outside StoreKnownFlags so a
/// corrupted flag byte (or a future format) never decodes as garbage.
enum StoreFlagBits : uint8_t {
  SF_ContextSensitive = 1u << 0, ///< CS trie (else one-frame contexts).
  SF_ProbeBased = 1u << 1,       ///< ProfileKind::ProbeBased records.
  SF_CompactNames = 1u << 2,     ///< String table holds GUIDs, not names.
  SF_ExactCounts = 1u << 3,      ///< Instrumentation (counter) profile.
};
inline constexpr uint8_t StoreKnownFlags =
    SF_ContextSensitive | SF_ProbeBased | SF_CompactNames | SF_ExactCounts;

enum class StoreSection : uint32_t {
  StringTable = 1, ///< Deduplicated names (or GUIDs when compact).
  EpochTable = 2,  ///< Ingestion history: {timestamp, total, decay}.
  FuncIndex = 3,   ///< Per-function {name, offset, size, total, head}.
  CSPayload = 5,   ///< Context blocks grouped by leaf function.
  Summary = 7,     ///< Hot-threshold count distribution (value, count).
  // Ids 4 and 6 are retired (the old flat payload and its probe metadata)
  // and are skipped like any unknown id.
};

/// Append-only little-endian byte sink for the store writer.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }
  void u16(uint16_t V) {
    u8(static_cast<uint8_t>(V));
    u8(static_cast<uint8_t>(V >> 8));
  }
  void u32(uint32_t V) {
    u16(static_cast<uint16_t>(V));
    u16(static_cast<uint16_t>(V >> 16));
  }
  void u64(uint64_t V) {
    u32(static_cast<uint32_t>(V));
    u32(static_cast<uint32_t>(V >> 32));
  }
  void uleb(uint64_t V) {
    do {
      uint8_t B = V & 0x7f;
      V >>= 7;
      u8(V ? B | 0x80 : B);
    } while (V);
  }
  void bytes(std::string_view S) { Buf.append(S); }

  size_t size() const { return Buf.size(); }
  std::string take() { return std::move(Buf); }
  const std::string &str() const { return Buf; }

private:
  std::string Buf;
};

/// Bounds-checked little-endian reader over one slice of the store. Every
/// accessor returns false instead of reading past the end; ULEB decoding
/// additionally rejects encodings that overflow 64 bits.
class ByteReader {
public:
  ByteReader() = default;
  explicit ByteReader(std::string_view Data) : Data(Data) {}

  size_t pos() const { return Pos; }
  size_t remaining() const { return Data.size() - Pos; }
  bool done() const { return Pos == Data.size(); }

  bool u8(uint8_t &Out) {
    if (remaining() < 1)
      return false;
    Out = static_cast<uint8_t>(Data[Pos++]);
    return true;
  }
  bool u16(uint16_t &Out) {
    uint8_t A, B;
    if (!u8(A) || !u8(B))
      return false;
    Out = static_cast<uint16_t>(A | (B << 8));
    return true;
  }
  bool u32(uint32_t &Out) {
    uint16_t A, B;
    if (!u16(A) || !u16(B))
      return false;
    Out = static_cast<uint32_t>(A) | (static_cast<uint32_t>(B) << 16);
    return true;
  }
  bool u64(uint64_t &Out) {
    uint32_t A, B;
    if (!u32(A) || !u32(B))
      return false;
    Out = static_cast<uint64_t>(A) | (static_cast<uint64_t>(B) << 32);
    return true;
  }
  bool uleb(uint64_t &Out) {
    // Fast path: a one-byte varint (the overwhelmingly common case in
    // every section — small counts, keys, deltas) costs one bounds check
    // and one branch.
    if (Pos < Data.size()) {
      uint8_t B = static_cast<uint8_t>(Data[Pos]);
      if (!(B & 0x80)) {
        ++Pos;
        Out = B;
        return true;
      }
    }
    Out = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      uint8_t B;
      if (!u8(B))
        return false;
      // The 10th byte may only contribute the final bit of a 64-bit value.
      if (Shift == 63 && (B & 0x7e))
        return false;
      Out |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return true;
    }
    return false;
  }
  bool bytes(size_t N, std::string_view &Out) {
    if (remaining() < N)
      return false;
    Out = Data.substr(Pos, N);
    Pos += N;
    return true;
  }

private:
  std::string_view Data;
  size_t Pos = 0;
};

} // namespace csspgo

#endif // CSSPGO_STORE_STOREFORMAT_H
