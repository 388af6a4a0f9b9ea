// 64-bit FNV-1a: the one byte hash behind the serve plan keys and result
// fingerprints and the WAL record and checkpoint payload checksums.
#pragma once

#include <cstddef>
#include <cstdint>

namespace oocc {

/// FNV-1a's 64-bit offset basis, the standard starting value.
inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;

/// The seed of the WAL record and checkpoint payload checksums: FNV's
/// offset basis, 14695981039346656037, with its last digit dropped. Kept
/// as it is: with any other seed, the WAL and checkpoint files written by
/// earlier builds would fail their checksums.
inline constexpr std::uint64_t kFileChecksumSeed = 1469598103934665603ULL;

/// 64-bit FNV-1a over the `bytes` bytes at `data`, starting from `seed`.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace oocc
