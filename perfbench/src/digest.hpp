// FNV-1a digest over the values a run produced (determinism checks).
#pragma once

#include <cstdint>
#include <cstring>

namespace perfbench {

class Digest {
 public:
  void add_bytes(const std::uint8_t* data, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= data[i];
      h_ *= 0x100000001B3ull;
    }
  }
  void add(std::uint64_t v) {
    std::uint8_t b[8];
    std::memcpy(b, &v, sizeof b);
    add_bytes(b, sizeof b);
  }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// SplitMix64 step: derives independent sub-seeds from the run seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
