#include "crypto/aes_modes.hpp"

#include <cstring>
#include <stdexcept>

namespace wile::crypto {

Bytes aes_ctr(const Aes128& cipher, const std::array<std::uint8_t, 12>& nonce,
              BytesView data, std::uint32_t initial_counter) {
  Bytes out(data.begin(), data.end());
  std::uint32_t counter = initial_counter;
  for (std::size_t off = 0; off < out.size(); off += Aes128::kBlockSize, ++counter) {
    Aes128::Block ctr_block{};
    std::memcpy(ctr_block.data(), nonce.data(), nonce.size());
    ctr_block[12] = static_cast<std::uint8_t>(counter >> 24);
    ctr_block[13] = static_cast<std::uint8_t>(counter >> 16);
    ctr_block[14] = static_cast<std::uint8_t>(counter >> 8);
    ctr_block[15] = static_cast<std::uint8_t>(counter);
    const Aes128::Block keystream = cipher.encrypt_block(ctr_block);
    const std::size_t n = std::min(Aes128::kBlockSize, out.size() - off);
    for (std::size_t i = 0; i < n; ++i) out[off + i] ^= keystream[i];
  }
  return out;
}

namespace {
// Double a 128-bit value in GF(2^128) per SP 800-38B subkey generation.
Aes128::Block gf_double(const Aes128::Block& in) {
  Aes128::Block out{};
  std::uint8_t carry = 0;
  for (int i = 15; i >= 0; --i) {
    out[i] = static_cast<std::uint8_t>((in[i] << 1) | carry);
    carry = (in[i] & 0x80) ? 1 : 0;
  }
  if (carry) out[15] ^= 0x87;
  return out;
}
}  // namespace

std::array<std::uint8_t, 16> aes_cmac(const Aes128& cipher, BytesView data) {
  // Subkeys K1 (full final block) and K2 (padded final block).
  const Aes128::Block zero{};
  const Aes128::Block l = cipher.encrypt_block(zero);
  const Aes128::Block k1 = gf_double(l);
  const Aes128::Block k2 = gf_double(k1);

  const std::size_t n_blocks =
      data.empty() ? 1 : (data.size() + Aes128::kBlockSize - 1) / Aes128::kBlockSize;
  const bool last_complete = !data.empty() && data.size() % Aes128::kBlockSize == 0;

  Aes128::Block x{};
  for (std::size_t b = 0; b + 1 < n_blocks; ++b) {
    for (std::size_t i = 0; i < Aes128::kBlockSize; ++i) {
      x[i] ^= data[b * Aes128::kBlockSize + i];
    }
    x = cipher.encrypt_block(x);
  }

  // Final block, masked with K1 or padded + masked with K2.
  Aes128::Block last{};
  const std::size_t last_off = (n_blocks - 1) * Aes128::kBlockSize;
  const std::size_t last_len = data.size() - last_off;
  if (last_complete) {
    for (std::size_t i = 0; i < Aes128::kBlockSize; ++i) {
      last[i] = static_cast<std::uint8_t>(data[last_off + i] ^ k1[i]);
    }
  } else {
    for (std::size_t i = 0; i < last_len; ++i) last[i] = data[last_off + i];
    last[last_len] = 0x80;
    for (std::size_t i = 0; i < Aes128::kBlockSize; ++i) {
      last[i] = static_cast<std::uint8_t>(last[i] ^ k2[i]);
    }
  }
  for (std::size_t i = 0; i < Aes128::kBlockSize; ++i) x[i] ^= last[i];
  return cipher.encrypt_block(x);
}

namespace {
// 64-bit halves for the key-wrap register, big-endian on the wire.
Aes128::Block concat64(const std::uint8_t* a, const std::uint8_t* b) {
  Aes128::Block out{};
  std::memcpy(out.data(), a, 8);
  std::memcpy(out.data() + 8, b, 8);
  return out;
}
}  // namespace

Bytes aes_key_wrap(const Aes128& kek, BytesView plaintext) {
  if (plaintext.size() < 16 || plaintext.size() % 8 != 0) {
    throw std::invalid_argument("aes_key_wrap: plaintext must be 8k bytes, k >= 2");
  }
  const std::size_t n = plaintext.size() / 8;
  std::uint8_t a[8];
  std::memset(a, 0xa6, sizeof(a));  // RFC 3394 default IV
  Bytes r(plaintext.begin(), plaintext.end());

  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = 1; i <= n; ++i) {
      Aes128::Block b = kek.encrypt_block(concat64(a, &r[(i - 1) * 8]));
      const std::uint64_t t = static_cast<std::uint64_t>(n) * j + i;
      std::memcpy(a, b.data(), 8);
      for (int k = 0; k < 8; ++k) {
        a[7 - k] ^= static_cast<std::uint8_t>((t >> (8 * k)) & 0xff);
      }
      std::memcpy(&r[(i - 1) * 8], b.data() + 8, 8);
    }
  }
  Bytes out(8 + r.size());
  std::memcpy(out.data(), a, 8);
  std::memcpy(out.data() + 8, r.data(), r.size());
  return out;
}

std::optional<Bytes> aes_key_unwrap(const Aes128& kek, BytesView wrapped) {
  if (wrapped.size() < 24 || wrapped.size() % 8 != 0) return std::nullopt;
  const std::size_t n = wrapped.size() / 8 - 1;
  std::uint8_t a[8];
  std::memcpy(a, wrapped.data(), 8);
  Bytes r(wrapped.begin() + 8, wrapped.end());

  for (int j = 5; j >= 0; --j) {
    for (std::size_t i = n; i >= 1; --i) {
      const std::uint64_t t = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(j) + i;
      std::uint8_t a_x[8];
      std::memcpy(a_x, a, 8);
      for (int k = 0; k < 8; ++k) {
        a_x[7 - k] ^= static_cast<std::uint8_t>((t >> (8 * k)) & 0xff);
      }
      const Aes128::Block b = kek.decrypt_block(concat64(a_x, &r[(i - 1) * 8]));
      std::memcpy(a, b.data(), 8);
      std::memcpy(&r[(i - 1) * 8], b.data() + 8, 8);
    }
  }
  for (std::size_t k = 0; k < 8; ++k) {
    if (a[k] != 0xa6) return std::nullopt;
  }
  return r;
}

}  // namespace wile::crypto
