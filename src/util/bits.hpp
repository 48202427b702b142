// Bit-level helpers: the PHY works in bits while payloads live in
// bytes, MSB first on air everywhere (framer, CRC, feedback words).
// append/read_bits build and parse the header fields of phy/framer.hpp
// without a bit-stream class. The byte pack/unpack pair,
// hamming_distance and Lfsr16 have no caller outside their own tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace fdb {

/// Expands bytes to bits, MSB first ("on-air" order for the framer).
std::vector<std::uint8_t> bytes_to_bits(std::span<const std::uint8_t> bytes);

/// Packs bits (MSB first) into bytes. Trailing partial byte is
/// zero-padded in the low bits.
std::vector<std::uint8_t> bits_to_bytes(std::span<const std::uint8_t> bits);

/// Hamming distance between two equal-length bit vectors. Counts
/// positions where the (0/1) values differ.
std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b);

/// Appends `value`'s low `nbits` bits, MSB first, to `out`.
void append_bits(std::vector<std::uint8_t>& out, std::uint32_t value,
                 int nbits);

/// Reads `nbits` bits MSB-first starting at `offset`. Returns the value;
/// caller must ensure offset+nbits <= bits.size().
std::uint32_t read_bits(std::span<const std::uint8_t> bits, std::size_t offset,
                        int nbits);

/// Pseudo-random bit sequence generator (Fibonacci LFSR, poly x^16+x^14+
/// x^13+x^11+1), maximal length.
class Lfsr16 {
 public:
  explicit Lfsr16(std::uint16_t seed = 0xACE1u);
  std::uint8_t next_bit();
  std::vector<std::uint8_t> next_bits(std::size_t n);

 private:
  std::uint16_t state_;
};

}  // namespace fdb
