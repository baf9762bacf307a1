// Arbitrary-precision unsigned integers.
//
// This is the numeric substrate for the from-scratch crypto stack: RSA-512
// (the paper's ephemeral-key scheme and OP_CHECKRSA512PAIR operator) and
// ECDSA over secp256k1 (transaction signatures). Limbs are 32-bit stored
// little-endian; products/divisions use 64-bit intermediates. Division is
// Knuth Algorithm D.
//
// Values are normalized: no trailing zero limbs; zero is the empty limb
// vector. All operations are value-semantic and throw std::domain_error on
// mathematically undefined inputs (division by zero, subtraction underflow).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bcwan::bignum {

class MontgomeryCtx;

class BigUint {
 public:
  /// Zero.
  BigUint() = default;
  /// From a machine word.
  BigUint(std::uint64_t v);  // NOLINT(google-explicit-constructor) — numeric literal ergonomics

  static BigUint from_hex(std::string_view hex);
  /// Big-endian byte import (network/crypto order). Leading zeros allowed.
  static BigUint from_bytes_be(util::ByteView bytes);

  std::string to_hex() const;
  /// Big-endian export, left-padded with zeros to at least `min_width` bytes.
  util::Bytes to_bytes_be(std::size_t min_width = 0) const;
  /// Throws std::domain_error if the value exceeds 64 bits.
  std::uint64_t to_u64() const;

  bool is_zero() const noexcept { return limbs_.empty(); }
  bool is_one() const noexcept { return limbs_.size() == 1 && limbs_[0] == 1; }
  bool is_even() const noexcept { return limbs_.empty() || (limbs_[0] & 1u) == 0; }
  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const noexcept;
  /// Bit i (LSB = 0); out-of-range bits read as 0.
  bool bit(std::size_t i) const noexcept;

  static int compare(const BigUint& a, const BigUint& b) noexcept;
  friend bool operator==(const BigUint& a, const BigUint& b) noexcept {
    return compare(a, b) == 0;
  }
  friend std::strong_ordering operator<=>(const BigUint& a,
                                          const BigUint& b) noexcept {
    const int c = compare(a, b);
    return c < 0 ? std::strong_ordering::less
           : c > 0 ? std::strong_ordering::greater
                   : std::strong_ordering::equal;
  }

  friend BigUint operator+(const BigUint& a, const BigUint& b);
  /// Throws std::domain_error if b > a (unsigned underflow).
  friend BigUint operator-(const BigUint& a, const BigUint& b);
  friend BigUint operator*(const BigUint& a, const BigUint& b);
  friend BigUint operator/(const BigUint& a, const BigUint& b);
  friend BigUint operator%(const BigUint& a, const BigUint& b);
  BigUint& operator+=(const BigUint& o) { return *this = *this + o; }
  BigUint& operator-=(const BigUint& o) { return *this = *this - o; }
  BigUint& operator*=(const BigUint& o) { return *this = *this * o; }

  BigUint shl(std::size_t bits) const;
  BigUint shr(std::size_t bits) const;
  friend BigUint operator<<(const BigUint& a, std::size_t b) { return a.shl(b); }
  friend BigUint operator>>(const BigUint& a, std::size_t b) { return a.shr(b); }

  /// Quotient and remainder in one pass. Throws std::domain_error on b == 0.
  static std::pair<BigUint, BigUint> divmod(const BigUint& a, const BigUint& b);
  /// This value mod a nonzero machine word, in word arithmetic (no
  /// allocation). Throws std::domain_error on d == 0.
  std::uint32_t mod_word(std::uint32_t d) const;

  /// (base ^ exp) mod m. Routed through the Montgomery fast path for odd
  /// multi-limb moduli (see bignum/montgomery.hpp); otherwise falls back to
  /// mod_exp_basic. Throws on m == 0.
  static BigUint mod_exp(const BigUint& base, const BigUint& exp,
                         const BigUint& m);
  /// Reference slow path: square-and-multiply over schoolbook division.
  /// Works for any modulus; differential tests pit the Montgomery path
  /// against this.
  static BigUint mod_exp_basic(const BigUint& base, const BigUint& exp,
                               const BigUint& m);
  /// RSA-CRT exponentiation: base^d mod (p*q) computed as two half-width
  /// exponentiations (dp = d mod p-1, dq = d mod q-1, each routed through
  /// the Montgomery fast path for its own prime) recombined with Garner's
  /// formula using qinv = q^-1 mod p. Roughly 4x cheaper than a full-width
  /// mod_exp because Montgomery cost scales with limbs^2 * exponent bits. The
  /// caller owns correctness of (dp, dq, qinv) — RSA callers re-check the
  /// result against the public exponent so a miscomputation cannot escape
  /// (crypto/rsa.cpp); differential tests pit this against mod_exp.
  /// Throws std::domain_error on p or q zero.
  static BigUint mod_exp_crt(const BigUint& base, const BigUint& dp,
                             const BigUint& dq, const BigUint& p,
                             const BigUint& q, const BigUint& qinv);
  /// Modular inverse via extended Euclid; nullopt when gcd(a, m) != 1.
  static std::optional<BigUint> mod_inv(const BigUint& a, const BigUint& m);
  /// (a * b) mod m. Routed through Montgomery for odd moduli >= 128 bits.
  static BigUint mod_mul(const BigUint& a, const BigUint& b, const BigUint& m);
  /// Reference slow path: full product then Knuth division.
  static BigUint mod_mul_basic(const BigUint& a, const BigUint& b,
                               const BigUint& m);
  /// (a + b) mod m, assuming a, b < m.
  static BigUint mod_add(const BigUint& a, const BigUint& b, const BigUint& m);
  /// (a - b) mod m, assuming a, b < m.
  static BigUint mod_sub(const BigUint& a, const BigUint& b, const BigUint& m);
  static BigUint gcd(BigUint a, BigUint b);

  /// Uniform value with exactly `bits` random bits (top bit not forced).
  static BigUint random_bits(util::Rng& rng, std::size_t bits);
  /// Uniform in [0, bound). Throws on bound == 0.
  static BigUint random_below(util::Rng& rng, const BigUint& bound);

 private:
  friend class MontgomeryCtx;  // raw limb access for Montgomery multiplication

  void trim() noexcept;
  std::vector<std::uint32_t> limbs_;  // little-endian, normalized
};

}  // namespace bcwan::bignum
