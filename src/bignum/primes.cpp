#include "bignum/primes.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

#include "bignum/montgomery.hpp"

namespace bcwan::bignum {

namespace {

// The primes below 1024: every composite below 2^20 has one as a factor.
constexpr std::array<std::uint32_t, 172> kSmallPrimes = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349,
    353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433,
    439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613,
    617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701,
    709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809,
    811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887,
    907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
    1009, 1013, 1019, 1021};

/// Odd offsets sieved per random start. About one odd 256-bit number in 89
/// is prime, so a window runs dry (forcing a new start) once in ~10^5.
constexpr std::size_t kWindow = 1024;

/// Miller-Rabin for odd n >= 5 on a local context: a candidate's context is
/// used once, so it stays out of the shared MontgomeryCtx::cached MRU.
bool miller_rabin(const BigUint& n, util::Rng& rng, std::size_t rounds) {
  const BigUint n_minus_1 = n - BigUint(1);
  std::size_t r = 1;
  while (!n_minus_1.bit(r)) ++r;
  const BigUint d = n_minus_1 >> r;
  const MontgomeryCtx ctx(n);
  const BigUint two(2);
  const BigUint span = n - BigUint(3);  // bases in [2, n-2]
  for (std::size_t round = 0; round < rounds; ++round) {
    const BigUint base = BigUint::random_below(rng, span) + two;
    if (!ctx.strong_probable_prime(base, d, r)) return false;
  }
  return true;
}

/// Uniform odd value with exactly `bits` bits and the next bit down set (so
/// p*q has exactly 2*bits bits, as RSA keygen requires).
BigUint random_start(util::Rng& rng, std::size_t bits) {
  const std::size_t nbytes = (bits + 7) / 8;
  const std::size_t excess = nbytes * 8 - bits;
  util::Bytes raw = rng.bytes(nbytes);
  raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
  raw[0] |= static_cast<std::uint8_t>(0x80 >> excess);
  if (excess == 7) {
    raw[1] |= 0x80;
  } else {
    raw[0] |= static_cast<std::uint8_t>(0x40 >> excess);
  }
  raw[nbytes - 1] |= 0x01;
  return BigUint::from_bytes_be(raw);
}

}  // namespace

bool is_probable_prime(const BigUint& n, util::Rng& rng, std::size_t rounds) {
  if (n.bit_length() < 2) return false;  // 0 and 1
  for (std::uint32_t p : kSmallPrimes) {
    if (n.mod_word(p) == 0) return n == BigUint(p);
  }
  // Trial division covered every factor up to sqrt(2^20) = 1024.
  if (n.bit_length() <= 20) return true;
  return miller_rabin(n, rng, rounds);
}

BigUint generate_prime(util::Rng& rng, std::size_t bits) {
  if (bits < 8) throw std::invalid_argument("generate_prime: bits < 8");
  const BigUint limit = BigUint(1) << bits;
  for (;;) {
    const BigUint start = random_start(rng, bits);
    // Candidates start + 2k stay below 2^bits: they keep the bit length
    // and, being >= start, both top bits.
    const BigUint room = limit - start;
    std::size_t count = kWindow;
    if (room.bit_length() <= 32)
      count = std::min<std::size_t>(count, (room.to_u64() + 1) / 2);

    // Strike every k where an odd small prime p divides start + 2k, i.e.
    // k == -start / 2 (mod p). Primes >= start are skipped, so no small
    // candidate is struck off for being p itself; every p <= sqrt(limit)
    // is still used below 2^20, where the sieve alone is exact.
    const std::uint64_t start_word =
        bits < 64 ? start.to_u64() : UINT64_MAX;
    std::array<bool, kWindow> composite{};
    for (std::size_t i = 1; i < kSmallPrimes.size(); ++i) {
      const std::uint32_t p = kSmallPrimes[i];
      if (p >= start_word) break;
      const std::uint64_t neg_start = (p - start.mod_word(p)) % p;
      for (std::size_t k = neg_start * ((p + 1) / 2) % p; k < count; k += p)
        composite[k] = true;
    }

    for (std::size_t k = 0; k < count; ++k) {
      if (composite[k]) continue;
      BigUint candidate = start + BigUint(2 * k);
      if (miller_rabin(candidate, rng, kMillerRabinRounds)) return candidate;
    }
  }
}

BigUint generate_rsa_prime(util::Rng& rng, std::size_t bits,
                           const BigUint& public_exponent) {
  for (;;) {
    BigUint p = generate_prime(rng, bits);
    if (BigUint::gcd(p - BigUint(1), public_exponent).is_one()) return p;
  }
}

}  // namespace bcwan::bignum
