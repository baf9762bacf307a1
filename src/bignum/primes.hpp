// Probabilistic primality testing and random prime generation.
//
// Used by crypto::rsa to generate the 256-bit prime factors of RSA-512
// moduli (and larger moduli for the key-size ablation). Miller-Rabin with
// random bases, run on a local MontgomeryCtx per candidate; prime search is
// incremental from a random start, with a small-prime sieve over a window
// of odd offsets so that only sieve survivors pay for Miller-Rabin.
#pragma once

#include <cstddef>

#include "bignum/biguint.hpp"
#include "util/rng.hpp"

namespace bcwan::bignum {

/// Miller-Rabin rounds used by default and by prime generation.
inline constexpr std::size_t kMillerRabinRounds = 24;

/// Miller-Rabin with `rounds` random bases in [2, n-2] (error probability
/// <= 4^-rounds), after trial division by the primes below 1024. Exact for
/// inputs below 2^20, where trial division alone decides.
bool is_probable_prime(const BigUint& n, util::Rng& rng,
                       std::size_t rounds = kMillerRabinRounds);

/// Random prime with exactly `bits` bits (top two bits set so that products
/// of two such primes have exactly 2*bits bits, as RSA keygen requires).
/// Searches upward from a random odd start with both top bits set, sieving
/// a window of odd offsets by the odd primes below 1024 and testing the
/// survivors with kMillerRabinRounds rounds; draws a new start when the
/// window runs out or would reach 2^bits. Requires bits >= 8.
BigUint generate_prime(util::Rng& rng, std::size_t bits);

/// Random safe-ish RSA prime p with gcd(p-1, e) == 1.
BigUint generate_rsa_prime(util::Rng& rng, std::size_t bits,
                           const BigUint& public_exponent);

}  // namespace bcwan::bignum
