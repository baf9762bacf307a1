// Montgomery-form modular arithmetic — the validation fast path.
//
// Every fair-exchange settlement funnels through RSA-512 `mod_exp` (the
// OP_CHECKRSA512PAIR probes and signature checks) and secp256k1 field
// multiplications, all under a handful of fixed odd moduli; every gateway
// keygen runs Miller-Rabin under a fresh one. A MontgomeryCtx precomputes,
// once per modulus, everything needed to replace each multiply-then-Knuth-
// divide step with one interleaved multiply-reduce over 64-bit limbs with
// 128-bit products (product scanning, reduction folded into the columns):
//
//   * n0' = -m[0]^-1 mod 2^64   (limb-wise Montgomery constant)
//   * R mod m and R^2 mod m     (domain conversion, R = 2^(64*limbs))
//
// BigUint keeps its 32-bit limbs; a context repacks values into 64-bit
// limbs on the way in and out, so the limb width is invisible to callers.
// `mod_exp` stays in the Montgomery domain throughout and uses a 4-bit
// window (16-entry table: 4 squarings + at most 1 multiply per window), all
// in stack scratch for moduli up to 2048 bits; `mod_mul` is two passes
// (a*R^2 -> aR, then aR*b -> ab mod m).
//
// Contexts are memoized in a small thread-local MRU cache keyed on the
// modulus, so repeated verifies under the same RSA key — or the fixed
// secp256k1 p/n — skip precomputation entirely, with no locking on the
// parallel script-check workers. Throwaway moduli (prime-search candidates)
// use a local context instead so they never evict those. The classic
// square-and-multiply / schoolbook-division code remains in BigUint as the
// reference slow path (`mod_exp_basic` / `mod_mul_basic`) and handles even
// moduli, for which Montgomery reduction is undefined.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bignum/biguint.hpp"

namespace bcwan::bignum {

class MontgomeryCtx {
 public:
  /// Throws std::domain_error unless `modulus` is odd and > 1.
  explicit MontgomeryCtx(const BigUint& modulus);

  const BigUint& modulus() const noexcept { return m_; }

  /// (a * b) mod m. Operands need not be reduced.
  BigUint mod_mul(const BigUint& a, const BigUint& b) const;

  /// (base ^ exp) mod m, 4-bit windowed, constant Montgomery domain.
  BigUint mod_exp(const BigUint& base, const BigUint& exp) const;

  /// One Miller-Rabin round for the modulus m, where m - 1 = d * 2^r with d
  /// odd: base^d, then up to r-1 squarings, all in the Montgomery domain.
  /// True unless `base` witnesses that m is composite. Requires
  /// 2 <= base <= m - 2.
  bool strong_probable_prime(const BigUint& base, const BigUint& d,
                             std::size_t r) const;

  /// Memoized context for `modulus` from a bounded thread-local MRU cache.
  /// nullptr when the fast path does not apply: modulus even, zero, one,
  /// at most 32 bits, or Montgomery globally disabled (bench ablations).
  static std::shared_ptr<const MontgomeryCtx> cached(const BigUint& modulus);

 private:
  using Limb = std::uint64_t;

  std::size_t limbs() const noexcept { return mod_limbs_.size(); }
  /// out = a * b * R^-1 mod m for a, b < m. All pointers reference
  /// `limbs()`-sized arrays; `t` is scratch. `out` may alias `a` or `b`.
  void mont_mul(const Limb* a, const Limb* b, Limb* out, Limb* t) const;
  /// out = base^exp * R mod m for base < m given as limbs; `scratch` holds
  /// 17*limbs() limbs (window table and mont_mul scratch).
  void mont_pow(const Limb* base, const BigUint& exp, Limb* out,
                Limb* scratch) const;
  /// Writes v mod m as limbs()-sized little-endian 64-bit limbs.
  void load(const BigUint& v, Limb* out) const;
  BigUint store(const Limb* v) const;

  BigUint m_;
  std::vector<Limb> mod_limbs_;  // m, little-endian
  std::vector<Limb> r1_;         // R mod m (1 in Montgomery form)
  std::vector<Limb> r2_;         // R^2 mod m (to-Montgomery factor)
  Limb n0inv_ = 0;               // -m[0]^-1 mod 2^64
};

/// Global kill switch for the fast path (default on). The bench ablation
/// flips it to isolate Montgomery's contribution; reads are relaxed atomics
/// so the hot path pays one load.
bool montgomery_enabled() noexcept;
void set_montgomery_enabled(bool enabled) noexcept;

}  // namespace bcwan::bignum
