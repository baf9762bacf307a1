// Internal secp256k1 field and scalar surface (crypto module and its tests).
//
// The fast ECDSA core (secp256k1_fast.cpp) holds field elements mod
// p = 2^256 - 2^32 - 977 as four little-endian 64-bit limbs in plain
// (non-Montgomery) form, always fully reduced to [0, p). This header exposes
// those operations so the field-level differential tests and the crypto
// microbenchmarks can drive them directly against BigUint; nothing outside
// crypto/ should depend on it.
#pragma once

#include <cstdint>
#include <optional>

#include "bignum/biguint.hpp"

namespace bcwan::crypto::detail {

/// Field element mod p, little-endian 64-bit limbs, always < p.
struct Fe {
  std::uint64_t v[4];
};

/// v mod p (any width).
Fe fe_from_biguint(const bignum::BigUint& v);
bignum::BigUint fe_to_biguint(const Fe& a);

// Every operation takes reduced operands, returns a reduced result, and
// allows `out` to alias any input.

/// a * b mod p: 4x4 schoolbook product, then the high half is folded in
/// twice with 2^256 = 0x1000003D1 (mod p) and one conditional subtract.
void fe_mul(const Fe& a, const Fe& b, Fe& out);
/// a^2 mod p, as fe_mul(a, a): a dedicated 10-product squaring measured
/// slower in the Release build.
void fe_sqr(const Fe& a, Fe& out);
void fe_add(const Fe& a, const Fe& b, Fe& out);
void fe_sub(const Fe& a, const Fe& b, Fe& out);
/// p - a, with neg(0) = 0.
void fe_neg(const Fe& a, Fe& out);
/// a^(p-2) by the standard secp256k1 addition chain (255 squarings, 15
/// multiplies): a^-1 for a != 0, and 0 for a == 0.
void fe_inv(const Fe& a, Fe& out);

/// x^-1 mod n (the group order) by Fermat, x^(n-2), on the cached
/// Montgomery context for n; nullopt when x = 0 (mod n). Defined in
/// ecdsa.cpp next to the curve constants.
std::optional<bignum::BigUint> scalar_inv(const bignum::BigUint& x);

}  // namespace bcwan::crypto::detail
