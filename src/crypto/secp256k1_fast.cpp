// Cold-path secp256k1 fast scalar multiplication.
//
// The reference ladder in ecdsa.cpp routes every field multiply through
// BigUint::mod_mul: a thread-local context lookup, two heap-allocated limb
// conversions and *two* CIOS passes (to-Montgomery, then multiply) per
// multiplication. At ~3800 field multiplies per scalar mul that is the
// entire cold-verification budget. This TU replaces the inner loop with a
// fixed-width field core:
//
//   * field elements are 8x32-bit limb arrays kept in the Montgomery domain
//     end to end — one CIOS pass per multiply, stack scratch, no allocation;
//   * point arithmetic mirrors the reference Jacobian formulas exactly
//     (same dbl-2007-b / add structure, so a formula bug diverges loudly in
//     the differential tests rather than subtly in a corner);
//   * scalars are recoded in windowed NAF: ~n/(w+1) additions instead of
//     n/2, and negative digits are free because affine negation is y -> p-y;
//   * the generator's odd multiples (1G, 3G, ..., 63G, 7-bit wNAF) are
//     precomputed once per process in affine form and shared by all threads
//     — initialization is a C++ magic static (race-free, TSan-clean), the
//     "built once, shared" table the batched check queue amortizes;
//   * ec_shamir interleaves u1*G + u2*Q on one doubling chain (Shamir's
//     trick) with mixed additions, Jacobian throughout, one final inversion.
//
// Everything here is differentially tested against Secp256k1::mul (the
// untouched reference oracle) including the edge scalars 0, 1, n-1, n and
// point-at-infinity inputs; BCWAN_ECDSA_BACKEND=reference forces the whole
// suite back onto the oracle.
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "bignum/montgomery.hpp"
#include "crypto/ecdsa.hpp"

namespace bcwan::crypto {

using bignum::BigUint;

namespace {

// --- Fixed-width field arithmetic mod p, Montgomery domain -----------------

constexpr std::size_t kLimbs = 8;

// p = 2^256 - 2^32 - 977, little-endian 32-bit limbs.
constexpr std::uint32_t kP[kLimbs] = {0xfffffc2f, 0xfffffffe, 0xffffffff,
                                      0xffffffff, 0xffffffff, 0xffffffff,
                                      0xffffffff, 0xffffffff};

// -p[0]^-1 mod 2^32 (Newton iteration result, checked in ctx init).
constexpr std::uint32_t kN0Inv = 0xd2253531;

struct Fe {
  std::uint32_t v[kLimbs];
};

bool fe_eq(const Fe& a, const Fe& b) {
  return std::memcmp(a.v, b.v, sizeof a.v) == 0;
}

bool fe_is_zero(const Fe& a) {
  std::uint32_t acc = 0;
  for (std::uint32_t limb : a.v) acc |= limb;
  return acc == 0;
}

/// out = a * b * R^-1 mod p — single CIOS (operand-scanning) pass, fixed
/// 8x32-bit limbs, stack scratch, so the compiler can fully unroll against
/// the constant modulus.
void fe_mul(const Fe& a, const Fe& b, Fe& out) {
  std::uint32_t t[kLimbs + 2] = {0};
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const std::uint64_t ai = a.v[i];
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < kLimbs; ++j) {
      const std::uint64_t cur = t[j] + ai * b.v[j] + carry;
      t[j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::uint64_t cur = t[kLimbs] + carry;
    t[kLimbs] = static_cast<std::uint32_t>(cur);
    t[kLimbs + 1] = static_cast<std::uint32_t>(cur >> 32);

    const std::uint32_t mi = t[0] * kN0Inv;
    cur = t[0] + static_cast<std::uint64_t>(mi) * kP[0];
    carry = cur >> 32;
    for (std::size_t j = 1; j < kLimbs; ++j) {
      cur = t[j] + static_cast<std::uint64_t>(mi) * kP[j] + carry;
      t[j - 1] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    cur = t[kLimbs] + carry;
    t[kLimbs - 1] = static_cast<std::uint32_t>(cur);
    t[kLimbs] = t[kLimbs + 1] + static_cast<std::uint32_t>(cur >> 32);
  }

  bool ge = t[kLimbs] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = kLimbs; i-- > 0;) {
      if (t[i] != kP[i]) {
        ge = t[i] > kP[i];
        break;
      }
    }
  }
  if (ge) {
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      std::int64_t diff = static_cast<std::int64_t>(t[i]) - kP[i] - borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(1) << 32;
        borrow = 1;
      } else {
        borrow = 0;
      }
      out.v[i] = static_cast<std::uint32_t>(diff);
    }
  } else {
    for (std::size_t i = 0; i < kLimbs; ++i) out.v[i] = t[i];
  }
}

void fe_sqr(const Fe& a, Fe& out) { fe_mul(a, a, out); }

void fe_add(const Fe& a, const Fe& b, Fe& out) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    carry += static_cast<std::uint64_t>(a.v[i]) + b.v[i];
    out.v[i] = static_cast<std::uint32_t>(carry);
    carry >>= 32;
  }
  bool ge = carry != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = kLimbs; i-- > 0;) {
      if (out.v[i] != kP[i]) {
        ge = out.v[i] > kP[i];
        break;
      }
    }
  }
  if (ge) {
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      std::int64_t diff = static_cast<std::int64_t>(out.v[i]) - kP[i] - borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(1) << 32;
        borrow = 1;
      } else {
        borrow = 0;
      }
      out.v[i] = static_cast<std::uint32_t>(diff);
    }
  }
}

void fe_sub(const Fe& a, const Fe& b, Fe& out) {
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.v[i]) - b.v[i] - borrow;
    if (diff < 0) {
      diff += static_cast<std::int64_t>(1) << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.v[i] = static_cast<std::uint32_t>(diff);
  }
  if (borrow != 0) {
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      carry += static_cast<std::uint64_t>(out.v[i]) + kP[i];
      out.v[i] = static_cast<std::uint32_t>(carry);
      carry >>= 32;
    }
  }
}

void fe_dbl(const Fe& a, Fe& out) { fe_add(a, a, out); }

/// Additive negation commutes with the Montgomery map, so p - a negates in
/// the domain too. neg(0) stays 0.
void fe_neg(const Fe& a, Fe& out) {
  if (fe_is_zero(a)) {
    out = a;
    return;
  }
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    std::int64_t diff = static_cast<std::int64_t>(kP[i]) - a.v[i] - borrow;
    if (diff < 0) {
      diff += static_cast<std::int64_t>(1) << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.v[i] = static_cast<std::uint32_t>(diff);
  }
}

// --- Point types -----------------------------------------------------------

const Fe& fe_one();  // R mod p (1 in the Montgomery domain), from ctx()

/// Jacobian projective point over Fe: x = X/Z^2, y = Y/Z^3.
struct JPoint {
  Fe x, y, z;
  bool infinity = true;
};

/// Affine table entry (never infinity), Montgomery domain.
struct APoint {
  Fe x, y;
};

// Mirrors ecdsa.cpp's dbl-2007-b-style doubling for a = 0 curves.
void jp_double(const JPoint& a, JPoint& out) {
  if (a.infinity || fe_is_zero(a.y)) {
    out.infinity = true;
    return;
  }
  Fe y2, xy2, s, xx, m, t, x3, y3, z3;
  fe_sqr(a.y, y2);
  fe_mul(a.x, y2, xy2);
  fe_dbl(xy2, s);
  fe_dbl(s, s);  // s = 4*X*Y^2
  fe_sqr(a.x, xx);
  fe_dbl(xx, m);
  fe_add(m, xx, m);  // m = 3*X^2
  fe_sqr(m, x3);
  fe_dbl(s, t);
  fe_sub(x3, t, x3);  // x3 = m^2 - 2s
  fe_sqr(y2, t);
  fe_dbl(t, t);
  fe_dbl(t, t);
  fe_dbl(t, t);  // t = 8*Y^4
  fe_sub(s, x3, y3);
  fe_mul(m, y3, y3);
  fe_sub(y3, t, y3);  // y3 = m*(s - x3) - 8*Y^4
  fe_dbl(a.y, z3);
  fe_mul(z3, a.z, z3);
  out.x = x3;
  out.y = y3;
  out.z = z3;
  out.infinity = false;
}

// General Jacobian + Jacobian addition, same u/s/h/r structure as the
// reference jac_add so the doubling/cancellation corners line up.
void jp_add(const JPoint& a, const JPoint& b, JPoint& out) {
  if (a.infinity) {
    out = b;
    return;
  }
  if (b.infinity) {
    out = a;
    return;
  }
  Fe z1z1, z2z2, u1, u2, s1, s2;
  fe_sqr(a.z, z1z1);
  fe_sqr(b.z, z2z2);
  fe_mul(a.x, z2z2, u1);
  fe_mul(b.x, z1z1, u2);
  fe_mul(a.y, z2z2, s1);
  fe_mul(s1, b.z, s1);
  fe_mul(b.y, z1z1, s2);
  fe_mul(s2, a.z, s2);
  if (fe_eq(u1, u2)) {
    if (!fe_eq(s1, s2)) {
      out.infinity = true;  // P + (-P)
      return;
    }
    jp_double(a, out);
    return;
  }
  Fe h, r, h2, h3, u1h2, x3, y3, z3, t;
  fe_sub(u2, u1, h);
  fe_sub(s2, s1, r);
  fe_sqr(h, h2);
  fe_mul(h2, h, h3);
  fe_mul(u1, h2, u1h2);
  fe_sqr(r, x3);
  fe_sub(x3, h3, x3);
  fe_dbl(u1h2, t);
  fe_sub(x3, t, x3);
  fe_sub(u1h2, x3, y3);
  fe_mul(r, y3, y3);
  fe_mul(s1, h3, t);
  fe_sub(y3, t, y3);
  fe_mul(h, a.z, z3);
  fe_mul(z3, b.z, z3);
  out.x = x3;
  out.y = y3;
  out.z = z3;
  out.infinity = false;
}

/// Mixed addition with an affine point (Z2 = 1): drops 4 multiplies from
/// the general add. Used for every fixed-base table hit.
void jp_add_affine(const JPoint& a, const APoint& b, JPoint& out) {
  if (a.infinity) {
    out.x = b.x;
    out.y = b.y;
    out.z = fe_one();
    out.infinity = false;
    return;
  }
  Fe z1z1, u2, s2;
  fe_sqr(a.z, z1z1);
  fe_mul(b.x, z1z1, u2);
  fe_mul(b.y, z1z1, s2);
  fe_mul(s2, a.z, s2);
  if (fe_eq(a.x, u2)) {
    if (!fe_eq(a.y, s2)) {
      out.infinity = true;
      return;
    }
    jp_double(a, out);
    return;
  }
  Fe h, r, h2, h3, u1h2, x3, y3, z3, t;
  fe_sub(u2, a.x, h);
  fe_sub(s2, a.y, r);
  fe_sqr(h, h2);
  fe_mul(h2, h, h3);
  fe_mul(a.x, h2, u1h2);
  fe_sqr(r, x3);
  fe_sub(x3, h3, x3);
  fe_dbl(u1h2, t);
  fe_sub(x3, t, x3);
  fe_sub(u1h2, x3, y3);
  fe_mul(r, y3, y3);
  fe_mul(a.y, h3, t);
  fe_sub(y3, t, y3);
  fe_mul(h, a.z, z3);
  out.x = x3;
  out.y = y3;
  out.z = z3;
  out.infinity = false;
}

// --- One-time shared context ----------------------------------------------

constexpr int kGenWindow = 7;  // fixed base: 32-entry shared table
constexpr int kPtWindow = 5;   // arbitrary point: 8 Jacobian odd multiples
constexpr std::size_t kGenTable = std::size_t{1} << (kGenWindow - 2);
constexpr std::size_t kPtTable = std::size_t{1} << (kPtWindow - 2);

struct FastCtx {
  Fe r2;                           // R^2 mod p: the to-Montgomery factor
  Fe one;                          // R mod p: 1 in the domain
  APoint gen_tab[kGenTable];       // (2i+1) * G, affine, Montgomery domain
  BigUint order;                   // n, for scalar reduction

  FastCtx();
};

Fe fe_from_biguint_raw(const BigUint& v) {
  // v < p; big-endian export, repack little-endian limbs.
  const util::Bytes be = v.to_bytes_be(32);
  Fe out;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const std::size_t o = 32 - 4 * (i + 1);
    out.v[i] = static_cast<std::uint32_t>(be[o]) << 24 |
               static_cast<std::uint32_t>(be[o + 1]) << 16 |
               static_cast<std::uint32_t>(be[o + 2]) << 8 |
               static_cast<std::uint32_t>(be[o + 3]);
  }
  return out;
}

BigUint fe_to_biguint_raw(const Fe& a) {
  util::Bytes be(32);
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const std::size_t o = 32 - 4 * (i + 1);
    be[o] = static_cast<std::uint8_t>(a.v[i] >> 24);
    be[o + 1] = static_cast<std::uint8_t>(a.v[i] >> 16);
    be[o + 2] = static_cast<std::uint8_t>(a.v[i] >> 8);
    be[o + 3] = static_cast<std::uint8_t>(a.v[i]);
  }
  return BigUint::from_bytes_be(be);
}

/// Race-free shared init: C++ magic static — the first caller builds the
/// tables, concurrent callers block until it is published. No torn reads,
/// no double init, verified under the TSan CI job by the checkqueue-driven
/// cold-connect test.
const FastCtx& ctx() {
  static const FastCtx c;
  return c;
}

const Fe& fe_one() { return ctx().one; }

Fe to_montgomery(const BigUint& v) {
  Fe raw = fe_from_biguint_raw(v % Secp256k1::p());
  Fe out;
  fe_mul(raw, ctx().r2, out);
  return out;
}

BigUint from_montgomery(const Fe& a) {
  Fe one_raw = {};
  one_raw.v[0] = 1;
  Fe std_form;
  fe_mul(a, one_raw, std_form);  // mont(a, 1) = a * R^-1
  return fe_to_biguint_raw(std_form);
}

FastCtx::FastCtx() {
  const BigUint& p = Secp256k1::p();
  // Sanity-check the hardcoded Montgomery constant against a from-scratch
  // computation; a typo here would corrupt every field multiply.
  std::uint32_t inv = 0xfffffc2f;
  for (int i = 0; i < 4; ++i) inv *= 2 - 0xfffffc2fu * inv;
  if (~inv + 1 != kN0Inv)
    throw std::logic_error("secp256k1_fast: n0inv constant mismatch");

  r2 = fe_from_biguint_raw((BigUint(1) << 512) % p);
  one = fe_from_biguint_raw((BigUint(1) << 256) % p);
  order = Secp256k1::n();

  // Generator odd multiples 1G, 3G, ..., 63G: accumulate in Jacobian, then
  // normalize each entry to affine (one-time cost, shared forever).
  const EcPoint& g = Secp256k1::g();
  JPoint gj;
  gj.x = [&] {
    Fe raw = fe_from_biguint_raw(g.x), out;
    fe_mul(raw, r2, out);
    return out;
  }();
  gj.y = [&] {
    Fe raw = fe_from_biguint_raw(g.y), out;
    fe_mul(raw, r2, out);
    return out;
  }();
  gj.z = one;
  gj.infinity = false;

  JPoint g2;
  jp_double(gj, g2);
  JPoint acc = gj;
  for (std::size_t i = 0; i < kGenTable; ++i) {
    // Normalize acc = (2i+1)G to affine: x = X/Z^2, y = Y/Z^3.
    const BigUint z = from_montgomery(acc.z);
    const auto z_inv = BigUint::mod_inv(z, p);
    if (!z_inv) throw std::logic_error("secp256k1_fast: table Z not invertible");
    Fe zi, zi2, zi3;
    {
      Fe raw = fe_from_biguint_raw(*z_inv);
      fe_mul(raw, r2, zi);
    }
    fe_sqr(zi, zi2);
    fe_mul(zi2, zi, zi3);
    fe_mul(acc.x, zi2, gen_tab[i].x);
    fe_mul(acc.y, zi3, gen_tab[i].y);
    if (i + 1 < kGenTable) {
      JPoint next;
      jp_add(acc, g2, next);
      acc = next;
    }
  }
}

// --- Scalar recoding -------------------------------------------------------

/// 9 little-endian limbs: wNAF's k += |d| step can carry one bit past 2^256.
struct Scalar {
  std::uint32_t v[9];

  bool is_zero() const {
    std::uint32_t acc = 0;
    for (std::uint32_t limb : v) acc |= limb;
    return acc == 0;
  }
  void shr1() {
    for (std::size_t i = 0; i + 1 < 9; ++i)
      v[i] = (v[i] >> 1) | (v[i + 1] << 31);
    v[8] >>= 1;
  }
  void sub_small(std::uint32_t d) {
    std::int64_t borrow = d;
    for (std::size_t i = 0; i < 9 && borrow != 0; ++i) {
      std::int64_t diff = static_cast<std::int64_t>(v[i]) - borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(1) << 32;
        borrow = 1;
      } else {
        borrow = 0;
      }
      v[i] = static_cast<std::uint32_t>(diff);
    }
  }
  void add_small(std::uint32_t d) {
    std::uint64_t carry = d;
    for (std::size_t i = 0; i < 9 && carry != 0; ++i) {
      carry += v[i];
      v[i] = static_cast<std::uint32_t>(carry);
      carry >>= 32;
    }
  }
};

Scalar scalar_from(const BigUint& k) {
  const util::Bytes be = k.to_bytes_be(32);
  Scalar s{};
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t o = 32 - 4 * (i + 1);
    s.v[i] = static_cast<std::uint32_t>(be[o]) << 24 |
             static_cast<std::uint32_t>(be[o + 1]) << 16 |
             static_cast<std::uint32_t>(be[o + 2]) << 8 |
             static_cast<std::uint32_t>(be[o + 3]);
  }
  return s;
}

constexpr std::size_t kMaxDigits = 258;

/// Standard wNAF: every nonzero digit is odd, |d| < 2^(w-1), and at least
/// w-1 zero digits follow each nonzero one. Returns the digit count.
std::size_t wnaf(const BigUint& k, int w, std::int8_t* out) {
  Scalar s = scalar_from(k);
  const std::uint32_t mask = (1u << w) - 1;
  const std::int32_t half = 1 << (w - 1);
  std::size_t len = 0;
  while (!s.is_zero()) {
    std::int32_t d = 0;
    if (s.v[0] & 1u) {
      d = static_cast<std::int32_t>(s.v[0] & mask);
      if (d >= half) d -= 1 << w;
      if (d >= 0)
        s.sub_small(static_cast<std::uint32_t>(d));
      else
        s.add_small(static_cast<std::uint32_t>(-d));
    }
    out[len++] = static_cast<std::int8_t>(d);
    s.shr1();
  }
  return len;
}

// --- Conversions at the API boundary --------------------------------------

JPoint to_jpoint(const EcPoint& p) {
  JPoint out;
  if (p.infinity) return out;
  out.x = to_montgomery(p.x);
  out.y = to_montgomery(p.y);
  out.z = ctx().one;
  out.infinity = false;
  return out;
}

EcPoint from_jpoint(const JPoint& j) {
  if (j.infinity) return {BigUint{}, BigUint{}, true};
  const BigUint& p = Secp256k1::p();
  const BigUint z = from_montgomery(j.z);
  const auto z_inv = BigUint::mod_inv(z, p);
  if (!z_inv) throw std::logic_error("secp256k1_fast: non-invertible Z");
  Fe zi, zi2, zi3, x, y;
  {
    Fe raw = fe_from_biguint_raw(*z_inv);
    fe_mul(raw, ctx().r2, zi);
  }
  fe_sqr(zi, zi2);
  fe_mul(zi2, zi, zi3);
  fe_mul(j.x, zi2, x);
  fe_mul(j.y, zi3, y);
  return {from_montgomery(x), from_montgomery(y), false};
}

/// Odd multiples 1Q, 3Q, ..., (2^(w-1)-1)Q in Jacobian form (normalizing
/// them to affine would cost an inversion per call — not worth it for the
/// ~43 additions a 5-bit wNAF performs).
void build_pt_table(const JPoint& q, JPoint* tab) {
  tab[0] = q;
  JPoint q2;
  jp_double(q, q2);
  for (std::size_t i = 1; i < kPtTable; ++i) jp_add(tab[i - 1], q2, tab[i]);
}

void jp_neg(const JPoint& a, JPoint& out) {
  out = a;
  if (!a.infinity) fe_neg(a.y, out.y);
}

}  // namespace

// --- Public entry points ---------------------------------------------------

EcPoint ec_mul_wnaf(const BigUint& k, const EcPoint& point) {
  if (point.infinity) return {BigUint{}, BigUint{}, true};
  const BigUint kr = k % ctx().order;
  if (kr.is_zero()) return {BigUint{}, BigUint{}, true};

  std::int8_t digits[kMaxDigits];
  const std::size_t len = wnaf(kr, kPtWindow, digits);
  JPoint tab[kPtTable];
  build_pt_table(to_jpoint(point), tab);

  JPoint acc, tmp;
  for (std::size_t i = len; i-- > 0;) {
    jp_double(acc, tmp);
    acc = tmp;
    const std::int8_t d = digits[i];
    if (d > 0) {
      jp_add(acc, tab[(d - 1) / 2], tmp);
      acc = tmp;
    } else if (d < 0) {
      JPoint neg;
      jp_neg(tab[(-d - 1) / 2], neg);
      jp_add(acc, neg, tmp);
      acc = tmp;
    }
  }
  return from_jpoint(acc);
}

EcPoint ec_mul_gen_wnaf(const BigUint& k) {
  const FastCtx& c = ctx();
  const BigUint kr = k % c.order;
  if (kr.is_zero()) return {BigUint{}, BigUint{}, true};

  std::int8_t digits[kMaxDigits];
  const std::size_t len = wnaf(kr, kGenWindow, digits);

  JPoint acc, tmp;
  for (std::size_t i = len; i-- > 0;) {
    jp_double(acc, tmp);
    acc = tmp;
    const std::int8_t d = digits[i];
    if (d > 0) {
      jp_add_affine(acc, c.gen_tab[(d - 1) / 2], tmp);
      acc = tmp;
    } else if (d < 0) {
      APoint neg = c.gen_tab[(-d - 1) / 2];
      fe_neg(neg.y, neg.y);
      jp_add_affine(acc, neg, tmp);
      acc = tmp;
    }
  }
  return from_jpoint(acc);
}

EcPoint ec_shamir(const BigUint& u1, const BigUint& u2, const EcPoint& q) {
  const FastCtx& c = ctx();
  const BigUint r1 = u1 % c.order;
  const BigUint r2 = u2 % c.order;
  const bool use_q = !q.infinity && !r2.is_zero();
  if (r1.is_zero() && !use_q) return {BigUint{}, BigUint{}, true};

  std::int8_t dg[kMaxDigits] = {0};
  std::int8_t dq[kMaxDigits] = {0};
  const std::size_t lg = r1.is_zero() ? 0 : wnaf(r1, kGenWindow, dg);
  const std::size_t lq = use_q ? wnaf(r2, kPtWindow, dq) : 0;

  JPoint q_tab[kPtTable];
  if (use_q) build_pt_table(to_jpoint(q), q_tab);

  JPoint acc, tmp;
  const std::size_t len = lg > lq ? lg : lq;
  for (std::size_t i = len; i-- > 0;) {
    jp_double(acc, tmp);
    acc = tmp;
    if (i < lg && dg[i] != 0) {
      const std::int8_t d = dg[i];
      if (d > 0) {
        jp_add_affine(acc, c.gen_tab[(d - 1) / 2], tmp);
      } else {
        APoint neg = c.gen_tab[(-d - 1) / 2];
        fe_neg(neg.y, neg.y);
        jp_add_affine(acc, neg, tmp);
      }
      acc = tmp;
    }
    if (i < lq && dq[i] != 0) {
      const std::int8_t d = dq[i];
      if (d > 0) {
        jp_add(acc, q_tab[(d - 1) / 2], tmp);
      } else {
        JPoint neg;
        jp_neg(q_tab[(-d - 1) / 2], neg);
        jp_add(acc, neg, tmp);
      }
      acc = tmp;
    }
  }
  return from_jpoint(acc);
}

// --- Backend pin -----------------------------------------------------------

namespace {

// The process default: the BCWAN_ECDSA_BACKEND pin when set to a valid
// name (CI's forced-reference pass), the Shamir fast path otherwise.
// select_backend("auto") restores this, so a test that pins a specific
// backend and then resets cannot silently override an environment pin for
// the rest of the suite.
EcdsaBackend default_backend() {
  static const EcdsaBackend def = [] {
    if (const char* env = std::getenv("BCWAN_ECDSA_BACKEND")) {
      const std::string_view name(env);
      if (name == "reference") return EcdsaBackend::kReference;
      if (name == "wnaf") return EcdsaBackend::kWnaf;
      if (name == "shamir") return EcdsaBackend::kShamir;
    }
    return EcdsaBackend::kShamir;
  }();
  return def;
}

std::atomic<EcdsaBackend>& backend_slot() {
  static std::atomic<EcdsaBackend> slot{default_backend()};
  return slot;
}

}  // namespace

EcdsaBackend ecdsa_backend() noexcept {
  return backend_slot().load(std::memory_order_relaxed);
}

bool ecdsa_select_backend(std::string_view name) noexcept {
  EcdsaBackend b;
  if (name == "reference") {
    b = EcdsaBackend::kReference;
  } else if (name == "wnaf") {
    b = EcdsaBackend::kWnaf;
  } else if (name == "shamir") {
    b = EcdsaBackend::kShamir;
  } else if (name == "auto") {
    b = default_backend();
  } else {
    return false;
  }
  backend_slot().store(b, std::memory_order_relaxed);
  return true;
}

const char* ecdsa_backend_name() noexcept {
  switch (ecdsa_backend()) {
    case EcdsaBackend::kReference:
      return "reference";
    case EcdsaBackend::kWnaf:
      return "wnaf";
    case EcdsaBackend::kShamir:
      return "shamir";
  }
  return "unknown";
}

EcPoint ec_mul_gen(const BigUint& k) {
  if (ecdsa_backend() == EcdsaBackend::kReference)
    return Secp256k1::mul(k, Secp256k1::g());
  return ec_mul_gen_wnaf(k);
}

void ecdsa_warmup() {
  if (ecdsa_backend() != EcdsaBackend::kReference)
    (void)ctx();  // force the one-time generator tables
  // Prime this thread's Montgomery MRU for the scalar-field (and, on the
  // reference backend, field-prime) moduli so the batch's first signature
  // skips context construction.
  (void)bignum::MontgomeryCtx::cached(Secp256k1::n());
  (void)bignum::MontgomeryCtx::cached(Secp256k1::p());
}

}  // namespace bcwan::crypto
