// Cold-path secp256k1 fast scalar multiplication.
//
// The reference ladder in ecdsa.cpp routes every field multiply through
// BigUint::mod_mul: a thread-local context lookup, heap-allocated limb
// conversions and two Montgomery passes per multiplication. At ~3800 field
// multiplies per scalar mul that is the entire cold-verification budget.
// This TU replaces the inner loop with a fixed-width field core:
//
//   * field elements are 4x64-bit limbs in plain form, always reduced to
//     [0, p); a multiply is a 4x4 schoolbook product in 128-bit
//     intermediates whose high half is folded in with
//     2^256 = 0x1000003D1 (mod p) twice, then one conditional subtract —
//     stack scratch, no allocation, no domain conversions;
//   * inversion is Fermat, a^(p-2), over the standard secp256k1 addition
//     chain (255 squarings, 15 multiplies), so no BigUint division runs on
//     the fast path;
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
// point-at-infinity inputs, and the field operations against BigUint mod p
// (secp256k1_field.hpp); BCWAN_ECDSA_BACKEND=reference forces the whole
// suite back onto the oracle.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "bignum/montgomery.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/secp256k1_field.hpp"

namespace bcwan::crypto {

using bignum::BigUint;

// --- Fixed-width field arithmetic mod p, plain form ------------------------

namespace detail {

namespace {

using Wide = unsigned __int128;

constexpr std::uint64_t lo(Wide w) { return static_cast<std::uint64_t>(w); }

// 2^256 mod p = 2^32 + 977: p = 2^256 - kFold.
constexpr std::uint64_t kFold = 0x1000003D1;

// p = 2^256 - 2^32 - 977, little-endian 64-bit limbs.
constexpr std::uint64_t kP[4] = {0xFFFFFFFEFFFFFC2F, 0xFFFFFFFFFFFFFFFF,
                                 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF};

/// Final reduction of v = r + overflow * 2^256, for v < 2p: subtracting p
/// is adding kFold mod 2^256, and it is due exactly when v >= 2^256 or when
/// r + kFold carries past 2^256 (r >= p).
void fe_settle(const std::uint64_t r[4], bool overflow, Fe& out) {
  std::uint64_t s[4];
  Wide acc = static_cast<Wide>(r[0]) + kFold;
  s[0] = lo(acc);
  for (int i = 1; i < 4; ++i) {
    acc = (acc >> 64) + r[i];
    s[i] = lo(acc);
  }
  const bool carry = (acc >> 64) != 0;
  std::memcpy(out.v, overflow || carry ? s : r, sizeof out.v);
}

/// 512-bit product t -> t mod p. First fold: t_lo + t_hi * kFold, which
/// fits in 256 + 34 bits; second fold: the 34-bit top limb times kFold into
/// the low four limbs, which may carry past 2^256 once more. The value is
/// then below 2^256 + 2^67 < 2p, so fe_settle finishes it.
void fe_reduce(const std::uint64_t t[8], Fe& out) {
  std::uint64_t r[4];
  Wide acc = static_cast<Wide>(t[4]) * kFold + t[0];
  r[0] = lo(acc);
  for (int i = 1; i < 4; ++i) {
    acc = (acc >> 64) + static_cast<Wide>(t[4 + i]) * kFold + t[i];
    r[i] = lo(acc);
  }
  const std::uint64_t top = lo(acc >> 64);

  acc = static_cast<Wide>(top) * kFold + r[0];
  r[0] = lo(acc);
  for (int i = 1; i < 4; ++i) {
    acc = (acc >> 64) + r[i];
    r[i] = lo(acc);
  }
  fe_settle(r, (acc >> 64) != 0, out);
}

/// out = a^(2^n): n successive squarings.
void fe_sqr_n(const Fe& a, int n, Fe& out) {
  out = a;
  for (int i = 0; i < n; ++i) fe_sqr(out, out);
}

}  // namespace

Fe fe_from_biguint(const BigUint& v) {
  const util::Bytes be = (v % Secp256k1::p()).to_bytes_be(32);
  Fe out;
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t limb = 0;
    for (std::size_t b = 0; b < 8; ++b) limb = limb << 8 | be[24 - 8 * i + b];
    out.v[i] = limb;
  }
  return out;
}

BigUint fe_to_biguint(const Fe& a) {
  util::Bytes be(32);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t b = 0; b < 8; ++b)
      be[24 - 8 * i + b] = static_cast<std::uint8_t>(a.v[i] >> (56 - 8 * b));
  return BigUint::from_bytes_be(be);
}

void fe_mul(const Fe& a, const Fe& b, Fe& out) {
  std::uint64_t t[8] = {0};
  for (int i = 0; i < 4; ++i) {
    Wide acc = 0;
    for (int j = 0; j < 4; ++j) {
      acc = (acc >> 64) + static_cast<Wide>(a.v[i]) * b.v[j] + t[i + j];
      t[i + j] = lo(acc);
    }
    t[i + 4] = lo(acc >> 64);
  }
  fe_reduce(t, out);
}

void fe_sqr(const Fe& a, Fe& out) { fe_mul(a, a, out); }

void fe_add(const Fe& a, const Fe& b, Fe& out) {
  std::uint64_t s[4];
  Wide acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc = (acc >> 64) + a.v[i] + b.v[i];
    s[i] = lo(acc);
  }
  fe_settle(s, (acc >> 64) != 0, out);
}

void fe_sub(const Fe& a, const Fe& b, Fe& out) {
  std::uint64_t d[4];
  std::uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const Wide diff = static_cast<Wide>(a.v[i]) - b.v[i] - borrow;
    d[i] = lo(diff);
    borrow = lo(diff >> 64) & 1;
  }
  if (borrow != 0) {
    // a - b + 2^256 is in the limbs; a - b + p = that - kFold.
    borrow = kFold;
    for (int i = 0; i < 4; ++i) {
      const Wide diff = static_cast<Wide>(d[i]) - borrow;
      d[i] = lo(diff);
      borrow = lo(diff >> 64) & 1;
    }
  }
  std::memcpy(out.v, d, sizeof out.v);
}

void fe_neg(const Fe& a, Fe& out) {
  if ((a.v[0] | a.v[1] | a.v[2] | a.v[3]) == 0) {
    out = a;
    return;
  }
  std::uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const Wide diff = static_cast<Wide>(kP[i]) - a.v[i] - borrow;
    out.v[i] = lo(diff);
    borrow = lo(diff >> 64) & 1;
  }
}

void fe_inv(const Fe& a, Fe& out) {
  // p - 2 = 2^256 - 2^32 - 979: 223 ones, a zero, 22 ones, then 0000101101.
  // xk denotes a^(2^k - 1), a run of k one bits.
  Fe x2, x3, x6, x9, x11, x22, x44, x88, x176, x220, x223, t;
  fe_sqr(a, x2);
  fe_mul(x2, a, x2);
  fe_sqr(x2, x3);
  fe_mul(x3, a, x3);
  fe_sqr_n(x3, 3, x6);
  fe_mul(x6, x3, x6);
  fe_sqr_n(x6, 3, x9);
  fe_mul(x9, x3, x9);
  fe_sqr_n(x9, 2, x11);
  fe_mul(x11, x2, x11);
  fe_sqr_n(x11, 11, x22);
  fe_mul(x22, x11, x22);
  fe_sqr_n(x22, 22, x44);
  fe_mul(x44, x22, x44);
  fe_sqr_n(x44, 44, x88);
  fe_mul(x88, x44, x88);
  fe_sqr_n(x88, 88, x176);
  fe_mul(x176, x88, x176);
  fe_sqr_n(x176, 44, x220);
  fe_mul(x220, x44, x220);
  fe_sqr_n(x220, 3, x223);
  fe_mul(x223, x3, x223);
  // Tail: shift in 0 + 22 ones, 00001, 011, 01.
  fe_sqr_n(x223, 23, t);
  fe_mul(t, x22, t);
  fe_sqr_n(t, 5, t);
  fe_mul(t, a, t);
  fe_sqr_n(t, 3, t);
  fe_mul(t, x2, t);
  fe_sqr_n(t, 2, t);
  fe_mul(t, a, out);
}

}  // namespace detail

namespace {

using detail::Fe;
using detail::fe_add;
using detail::fe_from_biguint;
using detail::fe_inv;
using detail::fe_mul;
using detail::fe_neg;
using detail::fe_sqr;
using detail::fe_sub;
using detail::fe_to_biguint;

bool fe_eq(const Fe& a, const Fe& b) {
  return std::memcmp(a.v, b.v, sizeof a.v) == 0;
}

bool fe_is_zero(const Fe& a) {
  return (a.v[0] | a.v[1] | a.v[2] | a.v[3]) == 0;
}

void fe_dbl(const Fe& a, Fe& out) { fe_add(a, a, out); }

constexpr Fe kOne = {{1, 0, 0, 0}};

// --- Point types -----------------------------------------------------------

/// Jacobian projective point over Fe: x = X/Z^2, y = Y/Z^3.
struct JPoint {
  Fe x, y, z;
  bool infinity = true;
};

/// Affine table entry (never infinity).
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
    out.z = kOne;
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
  APoint gen_tab[kGenTable];  // (2i+1) * G, affine
  BigUint order;              // n, for scalar reduction

  FastCtx();
};

/// Race-free shared init: C++ magic static — the first caller builds the
/// tables, concurrent callers block until it is published. No torn reads,
/// no double init, verified under the TSan CI job by the checkqueue-driven
/// cold-connect test.
const FastCtx& ctx() {
  static const FastCtx c;
  return c;
}

/// Affine x = X/Z^2, y = Y/Z^3 for a finite Jacobian point.
APoint to_affine(const JPoint& j) {
  if (fe_is_zero(j.z)) throw std::logic_error("secp256k1_fast: non-invertible Z");
  Fe zi, zi2, zi3;
  fe_inv(j.z, zi);
  fe_sqr(zi, zi2);
  fe_mul(zi2, zi, zi3);
  APoint out;
  fe_mul(j.x, zi2, out.x);
  fe_mul(j.y, zi3, out.y);
  return out;
}

FastCtx::FastCtx() {
  order = Secp256k1::n();

  // Generator odd multiples 1G, 3G, ..., 63G: accumulate in Jacobian, then
  // normalize each entry to affine (one-time cost, shared forever).
  const EcPoint& g = Secp256k1::g();
  JPoint gj;
  gj.x = fe_from_biguint(g.x);
  gj.y = fe_from_biguint(g.y);
  gj.z = kOne;
  gj.infinity = false;

  JPoint g2;
  jp_double(gj, g2);
  JPoint acc = gj;
  for (std::size_t i = 0; i < kGenTable; ++i) {
    gen_tab[i] = to_affine(acc);
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
  out.x = fe_from_biguint(p.x);
  out.y = fe_from_biguint(p.y);
  out.z = kOne;
  out.infinity = false;
  return out;
}

EcPoint from_jpoint(const JPoint& j) {
  if (j.infinity) return {BigUint{}, BigUint{}, true};
  const APoint a = to_affine(j);
  return {fe_to_biguint(a.x), fe_to_biguint(a.y), false};
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
