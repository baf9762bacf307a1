#include "crypto/ecdsa.hpp"

#include <stdexcept>

#include "crypto/hmac.hpp"
#include "crypto/secp256k1_field.hpp"
#include "util/serial.hpp"

namespace bcwan::crypto {

using bignum::BigUint;

namespace {

const BigUint& field_p() {
  static const BigUint p = BigUint::from_hex(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
  return p;
}

const BigUint& order_n() {
  static const BigUint n = BigUint::from_hex(
      "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
  return n;
}

const EcPoint& gen_g() {
  static const EcPoint g{
      BigUint::from_hex(
          "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
      BigUint::from_hex(
          "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"),
      false};
  return g;
}

// Jacobian projective point: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
struct Jacobian {
  BigUint x, y, z;
  bool infinity = true;
};

Jacobian to_jacobian(const EcPoint& p) {
  if (p.infinity) return {};
  return {p.x, p.y, BigUint(1), false};
}

// Field multiply: BigUint::mod_mul routes through the thread-local cached
// Montgomery context for the (fixed, odd) secp256k1 prime — one Montgomery
// pass pair instead of a schoolbook multiply plus Knuth division.
// Small-constant products (2x, 3x, 4x, 8x) become modular doublings so every
// operand stays reduced.
BigUint fe_mul(const BigUint& a, const BigUint& b) {
  return BigUint::mod_mul(a, b, field_p());
}

BigUint fe_dbl(const BigUint& a) {
  return BigUint::mod_add(a, a, field_p());
}

EcPoint from_jacobian(const Jacobian& j) {
  if (j.infinity) return {BigUint{}, BigUint{}, true};
  const BigUint& p = field_p();
  const auto z_inv = BigUint::mod_inv(j.z, p);
  if (!z_inv) throw std::logic_error("secp256k1: non-invertible Z");
  const BigUint z2 = fe_mul(*z_inv, *z_inv);
  const BigUint z3 = fe_mul(z2, *z_inv);
  return {fe_mul(j.x, z2), fe_mul(j.y, z3), false};
}

Jacobian jac_double(const Jacobian& a) {
  if (a.infinity) return a;
  const BigUint& p = field_p();
  if (a.y.is_zero()) return {};
  // Standard dbl-2007-b style formulas for a = 0 curves.
  const BigUint y2 = fe_mul(a.y, a.y);
  const BigUint xy2 = fe_mul(a.x, y2);
  const BigUint s = fe_dbl(fe_dbl(xy2));  // 4*X*Y^2
  const BigUint xx = fe_mul(a.x, a.x);
  const BigUint m = BigUint::mod_add(fe_dbl(xx), xx, p);  // 3*X^2
  const BigUint x3 = BigUint::mod_sub(fe_mul(m, m), fe_dbl(s), p);
  const BigUint y8 = fe_dbl(fe_dbl(fe_dbl(fe_mul(y2, y2))));  // 8*Y^4
  const BigUint y3 =
      BigUint::mod_sub(fe_mul(m, BigUint::mod_sub(s, x3, p)), y8, p);
  const BigUint z3 = fe_mul(fe_dbl(a.y), a.z);
  return {x3, y3, z3, false};
}

Jacobian jac_add(const Jacobian& a, const Jacobian& b) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  const BigUint& p = field_p();
  const BigUint z1z1 = fe_mul(a.z, a.z);
  const BigUint z2z2 = fe_mul(b.z, b.z);
  const BigUint u1 = fe_mul(a.x, z2z2);
  const BigUint u2 = fe_mul(b.x, z1z1);
  const BigUint s1 = fe_mul(fe_mul(a.y, z2z2), b.z);
  const BigUint s2 = fe_mul(fe_mul(b.y, z1z1), a.z);
  if (u1 == u2) {
    if (!(s1 == s2)) return {};  // P + (-P) = infinity
    return jac_double(a);
  }
  const BigUint h = BigUint::mod_sub(u2, u1, p);
  const BigUint r = BigUint::mod_sub(s2, s1, p);
  const BigUint h2 = fe_mul(h, h);
  const BigUint h3 = fe_mul(h2, h);
  const BigUint u1h2 = fe_mul(u1, h2);
  BigUint x3 = BigUint::mod_sub(fe_mul(r, r), h3, p);
  x3 = BigUint::mod_sub(x3, fe_dbl(u1h2), p);
  const BigUint y3 = BigUint::mod_sub(
      fe_mul(r, BigUint::mod_sub(u1h2, x3, p)), fe_mul(s1, h3), p);
  const BigUint z3 = fe_mul(fe_mul(h, a.z), b.z);
  return {x3, y3, z3, false};
}

Jacobian jac_mul(const BigUint& k, const Jacobian& point) {
  Jacobian result;  // infinity
  Jacobian base = point;
  const std::size_t bits = k.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (k.bit(i)) result = jac_add(result, base);
    base = jac_double(base);
  }
  return result;
}

// Deterministic nonce: HMAC chain over (priv || digest || counter), reduced
// mod n. Simplified from RFC 6979 but preserves its key property — the nonce
// is a pseudorandom function of (key, message) and never repeats across
// distinct messages.
BigUint deterministic_nonce(const BigUint& priv, const Digest256& digest,
                            std::uint32_t counter) {
  util::Writer w;
  w.var_bytes(priv.to_bytes_be(32));
  w.bytes(util::ByteView(digest.data(), digest.size()));
  w.u32(counter);
  const Digest256 mac =
      hmac_sha256(util::str_bytes("bcwan/ecdsa-nonce"), w.data());
  const BigUint k =
      BigUint::from_bytes_be(util::ByteView(mac.data(), mac.size())) %
      order_n();
  return k;
}

}  // namespace

const BigUint& Secp256k1::p() { return field_p(); }
const BigUint& Secp256k1::n() { return order_n(); }
const EcPoint& Secp256k1::g() { return gen_g(); }

EcPoint Secp256k1::add(const EcPoint& a, const EcPoint& b) {
  return from_jacobian(jac_add(to_jacobian(a), to_jacobian(b)));
}

EcPoint Secp256k1::mul(const BigUint& k, const EcPoint& point) {
  return from_jacobian(jac_mul(k % order_n(), to_jacobian(point)));
}

bool Secp256k1::on_curve(const EcPoint& point) {
  if (point.infinity) return true;
  const BigUint& p = field_p();
  const BigUint lhs = fe_mul(point.y, point.y);
  const BigUint rhs = BigUint::mod_add(
      fe_mul(fe_mul(point.x, point.x), point.x), BigUint(7), p);
  return lhs == rhs;
}

std::optional<BigUint> detail::scalar_inv(const BigUint& x) {
  // n is prime, so x^(n-2) = x^-1 for x != 0 (mod n). BigUint::mod_exp runs
  // it on the thread's cached Montgomery context for n (~320 fixed-width
  // multiplies), where extended Euclid pays ~190 allocating divisions.
  const BigUint& n = order_n();
  const BigUint r = x % n;
  if (r.is_zero()) return std::nullopt;
  static const BigUint n_minus_2 = n - BigUint(2);
  return BigUint::mod_exp(r, n_minus_2, n);
}

util::Bytes EcdsaSignature::serialize() const {
  return util::concat({r.to_bytes_be(32), s.to_bytes_be(32)});
}

std::optional<EcdsaSignature> EcdsaSignature::deserialize(util::ByteView data) {
  if (data.size() != 64) return std::nullopt;
  EcdsaSignature sig;
  sig.r = BigUint::from_bytes_be(data.subspan(0, 32));
  sig.s = BigUint::from_bytes_be(data.subspan(32, 32));
  if (sig.r.is_zero() || sig.s.is_zero()) return std::nullopt;
  if (sig.r >= order_n() || sig.s >= order_n()) return std::nullopt;
  return sig;
}

EcKeyPair ec_generate(util::Rng& rng) {
  const BigUint one(1);
  const BigUint span = order_n() - one;
  const BigUint priv = BigUint::random_below(rng, span) + one;
  return {priv, ec_mul_gen(priv)};
}

EcKeyPair ec_from_seed(util::ByteView seed) {
  const Digest256 h = hmac_sha256(util::str_bytes("bcwan/ec-identity"), seed);
  BigUint priv = BigUint::from_bytes_be(util::ByteView(h.data(), h.size())) %
                 (order_n() - BigUint(1));
  priv = priv + BigUint(1);
  return {priv, ec_mul_gen(priv)};
}

util::Bytes ec_pubkey_encode(const EcPoint& pub) {
  if (pub.infinity) throw std::invalid_argument("ec_pubkey_encode: infinity");
  util::Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  const util::Bytes x = pub.x.to_bytes_be(32);
  const util::Bytes y = pub.y.to_bytes_be(32);
  out.insert(out.end(), x.begin(), x.end());
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

std::optional<EcPoint> ec_pubkey_decode(util::ByteView data) {
  if (data.size() != 65 || data[0] != 0x04) return std::nullopt;
  EcPoint p{BigUint::from_bytes_be(data.subspan(1, 32)),
            BigUint::from_bytes_be(data.subspan(33, 32)), false};
  if (!Secp256k1::on_curve(p)) return std::nullopt;
  return p;
}

EcdsaSignature ecdsa_sign(const BigUint& priv, util::ByteView message) {
  return ecdsa_sign_digest(priv, sha256d(message));
}

EcdsaSignature ecdsa_sign_digest(const BigUint& priv, const Digest256& digest) {
  const BigUint& n = order_n();
  const BigUint z =
      BigUint::from_bytes_be(util::ByteView(digest.data(), digest.size())) % n;

  for (std::uint32_t counter = 0;; ++counter) {
    const BigUint k = deterministic_nonce(priv, digest, counter);
    if (k.is_zero()) continue;
    // Backend-dispatched fixed-base multiply: the wNAF table path and the
    // reference ladder produce the identical point, so signatures are
    // byte-identical across backends (differentially tested).
    const EcPoint rp = ec_mul_gen(k);
    if (rp.infinity) continue;
    const BigUint r = rp.x % n;
    if (r.is_zero()) continue;
    const auto k_inv = detail::scalar_inv(k);
    if (!k_inv) continue;
    BigUint s = BigUint::mod_mul(
        *k_inv, BigUint::mod_add(z, BigUint::mod_mul(r, priv, n), n), n);
    if (s.is_zero()) continue;
    // Low-s normalization (BIP-62) for canonical signatures.
    if (s > n >> 1) s = n - s;
    return {r, s};
  }
}

bool ecdsa_verify(const EcPoint& pub, util::ByteView message,
                  const EcdsaSignature& sig) {
  return ecdsa_verify_digest(pub, sha256d(message), sig);
}

bool ecdsa_verify_digest(const EcPoint& pub, const Digest256& digest,
                         const EcdsaSignature& sig) {
  const BigUint& n = order_n();
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (sig.r >= n || sig.s >= n) return false;
  if (pub.infinity || !Secp256k1::on_curve(pub)) return false;

  const BigUint z =
      BigUint::from_bytes_be(util::ByteView(digest.data(), digest.size())) % n;
  const auto s_inv = detail::scalar_inv(sig.s);
  if (!s_inv) return false;
  const BigUint u1 = BigUint::mod_mul(z, *s_inv, n);
  const BigUint u2 = BigUint::mod_mul(sig.r, *s_inv, n);

  switch (ecdsa_backend()) {
    case EcdsaBackend::kShamir: {
      // Single interleaved double-scalar pass: one doubling chain serves
      // both u1*G (mixed adds against the shared fixed-base table) and
      // u2*Q, with one field inversion at the very end.
      const EcPoint sum = ec_shamir(u1, u2, pub);
      if (sum.infinity) return false;
      return sum.x % n == sig.r;
    }
    case EcdsaBackend::kReference:
      break;
  }
  const Jacobian sum = jac_add(jac_mul(u1, to_jacobian(gen_g())),
                               jac_mul(u2, to_jacobian(pub)));
  if (sum.infinity) return false;
  const EcPoint affine = from_jacobian(sum);
  return affine.x % n == sig.r;
}

}  // namespace bcwan::crypto
