#include "bignum/montgomery.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

namespace bcwan::bignum {

namespace {

using Limb = std::uint64_t;
using Wide = unsigned __int128;

std::atomic<bool> g_montgomery_enabled{true};

/// Inverse of an odd 64-bit value mod 2^64 by Newton iteration: each step
/// doubles the number of correct low bits; five steps from the 3 bits an
/// odd value is correct to cover all 64.
Limb inv64(Limb odd) {
  Limb x = odd;
  for (int i = 0; i < 5; ++i) x *= 2 - odd * x;
  return x;
}

/// out = a - b over n limbs; returns the borrow out of the top limb.
Limb sub_limbs(const Limb* a, const Limb* b, Limb* out, std::size_t n) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb diff = a[i] - b[i];
    const Limb next = (a[i] < b[i]) | (diff < borrow);
    out[i] = diff - borrow;
    borrow = next;
  }
  return borrow;
}

/// A 192-bit column accumulator: a column sums at most 2n products of two
/// limbs, so it needs 128 + log2(2n) bits.
struct Column {
  Wide low = 0;
  Limb high = 0;

  void add(Limb x, Limb y) {
    const Wide p = static_cast<Wide>(x) * y;
    low += p;
    high += low < p;
  }
  /// Returns the bottom limb and shifts the accumulator down one limb.
  Limb shift() {
    const Limb out = static_cast<Limb>(low);
    low = (low >> 64) | (static_cast<Wide>(high) << 64);
    high = 0;
    return out;
  }
};

/// Limb scratch on the stack for moduli up to kStackModLimbs (2048 bits),
/// on the heap beyond. The largest user, strong_probable_prime, needs
/// 20 * limbs. Left uninitialized: every user writes a region before it
/// reads it, and zeroing 5 KB would cost more than a 256-bit mod_mul.
class Scratch {
 public:
  explicit Scratch(std::size_t n) {
    if (n > kCapacity) {
      heap_.resize(n);
      ptr_ = heap_.data();
    }
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  Limb* data() noexcept { return ptr_; }

 private:
  static constexpr std::size_t kStackModLimbs = 32;
  static constexpr std::size_t kCapacity = 20 * kStackModLimbs;
  Limb stack_[kCapacity];
  std::vector<Limb> heap_;
  Limb* ptr_ = stack_;
};

constexpr std::size_t kCtxCacheCap = 64;

}  // namespace

bool montgomery_enabled() noexcept {
  return g_montgomery_enabled.load(std::memory_order_relaxed);
}

void set_montgomery_enabled(bool enabled) noexcept {
  g_montgomery_enabled.store(enabled, std::memory_order_relaxed);
}

MontgomeryCtx::MontgomeryCtx(const BigUint& modulus) : m_(modulus) {
  if (m_.is_zero() || m_.is_one() || m_.is_even())
    throw std::domain_error("MontgomeryCtx: modulus must be odd and > 1");
  const std::size_t n = (m_.limbs_.size() + 1) / 2;
  mod_limbs_.assign(n, 0);
  for (std::size_t i = 0; i < m_.limbs_.size(); ++i)
    mod_limbs_[i / 2] |= static_cast<Limb>(m_.limbs_[i]) << (32 * (i % 2));
  n0inv_ = 0 - inv64(mod_limbs_[0]);  // -m[0]^-1 mod 2^64
  r1_.resize(n);
  r2_.resize(n);
  load((BigUint(1) << (64 * n)) % m_, r1_.data());
  load((BigUint(1) << (128 * n)) % m_, r2_.data());
}

void MontgomeryCtx::load(const BigUint& v, Limb* out) const {
  if (BigUint::compare(v, m_) >= 0) {
    load(v % m_, out);
    return;
  }
  std::fill_n(out, limbs(), Limb{0});
  for (std::size_t i = 0; i < v.limbs_.size(); ++i)
    out[i / 2] |= static_cast<Limb>(v.limbs_[i]) << (32 * (i % 2));
}

BigUint MontgomeryCtx::store(const Limb* v) const {
  BigUint out;
  out.limbs_.resize(2 * limbs());
  for (std::size_t i = 0; i < limbs(); ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(v[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(v[i] >> 32);
  }
  out.trim();
  return out;
}

void MontgomeryCtx::mont_mul(const Limb* a, const Limb* b, Limb* out,
                             Limb* t) const {
  // Product scanning with the reduction folded into the same columns
  // (Koç/Acar/Kaliski's FIPS): column i sums a_j*b_(i-j) + u_j*m_(i-j) in
  // a 192-bit accumulator, and for i < n picks u_i = low limb * n0' so the
  // column's low limb cancels. Columns n..2n-1 are the result, which is
  // < 2m, so one conditional subtract finishes. Independent products in a
  // column keep the multiplier busy, where operand scanning waits on a
  // carry chain per limb.
  const std::size_t n = limbs();
  const Limb* m = mod_limbs_.data();
  Limb* u = t;  // u_0..u_(n-1), then overwritten by the result limbs
  Column acc;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      acc.add(a[j], b[i - j]);
      acc.add(u[j], m[i - j]);
    }
    acc.add(a[i], b[0]);
    u[i] = static_cast<Limb>(acc.low) * n0inv_;
    acc.add(u[i], m[0]);
    acc.shift();  // zero by choice of u_i
  }
  for (std::size_t i = n; i < 2 * n; ++i) {
    for (std::size_t j = i - n + 1; j < n; ++j) {
      acc.add(a[j], b[i - j]);
      acc.add(u[j], m[i - j]);
    }
    u[i - n] = acc.shift();  // u_(i-n) is no longer needed
  }

  // The result may be in [m, 2m): subtract m once if so. A borrow out of
  // the low n limbs is absorbed by the top limb exactly when it is >= m.
  const Limb top = static_cast<Limb>(acc.low);
  const Limb borrow = sub_limbs(u, m, out, n);
  if (top == 0 && borrow != 0) std::copy_n(u, n, out);
}

void MontgomeryCtx::mont_pow(const Limb* base, const BigUint& exp, Limb* out,
                             Limb* scratch) const {
  const std::size_t n = limbs();
  // 16-entry window table in the Montgomery domain: tab[k] = base^k * R.
  Limb* tab = scratch;
  Limb* t = scratch + 16 * n;
  std::copy_n(r1_.data(), n, tab);           // base^0
  mont_mul(base, r2_.data(), tab + n, t);    // base^1
  for (std::size_t k = 2; k < 16; ++k)
    mont_mul(tab + (k - 1) * n, tab + n, tab + k * n, t);

  std::copy_n(r1_.data(), n, out);  // 1 in Montgomery form
  const std::size_t windows = (exp.bit_length() + 3) / 4;
  bool started = false;
  for (std::size_t w = windows; w-- > 0;) {
    if (started) {
      for (int s = 0; s < 4; ++s) mont_mul(out, out, out, t);
    }
    std::size_t win = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      if (exp.bit(4 * w + b)) win |= std::size_t{1} << b;
    }
    if (win != 0) {
      mont_mul(out, tab + win * n, out, t);
      started = true;
    }
  }
}

BigUint MontgomeryCtx::mod_mul(const BigUint& a, const BigUint& b) const {
  const std::size_t n = limbs();
  Scratch s(4 * n);
  Limb* av = s.data();
  Limb* bv = av + n;
  Limb* ar = bv + n;  // a*R, then the product
  Limb* t = ar + n;   // mont_mul scratch
  load(a, av);
  load(b, bv);
  mont_mul(av, r2_.data(), ar, t);  // aR = mont(a, R^2)
  mont_mul(ar, bv, ar, t);          // ab = mont(aR, b)
  return store(ar);
}

BigUint MontgomeryCtx::mod_exp(const BigUint& base, const BigUint& exp) const {
  if (exp.is_zero()) return BigUint(1);  // m > 1, so 1 mod m == 1
  const std::size_t n = limbs();
  Scratch s(19 * n);
  Limb* bv = s.data();
  Limb* acc = bv + n;
  Limb* scratch = acc + n;
  load(base, bv);
  mont_pow(bv, exp, acc, scratch);
  // Leave the Montgomery domain: mont(acc, 1) = acc * R^-1.
  std::fill_n(bv, n, Limb{0});
  bv[0] = 1;
  mont_mul(acc, bv, acc, scratch);
  return store(acc);
}

bool MontgomeryCtx::strong_probable_prime(const BigUint& base,
                                          const BigUint& d,
                                          std::size_t r) const {
  const std::size_t n = limbs();
  Scratch s(20 * n);
  Limb* bv = s.data();
  Limb* x = bv + n;
  Limb* minus_one = x + n;  // m - 1 in Montgomery form: m - R mod m
  Limb* scratch = minus_one + n;
  const Limb* one = r1_.data();
  sub_limbs(mod_limbs_.data(), one, minus_one, n);
  const auto equal = [n](const Limb* u, const Limb* v) {
    return std::equal(u, u + n, v);
  };

  load(base, bv);
  mont_pow(bv, d, x, scratch);
  if (equal(x, one) || equal(x, minus_one)) return true;
  for (std::size_t i = 1; i < r; ++i) {
    mont_mul(x, x, x, scratch);
    if (equal(x, minus_one)) return true;
    if (equal(x, one)) return false;  // a square root of 1 other than +-1
  }
  return false;
}

std::shared_ptr<const MontgomeryCtx> MontgomeryCtx::cached(
    const BigUint& modulus) {
  if (!montgomery_enabled()) return nullptr;
  // Single-limb moduli already hit BigUint's one-word division fast path;
  // even moduli have no Montgomery form.
  if (modulus.is_even() || modulus.bit_length() <= 32) return nullptr;

  // Thread-local MRU list: no locking under the parallel check queue, and
  // the hottest moduli (secp256k1 p/n, the federation's RSA keys) stay at
  // the front where the scan is one compare.
  thread_local std::vector<std::shared_ptr<const MontgomeryCtx>> cache;
  for (auto it = cache.begin(); it != cache.end(); ++it) {
    if ((*it)->modulus() == modulus) {
      std::shared_ptr<const MontgomeryCtx> hit = *it;
      if (it != cache.begin()) {
        cache.erase(it);
        cache.insert(cache.begin(), hit);
      }
      return hit;
    }
  }
  auto ctx = std::make_shared<const MontgomeryCtx>(modulus);
  cache.insert(cache.begin(), ctx);
  if (cache.size() > kCtxCacheCap) cache.pop_back();
  return ctx;
}

}  // namespace bcwan::bignum
