#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bignum/montgomery.hpp"
#include "crypto/aes.hpp"
#include "crypto/base58.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/hmac.hpp"
#include "crypto/ripemd160.hpp"
#include "crypto/rsa.hpp"
#include "crypto/secp256k1_field.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace bcwan::crypto {
namespace {

using util::Bytes;
using util::ByteView;
using util::from_hex_strict;
using util::Rng;
using util::str_bytes;
using util::to_hex;

std::string hex256(const Digest256& d) { return to_hex(digest_bytes(d)); }
std::string hex160(const Digest160& d) { return to_hex(digest_bytes(d)); }

// --- SHA-256 (FIPS 180-4 vectors) ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex256(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex256(sha256(str_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex256(sha256(str_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  const Bytes data(1000000, 'a');
  EXPECT_EQ(hex256(sha256(data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(1);
  const Bytes data = rng.bytes(1000);
  Sha256 ctx;
  // Feed in irregular chunk sizes to exercise buffering.
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 63u, 64u, 65u, 200u, 607u}) {
    const std::size_t take = std::min(chunk, data.size() - off);
    ctx.update(ByteView(data.data() + off, take));
    off += take;
  }
  ctx.update(ByteView(data.data() + off, data.size() - off));
  EXPECT_EQ(ctx.finalize(), sha256(data));
}

TEST(Sha256, DoubleHash) {
  // sha256d("hello") — well-known value from Bitcoin documentation.
  EXPECT_EQ(hex256(sha256d(str_bytes("hello"))),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50");
}

// --- RIPEMD-160 (Bosselaers vectors) ---

TEST(Ripemd160, EmptyString) {
  EXPECT_EQ(hex160(ripemd160({})),
            "9c1185a5c5e9fc54612808977ee8f548b2258d31");
}

TEST(Ripemd160, Abc) {
  EXPECT_EQ(hex160(ripemd160(str_bytes("abc"))),
            "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc");
}

TEST(Ripemd160, SingleA) {
  EXPECT_EQ(hex160(ripemd160(str_bytes("a"))),
            "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe");
}

TEST(Ripemd160, MessageDigest) {
  EXPECT_EQ(hex160(ripemd160(str_bytes("message digest"))),
            "5d0689ef49d2fae572b881b123a85ffa21595f36");
}

TEST(Ripemd160, Alphabet) {
  EXPECT_EQ(hex160(ripemd160(str_bytes("abcdefghijklmnopqrstuvwxyz"))),
            "f71c27109c692c1b56bbdceb5b9d2865b3708dbc");
}

TEST(Ripemd160, LongPaddingBoundary) {
  // 56..64-byte inputs cross the two-block padding boundary.
  for (std::size_t len = 50; len <= 70; ++len) {
    const Bytes data(len, 'x');
    EXPECT_EQ(ripemd160(data).size(), 20u);
  }
}

TEST(Hash160, KnownPubkeyHash) {
  // HASH160 of the uncompressed generator-point pubkey (Bitcoin's
  // "Satoshi" test value): computed as ripemd160(sha256(x)) by definition.
  const Bytes data = str_bytes("bcwan");
  const Digest256 inner = sha256(data);
  EXPECT_EQ(hash160(data), ripemd160(ByteView(inner.data(), inner.size())));
}

// --- HMAC-SHA256 (RFC 4231 vectors) ---

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex256(hmac_sha256(key, str_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex256(hmac_sha256(str_bytes("Jefe"),
                               str_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashed) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      hex256(hmac_sha256(
          key, str_bytes("Test Using Larger Than Block-Size Key - Hash Key "
                         "First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- AES-256 (FIPS 197 + CBC round trips) ---

TEST(Aes, Fips197Vector) {
  AesKey256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  AesBlock pt;
  const Bytes pt_raw = from_hex_strict("00112233445566778899aabbccddeeff");
  std::copy(pt_raw.begin(), pt_raw.end(), pt.begin());

  const Aes256 cipher(key);
  const AesBlock ct = cipher.encrypt_block(pt);
  EXPECT_EQ(to_hex(Bytes(ct.begin(), ct.end())),
            "8ea2b7ca516745bfeafc49904b496089");
  EXPECT_EQ(cipher.decrypt_block(ct), pt);
}

TEST(Aes, NistSp80038aCbcVector) {
  // NIST SP 800-38A F.2.5 (CBC-AES256.Encrypt), first block. Our API adds
  // PKCS#7 padding, so only the first 16 ciphertext bytes correspond.
  AesKey256 key;
  const Bytes key_raw = from_hex_strict(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  std::copy(key_raw.begin(), key_raw.end(), key.begin());
  AesBlock iv;
  const Bytes iv_raw = from_hex_strict("000102030405060708090a0b0c0d0e0f");
  std::copy(iv_raw.begin(), iv_raw.end(), iv.begin());
  const Bytes pt = from_hex_strict("6bc1bee22e409f96e93d7e117393172a");
  const Bytes ct = aes256_cbc_encrypt(key, iv, pt);
  ASSERT_GE(ct.size(), 16u);
  EXPECT_EQ(to_hex(Bytes(ct.begin(), ct.begin() + 16)),
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6");
}

TEST(Aes, CbcRoundTripVariousLengths) {
  Rng rng(2);
  AesKey256 key;
  const Bytes key_raw = rng.bytes(32);
  std::copy(key_raw.begin(), key_raw.end(), key.begin());
  AesBlock iv;
  const Bytes iv_raw = rng.bytes(16);
  std::copy(iv_raw.begin(), iv_raw.end(), iv.begin());

  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u}) {
    const Bytes pt = rng.bytes(len);
    const Bytes ct = aes256_cbc_encrypt(key, iv, pt);
    EXPECT_EQ(ct.size() % kAesBlockSize, 0u);
    EXPECT_GE(ct.size(), len);  // padding never shrinks
    const auto back = aes256_cbc_decrypt(key, iv, ct);
    ASSERT_TRUE(back.has_value()) << len;
    EXPECT_EQ(*back, pt);
  }
}

TEST(Aes, PaperSizedMessageIsOneBlock) {
  // §5.1: readings are < 16 bytes, so ciphertext is exactly 16 bytes and the
  // Fig. 4 blob is 1 + 16 + 1 + 16 = 34 bytes.
  Rng rng(3);
  AesKey256 key{};
  AesBlock iv{};
  const Bytes reading = str_bytes("t=21.5C;h=40%");
  ASSERT_LT(reading.size(), 16u);
  const Bytes ct = aes256_cbc_encrypt(key, iv, reading);
  EXPECT_EQ(ct.size(), 16u);
}

TEST(Aes, CbcRejectsCorruptPadding) {
  Rng rng(4);
  AesKey256 key{};
  AesBlock iv{};
  Bytes ct = aes256_cbc_encrypt(key, iv, str_bytes("hello"));
  ct.back() ^= 0xff;
  // Either padding check fails or (rarely) content differs; padding check
  // must not crash and usually rejects.
  const auto out = aes256_cbc_decrypt(key, iv, ct);
  if (out) {
    EXPECT_NE(*out, str_bytes("hello"));
  }
}

TEST(Aes, CbcRejectsBadLengths) {
  AesKey256 key{};
  AesBlock iv{};
  EXPECT_FALSE(aes256_cbc_decrypt(key, iv, Bytes{}).has_value());
  EXPECT_FALSE(aes256_cbc_decrypt(key, iv, Bytes(15, 0)).has_value());
}

TEST(Aes, DifferentIvDifferentCiphertext) {
  AesKey256 key{};
  AesBlock iv1{};
  AesBlock iv2{};
  iv2[0] = 1;
  const Bytes pt = str_bytes("same plaintext!");
  EXPECT_NE(aes256_cbc_encrypt(key, iv1, pt), aes256_cbc_encrypt(key, iv2, pt));
}

TEST(Hmac, EmptyInputs) {
  // HMAC with empty key and empty message still produces a fixed digest.
  const Digest256 a = hmac_sha256({}, {});
  const Digest256 b = hmac_sha256({}, {});
  EXPECT_EQ(a, b);
  EXPECT_NE(hex256(a), hex256(hmac_sha256(str_bytes("k"), {})));
}

TEST(Sha256, BlockBoundaryLengths) {
  // Lengths around the 64-byte block / 56-byte padding boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes data(len, 0x61);
    Sha256 ctx;
    // Incremental one-byte feed must equal the one-shot digest.
    for (std::size_t i = 0; i < len; ++i)
      ctx.update(ByteView(data.data() + i, 1));
    EXPECT_EQ(ctx.finalize(), sha256(data)) << len;
  }
}

// --- RSA ---

class RsaFixture : public ::testing::Test {
 protected:
  static const RsaKeyPair& pair512() {
    static const RsaKeyPair kp = [] {
      Rng rng(100);
      return rsa_generate(rng, 512);
    }();
    return kp;
  }
};

TEST_F(RsaFixture, ModulusExactly512Bits) {
  EXPECT_EQ(pair512().pub.n.bit_length(), 512u);
  EXPECT_EQ(pair512().pub.modulus_bytes(), 64u);
}

TEST_F(RsaFixture, EncryptDecryptRoundTrip) {
  Rng rng(101);
  const Bytes msg = str_bytes("ephemeral payload 34 bytes long!!x");
  ASSERT_EQ(msg.size(), 34u);  // the Fig. 4 blob size
  const Bytes ct = rsa_encrypt(pair512().pub, msg, rng);
  EXPECT_EQ(ct.size(), 64u);  // §5.1: 64-byte RSA-512 blob
  const auto back = rsa_decrypt(pair512().priv, ct);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, msg);
}

TEST_F(RsaFixture, EncryptionIsRandomized) {
  Rng rng(102);
  const Bytes msg = str_bytes("m");
  EXPECT_NE(rsa_encrypt(pair512().pub, msg, rng),
            rsa_encrypt(pair512().pub, msg, rng));
}

TEST_F(RsaFixture, PlaintextTooLongThrows) {
  Rng rng(103);
  EXPECT_THROW(rsa_encrypt(pair512().pub, Bytes(54, 0), rng),
               std::invalid_argument);
  EXPECT_NO_THROW(rsa_encrypt(pair512().pub, Bytes(53, 0), rng));
}

TEST_F(RsaFixture, DecryptRejectsGarbage) {
  EXPECT_FALSE(rsa_decrypt(pair512().priv, Bytes(63, 7)).has_value());
  EXPECT_FALSE(rsa_decrypt(pair512().priv, Bytes(64, 0xff)).has_value());
}

TEST_F(RsaFixture, SignVerify) {
  const Bytes msg = str_bytes("Em || ePk");
  const Bytes sig = rsa_sign(pair512().priv, msg);
  EXPECT_EQ(sig.size(), 64u);  // §5.1: 64-byte signature
  EXPECT_TRUE(rsa_verify(pair512().pub, msg, sig));
  EXPECT_FALSE(rsa_verify(pair512().pub, str_bytes("Em || ePk'"), sig));
  Bytes tampered = sig;
  tampered[10] ^= 1;
  EXPECT_FALSE(rsa_verify(pair512().pub, msg, tampered));
}

TEST_F(RsaFixture, VerifyRejectsWrongKey) {
  Rng rng(104);
  const RsaKeyPair other = rsa_generate(rng, 512);
  const Bytes msg = str_bytes("msg");
  const Bytes sig = rsa_sign(pair512().priv, msg);
  EXPECT_FALSE(rsa_verify(other.pub, msg, sig));
}

TEST_F(RsaFixture, PairMatches) {
  EXPECT_TRUE(rsa_pair_matches(pair512().pub, pair512().priv));
  Rng rng(105);
  const RsaKeyPair other = rsa_generate(rng, 512);
  EXPECT_FALSE(rsa_pair_matches(pair512().pub, other.priv));
  EXPECT_FALSE(rsa_pair_matches(other.pub, pair512().priv));
}

TEST_F(RsaFixture, PairMatchRejectsMatchingModulusWrongExponent) {
  RsaPrivateKey corrupted = pair512().priv;
  corrupted.d = corrupted.d + bignum::BigUint(2);
  EXPECT_FALSE(rsa_pair_matches(pair512().pub, corrupted));
}

TEST_F(RsaFixture, KeySerializationRoundTrip) {
  const auto pub_ser = pair512().pub.serialize();
  const auto pub_back = RsaPublicKey::deserialize(pub_ser);
  ASSERT_TRUE(pub_back.has_value());
  EXPECT_EQ(*pub_back, pair512().pub);

  const auto priv_ser = pair512().priv.serialize();
  const auto priv_back = RsaPrivateKey::deserialize(priv_ser);
  ASSERT_TRUE(priv_back.has_value());
  EXPECT_EQ(*priv_back, pair512().priv);

  EXPECT_FALSE(RsaPublicKey::deserialize(Bytes{0x01}).has_value());
  EXPECT_FALSE(RsaPrivateKey::deserialize(Bytes{}).has_value());
}

TEST(Rsa, LargerModuli) {
  Rng rng(106);
  for (std::size_t bits : {768u, 1024u}) {
    const RsaKeyPair kp = rsa_generate(rng, bits);
    EXPECT_EQ(kp.pub.n.bit_length(), bits);
    const Bytes msg = str_bytes("ablation");
    const Bytes ct = rsa_encrypt(kp.pub, msg, rng);
    EXPECT_EQ(ct.size(), bits / 8);
    EXPECT_EQ(rsa_decrypt(kp.priv, ct), msg);
    EXPECT_TRUE(rsa_verify(kp.pub, msg, rsa_sign(kp.priv, msg)));
  }
}

TEST_F(RsaFixture, KeygenLeavesCachedMontgomeryContextsAlone) {
  // Each prime candidate's Miller-Rabin context is throwaway. Routing them
  // through the 64-entry thread-local MRU flushed the federation's RSA and
  // secp256k1 contexts after a few keygens; a held key's context must still
  // be the cached one afterwards.
  const auto ctx = bignum::MontgomeryCtx::cached(pair512().pub.n);
  ASSERT_NE(ctx, nullptr);
  Rng rng(107);
  for (int i = 0; i < 4; ++i) (void)rsa_generate(rng, 512);
  EXPECT_EQ(bignum::MontgomeryCtx::cached(pair512().pub.n).get(), ctx.get());
}

// --- RSA-CRT fast path vs the full-width reference ---
//
// The CRT path must be observationally identical to the plain-d path: same
// signature bytes, same plaintexts, same pairing verdicts. A scoped guard
// flips the kill switch so each test restores the process default.

namespace {

class CrtGuard {
 public:
  explicit CrtGuard(bool enabled) : saved_(rsa_crt_enabled()) {
    set_rsa_crt_enabled(enabled);
  }
  ~CrtGuard() { set_rsa_crt_enabled(saved_); }
  CrtGuard(const CrtGuard&) = delete;
  CrtGuard& operator=(const CrtGuard&) = delete;

 private:
  bool saved_;
};

}  // namespace

TEST_F(RsaFixture, CrtParamsFilledByGenerateAndConsistent) {
  const RsaPrivateKey& priv = pair512().priv;
  ASSERT_TRUE(priv.has_crt());
  EXPECT_EQ(priv.p * priv.q, priv.n);
  EXPECT_EQ(priv.dp, priv.d % (priv.p - bignum::BigUint(1)));
  EXPECT_EQ(priv.dq, priv.d % (priv.q - bignum::BigUint(1)));
  EXPECT_EQ(bignum::BigUint::mod_mul(priv.qinv, priv.q % priv.p, priv.p),
            bignum::BigUint(1));
}

TEST_F(RsaFixture, CrtMatchesReferenceOnAllPrivateOps) {
  Rng rng(110);
  const Bytes msg = str_bytes("crt differential payload");
  const Bytes ct = rsa_encrypt(pair512().pub, msg, rng);

  Bytes sig_crt, sig_ref;
  std::optional<Bytes> pt_crt, pt_ref;
  bool pair_crt = false, pair_ref = false;
  {
    CrtGuard on(true);
    sig_crt = rsa_sign(pair512().priv, msg);
    pt_crt = rsa_decrypt(pair512().priv, ct);
    pair_crt = rsa_pair_matches(pair512().pub, pair512().priv);
  }
  {
    CrtGuard off(false);
    sig_ref = rsa_sign(pair512().priv, msg);
    pt_ref = rsa_decrypt(pair512().priv, ct);
    pair_ref = rsa_pair_matches(pair512().pub, pair512().priv);
  }
  EXPECT_EQ(sig_crt, sig_ref);  // byte-identical, not just both-valid
  ASSERT_TRUE(pt_crt.has_value());
  EXPECT_EQ(pt_crt, pt_ref);
  EXPECT_EQ(*pt_crt, msg);
  EXPECT_TRUE(pair_crt);
  EXPECT_TRUE(pair_ref);
}

TEST_F(RsaFixture, CrtRecoveryFromWireKey) {
  // On-chain reveals carry only n||e||d: the deserialized key has no CRT
  // fields, and recovery must refactor n from (e, d).
  const auto wire = RsaPrivateKey::deserialize(pair512().priv.serialize());
  ASSERT_TRUE(wire.has_value());
  RsaPrivateKey key = *wire;
  EXPECT_FALSE(key.has_crt());
  ASSERT_TRUE(rsa_crt_recover(key));
  ASSERT_TRUE(key.has_crt());
  EXPECT_EQ(key.p * key.q, key.n);
  // Same factor set as the generator produced (order may differ).
  const RsaPrivateKey& orig = pair512().priv;
  EXPECT_TRUE((key.p == orig.p && key.q == orig.q) ||
              (key.p == orig.q && key.q == orig.p));
  // Recovery is idempotent.
  EXPECT_TRUE(rsa_crt_recover(key));
}

TEST_F(RsaFixture, WireKeyOpsMatchGeneratedKeyUnderCrt) {
  // The thread-local recovery cache path: private ops on a CRT-less
  // deserialized key must produce the same bytes as the generated key.
  CrtGuard on(true);
  const auto wire = RsaPrivateKey::deserialize(pair512().priv.serialize());
  ASSERT_TRUE(wire.has_value());
  EXPECT_FALSE(wire->has_crt());
  Rng rng(111);
  const Bytes msg = str_bytes("wire key payload");
  const Bytes ct = rsa_encrypt(pair512().pub, msg, rng);
  EXPECT_EQ(rsa_sign(*wire, msg), rsa_sign(pair512().priv, msg));
  EXPECT_EQ(rsa_decrypt(*wire, ct), rsa_decrypt(pair512().priv, ct));
  EXPECT_TRUE(rsa_pair_matches(pair512().pub, *wire));
}

TEST_F(RsaFixture, CorruptedCrtParamsFallBackAndStayCorrect) {
  CrtGuard on(true);
  RsaPrivateKey sabotaged = pair512().priv;
  ASSERT_TRUE(sabotaged.has_crt());
  sabotaged.dp = sabotaged.dp + bignum::BigUint(2);  // wrong but plausible
  const Bytes msg = str_bytes("fault injection");
  const std::uint64_t faults_before = rsa_crt_fault_count();
  const Bytes sig = rsa_sign(sabotaged, msg);
  // The public-exponent re-check caught the miscomputation, counted it, and
  // the full-width fallback still produced the correct signature.
  EXPECT_GT(rsa_crt_fault_count(), faults_before);
  EXPECT_EQ(sig, rsa_sign(pair512().priv, msg));
  EXPECT_TRUE(rsa_verify(pair512().pub, msg, sig));
}

TEST(RsaCrt, RecoveryRejectsInconsistentKeys) {
  Rng rng(112);
  const RsaKeyPair kp = rsa_generate(rng, 512);
  // d corrupted: e*d - 1 is no longer a multiple of lambda(n), so the
  // square-root chain never finds a factor.
  RsaPrivateKey bad_d;
  bad_d.n = kp.priv.n;
  bad_d.e = kp.priv.e;
  bad_d.d = kp.priv.d + bignum::BigUint(2);
  EXPECT_FALSE(rsa_crt_recover(bad_d));
  EXPECT_FALSE(bad_d.has_crt());

  RsaPrivateKey zero_e = bad_d;
  zero_e.d = kp.priv.d;
  zero_e.e = bignum::BigUint();
  EXPECT_FALSE(rsa_crt_recover(zero_e));

  RsaPrivateKey even_n = kp.priv;
  even_n.p = even_n.q = even_n.dp = even_n.dq = even_n.qinv = bignum::BigUint();
  even_n.n = even_n.n + bignum::BigUint(1);  // even, certainly not p*q
  EXPECT_FALSE(rsa_crt_recover(even_n));
}

TEST(RsaCrt, KillSwitchAndBackendDefault) {
  // BCWAN_RSA_BACKEND is unset in the test environment, so CRT defaults on;
  // the programmatic switch must round-trip.
  const bool saved = rsa_crt_enabled();
  set_rsa_crt_enabled(false);
  EXPECT_FALSE(rsa_crt_enabled());
  set_rsa_crt_enabled(true);
  EXPECT_TRUE(rsa_crt_enabled());
  set_rsa_crt_enabled(saved);
}

TEST(RsaCrt, LargerModuliDifferential) {
  Rng rng(113);
  const RsaKeyPair kp = rsa_generate(rng, 1024);
  ASSERT_TRUE(kp.priv.has_crt());
  const Bytes msg = str_bytes("1024-bit crt");
  Bytes sig_crt, sig_ref;
  {
    CrtGuard on(true);
    sig_crt = rsa_sign(kp.priv, msg);
  }
  {
    CrtGuard off(false);
    sig_ref = rsa_sign(kp.priv, msg);
  }
  EXPECT_EQ(sig_crt, sig_ref);
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig_crt));
}

// --- ECDSA secp256k1 ---

TEST(Ecdsa, GeneratorOnCurve) {
  EXPECT_TRUE(Secp256k1::on_curve(Secp256k1::g()));
}

TEST(Ecdsa, GroupOrderAnnihilatesGenerator) {
  const EcPoint ng = Secp256k1::mul(Secp256k1::n(), Secp256k1::g());
  EXPECT_TRUE(ng.infinity);
}

TEST(Ecdsa, KnownScalarMultiple) {
  // 2G, well-known value.
  const EcPoint g2 = Secp256k1::mul(bignum::BigUint(2), Secp256k1::g());
  EXPECT_EQ(g2.x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(g2.y.to_hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Ecdsa, AddCommutesWithMul) {
  const EcPoint g = Secp256k1::g();
  const EcPoint g2 = Secp256k1::add(g, g);
  const EcPoint g3a = Secp256k1::add(g2, g);
  const EcPoint g3b = Secp256k1::mul(bignum::BigUint(3), g);
  EXPECT_EQ(g3a, g3b);
}

TEST(Ecdsa, AddInverseGivesInfinity) {
  const EcPoint g = Secp256k1::g();
  const EcPoint neg{g.x, Secp256k1::p() - g.y, false};
  EXPECT_TRUE(Secp256k1::add(g, neg).infinity);
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  Rng rng(200);
  const EcKeyPair kp = ec_generate(rng);
  EXPECT_TRUE(Secp256k1::on_curve(kp.pub));
  const Bytes msg = str_bytes("transaction bytes");
  const EcdsaSignature sig = ecdsa_sign(kp.priv, msg);
  EXPECT_TRUE(ecdsa_verify(kp.pub, msg, sig));
  EXPECT_FALSE(ecdsa_verify(kp.pub, str_bytes("other"), sig));
}

TEST(Ecdsa, SignatureIsDeterministic) {
  Rng rng(201);
  const EcKeyPair kp = ec_generate(rng);
  const Bytes msg = str_bytes("same message");
  EXPECT_EQ(ecdsa_sign(kp.priv, msg), ecdsa_sign(kp.priv, msg));
}

TEST(Ecdsa, WrongKeyRejected) {
  Rng rng(202);
  const EcKeyPair kp1 = ec_generate(rng);
  const EcKeyPair kp2 = ec_generate(rng);
  const Bytes msg = str_bytes("msg");
  EXPECT_FALSE(ecdsa_verify(kp2.pub, msg, ecdsa_sign(kp1.priv, msg)));
}

TEST(Ecdsa, TamperedSignatureRejected) {
  Rng rng(203);
  const EcKeyPair kp = ec_generate(rng);
  const Bytes msg = str_bytes("msg");
  EcdsaSignature sig = ecdsa_sign(kp.priv, msg);
  sig.r = sig.r + bignum::BigUint(1);
  EXPECT_FALSE(ecdsa_verify(kp.pub, msg, sig));
}

TEST(Ecdsa, LowSNormalization) {
  Rng rng(204);
  const EcKeyPair kp = ec_generate(rng);
  for (int i = 0; i < 10; ++i) {
    const Bytes msg = rng.bytes(32);
    const EcdsaSignature sig = ecdsa_sign(kp.priv, msg);
    EXPECT_TRUE(sig.s <= Secp256k1::n() >> 1);
  }
}

TEST(Ecdsa, PubkeyEncodeDecodeRoundTrip) {
  Rng rng(205);
  const EcKeyPair kp = ec_generate(rng);
  const Bytes enc = ec_pubkey_encode(kp.pub);
  EXPECT_EQ(enc.size(), 65u);
  EXPECT_EQ(enc[0], 0x04);
  const auto back = ec_pubkey_decode(enc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, kp.pub);
}

TEST(Ecdsa, PubkeyDecodeRejectsOffCurve) {
  Rng rng(206);
  const EcKeyPair kp = ec_generate(rng);
  Bytes enc = ec_pubkey_encode(kp.pub);
  enc[40] ^= 1;
  EXPECT_FALSE(ec_pubkey_decode(enc).has_value());
  EXPECT_FALSE(ec_pubkey_decode(Bytes(64, 4)).has_value());
}

TEST(Ecdsa, SignatureSerializationRoundTrip) {
  Rng rng(207);
  const EcKeyPair kp = ec_generate(rng);
  const EcdsaSignature sig = ecdsa_sign(kp.priv, str_bytes("x"));
  const Bytes ser = sig.serialize();
  EXPECT_EQ(ser.size(), 64u);
  const auto back = EcdsaSignature::deserialize(ser);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, sig);
  EXPECT_FALSE(EcdsaSignature::deserialize(Bytes(63, 1)).has_value());
  EXPECT_FALSE(EcdsaSignature::deserialize(Bytes(64, 0)).has_value());
}

TEST(Ecdsa, SeededIdentityIsStable) {
  const EcKeyPair a = ec_from_seed(str_bytes("gateway-1"));
  const EcKeyPair b = ec_from_seed(str_bytes("gateway-1"));
  const EcKeyPair c = ec_from_seed(str_bytes("gateway-2"));
  EXPECT_EQ(a.priv, b.priv);
  EXPECT_FALSE(a.priv == c.priv);
  EXPECT_TRUE(Secp256k1::on_curve(a.pub));
}

// --- ECDSA fast path (wNAF recoding, Shamir) vs the reference oracle ---
//
// Secp256k1::mul is the untouched double-and-add ladder; every fast-path
// result must match it bit for bit, including the edge scalars 0, 1, n-1, n
// and point-at-infinity inputs.

namespace {

using bignum::BigUint;

std::vector<BigUint> edge_scalars() {
  const BigUint& n = Secp256k1::n();
  return {BigUint(0),          BigUint(1),
          BigUint(2),          n - BigUint(1),
          n,                   n + BigUint(1),
          n >> 1,              (n >> 1) + BigUint(1),
          BigUint(0xdeadbeef), n + n - BigUint(1)};
}

/// Pseudorandom curve point derived through the reference ladder.
EcPoint reference_point(Rng& rng) {
  const BigUint k = BigUint::from_bytes_be(rng.bytes(32)) % Secp256k1::n();
  return Secp256k1::mul(k + bignum::BigUint(1), Secp256k1::g());
}

}  // namespace

TEST(EcdsaFast, ShamirSingleScalarMatchesReferenceOnRandomScalars) {
  // ec_shamir(0, k, Q) runs only the arbitrary-point half: the 5-bit wNAF
  // walk over the per-call odd-multiple table of Q.
  Rng rng(300);
  for (int i = 0; i < 24; ++i) {
    const BigUint k = BigUint::from_bytes_be(rng.bytes(32));
    const EcPoint q = reference_point(rng);
    EXPECT_EQ(ec_shamir(BigUint(0), k, q), Secp256k1::mul(k, q))
        << "iteration " << i;
  }
}

TEST(EcdsaFast, ShamirSingleScalarMatchesReferenceOnEdgeScalars) {
  Rng rng(301);
  const EcPoint q = reference_point(rng);
  for (const BigUint& k : edge_scalars()) {
    EXPECT_EQ(ec_shamir(BigUint(0), k, q), Secp256k1::mul(k, q)) << k.to_hex();
    EXPECT_EQ(ec_mul_gen_wnaf(k), Secp256k1::mul(k, Secp256k1::g()))
        << k.to_hex();
  }
}

TEST(EcdsaFast, ShamirSingleScalarHandlesInfinityInput) {
  const EcPoint inf{BigUint{}, BigUint{}, true};
  EXPECT_TRUE(ec_shamir(BigUint(0), BigUint(12345), inf).infinity);
  EXPECT_TRUE(ec_shamir(BigUint(0), BigUint(0), inf).infinity);
}

TEST(EcdsaFast, GenWnafMatchesReferenceOnRandomScalars) {
  Rng rng(302);
  for (int i = 0; i < 24; ++i) {
    const BigUint k = BigUint::from_bytes_be(rng.bytes(32));
    EXPECT_EQ(ec_mul_gen_wnaf(k), Secp256k1::mul(k, Secp256k1::g()))
        << "iteration " << i;
  }
}

TEST(EcdsaFast, ShamirMatchesReferenceOnRandomPairs) {
  Rng rng(303);
  for (int i = 0; i < 24; ++i) {
    const BigUint u1 = BigUint::from_bytes_be(rng.bytes(32));
    const BigUint u2 = BigUint::from_bytes_be(rng.bytes(32));
    const EcPoint q = reference_point(rng);
    const EcPoint expected = Secp256k1::add(
        Secp256k1::mul(u1, Secp256k1::g()), Secp256k1::mul(u2, q));
    EXPECT_EQ(ec_shamir(u1, u2, q), expected) << "iteration " << i;
  }
}

TEST(EcdsaFast, ShamirEdgeCombinations) {
  Rng rng(304);
  const EcPoint q = reference_point(rng);
  const EcPoint& g = Secp256k1::g();
  const EcPoint neg_g{g.x, Secp256k1::p() - g.y, false};
  for (const BigUint& u1 : edge_scalars()) {
    for (const BigUint& u2 : {BigUint(0), BigUint(1), Secp256k1::n(),
                              Secp256k1::n() - BigUint(1)}) {
      const EcPoint expected = Secp256k1::add(
          Secp256k1::mul(u1, Secp256k1::g()), Secp256k1::mul(u2, q));
      EXPECT_EQ(ec_shamir(u1, u2, q), expected)
          << u1.to_hex() << " / " << u2.to_hex();
    }
  }
  // Cancellation corners: Q collides with +-G so the shared doubling chain
  // hits the equal-x branches of the addition formulas.
  EXPECT_EQ(ec_shamir(BigUint(5), BigUint(7), g),
            Secp256k1::mul(BigUint(12), g));
  EXPECT_TRUE(ec_shamir(BigUint(9), BigUint(9), neg_g).infinity);
  EXPECT_TRUE(
      ec_shamir(BigUint(0), BigUint(0),
                EcPoint{BigUint{}, BigUint{}, true}).infinity);
  EXPECT_TRUE(ec_shamir(BigUint(3), BigUint(4),
                        EcPoint{BigUint{}, BigUint{}, true}) ==
              Secp256k1::mul(BigUint(3), g));
}

TEST(EcdsaFast, SignaturesIdenticalAcrossBackends) {
  Rng rng(305);
  const EcKeyPair kp = ec_generate(rng);
  const char* backends[] = {"reference", "shamir"};
  for (int i = 0; i < 8; ++i) {
    const Bytes msg = rng.bytes(40);
    std::vector<Bytes> sigs;
    for (const char* name : backends) {
      ASSERT_TRUE(ecdsa_select_backend(name));
      sigs.push_back(ecdsa_sign(kp.priv, msg).serialize());
    }
    EXPECT_EQ(sigs[0], sigs[1]);
  }
  ASSERT_TRUE(ecdsa_select_backend("auto"));
}

TEST(EcdsaFast, VerifyAgreesAcrossBackends) {
  Rng rng(306);
  const EcKeyPair kp = ec_generate(rng);
  const char* backends[] = {"reference", "shamir"};
  for (int i = 0; i < 8; ++i) {
    const Bytes msg = rng.bytes(33);
    EcdsaSignature sig = ecdsa_sign(kp.priv, msg);
    EcdsaSignature bad = sig;
    bad.s = bad.s + BigUint(1);
    for (const char* name : backends) {
      ASSERT_TRUE(ecdsa_select_backend(name));
      EXPECT_TRUE(ecdsa_verify(kp.pub, msg, sig)) << name;
      EXPECT_FALSE(ecdsa_verify(kp.pub, msg, bad)) << name;
      EXPECT_FALSE(ecdsa_verify(kp.pub, str_bytes("other"), sig)) << name;
    }
  }
  ASSERT_TRUE(ecdsa_select_backend("auto"));
}

TEST(EcdsaFast, BackendSelection) {
  EXPECT_TRUE(ecdsa_select_backend("reference"));
  EXPECT_STREQ(ecdsa_backend_name(), "reference");
  EXPECT_TRUE(ecdsa_select_backend("shamir"));
  EXPECT_STREQ(ecdsa_backend_name(), "shamir");
  EXPECT_FALSE(ecdsa_select_backend("no-such-backend"));
  EXPECT_FALSE(ecdsa_select_backend("wnaf"));  // removed: lost to shamir
  EXPECT_STREQ(ecdsa_backend_name(), "shamir");  // unchanged on bad name
  // "auto" restores the configured default: the BCWAN_ECDSA_BACKEND pin
  // when it names a valid backend (CI's forced-reference pass), shamir
  // otherwise.
  const char* env = std::getenv("BCWAN_ECDSA_BACKEND");
  std::string expected = env ? env : "shamir";
  if (expected != "reference" && expected != "shamir")
    expected = "shamir";
  EXPECT_TRUE(ecdsa_select_backend("auto"));
  EXPECT_EQ(ecdsa_backend_name(), expected);
  ecdsa_warmup();  // smoke: builds tables, primes thread-local contexts
}

TEST(EcdsaFast, ConcurrentUseIsRaceFree) {
  // Several threads hammer the shared generator tables and their own
  // thread-local Montgomery caches at once; every thread must agree with
  // the reference ladder. Run under TSan in CI, this is the regression net
  // for the one-time precomputation init and the warmup call in the
  // checkqueue workers.
  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::vector<std::thread> workers;
  std::array<bool, kThreads> ok{};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &ok] {
      ecdsa_warmup();
      Rng rng(400 + static_cast<std::uint64_t>(t));
      bool all_match = true;
      for (int i = 0; i < kIters; ++i) {
        const bignum::BigUint k =
            bignum::BigUint::random_below(rng, Secp256k1::n());
        const EcPoint want = Secp256k1::mul(k, Secp256k1::g());
        all_match = all_match && ec_mul_gen_wnaf(k) == want &&
                    ec_shamir(k, bignum::BigUint(), Secp256k1::g()) == want;
      }
      ok[static_cast<std::size_t>(t)] = all_match;
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[static_cast<std::size_t>(t)]) << t;
}

// --- secp256k1 field core vs BigUint mod p ---
//
// The fast core's Fe operations (4x64-bit limbs, plain form) against the
// BigUint reference arithmetic, on seeded random operands, on the edges
// around p and the fold constant 2^256 mod p = 0x1000003D1, and on inputs
// chosen to force each carry path of the reduction.

namespace {

using detail::Fe;
using detail::fe_from_biguint;
using detail::fe_to_biguint;

/// First disagreement of any Fe operation with BigUint on (a, b), or "".
std::string field_mismatch(const BigUint& a, const BigUint& b) {
  const BigUint& p = Secp256k1::p();
  const Fe fa = fe_from_biguint(a);
  const Fe fb = fe_from_biguint(b);
  Fe out;
  detail::fe_mul(fa, fb, out);
  if (fe_to_biguint(out) != BigUint::mod_mul_basic(a, b, p)) return "mul";
  detail::fe_sqr(fa, out);
  if (fe_to_biguint(out) != BigUint::mod_mul_basic(a, a, p)) return "sqr";
  detail::fe_add(fa, fb, out);
  if (fe_to_biguint(out) != BigUint::mod_add(a, b, p)) return "add";
  detail::fe_sub(fa, fb, out);
  if (fe_to_biguint(out) != BigUint::mod_sub(a, b, p)) return "sub";
  detail::fe_neg(fa, out);
  if (fe_to_biguint(out) != (p - a) % p) return "neg";
  detail::fe_inv(fa, out);
  const auto inv = BigUint::mod_inv(a, p);
  if (fe_to_biguint(out) != (inv ? *inv : BigUint{})) return "inv";
  return "";
}

std::vector<BigUint> field_edges() {
  const BigUint& p = Secp256k1::p();
  return {BigUint(0),           BigUint(1),           BigUint(2),
          BigUint(0x1000003D0), BigUint(0x1000003D1), BigUint(0x1000003D2),
          BigUint(1) << 255,    p - BigUint(2),       p - BigUint(1)};
}

BigUint field_value(const Fe& a) { return fe_to_biguint(a); }

}  // namespace

TEST(Secp256k1Field, MatchesBigUintOnRandomOperands) {
  const BigUint& p = Secp256k1::p();
  Rng rng(500);
  for (int i = 0; i < 10000; ++i) {
    const BigUint a = BigUint::from_bytes_be(rng.bytes(32)) % p;
    const BigUint b = BigUint::from_bytes_be(rng.bytes(32)) % p;
    ASSERT_EQ(field_mismatch(a, b), "")
        << "iteration " << i << ": " << a.to_hex() << ", " << b.to_hex();
  }
}

TEST(Secp256k1Field, MatchesBigUintOnEdges) {
  for (const BigUint& a : field_edges())
    for (const BigUint& b : field_edges())
      EXPECT_EQ(field_mismatch(a, b), "") << a.to_hex() << ", " << b.to_hex();
}

TEST(Secp256k1Field, CarryPaths) {
  const BigUint& p = Secp256k1::p();
  const Fe pm1 = fe_from_biguint(p - BigUint(1));
  const Fe zero = fe_from_biguint(BigUint(0));
  const Fe one = fe_from_biguint(BigUint(1));
  Fe out;
  // (p-1)^2: the first fold leaves a top limb for the second fold, whose
  // sum lands on p + 1 and takes the final subtract.
  detail::fe_mul(pm1, pm1, out);
  EXPECT_EQ(field_value(out), BigUint(1));
  detail::fe_sqr(pm1, out);
  EXPECT_EQ(field_value(out), BigUint(1));
  // (p - 2^17)^2 = 2^34: the second fold itself carries past 2^256 (it
  // does whenever x*y >= 0x1000003D1 for (p - x)(p - y) with small x, y).
  const Fe big = fe_from_biguint(p - (BigUint(1) << 17));
  detail::fe_mul(big, big, out);
  EXPECT_EQ(field_value(out), BigUint(1) << 34);
  detail::fe_sqr(big, out);
  EXPECT_EQ(field_value(out), BigUint(1) << 34);
  // (p-1) + (p-1) overflows 2^256.
  detail::fe_add(pm1, pm1, out);
  EXPECT_EQ(field_value(out), p - BigUint(2));
  // 0 - 1 borrows.
  detail::fe_sub(zero, one, out);
  EXPECT_EQ(field_value(out), p - BigUint(1));
  detail::fe_neg(zero, out);
  EXPECT_EQ(field_value(out), BigUint(0));
  detail::fe_inv(one, out);
  EXPECT_EQ(field_value(out), BigUint(1));
  detail::fe_inv(pm1, out);
  EXPECT_EQ(field_value(out), p - BigUint(1));
  detail::fe_inv(zero, out);  // a^(p-2) maps 0 to 0
  EXPECT_EQ(field_value(out), BigUint(0));
  // Outputs may alias inputs.
  out = pm1;
  detail::fe_mul(out, out, out);
  EXPECT_EQ(field_value(out), BigUint(1));
  // Import reduces mod p.
  EXPECT_EQ(field_value(fe_from_biguint(p + BigUint(5))), BigUint(5));
}

// --- Scalar inverse (Fermat on the cached Montgomery context for n) ---

TEST(ScalarInverse, MatchesExtendedEuclid) {
  const BigUint& n = Secp256k1::n();
  Rng rng(501);
  std::vector<BigUint> xs = {BigUint(1), BigUint(2), n - BigUint(1)};
  for (int i = 0; i < 64; ++i)
    xs.push_back(BigUint::random_below(rng, n - BigUint(1)) + BigUint(1));
  for (const BigUint& x : xs) {
    const auto got = detail::scalar_inv(x);
    ASSERT_TRUE(got.has_value()) << x.to_hex();
    EXPECT_EQ(*got, *BigUint::mod_inv(x, n)) << x.to_hex();
  }
  // Inputs are reduced mod n first.
  EXPECT_EQ(*detail::scalar_inv(n + BigUint(2)), *BigUint::mod_inv(BigUint(2), n));
}

TEST(ScalarInverse, ZeroModNHasNoInverse) {
  const BigUint& n = Secp256k1::n();
  EXPECT_FALSE(detail::scalar_inv(BigUint(0)).has_value());
  EXPECT_FALSE(detail::scalar_inv(n).has_value());
  EXPECT_FALSE(detail::scalar_inv(n + n).has_value());
}

// --- Pinned ECDSA known answers ---
//
// Signatures and public keys recorded from the 8x32-bit Montgomery field
// core with extended-Euclid inverses that preceded the 4x64-bit core; the
// nonces are deterministic, so every backend must reproduce these bytes.

namespace {

struct EcdsaKat {
  const char* seed;
  const char* message;
  bool low_s_flip;  // the raw s exceeded n/2 and was replaced by n - s
  const char* signature;
  const char* pubkey;
};

const EcdsaKat kEcdsaKats[] = {
    {"kat-alice", "bcwan offer #1", true,
     "9f38ebbc47fa1bc7691a1992c2774d5cbc3c93399c0e1f88cb9cbe34fa843d55"
     "2edf90f887ccf345a9ef6c440ba2ddc1e75b00321c0579849b364576fb1434e7",
     "044af1ce6c6529105c60f81f3c2a46b02cfcd8197ff45dbb0f4f1ffe6e9a3f8d61"
     "8beee2e06f0968c2f078ed4d9d1aface7be7de4079205345d6432454b2abd570"},
    {"kat-bob", "bcwan redeem #2", true,
     "3e3c95909bf1555a9f8c1e44012a7337c5050f25cf03c2b4142e2d47e7bc3f99"
     "77900f9de34fea567c9575267724f48b09976a2d623443280f104b70d24a10be",
     "0434cfdcc836fd05d7c6eb70514a6191f978824a5cd7d2536f7d3ce6c9dccdece2"
     "16593f0480d633a60cb7fe9d15331bdfd9a828177d81f3ab6c57944e83a9ea6f"},
    {"kat-carol", "reading 21.5C", false,
     "a3fae8b641f0f5a57466eb3817791ce5612651214948c2dab31f1de0d603f61e"
     "7830885a3a918f03d9ed174249241f38065e2d569a03fda601067674bd671ddd",
     "0470d88a9513d2e322c74d34cdc99f9065d558c1df0ee53f90f215f3e77bdf6000"
     "500b07f0f5bb772962db4356f46c6151a1580f723042316df01138fae27cdfc6"},
    {"kat-dave", "reclaim after timeout", false,
     "b609e2aa489fd32a1d5eb9caa49e6541fa12af8029bd3e81b8739fa52ecffa77"
     "3d21a4789d45b40054847e46dc4101a52024aec48c81699d35b2f22a97a144ec",
     "04621f055f0a90a8d5bd102b2a6ef86414eb5e093d9dcf2ca7c9d1dcc03439026d"
     "775395a4cc766fa9dd9b1987479662efbb36a29331b747e9b6aca595d96fa05b"},
};

/// s before low-s normalization, from the documented nonce derivation
/// (HMAC-SHA256 over priv || digest || counter 0, reduced mod n).
BigUint raw_s(const BigUint& priv, const Bytes& message, const BigUint& r) {
  const BigUint& n = Secp256k1::n();
  const Digest256 digest = sha256d(message);
  util::Writer w;
  w.var_bytes(priv.to_bytes_be(32));
  w.bytes(ByteView(digest.data(), digest.size()));
  w.u32(0);
  const Digest256 mac = hmac_sha256(str_bytes("bcwan/ecdsa-nonce"), w.data());
  const BigUint k = BigUint::from_bytes_be(ByteView(mac.data(), mac.size())) % n;
  const BigUint z =
      BigUint::from_bytes_be(ByteView(digest.data(), digest.size())) % n;
  return BigUint::mod_mul_basic(*BigUint::mod_inv(k, n),
                                (z + BigUint::mod_mul_basic(r, priv, n)) % n, n);
}

}  // namespace

TEST(EcdsaKat, ReproducesPinnedSignaturesAndKeys) {
  const BigUint& n = Secp256k1::n();
  for (const EcdsaKat& kat : kEcdsaKats) {
    const EcKeyPair kp = ec_from_seed(str_bytes(kat.seed));
    EXPECT_EQ(to_hex(ec_pubkey_encode(kp.pub)), kat.pubkey) << kat.seed;
    const Bytes msg = str_bytes(kat.message);
    const EcdsaSignature sig = ecdsa_sign(kp.priv, msg);
    EXPECT_EQ(to_hex(sig.serialize()), kat.signature) << kat.seed;
    const BigUint s0 = raw_s(kp.priv, msg, sig.r);
    EXPECT_EQ(s0 > (n >> 1), kat.low_s_flip) << kat.seed;
    EXPECT_EQ(sig.s, kat.low_s_flip ? n - s0 : s0) << kat.seed;
  }
}

TEST(EcdsaKat, VerifyAcceptsPinnedAndRejectsBitFlips) {
  // Bit i flips mask 1 << (i % 8) of byte i / 8. Every 17th bit walks both
  // halves and every position within a byte; 7, 248, 263 and 504 are the
  // top and bottom bits of r and of s.
  std::vector<std::size_t> flips = {7, 248, 263, 504};
  for (std::size_t bit = 1; bit < 511; bit += 17) flips.push_back(bit);
  for (const EcdsaKat& kat : kEcdsaKats) {
    const auto pub = ec_pubkey_decode(from_hex_strict(kat.pubkey));
    ASSERT_TRUE(pub.has_value()) << kat.seed;
    const Bytes msg = str_bytes(kat.message);
    const Bytes sig_bytes = from_hex_strict(kat.signature);
    const auto sig = EcdsaSignature::deserialize(sig_bytes);
    ASSERT_TRUE(sig.has_value()) << kat.seed;
    EXPECT_TRUE(ecdsa_verify(*pub, msg, *sig)) << kat.seed;
    for (std::size_t bit : flips) {
      Bytes bad = sig_bytes;
      bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const auto bad_sig = EcdsaSignature::deserialize(bad);
      EXPECT_FALSE(bad_sig && ecdsa_verify(*pub, msg, *bad_sig))
          << kat.seed << " bit " << bit;
    }
    Bytes bad_msg = msg;
    bad_msg[0] ^= 0x01;
    EXPECT_FALSE(ecdsa_verify(*pub, bad_msg, *sig)) << kat.seed;
  }
}

// --- Base58 ---

TEST(Base58, KnownVectors) {
  EXPECT_EQ(base58_encode(str_bytes("hello world")), "StV1DL6CwTryKyV");
  EXPECT_EQ(base58_encode({}), "");
  const Bytes zeros = {0x00, 0x00, 0x01};
  EXPECT_EQ(base58_encode(zeros), "112");
}

TEST(Base58, RoundTripRandom) {
  Rng rng(300);
  for (int i = 0; i < 50; ++i) {
    const Bytes data = rng.bytes(rng.below(40));
    EXPECT_EQ(base58_decode(base58_encode(data)), data);
  }
}

TEST(Base58, DecodeRejectsBadChars) {
  EXPECT_FALSE(base58_decode("0OIl").has_value());
  EXPECT_FALSE(base58_decode("abc!").has_value());
}

TEST(Base58Check, RoundTrip) {
  Rng rng(301);
  const Bytes payload = rng.bytes(20);
  const std::string addr = base58check_encode(0x00, payload);
  const auto back = base58check_decode(addr);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 0x00);
  EXPECT_EQ(back->payload, payload);
}

TEST(Base58Check, DetectsCorruption) {
  const std::string addr = base58check_encode(0x00, Bytes(20, 7));
  std::string bad = addr;
  bad[bad.size() / 2] = bad[bad.size() / 2] == '2' ? '3' : '2';
  EXPECT_FALSE(base58check_decode(bad).has_value());
  EXPECT_FALSE(base58check_decode("abc").has_value());
}

}  // namespace
}  // namespace bcwan::crypto
