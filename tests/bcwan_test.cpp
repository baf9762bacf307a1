#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "bcwan/directory.hpp"
#include "bcwan/election.hpp"
#include "bcwan/fair_exchange.hpp"
#include "chain/miner.hpp"
#include "bcwan/envelope.hpp"
#include "sim/scenario.hpp"

namespace bcwan::core {
namespace {

using util::Bytes;
using util::Rng;
using util::str_bytes;

// --- Envelope crypto (protocol steps 3-4, 8, 10-11) ---

class EnvelopeFixture : public ::testing::Test {
 protected:
  static Rng& rng() {
    static Rng r(1000);
    return r;
  }
  static const NodeProvisioning& prov() {
    static const NodeProvisioning p =
        provision_node(7, script::to_pubkey_hash(str_bytes("recipient")),
                       rng());
    return p;
  }
  static const crypto::RsaKeyPair& ephemeral() {
    static const crypto::RsaKeyPair kp = crypto::rsa_generate(rng(), 512);
    return kp;
  }
};

TEST_F(EnvelopeFixture, SealProducesPaperSizes) {
  const Envelope env =
      seal_reading(prov(), str_bytes("t=21.5"), ephemeral().pub, rng());
  EXPECT_EQ(env.em.size(), lora::kDoubleEncSize);    // 64 B
  EXPECT_EQ(env.sig.size(), lora::kSignatureSize);   // 64 B
}

TEST_F(EnvelopeFixture, RoundTripThroughBothLayers) {
  const Bytes reading = str_bytes("t=21.5;rh=40");
  const Envelope env = seal_reading(prov(), reading, ephemeral().pub, rng());
  ASSERT_TRUE(verify_envelope(prov().node_verify_key, env, ephemeral().pub));
  const auto opened = open_envelope(prov().k, ephemeral().priv, env.em);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, reading);
}

TEST_F(EnvelopeFixture, OversizedReadingThrows) {
  EXPECT_THROW(
      seal_reading(prov(), Bytes(16, 'x'), ephemeral().pub, rng()),
      std::invalid_argument);
}

TEST_F(EnvelopeFixture, TamperedEmFailsVerification) {
  Envelope env = seal_reading(prov(), str_bytes("m"), ephemeral().pub, rng());
  env.em[5] ^= 1;
  EXPECT_FALSE(verify_envelope(prov().node_verify_key, env, ephemeral().pub));
}

TEST_F(EnvelopeFixture, SwappedEphemeralKeyFailsVerification) {
  // The signature commits to ePk — a MITM gateway cannot substitute its own
  // long-lived key to skim future traffic.
  const Envelope env =
      seal_reading(prov(), str_bytes("m"), ephemeral().pub, rng());
  const crypto::RsaKeyPair other = crypto::rsa_generate(rng(), 512);
  EXPECT_FALSE(verify_envelope(prov().node_verify_key, env, other.pub));
}

TEST_F(EnvelopeFixture, WrongEskCannotOpen) {
  const Envelope env =
      seal_reading(prov(), str_bytes("m"), ephemeral().pub, rng());
  const crypto::RsaKeyPair other = crypto::rsa_generate(rng(), 512);
  EXPECT_FALSE(open_envelope(prov().k, other.priv, env.em).has_value());
}

TEST_F(EnvelopeFixture, WrongSymmetricKeyCannotOpen) {
  const Envelope env =
      seal_reading(prov(), str_bytes("secret"), ephemeral().pub, rng());
  crypto::AesKey256 wrong_k = prov().k;
  wrong_k[0] ^= 1;
  const auto opened = open_envelope(wrong_k, ephemeral().priv, env.em);
  // Either padding fails or the plaintext differs; it must never equal the
  // original.
  if (opened) {
    EXPECT_NE(*opened, str_bytes("secret"));
  }
}

TEST_F(EnvelopeFixture, GatewayCannotReadWithoutEsk) {
  // The gateway holds Em but (before redeeming) no key that opens it —
  // confidentiality on the LoRa hop and at the forwarding gateway.
  const Envelope env =
      seal_reading(prov(), str_bytes("private"), ephemeral().pub, rng());
  // All the gateway could try is the blob as-is; it is RSA ciphertext under
  // ePk and never decodes as a Fig. 4 blob.
  EXPECT_FALSE(lora::InnerBlob::decode(env.em).has_value());
}

TEST_F(EnvelopeFixture, DeliverPayloadRoundTrip) {
  DeliverPayload payload;
  payload.device_id = 42;
  payload.em = Bytes(64, 1);
  payload.sig = Bytes(64, 2);
  payload.ephemeral_pub = ephemeral().pub;
  payload.gateway = script::to_pubkey_hash(str_bytes("gw"));
  const auto back = DeliverPayload::deserialize(payload.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->device_id, 42);
  EXPECT_EQ(back->em, payload.em);
  EXPECT_EQ(back->sig, payload.sig);
  EXPECT_EQ(back->ephemeral_pub, payload.ephemeral_pub);
  EXPECT_EQ(back->gateway, payload.gateway);
  EXPECT_FALSE(DeliverPayload::deserialize(Bytes(5, 0)).has_value());
}

TEST_F(EnvelopeFixture, ProvisioningIsPerDevice) {
  Rng r(2000);
  const auto p1 = provision_node(1, prov().recipient, r);
  const auto p2 = provision_node(2, prov().recipient, r);
  EXPECT_NE(p1.k, p2.k);
  EXPECT_FALSE(p1.node_verify_key == p2.node_verify_key);
}

// --- Directory ---

TEST(DirectoryCodec, RoundTrip) {
  const script::PubKeyHash owner = script::to_pubkey_hash(str_bytes("r"));
  const Bytes data = encode_directory_entry(owner, 0x0a000005, 4242);
  const auto entry = decode_directory_entry(data);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->owner, owner);
  EXPECT_EQ(entry->ip, 0x0a000005u);
  EXPECT_EQ(entry->port, 4242);
}

TEST(DirectoryCodec, RejectsGarbage) {
  EXPECT_FALSE(decode_directory_entry(str_bytes("not a bcwn entry")).has_value());
  EXPECT_FALSE(decode_directory_entry(Bytes{}).has_value());
  script::PubKeyHash owner{};
  Bytes data = encode_directory_entry(owner, 1, 2);
  data[0] = 'X';  // break magic
  EXPECT_FALSE(decode_directory_entry(data).has_value());
}

TEST(DirectoryCodec, FormatIp) {
  EXPECT_EQ(format_ip(0x0a000005), "10.0.0.5");
  EXPECT_EQ(format_ip(0xc0a80101), "192.168.1.1");
}

// --- FairExchange state machines (the packaged Listing-1 protocol) ---

class FairExchangeApi : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fund the buyer.
    for (int i = 0; i < params.coinbase_maturity + 4; ++i) mine();
    const auto fund = miner_wallet.create_payment(bc, &pool, buyer_wallet.pkh(),
                                                  10 * chain::kCoin, 1000);
    ASSERT_TRUE(fund.has_value());
    ASSERT_TRUE(pool.accept(*fund, bc.utxo(), bc.height() + 1).ok());
    mine();
  }

  void mine() {
    const chain::Block block = miner.mine(bc, pool, ++now);
    ASSERT_NE(bc.accept_block(block), chain::AcceptBlockResult::kInvalid);
    pool.remove_confirmed(block);
  }

  chain::ChainParams params = [] {
    chain::ChainParams p;
    p.pow_zero_bits = 4;
    p.coinbase_maturity = 2;
    return p;
  }();
  chain::Blockchain bc{params};
  chain::Mempool pool{params};
  chain::Wallet miner_wallet = chain::Wallet::from_seed("fx-miner");
  chain::Wallet buyer_wallet = chain::Wallet::from_seed("fx-buyer");
  chain::Wallet seller_wallet = chain::Wallet::from_seed("fx-seller");
  chain::Miner miner{params, miner_wallet.pkh()};
  std::uint64_t now = 0;
  Rng rng{909};
};

TEST_F(FairExchangeApi, HappyPathRevealsKey) {
  const crypto::RsaKeyPair ephemeral = crypto::rsa_generate(rng, 512);
  FairExchangeSeller seller(seller_wallet, ephemeral);
  FairExchangeBuyer buyer(buyer_wallet, seller.ephemeral_pub(),
                          seller_wallet.pkh(), chain::kCoin, 1000, 50);

  const auto offer = buyer.make_offer(bc, &pool);
  ASSERT_TRUE(offer.has_value());
  EXPECT_EQ(buyer.state(), FairExchangeBuyer::State::kOffered);
  ASSERT_TRUE(pool.accept(*offer, bc.utxo(), bc.height() + 1).ok());

  const auto redeem = seller.try_redeem(*offer, 500);
  ASSERT_TRUE(redeem.has_value());
  EXPECT_EQ(seller.state(), FairExchangeSeller::State::kRedeemed);
  ASSERT_TRUE(pool.accept(*redeem, bc.utxo(), bc.height() + 1).ok());

  const auto revealed = buyer.observe(*redeem);
  ASSERT_TRUE(revealed.has_value());
  EXPECT_EQ(*revealed, ephemeral.priv);
  EXPECT_EQ(buyer.state(), FairExchangeBuyer::State::kSettled);

  // Settlement confirms; the seller banks the price.
  mine();
  EXPECT_EQ(seller_wallet.balance(bc), chain::kCoin - 500);
}

TEST_F(FairExchangeApi, SellerIgnoresForeignOffers) {
  const crypto::RsaKeyPair ephemeral = crypto::rsa_generate(rng, 512);
  const crypto::RsaKeyPair other = crypto::rsa_generate(rng, 512);
  FairExchangeSeller seller(seller_wallet, ephemeral);
  // Offer locked to a DIFFERENT ephemeral key: not ours to redeem.
  FairExchangeBuyer buyer(buyer_wallet, other.pub, seller_wallet.pkh(),
                          chain::kCoin, 1000, 50);
  const auto offer = buyer.make_offer(bc, &pool);
  ASSERT_TRUE(offer.has_value());
  EXPECT_FALSE(seller.try_redeem(*offer, 500).has_value());
  EXPECT_EQ(seller.state(), FairExchangeSeller::State::kAwaitingOffer);
}

TEST_F(FairExchangeApi, BuyerRejectsWrongKeyReveal) {
  const crypto::RsaKeyPair ephemeral = crypto::rsa_generate(rng, 512);
  FairExchangeBuyer buyer(buyer_wallet, ephemeral.pub, seller_wallet.pkh(),
                          chain::kCoin, 1000, 50);
  const auto offer = buyer.make_offer(bc, &pool);
  ASSERT_TRUE(offer.has_value());
  // A forged "redeem" revealing a different key must not settle the buyer.
  const crypto::RsaKeyPair wrong = crypto::rsa_generate(rng, 512);
  const chain::Transaction forged = seller_wallet.create_redeem(
      chain::OutPoint{offer->txid(), 0}, offer->vout[0], wrong.priv, 500);
  EXPECT_FALSE(buyer.observe(forged).has_value());
  EXPECT_EQ(buyer.state(), FairExchangeBuyer::State::kOffered);
}

TEST_F(FairExchangeApi, ReclaimOnlyAfterTimeoutAndOnce) {
  const crypto::RsaKeyPair ephemeral = crypto::rsa_generate(rng, 512);
  FairExchangeBuyer buyer(buyer_wallet, ephemeral.pub, seller_wallet.pkh(),
                          chain::kCoin, 1000, 3);
  const auto offer = buyer.make_offer(bc, &pool);
  ASSERT_TRUE(offer.has_value());
  ASSERT_TRUE(pool.accept(*offer, bc.utxo(), bc.height() + 1).ok());
  mine();

  EXPECT_FALSE(buyer.make_reclaim(bc.height()).has_value());  // too early
  while (bc.height() + 1 < buyer.timeout_height()) mine();
  const auto reclaim = buyer.make_reclaim(bc.height());
  ASSERT_TRUE(reclaim.has_value());
  EXPECT_EQ(buyer.state(), FairExchangeBuyer::State::kReclaimed);
  EXPECT_FALSE(buyer.make_reclaim(bc.height()).has_value());  // once only

  const auto accept = pool.accept(*reclaim, bc.utxo(), bc.height() + 1);
  ASSERT_TRUE(accept.ok()) << chain::mempool_error_name(accept.error);
  mine();
  // Funds are back, minus the two fees.
  EXPECT_EQ(buyer_wallet.balance(bc), 10 * chain::kCoin - 1000 - 1000);
}

TEST_F(FairExchangeApi, InvariantDecryptImpliesPayable) {
  // The exchange invariant: when the buyer learns eSk, the seller's redeem
  // is the very transaction that pays it — one cannot happen without the
  // other being broadcastable.
  const crypto::RsaKeyPair ephemeral = crypto::rsa_generate(rng, 512);
  FairExchangeSeller seller(seller_wallet, ephemeral);
  FairExchangeBuyer buyer(buyer_wallet, seller.ephemeral_pub(),
                          seller_wallet.pkh(), chain::kCoin, 1000, 50);
  const auto offer = buyer.make_offer(bc, &pool);
  ASSERT_TRUE(pool.accept(*offer, bc.utxo(), bc.height() + 1).ok());
  const auto redeem = seller.try_redeem(*offer, 500);
  const auto revealed = buyer.observe(*redeem);
  ASSERT_TRUE(revealed.has_value());
  // The same tx that leaked eSk is valid on-chain and pays the seller.
  ASSERT_TRUE(pool.accept(*redeem, bc.utxo(), bc.height() + 1).ok());
  mine();
  EXPECT_GT(seller_wallet.balance(bc), 0);
}

// --- Master gateway election (§4.2, footnote 3) ---

TEST(Election, DeterministicAcrossObservers) {
  std::vector<script::PubKeyHash> candidates;
  for (const char* name : {"gw-a", "gw-b", "gw-c", "gw-d"}) {
    candidates.push_back(script::to_pubkey_hash(str_bytes(name)));
  }
  EXPECT_EQ(elect_master_gateway(candidates, 3),
            elect_master_gateway(candidates, 3));
  const std::size_t winner = elect_master_gateway(candidates, 3);
  EXPECT_LT(winner, candidates.size());
}

TEST(Election, RotatesAcrossEpochs) {
  std::vector<script::PubKeyHash> candidates;
  for (const char* name : {"gw-a", "gw-b", "gw-c", "gw-d", "gw-e"}) {
    candidates.push_back(script::to_pubkey_hash(str_bytes(name)));
  }
  // Over many epochs every gateway wins sometimes (fair rotation).
  std::vector<int> wins(candidates.size(), 0);
  for (int epoch = 0; epoch < 200; ++epoch) {
    ++wins[elect_master_gateway(candidates, epoch)];
  }
  for (std::size_t i = 0; i < wins.size(); ++i) {
    EXPECT_GT(wins[i], 10) << "gateway " << i << " never elected";
  }
}

TEST(Election, IndependentOfCandidateOrderModuloIndex) {
  // The winner's identity (not its index) is order-independent.
  std::vector<script::PubKeyHash> a;
  for (const char* name : {"gw-1", "gw-2", "gw-3"}) {
    a.push_back(script::to_pubkey_hash(str_bytes(name)));
  }
  std::vector<script::PubKeyHash> b = {a[2], a[0], a[1]};
  EXPECT_EQ(a[elect_master_gateway(a, 9)], b[elect_master_gateway(b, 9)]);
}

TEST(Election, ThrowsOnEmpty) {
  EXPECT_THROW(elect_master_gateway({}, 0), std::invalid_argument);
}

// --- Full federation integration (small scale for test speed) ---

sim::ScenarioConfig small_config(std::uint64_t seed = 7) {
  sim::ScenarioConfig config;
  config.actors = 3;
  config.sensors_per_actor = 2;
  config.seed = seed;
  config.chain_params.pow_zero_bits = 4;
  config.chain_params.coinbase_maturity = 3;
  config.chain_params.block_interval = 10 * util::kSecond;
  config.recipient_funding = 30 * chain::kCoin;
  return config;
}

TEST(Federation, BootstrapFundsAndAnnounces) {
  sim::Scenario scenario(small_config());
  scenario.bootstrap();
  for (int a = 0; a < scenario.actor_count(); ++a) {
    // Funding minus the directory-announcement fee.
    EXPECT_EQ(scenario.recipient(a).wallet().balance(
                  scenario.actor_node(a).chain()),
              30 * chain::kCoin - 500)
        << "actor " << a;
  }
  // Every actor's chain agrees with the master.
  const auto tip = scenario.master_node().chain().tip_hash();
  for (int a = 0; a < scenario.actor_count(); ++a) {
    EXPECT_EQ(scenario.actor_node(a).chain().tip_hash(), tip);
  }
}

TEST(Federation, EndToEndExchangesComplete) {
  sim::Scenario scenario(small_config());
  scenario.bootstrap();
  scenario.run_exchanges(12, 30 * util::kMinute);
  EXPECT_GE(scenario.exchanges_completed(), 12u);
  ASSERT_GE(scenario.latency_stats().count(), 12u);
  // Without block-verification stalls the mean exchange latency sits in the
  // paper's Fig. 5 regime: a couple of seconds, never tens of seconds.
  EXPECT_GT(scenario.latency_stats().mean(), 0.3);
  EXPECT_LT(scenario.latency_stats().mean(), 6.0);
}

TEST(Federation, GatewaysEarnRewards) {
  sim::Scenario scenario(small_config());
  scenario.bootstrap();
  scenario.run_exchanges(12, 30 * util::kMinute);
  // Let redeems confirm and mature: run some more virtual time.
  scenario.loop().run_until(scenario.loop().now() + 5 * util::kMinute);
  std::uint64_t total_redeems = 0;
  for (int a = 0; a < scenario.actor_count(); ++a) {
    total_redeems += scenario.gateway(a).redeems_submitted();
  }
  EXPECT_GE(total_redeems, 12u);
  // At least one gateway banked a confirmed reward.
  chain::Amount banked = 0;
  for (int a = 0; a < scenario.actor_count(); ++a)
    banked += scenario.gateway(a).confirmed_reward();
  EXPECT_GT(banked, 0);
}

TEST(Federation, ReadingsArriveIntact) {
  sim::ScenarioConfig config = small_config();
  sim::Scenario scenario(config);
  scenario.bootstrap();
  std::vector<Bytes> readings;
  for (int a = 0; a < scenario.actor_count(); ++a) {
    scenario.recipient(a).on_reading = [&](std::uint16_t, const Bytes& r) {
      readings.push_back(r);
    };
  }
  // Rewire breaks the scenario's own completion counting, so drive manually:
  scenario.sensor(0, 0).start_exchange(str_bytes("hello-bcwan"));
  scenario.loop().run_until(scenario.loop().now() + 2 * util::kMinute);
  ASSERT_FALSE(readings.empty());
  EXPECT_EQ(readings[0], str_bytes("hello-bcwan"));
}

TEST(Federation, StallModeSlowsExchanges) {
  sim::ScenarioConfig fast = small_config(11);
  sim::ScenarioConfig slow = small_config(11);
  slow.block_verification_stall = true;
  slow.stall_median_s = 6.0;
  slow.stall_sigma = 0.3;

  // Whether an exchange overlaps a stall is down to the seeded Poisson
  // block and report schedules. Over 8 exchanges the mean missed the 3x
  // bar for about one seed in eight; 64 exchanges average that out.
  sim::Scenario s1(fast);
  s1.bootstrap();
  s1.run_exchanges(64, 60 * util::kMinute);

  sim::Scenario s2(slow);
  s2.bootstrap();
  s2.run_exchanges(64, 60 * util::kMinute);

  ASSERT_GE(s1.latency_stats().count(), 64u);
  ASSERT_GE(s2.latency_stats().count(), 64u);
  // Fig. 6 vs Fig. 5: an order-of-magnitude separation.
  EXPECT_GT(s2.latency_stats().mean(), 3.0 * s1.latency_stats().mean());
}

TEST(Federation, WithholdingGatewayTriggersReclaim) {
  // Confirmations-required = huge makes the gateway sit on eSk forever —
  // operationally identical to a withholding gateway. With a short CLTV
  // timeout the recipient reclaims its funds.
  sim::ScenarioConfig config = small_config(13);
  config.gateway_config.confirmations_required = 1'000'000;
  config.recipient_config.timeout_blocks = 3;
  config.chain_params.block_interval = 5 * util::kSecond;
  sim::Scenario scenario(config);
  scenario.bootstrap();

  std::uint64_t reclaims = 0;
  for (int a = 0; a < scenario.actor_count(); ++a) {
    scenario.recipient(a).on_reclaimed = [&](std::uint16_t) { ++reclaims; };
  }
  scenario.sensor(0, 0).start_exchange(str_bytes("doomed"));
  scenario.loop().run_until(scenario.loop().now() + 10 * util::kMinute);

  EXPECT_GE(reclaims, 1u);
  // No reading was ever decrypted.
  for (int a = 0; a < scenario.actor_count(); ++a) {
    EXPECT_EQ(scenario.recipient(a).readings_decrypted(), 0u);
  }
  // And the recipient's money is back (minus fees): balance close to the
  // initial funding.
  const chain::Amount balance = scenario.recipient(0).wallet().balance(
      scenario.actor_node(0).chain());
  EXPECT_GT(balance, 30 * chain::kCoin - chain::kCoin / 10);
}

TEST(Federation, TamperedDeliveryNeverPaid) {
  // A malicious gateway that mangles Em: the recipient's signature check
  // fails, no offer is ever posted.
  sim::ScenarioConfig config = small_config(17);
  sim::Scenario scenario(config);
  scenario.bootstrap();

  // Intercept DELIVER messages to actor 0 and corrupt them.
  auto& node = scenario.actor_node(0);
  auto& recipient = scenario.recipient(0);
  node.set_app_handler([&recipient](const p2p::Message& msg) {
    p2p::Message corrupted = msg;
    // Payload buffers are shared/immutable: tampering takes a private copy.
    util::Bytes mangled = corrupted.payload;
    if (mangled.size() > 10) mangled[8] ^= 0xff;
    corrupted.payload = std::move(mangled);
    recipient.handle_message(corrupted);
  });

  scenario.sensor(0, 0).start_exchange(str_bytes("tamper-me"));
  scenario.loop().run_until(scenario.loop().now() + 2 * util::kMinute);

  EXPECT_GE(recipient.deliveries_received(), 1u);
  EXPECT_GE(recipient.signature_rejects(), 1u);
  EXPECT_EQ(recipient.offers_posted(), 0u);
  EXPECT_EQ(recipient.readings_decrypted(), 0u);
}

TEST(Federation, FrameLossRecoversViaRetry) {
  sim::ScenarioConfig config = small_config(19);
  config.radio_config.frame_loss = 0.25;
  sim::Scenario scenario(config);
  scenario.bootstrap();
  scenario.run_exchanges(6, 60 * util::kMinute);
  EXPECT_GE(scenario.exchanges_completed(), 6u);
}

TEST(Federation, NonPayingRecipientGetsNothing) {
  sim::ScenarioConfig config = small_config(23);
  config.recipient_config.pay_for_data = false;
  sim::Scenario scenario(config);
  scenario.bootstrap();
  scenario.sensor(0, 0).start_exchange(str_bytes("freeload"));
  scenario.loop().run_until(scenario.loop().now() + 5 * util::kMinute);
  // Delivery arrives, signature verifies, but with no offer there is no
  // eSk and no plaintext: "gateways should not be able to receive more
  // data than what it participates in" — and freeloading recipients get
  // no data either.
  EXPECT_GE(scenario.recipient(0).deliveries_received(), 1u);
  EXPECT_EQ(scenario.recipient(0).offers_posted(), 0u);
  EXPECT_EQ(scenario.recipient(0).readings_decrypted(), 0u);
}

TEST(Federation, OverpricedGatewayGetsNoOffer) {
  sim::ScenarioConfig config = small_config(67);
  config.gateway_config.price_quote = chain::kCoin;       // extortionate
  config.recipient_config.max_price = chain::kCoin / 100; // ceiling
  sim::Scenario scenario(config);
  scenario.bootstrap();
  scenario.sensor(0, 0).start_exchange(str_bytes("too pricey"));
  scenario.loop().run_until(scenario.loop().now() + 2 * util::kMinute);
  EXPECT_GE(scenario.recipient(0).deliveries_received(), 1u);
  EXPECT_GE(scenario.recipient(0).price_rejects(), 1u);
  EXPECT_EQ(scenario.recipient(0).offers_posted(), 0u);
  EXPECT_EQ(scenario.recipient(0).readings_decrypted(), 0u);
}

TEST(Federation, NegotiatedPriceIsPaid) {
  sim::ScenarioConfig config = small_config(68);
  config.gateway_config.price_quote = chain::kCoin / 400;
  sim::Scenario scenario(config);
  scenario.bootstrap();
  scenario.run_exchanges(3, 30 * util::kMinute);
  scenario.loop().run_until(scenario.loop().now() + 5 * util::kMinute);
  // Gateways banked the quoted price per message (minus redeem fees).
  chain::Amount banked = 0;
  std::uint64_t redeems = 0;
  for (int a = 0; a < scenario.actor_count(); ++a) {
    banked += scenario.gateway(a).confirmed_reward();
    redeems += scenario.gateway(a).redeems_submitted();
  }
  ASSERT_GE(redeems, 3u);
  EXPECT_LE(banked, static_cast<chain::Amount>(redeems) * chain::kCoin / 400);
  EXPECT_GT(banked, 0);
}

TEST(Federation, MultiGatewayActorsUseElectedMaster) {
  sim::ScenarioConfig config = small_config(71);
  config.gateways_per_actor = 3;
  sim::Scenario scenario(config);
  scenario.bootstrap();
  scenario.run_exchanges(3, 30 * util::kMinute);
  EXPECT_GE(scenario.exchanges_completed(), 3u);
  // Only elected masters served traffic; the other gateways stayed idle.
  for (int a = 0; a < scenario.actor_count(); ++a) {
    const std::size_t master = scenario.master_index(a);
    for (int g = 0; g < config.gateways_per_actor; ++g) {
      auto& gw = scenario.gateway_at(a, g);
      if (static_cast<std::size_t>(g) == master) continue;
      EXPECT_EQ(gw.keys_issued(), 0u) << "actor " << a << " gw " << g;
      EXPECT_EQ(gw.redeems_submitted(), 0u);
    }
  }
  std::uint64_t master_redeems = 0;
  for (int a = 0; a < scenario.actor_count(); ++a) {
    master_redeems += scenario.gateway(a).redeems_submitted();
  }
  EXPECT_GE(master_redeems, 3u);
}

// Minimal single-node world for exercising the directory against reorgs:
// a ChainNode with no peers, driven by direct block submission.
struct DirReorgHarness {
  chain::ChainParams params = [] {
    chain::ChainParams p;
    p.pow_zero_bits = 4;
    p.coinbase_maturity = 1;
    return p;
  }();
  p2p::EventLoop loop;
  p2p::SimNet net{loop, 77};
  p2p::HostId host = net.add_host("dir-node");
  p2p::ChainNode node{loop, net, host, params, {}, 42};
  chain::Wallet miner_wallet = chain::Wallet::from_seed("dir-miner");
  chain::Miner miner{params, miner_wallet.pkh()};

  chain::Block mine(std::uint64_t time) {
    return miner.mine(node.chain(), node.mempool(), time);
  }
};

TEST(Directory, ReorgResyncsStaleEntries) {
  DirReorgHarness a;
  Directory dir(a.node);

  // Fund the announcer, then put an announcement on-chain in block 2.
  ASSERT_EQ(a.node.submit_block(a.mine(1)),
            chain::AcceptBlockResult::kConnected);
  const auto announce = a.miner_wallet.create_announcement(
      a.node.chain(), &a.node.mempool(),
      encode_directory_entry(a.miner_wallet.pkh(), 0x0a000001, 9000), 1000);
  ASSERT_TRUE(announce.has_value());
  ASSERT_TRUE(a.node.submit_tx(*announce).ok());
  ASSERT_EQ(a.node.submit_block(a.mine(2)),
            chain::AcceptBlockResult::kConnected);
  {
    const auto entry = dir.lookup(a.miner_wallet.pkh());
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->height, 2);
  }

  // A competing branch (same genesis + block 1, no announcement) overtakes
  // the announcement block.
  DirReorgHarness b;
  const auto common = a.node.chain().block_at(1);
  ASSERT_TRUE(common.has_value());
  ASSERT_EQ(b.node.submit_block(*common), chain::AcceptBlockResult::kConnected);
  const chain::Block b2 = b.mine(20);
  ASSERT_EQ(b.node.submit_block(b2), chain::AcceptBlockResult::kConnected);
  const chain::Block b3 = b.mine(21);
  ASSERT_EQ(b.node.submit_block(b3), chain::AcceptBlockResult::kConnected);

  ASSERT_EQ(a.node.submit_block(b2), chain::AcceptBlockResult::kSideChain);
  ASSERT_EQ(a.node.submit_block(b3), chain::AcceptBlockResult::kReorganized);

  // The announcement's block was disconnected; its tx was resurrected into
  // the mempool. The reorg watcher must have resynced the directory, so
  // the entry now reports the mempool (-1), not the dead height 2 — before
  // the resync hook it kept claiming a block the active chain doesn't have.
  const auto entry = dir.lookup(a.miner_wallet.pkh());
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->height, -1);
}

// Two optional entries describe the same resolver fact.
void expect_same_entry(const std::optional<DirectoryEntry>& got,
                       const std::optional<DirectoryEntry>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->owner, want->owner);
  EXPECT_EQ(got->ip, want->ip);
  EXPECT_EQ(got->port, want->port);
  EXPECT_EQ(got->height, want->height);
}

TEST(Directory, DeepReorgUnwindsViaUndoFramesNoRescan) {
  DirReorgHarness a;
  Directory dir(a.node);
  ASSERT_EQ(dir.full_rescans(), 1u);  // the cold-start scan

  // Fund, announce ip .1 in block 2, then overwrite with ip .2 in block 4 —
  // the overwrite is what exercises the had_prev undo path.
  ASSERT_EQ(a.node.submit_block(a.mine(1)),
            chain::AcceptBlockResult::kConnected);
  const auto first = a.miner_wallet.create_announcement(
      a.node.chain(), &a.node.mempool(),
      encode_directory_entry(a.miner_wallet.pkh(), 0x0a000001, 9001), 1000);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(a.node.submit_tx(*first).ok());
  ASSERT_EQ(a.node.submit_block(a.mine(2)),
            chain::AcceptBlockResult::kConnected);
  ASSERT_EQ(a.node.submit_block(a.mine(3)),
            chain::AcceptBlockResult::kConnected);
  const auto second = a.miner_wallet.create_announcement(
      a.node.chain(), &a.node.mempool(),
      encode_directory_entry(a.miner_wallet.pkh(), 0x0a000002, 9002), 1000);
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(a.node.submit_tx(*second).ok());
  ASSERT_EQ(a.node.submit_block(a.mine(4)),
            chain::AcceptBlockResult::kConnected);
  {
    const auto entry = dir.lookup(a.miner_wallet.pkh());
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->ip, 0x0a000002u);
    EXPECT_EQ(entry->height, 4);
  }
  EXPECT_EQ(dir.indexed_tip(), 4);

  // A rival branch forking at height 2: blocks 3-4 (with the overwrite)
  // disconnect, three rival blocks connect.
  DirReorgHarness b;
  for (int h = 1; h <= 2; ++h) {
    const auto common = a.node.chain().block_at(h);
    ASSERT_TRUE(common.has_value());
    ASSERT_EQ(b.node.submit_block(*common),
              chain::AcceptBlockResult::kConnected);
  }
  const chain::Block r3 = b.mine(20);
  ASSERT_EQ(b.node.submit_block(r3), chain::AcceptBlockResult::kConnected);
  const chain::Block r4 = b.mine(21);
  ASSERT_EQ(b.node.submit_block(r4), chain::AcceptBlockResult::kConnected);
  const chain::Block r5 = b.mine(22);
  ASSERT_EQ(b.node.submit_block(r5), chain::AcceptBlockResult::kConnected);

  ASSERT_EQ(a.node.submit_block(r3), chain::AcceptBlockResult::kSideChain);
  ASSERT_EQ(a.node.submit_block(r4), chain::AcceptBlockResult::kSideChain);
  ASSERT_EQ(a.node.submit_block(r5), chain::AcceptBlockResult::kReorganized);

  // The reorg was absorbed through undo frames: no full rescan.
  EXPECT_EQ(dir.indexed_reorgs(), 1u);
  EXPECT_EQ(dir.full_rescans(), 1u);
  EXPECT_EQ(dir.indexed_tip(), 5);

  // The disconnected overwrite resurrected into the mempool and shadows the
  // restored confirmed entry; a freshly-built full-rescan directory must
  // agree exactly with the incrementally unwound one.
  const Directory probe(a.node);
  expect_same_entry(dir.lookup(a.miner_wallet.pkh()),
                    probe.lookup(a.miner_wallet.pkh()));
  EXPECT_EQ(dir.size(), probe.size());
  {
    const auto entry = dir.lookup(a.miner_wallet.pkh());
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->height, -1);  // mempool sighting of the resurrected tx
    EXPECT_EQ(entry->ip, 0x0a000002u);
  }

  // Mining on the new branch confirms the resurrected announcement and
  // retires the mempool shadow — still in lockstep with the rescan copy.
  ASSERT_EQ(a.node.submit_block(a.mine(30)),
            chain::AcceptBlockResult::kConnected);
  const auto entry = dir.lookup(a.miner_wallet.pkh());
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->height, 6);
  EXPECT_EQ(entry->ip, 0x0a000002u);
  expect_same_entry(dir.lookup(a.miner_wallet.pkh()),
                    probe.lookup(a.miner_wallet.pkh()));
}

TEST(Directory, ReorgPastUndoWindowFallsBackToRescan) {
  DirReorgHarness a;
  DirectoryOptions options;
  options.undo_depth = 2;  // frames for the newest two heights only
  Directory dir(a.node, options);
  ASSERT_EQ(dir.full_rescans(), 1u);

  ASSERT_EQ(a.node.submit_block(a.mine(1)),
            chain::AcceptBlockResult::kConnected);
  const auto announce = a.miner_wallet.create_announcement(
      a.node.chain(), &a.node.mempool(),
      encode_directory_entry(a.miner_wallet.pkh(), 0x0a000003, 9003), 1000);
  ASSERT_TRUE(announce.has_value());
  ASSERT_TRUE(a.node.submit_tx(*announce).ok());
  for (std::uint64_t t = 2; t <= 4; ++t) {
    ASSERT_EQ(a.node.submit_block(a.mine(t)),
              chain::AcceptBlockResult::kConnected);
  }

  // Rival branch forking at height 1 — deeper than the two retained undo
  // frames, so the unwind hits a missing frame and rebuilds instead.
  DirReorgHarness b;
  const auto common = a.node.chain().block_at(1);
  ASSERT_TRUE(common.has_value());
  ASSERT_EQ(b.node.submit_block(*common),
            chain::AcceptBlockResult::kConnected);
  std::vector<chain::Block> branch;
  for (std::uint64_t t = 40; t < 44; ++t) {
    const chain::Block blk = b.mine(t);
    ASSERT_EQ(b.node.submit_block(blk), chain::AcceptBlockResult::kConnected);
    branch.push_back(blk);
  }
  for (std::size_t i = 0; i + 1 < branch.size(); ++i) {
    ASSERT_EQ(a.node.submit_block(branch[i]),
              chain::AcceptBlockResult::kSideChain);
  }
  ASSERT_EQ(a.node.submit_block(branch.back()),
            chain::AcceptBlockResult::kReorganized);

  EXPECT_EQ(dir.indexed_reorgs(), 0u);
  EXPECT_EQ(dir.full_rescans(), 2u);
  EXPECT_EQ(dir.indexed_tip(), 5);
  const Directory probe(a.node);
  expect_same_entry(dir.lookup(a.miner_wallet.pkh()),
                    probe.lookup(a.miner_wallet.pkh()));
  EXPECT_EQ(dir.size(), probe.size());
}

// Persistent-store node whose directory index is persisted next to it: the
// restart watcher must recover the directory from disk, not rescan.
struct PersistDirHarness {
  chain::ChainParams params = [] {
    chain::ChainParams p;
    p.pow_zero_bits = 4;
    p.coinbase_maturity = 1;
    return p;
  }();
  std::filesystem::path dir = [] {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "bcwan-dir-XXXXXX").string();
    return std::filesystem::path(::mkdtemp(tmpl.data()));
  }();
  p2p::EventLoop loop;
  p2p::SimNet net{loop, 78};
  p2p::HostId host = net.add_host("persist-dir-node");
  p2p::ChainNodeConfig config = [this] {
    p2p::ChainNodeConfig c;
    c.store_dir = (dir / "node").string();
    return c;
  }();
  p2p::ChainNode node{loop, net, host, params, config, 52};
  chain::Wallet miner_wallet = chain::Wallet::from_seed("persist-dir-miner");
  chain::Miner miner{params, miner_wallet.pkh()};

  ~PersistDirHarness() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::string index_path() const { return (dir / "directory.idx").string(); }

  chain::Block mine(std::uint64_t time) {
    return miner.mine(node.chain(), node.mempool(), time);
  }

  /// Fund the announcer, confirm one announcement at height 2, bury it.
  void announce_and_confirm(Directory& directory) {
    ASSERT_EQ(node.submit_block(mine(1)),
              chain::AcceptBlockResult::kConnected);
    const auto announce = miner_wallet.create_announcement(
        node.chain(), &node.mempool(),
        encode_directory_entry(miner_wallet.pkh(), 0x0a000007, 9007), 1000);
    ASSERT_TRUE(announce.has_value());
    ASSERT_TRUE(node.submit_tx(*announce).ok());
    ASSERT_EQ(node.submit_block(mine(2)),
              chain::AcceptBlockResult::kConnected);
    ASSERT_EQ(node.submit_block(mine(3)),
              chain::AcceptBlockResult::kConnected);
    const auto entry = directory.lookup(miner_wallet.pkh());
    ASSERT_TRUE(entry.has_value());
    ASSERT_EQ(entry->height, 2);
  }
};

TEST(Directory, PersistedIndexSurvivesCrashRestart) {
  PersistDirHarness a;
  DirectoryOptions options;
  options.persist_path = a.index_path();
  Directory dir(a.node, options);
  ASSERT_EQ(dir.full_rescans(), 1u);  // first boot: nothing persisted yet
  a.announce_and_confirm(dir);
  const auto before = dir.lookup(a.miner_wallet.pkh());
  ASSERT_TRUE(std::filesystem::exists(a.index_path()));

  a.node.crash();
  ASSERT_TRUE(a.node.restart());
  // Recovery installed the persisted index: no additional rescan.
  EXPECT_EQ(dir.full_rescans(), 1u);
  EXPECT_EQ(dir.indexed_tip(), 3);
  expect_same_entry(dir.lookup(a.miner_wallet.pkh()), before);

  // The recovered index stays live on new blocks.
  ASSERT_EQ(a.node.submit_block(a.mine(10)),
            chain::AcceptBlockResult::kConnected);
  EXPECT_EQ(dir.indexed_tip(), 4);
}

TEST(Directory, CorruptPersistedIndexFallsBackToRescan) {
  PersistDirHarness a;
  DirectoryOptions options;
  options.persist_path = a.index_path();
  Directory dir(a.node, options);
  a.announce_and_confirm(dir);
  const auto before = dir.lookup(a.miner_wallet.pkh());

  // Flip a byte in the middle of the persisted payload: the CRC rejects it
  // and recovery rebuilds by scanning instead of trusting the file.
  a.node.crash();
  {
    std::ifstream in(a.index_path(), std::ios::binary);
    std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    ASSERT_FALSE(raw.empty());
    raw[raw.size() / 2] ^= 0x08;
    std::ofstream out(a.index_path(),
                      std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }
  ASSERT_TRUE(a.node.restart());
  EXPECT_EQ(dir.full_rescans(), 2u);
  expect_same_entry(dir.lookup(a.miner_wallet.pkh()), before);

  // A truncated (torn) index file is rejected the same way. The rescan
  // above re-persisted a good file first.
  a.node.crash();
  {
    std::ifstream in(a.index_path(), std::ios::binary);
    std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    ASSERT_GT(raw.size(), 8u);
    std::ofstream out(a.index_path(),
                      std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size() / 2));
  }
  ASSERT_TRUE(a.node.restart());
  EXPECT_EQ(dir.full_rescans(), 3u);
  expect_same_entry(dir.lookup(a.miner_wallet.pkh()), before);
}

TEST(Federation, DirectoryServesForeignLookups) {
  sim::Scenario scenario(small_config(29));
  scenario.bootstrap();
  // Every gateway can resolve every recipient.
  for (int g = 0; g < scenario.actor_count(); ++g) {
    for (int r = 0; r < scenario.actor_count(); ++r) {
      const auto& pkh = scenario.recipient(r).pkh();
      // Use the gateway's directory through a fresh lookup via its agent's
      // directory reference: check through the scenario's actor node.
      core::Directory probe(scenario.actor_node(g));
      const auto entry = probe.lookup(pkh);
      ASSERT_TRUE(entry.has_value()) << "gateway " << g << " recipient " << r;
      EXPECT_EQ(entry->ip, sim::host_ip(scenario.actor_node(r).host()));
    }
  }
}

}  // namespace
}  // namespace bcwan::core
