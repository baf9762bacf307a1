#include <gtest/gtest.h>

#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "chain/miner.hpp"
#include "chain/sigcache.hpp"
#include "chain/validation.hpp"
#include "chain/wallet.hpp"
#include "crypto/ecdsa.hpp"
#include "util/rng.hpp"

namespace bcwan::chain {
namespace {

using util::Bytes;
using util::Rng;
using util::str_bytes;

ChainParams test_params() {
  ChainParams p;
  p.pow_zero_bits = 4;  // fast tests
  p.coinbase_maturity = 2;
  return p;
}

/// A chain with a funded wallet: mines `blocks` blocks paying `wallet`.
struct Harness {
  ChainParams params = test_params();
  Blockchain chain{params};
  Mempool pool{params};
  Wallet miner_wallet = Wallet::from_seed("miner");
  Miner miner{params, miner_wallet.pkh()};
  std::uint64_t now = 0;

  void mine_block() {
    const Block block = miner.mine(chain, pool, ++now);
    const auto result = chain.accept_block(block);
    ASSERT_TRUE(result == AcceptBlockResult::kConnected ||
                result == AcceptBlockResult::kReorganized)
        << accept_block_result_name(result);
    pool.remove_confirmed(block);
  }

  void mine_blocks(int n) {
    for (int i = 0; i < n; ++i) mine_block();
  }

  /// Mine enough for `miner_wallet` to have spendable (mature) funds.
  void fund() { mine_blocks(params.coinbase_maturity + 1); }
};

// --- Transactions ---

TEST(Transaction, SerializationRoundTrip) {
  Transaction tx;
  tx.version = 2;
  tx.locktime = 99;
  TxIn in;
  in.prevout.txid[0] = 0xab;
  in.prevout.index = 3;
  in.script_sig = script::Script(Bytes{0x01, 0x02});
  in.sequence = 0xfffffffe;
  tx.vin.push_back(in);
  TxOut out;
  out.value = 12345;
  out.script_pubkey = script::make_p2pkh(script::PubKeyHash{});
  tx.vout.push_back(out);

  const auto back = Transaction::deserialize(tx.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, tx);
  EXPECT_EQ(back->txid(), tx.txid());
}

TEST(Transaction, DeserializeRejectsTrailingBytes) {
  Transaction tx;
  tx.vin.emplace_back();
  tx.vout.emplace_back();
  Bytes raw = tx.serialize();
  raw.push_back(0x00);
  EXPECT_FALSE(Transaction::deserialize(raw).has_value());
  EXPECT_FALSE(Transaction::deserialize(Bytes{1, 2, 3}).has_value());
}

TEST(Transaction, CoinbaseDetection) {
  Transaction cb;
  TxIn in;
  in.prevout = coinbase_prevout();
  cb.vin.push_back(in);
  EXPECT_TRUE(cb.is_coinbase());

  Transaction normal;
  TxIn nin;
  nin.prevout.txid[5] = 1;
  normal.vin.push_back(nin);
  EXPECT_FALSE(normal.is_coinbase());
}

TEST(Transaction, TxidChangesWithContent) {
  Transaction tx;
  tx.vin.emplace_back();
  tx.vout.emplace_back();
  const Hash256 id1 = tx.txid();
  tx.vout[0].value = 1;
  tx.invalidate_txid();  // mutation after a txid() call must be declared
  EXPECT_NE(tx.txid(), id1);
}

TEST(Transaction, SighashCoversOutputsAndIndex) {
  Transaction tx;
  tx.vin.resize(2);
  tx.vout.resize(1);
  const script::Script spent = script::make_p2pkh(script::PubKeyHash{});
  const Bytes m0 = signature_hash_message(tx, 0, spent);
  const Bytes m1 = signature_hash_message(tx, 1, spent);
  EXPECT_NE(m0, m1);  // index is committed
  Transaction tx2 = tx;
  tx2.vout[0].value = 7;
  EXPECT_NE(signature_hash_message(tx2, 0, spent), m0);  // outputs committed
}

// --- Blocks & merkle ---

TEST(Block, HeaderHashChangesWithNonce) {
  BlockHeader h;
  const Hash256 h1 = h.hash();
  h.nonce = 1;
  EXPECT_NE(h.hash(), h1);
}

TEST(Block, SerializationRoundTrip) {
  const ChainParams params = test_params();
  const Block genesis = make_genesis(params);
  const auto back = Block::deserialize(genesis.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, genesis);
}

TEST(Merkle, EmptyAndSingle) {
  EXPECT_EQ(merkle_root({}), Hash256{});
  Hash256 leaf{};
  leaf[0] = 1;
  EXPECT_EQ(merkle_root({leaf}), leaf);
}

TEST(Merkle, OrderMatters) {
  Hash256 a{}, b{};
  a[0] = 1;
  b[0] = 2;
  EXPECT_NE(merkle_root({a, b}), merkle_root({b, a}));
}

TEST(Merkle, OddLeafDuplication) {
  Hash256 a{}, b{}, c{};
  a[0] = 1;
  b[0] = 2;
  c[0] = 3;
  // Three leaves: (ab, cc) per Bitcoin's duplication rule.
  const Hash256 expected = merkle_root({merkle_root({a, b}),
                                        merkle_root({c, c})});
  EXPECT_EQ(merkle_root({a, b, c}), expected);
}

TEST(Pow, TargetCheck) {
  Hash256 zero{};
  EXPECT_TRUE(hash_meets_target(zero, 256));
  Hash256 h{};
  h[0] = 0x0f;  // 4 leading zero bits
  EXPECT_TRUE(hash_meets_target(h, 4));
  EXPECT_FALSE(hash_meets_target(h, 5));
  h[0] = 0x10;
  EXPECT_TRUE(hash_meets_target(h, 3));
  EXPECT_FALSE(hash_meets_target(h, 4));
}

TEST(Pow, SolveFindsValidNonce) {
  BlockHeader h;
  h.target_zero_bits = 8;
  ASSERT_TRUE(solve_pow(h));
  EXPECT_TRUE(hash_meets_target(h.hash(), 8));
}

// --- UTXO ---

TEST(Utxo, AddSpendLifecycle) {
  UtxoSet set;
  OutPoint op;
  op.txid[0] = 1;
  EXPECT_FALSE(set.contains(op));
  set.add(op, Coin{TxOut{100, {}}, 1, false});
  EXPECT_TRUE(set.contains(op));
  EXPECT_EQ(set.get(op)->out.value, 100);
  const auto spent = set.spend(op);
  ASSERT_TRUE(spent.has_value());
  EXPECT_EQ(spent->out.value, 100);
  EXPECT_FALSE(set.contains(op));
  EXPECT_FALSE(set.spend(op).has_value());
}

TEST(Utxo, FindByScriptAndTotal) {
  UtxoSet set;
  const script::Script s = script::make_p2pkh(script::PubKeyHash{});
  for (std::uint32_t i = 0; i < 3; ++i) {
    OutPoint op;
    op.index = i;
    set.add(op, Coin{TxOut{100, s}, 1, false});
  }
  OutPoint other;
  other.txid[0] = 9;
  set.add(other, Coin{TxOut{5, {}}, 1, false});
  EXPECT_EQ(set.find_by_script(s).size(), 3u);
  EXPECT_EQ(set.total_value(), 305);
}

// --- Genesis & mining ---

TEST(Blockchain, GenesisState) {
  const ChainParams params = test_params();
  Blockchain chain(params);
  EXPECT_EQ(chain.height(), 0);
  EXPECT_EQ(chain.utxo().size(), 0u);  // genesis reward is OP_RETURN
  EXPECT_TRUE(chain.block_at(0).has_value());
}

TEST(Blockchain, MiningExtendsChainAndPaysMiner) {
  Harness h;
  h.fund();
  EXPECT_EQ(h.chain.height(), h.params.coinbase_maturity + 1);
  EXPECT_GT(h.miner_wallet.balance(h.chain), 0);
}

TEST(Blockchain, CoinbaseMaturityEnforced) {
  Harness h;
  h.mine_block();  // one immature coinbase
  EXPECT_EQ(h.miner_wallet.balance(h.chain), 0);  // still immature
  h.mine_blocks(h.params.coinbase_maturity);
  EXPECT_GT(h.miner_wallet.balance(h.chain), 0);
}

TEST(Blockchain, RejectsBadPow) {
  Harness h;
  Block block = h.miner.assemble(h.chain, h.pool, 1);
  // Don't solve; the odds of a random header meeting even 4 bits are 1/16,
  // so grind a nonce that does NOT meet the target.
  while (hash_meets_target(block.hash(), h.params.pow_zero_bits))
    ++block.header.nonce;
  EXPECT_EQ(h.chain.accept_block(block), AcceptBlockResult::kInvalid);
  EXPECT_EQ(h.chain.last_failure().error, BlockError::kBadPow);
}

TEST(Blockchain, RejectsBadMerkleRoot) {
  Harness h;
  Block block = h.miner.assemble(h.chain, h.pool, 1);
  block.header.merkle_root[0] ^= 1;
  solve_pow(block.header);
  EXPECT_EQ(h.chain.accept_block(block), AcceptBlockResult::kInvalid);
  EXPECT_EQ(h.chain.last_failure().error, BlockError::kBadMerkleRoot);
}

TEST(Blockchain, RejectsOverpayingCoinbase) {
  Harness h;
  Block block = h.miner.assemble(h.chain, h.pool, 1);
  block.txs[0].vout[0].value = h.params.block_reward + 1;
  block.txs[0].invalidate_txid();
  block.header.merkle_root = compute_merkle_root(block.txs);
  solve_pow(block.header);
  EXPECT_EQ(h.chain.accept_block(block), AcceptBlockResult::kInvalid);
  EXPECT_EQ(h.chain.last_failure().error, BlockError::kBadCoinbaseValue);
}

TEST(Blockchain, DuplicateBlockDetected) {
  Harness h;
  const Block block = h.miner.mine(h.chain, h.pool, 1);
  EXPECT_EQ(h.chain.accept_block(block), AcceptBlockResult::kConnected);
  EXPECT_EQ(h.chain.accept_block(block), AcceptBlockResult::kDuplicate);
}

TEST(Blockchain, OrphanConnectsWhenParentArrives) {
  Harness h;
  // Build two blocks on a parallel copy of the chain.
  Harness h2;
  const Block b1 = h2.miner.mine(h2.chain, h2.pool, 1);
  h2.chain.accept_block(b1);
  const Block b2 = h2.miner.mine(h2.chain, h2.pool, 2);
  h2.chain.accept_block(b2);

  EXPECT_EQ(h.chain.accept_block(b2), AcceptBlockResult::kOrphan);
  EXPECT_EQ(h.chain.height(), 0);
  EXPECT_EQ(h.chain.accept_block(b1), AcceptBlockResult::kConnected);
  // b2 auto-connected as orphan child.
  EXPECT_EQ(h.chain.height(), 2);
  EXPECT_EQ(h.chain.tip_hash(), b2.hash());
}

TEST(Blockchain, ReorgToLongerChain) {
  Harness a;  // will host the reorg
  Harness b;  // builds the competing branch
  // Common prefix.
  const Block common = a.miner.mine(a.chain, a.pool, 1);
  ASSERT_EQ(a.chain.accept_block(common), AcceptBlockResult::kConnected);
  ASSERT_EQ(b.chain.accept_block(common), AcceptBlockResult::kConnected);

  // a extends by one; b extends by two (b uses a different coinbase tag via
  // different timestamps, so hashes differ).
  const Block a1 = a.miner.mine(a.chain, a.pool, 10);
  ASSERT_EQ(a.chain.accept_block(a1), AcceptBlockResult::kConnected);

  const Block b1 = b.miner.mine(b.chain, b.pool, 20);
  ASSERT_EQ(b.chain.accept_block(b1), AcceptBlockResult::kConnected);
  const Block b2 = b.miner.mine(b.chain, b.pool, 21);
  ASSERT_EQ(b.chain.accept_block(b2), AcceptBlockResult::kConnected);

  // Feed the b-branch to a: first block is a side chain, second triggers
  // the reorg.
  EXPECT_EQ(a.chain.accept_block(b1), AcceptBlockResult::kSideChain);
  EXPECT_EQ(a.chain.accept_block(b2), AcceptBlockResult::kReorganized);
  EXPECT_EQ(a.chain.height(), 3);
  EXPECT_EQ(a.chain.tip_hash(), b2.hash());
  // The UTXO sets of both nodes agree after convergence.
  EXPECT_EQ(a.chain.utxo().total_value(), b.chain.utxo().total_value());
}

// --- Spending & validation ---

TEST(Validation, PaymentRoundTrip) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const auto tx = h.miner_wallet.create_payment(h.chain, &h.pool, alice.pkh(),
                                                10 * kCoin, 1000);
  ASSERT_TRUE(tx.has_value());
  const auto accept = h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1);
  ASSERT_TRUE(accept.ok()) << mempool_error_name(accept.error);
  h.mine_block();
  EXPECT_EQ(alice.balance(h.chain), 10 * kCoin);
}

TEST(Validation, RejectsDoubleSpendAcrossBlocks) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const auto tx = h.miner_wallet.create_payment(h.chain, nullptr, alice.pkh(),
                                                10 * kCoin, 1000);
  ASSERT_TRUE(tx.has_value());
  ASSERT_TRUE(h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1).ok());
  h.mine_block();
  // Same tx again: inputs are gone.
  const auto again = h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1);
  EXPECT_EQ(again.error, MempoolError::kInvalid);
  EXPECT_EQ(again.validation.error, TxError::kMissingInput);
}

TEST(Validation, RejectsBadSignature) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  auto tx = h.miner_wallet.create_payment(h.chain, nullptr, alice.pkh(),
                                          10 * kCoin, 1000);
  ASSERT_TRUE(tx.has_value());
  tx->vout[0].value += 1;  // invalidates signatures
  const auto result =
      check_tx_inputs(*tx, h.chain.utxo(), h.chain.height() + 1, h.params);
  EXPECT_EQ(result.error, TxError::kScriptFailed);
}

TEST(Validation, RejectsWrongSpender) {
  Harness h;
  h.fund();
  const Wallet mallory = Wallet::from_seed("mallory");
  // Mallory tries to spend the miner's coin with her own key.
  const auto coins = h.miner_wallet.spendable(h.chain);
  ASSERT_FALSE(coins.empty());
  Transaction tx;
  TxIn in;
  in.prevout = coins[0].first;
  tx.vin.push_back(in);
  TxOut out;
  out.value = coins[0].second.out.value - 1000;
  out.script_pubkey = script::make_p2pkh(mallory.pkh());
  tx.vout.push_back(out);
  mallory.sign_p2pkh_input(tx, 0, coins[0].second.out.script_pubkey);
  const auto result =
      check_tx_inputs(tx, h.chain.utxo(), h.chain.height() + 1, h.params);
  EXPECT_EQ(result.error, TxError::kScriptFailed);
}

TEST(Validation, StatelessChecks) {
  const ChainParams params = test_params();
  Transaction tx;
  EXPECT_EQ(check_transaction(tx, params).error, TxError::kNoInputs);
  tx.vin.emplace_back();
  tx.vin[0].prevout.txid[0] = 1;
  EXPECT_EQ(check_transaction(tx, params).error, TxError::kNoOutputs);
  tx.vout.emplace_back();
  tx.vout[0].value = -5;
  EXPECT_EQ(check_transaction(tx, params).error, TxError::kNegativeOutput);
  tx.vout[0].value = params.max_money + 1;
  EXPECT_EQ(check_transaction(tx, params).error, TxError::kOutputTooLarge);
  tx.vout[0].value = 1;
  tx.vin.push_back(tx.vin[0]);
  EXPECT_EQ(check_transaction(tx, params).error, TxError::kDuplicateInput);
}

TEST(Validation, OpReturnSizeLimit) {
  const ChainParams params = test_params();
  Transaction tx;
  tx.vin.emplace_back();
  tx.vin[0].prevout.txid[0] = 1;
  TxOut out;
  out.value = 0;
  out.script_pubkey =
      script::make_op_return(Bytes(params.max_op_return_size + 1, 0xaa));
  tx.vout.push_back(out);
  EXPECT_EQ(check_transaction(tx, params).error, TxError::kOpReturnTooLarge);
}

TEST(Validation, LocktimeGatesInclusion) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  auto tx = h.miner_wallet.create_payment(h.chain, nullptr, alice.pkh(),
                                          1 * kCoin, 1000);
  ASSERT_TRUE(tx.has_value());
  // Rebuild with a far-future locktime and a non-final sequence.
  Transaction locked = *tx;
  locked.locktime = static_cast<std::uint32_t>(h.chain.height() + 100);
  for (auto& in : locked.vin) in.sequence = kSequenceFinal - 1;
  // Re-sign (the wallet helper re-signs input 0 against its spent script).
  const auto coins = h.miner_wallet.spendable(h.chain);
  // Find spent script for each input.
  for (std::size_t i = 0; i < locked.vin.size(); ++i) {
    const auto coin = h.chain.utxo().get(locked.vin[i].prevout);
    ASSERT_TRUE(coin.has_value());
    h.miner_wallet.sign_p2pkh_input(locked, i, coin->out.script_pubkey);
  }
  const auto result =
      check_tx_inputs(locked, h.chain.utxo(), h.chain.height() + 1, h.params);
  EXPECT_EQ(result.error, TxError::kLocktimeNotReached);
}

// --- Mempool ---

TEST(Mempool, AcceptAndConfirm) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const auto tx = h.miner_wallet.create_payment(h.chain, &h.pool, alice.pkh(),
                                                2 * kCoin, 1000);
  ASSERT_TRUE(tx.has_value());
  ASSERT_TRUE(h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1).ok());
  EXPECT_TRUE(h.pool.contains(tx->txid()));
  EXPECT_EQ(h.pool.size(), 1u);
  h.mine_block();
  EXPECT_FALSE(h.pool.contains(tx->txid()));
  EXPECT_EQ(h.pool.size(), 0u);
}

TEST(Mempool, RejectsDuplicateAndConflict) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const Wallet bob = Wallet::from_seed("bob");
  const auto tx1 = h.miner_wallet.create_payment(h.chain, nullptr, alice.pkh(),
                                                 2 * kCoin, 1000);
  ASSERT_TRUE(tx1.has_value());
  // tx2 spends the same coins (built without pool knowledge) to bob.
  const auto tx2 = h.miner_wallet.create_payment(h.chain, nullptr, bob.pkh(),
                                                 2 * kCoin, 1000);
  ASSERT_TRUE(tx2.has_value());
  ASSERT_NE(tx1->txid(), tx2->txid());

  ASSERT_TRUE(h.pool.accept(*tx1, h.chain.utxo(), h.chain.height() + 1).ok());
  EXPECT_EQ(h.pool.accept(*tx1, h.chain.utxo(), h.chain.height() + 1).error,
            MempoolError::kAlreadyKnown);
  EXPECT_EQ(h.pool.accept(*tx2, h.chain.utxo(), h.chain.height() + 1).error,
            MempoolError::kConflict);
}

TEST(Mempool, UnconfirmedChainAccepted) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const Wallet bob = Wallet::from_seed("bob");
  const auto tx1 = h.miner_wallet.create_payment(h.chain, &h.pool, alice.pkh(),
                                                 5 * kCoin, 1000);
  ASSERT_TRUE(tx1.has_value());
  ASSERT_TRUE(h.pool.accept(*tx1, h.chain.utxo(), h.chain.height() + 1).ok());

  // Alice immediately spends her unconfirmed output to bob.
  Transaction tx2;
  TxIn in;
  in.prevout = OutPoint{tx1->txid(), 0};
  tx2.vin.push_back(in);
  TxOut out;
  out.value = 5 * kCoin - 1000;
  out.script_pubkey = script::make_p2pkh(bob.pkh());
  tx2.vout.push_back(out);
  {
    const Wallet& signer = alice;
    signer.sign_p2pkh_input(tx2, 0, tx1->vout[0].script_pubkey);
  }
  const auto accept = h.pool.accept(tx2, h.chain.utxo(), h.chain.height() + 1);
  ASSERT_TRUE(accept.ok()) << mempool_error_name(accept.error);

  // Both confirm in one block, parent before child.
  h.mine_block();
  EXPECT_EQ(bob.balance(h.chain), 5 * kCoin - 1000);
}

TEST(Mempool, FeeFloorEnforced) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const auto tx = h.miner_wallet.create_payment(h.chain, nullptr, alice.pkh(),
                                                2 * kCoin, 0);
  ASSERT_TRUE(tx.has_value());
  EXPECT_EQ(h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1).error,
            MempoolError::kFeeTooLow);
}

TEST(Mempool, DoubleSpendEvictedOnConfirm) {
  // The §6 attack observable: a conflicting tx confirms, the victim's
  // in-pool tx is evicted.
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const Wallet bob = Wallet::from_seed("bob");
  const auto to_alice = h.miner_wallet.create_payment(
      h.chain, nullptr, alice.pkh(), 2 * kCoin, 1000);
  const auto to_bob = h.miner_wallet.create_payment(
      h.chain, nullptr, bob.pkh(), 2 * kCoin, 1000);
  ASSERT_TRUE(to_alice.has_value() && to_bob.has_value());

  // Victim pool holds to_alice; the network confirms to_bob instead.
  Mempool victim(h.params);
  ASSERT_TRUE(victim.accept(*to_alice, h.chain.utxo(), h.chain.height() + 1).ok());
  ASSERT_TRUE(h.pool.accept(*to_bob, h.chain.utxo(), h.chain.height() + 1).ok());
  h.mine_block();

  victim.remove_confirmed(*h.chain.block_at(h.chain.height()));
  EXPECT_FALSE(victim.contains(to_alice->txid()));
  EXPECT_EQ(victim.size(), 0u);
}

// --- Wallet ---

TEST(Wallet, AddressRoundTrip) {
  const Wallet w = Wallet::from_seed("w");
  const auto decoded = decode_address(w.address());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, w.pkh());
  EXPECT_FALSE(decode_address("garbage").has_value());
}

TEST(Wallet, DeterministicFromSeed) {
  EXPECT_EQ(Wallet::from_seed("x").address(), Wallet::from_seed("x").address());
  EXPECT_NE(Wallet::from_seed("x").address(), Wallet::from_seed("y").address());
}

TEST(Wallet, InsufficientFunds) {
  Harness h;
  const Wallet alice = Wallet::from_seed("alice");
  EXPECT_FALSE(alice.create_payment(h.chain, nullptr, h.miner_wallet.pkh(),
                                    1, 1)
                   .has_value());
}

TEST(Wallet, ChangeReturnsToSelf) {
  Harness h;
  h.fund();
  const Amount before = h.miner_wallet.balance(h.chain);
  const Wallet alice = Wallet::from_seed("alice");
  const auto tx = h.miner_wallet.create_payment(h.chain, &h.pool, alice.pkh(),
                                                1 * kCoin, 1000);
  ASSERT_TRUE(tx.has_value());
  ASSERT_TRUE(h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1).ok());
  h.mine_block();
  // The payment and fee leave; one older coinbase newly matures. The block
  // that confirms the payment carries the fee but is itself still immature.
  const Amount after = h.miner_wallet.balance(h.chain);
  EXPECT_EQ(after, before - 1 * kCoin - 1000 + h.params.block_reward);
}

// --- Fair-exchange transactions end to end on the chain ---

class FairExchangeChain : public ::testing::Test {
 protected:
  void SetUp() override {
    h.fund();
    // Recipient gets budget.
    const auto funding = h.miner_wallet.create_payment(
        h.chain, &h.pool, recipient.pkh(), 20 * kCoin, 1000);
    ASSERT_TRUE(funding.has_value());
    ASSERT_TRUE(
        h.pool.accept(*funding, h.chain.utxo(), h.chain.height() + 1).ok());
    h.mine_block();
    ASSERT_EQ(recipient.balance(h.chain), 20 * kCoin);
  }

  Transaction make_offer() {
    const auto offer = recipient.create_key_release_offer(
        h.chain, &h.pool, ephemeral.pub, gateway.pkh(), 1 * kCoin, 1000,
        h.chain.height() + 100);
    EXPECT_TRUE(offer.has_value());
    return *offer;
  }

  OutPoint offer_outpoint(const Transaction& offer) const {
    // Output 0 is the key-release lock (change, if any, follows).
    return OutPoint{offer.txid(), 0};
  }

  Harness h;
  Wallet recipient = Wallet::from_seed("recipient");
  Wallet gateway = Wallet::from_seed("gateway");
  util::Rng rng{42};
  crypto::RsaKeyPair ephemeral = crypto::rsa_generate(rng, 512);
};

TEST_F(FairExchangeChain, OfferRedeemFlow) {
  const Transaction offer = make_offer();
  ASSERT_TRUE(h.pool.accept(offer, h.chain.utxo(), h.chain.height() + 1).ok());

  // Gateway sees the offer (mempool fast path) and redeems, revealing eSk.
  const Transaction redeem = gateway.create_redeem(
      offer_outpoint(offer), offer.vout[0], ephemeral.priv, 1000);
  const auto accept =
      h.pool.accept(redeem, h.chain.utxo(), h.chain.height() + 1);
  ASSERT_TRUE(accept.ok()) << mempool_error_name(accept.error)
                           << "/" << tx_error_name(accept.validation.error);

  // The recipient extracts eSk from the redeem scriptSig.
  const auto revealed = script::extract_revealed_key(redeem.vin[0].script_sig);
  ASSERT_TRUE(revealed.has_value());
  EXPECT_EQ(*revealed, ephemeral.priv);

  h.mine_block();
  EXPECT_EQ(gateway.balance(h.chain), 1 * kCoin - 1000);
}

TEST_F(FairExchangeChain, RedeemWithWrongKeyRejected) {
  const Transaction offer = make_offer();
  ASSERT_TRUE(h.pool.accept(offer, h.chain.utxo(), h.chain.height() + 1).ok());
  util::Rng rng2(43);
  const crypto::RsaKeyPair wrong = crypto::rsa_generate(rng2, 512);
  const Transaction redeem = gateway.create_redeem(
      offer_outpoint(offer), offer.vout[0], wrong.priv, 1000);
  const auto accept =
      h.pool.accept(redeem, h.chain.utxo(), h.chain.height() + 1);
  EXPECT_EQ(accept.error, MempoolError::kInvalid);
  EXPECT_EQ(accept.validation.error, TxError::kScriptFailed);
}

TEST_F(FairExchangeChain, ReclaimOnlyAfterTimeout) {
  // Use a short timeout so the test can mine past it.
  const auto offer = recipient.create_key_release_offer(
      h.chain, &h.pool, ephemeral.pub, gateway.pkh(), 1 * kCoin, 1000,
      h.chain.height() + 3);
  ASSERT_TRUE(offer.has_value());
  const std::int64_t timeout = h.chain.height() + 3;
  ASSERT_TRUE(
      h.pool.accept(*offer, h.chain.utxo(), h.chain.height() + 1).ok());
  h.mine_block();  // confirm the offer

  const Transaction reclaim = recipient.create_reclaim(
      offer_outpoint(*offer), offer->vout[0], timeout, 1000);

  // Too early: consensus locktime blocks it.
  auto early = h.pool.accept(reclaim, h.chain.utxo(), h.chain.height() + 1);
  EXPECT_EQ(early.error, MempoolError::kInvalid);
  EXPECT_EQ(early.validation.error, TxError::kLocktimeNotReached);

  // Mine to the timeout; now the reclaim is valid.
  while (h.chain.height() + 1 < timeout) h.mine_block();
  const Amount before = recipient.balance(h.chain);
  auto late = h.pool.accept(reclaim, h.chain.utxo(), h.chain.height() + 1);
  ASSERT_TRUE(late.ok()) << mempool_error_name(late.error) << "/"
                         << tx_error_name(late.validation.error);
  h.mine_block();
  EXPECT_EQ(recipient.balance(h.chain), before + 1 * kCoin - 1000);
}

TEST_F(FairExchangeChain, DoubleSpendRaceResolvesExclusively) {
  // Offer confirmed, then both the gateway redeem and a malicious
  // double-spend... the offer output can only be consumed once.
  const Transaction offer = make_offer();
  ASSERT_TRUE(h.pool.accept(offer, h.chain.utxo(), h.chain.height() + 1).ok());
  h.mine_block();

  const Transaction redeem = gateway.create_redeem(
      offer_outpoint(offer), offer.vout[0], ephemeral.priv, 1000);
  ASSERT_TRUE(
      h.pool.accept(redeem, h.chain.utxo(), h.chain.height() + 1).ok());
  // A second spend of the same outpoint conflicts.
  const Transaction redeem2 = gateway.create_redeem(
      offer_outpoint(offer), offer.vout[0], ephemeral.priv, 2000);
  EXPECT_EQ(h.pool.accept(redeem2, h.chain.utxo(), h.chain.height() + 1).error,
            MempoolError::kConflict);
}

TEST(PermissionedMining, OutsiderBlocksRejected) {
  // Multichain-style "grant mine": only federation members may mine.
  ChainParams params = test_params();
  const Wallet member = Wallet::from_seed("member-miner");
  const Wallet outsider = Wallet::from_seed("outsider-miner");
  params.permitted_miners.push_back(
      util::Bytes(member.pkh().begin(), member.pkh().end()));

  Blockchain chain(params);
  Mempool pool(params);
  const Miner good(params, member.pkh());
  const Miner evil(params, outsider.pkh());

  EXPECT_EQ(chain.accept_block(good.mine(chain, pool, 1)),
            AcceptBlockResult::kConnected);
  EXPECT_EQ(chain.accept_block(evil.mine(chain, pool, 2)),
            AcceptBlockResult::kInvalid);
  EXPECT_EQ(chain.last_failure().error, BlockError::kMinerNotPermitted);
  // The member continues unhindered.
  EXPECT_EQ(chain.accept_block(good.mine(chain, pool, 3)),
            AcceptBlockResult::kConnected);
  EXPECT_EQ(chain.height(), 2);
}

TEST(PermissionedMining, OpenChainAcceptsAnyone) {
  ChainParams params = test_params();
  ASSERT_TRUE(params.permitted_miners.empty());
  const Wallet anyone = Wallet::from_seed("whoever");
  Blockchain chain(params);
  Mempool pool(params);
  const Miner miner(params, anyone.pkh());
  EXPECT_EQ(chain.accept_block(miner.mine(chain, pool, 1)),
            AcceptBlockResult::kConnected);
}

TEST(Wallet, MultiInputPaymentAggregatesCoins) {
  Harness h;
  // Several small mature coinbases; a payment larger than any single coin
  // must aggregate inputs.
  h.mine_blocks(h.params.coinbase_maturity + 4);
  const Wallet alice = Wallet::from_seed("alice");
  const Amount big = h.params.block_reward + h.params.block_reward / 2;
  const auto tx = h.miner_wallet.create_payment(h.chain, &h.pool, alice.pkh(),
                                                big, 1000);
  ASSERT_TRUE(tx.has_value());
  EXPECT_GE(tx->vin.size(), 2u);
  ASSERT_TRUE(h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1).ok());
  h.mine_block();
  EXPECT_EQ(alice.balance(h.chain), big);
}

TEST(Miner, SkipsTxWhoseInputsVanished) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const Wallet bob = Wallet::from_seed("bob");
  // Two conflicting txs; pool A holds one, pool B holds the other. After
  // the first confirms, assembling from pool B must skip the stale tx.
  const auto to_alice = h.miner_wallet.create_payment(h.chain, nullptr,
                                                      alice.pkh(), kCoin, 1000);
  const auto to_bob = h.miner_wallet.create_payment(h.chain, nullptr,
                                                    bob.pkh(), kCoin, 1000);
  ASSERT_TRUE(to_alice.has_value() && to_bob.has_value());
  Mempool pool_b(h.params);
  ASSERT_TRUE(pool_b.accept(*to_bob, h.chain.utxo(), h.chain.height() + 1).ok());
  ASSERT_TRUE(
      h.pool.accept(*to_alice, h.chain.utxo(), h.chain.height() + 1).ok());
  h.mine_block();  // confirms to_alice
  const Block stale = h.miner.mine(h.chain, pool_b, 99);
  // to_bob's inputs are gone; the block contains only the coinbase.
  EXPECT_EQ(stale.txs.size(), 1u);
  EXPECT_EQ(h.chain.accept_block(stale), AcceptBlockResult::kConnected);
}

TEST(Mempool, SelectRespectsSizeBudget) {
  Harness h;
  h.mine_blocks(h.params.coinbase_maturity + 6);
  const Wallet alice = Wallet::from_seed("alice");
  for (int i = 0; i < 5; ++i) {
    const auto tx = h.miner_wallet.create_payment(h.chain, &h.pool,
                                                  alice.pkh(), kCoin, 1000);
    ASSERT_TRUE(tx.has_value());
    ASSERT_TRUE(h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1).ok());
  }
  ASSERT_EQ(h.pool.size(), 5u);
  // A tiny budget admits at most one transaction.
  const auto one = h.pool.select_for_block(400);
  EXPECT_LE(one.size(), 1u);
  const auto all = h.pool.select_for_block(1'000'000);
  EXPECT_EQ(all.size(), 5u);
}

TEST(Blockchain, ConfirmationCountsGrow) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const auto tx = h.miner_wallet.create_payment(h.chain, &h.pool, alice.pkh(),
                                                kCoin, 1000);
  ASSERT_TRUE(tx.has_value());
  const Hash256 txid = tx->txid();
  int confs = 0;
  EXPECT_FALSE(h.chain.tx_confirmations(txid, confs));  // unconfirmed
  ASSERT_TRUE(h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1).ok());
  h.mine_block();
  ASSERT_TRUE(h.chain.tx_confirmations(txid, confs));
  EXPECT_EQ(confs, 1);
  h.mine_blocks(3);
  ASSERT_TRUE(h.chain.tx_confirmations(txid, confs));
  EXPECT_EQ(confs, 4);
}

TEST(Blockchain, ScanRecentDepthBounded) {
  Harness h;
  h.mine_blocks(6);
  int blocks_seen = 0;
  int last_height = 1 << 30;
  h.chain.scan_recent(3, [&](const Transaction&, int height) {
    // Newest first, only coinbases here: one tx per block.
    EXPECT_LE(height, last_height);
    last_height = height;
    ++blocks_seen;
  });
  EXPECT_EQ(blocks_seen, 3);
}

TEST(ChainSnapshot, ExportImportRoundTrip) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const auto tx = h.miner_wallet.create_payment(h.chain, &h.pool, alice.pkh(),
                                                2 * kCoin, 1000);
  ASSERT_TRUE(tx.has_value());
  ASSERT_TRUE(h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1).ok());
  h.mine_block();

  const Bytes snapshot = h.chain.export_chain();
  const auto restored = Blockchain::import_chain(h.params, snapshot);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->height(), h.chain.height());
  EXPECT_EQ(restored->tip_hash(), h.chain.tip_hash());
  EXPECT_EQ(restored->utxo().total_value(), h.chain.utxo().total_value());
  // Balances survive the round trip.
  EXPECT_EQ(alice.balance(*restored), 2 * kCoin);
}

TEST(ChainSnapshot, ImportRejectsTamperedBlock) {
  Harness h;
  h.fund();
  Bytes snapshot = h.chain.export_chain();
  // Flip a byte deep in the stream: some block's PoW/merkle breaks.
  snapshot[snapshot.size() / 2] ^= 0xff;
  EXPECT_FALSE(Blockchain::import_chain(h.params, snapshot).has_value());
}

TEST(ChainSnapshot, ImportRejectsGarbage) {
  const ChainParams params = test_params();
  EXPECT_FALSE(Blockchain::import_chain(params, Bytes{1, 2, 3}).has_value());
  // An empty snapshot is a valid chain of height 0.
  Blockchain fresh(params);
  const auto restored = Blockchain::import_chain(params, fresh.export_chain());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->height(), 0);
}

TEST(ChainSupply, UtxoValueNeverExceedsIssuance) {
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  for (int i = 0; i < 5; ++i) {
    const auto tx = h.miner_wallet.create_payment(h.chain, &h.pool,
                                                  alice.pkh(), kCoin, 1000);
    if (tx) {
      h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1);
    }
    h.mine_block();
    const Amount issued =
        static_cast<Amount>(h.chain.height()) * h.params.block_reward;
    EXPECT_LE(h.chain.utxo().total_value(), issued);
  }
}

// --- Signature / script-execution cache ---

TEST(SigCache, SaltedEntryNeverValidatesDifferentTriple) {
  VerifyCache cache(64);
  Hash256 digest{};
  for (std::size_t i = 0; i < digest.size(); ++i)
    digest[i] = static_cast<std::uint8_t>(i * 3 + 1);
  Bytes pubkey = str_bytes("serialized-pubkey-bytes");
  Bytes sig = str_bytes("der-encoded-signature");

  auto key_of = [&](const Hash256& d, const Bytes& pk, const Bytes& s) {
    return cache.key({util::ByteView(d.data(), d.size()),
                      util::ByteView(pk.data(), pk.size()),
                      util::ByteView(s.data(), s.size())});
  };
  const Hash256 k = key_of(digest, pubkey, sig);
  cache.insert(k);
  ASSERT_TRUE(cache.contains(k));

  // Flipping any single component of the triple must produce a key the
  // cache has never seen — a cached verdict can never be replayed for a
  // different (sighash, pubkey, sig).
  Hash256 digest2 = digest;
  digest2[0] ^= 0x01;
  EXPECT_FALSE(cache.contains(key_of(digest2, pubkey, sig)));
  Bytes pubkey2 = pubkey;
  pubkey2[0] ^= 0x01;
  EXPECT_FALSE(cache.contains(key_of(digest, pubkey2, sig)));
  Bytes sig2 = sig;
  sig2.back() ^= 0x01;
  EXPECT_FALSE(cache.contains(key_of(digest, pubkey, sig2)));

  // Length prefixes prevent concatenation ambiguity between fields.
  EXPECT_NE(cache.key({util::ByteView(pubkey.data(), 4),
                       util::ByteView(pubkey.data() + 4, 4)}),
            cache.key({util::ByteView(pubkey.data(), 5),
                       util::ByteView(pubkey.data() + 5, 3)}));

  // A different cache instance draws a different salt, so even the same
  // triple maps to an unrelated key (no cross-node cache poisoning).
  VerifyCache other(64);
  EXPECT_NE(k, other.key({util::ByteView(digest.data(), digest.size()),
                          util::ByteView(pubkey.data(), pubkey.size()),
                          util::ByteView(sig.data(), sig.size())}));
}

TEST(SigCache, BoundedEviction) {
  VerifyCache cache(32);
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    Hash256 k{};
    for (std::size_t j = 0; j < 8; ++j)
      k[j] = static_cast<std::uint8_t>(rng.next() >> (j * 8));
    k[8] = static_cast<std::uint8_t>(i);
    k[9] = static_cast<std::uint8_t>(i >> 8);
    cache.insert(k);
    EXPECT_LE(cache.size(), 32u);
  }
}

// --- Serial vs parallel block validation ---

/// Mines funding, queues `n` mempool payments, and assembles (but does not
/// connect) the next block containing them.
Block assemble_payment_block(Harness& h, int n) {
  h.fund();
  h.mine_blocks(4);  // several mature coinbases => independent inputs
  const Wallet alice = Wallet::from_seed("alice");
  for (int i = 0; i < n; ++i) {
    const auto tx = h.miner_wallet.create_payment(h.chain, &h.pool,
                                                  alice.pkh(), kCoin, 1000);
    if (!tx) break;
    h.pool.accept(*tx, h.chain.utxo(), h.chain.height() + 1);
  }
  Block block = h.miner.assemble(h.chain, h.pool, ++h.now);
  solve_pow(block.header);
  return block;
}

TEST(Validation, SerialAndParallelAgreeOnValidBlock) {
  Harness h;
  const Block block = assemble_payment_block(h, 5);
  ASSERT_GT(block.txs.size(), 3u);
  const int height = h.chain.height() + 1;

  UtxoSet serial_utxo = h.chain.utxo();
  UtxoSet parallel_utxo = h.chain.utxo();
  ChainParams serial_params = h.params;
  serial_params.script_check_threads = 0;
  ChainParams parallel_params = h.params;
  parallel_params.script_check_threads = 4;

  // Flush the caches so both paths genuinely execute every script.
  sig_cache().clear();
  script_exec_cache().clear();
  BlockUndo serial_undo;
  const auto serial = connect_block(block, serial_utxo, height,
                                    serial_params, serial_undo);
  sig_cache().clear();
  script_exec_cache().clear();
  BlockUndo parallel_undo;
  const auto parallel = connect_block(block, parallel_utxo, height,
                                      parallel_params, parallel_undo);

  ASSERT_TRUE(serial.ok()) << block_error_name(serial.error);
  ASSERT_TRUE(parallel.ok()) << block_error_name(parallel.error);
  EXPECT_EQ(serial_utxo.size(), parallel_utxo.size());
  EXPECT_EQ(serial_utxo.total_value(), parallel_utxo.total_value());
  ASSERT_EQ(serial_undo.created.size(), parallel_undo.created.size());
  for (std::size_t i = 0; i < serial_undo.created.size(); ++i)
    EXPECT_EQ(serial_undo.created[i], parallel_undo.created[i]);
  EXPECT_EQ(serial_undo.spent.size(), parallel_undo.spent.size());
}

TEST(Validation, SerialAndParallelAgreeOnBadScript) {
  Harness h;
  Block block = assemble_payment_block(h, 5);
  ASSERT_GT(block.txs.size(), 3u);
  // Corrupt the signature of a mid-block transaction, then re-commit the
  // header so only script validation can reject the block.
  Transaction& victim = block.txs[2];
  ASSERT_FALSE(victim.vin[0].script_sig.empty());
  Bytes corrupted = victim.vin[0].script_sig.bytes();
  corrupted[corrupted.size() / 2] ^= 0x01;
  victim.vin[0].script_sig = script::Script(std::move(corrupted));
  victim.invalidate_txid();
  block.header.merkle_root = compute_merkle_root(block.txs);
  solve_pow(block.header);
  const int height = h.chain.height() + 1;

  const std::size_t utxo_size_before = h.chain.utxo().size();
  const Amount utxo_value_before = h.chain.utxo().total_value();

  for (unsigned threads : {0u, 4u}) {
    UtxoSet utxo = h.chain.utxo();
    ChainParams params = h.params;
    params.script_check_threads = threads;
    sig_cache().clear();
    script_exec_cache().clear();
    BlockUndo undo;
    const auto result = connect_block(block, utxo, height, params, undo);
    EXPECT_EQ(result.error, BlockError::kBadTransaction) << threads;
    EXPECT_EQ(result.failed_tx_index, 2u) << threads;
    EXPECT_EQ(result.tx_failure.error, TxError::kScriptFailed) << threads;
    EXPECT_NE(result.tx_failure.script_error, script::ScriptError::kOk)
        << threads;
    // Failure rolls everything back.
    EXPECT_EQ(utxo.size(), utxo_size_before) << threads;
    EXPECT_EQ(utxo.total_value(), utxo_value_before) << threads;
    EXPECT_TRUE(undo.created.empty()) << threads;
    EXPECT_TRUE(undo.spent.empty()) << threads;
  }

  // Both paths agree on the exact script error too.
  UtxoSet u1 = h.chain.utxo();
  UtxoSet u2 = h.chain.utxo();
  ChainParams p1 = h.params;
  ChainParams p2 = h.params;
  p2.script_check_threads = 4;
  BlockUndo undo1;
  BlockUndo undo2;
  sig_cache().clear();
  script_exec_cache().clear();
  const auto serial = connect_block(block, u1, height, p1, undo1);
  sig_cache().clear();
  script_exec_cache().clear();
  const auto parallel = connect_block(block, u2, height, p2, undo2);
  EXPECT_EQ(serial.tx_failure.script_error, parallel.tx_failure.script_error);
  EXPECT_EQ(serial.tx_failure.fee, parallel.tx_failure.fee);
}

TEST(Validation, ColdConnectAgreesAcrossEcdsaBackends) {
  // A checkqueue-driven cold connect (caches flushed, 4 threads) under each
  // ECDSA backend: the Shamir fast path must accept exactly what the
  // reference ladder accepts and leave identical UTXO state. Under TSan
  // this also exercises the one-time precomputation-table init and the
  // per-worker ecdsa_warmup calls racing across pool threads.
  Harness h;
  const Block block = assemble_payment_block(h, 5);
  const int height = h.chain.height() + 1;

  std::optional<std::size_t> utxo_size;
  std::optional<Amount> utxo_value;
  for (const char* backend : {"reference", "shamir"}) {
    ASSERT_TRUE(crypto::ecdsa_select_backend(backend)) << backend;
    UtxoSet utxo = h.chain.utxo();
    ChainParams params = h.params;
    params.script_check_threads = 4;
    sig_cache().clear();
    script_exec_cache().clear();
    BlockUndo undo;
    const auto result = connect_block(block, utxo, height, params, undo);
    EXPECT_TRUE(result.ok()) << backend << ": " << block_error_name(result.error);
    if (!utxo_size) {
      utxo_size = utxo.size();
      utxo_value = utxo.total_value();
    } else {
      EXPECT_EQ(utxo.size(), *utxo_size) << backend;
      EXPECT_EQ(utxo.total_value(), *utxo_value) << backend;
    }
  }
  ASSERT_TRUE(crypto::ecdsa_select_backend("auto"));
}

TEST(Validation, UndoHandlesIntraBlockSpendChains) {
  // An output created AND spent by a later tx in the same block appears in
  // both undo.created and undo.spent. The trusted-replay and disconnect
  // paths must not resurrect it — a replayed node would otherwise carry
  // extra coins its peers never saw (caught live by the cluster harness:
  // fair-exchange offers redeemed in their own block leaked on restart).
  Harness h;
  h.fund();
  const Wallet alice = Wallet::from_seed("alice");
  const Wallet bob = Wallet::from_seed("bob");
  const auto pay = h.miner_wallet.create_payment(h.chain, &h.pool,
                                                 alice.pkh(), 10 * kCoin,
                                                 1000);
  ASSERT_TRUE(pay.has_value());
  ASSERT_TRUE(h.pool.accept(*pay, h.chain.utxo(), h.chain.height() + 1).ok());
  // Alice spends her unconfirmed credit in the same block.
  const auto chained = alice.create_payment(h.chain, &h.pool, bob.pkh(),
                                            4 * kCoin, 1000);
  ASSERT_TRUE(chained.has_value());
  ASSERT_TRUE(
      h.pool.accept(*chained, h.chain.utxo(), h.chain.height() + 1).ok());

  Block block = h.miner.assemble(h.chain, h.pool, ++h.now);
  solve_pow(block.header);
  ASSERT_GE(block.txs.size(), 3u);  // coinbase + pay + chained

  const UtxoSet before = h.chain.utxo();
  const int height = h.chain.height() + 1;
  UtxoSet validated = before;
  BlockUndo undo;
  ASSERT_TRUE(connect_block(block, validated, height, h.params, undo).ok());
  // Alice's 10-coin output must be gone: it was consumed intra-block.
  const OutPoint alice_out{pay->txid(), 0};
  const bool alice_has_0 =
      validated.get(OutPoint{pay->txid(), 0}).has_value() &&
      validated.get(OutPoint{pay->txid(), 0})->out.value == 10 * kCoin;
  (void)alice_out;
  EXPECT_FALSE(alice_has_0);

  // Trusted replay from the undo record must land on the identical state.
  UtxoSet replayed = before;
  apply_block_from_undo(block, undo, replayed, height);
  EXPECT_EQ(replayed.size(), validated.size());
  EXPECT_EQ(replayed.total_value(), validated.total_value());
  for (const auto& [op, coin] : [&] {
         std::vector<std::pair<OutPoint, Coin>> all;
         replayed.for_each([&](const OutPoint& op, const Coin& c) {
           all.emplace_back(op, c);
         });
         return all;
       }()) {
    const auto v = validated.get(op);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, coin);
  }

  // And disconnecting restores the pre-block state exactly.
  UtxoSet rolled = validated;
  disconnect_block(undo, rolled);
  EXPECT_EQ(rolled.size(), before.size());
  EXPECT_EQ(rolled.total_value(), before.total_value());
}

TEST(Validation, ScriptExecCacheSkipsReExecution) {
  Harness h;
  const Block block = assemble_payment_block(h, 3);
  const int height = h.chain.height() + 1;

  sig_cache().clear();
  script_exec_cache().clear();
  UtxoSet u1 = h.chain.utxo();
  BlockUndo undo1;
  ASSERT_TRUE(connect_block(block, u1, height, h.params, undo1).ok());
  const std::uint64_t misses_first = script_exec_cache().misses();
  EXPECT_GT(misses_first, 0u);

  // Re-connecting the same block (a reorg replay) hits the cache for every
  // transaction and still yields the same state.
  UtxoSet u2 = h.chain.utxo();
  BlockUndo undo2;
  ASSERT_TRUE(connect_block(block, u2, height, h.params, undo2).ok());
  EXPECT_GT(script_exec_cache().hits(), 0u);
  EXPECT_EQ(u1.size(), u2.size());
  EXPECT_EQ(u1.total_value(), u2.total_value());
}

}  // namespace
}  // namespace bcwan::chain
