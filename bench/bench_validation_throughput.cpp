// VAL-TPUT — block-validation throughput across the pipeline ablations.
//
// The paper's Fig. 6 stall is block *verification* saturating the daemon;
// this bench measures what the three optimizations buy on connect_block:
//
//   serial_baseline            threads=1, caches off, Montgomery off,
//                              reference double-and-add ECDSA
//   parallel (thread sweep)    check-queue only
//   parallel_cache             + salted sig/script-execution caches, warmed
//                                the way production warms them (every tx was
//                                fully validated at mempool admission)
//   parallel_cache_montgomery  + Montgomery-form bignum fast path
//
// Cold-path ablation (sigcache off — every signature is verified for real,
// the first-sync / adversarial-flood regime):
//
//   cold_reference             Montgomery on, reference ECDSA ladder
//   cold_shamir                fixed-width 4x64-bit field core, wNAF
//                              recoding, Shamir's trick (u1*G + u2*Q in one
//                              pass), Jacobian coords, Fermat inversions
//   cold_shamir_t8             + 8-thread check queue
//
// plus an OP_CHECKRSA512PAIR reveal block timed with the plain full-width
// private exponent vs RSA-CRT (rsa_plain_ms / rsa_crt_ms).
//
// Every configuration connects the *same* block from the same starting UTXO
// set; the serial and parallel verdicts AND the reference-vs-fast-backend
// verdicts (including a corrupted-block rejection) are cross-checked before
// any timing is reported. Results are printed and written as JSON to
// BENCH_validation.json.
//
// BCWAN_SMOKE=1 shrinks the workload for CI sanity runs (e.g. under TSan).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bignum/montgomery.hpp"
#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "chain/miner.hpp"
#include "chain/sigcache.hpp"
#include "chain/validation.hpp"
#include "chain/wallet.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/rsa.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace bcwan;
using Clock = std::chrono::steady_clock;

chain::Transaction make_spend(const chain::Wallet& owner,
                              const chain::OutPoint& outpoint,
                              const chain::TxOut& coin,
                              const script::Script& dest_script,
                              chain::Amount fee) {
  chain::Transaction tx;
  chain::TxIn in;
  in.prevout = outpoint;
  tx.vin.push_back(std::move(in));
  chain::TxOut out;
  out.value = coin.value - fee;
  out.script_pubkey = dest_script;
  tx.vout.push_back(std::move(out));
  owner.sign_p2pkh_input(tx, 0, coin.script_pubkey);
  return tx;
}

struct ConfigResult {
  std::string name;
  unsigned threads = 1;
  bool cache = false;
  bool montgomery = false;
  std::string backend = "reference";
  double connect_ms_mean = 0.0;
};

void set_caches(bool enabled) {
  chain::sig_cache().set_enabled(enabled);
  chain::script_exec_cache().set_enabled(enabled);
  chain::sig_cache().clear();
  chain::script_exec_cache().clear();
}

}  // namespace

int main() {
  bench::print_header("VAL-TPUT", "block validation pipeline throughput");

  const bool smoke = std::getenv("BCWAN_SMOKE") != nullptr;
  const std::size_t kTxs = smoke ? 24 : 160;
  const int kReps = smoke ? 2 : 5;

  chain::ChainParams params;
  params.pow_zero_bits = 4;
  params.coinbase_maturity = 2;
  chain::Blockchain bc(params);
  chain::Mempool pool(params);
  const chain::Wallet miner_wallet = chain::Wallet::from_seed("val-miner");
  const chain::Wallet alice = chain::Wallet::from_seed("val-alice");
  const chain::Miner miner(params, miner_wallet.pkh());

  std::uint64_t now = 0;
  auto mine = [&] {
    const chain::Block block = miner.mine(bc, pool, ++now);
    bc.accept_block(block);
    pool.remove_confirmed(block);
  };
  for (int i = 0; i < 6; ++i) mine();
  for (int i = 0; i < 8; ++i) {
    const auto tx = miner_wallet.create_payment(bc, &pool, alice.pkh(),
                                                40 * chain::kCoin, 1000);
    if (tx) pool.accept(*tx, bc.utxo(), bc.height() + 1);
    mine();
  }

  // A block of fresh chained P2PKH spends (ECDSA dominates each check).
  set_caches(true);
  const script::Script alice_script = script::make_p2pkh(alice.pkh());
  chain::Mempool block_pool(params);
  std::size_t queued = 0;
  for (const auto& [outpoint, coin] : alice.spendable(bc)) {
    chain::OutPoint cursor = outpoint;
    chain::TxOut cursor_out = coin.out;
    while (queued < kTxs) {
      chain::Transaction tx =
          make_spend(alice, cursor, cursor_out, alice_script, 1000);
      cursor = chain::OutPoint{tx.txid(), 0};
      cursor_out = tx.vout[0];
      if (!block_pool.accept(tx, bc.utxo(), bc.height() + 1).ok()) break;
      ++queued;
      if (queued % 20 == 0) break;  // bounded chains; move to the next coin
    }
    if (queued >= kTxs) break;
  }
  chain::Block block = miner.assemble(bc, block_pool, ++now);
  chain::solve_pow(block.header);
  const int height = bc.height() + 1;
  std::printf("block under test: %zu transactions (%u hardware threads)\n",
              block.txs.size(), std::thread::hardware_concurrency());

  // --- Verdict equivalence gate ------------------------------------------
  bool verdicts_match = true;
  {
    set_caches(false);
    chain::ChainParams serial_p = params;
    chain::ChainParams parallel_p = params;
    parallel_p.script_check_threads = 8;

    chain::UtxoSet u1 = bc.utxo();
    chain::UtxoSet u2 = bc.utxo();
    chain::BlockUndo undo1, undo2;
    const auto r1 = chain::connect_block(block, u1, height, serial_p, undo1);
    const auto r2 = chain::connect_block(block, u2, height, parallel_p, undo2);
    verdicts_match &= r1.ok() && r2.ok() && u1.size() == u2.size() &&
                      u1.total_value() == u2.total_value();

    // Corrupt one mid-block signature: both paths must reject with the same
    // transaction index and error.
    chain::Block bad = block;
    chain::Transaction& victim = bad.txs[bad.txs.size() / 2];
    util::Bytes tampered = victim.vin[0].script_sig.bytes();
    tampered[tampered.size() / 2] ^= 0x01;
    victim.vin[0].script_sig = script::Script(std::move(tampered));
    victim.invalidate_txid();
    bad.header.merkle_root = chain::compute_merkle_root(bad.txs);
    chain::solve_pow(bad.header);
    chain::UtxoSet u3 = bc.utxo();
    chain::UtxoSet u4 = bc.utxo();
    const auto r3 = chain::connect_block(bad, u3, height, serial_p, undo1);
    const auto r4 = chain::connect_block(bad, u4, height, parallel_p, undo2);
    verdicts_match &= !r3.ok() && !r4.ok() && r3.error == r4.error &&
                      r3.failed_tx_index == r4.failed_tx_index &&
                      r3.tx_failure.error == r4.tx_failure.error &&
                      r3.tx_failure.script_error == r4.tx_failure.script_error;

    // Cross-check the ECDSA backends the same way: the Shamir fast path
    // must accept the valid block and reject the corrupted one at the same
    // transaction with the same error as the reference ladder.
    for (const char* backend : {"reference", "shamir"}) {
      if (!crypto::ecdsa_select_backend(backend)) {
        verdicts_match = false;
        break;
      }
      set_caches(false);
      chain::UtxoSet ub1 = bc.utxo();
      chain::UtxoSet ub2 = bc.utxo();
      chain::BlockUndo undo_b1, undo_b2;
      const auto rb1 = chain::connect_block(block, ub1, height, serial_p,
                                            undo_b1);
      const auto rb2 = chain::connect_block(bad, ub2, height, serial_p,
                                            undo_b2);
      verdicts_match &= rb1.ok() && !rb2.ok() && rb2.error == r3.error &&
                        rb2.failed_tx_index == r3.failed_tx_index &&
                        rb2.tx_failure.script_error ==
                            r3.tx_failure.script_error;
    }
    crypto::ecdsa_select_backend("auto");
  }
  std::printf("serial/parallel + reference/fast-backend verdicts match: %s\n\n",
              verdicts_match ? "yes" : "NO — BUG");

  // --- Timed configurations ----------------------------------------------
  auto measure = [&](const std::string& name, unsigned threads, bool cache,
                     bool montgomery, const char* backend) {
    bignum::set_montgomery_enabled(montgomery);
    crypto::ecdsa_select_backend(backend);
    set_caches(cache);
    chain::ChainParams p = params;
    p.script_check_threads = threads;
    chain::UtxoSet utxo = bc.utxo();
    chain::BlockUndo undo;
    if (cache) {
      // Production warm-up: mempool admission validated every tx once.
      chain::Mempool warm(params);
      for (std::size_t i = 1; i < block.txs.size(); ++i)
        warm.accept(block.txs[i], bc.utxo(), height);
    }
    double total_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      const auto result = chain::connect_block(block, utxo, height, p, undo);
      const auto t1 = Clock::now();
      if (!result.ok()) {
        std::printf("unexpected failure in %s\n", name.c_str());
        std::exit(1);
      }
      total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      chain::disconnect_block(undo, utxo);
    }
    ConfigResult r{name, threads, cache, montgomery, backend,
                   total_ms / kReps};
    std::printf("%-28s threads=%u cache=%d mont=%d ecdsa=%-9s : %8.2f "
                "ms/connect\n",
                r.name.c_str(), threads, cache, montgomery, backend,
                r.connect_ms_mean);
    return r;
  };

  std::vector<ConfigResult> results;
  results.push_back(measure("serial_baseline", 1, false, false, "reference"));
  // Montgomery in isolation (ECDSA field/scalar mod_mul + mod_exp): visible
  // here because the cached configs skip script execution entirely.
  results.push_back(measure("serial_montgomery", 1, false, true, "reference"));
  for (unsigned threads : {2u, 4u, 8u}) {
    results.push_back(measure("parallel_t" + std::to_string(threads), threads,
                              false, false, "reference"));
  }
  results.push_back(measure("parallel_cache", 8, true, false, "reference"));
  results.push_back(
      measure("parallel_cache_montgomery", 8, true, true, "reference"));

  // Cold-path ablation: sigcache off, so every connect verifies every
  // signature. serial_montgomery above doubles as the reference-crypto
  // datum (cold_reference repeats it under its ablation name so the
  // trio reads off one table).
  results.push_back(measure("cold_reference", 1, false, true, "reference"));
  results.push_back(measure("cold_shamir", 1, false, true, "shamir"));
  results.push_back(measure("cold_shamir_t8", 8, false, true, "shamir"));
  bignum::set_montgomery_enabled(true);
  crypto::ecdsa_select_backend("auto");
  set_caches(true);

  const double baseline = results.front().connect_ms_mean;
  double cold_connect_ms = 0.0;
  for (const ConfigResult& r : results)
    if (r.name == "cold_shamir") cold_connect_ms = r.connect_ms_mean;
  const double cold_speedup =
      cold_connect_ms > 0.0 ? baseline / cold_connect_ms : 0.0;
  double best = baseline;
  for (const ConfigResult& r : results)
    best = std::min(best, r.connect_ms_mean);
  std::printf("\nfull pipeline speedup vs serial baseline: %.1fx %s\n",
              baseline / best,
              (baseline / best >= 3.0 ? "(target >= 3x met)" : ""));
  std::printf("cold connect (sigcache off, shamir): %.2f ms, %.1fx vs serial "
              "%s\n",
              cold_connect_ms, cold_speedup,
              (cold_speedup >= 5.0 ? "(target >= 5x met)" : ""));

  // The reveal section below mines new blocks (advancing bc and spending
  // alice's coins), which invalidates `block` against the future UTXO set;
  // snapshot the current state for the telemetry passes at the end.
  const chain::UtxoSet pre_rsa_utxo = bc.utxo();

  // --- OP_CHECKRSA512PAIR reveal block: plain exponent vs RSA-CRT ---------
  // Offers are mined first; the block under test is all redeems, each of
  // which reveals a wire-format (n||e||d) private key that the verifier's
  // OP_CHECKRSA512PAIR must check against the locked public key. The CRT
  // parameters are recovered from (e, d) and cached per thread, exactly the
  // production path for on-chain reveals.
  const std::size_t kReveals = smoke ? 2 : 8;
  util::Rng rsa_rng(4242);
  std::vector<crypto::RsaKeyPair> ephemerals;
  std::vector<chain::Transaction> offers;
  const chain::Wallet gateway = chain::Wallet::from_seed("val-gateway");
  for (std::size_t i = 0; i < kReveals; ++i) {
    ephemerals.push_back(crypto::rsa_generate(rsa_rng, 512));
    const auto offer = alice.create_key_release_offer(
        bc, &pool, ephemerals.back().pub, gateway.pkh(), 1 * chain::kCoin,
        1000, bc.height() + 100);
    if (!offer) break;
    if (!pool.accept(*offer, bc.utxo(), bc.height() + 1).ok()) break;
    offers.push_back(*offer);
  }
  mine();
  chain::Mempool redeem_pool(params);
  for (std::size_t i = 0; i < offers.size(); ++i) {
    const chain::Transaction redeem = gateway.create_redeem(
        chain::OutPoint{offers[i].txid(), 0}, offers[i].vout[0],
        ephemerals[i].priv, 1000);
    redeem_pool.accept(redeem, bc.utxo(), bc.height() + 1);
  }
  chain::Block rsa_block = miner.assemble(bc, redeem_pool, ++now);
  chain::solve_pow(rsa_block.header);
  const int rsa_height = bc.height() + 1;
  const std::size_t rsa_reveal_txs = rsa_block.txs.size() - 1;

  auto measure_rsa = [&](const char* name, bool crt) {
    crypto::set_rsa_crt_enabled(crt);
    set_caches(false);
    chain::UtxoSet utxo = bc.utxo();
    chain::BlockUndo undo;
    double total_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      const auto result =
          chain::connect_block(rsa_block, utxo, rsa_height, params, undo);
      const auto t1 = Clock::now();
      if (!result.ok()) {
        std::printf("unexpected failure in %s\n", name);
        std::exit(1);
      }
      total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      chain::disconnect_block(undo, utxo);
    }
    const double mean = total_ms / kReps;
    std::printf("%-28s %zu reveals                                : %8.2f "
                "ms/connect\n",
                name, rsa_reveal_txs, mean);
    return mean;
  };
  const double rsa_plain_ms = measure_rsa("rsa_reveal_plain", false);
  const double rsa_crt_ms = measure_rsa("rsa_reveal_crt", true);
  const double rsa_crt_speedup =
      rsa_crt_ms > 0.0 ? rsa_plain_ms / rsa_crt_ms : 0.0;
  crypto::set_rsa_crt_enabled(true);
  set_caches(true);
  std::printf("rsa reveal connect: plain %.2f ms -> crt %.2f ms (%.2fx)\n",
              rsa_plain_ms, rsa_crt_ms, rsa_crt_speedup);

  std::FILE* f = std::fopen("BENCH_validation.json", "w");
  if (f != nullptr) {
    bench::JsonWriter w(f);
    w.begin_object();
    w.str("experiment", "VAL-TPUT");
    w.boolean("smoke", smoke);
    w.uint("block_txs", block.txs.size());
    w.uint("hardware_threads", std::thread::hardware_concurrency());
    w.integer("repetitions", kReps);
    w.boolean("verdicts_match", verdicts_match);
    w.num("cold_connect_ms", cold_connect_ms, "%.3f");
    w.num("cold_speedup_vs_serial", cold_speedup, "%.2f");
    w.uint("rsa_reveal_txs", rsa_reveal_txs);
    w.num("rsa_plain_ms", rsa_plain_ms, "%.3f");
    w.num("rsa_crt_ms", rsa_crt_ms, "%.3f");
    w.num("rsa_crt_speedup", rsa_crt_speedup, "%.2f");
    w.begin_array("configs");
    for (const ConfigResult& r : results) {
      w.begin_object();
      w.str("name", r.name);
      w.uint("threads", r.threads);
      w.boolean("sigcache", r.cache);
      w.boolean("montgomery", r.montgomery);
      w.str("ecdsa_backend", r.backend);
      w.num("connect_ms_mean", r.connect_ms_mean, "%.3f");
      w.num("speedup_vs_serial", baseline / r.connect_ms_mean, "%.2f");
      w.end_object();
    }
    w.end_array();
    w.uint("peak_rss_bytes", bench::peak_rss_bytes());
    w.end_object();
    w.finish();
    std::fclose(f);
    std::printf("results written to BENCH_validation.json\n");
  }

  // Telemetry snapshot — taken from one extra *untimed* connect so enabling
  // the runtime flag cannot perturb the numbers above (DESIGN.md §10).
  if (telemetry::compiled_in()) {
    telemetry::set_enabled(true);
    telemetry::registry().reset_all();
    chain::ChainParams p = params;
    p.script_check_threads = 8;
    // Two connects over warm caches so the snapshot's hit-rate gauges are
    // exercised, not vacuously zero.
    set_caches(true);
    chain::BlockValidationResult result;
    for (int pass = 0; pass < 2; ++pass) {
      // Pass 1 is cold (caches just cleared). For pass 2 the script-exec
      // cache is dropped but the sigcache kept, so scripts re-execute and
      // check_sig takes its cached path — the snapshot then shows both
      // sigverify outcome counters, not just cold_valid.
      if (pass == 1) chain::script_exec_cache().clear();
      chain::UtxoSet utxo = pre_rsa_utxo;
      chain::BlockUndo undo;
      result = chain::connect_block(block, utxo, height, p, undo);
      if (!result.ok()) break;
    }
    if (result.ok()) {
      // One reveal-block connect so the RSA/OP_CHECKRSA512PAIR path shows
      // up in the same snapshot.
      chain::UtxoSet utxo = bc.utxo();
      chain::BlockUndo undo;
      result = chain::connect_block(rsa_block, utxo, rsa_height, p, undo);
    }
    // Snapshot while still enabled: collectors write gauges at export time,
    // and those writes are no-ops once the runtime flag drops.
    if (result.ok() &&
        telemetry::write_json_snapshot("TELEMETRY_validation.json",
                                       telemetry::registry(),
                                       /*include_spans=*/false)) {
      std::printf("telemetry snapshot written to TELEMETRY_validation.json\n");
    }
    telemetry::set_enabled(false);
  }
  return verdicts_match ? 0 : 1;
}
