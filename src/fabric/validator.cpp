#include "fabric/validator.hpp"

#include <algorithm>
#include <cstdlib>

#include "crypto/der.hpp"

namespace bm::fabric {

namespace {

unsigned resolve_parallelism(unsigned requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("BM_VALIDATOR_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1) return static_cast<unsigned>(v);
  }
  return 1;
}

}  // namespace

SoftwareValidator::SoftwareValidator(
    const Msp& msp, std::map<std::string, EndorsementPolicy> policies,
    unsigned parallelism)
    : msp_(msp), policies_(std::move(policies)) {
  const unsigned n = resolve_parallelism(parallelism);
  if (n > 1) pool_ = std::make_unique<ThreadPool>(n);
}

bool SoftwareValidator::verify_block_signature(const Block& block) {
  ++stats_.block_signature_checks;
  const auto cert = Certificate::unmarshal(block.metadata.orderer_cert);
  if (!cert || cert->role != Role::kOrderer || !msp_.validate(*cert))
    return false;
  const auto sig = crypto::der_decode_signature(block.metadata.orderer_sig);
  if (!sig) return false;
  if (!crypto::verify(cert->public_key, block.signing_digest(), *sig))
    return false;
  // Retrieving block data also re-checks the data hash.
  return equal(block.header.data_hash,
               crypto::digest_view(block.compute_data_hash()));
}

void SoftwareValidator::validate_range(const Block& block, std::size_t begin,
                                       std::size_t end,
                                       std::vector<ParsedTransaction>& parsed,
                                       std::vector<TxValidationCode>& flags,
                                       ValidationStats& stats) const {
  // Step 2a: transaction verification — creator identity and signature.
  // The creator's key repeats across transactions, which is what
  // crypto::verify's per-key comb tables amortize.
  std::vector<crypto::VerifyItem> creators;
  std::vector<std::size_t> creator_tx;
  for (std::size_t i = begin; i < end; ++i) {
    ++stats.envelopes_parsed;
    auto tx = parse_envelope(block.envelopes[i]);
    if (!tx) {
      flags[i] = TxValidationCode::kBadPayload;
      continue;
    }
    parsed[i] = std::move(*tx);
    flags[i] = TxValidationCode::kBadCreatorSignature;  // until it verifies
    if (!msp_.validate(parsed[i].creator)) continue;
    const auto sig = crypto::der_decode_signature(parsed[i].signature);
    if (!sig) continue;
    ++stats.creator_signature_checks;
    creators.push_back({parsed[i].creator.public_key,
                        crypto::sha256(parsed[i].payload_bytes), *sig});
    creator_tx.push_back(i);
  }
  const std::vector<bool> creator_ok = crypto::verify(creators);

  // Step 2b: vscc — verify endorsements, then evaluate the policy.
  // Fabric always verifies all endorsements, irrespective of the policy.
  std::vector<std::pair<std::size_t, const EndorsementPolicy*>> vscc_tx;
  std::vector<crypto::VerifyItem> endorsements;
  std::vector<const Certificate*> endorser;  ///< per endorsement item
  std::vector<std::size_t> endorsement_tx;   ///< per endorsement item
  for (std::size_t c = 0; c < creators.size(); ++c) {
    if (!creator_ok[c]) continue;
    const std::size_t i = creator_tx[c];
    const ParsedTransaction& tx = parsed[i];
    const auto policy_it = policies_.find(tx.chaincode_id);
    if (policy_it == policies_.end()) {
      flags[i] = TxValidationCode::kInvalidEndorserTransaction;
      continue;
    }
    vscc_tx.emplace_back(i, &policy_it->second);
    // The (chaincode, rwset) digest prefix is shared by every endorsement
    // of this transaction: hash it once and fork the midstate per
    // certificate.
    const EndorsementDigester digester(tx.chaincode_id, tx.rwset_bytes);
    for (const auto& endorsement : tx.endorsements) {
      if (!msp_.validate(endorsement.cert)) continue;
      const auto sig = crypto::der_decode_signature(endorsement.signature);
      if (!sig) continue;
      ++stats.endorsement_signature_checks;
      endorsements.push_back({endorsement.cert.public_key,
                              digester.digest(endorsement.cert_bytes), *sig});
      endorser.push_back(&endorsement.cert);
      endorsement_tx.push_back(i);
    }
  }
  const std::vector<bool> endorsement_ok = crypto::verify(endorsements);

  // The items of each transaction are contiguous and in endorsement order.
  std::size_t next = 0;
  for (const auto& [i, policy] : vscc_tx) {
    std::vector<EncodedId> valid_endorsers;
    for (; next < endorsement_tx.size() && endorsement_tx[next] == i; ++next) {
      if (!endorsement_ok[next]) continue;
      if (const auto id = msp_.encode(*endorser[next]))
        valid_endorsers.push_back(*id);
    }
    flags[i] = policy->evaluate_ids(valid_endorsers, msp_)
                   ? TxValidationCode::kValid
                   : TxValidationCode::kEndorsementPolicyFailure;
  }
}

BlockValidationResult SoftwareValidator::validate_and_commit(
    const Block& block, StateDb& db, Ledger& ledger, HistoryDb* history) {
  ++stats_.blocks_processed;
  BlockValidationResult result;
  result.flags.assign(block.tx_count(), TxValidationCode::kNotValidated);

  // Step 1: block verification. A block failing verification is rejected
  // outright — nothing is committed.
  result.block_valid = verify_block_signature(block);
  if (!result.block_valid) return result;

  // Step 2: per-transaction verification + vscc. Transactions are
  // independent here (no state access until mvcc), so with a worker pool
  // each worker runs step 2 on one contiguous range of the block. A range
  // writes only its own flags and parsed slots and its own stats, merged in
  // range order below, so every observable output is identical to the
  // sequential path.
  const std::size_t n = block.tx_count();
  std::vector<ParsedTransaction> parsed(n);
  const std::size_t ranges =
      pool_ != nullptr ? std::clamp<std::size_t>(n, 1, pool_->concurrency())
                       : 1;
  std::vector<ValidationStats> range_stats(ranges);
  const auto run_range = [&](std::size_t r) {
    validate_range(block, n * r / ranges, n * (r + 1) / ranges, parsed,
                   result.flags, range_stats[r]);
  };
  if (ranges > 1) {
    pool_->parallel_for(ranges, run_range);
  } else {
    run_range(0);
  }
  for (const ValidationStats& stats : range_stats) stats_ += stats;

  // Step 3: mvcc, walking transactions sequentially in block order as
  // Fabric does. Reads must match the committed state, and keys written by
  // an earlier valid transaction of this block invalidate later readers.
  std::map<std::string, Version> pending_writes;
  for (std::size_t i = 0; i < block.tx_count(); ++i) {
    if (result.flags[i] != TxValidationCode::kValid) continue;
    const ParsedTransaction& tx = parsed[i];
    bool conflict = false;
    for (const KVRead& read : tx.rwset.reads) {
      ++stats_.db_reads;
      const std::string key = StateDb::namespaced(tx.chaincode_id, read.key);
      if (pending_writes.count(key) != 0 ||
          !db.version_matches(KVRead{key, read.version})) {
        conflict = true;
        break;
      }
    }
    if (conflict) {
      result.flags[i] = TxValidationCode::kMvccReadConflict;
      continue;
    }
    const Version version{block.header.number, static_cast<std::uint32_t>(i)};
    for (const KVWrite& write : tx.rwset.writes)
      pending_writes[StateDb::namespaced(tx.chaincode_id, write.key)] = version;
  }

  // Step 4: commit — on this thread, like step 3; the pool never touches
  // state. The block's whole write-set goes into one batch applied in
  // transaction order, so the final state matches the equivalent sequence
  // of put() calls exactly; then the flagged block is appended to the
  // ledger.
  Block committed = block;
  committed.set_tx_flags(result.flags);
  StateDb::WriteBatch batch = db.make_batch();
  for (std::size_t i = 0; i < block.tx_count(); ++i) {
    if (result.flags[i] != TxValidationCode::kValid) continue;
    ++result.valid_tx_count;
    const ParsedTransaction& tx = parsed[i];
    const Version version{block.header.number, static_cast<std::uint32_t>(i)};
    for (const KVWrite& write : tx.rwset.writes) {
      ++stats_.db_writes;
      std::string key = StateDb::namespaced(tx.chaincode_id, write.key);
      // Step 5: history database update — on this thread, in tx order.
      if (history != nullptr) history->record(key, version);
      batch.add(std::move(key), write.value, version);
    }
  }
  db.commit_batch(std::move(batch));
  result.commit_hash = ledger.append(std::move(committed));
  return result;
}

void SoftwareValidator::publish_metrics(obs::Registry& registry,
                                        const std::string& prefix) const {
  registry.counter(prefix + "_blocks_processed_total", "blocks validated")
      .set(stats_.blocks_processed);
  registry
      .counter(prefix + "_block_signature_checks_total",
               "orderer block signature verifications")
      .set(stats_.block_signature_checks);
  registry
      .counter(prefix + "_creator_signature_checks_total",
               "transaction creator signature verifications")
      .set(stats_.creator_signature_checks);
  registry
      .counter(prefix + "_endorsement_signature_checks_total",
               "endorsement signature verifications (Fabric checks all)")
      .set(stats_.endorsement_signature_checks);
  registry.counter(prefix + "_db_reads_total", "state database reads")
      .set(stats_.db_reads);
  registry.counter(prefix + "_db_writes_total", "state database writes")
      .set(stats_.db_writes);
  registry.counter(prefix + "_envelopes_parsed_total", "envelopes unmarshaled")
      .set(stats_.envelopes_parsed);
}

}  // namespace bm::fabric
