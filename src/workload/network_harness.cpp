#include "workload/network_harness.hpp"

namespace bm::workload {

FabricNetworkHarness::FabricNetworkHarness(NetworkOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  for (int i = 1; i <= options_.orgs; ++i)
    msp_.add_org("Org" + std::to_string(i));

  chaincode_name_ = options_.chaincode == ChaincodeKind::kSmallbank
                        ? SmallbankChaincode::kName
                        : DrmChaincode::kName;
  policies_.emplace(chaincode_name_, fabric::parse_policy_or_throw(
                                         options_.policy_text,
                                         msp_.org_names()));

  for (int i = 1; i <= options_.orgs; ++i) {
    const auto* ca = msp_.find_org("Org" + std::to_string(i));
    endorsers_.push_back(
        ca->issue(fabric::Role::kPeer, 0,
                  "peer0.org" + std::to_string(i) + ".example.com"));
  }
  const auto* org1 = msp_.find_org("Org1");
  client_ = org1->issue(fabric::Role::kClient, 0, "client0.org1.example.com");
  // The rogue client holds client1's certificate but signs with an
  // unrelated key: its envelopes carry a valid identity and an invalid
  // signature (TxValidationCode::kBadCreatorSignature).
  rogue_client_ =
      org1->issue(fabric::Role::kClient, 1, "client1.org1.example.com");
  rogue_client_.key = crypto::key_from_seed(to_bytes("rogue-key"));

  const auto* orderer_org = msp_.find_org("Org1");
  orderer_ = std::make_unique<fabric::Orderer>(
      orderer_org->issue(fabric::Role::kOrderer, 0,
                         "orderer0.org1.example.com"),
      fabric::Orderer::Config{options_.block_size});

  if (options_.chaincode == ChaincodeKind::kSmallbank)
    smallbank_.emplace(options_.smallbank);
  else
    drm_.emplace(options_.drm);

  reference_validator_ =
      std::make_unique<fabric::SoftwareValidator>(msp_, policies_);

  if (options_.durability.enabled())
    durable_ = std::make_unique<fabric::DurableLedger>(options_.durability);
}

ChaincodeResult FabricNetworkHarness::execute_chaincode() {
  return smallbank_ ? smallbank_->execute(rng_, state_)
                    : drm_->execute(rng_, state_);
}

TxDraft FabricNetworkHarness::prepare_tx() {
  ChaincodeResult executed = execute_chaincode();

  TxDraft draft;
  draft.proposal.channel_id = "mychannel";
  draft.proposal.chaincode_id = chaincode_name_;
  draft.proposal.tx_id = "tx" + std::to_string(next_tx_id_++);
  draft.proposal.rwset = std::move(executed.rwset);

  if (options_.conflicting_read_rate > 0 &&
      rng_.chance(options_.conflicting_read_rate) &&
      !draft.proposal.rwset.reads.empty()) {
    // Endorsed against stale state: bump the expected version so the mvcc
    // re-read cannot match.
    auto& read = draft.proposal.rwset.reads.front();
    if (read.version) read.version->tx_num += 1;
    else read.version = fabric::Version{9999, 0};
  }

  // Endorsers named by the policy (one per principal, like the paper's
  // clients, which gather an endorsement from every org in the policy).
  for (const auto& principal : policies_.at(chaincode_name_).principals()) {
    const auto* ca = msp_.find_org(principal.org);
    if (ca == nullptr) continue;
    draft.endorsers.push_back(&endorsers_.at(ca->org_index() - 1));
  }
  if (options_.missing_endorsement_rate > 0 && draft.endorsers.size() > 1 &&
      rng_.chance(options_.missing_endorsement_rate)) {
    draft.endorsers.resize(draft.endorsers.size() -
                           (1 + rng_.uniform(draft.endorsers.size() - 1)));
  }

  const bool rogue = options_.bad_signature_rate > 0 &&
                     rng_.chance(options_.bad_signature_rate);
  draft.signer = rogue ? &rogue_client_ : &client_;
  return draft;
}

std::vector<Bytes> FabricNetworkHarness::sign_envelopes(
    std::span<const TxDraft> drafts) const {
  return fabric::build_envelopes(drafts);
}

Bytes FabricNetworkHarness::sign_envelope(const TxDraft& draft) const {
  return std::move(sign_envelopes(std::span(&draft, 1)).front());
}

std::optional<fabric::Block> FabricNetworkHarness::submit_envelope(
    Bytes envelope) {
  return orderer_->submit(std::move(envelope));
}

std::optional<fabric::Block> FabricNetworkHarness::flush_block() {
  return orderer_->flush();
}

const fabric::BlockValidationResult& FabricNetworkHarness::commit_block(
    const fabric::Block& block) {
  // Reference-commit so the endorsement state observes this block.
  const std::uint64_t height_before = ledger_.height();
  fabric::BlockValidationResult result =
      reference_validator_->validate_and_commit(block, state_, ledger_);
  // Persist exactly what the ledger accepted (a rejected block never lands
  // in the chain, so it never lands on disk either).
  if (durable_ != nullptr && ledger_.height() > height_before)
    durable_->on_commit(ledger_, state_);
  auto [it, inserted] =
      reference_results_.insert_or_assign(block.header.number,
                                          std::move(result));
  return it->second;
}

fabric::Block FabricNetworkHarness::next_block() {
  std::optional<fabric::Block> block;
  while (!block) block = submit_envelope(sign_envelope(prepare_tx()));
  commit_block(*block);
  return *block;
}

fabric::Block FabricNetworkHarness::next_tampered_block() {
  fabric::Block block = next_block();
  // Undo the reference commit's view: a tampered block is rejected by every
  // correct validator, so the reference result is "invalid block".
  if (!block.metadata.orderer_sig.empty())
    block.metadata.orderer_sig.back() ^= 0x01;
  fabric::BlockValidationResult rejected;
  rejected.block_valid = false;
  rejected.flags.assign(block.tx_count(),
                        fabric::TxValidationCode::kNotValidated);
  reference_results_[block.header.number] = rejected;
  return block;
}

}  // namespace bm::workload
