#include "workload/chaincode.hpp"

namespace bm::workload {

namespace {

/// Read a key from committed state, recording the observed version (or
/// absence) into the read set — exactly what the endorser's GetState does.
void read_key(const fabric::StateDb& state, fabric::ReadWriteSet& rwset,
              const std::string& namespaced_key, const std::string& key) {
  fabric::KVRead read;
  read.key = key;
  if (const auto value = state.get(namespaced_key))
    read.version = value->version;
  rwset.reads.push_back(std::move(read));
}

Bytes amount_bytes(std::int64_t amount) {
  return to_bytes(std::to_string(amount));
}

}  // namespace

// --- smallbank ---------------------------------------------------------------

ChaincodeResult SmallbankChaincode::execute(
    Rng& rng, const fabric::StateDb& state) const {
  switch (rng.uniform(6)) {
    case 0: return create_account(rng, state);
    case 1: return transact_savings(rng, state);
    case 2: return deposit_checking(rng, state);
    case 3: return send_payment(rng, state);
    case 4: return amalgamate(rng, state);
    default: return write_check(rng, state);
  }
}

double SmallbankChaincode::avg_reads() const {
  // create(0r) savings(1r) deposit(1r) payment(2r) amalgamate(2r) check(1r)
  return (0 + 1 + 1 + 2 + 2 + 1) / 6.0;
}

double SmallbankChaincode::avg_writes() const {
  // create(2w) savings(1w) deposit(1w) payment(2w) amalgamate(2w) check(1w)
  return (2 + 1 + 1 + 2 + 2 + 1) / 6.0;
}

std::uint64_t SmallbankChaincode::pick_account(Rng& rng) const {
  return account_pick_.sample(rng);
}

namespace {
std::string account_key(const char* table, std::uint64_t id) {
  return std::string(table) + "_" + std::to_string(id);
}
}  // namespace

ChaincodeResult SmallbankChaincode::create_account(
    Rng& rng, const fabric::StateDb&) const {
  const std::uint64_t id = pick_account(rng);
  ChaincodeResult result{"create_account", {}};
  result.rwset.writes.push_back(
      {account_key("savings", id), amount_bytes(1000)});
  result.rwset.writes.push_back(
      {account_key("checking", id), amount_bytes(50)});
  return result;
}

ChaincodeResult SmallbankChaincode::transact_savings(
    Rng& rng, const fabric::StateDb& state) const {
  const std::uint64_t id = pick_account(rng);
  const std::string key = account_key("savings", id);
  ChaincodeResult result{"transact_savings", {}};
  read_key(state, result.rwset, fabric::StateDb::namespaced(kName, key), key);
  result.rwset.writes.push_back(
      {key, amount_bytes(rng.uniform_range(1, 500))});
  return result;
}

ChaincodeResult SmallbankChaincode::deposit_checking(
    Rng& rng, const fabric::StateDb& state) const {
  const std::uint64_t id = pick_account(rng);
  const std::string key = account_key("checking", id);
  ChaincodeResult result{"deposit_checking", {}};
  read_key(state, result.rwset, fabric::StateDb::namespaced(kName, key), key);
  result.rwset.writes.push_back(
      {key, amount_bytes(rng.uniform_range(1, 200))});
  return result;
}

ChaincodeResult SmallbankChaincode::send_payment(
    Rng& rng, const fabric::StateDb& state) const {
  const std::uint64_t src = pick_account(rng);
  std::uint64_t dst = pick_account(rng);
  if (dst == src) dst = (dst + 1) % config_.accounts;
  const std::string src_key = account_key("checking", src);
  const std::string dst_key = account_key("checking", dst);
  ChaincodeResult result{"send_payment", {}};
  read_key(state, result.rwset, fabric::StateDb::namespaced(kName, src_key),
           src_key);
  read_key(state, result.rwset, fabric::StateDb::namespaced(kName, dst_key),
           dst_key);
  const std::int64_t amount = rng.uniform_range(1, 100);
  result.rwset.writes.push_back({src_key, amount_bytes(1000 - amount)});
  result.rwset.writes.push_back({dst_key, amount_bytes(1000 + amount)});
  return result;
}

ChaincodeResult SmallbankChaincode::amalgamate(
    Rng& rng, const fabric::StateDb& state) const {
  const std::uint64_t id = pick_account(rng);
  const std::string savings = account_key("savings", id);
  const std::string checking = account_key("checking", id);
  ChaincodeResult result{"amalgamate", {}};
  read_key(state, result.rwset, fabric::StateDb::namespaced(kName, savings),
           savings);
  read_key(state, result.rwset, fabric::StateDb::namespaced(kName, checking),
           checking);
  result.rwset.writes.push_back({savings, amount_bytes(0)});
  result.rwset.writes.push_back({checking, amount_bytes(2000)});
  return result;
}

ChaincodeResult SmallbankChaincode::write_check(
    Rng& rng, const fabric::StateDb& state) const {
  const std::uint64_t id = pick_account(rng);
  const std::string key = account_key("checking", id);
  ChaincodeResult result{"write_check", {}};
  read_key(state, result.rwset, fabric::StateDb::namespaced(kName, key), key);
  result.rwset.writes.push_back(
      {key, amount_bytes(rng.uniform_range(-100, 100))});
  return result;
}

// --- drm ----------------------------------------------------------------------

ChaincodeResult DrmChaincode::execute(Rng& rng,
                                      const fabric::StateDb& state) const {
  switch (rng.uniform(3)) {
    case 0: return create_asset(rng, state);
    case 1: return update_asset(rng, state);
    default: return transfer_rights(rng, state);
  }
}

double DrmChaincode::avg_reads() const { return (0 + 1 + 1) / 3.0; }
double DrmChaincode::avg_writes() const { return (1 + 1 + 1) / 3.0; }

ChaincodeResult DrmChaincode::create_asset(Rng& rng,
                                           const fabric::StateDb&) const {
  const std::uint64_t id = rng.uniform(config_.assets);
  ChaincodeResult result{"create_asset", {}};
  result.rwset.writes.push_back(
      {"asset_" + std::to_string(id), to_bytes("owner0|rights:full")});
  return result;
}

ChaincodeResult DrmChaincode::update_asset(Rng& rng,
                                           const fabric::StateDb& state) const {
  const std::uint64_t id = rng.uniform(config_.assets);
  const std::string key = "asset_" + std::to_string(id);
  ChaincodeResult result{"update_asset", {}};
  read_key(state, result.rwset, fabric::StateDb::namespaced(kName, key), key);
  result.rwset.writes.push_back(
      {key, to_bytes("owner0|rights:updated" +
                     std::to_string(rng.uniform(1000)))});
  return result;
}

ChaincodeResult DrmChaincode::transfer_rights(
    Rng& rng, const fabric::StateDb& state) const {
  const std::uint64_t id = rng.uniform(config_.assets);
  const std::string key = "asset_" + std::to_string(id);
  ChaincodeResult result{"transfer_rights", {}};
  read_key(state, result.rwset, fabric::StateDb::namespaced(kName, key), key);
  result.rwset.writes.push_back(
      {key, to_bytes("owner" + std::to_string(rng.uniform(16)) +
                     "|rights:transferred")});
  return result;
}

}  // namespace bm::workload
