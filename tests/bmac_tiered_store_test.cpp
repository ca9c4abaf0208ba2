// Tests for the §5 extension: in-hardware KV store backed by a persistent
// host database (LRU spill; host-resident keys stay on the host until
// written).
#include <gtest/gtest.h>

#include "bmac/hw_kvstore.hpp"
#include "workload/synthetic.hpp"

namespace bm::bmac {
namespace {

using fabric::Version;

TEST(TieredKvStore, EvictsLruToHostInsteadOfOverflowing) {
  fabric::StateDb host;
  HwKvStore db(3);
  db.attach_host_store(&host);

  EXPECT_TRUE(db.write("a", to_bytes("1"), Version{1, 0}));
  EXPECT_TRUE(db.write("b", to_bytes("2"), Version{1, 1}));
  EXPECT_TRUE(db.write("c", to_bytes("3"), Version{1, 2}));
  EXPECT_TRUE(db.write("d", to_bytes("4"), Version{1, 3}));  // evicts "a"

  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.evictions(), 1u);
  EXPECT_EQ(db.overflows(), 0u);
  ASSERT_TRUE(host.get("a").has_value());
  EXPECT_EQ(to_string(host.get("a")->value), "1");
}

TEST(TieredKvStore, LruOrderRespectsAccesses) {
  fabric::StateDb host;
  HwKvStore db(3);
  db.attach_host_store(&host);
  db.write("a", to_bytes("1"), Version{1, 0});
  db.write("b", to_bytes("2"), Version{1, 1});
  db.write("c", to_bytes("3"), Version{1, 2});
  // Touch "a": it becomes most recently used, so "b" is the next victim.
  EXPECT_TRUE(db.version_matches("a", Version{1, 0}));
  db.write("d", to_bytes("4"), Version{1, 3});
  EXPECT_FALSE(host.get("a").has_value());
  EXPECT_TRUE(host.get("b").has_value());
}

TEST(TieredKvStore, VersionCheckConsultsHostTier) {
  fabric::StateDb host;
  host.put("k", to_bytes("v"), Version{3, 1});
  HwKvStore db(4);
  db.attach_host_store(&host);
  EXPECT_TRUE(db.version_matches("k", Version{3, 1}));
  EXPECT_EQ(db.last_tier(), AccessTier::kHost);
  EXPECT_FALSE(db.version_matches("k", Version{3, 2}));
  EXPECT_TRUE(db.version_matches("missing-everywhere", std::nullopt));
  // The checked key stays on the host.
  EXPECT_EQ(db.size(), 0u);
  EXPECT_TRUE(host.get("k").has_value());
}

TEST(TieredKvStore, UpdateOfHostResidentKeySupersedesHostCopy) {
  fabric::StateDb host;
  host.put("k", to_bytes("old"), Version{1, 0});
  HwKvStore db(4);
  db.attach_host_store(&host);
  EXPECT_TRUE(db.write("k", to_bytes("new"), Version{2, 0}));
  EXPECT_EQ(db.last_tier(), AccessTier::kHost);  // host copy invalidated
  EXPECT_FALSE(host.get("k").has_value());
  EXPECT_EQ(to_string(db.lookup("k")->value), "new");
}

TEST(TieredKvStore, WithoutHostStoreStillOverflows) {
  HwKvStore db(2);
  EXPECT_TRUE(db.write("a", to_bytes("1"), Version{}));
  EXPECT_TRUE(db.write("b", to_bytes("2"), Version{}));
  EXPECT_FALSE(db.write("c", to_bytes("3"), Version{}));
  EXPECT_EQ(db.overflows(), 1u);
}

TEST(TieredKvStore, WorkingSetLargerThanCapacityStaysCorrect) {
  fabric::StateDb host;
  HwKvStore db(64);
  db.attach_host_store(&host);
  // Write 1000 keys (working set >> capacity), then check every version via
  // the tiered mvcc path and every value via the lookup.
  for (int i = 0; i < 1000; ++i)
    ASSERT_TRUE(db.write("k" + std::to_string(i),
                         to_bytes("v" + std::to_string(i)),
                         Version{0, static_cast<std::uint32_t>(i)}));
  EXPECT_EQ(db.size(), 64u);
  EXPECT_EQ(db.evictions(), 1000u - 64u);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_TRUE(db.version_matches(
        key, Version{0, static_cast<std::uint32_t>(i)}))
        << i;
    const auto value = db.lookup(key);
    ASSERT_TRUE(value.has_value()) << i;
    EXPECT_EQ(to_string(value->value), "v" + std::to_string(i));
  }
  // Host-resident keys were checked on the host and stayed there.
  EXPECT_EQ(db.host_accesses(), 1000u - 64u);
  EXPECT_EQ(db.size(), 64u);
  EXPECT_EQ(db.size() + host.size(), 1000u);
}

}  // namespace
}  // namespace bm::bmac
