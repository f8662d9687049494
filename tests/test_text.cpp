#include "support/diagnostics.h"
#include "support/lru.h"
#include "support/text.h"

#include <gtest/gtest.h>

#include <memory>

namespace c2h {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"flow", "cycles"});
  t.addRow({"handelc", "12"});
  t.addRow({"bachc", "7"});
  std::string s = t.str();
  EXPECT_NE(s.find("flow     cycles"), std::string::npos);
  EXPECT_NE(s.find("handelc  12"), std::string::npos);
  EXPECT_NE(s.find("bachc    7"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.addRow({"x"});
  EXPECT_EQ(t.rowCount(), 1u);
  EXPECT_NE(t.str().find('x'), std::string::npos);
}

TEST(TextTable, RuleRendersDashes) {
  TextTable t({"col"});
  t.addRow({"v1"});
  t.addRule();
  t.addRow({"v2"});
  std::string s = t.str();
  // Header rule plus the explicit rule.
  EXPECT_GE(std::count(s.begin(), s.end(), '-'), 6);
}

TEST(FormatDouble, RespectsDigits) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
  EXPECT_EQ(formatDouble(-1.5, 1), "-1.5");
}

TEST(SplitMix64, DeterministicAcrossInstances) {
  SplitMix64 a(7), b(7);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(SplitMix64, NextBelowInRange) {
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i)
    EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Diagnostics, CountsErrorsOnly) {
  DiagnosticEngine diags;
  diags.warning({1, 1}, "w");
  diags.note({1, 2}, "n");
  EXPECT_FALSE(diags.hasErrors());
  diags.error({2, 1}, "e");
  EXPECT_TRUE(diags.hasErrors());
  EXPECT_EQ(diags.errorCount(), 1u);
  EXPECT_EQ(diags.all().size(), 3u);
}

TEST(Diagnostics, StrFormatsLocations) {
  DiagnosticEngine diags;
  diags.error({3, 7}, "bad thing");
  EXPECT_NE(diags.str().find("3:7: error: bad thing"), std::string::npos);
}

TEST(Diagnostics, ContainsSearchesMessages) {
  DiagnosticEngine diags;
  diags.error({1, 1}, "pointers are not supported");
  EXPECT_TRUE(diags.contains("pointers"));
  EXPECT_FALSE(diags.contains("recursion"));
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine diags;
  diags.error({1, 1}, "x");
  diags.clear();
  EXPECT_FALSE(diags.hasErrors());
  EXPECT_TRUE(diags.all().empty());
}

TEST(SourceLoc, InvalidPrintsPlaceholder) {
  EXPECT_EQ(SourceLoc{}.str(), "<no-loc>");
  EXPECT_EQ((SourceLoc{4, 2}).str(), "4:2");
}

using support::LruCache;
using namespace std::string_literals;

TEST(LruCache, FindMakesAnEntryMostRecent) {
  LruCache<int> cache(2);
  cache.insert("a"s, 1, 1);
  cache.insert("b"s, 2, 1);
  ASSERT_NE(cache.find("a"s), nullptr); // "b" is now least recent
  cache.insert("c"s, 3, 1);
  EXPECT_TRUE(cache.contains("a"s));
  EXPECT_FALSE(cache.contains("b"s));
  EXPECT_TRUE(cache.contains("c"s));
  EXPECT_EQ(*cache.find("a"s), 1);
  EXPECT_EQ(cache.find("b"s), nullptr);
  support::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(LruCache, ContainsNeitherTouchesNorCounts) {
  LruCache<int> cache(2);
  cache.insert("a"s, 1, 1);
  cache.insert("b"s, 2, 1);
  EXPECT_TRUE(cache.contains("a"s)); // "a" stays least recent
  EXPECT_FALSE(cache.contains("z"s));
  cache.insert("c"s, 3, 1);
  EXPECT_FALSE(cache.contains("a"s));
  EXPECT_TRUE(cache.contains("b"s));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(LruCache, CostCapEvictsLeastRecentFirst) {
  LruCache<std::string> cache(100);
  cache.insert("a"s, "A", 40);
  cache.insert("b"s, "B", 40);
  cache.insert("c"s, "C", 10);
  EXPECT_EQ(cache.stats().size, 90u);
  // 60 more must displace "a" and then "b", the two least recent.
  cache.insert("d"s, "D", 60);
  EXPECT_FALSE(cache.contains("a"s));
  EXPECT_FALSE(cache.contains("b"s));
  EXPECT_TRUE(cache.contains("c"s));
  EXPECT_TRUE(cache.contains("d"s));
  support::CacheStats s = cache.stats();
  EXPECT_EQ(s.size, 70u);
  EXPECT_EQ(s.evictions, 2u);
  // An entry costlier than the whole cap is admitted and evicted at once.
  cache.insert("huge"s, "H", 101);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(LruCache, ReplacingAKeyKeepsSizeExact) {
  LruCache<std::string> cache(100);
  cache.insert("a"s, "old", 30);
  cache.insert("b"s, "B", 30);
  cache.insert("a"s, "new", 50); // replaced in place, now most recent
  support::CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.size, 80u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(*cache.find("a"s), "new");
  cache.insert("c"s, "C", 30); // "b" is the least recent
  EXPECT_FALSE(cache.contains("b"s));
  EXPECT_EQ(cache.stats().size, 80u);
}

TEST(LruCache, CapacityZeroIsUnbounded) {
  LruCache<int> cache;
  for (int i = 0; i < 100; ++i)
    cache.insert(std::to_string(i), i, 1u << 20);
  support::CacheStats s = cache.stats();
  EXPECT_EQ(s.capacity, 0u);
  EXPECT_EQ(s.entries, 100u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.size, 100u << 20);
}

TEST(LruCache, ShrinkingEvictsAtOnce) {
  LruCache<int> cache;
  cache.insert("a"s, 1, 10);
  cache.insert("b"s, 2, 10);
  cache.insert("c"s, 3, 10);
  cache.setCapacity(15);
  support::CacheStats s = cache.stats();
  EXPECT_EQ(s.capacity, 15u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.size, 10u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_TRUE(cache.contains("c"s));
}

TEST(LruCache, EvictedSharedValueStaysValidForItsHolder) {
  LruCache<std::shared_ptr<std::string>> cache(1);
  cache.insert("a"s, std::make_shared<std::string>("payload"), 1);
  std::shared_ptr<std::string> held = *cache.find("a"s);
  cache.insert("b"s, std::make_shared<std::string>("other"), 1);
  EXPECT_FALSE(cache.contains("a"s));
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, "payload");
  EXPECT_EQ(held.use_count(), 1);
}

} // namespace
} // namespace c2h
