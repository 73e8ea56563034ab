// The fault-injection facility itself must be trustworthy: deterministic
// (same plan, same corruption), correctly scoped (zero effect when
// disabled), and its stream wrappers must produce exactly the failure
// modes the persistence layer claims to survive.
#include "util/fault_injection.h"

#include <gtest/gtest.h>

#include <bit>
#include <sstream>

#include "core/label_store.h"
#include "core/thin_fat.h"
#include "gen/erdos_renyi.h"
#include "graph/io.h"
#include "util/errors.h"
#include "util/random.h"

namespace plg {
namespace {

using fault::FaultPlan;

std::vector<std::uint8_t> sample_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(FaultPlanSpec, ParsesAllKeys) {
  const FaultPlan p = FaultPlan::parse_spec(
      "seed=7,flips=3,truncate=128,short-read=4,write-fail=64,"
      "alloc-cap=1048576");
  EXPECT_EQ(p.seed, 7u);
  EXPECT_EQ(p.bit_flips, 3u);
  ASSERT_TRUE(p.truncate_at.has_value());
  EXPECT_EQ(*p.truncate_at, 128u);
  EXPECT_EQ(p.short_read_every, 4u);
  ASSERT_TRUE(p.write_fail_after.has_value());
  EXPECT_EQ(*p.write_fail_after, 64u);
  ASSERT_TRUE(p.alloc_cap.has_value());
  EXPECT_EQ(*p.alloc_cap, 1048576u);
}

TEST(FaultPlanSpec, EmptyAndPartialSpecs) {
  const FaultPlan empty = FaultPlan::parse_spec("");
  EXPECT_EQ(empty.bit_flips, 0u);
  EXPECT_FALSE(empty.truncate_at.has_value());
  const FaultPlan one = FaultPlan::parse_spec("flips=2");
  EXPECT_EQ(one.bit_flips, 2u);
}

TEST(FaultPlanSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse_spec("flips"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse_spec("bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse_spec("flips=xyz"), std::invalid_argument);
}

TEST(FaultPlanSpec, ParsesServiceKeys) {
  const FaultPlan p = FaultPlan::parse_spec(
      "seed=3,stall-every=5,stall-ms=2,shard-fail=4,query-fail=7,budget=200");
  EXPECT_EQ(p.seed, 3u);
  EXPECT_EQ(p.stall_every, 5u);
  EXPECT_EQ(p.stall_ms, 2u);
  EXPECT_EQ(p.shard_fail_every, 4u);
  EXPECT_EQ(p.query_fail_every, 7u);
  ASSERT_TRUE(p.fault_budget.has_value());
  EXPECT_EQ(*p.fault_budget, 200u);
  // Defaults: no service faults, unlimited budget.
  const FaultPlan d = FaultPlan::parse_spec("");
  EXPECT_EQ(d.stall_every, 0u);
  EXPECT_EQ(d.shard_fail_every, 0u);
  EXPECT_EQ(d.query_fail_every, 0u);
  EXPECT_FALSE(d.fault_budget.has_value());
}

TEST(CorruptBuffer, DeterministicPerSeed) {
  const auto original = sample_bytes(512, 11);
  FaultPlan plan;
  plan.seed = 42;
  plan.bit_flips = 5;
  auto a = original;
  auto b = original;
  fault::corrupt_buffer(a, plan);
  fault::corrupt_buffer(b, plan);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, original);

  plan.seed = 43;
  auto c = original;
  fault::corrupt_buffer(c, plan);
  EXPECT_NE(c, a);  // different seed, different corruption
}

TEST(CorruptBuffer, TruncationBeforeFlips) {
  auto bytes = sample_bytes(256, 13);
  FaultPlan plan;
  plan.truncate_at = 100;
  plan.bit_flips = 3;
  fault::corrupt_buffer(bytes, plan);
  EXPECT_EQ(bytes.size(), 100u);
}

TEST(CorruptBuffer, NoFaultsNoChange) {
  const auto original = sample_bytes(128, 17);
  auto copy = original;
  fault::corrupt_buffer(copy, FaultPlan{});
  EXPECT_EQ(copy, original);
}

TEST(GlobalFailpoint, DisabledByDefaultAndScoped) {
  EXPECT_FALSE(fault::enabled());
  {
    FaultPlan plan;
    plan.bit_flips = 1;
    fault::ScopedFault scope(plan);
    EXPECT_TRUE(fault::enabled());
    EXPECT_EQ(fault::active_plan().bit_flips, 1u);
  }
  EXPECT_FALSE(fault::enabled());
}

TEST(GlobalFailpoint, HooksAreNoOpsWhenDisabled) {
  auto bytes = sample_bytes(64, 19);
  const auto original = bytes;
  fault::on_read_buffer(bytes);
  EXPECT_EQ(bytes, original);
  EXPECT_FALSE(fault::should_fail_write(0));
  EXPECT_NO_THROW(
      fault::check_untrusted_alloc(std::uint64_t{1} << 60, "test"));
}

TEST(GlobalFailpoint, AllocCapThrowsDecodeError) {
  FaultPlan plan;
  plan.alloc_cap = 1024;
  fault::ScopedFault scope(plan);
  EXPECT_NO_THROW(fault::check_untrusted_alloc(1024, "test"));
  EXPECT_THROW(fault::check_untrusted_alloc(1025, "test"), DecodeError);
}

TEST(FaultInputStream, TruncatesAtPlanLimit) {
  const std::string payload(1000, 'x');
  std::istringstream source(payload);
  FaultPlan plan;
  plan.truncate_at = 137;
  fault::FaultInputStream in(source, plan);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got.size(), 137u);
  EXPECT_EQ(got, payload.substr(0, 137));
}

TEST(FaultInputStream, ShortReadsPreserveContent) {
  // Short reads slow delivery down but must not reorder or drop bytes —
  // they exercise partial-read handling, not corruption.
  const auto bytes = sample_bytes(4000, 23);
  std::string payload(bytes.begin(), bytes.end());
  std::istringstream source(payload);
  FaultPlan plan;
  plan.short_read_every = 2;
  fault::FaultInputStream in(source, plan);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, payload);
}

TEST(FaultOutputStream, FailsAfterLimitAndSinkSeesPrefixOnly) {
  std::ostringstream sink;
  FaultPlan plan;
  plan.write_fail_after = 100;
  fault::FaultOutputStream out(sink, plan);
  const std::string payload(300, 'y');
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  EXPECT_FALSE(out.good());
  EXPECT_LE(sink.str().size(), 100u);
}

TEST(FaultOutputStream, NoLimitPassesThrough) {
  std::ostringstream sink;
  fault::FaultOutputStream out(sink, FaultPlan{});
  out << "hello " << 42;
  out.flush();
  EXPECT_TRUE(out.good());
  EXPECT_EQ(sink.str(), "hello 42");
}

// --- Service-level hooks (stalls, query failures, shard admission). -----

TEST(ServiceHooks, NoOpsWhenDisabled) {
  ASSERT_FALSE(fault::enabled());
  EXPECT_EQ(fault::next_chunk_stall(), 0u);
  EXPECT_FALSE(fault::should_fail_query());
  auto blob = sample_bytes(64, 29);
  const auto original = blob;
  fault::on_shard_admission(blob.data(), blob.size());
  EXPECT_EQ(blob, original);
}

TEST(ServiceHooks, EveryKthCallFiresDeterministically) {
  fault::ScopedFault scope(
      FaultPlan::parse_spec("stall-every=2,stall-ms=7,query-fail=3"));
  // Counters reset on enable(), so the firing pattern is a pure function
  // of the call count: stalls on calls 2,4,6; query failures on 3,6.
  std::vector<std::uint32_t> stalls;
  std::vector<bool> fails;
  for (int i = 0; i < 6; ++i) {
    stalls.push_back(fault::next_chunk_stall());
    fails.push_back(fault::should_fail_query());
  }
  EXPECT_EQ(stalls, (std::vector<std::uint32_t>{0, 7, 0, 7, 0, 7}));
  EXPECT_EQ(fails, (std::vector<bool>{false, false, true, false, false, true}));
  const auto counters = fault::service_fault_counters();
  EXPECT_EQ(counters.stalls, 3u);
  EXPECT_EQ(counters.query_fails, 2u);
  EXPECT_EQ(counters.shard_fails, 0u);
  EXPECT_EQ(counters.total(), 5u);
}

TEST(ServiceHooks, BudgetCapsTotalInjectionsAcrossHooks) {
  fault::ScopedFault scope(
      FaultPlan::parse_spec("stall-every=1,stall-ms=1,query-fail=1,budget=3"));
  std::uint64_t injected = 0;
  for (int i = 0; i < 10; ++i) {
    if (fault::next_chunk_stall() != 0) ++injected;
    if (fault::should_fail_query()) ++injected;
  }
  // The budget is one shared pool: once 3 faults (of either kind) have
  // been claimed, every later would-be injection is suppressed.
  EXPECT_EQ(injected, 3u);
  EXPECT_EQ(fault::service_fault_counters().total(), 3u);
}

TEST(ServiceHooks, ShardAdmissionFlipsExactlyOneBitDeterministically) {
  const auto original = sample_bytes(256, 37);
  auto first = original;
  auto second = original;
  {
    fault::ScopedFault scope(FaultPlan::parse_spec("seed=21,shard-fail=1"));
    fault::on_shard_admission(first.data(), first.size());
  }
  {
    fault::ScopedFault scope(FaultPlan::parse_spec("seed=21,shard-fail=1"));
    fault::on_shard_admission(second.data(), second.size());
  }
  EXPECT_EQ(first, second);  // counters reset on enable => same ordinal
  std::size_t flipped_bits = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    flipped_bits += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(first[i] ^ original[i])));
  }
  // Exactly one bit: CRC-32C detects all single-bit errors, so a hooked
  // shard is guaranteed to fail its CRC check.
  EXPECT_EQ(flipped_bits, 1u);

  auto other_seed = original;
  {
    fault::ScopedFault scope(FaultPlan::parse_spec("seed=22,shard-fail=1"));
    fault::on_shard_admission(other_seed.data(), other_seed.size());
  }
  EXPECT_NE(other_seed, first);

  auto empty = std::vector<std::uint8_t>{};
  {
    fault::ScopedFault scope(FaultPlan::parse_spec("seed=21,shard-fail=1"));
    // Nothing to flip; must not crash.
    fault::on_shard_admission(empty.data(), empty.size());
  }
  EXPECT_TRUE(empty.empty());
}

// --- End-to-end: the persistence layer under the global failpoint. ------

Graph small_graph() {
  Rng rng(31);
  return erdos_renyi_gnm(60, 150, rng);
}

TEST(FailpointEndToEnd, SaveGraphDiskFullThrowsEncodeError) {
  const Graph g = small_graph();
  const std::string path = testing::TempDir() + "/plg_fault_graph.txt";
  FaultPlan plan;
  plan.write_fail_after = 32;
  fault::ScopedFault scope(plan);
  EXPECT_THROW(save_graph(path, g), EncodeError);
}

TEST(FailpointEndToEnd, LoadGraphTruncationThrowsDecodeError) {
  const Graph g = small_graph();
  const std::string path = testing::TempDir() + "/plg_fault_graph2.txt";
  save_graph(path, g);
  FaultPlan plan;
  plan.truncate_at = 40;
  fault::ScopedFault scope(plan);
  EXPECT_THROW(load_graph(path), DecodeError);
}

TEST(FailpointEndToEnd, LoadGraphShortReadsStillCorrect) {
  const Graph g = small_graph();
  const std::string path = testing::TempDir() + "/plg_fault_graph3.txt";
  save_graph(path, g);
  FaultPlan plan;
  plan.short_read_every = 3;
  fault::ScopedFault scope(plan);
  const Graph loaded = load_graph(path);
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
}

TEST(FailpointEndToEnd, LabelStoreSaveDiskFullThrowsEncodeError) {
  const auto enc = thin_fat_encode(small_graph(), 6);
  const std::string path = testing::TempDir() + "/plg_fault_store.plgl";
  FaultPlan plan;
  plan.write_fail_after = 64;
  fault::ScopedFault scope(plan);
  EXPECT_THROW(LabelStore::save_file(path, enc.labeling), EncodeError);
}

TEST(FailpointEndToEnd, LabelStoreOpenBitFlipDetected) {
  const auto enc = thin_fat_encode(small_graph(), 6);
  const std::string path = testing::TempDir() + "/plg_fault_store2.plgl";
  LabelStore::save_file(path, enc.labeling);
  FaultPlan plan;
  plan.seed = 77;
  plan.bit_flips = 1;
  fault::ScopedFault scope(plan);
  EXPECT_THROW(LabelStore::open_file(path), DecodeError);
}

TEST(FailpointEndToEnd, LabelStoreAllocCapRejectsNotAllocates) {
  const auto enc = thin_fat_encode(small_graph(), 6);
  const std::string path = testing::TempDir() + "/plg_fault_store3.plgl";
  LabelStore::save_file(path, enc.labeling);
  FaultPlan plan;
  plan.alloc_cap = 16;  // far below what the store legitimately needs
  fault::ScopedFault scope(plan);
  EXPECT_THROW(LabelStore::open_file(path), DecodeError);
}

TEST(FaultPlanSpec, ParsesMmapKeys) {
  const FaultPlan p = FaultPlan::parse_spec("seed=11,mmap-fail=3,map-flip=9");
  EXPECT_EQ(p.mmap_fail_every, 3u);
  EXPECT_EQ(p.map_flips, 9u);
  const FaultPlan d = FaultPlan::parse_spec("");
  EXPECT_EQ(d.mmap_fail_every, 0u);
  EXPECT_EQ(d.map_flips, 0u);
}

TEST(MmapHooks, NoOpsWhenDisabled) {
  ASSERT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::should_fail_mmap());
  auto span = sample_bytes(256, 31);
  const auto original = span;
  fault::on_map_region(span.data(), span.size());
  EXPECT_EQ(span, original);
}

TEST(MmapHooks, EveryKthMapFailsUnderBudget) {
  fault::ScopedFault scope(FaultPlan::parse_spec("mmap-fail=2,budget=2"));
  std::vector<bool> fails;
  for (int i = 0; i < 8; ++i) fails.push_back(fault::should_fail_mmap());
  // Fires on calls 2 and 4; the budget of 2 then suppresses calls 6, 8.
  EXPECT_EQ(fails, (std::vector<bool>{false, true, false, true, false, false,
                                      false, false}));
  EXPECT_EQ(fault::service_fault_counters().mmap_fails, 2u);
  EXPECT_EQ(fault::service_fault_counters().total(), 2u);
}

TEST(MmapHooks, MapFlipsAreAPureFunctionOfSeedAndSpan) {
  auto a = sample_bytes(512, 33);
  auto b = a;
  auto c = a;
  {
    fault::ScopedFault scope(FaultPlan::parse_spec("seed=5,map-flip=7"));
    fault::on_map_region(a.data(), a.size());
    EXPECT_EQ(fault::service_fault_counters().map_flips, 7u);
  }
  {
    // Same seed, same span size: the identical bits flip — a re-mapped
    // file must observe the same damage (determinism for the heal test).
    fault::ScopedFault scope(FaultPlan::parse_spec("seed=5,map-flip=7"));
    fault::on_map_region(b.data(), b.size());
  }
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::size_t flipped_bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    flipped_bits +=
        static_cast<std::size_t>(std::popcount(std::uint8_t(a[i] ^ c[i])));
  }
  EXPECT_LE(flipped_bits, 7u);  // flips may collide, never exceed the plan
  EXPECT_GT(flipped_bits, 0u);
}

}  // namespace
}  // namespace plg
