// Tests for the fault-injectable array and the BISR datapath components
// (TLB, ADDGEN, DATAGEN).

#include <gtest/gtest.h>

#include "sim/faults.hpp"
#include "sim/generators.hpp"
#include "sim/tlb.hpp"
#include "util/error.hpp"

namespace bisram::sim {
namespace {

TEST(FaultyArray, FaultFreeReadsBack) {
  FaultyArray a(4, 4);
  a.write(1, 2, true);
  EXPECT_TRUE(a.read(1, 2));
  a.write(1, 2, false);
  EXPECT_FALSE(a.read(1, 2));
}

TEST(FaultyArray, StuckAtFaults) {
  FaultyArray a(4, 4);
  a.inject({FaultKind::StuckAt0, {0, 0}, {}, true, false, false});
  a.inject({FaultKind::StuckAt1, {1, 1}, {}, true, false, false});
  a.write(0, 0, true);
  EXPECT_FALSE(a.read(0, 0));
  a.write(1, 1, false);
  EXPECT_TRUE(a.read(1, 1));
}

TEST(FaultyArray, TransitionFaults) {
  FaultyArray a(2, 2);
  a.inject({FaultKind::TransitionUp, {0, 0}, {}, true, false, false});
  a.write(0, 0, true);  // cannot rise
  EXPECT_FALSE(a.read(0, 0));
  a.poke(0, 0, true);
  a.write(0, 0, false);  // falling is fine
  EXPECT_FALSE(a.read(0, 0));

  a.inject({FaultKind::TransitionDown, {1, 1}, {}, true, false, false});
  a.poke(1, 1, true);
  a.write(1, 1, false);  // cannot fall
  EXPECT_TRUE(a.read(1, 1));
  a.poke(1, 1, false);
  a.write(1, 1, true);  // rising is fine
  EXPECT_TRUE(a.read(1, 1));
}

TEST(FaultyArray, CouplingIdempotent) {
  FaultyArray a(2, 2);
  // Aggressor (0,0) rising forces victim (0,1) to 1.
  a.inject({FaultKind::CouplingIdem, {0, 1}, {0, 0}, true, true, false});
  a.write(0, 1, false);
  a.write(0, 0, false);
  a.write(0, 0, true);  // rising transition
  EXPECT_TRUE(a.read(0, 1));
  // Falling transition does not trigger.
  a.write(0, 1, false);
  a.write(0, 0, false);
  EXPECT_FALSE(a.read(0, 1));
}

TEST(FaultyArray, CouplingInversion) {
  FaultyArray a(2, 2);
  a.inject({FaultKind::CouplingInv, {0, 1}, {0, 0}, true, false, false});
  a.write(0, 1, true);
  a.write(0, 0, false);
  a.write(0, 0, true);  // rising inverts victim
  EXPECT_FALSE(a.read(0, 1));
  a.write(0, 0, false);
  a.write(0, 0, true);  // inverts again
  EXPECT_TRUE(a.read(0, 1));
}

TEST(FaultyArray, CouplingState) {
  FaultyArray a(2, 2);
  // While aggressor is written to 1, victim is forced to 0.
  a.inject({FaultKind::CouplingState, {0, 1}, {0, 0}, true, true, false});
  a.write(0, 1, true);
  a.write(0, 0, true);
  EXPECT_FALSE(a.read(0, 1));
  // Writing aggressor to 0 leaves victim alone.
  a.write(0, 1, true);
  a.write(0, 0, false);
  EXPECT_TRUE(a.read(0, 1));
}

TEST(FaultyArray, StuckOpenReturnsStaleColumnValue) {
  FaultyArray a(4, 2);
  a.inject({FaultKind::StuckOpen, {2, 0}, {}, true, false, false});
  a.write(2, 0, true);  // lost: cell disconnected
  a.write(0, 0, false);
  EXPECT_FALSE(a.read(0, 0));  // column 0 last sense = 0
  EXPECT_FALSE(a.read(2, 0));  // reads the stale 0, not the written 1
  a.write(1, 0, true);
  EXPECT_TRUE(a.read(1, 0));   // column 0 last sense = 1
  EXPECT_TRUE(a.read(2, 0));   // now reads stale 1
}

TEST(FaultyArray, RetentionDecaysAfterThreshold) {
  FaultyArray a(2, 2);
  a.inject({FaultKind::Retention, {0, 0}, {}, true, false, false});  // decays to 0
  a.write(0, 0, true);
  EXPECT_TRUE(a.read(0, 0));  // immediately fine
  a.elapse(0.02);
  EXPECT_TRUE(a.read(0, 0));  // under threshold
  a.elapse(kRetentionThresholdS);
  EXPECT_FALSE(a.read(0, 0));  // decayed
}

TEST(FaultyArray, RetentionRefreshedByWrite) {
  FaultyArray a(2, 2);
  a.inject({FaultKind::Retention, {0, 0}, {}, true, true, false});  // decays to 1
  const double half = kRetentionThresholdS * 0.6;
  a.write(0, 0, false);
  a.elapse(half);
  a.write(0, 0, false);  // refresh
  a.elapse(half);
  EXPECT_FALSE(a.read(0, 0));  // past the threshold since the first write,
                               // not since the refresh
  a.elapse(half);
  EXPECT_TRUE(a.read(0, 0));
}

TEST(FaultyArray, RejectsBadFaults) {
  FaultyArray a(2, 2);
  EXPECT_THROW(a.inject({FaultKind::StuckAt0, {5, 0}, {}, true, false, false}),
               Error);
  EXPECT_THROW(
      a.inject({FaultKind::CouplingInv, {0, 0}, {0, 0}, true, false, false}),
      Error);
  EXPECT_THROW(FaultyArray(0, 4), Error);
}

TEST(FaultyArray, ClearFaultsRestoresHealth) {
  FaultyArray a(2, 2);
  a.inject({FaultKind::StuckAt0, {0, 0}, {}, true, false, false});
  a.clear_faults();
  EXPECT_EQ(a.fault_count(), 0u);
  a.write(0, 0, true);
  EXPECT_TRUE(a.read(0, 0));
}

TEST(Tlb, StrictlyIncreasingAssignment) {
  Tlb tlb(4);
  EXPECT_EQ(tlb.record(100), 0);
  EXPECT_EQ(tlb.record(200), 1);
  EXPECT_EQ(tlb.record(300), 2);
  EXPECT_EQ(tlb.lookup(200), 1);
  EXPECT_FALSE(tlb.lookup(999).has_value());
}

TEST(Tlb, DedupsWithoutForceNew) {
  Tlb tlb(4);
  tlb.record(100);
  EXPECT_EQ(tlb.record(100), 0);  // same spare, no new entry
  EXPECT_EQ(tlb.used(), 1);
}

TEST(Tlb, ForceNewSupersedesOldMapping) {
  // The 2k-pass mechanism: a faulty spare's address earns a newer entry.
  Tlb tlb(4);
  tlb.record(100);
  tlb.record(200);
  const auto remap = tlb.record(100, /*force_new=*/true);
  EXPECT_EQ(remap, 2);
  EXPECT_EQ(tlb.lookup(100), 2);  // newest entry wins
  EXPECT_EQ(tlb.lookup(200), 1);
}

TEST(Tlb, OverflowReturnsNullopt) {
  Tlb tlb(2);
  tlb.record(1);
  tlb.record(2);
  EXPECT_FALSE(tlb.record(3).has_value());
  EXPECT_TRUE(tlb.full());
  EXPECT_THROW(Tlb(0), Error);
}

TEST(AddGen, UpSweep) {
  AddGen g(4);
  g.reset(true);
  std::vector<std::uint32_t> seq;
  for (;;) {
    seq.push_back(g.address());
    if (g.at_last()) break;
    g.step();
  }
  EXPECT_EQ(seq, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(AddGen, DownSweep) {
  AddGen g(4);
  g.reset(false);
  std::vector<std::uint32_t> seq;
  for (;;) {
    seq.push_back(g.address());
    if (g.at_last()) break;
    g.step();
  }
  EXPECT_EQ(seq, (std::vector<std::uint32_t>{3, 2, 1, 0}));
}

TEST(AddGen, DoneAfterLast) {
  AddGen g(2);
  g.reset(true);
  g.step();
  EXPECT_TRUE(g.at_last());
  EXPECT_FALSE(g.done());
  g.step();
  EXPECT_TRUE(g.done());
}

TEST(DataGen, JohnsonSequence) {
  DataGen d(4);
  d.reset();
  EXPECT_EQ(d.word(false), (std::vector<bool>{false, false, false, false}));
  EXPECT_TRUE(d.step());
  EXPECT_EQ(d.word(false), (std::vector<bool>{true, false, false, false}));
  d.step();
  d.step();
  d.step();
  EXPECT_TRUE(d.at_last());
  EXPECT_EQ(d.word(false), (std::vector<bool>{true, true, true, true}));
  EXPECT_FALSE(d.step());  // saturates
  EXPECT_EQ(d.background_count(), 5);
}

TEST(DataGen, ComplementAndMismatch) {
  DataGen d(4);
  d.reset();
  d.step();  // background 1000
  EXPECT_EQ(d.word(true), (std::vector<bool>{false, true, true, true}));
  EXPECT_FALSE(d.mismatch({true, false, false, false}, false));
  EXPECT_TRUE(d.mismatch({true, false, false, true}, false));
  EXPECT_FALSE(d.mismatch({false, true, true, true}, true));
}

}  // namespace
}  // namespace bisram::sim
