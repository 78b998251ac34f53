// Bit-identity contract of the packed fault-simulation kernel
// (sim/packed_ram.hpp): for every fault list, the packed BIST/BISR flow
// must agree with the scalar RamModel/BistEngine reference bit for bit —
// BistResult fields, TLB contents, and the final raw array state. These
// tests pin the contract on hand-built corner cases (coupling across rows
// 63/64, spare-row defects, TLB overflow, stacked faults on one cell,
// retention decay across a Delay, stuck-open reads of a column's latched
// value whatever word last read it) and then hammer it with randomized
// property sweeps over geometries, march tests and fault lists, one of
// them dense on words that span several 64-bit lanes. The suite runs
// under ASan/UBSan in CI, so the lane kernels also get their memory
// discipline checked.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "march/march.hpp"
#include "sim/bist.hpp"
#include "sim/fault_sim.hpp"
#include "sim/packed_ram.hpp"
#include "sim/ram_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bisram::sim {
namespace {

/// Asserts every observable of the packed run equals the scalar one.
void expect_equivalent(const RamGeometry& geo, const std::vector<Fault>& faults,
                       const BistConfig& config, const char* context) {
  SCOPED_TRACE(context);

  RamModel scalar_ram(geo);
  for (const Fault& f : faults) scalar_ram.array().inject(f);
  const BistResult want = BistEngine(scalar_ram, config).run();

  PackedRam packed_ram(geo, faults);
  const auto got = PackedBistEngine(packed_ram, config).run();
  ASSERT_TRUE(got.has_value()) << "packed kernel aborted its bulk invariant";

  EXPECT_EQ(got->pass1_clean, want.pass1_clean);
  EXPECT_EQ(got->repair_successful, want.repair_successful);
  EXPECT_EQ(got->tlb_overflow, want.tlb_overflow);
  EXPECT_EQ(got->spares_used, want.spares_used);
  EXPECT_EQ(got->passes_run, want.passes_run);
  EXPECT_EQ(got->cycles, want.cycles);
  EXPECT_EQ(got->hung, want.hung);

  // The TLB must hold the same diversions in the same slots.
  const auto& we = scalar_ram.tlb().entries();
  const auto& ge = packed_ram.tlb().entries();
  ASSERT_EQ(ge.size(), we.size());
  for (std::size_t i = 0; i < we.size(); ++i) {
    EXPECT_EQ(ge[i].addr, we[i].addr) << "TLB slot " << i;
    EXPECT_EQ(ge[i].spare, we[i].spare) << "TLB slot " << i;
  }

  // Raw cell state (spares included) must match exactly.
  for (int r = 0; r < geo.total_rows(); ++r)
    for (int c = 0; c < geo.cols(); ++c)
      ASSERT_EQ(packed_ram.peek(r, c), scalar_ram.array().peek(r, c))
          << "cell (" << r << ", " << c << ")";

  // The dispatcher must agree with both engines.
  SimKernel used = SimKernel::Auto;
  const BistResult via = run_bist(geo, faults, config, SimKernel::Auto, &used);
  EXPECT_EQ(used, SimKernel::Packed);
  EXPECT_EQ(via.pass1_clean, want.pass1_clean);
  EXPECT_EQ(via.repair_successful, want.repair_successful);
  EXPECT_EQ(via.spares_used, want.spares_used);
}

Fault cell_fault(FaultKind kind, int row, int col, bool value = false) {
  Fault f;
  f.kind = kind;
  f.victim = {row, col};
  f.value = value;
  return f;
}

Fault coupling(FaultKind kind, CellAddr aggressor, CellAddr victim,
               bool dir_rising, bool value, bool value2 = false) {
  Fault f;
  f.kind = kind;
  f.aggressor = aggressor;
  f.victim = victim;
  f.dir_rising = dir_rising;
  f.value = value;
  f.value2 = value2;
  return f;
}

TEST(PackedEquivalence, CleanArrayIsCleanOnBothKernels) {
  const RamGeometry geo{64, 4, 4, 4};
  expect_equivalent(geo, {}, BistConfig{}, "clean");
}

TEST(PackedEquivalence, SingleStuckAtEveryTest) {
  const RamGeometry geo{64, 4, 4, 4};
  const march::MarchTest* tests[] = {&march::ifa9(), &march::ifa13(),
                                     &march::mats_plus(),
                                     &march::march_c_minus()};
  for (const auto* test : tests) {
    BistConfig config;
    config.test = test;
    expect_equivalent(geo, {cell_fault(FaultKind::StuckAt0, 3, 5)}, config,
                      test->name().c_str());
    expect_equivalent(geo, {cell_fault(FaultKind::StuckAt1, 0, 0)}, config,
                      test->name().c_str());
  }
}

TEST(PackedEquivalence, TransitionFaults) {
  const RamGeometry geo{64, 4, 4, 4};
  expect_equivalent(geo, {cell_fault(FaultKind::TransitionUp, 7, 11)},
                    BistConfig{}, "TU");
  expect_equivalent(geo, {cell_fault(FaultKind::TransitionDown, 15, 2)},
                    BistConfig{}, "TD");
}

TEST(PackedEquivalence, CouplingAcrossPlaneWordBoundary) {
  // words=512, bpc=4 -> 128 rows: coupling between rows 63 and 64, the
  // middle of the array.
  const RamGeometry geo{512, 4, 4, 4};
  for (const bool rising : {false, true}) {
    expect_equivalent(
        geo, {coupling(FaultKind::CouplingIdem, {63, 5}, {64, 5}, rising, true)},
        BistConfig{}, "CFid straddling rows 63/64");
    expect_equivalent(
        geo, {coupling(FaultKind::CouplingInv, {64, 9}, {63, 9}, rising, false)},
        BistConfig{}, "CFin straddling rows 64/63");
  }
  expect_equivalent(
      geo, {coupling(FaultKind::CouplingState, {63, 0}, {64, 0}, true, true,
                     false)},
      BistConfig{}, "CFst straddling rows 63/64");
}

TEST(PackedEquivalence, SpareRowDefectsDivertedOnto) {
  // A fault in a spare row only matters once the TLB diverts a failing
  // word onto it (pass >= 2); both kernels must agree on that flow.
  const RamGeometry geo{64, 4, 4, 4};
  std::vector<Fault> faults = {
      cell_fault(FaultKind::StuckAt0, 2, 3),
      // First spare row is rows()..: geo.rows() == 16.
      cell_fault(FaultKind::StuckAt1, 16, 3),
  };
  BistConfig config;
  config.max_passes = 4;  // give the 2k-pass flow room to remap
  expect_equivalent(geo, faults, config, "spare-row defect");
}

TEST(PackedEquivalence, TlbOverflowManyFaults) {
  const RamGeometry geo{64, 4, 4, 1};  // only 4 spare words
  std::vector<Fault> faults;
  for (int r = 0; r < 8; ++r)
    faults.push_back(cell_fault(FaultKind::StuckAt1, r, r % 16));
  expect_equivalent(geo, faults, BistConfig{}, "overflow");
}

TEST(PackedEquivalence, StackedFaultsOnOneCell) {
  // Inject-order precedence: a CFst re-targeting a cell that is also
  // stuck-at must resolve identically on both kernels.
  const RamGeometry geo{64, 4, 4, 4};
  std::vector<Fault> faults = {
      cell_fault(FaultKind::StuckAt1, 5, 7),
      coupling(FaultKind::CouplingState, {5, 6}, {5, 7}, true, true, false),
      coupling(FaultKind::CouplingInv, {5, 7}, {5, 8}, false, false),
  };
  expect_equivalent(geo, faults, BistConfig{}, "stacked");
}

TEST(PackedEquivalence, SolidBackgroundsOnly) {
  const RamGeometry geo{64, 4, 4, 4};
  BistConfig config;
  config.johnson_backgrounds = false;
  expect_equivalent(geo, {cell_fault(FaultKind::TransitionUp, 9, 1)}, config,
                    "no Johnson");
  expect_equivalent(
      geo, {coupling(FaultKind::CouplingIdem, {4, 2}, {4, 3}, true, true)},
      config, "no Johnson CFid");
}

TEST(PackedEquivalence, RetentionDecaysAcrossDelayUnlessRewritten) {
  // A victim left unwritten across a Delay decays (0.1 s wait against
  // the 0.08 s threshold) and the read after it detects the decay; one
  // rewritten after the Delay is refreshed and reads back clean.
  const RamGeometry geo{64, 4, 4, 4};
  const march::MarchTest decays =
      march::MarchTest::parse("decays", "{b(w0);del;b(r0)}");
  const march::MarchTest refreshed =
      march::MarchTest::parse("refreshed", "{b(w0);del;b(w0);b(r0)}");
  for (const bool johnson : {false, true}) {
    for (const bool decay_to : {false, true}) {
      const std::vector<Fault> drf = {
          cell_fault(FaultKind::Retention, 5, 6, decay_to)};
      BistConfig config;
      config.johnson_backgrounds = johnson;
      config.test = &decays;
      // Only a decay toward the complement of a written 0 is visible in
      // the first background; Johnson backgrounds write this victim's
      // bit (bit 1) as 1 from the third background (ones = 2) on.
      const bool visible = decay_to || johnson;
      EXPECT_EQ(run_bist(geo, drf, config).pass1_clean, !visible);
      expect_equivalent(geo, drf, config, "decays");
      config.test = &refreshed;
      EXPECT_TRUE(run_bist(geo, drf, config).pass1_clean);
      expect_equivalent(geo, drf, config, "refreshed");
    }
  }
  // IFA-9's two Delays catch both decay directions.
  for (const bool decay_to : {false, true}) {
    const std::vector<Fault> drf = {
        cell_fault(FaultKind::Retention, 9, 3, decay_to)};
    EXPECT_FALSE(run_bist(geo, drf, BistConfig{}).pass1_clean);
    expect_equivalent(geo, drf, BistConfig{}, "IFA-9 DRF");
  }
}

// --- stuck-open: a read returns the column's last latched value ----------

BistConfig with_test(const march::MarchTest& test, int max_passes = 2) {
  BistConfig config;
  config.test = &test;
  config.max_passes = max_passes;
  return config;
}

TEST(PackedStuckOpen, ColumnNeighbourIsBulkSpecialOrDivertedSpare) {
  // Victim at (5, 6): word 22, bit 1, column group 2 of a 16-row array.
  const RamGeometry geo{64, 4, 4, 4};
  const Fault victim = cell_fault(FaultKind::StuckOpen, 5, 6);
  for (const march::MarchTest* test : {&march::ifa9(), &march::ifa13()}) {
    const std::string name = test->name();
    // Every other word of the victim's column group is bulk.
    expect_equivalent(geo, {victim}, with_test(*test),
                      (name + ": bulk neighbours").c_str());
    // The column group's words on either side are special: a stuck-at
    // above and a transition fault below the victim, same column.
    expect_equivalent(geo,
                      {victim, cell_fault(FaultKind::StuckAt1, 4, 6),
                       cell_fault(FaultKind::TransitionDown, 6, 6)},
                      with_test(*test),
                      (name + ": special neighbours").c_str());
  }
  // Word 1 (column group 1) fails first and is diverted to spare 0,
  // whose cells sit in group 0. The victim, bit 0 of word 3, is in group
  // 1, and the only word between them in either sweep direction is in
  // group 0: from pass 2 on, the diverted reads must latch group 0's
  // columns and leave the victim's alone.
  const RamGeometry narrow{16, 2, 2, 2};
  for (const FaultKind stuck : {FaultKind::StuckAt0, FaultKind::StuckAt1})
    for (int passes : {2, 4})
      expect_equivalent(narrow,
                        {cell_fault(FaultKind::StuckOpen, 1, 1),
                         cell_fault(stuck, 0, 3)},
                        with_test(march::ifa9(), passes), "diverted neighbour");
}

TEST(PackedStuckOpen, SpareRowVictimReachedThroughDiversion) {
  // Words 11 and 29 fail and take spares 0 and 1; spare 1 (spare row 0,
  // group 1) holds a stuck-open bit 1 at (16, 5), so pass 2 reads it.
  const RamGeometry geo{64, 4, 4, 4};
  const std::vector<Fault> faults = {
      cell_fault(FaultKind::StuckAt0, 2, 3),
      cell_fault(FaultKind::StuckAt1, 7, 9),
      cell_fault(FaultKind::StuckOpen, 16, 5),
  };
  for (const march::MarchTest* test : {&march::ifa9(), &march::ifa13()})
    for (int passes : {2, 4})
      expect_equivalent(geo, faults, with_test(*test, passes),
                        test->name().c_str());
  // bpc 1: word 0, the first of every upward sweep, fails and is diverted
  // to spare 0, whose bit 2 is stuck-open. Nothing reads column 2 before
  // it in an upward sweep, so that read returns what the bulk words after
  // it latched at the end of the previous element.
  const RamGeometry single{16, 4, 1, 2};
  for (int passes : {2, 4})
    expect_equivalent(single,
                      {cell_fault(FaultKind::StuckOpen, 16, 2),
                       cell_fault(FaultKind::StuckAt1, 0, 2)},
                      with_test(march::ifa9(), passes), "trailing bulk words");
}

TEST(PackedStuckOpen, StuckAtOnTheSameCellInBothOrders) {
  const RamGeometry geo{64, 4, 4, 4};
  for (const FaultKind stuck : {FaultKind::StuckAt0, FaultKind::StuckAt1})
    for (const march::MarchTest* test : {&march::ifa9(), &march::ifa13()}) {
      expect_equivalent(geo,
                        {cell_fault(FaultKind::StuckOpen, 3, 9),
                         cell_fault(stuck, 3, 9)},
                        with_test(*test), "stuck-open, then stuck-at");
      expect_equivalent(geo,
                        {cell_fault(stuck, 3, 9),
                         cell_fault(FaultKind::StuckOpen, 3, 9)},
                        with_test(*test), "stuck-at, then stuck-open");
    }
}

TEST(PackedStuckOpen, CouplingFlipsTheDisconnectedCell) {
  // Writes to the victim are lost, but its aggressor still flips the
  // stored bit (checked by the raw-state comparison); a CFst victim is
  // forced at read time, before or after the stale read.
  const RamGeometry geo{64, 4, 4, 4};
  const Fault open = cell_fault(FaultKind::StuckOpen, 5, 6);
  for (const bool rising : {false, true}) {
    expect_equivalent(geo,
                      {open, coupling(FaultKind::CouplingInv, {5, 5}, {5, 6},
                                      rising, false)},
                      BistConfig{}, "CFin onto a stuck-open victim");
    expect_equivalent(geo,
                      {coupling(FaultKind::CouplingIdem, {9, 6}, {5, 6},
                                rising, true),
                       open},
                      with_test(march::ifa13()),
                      "CFid onto a stuck-open victim");
  }
  expect_equivalent(geo,
                    {open, coupling(FaultKind::CouplingState, {5, 7}, {5, 6},
                                    true, true, true)},
                    with_test(march::ifa13()), "CFst after the stale read");
  expect_equivalent(geo,
                    {coupling(FaultKind::CouplingState, {5, 7}, {5, 6}, false,
                              false, true),
                     open},
                    BistConfig{}, "CFst before the stale read");
  // The stuck-open cell as an aggressor: its lost writes never flip.
  expect_equivalent(geo,
                    {open, coupling(FaultKind::CouplingInv, {5, 6}, {6, 6},
                                    true, false)},
                    BistConfig{}, "stuck-open aggressor");
}

TEST(PackedStuckOpen, SingleColumnMuxAndBothSweepDirections) {
  // bpc 1: every word shares every column, so each gap latches.
  const march::MarchTest up =
      march::MarchTest::parse("up", "{u(w0);u(r0,w1);u(r1,w0,r0);u(w1,r1)}");
  const march::MarchTest down =
      march::MarchTest::parse("down", "{d(w0);d(r0,w1);d(r1,w0,r0);d(w1,r1)}");
  for (const RamGeometry& geo :
       {RamGeometry{16, 4, 1, 2}, RamGeometry{64, 4, 4, 4}})
    for (const march::MarchTest* test :
         {&up, &down, &march::ifa9(), &march::ifa13()}) {
      const int col = geo.cols() - 1;
      expect_equivalent(geo, {cell_fault(FaultKind::StuckOpen, 0, col)},
                        with_test(*test), test->name().c_str());
      expect_equivalent(geo,
                        {cell_fault(FaultKind::StuckOpen, geo.rows() - 1, 0),
                         cell_fault(FaultKind::StuckOpen, 1, 0),
                         cell_fault(FaultKind::StuckAt1, 2, col)},
                        with_test(*test, 4), test->name().c_str());
    }
}

TEST(PackedStuckOpen, Ifa9MissesWhatIfa13Catches) {
  // IFA-9 reads each cell only after a sweep of other words has left the
  // expected value on the bit line; IFA-13's read after every write sees
  // the stale level (EXPERIMENTS.md, Section V).
  const RamGeometry geo{64, 4, 4, 4};
  const std::vector<Fault> open = {cell_fault(FaultKind::StuckOpen, 5, 6)};
  SimKernel used = SimKernel::Auto;
  EXPECT_TRUE(run_bist(geo, open, with_test(march::ifa9()), SimKernel::Packed,
                       &used)
                  .pass1_clean);
  EXPECT_EQ(used, SimKernel::Packed);
  EXPECT_FALSE(run_bist(geo, open, with_test(march::ifa13()), SimKernel::Packed,
                        &used)
                   .pass1_clean);
  EXPECT_EQ(used, SimKernel::Packed);
  expect_equivalent(geo, open, with_test(march::ifa9()), "IFA-9");
  expect_equivalent(geo, open, with_test(march::ifa13()), "IFA-13");
}

TEST(PackedDispatch, AutoPicksPackedForStuckOpen) {
  const RamGeometry geo{64, 4, 4, 4};
  SimKernel used = SimKernel::Auto;
  const BistResult got = run_bist(geo, {cell_fault(FaultKind::StuckOpen, 1, 1)},
                                  BistConfig{}, SimKernel::Auto, &used);
  EXPECT_EQ(used, SimKernel::Packed);

  RamModel ram(geo);
  ram.array().inject(cell_fault(FaultKind::StuckOpen, 1, 1));
  const BistResult want = BistEngine(ram, BistConfig{}).run();
  EXPECT_EQ(got.pass1_clean, want.pass1_clean);
  EXPECT_EQ(got.repair_successful, want.repair_successful);
}

TEST(PackedDispatch, AutoPicksPackedForOverlayFaults) {
  const RamGeometry geo{64, 4, 4, 4};
  SimKernel used = SimKernel::Auto;
  run_bist(geo, {cell_fault(FaultKind::StuckAt0, 1, 1)}, BistConfig{},
           SimKernel::Auto, &used);
  EXPECT_EQ(used, SimKernel::Packed);
}

TEST(PackedDispatch, ForcedScalarReportsScalar) {
  const RamGeometry geo{64, 4, 4, 4};
  SimKernel used = SimKernel::Auto;
  run_bist(geo, {cell_fault(FaultKind::StuckAt0, 1, 1)}, BistConfig{},
           SimKernel::Scalar, &used);
  EXPECT_EQ(used, SimKernel::Scalar);
}

// --- randomized property sweep ---------------------------------------------

TEST(PackedEquivalenceProperty, RandomGeometryRandomFaults) {
  // Geometries chosen to exercise 1-plane-word and multi-plane-word
  // columns, tall/narrow and short/wide arrays, and both spare budgets.
  const RamGeometry geometries[] = {
      {64, 4, 4, 4},    // 16 + 4 rows: single plane word
      {256, 2, 4, 2},   // 64 + 2 rows: exactly one word + spare spill
      {512, 4, 4, 4},   // 128 rows: plane-word seam in the regular array
      {128, 8, 2, 2},   // wide words
      {96, 3, 2, 1},    // odd bpw, minimal spares
  };
  const march::MarchTest* tests[] = {&march::ifa9(), &march::ifa13(),
                                     &march::mats_plus(),
                                     &march::march_c_minus()};
  const FaultKind kinds[] = {
      FaultKind::StuckAt0,     FaultKind::StuckAt1,
      FaultKind::TransitionUp, FaultKind::TransitionDown,
      FaultKind::CouplingIdem, FaultKind::CouplingInv,
      FaultKind::CouplingState, FaultKind::StuckOpen};

  Rng rng(0xb17b5eedULL);
  for (int trial = 0; trial < 120; ++trial) {
    const RamGeometry& geo = geometries[rng.below(std::size(geometries))];
    const march::MarchTest* test = tests[rng.below(std::size(tests))];
    const int nfaults = 1 + static_cast<int>(rng.below(4));

    std::vector<Fault> faults;
    for (int j = 0; j < nfaults; ++j) {
      const FaultKind kind = kinds[rng.below(std::size(kinds))];
      Fault f;
      f.kind = kind;
      // Victims may land in spare rows too — total_rows, not rows.
      f.victim = {static_cast<int>(
                      rng.below(static_cast<std::uint64_t>(geo.total_rows()))),
                  static_cast<int>(
                      rng.below(static_cast<std::uint64_t>(geo.cols())))};
      if (kind == FaultKind::CouplingIdem || kind == FaultKind::CouplingInv ||
          kind == FaultKind::CouplingState) {
        do {
          f.aggressor = {
              static_cast<int>(rng.below(
                  static_cast<std::uint64_t>(geo.total_rows()))),
              static_cast<int>(
                  rng.below(static_cast<std::uint64_t>(geo.cols())))};
        } while (f.aggressor == f.victim);
      }
      f.dir_rising = rng.chance(0.5);
      f.value = rng.chance(0.5);
      f.value2 = rng.chance(0.5);
      faults.push_back(f);
    }

    BistConfig config;
    config.test = test;
    config.johnson_backgrounds = rng.chance(0.75);
    config.max_passes = rng.chance(0.25) ? 4 : 2;
    expect_equivalent(geo, faults, config,
                      ("property trial " + std::to_string(trial)).c_str());
    if (HasFatalFailure()) return;  // one detailed failure beats 120 copies
  }
}

TEST(PackedEquivalenceProperty, MultiLaneWordsDenseFaults) {
  // Words that span several 64-bit lanes (bpw 64, 65, 128, 130) at every
  // column mux, on a few rows. Half the trials concentrate their faults
  // in one or two words (regular or spare), so intra-word coupling
  // across the lane seam, stacked faults and Retention decay inside one
  // word all meet the ascending-bit order of the overlay kernel.
  const int widths[] = {64, 65, 128, 130};
  const int muxes[] = {1, 2, 4, 8};
  const march::MarchTest* tests[] = {&march::ifa9(), &march::ifa13(),
                                     &march::mats_plus(),
                                     &march::march_c_minus()};
  const FaultKind kinds[] = {
      FaultKind::StuckAt0,      FaultKind::StuckAt1,
      FaultKind::TransitionUp,  FaultKind::TransitionDown,
      FaultKind::CouplingIdem,  FaultKind::CouplingInv,
      FaultKind::CouplingState, FaultKind::Retention,
      FaultKind::StuckOpen};

  Rng rng(0x1a9e5ea3ULL);
  for (int trial = 0; trial < 160; ++trial) {
    RamGeometry geo;
    geo.bpw = widths[rng.below(4)];
    geo.bpc = muxes[rng.below(4)];
    geo.words = static_cast<std::uint32_t>(geo.bpc) *
                static_cast<std::uint32_t>(1 + rng.below(2));
    geo.spare_rows = 1 + static_cast<int>(rng.below(2));

    // A dense trial draws every cell from one or two words: (row,
    // column group) pairs over all rows, spares included.
    const bool dense = trial % 2 == 0;
    std::vector<CellAddr> words;
    for (int w = 1 + static_cast<int>(rng.below(2)); w > 0; --w)
      words.push_back(
          {static_cast<int>(
               rng.below(static_cast<std::uint64_t>(geo.total_rows()))),
           static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.bpc)))});
    auto draw_cell = [&]() -> CellAddr {
      if (!dense)
        return {static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(geo.total_rows()))),
                static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(geo.cols())))};
      const CellAddr& w = words[rng.below(words.size())];
      const int bit =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.bpw)));
      return {w.row, bit * geo.bpc + w.col};
    };

    const int nfaults = 1 + static_cast<int>(rng.below(dense ? 8 : 4));
    std::vector<Fault> faults;
    for (int j = 0; j < nfaults; ++j) {
      Fault f;
      f.kind = kinds[rng.below(std::size(kinds))];
      f.victim = draw_cell();
      if (f.kind == FaultKind::CouplingIdem ||
          f.kind == FaultKind::CouplingInv ||
          f.kind == FaultKind::CouplingState) {
        do {
          f.aggressor = draw_cell();
        } while (f.aggressor == f.victim);
      }
      f.dir_rising = rng.chance(0.5);
      f.value = rng.chance(0.5);
      f.value2 = rng.chance(0.5);
      faults.push_back(f);
    }

    BistConfig config;
    config.test = tests[rng.below(std::size(tests))];
    config.johnson_backgrounds = rng.chance(0.5);
    config.max_passes = rng.chance(0.25) ? 4 : 2;
    expect_equivalent(geo, faults, config,
                      ("multi-lane trial " + std::to_string(trial)).c_str());
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace bisram::sim
