// Tests for the leaf-cell generators: DRC cleanliness across all three
// processes, transistor censuses, and extracted-topology checks proving
// the 6T cell really is a pair of cross-coupled inverters with pass
// gates.

#include <gtest/gtest.h>

#include "cells/leaf_cells.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/writers.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bisram::cells {
namespace {

using drc::check;
using extract::Extracted;

std::string violations_text(const std::vector<drc::Violation>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size() && i < 8; ++i)
    out += drc::describe(v[i]) + "\n";
  return out;
}

class CellsPerTech : public ::testing::TestWithParam<std::string> {
 protected:
  const Tech& tech() const { return tech::technology(GetParam()); }
};

TEST_P(CellsPerTech, SramCellIsDrcClean) {
  Library lib;
  const auto cell = sram_cell_6t(lib, tech());
  const auto v = check(*cell, tech());
  EXPECT_TRUE(v.empty()) << violations_text(v);
}

TEST_P(CellsPerTech, AllLeafCellsAreDrcClean) {
  Library lib;
  const Tech& t = tech();
  const std::vector<geom::CellPtr> cells = {
      sram_cell_6t(lib, t),        precharge_cell(lib, t, 2),
      column_mux_cell(lib, t, 2),  sense_amp_cell(lib, t, 2),
      write_driver_cell(lib, t, 2), row_decoder_cell(lib, t, 5, 2),
      dff_cell(lib, t),            counter_slice_cell(lib, t),
      johnson_slice_cell(lib, t),  cam_cell(lib, t),
      pla_cell(lib, t, true),      pla_cell(lib, t, false),
      pla_pullup_cell(lib, t),     strap_cell(lib, t, 32),
  };
  for (const auto& cell : cells) {
    const auto v = check(*cell, t);
    EXPECT_TRUE(v.empty()) << cell->name() << ":\n" << violations_text(v);
  }
}

TEST_P(CellsPerTech, TransistorCensuses) {
  Library lib;
  const Tech& t = tech();
  EXPECT_EQ(sram_cell_6t(lib, t)->transistor_census(), 6u);
  EXPECT_EQ(precharge_cell(lib, t, 1)->transistor_census(), 3u);
  EXPECT_EQ(column_mux_cell(lib, t, 1)->transistor_census(), 2u);
  EXPECT_EQ(sense_amp_cell(lib, t, 1)->transistor_census(), 5u);
  EXPECT_EQ(write_driver_cell(lib, t, 1)->transistor_census(), 4u);
  EXPECT_EQ(row_decoder_cell(lib, t, 4, 2)->transistor_census(), 10u);
  EXPECT_EQ(dff_cell(lib, t)->transistor_census(), 16u);
  EXPECT_EQ(cam_cell(lib, t)->transistor_census(), 10u);
  EXPECT_EQ(pla_cell(lib, t, true)->transistor_census(), 1u);
  EXPECT_EQ(pla_cell(lib, t, false)->transistor_census(), 0u);
  EXPECT_EQ(pla_pullup_cell(lib, t)->transistor_census(), 1u);
}

TEST_P(CellsPerTech, SramCellExtractsAsCrossCoupledPair) {
  Library lib;
  const Tech& t = tech();
  const auto cell = sram_cell_6t(lib, t);
  const Extracted ex = extract::extract(*cell, t);

  ASSERT_EQ(ex.devices.size(), 6u);
  const int bl = ex.port_net.at("bl");
  const int blb = ex.port_net.at("blb");
  const int wl = ex.port_net.at("wl");
  const int vdd = ex.port_net.at("vdd");
  const int gnd = ex.port_net.at("gnd");

  // Two NMOS pass gates on the word line.
  const auto passes = ex.gated_by(wl);
  ASSERT_EQ(passes.size(), 2u);
  for (const auto& d : passes) EXPECT_EQ(d.type, spice::MosType::Nmos);

  // Their inner terminals are the storage nodes A and B.
  auto inner = [&](const extract::Device& d, int bitline) {
    return d.source == bitline ? d.drain : d.source;
  };
  int a = -1, b = -1;
  for (const auto& d : passes) {
    if (d.source == bl || d.drain == bl) a = inner(d, bl);
    if (d.source == blb || d.drain == blb) b = inner(d, blb);
  }
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_NE(a, b);

  // Inverter driving B has input A: an NMOS B<->GND and a PMOS B<->VDD,
  // both gated by A. Symmetrically for the inverter driving A.
  auto has_pair = [&](int in, int out) {
    bool nmos_ok = false, pmos_ok = false;
    for (const auto& d : ex.gated_by(in)) {
      const bool on_out = d.source == out || d.drain == out;
      if (!on_out) continue;
      if (d.type == spice::MosType::Nmos &&
          (d.source == gnd || d.drain == gnd))
        nmos_ok = true;
      if (d.type == spice::MosType::Pmos &&
          (d.source == vdd || d.drain == vdd))
        pmos_ok = true;
    }
    return nmos_ok && pmos_ok;
  };
  EXPECT_TRUE(has_pair(a, b)) << "inverter A->B missing";
  EXPECT_TRUE(has_pair(b, a)) << "inverter B->A missing";
}

TEST_P(CellsPerTech, PrechargeTopology) {
  Library lib;
  const Tech& t = tech();
  const Extracted ex = extract::extract(*precharge_cell(lib, t, 2), t);
  ASSERT_EQ(ex.devices.size(), 3u);
  const int pcb = ex.port_net.at("pcb");
  EXPECT_EQ(ex.gated_by(pcb).size(), 3u);
  const int bl = ex.port_net.at("bl");
  const int blb = ex.port_net.at("blb");
  const int vdd = ex.port_net.at("vdd");
  EXPECT_TRUE(ex.channel_between(bl, vdd));
  EXPECT_TRUE(ex.channel_between(blb, vdd));
  EXPECT_TRUE(ex.channel_between(bl, blb));  // equalizer
}

TEST_P(CellsPerTech, ColumnMuxTopology) {
  Library lib;
  const Tech& t = tech();
  const Extracted ex = extract::extract(*column_mux_cell(lib, t, 2), t);
  ASSERT_EQ(ex.devices.size(), 2u);
  const int sel = ex.port_net.at("sel");
  EXPECT_EQ(ex.gated_by(sel).size(), 2u);
  EXPECT_TRUE(
      ex.channel_between(ex.port_net.at("bl"), ex.port_net.at("bus")));
  EXPECT_TRUE(
      ex.channel_between(ex.port_net.at("blb"), ex.port_net.at("busb")));
}

TEST_P(CellsPerTech, RowDecoderAddressFanIn) {
  Library lib;
  const Tech& t = tech();
  const int k = 5;
  const Extracted ex = extract::extract(*row_decoder_cell(lib, t, k, 2), t);
  // k series NMOS + k parallel PMOS + 2 driver devices.
  EXPECT_EQ(ex.devices.size(), static_cast<std::size_t>(2 * k + 2));
  for (int i = 0; i < k; ++i) {
    const int a = ex.port_net.at(strfmt("a%d", i));
    EXPECT_EQ(ex.gated_by(a).size(), 2u) << "a" << i;
  }
}

TEST_P(CellsPerTech, CellPitchContract) {
  Library lib;
  const Tech& t = tech();
  const auto bit = sram_cell_6t(lib, t);
  const geom::Coord pitch = geom::dbu(kCellPitchLambda);
  EXPECT_EQ(bit->bbox().width(), pitch);
  EXPECT_EQ(bit->bbox().height(), pitch);
  // Column periphery matches the cell pitch in width, with identical
  // bitline x spans so columns abut.
  for (const auto& cell :
       {precharge_cell(lib, t, 2), column_mux_cell(lib, t, 2)}) {
    EXPECT_EQ(cell->port("bl").rect.lo.x, bit->port("bl").rect.lo.x)
        << cell->name();
    EXPECT_EQ(cell->port("blb").rect.hi.x, bit->port("blb").rect.hi.x)
        << cell->name();
  }
  // Row periphery matches the cell pitch in height with the word line at
  // the same y span.
  const auto dec = row_decoder_cell(lib, t, 5, 2);
  EXPECT_EQ(dec->bbox().height(), pitch);
  EXPECT_EQ(dec->port("wl").rect.lo.y, bit->port("wl").rect.lo.y);
  EXPECT_EQ(dec->port("wl").rect.hi.y, bit->port("wl").rect.hi.y);
}

TEST_P(CellsPerTech, MiniArrayAbutsDrcClean) {
  // The make-or-break property for abutment assembly: a tiled 4x4 array
  // (rows alternating MX mirrors to share rails) stays DRC-clean.
  Library lib;
  const Tech& t = tech();
  const auto bit = sram_cell_6t(lib, t);
  const geom::Coord pitch = geom::dbu(kCellPitchLambda);
  geom::Cell array("mini_array");
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      const bool mirrored = r % 2 == 1;
      // Mirrored rows flip about their own lower edge, so their origin
      // sits at the row's top.
      const geom::Coord y = mirrored ? (r + 1) * pitch : r * pitch;
      array.add_instance(
          strfmt("b%d_%d", r, c), bit,
          geom::Transform(mirrored ? geom::Orient::MX : geom::Orient::R0,
                          {c * pitch, y}));
    }
  }
  EXPECT_EQ(array.bbox(), geom::Rect::ltrb(0, 0, 4 * pitch, 4 * pitch));
  const auto v = check(array, t);
  EXPECT_TRUE(v.empty()) << violations_text(v);
  EXPECT_EQ(array.transistor_census(), 96u);
}

INSTANTIATE_TEST_SUITE_P(AllProcesses, CellsPerTech,
                         ::testing::Values("cda.5u3m1p", "cda.7u3m1p",
                                           "mos.6u3m1pHP"));

TEST(Cells, GeneratorsAreIdempotentPerLibrary) {
  Library lib;
  const Tech& t = tech::cda_07();
  const auto a = sram_cell_6t(lib, t);
  const auto b = sram_cell_6t(lib, t);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(lib.size(), 1u);
}

TEST(Cells, SizeParameterScalesGateWidth) {
  Library lib;
  const Tech& t = tech::cda_07();
  const auto small = precharge_cell(lib, t, 1);
  const auto big = precharge_cell(lib, t, 4);
  const auto ex_small = extract::extract(*small, t);
  const auto ex_big = extract::extract(*big, t);
  EXPECT_NEAR(ex_big.devices[0].w_um / ex_small.devices[0].w_um, 4.0, 0.01);
}

TEST(Cells, RejectsOutOfRangeParameters) {
  Library lib;
  const Tech& t = tech::cda_07();
  EXPECT_THROW(precharge_cell(lib, t, 0.5), Error);
  EXPECT_THROW(row_decoder_cell(lib, t, 0, 2), Error);
  EXPECT_THROW(row_decoder_cell(lib, t, 13, 2), Error);
  EXPECT_THROW(strap_cell(lib, t, 4), Error);
}

TEST(Cells, SvgExportOfSramCellWorks) {
  Library lib;
  const auto cell = sram_cell_6t(lib, tech::cda_07());
  const std::string svg = geom::to_svg(*cell, 400);
  EXPECT_GT(svg.size(), 500u);
}

}  // namespace
}  // namespace bisram::cells
