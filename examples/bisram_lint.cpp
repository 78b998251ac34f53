// bisram_lint: unified static signoff for a generated BISR RAM.
//
// Runs every static check the tool has on one spec — microprogram
// verification of the generated TRPLA (reachability, determinism,
// hang-freedom with a derived watchdog budget), optionally the
// per-crosspoint static fault classification, DRC on the assembled
// layout, ERC/LVS on the instantiated leaf cells, and the exact march
// coverage analysis — and prints one aggregated verdict.
//
// All flags are declared through util/cli.hpp (run with --help for the
// generated option table).
//
// Exit status: 0 when the signoff is clean, 1 when any check found a
// problem, 2 on a bad invocation or invalid spec.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "tech/tech_file.hpp"
#include "util/cli.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "verify/signoff.hpp"

using namespace bisram;

namespace {

const march::MarchTest* test_by_name(const std::string& name) {
  if (name == "ifa9") return &march::ifa9();
  if (name == "ifa13") return &march::ifa13();
  if (name == "matsp") return &march::mats_plus();
  if (name == "marchc") return &march::march_c_minus();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  core::RamSpec spec;
  spec.words = 1024;
  spec.bpw = 16;
  spec.bpc = 4;
  verify::SignoffOptions options;
  std::int64_t words = spec.words;
  std::int64_t abstract_words = options.micro.words;
  std::string test_name;
  std::string tech_file;
  bool microfaults = false;
  bool no_drc = false;
  bool no_erc = false;
  bool no_timing = false;
  int threads = 0;
  bool want_json = false;
  std::string json_path;

  Cli cli("bisram_lint", "Unified static signoff for a generated BISR RAM.");
  cli.value("--words", &words, "number of words")
      .value("--bpw", &spec.bpw, "bits per word")
      .value("--bpc", &spec.bpc, "bits per column (power of two)")
      .value("--spares", &spec.spare_rows, "spare rows: 4, 8 or 16")
      .value("--gate-size", &spec.gate_size, "critical gate multiplier", "X")
      .value("--tech", &spec.technology,
             "cda.5u3m1p | cda.7u3m1p | mos.6u3m1pHP", "NAME")
      .value("--tech-file", &tech_file,
             "user technology deck (overrides --tech; parse errors are "
             "reported as structured diagnostics)",
             "FILE")
      .value("--test", &test_name, "ifa9 | ifa13 | matsp | marchc", "NAME")
      .value("--passes", &spec.max_passes, "BIST passes (>= 2)")
      .flag("--microfaults", &microfaults,
            "also classify every PLA crosspoint defect")
      .flag("--no-drc", &no_drc, "skip layout DRC")
      .flag("--no-erc", &no_erc, "skip leaf-cell ERC/LVS")
      .flag("--no-timing", &no_timing,
            "skip the STA timing check (access budget + setup slack)")
      .value("--abstract-words", &abstract_words,
             "product-model address space")
      .value("--abstract-bpw", &options.micro.bpw, "product-model data width")
      .value("--threads", &threads,
             "worker threads for --microfaults (0 = BISRAM_THREADS or "
             "hardware)")
      .optional_value("--json", &want_json, &json_path,
                      "emit the unified JSON report (stdout or FILE)");
  cli.parse(&argc, argv);
  spec.words = static_cast<std::uint32_t>(words);
  options.micro.words = static_cast<std::uint32_t>(abstract_words);
  options.fault_mode = microfaults;
  options.run_drc = !no_drc;
  options.run_erc_lvs = !no_erc;
  options.run_timing = !no_timing;
  if (!test_name.empty()) {
    const march::MarchTest* t = test_by_name(test_name);
    if (!t) {
      std::fprintf(stderr, "bisram_lint: unknown test '%s'\n%s",
                   test_name.c_str(), cli.usage().c_str());
      return 2;
    }
    spec.test = t;
  }
  if (threads > 0) set_campaign_threads(threads);

  // A user deck is parsed through the structured-diagnostics engine: a
  // damaged deck produces one pass of file:line positioned errors (and,
  // under --json, the machine-readable diagnostics document) instead of
  // a single first-failure exception.
  tech::Tech user_tech;
  if (!tech_file.empty()) {
    std::ifstream f(tech_file);
    if (!f) {
      std::fprintf(stderr, "bisram_lint: cannot read %s\n",
                   tech_file.c_str());
      return 2;
    }
    DiagEngine diag(tech_file);
    user_tech = tech::read_tech_file(f, &diag);
    if (!diag.ok()) {
      std::fputs((diag.render_text() + "\n").c_str(), stderr);
      if (want_json) {
        const std::string doc = diag.json();
        if (json_path.empty()) {
          std::printf("%s\n", doc.c_str());
        } else {
          std::ofstream jf(json_path);
          if (jf) jf << doc << '\n';
        }
      }
      return 2;
    }
    spec.custom_tech = std::make_shared<const tech::Tech>(user_tech);
  }

  try {
    const verify::SignoffReport report = verify::run_signoff(spec, options);
    std::fputs(report.render().c_str(), stdout);
    if (want_json) {
      const std::string doc = report.json();
      if (json_path.empty()) {
        std::printf("%s\n", doc.c_str());
      } else {
        std::ofstream f(json_path);
        if (!f) {
          std::fprintf(stderr, "bisram_lint: cannot write %s\n",
                       json_path.c_str());
          return 2;
        }
        f << doc << '\n';
        std::printf("wrote %s\n", json_path.c_str());
      }
    }
    return report.clean() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "bisram_lint: %s\n", e.what());
    return 2;
  }
}
