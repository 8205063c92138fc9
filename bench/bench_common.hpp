// Shared command-line handling for the table/figure benchmark binaries.
//
// Every bench accepts:
//   --scale <f>    volume scale factor (default 0.5; 1.0 = paper-size 256^3)
//   --image <n>    override the image size
//   --ranks <csv>  processor counts (default 2,4,8,16,32,64)
//   --full         shorthand for --scale 1.0
// The defaults keep the whole harness runnable in minutes on one core while
// preserving the paper's image sizes (which drive the compositing metrics).
//
// Parsing is strict, with the tools' parsers (tools/cli_parse.hpp): every
// numeric token must consume the whole string and be positive, and malformed
// input raises tools::ParseError (the binaries catch it and exit 2). The pure
// argv parse is separated from the exit-on-error wrapper so the test suite
// can cover it directly.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "tools/cli_parse.hpp"

namespace slspvr::bench {

struct Options {
  double scale = 0.5;
  int image_size = 0;  ///< 0 = bench default
  std::vector<int> ranks = {2, 4, 8, 16, 32, 64};
  std::string csv;     ///< when non-empty, also write machine-readable rows
};

/// Pure argv parse — throws tools::ParseError on malformed input, never exits.
[[nodiscard]] inline Options parse_options_or_throw(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw tools::ParseError("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--scale") {
      options.scale = tools::parse_positive_double(next(), "--scale");
    } else if (arg == "--image") {
      options.image_size = tools::parse_positive_int(next(), "--image");
    } else if (arg == "--full") {
      options.scale = 1.0;
    } else if (arg == "--csv") {
      options.csv = next();
      if (options.csv.empty()) throw tools::ParseError("--csv: empty path");
    } else if (arg == "--ranks") {
      options.ranks = tools::parse_positive_int_csv(next(), "--ranks");
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --scale <f> | --full | --image <n> | --ranks <list> | --csv <path>\n";
      std::exit(0);
    } else {
      throw tools::ParseError("unknown option " + arg + " (see --help)");
    }
  }
  return options;
}

inline Options parse_options(int argc, char** argv) {
  try {
    return parse_options_or_throw(argc, argv);
  } catch (const tools::ParseError& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace slspvr::bench
