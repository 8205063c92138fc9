// slspvr_mkvolume — export the procedural test samples as SLSVOL1 files (so
// they can be fed back through `slspvr_render --volume`, inspected, or used
// by external tools), or convert a headerless raw uint8 volume into the
// SLSVOL1 format.
//
// usage:
//   slspvr_mkvolume --dataset <name> [--scale f] --out <file.vol>
//   slspvr_mkvolume --import <raw> --dims NX,NY,NZ --out <file.vol>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "volume/datasets.hpp"

namespace tools = slspvr::tools;
namespace vol = slspvr::vol;

namespace {

/// --dims NX,NY,NZ: exactly three strict positive integers.
vol::Dims parse_dims(const std::string& token) {
  const std::vector<std::string> fields = tools::split_commas(token);
  if (fields.size() != 3) throw tools::ParseError("--dims: '" + token + "' is not NX,NY,NZ");
  return vol::Dims{tools::parse_positive_int(fields[0], "--dims"),
                   tools::parse_positive_int(fields[1], "--dims"),
                   tools::parse_positive_int(fields[2], "--dims")};
}

int run_tool(int argc, char** argv) {
  std::optional<vol::DatasetKind> dataset;
  std::optional<std::string> import_path;
  vol::Dims dims{};
  double scale = 1.0;
  std::string out;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--dataset") {
      const char* name = next();
      if (name == nullptr) return 2;
      for (const auto kind : vol::kAllDatasets) {
        if (std::strcmp(name, vol::dataset_name(kind)) == 0) dataset = kind;
      }
      if (!dataset) {
        std::cerr << "unknown dataset " << name << "\n";
        return 2;
      }
    } else if (a == "--import") {
      const char* p = next();
      if (p == nullptr) return 2;
      import_path = p;
    } else if (a == "--dims") {
      const char* token = next();
      if (token == nullptr) return 2;
      dims = parse_dims(token);
    } else if (a == "--scale") {
      const char* token = next();
      if (token == nullptr) return 2;
      scale = tools::parse_positive_double(token, "--scale");
    } else if (a == "--out") {
      const char* s = next();
      if (s == nullptr) return 2;
      out = s;
    } else {
      std::cerr << "unknown option " << a << "\n";
      return 2;
    }
  }
  if (out.empty() || (!dataset && !import_path)) {
    std::cerr << "usage: slspvr_mkvolume --dataset <name> [--scale f] --out <file.vol>\n"
              << "       slspvr_mkvolume --import <raw> --dims NX,NY,NZ --out <file.vol>\n";
    return 2;
  }
  if (dataset) {
    const auto ds = vol::make_dataset(*dataset, scale);
    vol::write_raw(ds.volume, out);
    std::cout << "wrote " << out << " (" << ds.volume.dims().nx << "x"
              << ds.volume.dims().ny << "x" << ds.volume.dims().nz << ")\n";
    return 0;
  }

  if (dims.nx <= 0 || dims.ny <= 0 || dims.nz <= 0) {
    std::cerr << "--import needs --dims with three positive extents (got " << dims.nx << ","
              << dims.ny << "," << dims.nz << ")\n";
    return 2;
  }
  std::ifstream in(*import_path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << *import_path << "\n";
    return 1;
  }
  vol::Volume volume(dims);
  in.read(reinterpret_cast<char*>(volume.data().data()),
          static_cast<std::streamsize>(volume.data().size()));
  if (!in) {
    std::cerr << "short read: expected " << volume.data().size() << " voxels\n";
    return 1;
  }
  vol::write_raw(volume, out);
  std::cout << "wrote " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_tool(argc, argv);
  } catch (const tools::ParseError& e) {
    std::cerr << "slspvr-mkvolume: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "slspvr_mkvolume: error: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "slspvr_mkvolume: error: unknown exception\n";
    return 1;
  }
}
