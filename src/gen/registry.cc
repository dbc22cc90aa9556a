#include "gen/registry.h"

#include <algorithm>

#include "gen/generators.h"
#include "util/common.h"

namespace mbe::gen {

namespace {

// Laptop-scale stand-ins. Sizes are roughly 1/10–1/100 of the originals
// with the |U|:|V| ratio and the average right degree preserved; skew
// exponents chosen so the degree distributions are power-law-like where the
// originals are (social/web data) and flatter where they are not
// (purchase/rating data). Planted blocks mimic overlapping communities on
// the biclique-rich datasets.
std::vector<DatasetSpec> BuildRegistry() {
  std::vector<DatasetSpec> specs;
  // name, full_name, |U|, |V|, |E|, aL, aR, blocks, bl, br, seed, large
  specs.push_back({"Mti", "MovieLens (stand-in)", 4000, 1900, 18000, 0.80, 0.70, 0, 0, 0, 101, false});
  specs.push_back({"WA", "Amazon (stand-in)", 20000, 19800, 70000, 0.70, 0.70, 0, 0, 0, 102, false});
  specs.push_back({"TM", "Teams (stand-in)", 45000, 1700, 68000, 0.60, 0.80, 0, 0, 0, 103, false});
  specs.push_back({"AM", "ActorMovies (stand-in)", 24000, 8000, 92000, 0.75, 0.70, 0, 0, 0, 104, false});
  specs.push_back({"WC", "Wikipedia (stand-in)", 46000, 4600, 95000, 0.65, 0.85, 0, 0, 0, 105, false});
  specs.push_back({"YG", "YouTube (stand-in)", 9400, 3000, 29000, 0.90, 0.85, 0, 0, 0, 106, false});
  specs.push_back({"SO", "StackOverflow (stand-in)", 27000, 4800, 65000, 0.95, 0.85, 0, 0, 0, 107, true});
  specs.push_back({"Pa", "DBLP (stand-in)", 56000, 19500, 123000, 0.60, 0.60, 0, 0, 0, 108, true});
  specs.push_back({"IM", "IMDB (stand-in)", 30000, 10000, 126000, 0.80, 0.75, 0, 0, 0, 109, true});
  specs.push_back({"EE", "EuAll (stand-in)", 11000, 3700, 21000, 1.00, 0.90, 0, 0, 0, 110, true});
  specs.push_back({"BX", "BookCrossing (stand-in)", 17000, 5300, 57000, 0.90, 0.85, 8, 20, 12, 111, true});
  specs.push_back({"GH", "Github (stand-in)", 12000, 6000, 44000, 0.90, 0.85, 10, 16, 10, 112, true});
  specs.push_back({"DBT", "TVTropes (stand-in)", 8800, 6400, 110000, 0.85, 0.80, 12, 24, 14, 113, true});
  return specs;
}

}  // namespace

const std::vector<DatasetSpec>& AllDatasets() {
  static const std::vector<DatasetSpec>* registry =
      new std::vector<DatasetSpec>(BuildRegistry());
  return *registry;
}

const DatasetSpec& FindDataset(const std::string& name) {
  for (const DatasetSpec& spec : AllDatasets()) {
    if (spec.name == name) return spec;
  }
  PMBE_CHECK_MSG(false, "unknown dataset '%s'", name.c_str());
  // Unreachable.
  return AllDatasets().front();
}

util::Status CheckDatasetName(const std::string& name) {
  std::string names;
  for (const DatasetSpec& spec : AllDatasets()) {
    if (spec.name == name) return util::Status::Ok();
    if (!names.empty()) names += " | ";
    names += spec.name;
  }
  return util::Status::InvalidArgument("unknown dataset '" + name +
                                       "' (expected " + names + ")");
}

BipartiteGraph Materialize(const DatasetSpec& spec, double scale) {
  PMBE_CHECK_MSG(scale > 0.0 && scale <= 1.0, "scale %f out of (0,1]", scale);
  auto scaled = [scale](size_t x) {
    return std::max<size_t>(1, static_cast<size_t>(static_cast<double>(x) * scale));
  };
  const size_t num_left = scaled(spec.num_left);
  const size_t num_right = scaled(spec.num_right);
  const size_t edges = scaled(spec.target_edges);

  BipartiteGraph g = PowerLaw(num_left, num_right, edges, spec.alpha_left,
                              spec.alpha_right, spec.seed);
  if (spec.planted_blocks > 0) {
    const size_t bl = std::min(scaled(spec.planted_left) + 1, num_left);
    const size_t br = std::min(scaled(spec.planted_right) + 1, num_right);
    g = PlantBicliques(g, spec.planted_blocks, bl, br, spec.seed * 7919,
                       /*out_planted=*/nullptr);
  }
  // Standard preprocessing: the right side must be the smaller side.
  if (g.num_right() > g.num_left()) g = g.Swapped();
  return g;
}

std::vector<std::string> DefaultSuite() {
  return {"Mti", "WA", "TM", "AM", "WC", "YG"};
}

std::vector<std::string> FullSuite() {
  std::vector<std::string> names;
  for (const DatasetSpec& spec : AllDatasets()) names.push_back(spec.name);
  return names;
}

}  // namespace mbe::gen
