#ifndef PMBE_GEN_REGISTRY_H_
#define PMBE_GEN_REGISTRY_H_

#include <string>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/status.h"

/// \file
/// The dataset registry: named synthetic stand-ins for the real-world
/// datasets used by the MBE literature (MovieLens, Amazon, Teams,
/// ActorMovies, Wikipedia, YouTube, StackOverflow, DBLP, IMDB, EuAll,
/// BookCrossing, Github, TVTropes).
///
/// The real graphs come from KONECT/SNAP and are not downloadable in this
/// offline environment, so each stand-in is generated to match, at a
/// laptop-scale reduction, the properties that drive MBE behaviour:
/// the |U|:|V| ratio, the average right degree, and the degree skew
/// (power-law exponents); several additionally receive planted dense blocks
/// to mimic the overlapping-community structure responsible for large
/// maximal-biclique counts (BookCrossing, Github, TVTropes). See DESIGN.md
/// §2/S3 for the substitution rationale.

namespace mbe::gen {

/// One registry entry.
struct DatasetSpec {
  std::string name;        ///< short name used in tables ("Mti", "BX", ...)
  std::string full_name;   ///< the dataset it stands in for
  size_t num_left;         ///< |U| of the stand-in
  size_t num_right;        ///< |V| of the stand-in
  size_t target_edges;     ///< approximate |E|
  double alpha_left;       ///< Zipf exponent for U-side degrees
  double alpha_right;      ///< Zipf exponent for V-side degrees
  size_t planted_blocks;   ///< extra dense blocks (0 = none)
  size_t planted_left;     ///< rows per planted block
  size_t planted_right;    ///< cols per planted block
  uint64_t seed;           ///< generation seed
  bool large;              ///< belongs to the "large datasets" group
};

/// All registered stand-ins, in the canonical table order (ascending
/// maximal-biclique count of the originals).
const std::vector<DatasetSpec>& AllDatasets();

/// Finds a dataset spec by short name; aborts if unknown.
const DatasetSpec& FindDataset(const std::string& name);

/// OK if `name` is a registered short name; otherwise InvalidArgument
/// listing the registered names. Check user input with this before
/// FindDataset.
util::Status CheckDatasetName(const std::string& name);

/// Materializes the stand-in graph for `spec`, already preprocessed the
/// standard way: right side is the smaller side, neighbor lists sorted.
/// `scale` in (0, 1] shrinks the stand-in further (both sides and edges) so
/// quick runs stay quick; 1.0 is the registry default size.
BipartiteGraph Materialize(const DatasetSpec& spec, double scale = 1.0);

/// Names of the default benchmark suite (the smaller, fast stand-ins).
std::vector<std::string> DefaultSuite();

/// Names of the full suite (all 13 stand-ins, ascending difficulty).
std::vector<std::string> FullSuite();

}  // namespace mbe::gen

#endif  // PMBE_GEN_REGISTRY_H_
