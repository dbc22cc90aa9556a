#include "api/options.h"

#include <cmath>

#include "parallel/work_stealing.h"

namespace mbe {

util::Status ParseAlgorithm(const std::string& name, Algorithm* algorithm) {
  PMBE_CHECK(algorithm != nullptr);
  if (name == "mbet") {
    *algorithm = Algorithm::kMbet;
  } else if (name == "mbetm") {
    *algorithm = Algorithm::kMbetM;
  } else if (name == "minelmbc") {
    *algorithm = Algorithm::kMineLmbc;
  } else if (name == "mbea") {
    *algorithm = Algorithm::kMbea;
  } else if (name == "imbea") {
    *algorithm = Algorithm::kImbea;
  } else if (name == "oombea") {
    *algorithm = Algorithm::kOombeaLite;
  } else if (name == "bbk") {
    *algorithm = Algorithm::kBbk;
  } else {
    return util::Status::InvalidArgument(
        "unknown algorithm '" + name +
        "' (expected mbet | mbetm | minelmbc | mbea | imbea | oombea | "
        "bbk)");
  }
  return util::Status::Ok();
}

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kMbet:
      return "MBET";
    case Algorithm::kMbetM:
      return "MBETM";
    case Algorithm::kMineLmbc:
      return "MineLMBC";
    case Algorithm::kMbea:
      return "MBEA";
    case Algorithm::kImbea:
      return "iMBEA";
    case Algorithm::kOombeaLite:
      return "ooMBEA-lite";
    case Algorithm::kBbk:
      return "BBK";
  }
  return "?";
}

bool SupportsParallel(Algorithm algorithm) {
  return algorithm == Algorithm::kMbet || algorithm == Algorithm::kMbetM ||
         algorithm == Algorithm::kMbea || algorithm == Algorithm::kImbea ||
         algorithm == Algorithm::kOombeaLite || algorithm == Algorithm::kBbk;
}

util::Status GraphOptions::Validate() const {
  if (min_left == 0 || min_right == 0) {
    return util::Status::InvalidArgument(
        "GraphOptions::min_left / min_right are minimum side sizes and must "
        "be >= 1 (got 0)");
  }
  return util::Status::Ok();
}

util::Status RunOptions::Validate() const {
  if (algorithm > kLastAlgorithm) {
    return util::Status::InvalidArgument(
        "unknown algorithm id " +
        std::to_string(static_cast<int>(algorithm)));
  }
  if (threads == 0 || threads > kMaxThreads) {
    return util::Status::InvalidArgument(
        "threads must be in [1, " + std::to_string(kMaxThreads) + "] (got " +
        std::to_string(threads) + ")");
  }
  if (threads > 1 && !SupportsParallel(algorithm)) {
    return util::Status::InvalidArgument(
        std::string("algorithm ") + AlgorithmName(algorithm) +
        " does not support threads > 1");
  }
  if (mbet.min_left == 0 || mbet.min_right == 0) {
    return util::Status::InvalidArgument(
        "mbet.min_left / mbet.min_right are minimum side sizes and must be "
        ">= 1 (got 0)");
  }
  if ((mbet.min_left > 1 || mbet.min_right > 1) &&
      algorithm != Algorithm::kMbet && algorithm != Algorithm::kMbetM) {
    return util::Status::InvalidArgument(
        std::string("size thresholds mbet.min_left / mbet.min_right > 1 are "
                    "applied only by mbet and mbetm; ") +
        AlgorithmName(algorithm) + " would ignore them");
  }
  if (mbet.trie_min_groups == 0) {
    return util::Status::InvalidArgument(
        "mbet.trie_min_groups must be >= 1 (1 builds a trie everywhere)");
  }
  if (!(mbet.bitmap_density >= 0.0)) {  // negatives and NaN
    return util::Status::InvalidArgument(
        "mbet.bitmap_density must be >= 0 (0 forces bitmaps, > 1 disables "
        "them)");
  }
  if (max_split == 0 || max_split > kMaxTaskShards) {
    return util::Status::InvalidArgument(
        "max_split must be in [1, " + std::to_string(kMaxTaskShards) +
        "] (1 disables subtree splitting)");
  }
  if (threads > 1 && mbet.best_edges != nullptr) {
    return util::Status::InvalidArgument(
        "mbet.best_edges (branch-and-bound watermark) is unsynchronized "
        "state and requires threads == 1");
  }
  if (!(control.deadline_seconds >= 0)) {
    return util::Status::InvalidArgument(
        "control.deadline_seconds must be >= 0 (0 disables the deadline)");
  }
  if (std::isnan(control.progress_every_s)) {
    return util::Status::InvalidArgument(
        "control.progress_every_s must not be NaN");
  }
  if (!(watchdog_stall_seconds >= 0)) {  // negatives and NaN
    return util::Status::InvalidArgument(
        "watchdog_stall_seconds must be >= 0 (0 disables the watchdog)");
  }
  const bool durable = checkpoint.enabled() || checkpoint.resume ||
                       checkpoint.shard_count != 1 ||
                       checkpoint.checkpoint_stop != nullptr;
  if (durable) {
    if (!SupportsParallel(algorithm)) {
      return util::Status::InvalidArgument(
          std::string("algorithm ") + AlgorithmName(algorithm) +
          " does not support the per-vertex subtree decomposition, which "
          "checkpointing is built on");
    }
    if (!(checkpoint.every_s >= 0)) {  // negatives and NaN
      return util::Status::InvalidArgument(
          "checkpoint.every_s must be >= 0 (0 = final snapshot only)");
    }
  }
  if (checkpoint.shard_count == 0) {
    return util::Status::InvalidArgument(
        "checkpoint.shard_count must be >= 1");
  }
  if (checkpoint.shard_index >= checkpoint.shard_count) {
    return util::Status::InvalidArgument(
        "checkpoint.shard_index must be < checkpoint.shard_count");
  }
  if ((checkpoint.resume || checkpoint.shard_count > 1 ||
       checkpoint.checkpoint_stop != nullptr) &&
      !checkpoint.enabled()) {
    return util::Status::InvalidArgument(
        "checkpoint.resume, sharded runs, and the checkpoint-stop token "
        "all need checkpoint.path (resume reads it; a stopped or sharded "
        "run's state is only reachable through its snapshot file)");
  }
  return util::Status::Ok();
}

}  // namespace mbe
