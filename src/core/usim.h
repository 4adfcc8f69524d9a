#ifndef AUJOIN_CORE_USIM_H_
#define AUJOIN_CORE_USIM_H_

#include <cstdint>
#include <vector>

#include "core/measures.h"
#include "core/pair_graph.h"
#include "core/squareimp.h"

namespace aujoin {

/// Options for the unified-similarity computations.
struct UsimOptions {
  MsimOptions msim;
  /// The t > 1 knob of Algorithm 1 / Theorem 2: improvements smaller than
  /// 1/t are not pursued, bounding the improvement phase to floor(t)
  /// iterations.
  double t = 10.0;
  /// How many candidate claws are evaluated with the exact GetSim per
  /// improvement round (ranked by matching-weight gain first).
  int improve_eval_budget = 16;
  /// Pair-talon moves are only enumerated on graphs at most this large.
  size_t pair_move_vertex_cap = 96;
  /// Ablation switch: disable the claw-improvement phase (plain SquareImp).
  bool enable_improvement = true;
  PairGraphOptions graph;
  SquareImpOptions squareimp;
};

/// Limits for the exponential exact algorithm (tests & Table 9 only).
struct ExactOptions {
  /// Cap on enumerated well-defined partitions per string.
  size_t max_partitions_per_string = 512;
  /// Cap on partition pairs scored with the Hungarian algorithm.
  size_t max_pairs = 250000;
};

/// Computes the unified similarity USIM (Definition 3) between two strings:
/// `Approx` is the paper's Algorithm 1 (SquareImp + claw improvement),
/// `Exact` enumerates all well-defined partition pairs (worst-case
/// exponential; NP-hard in general, Theorem 1).
///
/// Every path scores partitions through one msim memo: a flat
/// |S segments| x |T segments| matrix in the computer's scratch, filled
/// from the pair graph's vertex weights and lazily for any other cell,
/// so each segment-pair msim is evaluated at most once per candidate
/// pair however many partitions Algorithm 1 or Exact score. The memo is
/// valid for one candidate pair only: Approx, GetSim and Exact each
/// reset it on entry. msim is a pure function of its two segments, so
/// memoised results are bit-identical to evaluating every cell afresh.
///
/// Not thread-safe (shares an MsimEvaluator cache); use one per thread.
class UsimComputer {
 public:
  explicit UsimComputer(const Knowledge& knowledge, UsimOptions options = {})
      : options_(options), evaluator_(knowledge, options.msim) {}

  /// Algorithm 1. Returns a lower bound on USIM(s, t) with the Theorem 2
  /// guarantee. If `early_exit_threshold` is reached the computation stops
  /// immediately (join verification only needs the >= theta predicate);
  /// the default never triggers.
  double Approx(const Record& s, const Record& t,
                double early_exit_threshold = 2.0);

  struct ExactResult {
    double value = 0.0;
    /// False when a partition/pair cap was hit (value is then a lower
    /// bound).
    bool exact = true;
  };

  /// Exhaustive USIM by partition-pair enumeration.
  ExactResult Exact(const Record& s, const Record& t,
                    const ExactOptions& limits = {});

  /// SIM(PS, PT) of Eq. (6) for the partitions induced by an independent
  /// set `mis` of `g`: segments of the selected vertices plus singleton
  /// segments for uncovered tokens; scored by Hungarian matching over msim
  /// and normalised by max(|PS|, |PT|). `g` must come from BuildPairGraph
  /// under this computer's msim options: its vertex weights seed the
  /// memo. Exposed for tests and benches.
  double GetSim(const Record& s, const Record& t, const PairGraph& g,
                const std::vector<uint32_t>& mis);

  MsimEvaluator* evaluator() { return &evaluator_; }
  const UsimOptions& options() const { return options_; }

 private:
  /// Starts a candidate pair: every memo cell unknown, then the
  /// vertex weights of `g` (when given) copied in.
  void ResetMemo(size_t s_count, size_t t_count, const PairGraph* g);
  /// GetSim against the current memo (no reset).
  double ScoreIndependentSet(const Record& s, const Record& t,
                             const PairGraph& g,
                             const std::vector<uint32_t>& mis);
  double SimOfPartitions(const Record& s, const Record& t,
                         const std::vector<WellDefinedSegment>& s_segments,
                         const std::vector<WellDefinedSegment>& t_segments,
                         const std::vector<uint32_t>& ps,
                         const std::vector<uint32_t>& pt);

  UsimOptions options_;
  MsimEvaluator evaluator_;
  /// The msim memo, row-major over (S segment, T segment); negative
  /// cells are not yet evaluated.
  std::vector<double> memo_;
  size_t memo_cols_ = 0;
  /// Reused flat row-major matrix gathered from the memo for one
  /// partition pair and fed to the flat Hungarian overload.
  std::vector<double> w_scratch_;
  /// Scratch of the induced-partition construction.
  std::vector<uint32_t> singleton_at_, selected_, ps_, pt_;
  std::vector<char> covered_;
};

/// Enumerates well-defined partitions (Definition 2) of a token sequence of
/// length `num_tokens` as lists of indexes into `segments` (which must be
/// the EnumerateSegments output, sorted by (begin, end)). Stops after `cap`
/// partitions and sets *truncated. Every token sequence has at least the
/// all-singletons partition.
std::vector<std::vector<uint32_t>> EnumeratePartitions(
    const std::vector<WellDefinedSegment>& segments, size_t num_tokens,
    size_t cap, bool* truncated);

}  // namespace aujoin

#endif  // AUJOIN_CORE_USIM_H_
