#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "join/join.h"
#include "test_fixtures.h"

namespace aujoin {
namespace {

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

PairSet ToSet(const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  PairSet out;
  for (auto p : pairs) {
    if (p.first > p.second) std::swap(p.first, p.second);
    out.insert(p);
  }
  return out;
}

// Brute-force reference: every unordered pair with Approx >= theta.
PairSet BruteForceJoin(const Knowledge& knowledge,
                       const std::vector<Record>& records,
                       const MsimOptions& msim, double theta) {
  UsimOptions options;
  options.msim = msim;
  UsimComputer computer(knowledge, options);
  PairSet out;
  for (uint32_t i = 0; i < records.size(); ++i) {
    for (uint32_t j = i + 1; j < records.size(); ++j) {
      if (computer.Approx(records[i], records[j]) >= theta) {
        out.insert({i, j});
      }
    }
  }
  return out;
}

class JoinSmallWorldTest : public ::testing::Test {
 protected:
  JoinSmallWorldTest() {
    texts_ = {
        "coffee shop latte helsingki",
        "espresso cafe helsinki",
        "cake gateau",
        "apple cake",
        "latte espresso coffee",
        "random words here",
        "espresso cafe helsinki",   // exact duplicate of record 1
        "coffee shop latte helsinki",
    };
    for (size_t i = 0; i < texts_.size(); ++i) {
      records_.push_back(world_.MakeRec(static_cast<uint32_t>(i), texts_[i]));
    }
  }

  Figure1World world_;
  std::vector<std::string> texts_;
  std::vector<Record> records_;
};

TEST_F(JoinSmallWorldTest, SelfJoinMatchesBruteForceAcrossMethods) {
  MsimOptions msim;
  JoinContext context(world_.knowledge(), msim);
  context.Prepare(records_, nullptr);
  for (double theta : {0.7, 0.8, 0.9}) {
    PairSet expected =
        BruteForceJoin(world_.knowledge(), records_, msim, theta);
    for (FilterMethod method :
         {FilterMethod::kUFilter, FilterMethod::kAuHeuristic,
          FilterMethod::kAuDp}) {
      for (int tau : {1, 2, 3}) {
        if (method == FilterMethod::kUFilter && tau > 1) continue;
        JoinOptions options;
        options.theta = theta;
        options.tau = tau;
        options.method = method;
        JoinResult result = UnifiedJoin(context, options);
        EXPECT_EQ(ToSet(result.pairs), expected)
            << "method=" << FilterMethodName(method) << " tau=" << tau
            << " theta=" << theta;
      }
    }
  }
}

TEST_F(JoinSmallWorldTest, DuplicateRecordsAreFound) {
  MsimOptions msim;
  JoinContext context(world_.knowledge(), msim);
  context.Prepare(records_, nullptr);
  JoinOptions options;
  options.theta = 0.95;
  JoinResult result = UnifiedJoin(context, options);
  EXPECT_TRUE(ToSet(result.pairs).count({1, 6}) > 0);
}

TEST_F(JoinSmallWorldTest, StatsAreConsistent) {
  MsimOptions msim;
  JoinContext context(world_.knowledge(), msim);
  context.Prepare(records_, nullptr);
  JoinOptions options;
  options.theta = 0.8;
  options.tau = 2;
  options.method = FilterMethod::kAuDp;
  JoinResult result = UnifiedJoin(context, options);
  EXPECT_GE(result.stats.candidates, result.stats.results);
  EXPECT_GE(result.stats.processed_pairs, result.stats.candidates);
  EXPECT_EQ(result.stats.results, result.pairs.size());
  EXPECT_GT(result.stats.avg_signature_pebbles, 0.0);
}

TEST_F(JoinSmallWorldTest, RxSJoinAgainstSecondCollection) {
  std::vector<Record> others;
  others.push_back(world_.MakeRec(0, "espresso cafe helsinki"));
  others.push_back(world_.MakeRec(1, "unrelated text"));
  MsimOptions msim;
  JoinContext context(world_.knowledge(), msim);
  context.Prepare(records_, &others);
  EXPECT_FALSE(context.self_join());
  JoinOptions options;
  options.theta = 0.9;
  JoinResult result = UnifiedJoin(context, options);
  // records_[1] and records_[6] equal others[0].
  PairSet found = ToSet(result.pairs);
  EXPECT_TRUE(found.count({0, 1}) > 0 || found.count({1, 0}) > 0);
  bool has_unrelated = false;
  for (const auto& p : result.pairs) {
    if (p.second == 1) has_unrelated = true;
  }
  EXPECT_FALSE(has_unrelated);
}

TEST_F(JoinSmallWorldTest, LargerTauNeverLosesResults) {
  // Candidates are not monotone in tau (a larger tau lengthens signatures
  // and may lower per-record effective tau on short strings), but results
  // must be identical; Fig. 3(b)'s candidate trend on realistic data is
  // exercised in JoinGeneratedCorpusTest and bench_fig03_tau_tradeoff.
  MsimOptions msim;
  JoinContext context(world_.knowledge(), msim);
  context.Prepare(records_, nullptr);
  JoinOptions options;
  options.theta = 0.8;
  options.method = FilterMethod::kAuHeuristic;
  options.tau = 1;
  PairSet at_one = ToSet(UnifiedJoin(context, options).pairs);
  options.tau = 6;
  PairSet at_six = ToSet(UnifiedJoin(context, options).pairs);
  EXPECT_EQ(at_one, at_six);
}

TEST(JoinTrendTest, LargeTauPrunesCandidatesOnRealisticCorpus) {
  Vocabulary vocab;
  Taxonomy taxonomy = GenerateTaxonomy({.num_nodes = 400}, &vocab);
  RuleSet rules = GenerateSynonyms({.num_rules = 200}, taxonomy, &vocab);
  Knowledge knowledge{&vocab, &rules, &taxonomy};
  CorpusGenerator gen(&vocab, &taxonomy, &rules);
  CorpusProfile profile;
  profile.num_strings = 300;
  profile.seed = 123;
  Corpus corpus = gen.Generate(profile, {.num_pairs = 60});
  // q = 3 as in the benches: the synthetic words' 2-gram space is too
  // compressed to show the candidate trend at this corpus size.
  JoinContext context(knowledge, MsimOptions{.q = 3});
  context.Prepare(corpus.records, nullptr);
  SignatureOptions sig;
  sig.theta = 0.85;
  sig.method = FilterMethod::kAuHeuristic;
  sig.tau = 1;
  auto at_one = context.RunFilter(sig);
  sig.tau = 3;
  auto at_three = context.RunFilter(sig);
  EXPECT_LT(at_three.candidates.size(), at_one.candidates.size());
  // Larger tau keeps more pebbles per signature (Fig. 3(a)).
  EXPECT_GE(at_three.avg_signature_pebbles, at_one.avg_signature_pebbles);
}

// End-to-end property test on a generated mixed-similarity corpus: the
// join must find exactly the brute-force result for every filter.
class JoinGeneratedCorpusTest
    : public ::testing::TestWithParam<std::tuple<FilterMethod, int>> {};

TEST_P(JoinGeneratedCorpusTest, MatchesBruteForce) {
  auto [method, tau] = GetParam();
  Vocabulary vocab;
  TaxonomyGenOptions tax_opts;
  tax_opts.num_nodes = 300;
  Taxonomy taxonomy = GenerateTaxonomy(tax_opts, &vocab);
  SynonymGenOptions syn_opts;
  syn_opts.num_rules = 150;
  RuleSet rules = GenerateSynonyms(syn_opts, taxonomy, &vocab);
  Knowledge knowledge{&vocab, &rules, &taxonomy};

  CorpusProfile profile;
  profile.num_strings = 60;
  profile.seed = 77;
  GroundTruthOptions truth;
  truth.num_pairs = 20;
  CorpusGenerator gen(&vocab, &taxonomy, &rules);
  Corpus corpus = gen.Generate(profile, truth);

  MsimOptions msim;
  JoinContext context(knowledge, msim);
  context.Prepare(corpus.records, nullptr);

  const double theta = 0.75;
  PairSet expected =
      BruteForceJoin(knowledge, corpus.records, msim, theta);
  JoinOptions options;
  options.theta = theta;
  options.tau = tau;
  options.method = method;
  JoinResult result = UnifiedJoin(context, options);
  EXPECT_EQ(ToSet(result.pairs), expected);
  EXPECT_FALSE(expected.empty());  // the corpus must contain real pairs
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndTaus, JoinGeneratedCorpusTest,
    ::testing::Values(
        std::make_tuple(FilterMethod::kUFilter, 1),
        std::make_tuple(FilterMethod::kAuHeuristic, 2),
        std::make_tuple(FilterMethod::kAuHeuristic, 4),
        std::make_tuple(FilterMethod::kAuDp, 2),
        std::make_tuple(FilterMethod::kAuDp, 4)));

// Dynamically scheduled verification must not leak the worker split
// into results: a 1-thread and a 4-thread unified join of the same
// generated corpus return identical, sorted pairs through both verify
// entry points (UnifiedJoin and the engine's streaming algorithm, whose
// small batches give every worker several chunks per batch), and the
// filter returns the same sorted candidate list.
TEST(ThreadedVerifyParityTest, OneAndFourThreadsJoinIdentically) {
  Vocabulary vocab;
  Taxonomy taxonomy = GenerateTaxonomy({.num_nodes = 300}, &vocab);
  RuleSet rules = GenerateSynonyms({.num_rules = 150}, taxonomy, &vocab);
  Knowledge knowledge{&vocab, &rules, &taxonomy};
  CorpusProfile profile;
  profile.num_strings = 150;
  profile.seed = 91;
  CorpusGenerator gen(&vocab, &taxonomy, &rules);
  Corpus corpus = gen.Generate(profile, {.num_pairs = 40});

  MsimOptions msim;
  msim.q = 3;
  JoinContext context(knowledge, msim);
  context.Prepare(corpus.records, nullptr);
  SignatureOptions sig;
  sig.theta = 0.8;
  sig.tau = 2;
  auto serial_candidates = context.RunFilter(sig, nullptr, nullptr, 1);
  auto parallel_candidates = context.RunFilter(sig, nullptr, nullptr, 4);
  EXPECT_EQ(serial_candidates.candidates, parallel_candidates.candidates);
  EXPECT_TRUE(std::is_sorted(serial_candidates.candidates.begin(),
                             serial_candidates.candidates.end()));
  ASSERT_GT(serial_candidates.candidates.size(), 16u);

  JoinOptions options;
  options.theta = 0.8;
  options.tau = 2;
  options.num_threads = 1;
  JoinResult serial = UnifiedJoin(context, options);
  options.num_threads = 4;
  JoinResult parallel = UnifiedJoin(context, options);
  EXPECT_EQ(serial.pairs, parallel.pairs);
  EXPECT_FALSE(serial.pairs.empty());
  EXPECT_TRUE(std::is_sorted(serial.pairs.begin(), serial.pairs.end()));

  for (int threads : {1, 4}) {
    Engine engine = EngineBuilder()
                        .SetKnowledge(knowledge)
                        .SetQ(3)
                        .SetThreads(threads)
                        .SetStreamBatchSize(64)
                        .Build();
    engine.SetRecords(corpus.records);
    Result<JoinResult> joined =
        engine.Join("unified", {.theta = 0.8, .tau = 2});
    ASSERT_TRUE(joined.ok());
    EXPECT_EQ(joined->pairs, serial.pairs) << threads << " threads";
  }
}

}  // namespace
}  // namespace aujoin
