#include <algorithm>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "index/global_order.h"
#include "join/signature.h"
#include "test_fixtures.h"

namespace aujoin {
namespace {

class SignatureTest : public ::testing::Test {
 protected:
  SignatureTest() : generator_(world_.knowledge(), MsimOptions{}) {}

  // Prepares a small collection and returns sorted pebbles per record.
  std::vector<RecordPebbles> Prepare(const std::vector<std::string>& texts) {
    std::vector<RecordPebbles> out;
    records_.clear();
    for (size_t i = 0; i < texts.size(); ++i) {
      records_.push_back(world_.MakeRec(static_cast<uint32_t>(i), texts[i]));
      out.push_back(generator_.Generate(records_.back(), &gram_dict_));
    }
    order_ = GlobalOrder();
    order_.CountCollection(out);
    order_.Finalize();
    for (auto& rp : out) order_.SortPebbles(&rp);
    return out;
  }

  Figure1World world_;
  Vocabulary gram_dict_;
  PebbleGenerator generator_;
  GlobalOrder order_;
  std::vector<Record> records_;
};

TEST_F(SignatureTest, AccumulatedSimilarityIsMonotone) {
  auto prepared = Prepare({"espresso cafe helsinki", "latte coffee shop"});
  for (const auto& rp : prepared) {
    auto as = ComputeAccumulatedSimilarity(rp);
    for (size_t i = 1; i + 1 < as.size(); ++i) {
      EXPECT_GE(as[i] + 1e-12, as[i + 1]);
    }
    EXPECT_DOUBLE_EQ(as[rp.pebbles.size() + 1], 0.0);
  }
}

TEST_F(SignatureTest, AccumulatedSimilarityTotal) {
  // For "cafe": one segment; AS(1) = max over measures of the full bucket
  // sums = max(J: 3 * 1/3, S: 1) = 1.
  auto prepared = Prepare({"cafe"});
  auto as = ComputeAccumulatedSimilarity(prepared[0]);
  EXPECT_NEAR(as[1], 1.0, 1e-12);
}

TEST_F(SignatureTest, UFilterKeepsFewerThanAll) {
  auto prepared = Prepare({"espresso cafe helsinki", "latte coffee shop",
                           "cake gateau food", "helsingki espresso cafe"});
  SignatureOptions opts;
  opts.theta = 0.8;
  opts.method = FilterMethod::kUFilter;
  for (size_t i = 0; i < prepared.size(); ++i) {
    Signature sig = SelectSignature(prepared[i], records_[i].num_tokens(),
                                    opts);
    EXPECT_GT(sig.prefix_len, 0u);
    EXPECT_LT(sig.prefix_len, prepared[i].pebbles.size());
  }
}

TEST_F(SignatureTest, HigherTauGivesLongerSignatures) {
  auto prepared = Prepare({"espresso cafe helsinki", "latte coffee shop",
                           "cake gateau food"});
  SignatureOptions opts;
  opts.theta = 0.8;
  opts.method = FilterMethod::kAuHeuristic;
  for (size_t i = 0; i < prepared.size(); ++i) {
    size_t prev = 0;
    for (int tau = 1; tau <= 4; ++tau) {
      opts.tau = tau;
      Signature sig = SelectSignature(prepared[i], records_[i].num_tokens(),
                                      opts);
      EXPECT_GE(sig.prefix_len, prev);
      prev = sig.prefix_len;
    }
  }
}

TEST_F(SignatureTest, DpNeverLongerThanHeuristic) {
  auto prepared = Prepare({"espresso cafe helsinki", "latte coffee shop",
                           "cake gateau food", "coffee shop cake espresso"});
  for (size_t i = 0; i < prepared.size(); ++i) {
    for (int tau : {2, 3, 4}) {
      for (double theta : {0.75, 0.85, 0.95}) {
        SignatureOptions h;
        h.theta = theta;
        h.tau = tau;
        h.method = FilterMethod::kAuHeuristic;
        SignatureOptions d = h;
        d.method = FilterMethod::kAuDp;
        size_t hs =
            SelectSignature(prepared[i], records_[i].num_tokens(), h)
                .prefix_len;
        size_t ds =
            SelectSignature(prepared[i], records_[i].num_tokens(), d)
                .prefix_len;
        EXPECT_LE(ds, hs) << "tau=" << tau << " theta=" << theta
                          << " record=" << i;
      }
    }
  }
}

TEST_F(SignatureTest, UFilterEqualsHeuristicTau1) {
  auto prepared = Prepare({"espresso cafe helsinki", "latte coffee shop"});
  for (size_t i = 0; i < prepared.size(); ++i) {
    SignatureOptions u;
    u.theta = 0.8;
    u.method = FilterMethod::kUFilter;
    SignatureOptions h;
    h.theta = 0.8;
    h.tau = 1;
    h.method = FilterMethod::kAuHeuristic;
    EXPECT_EQ(
        SelectSignature(prepared[i], records_[i].num_tokens(), u).prefix_len,
        SelectSignature(prepared[i], records_[i].num_tokens(), h).prefix_len);
  }
}

TEST_F(SignatureTest, LowerThetaGivesLongerSignatures) {
  auto prepared = Prepare({"espresso cafe helsinki", "latte coffee shop"});
  SignatureOptions opts;
  opts.method = FilterMethod::kAuDp;
  opts.tau = 2;
  for (size_t i = 0; i < prepared.size(); ++i) {
    opts.theta = 0.95;
    size_t high =
        SelectSignature(prepared[i], records_[i].num_tokens(), opts)
            .prefix_len;
    opts.theta = 0.7;
    size_t low =
        SelectSignature(prepared[i], records_[i].num_tokens(), opts)
            .prefix_len;
    EXPECT_GE(low, high);
  }
}

TEST_F(SignatureTest, KeysAreDistinctAndFromPrefix) {
  auto prepared = Prepare({"espresso cafe helsinki"});
  SignatureOptions opts;
  opts.theta = 0.8;
  opts.tau = 2;
  opts.method = FilterMethod::kAuDp;
  Signature sig =
      SelectSignature(prepared[0], records_[0].num_tokens(), opts);
  auto keys = sig.keys;
  std::sort(keys.begin(), keys.end());
  EXPECT_TRUE(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  EXPECT_LE(sig.keys.size(), sig.prefix_len);
}

TEST_F(SignatureTest, EmptyRecordYieldsEmptySignature) {
  auto prepared = Prepare({""});
  SignatureOptions opts;
  Signature sig = SelectSignature(prepared[0], 0, opts);
  EXPECT_EQ(sig.prefix_len, 0u);
  EXPECT_TRUE(sig.keys.empty());
}

// A short record whose kept prefix repeats a gram: at q = 3 "blobechi
// loblo" shares "blo" and "lob" between its tokens, so at theta 0.95 /
// tau 4 the prefix holds 4 pebbles but only 3 distinct keys. The
// count-merge counts distinct keys, so a required overlap of 4 made the
// record unreachable even from an exact duplicate of itself.
constexpr const char* kRepeatedGramText = "blobechi loblo";

TEST(SignatureRepeatedKeyTest, EffectiveTauNeverExceedsDistinctKeys) {
  Figure1World world;
  MsimOptions msim;
  msim.q = 3;
  Vocabulary gram_dict;
  PebbleGenerator generator(world.knowledge(), msim);
  Record record = world.MakeRec(0, kRepeatedGramText);
  std::vector<RecordPebbles> prepared{generator.Generate(record, &gram_dict)};
  GlobalOrder order;
  order.CountCollection(prepared);
  order.Finalize();
  order.SortPebbles(&prepared[0]);
  SignatureOptions opts;
  opts.theta = 0.95;
  opts.tau = 4;
  Signature sig = SelectSignature(prepared[0], record.num_tokens(), opts);
  // The case this test exists for: the prefix repeats a key.
  EXPECT_LT(sig.keys.size(), sig.prefix_len);
  EXPECT_GE(sig.effective_tau, 1);
  EXPECT_LE(sig.effective_tau, static_cast<int>(sig.keys.size()));
}

TEST(SignatureRepeatedKeyTest, RecordWithRepeatedGramIsFoundAndJoined) {
  Figure1World world;
  std::vector<Record> records{world.MakeRec(0, "espresso cafe helsinki"),
                              world.MakeRec(1, kRepeatedGramText),
                              world.MakeRec(2, "latte coffee shop"),
                              world.MakeRec(3, kRepeatedGramText)};
  Engine engine = EngineBuilder()
                      .SetKnowledge(world.knowledge())
                      .SetMeasures("TJS")
                      .SetQ(3)
                      .Build();
  engine.SetRecords(records);

  EngineSearchOptions search;
  search.theta = 0.95;
  search.tau = 4;
  auto matches = engine.Search(world.MakeRec(9, kRepeatedGramText), search);
  ASSERT_TRUE(matches.ok());
  std::vector<uint32_t> ids;
  for (const auto& m : *matches) ids.push_back(m.id);
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 3}));

  auto joined = engine.Join("unified", {.theta = 0.95, .tau = 4});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->pairs,
            (std::vector<std::pair<uint32_t, uint32_t>>{{1, 3}}));
}

}  // namespace
}  // namespace aujoin
