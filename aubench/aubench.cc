// aubench — the end-to-end benchmark of the aujoin library.
//
//   aubench gen --workload W --seed N --seconds S --dir D
//       Writes workload W's inputs for seed N into D: knowledge TSVs,
//       record files, planted truth pairs, the open-loop schedule and,
//       for the serving workloads, snapshots or a checkpoint plus WAL.
//   aubench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       Drives the library through its public API on those inputs,
//       checks every output, and prints the metrics as the last line of
//       stdout: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
//       --trace 1 records spans around the calls into each layer and
//       prints the per-layer metrics instead of the end-to-end ones.
//
// See aubench/README.md for the workloads and the metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/match_sink.h"
#include "core/pair_graph.h"
#include "core/segment.h"
#include "core/squareimp.h"
#include "core/usim.h"
#include "datagen/corpus_gen.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "dataset/dataset.h"
#include "join/join.h"
#include "join/search.h"
#include "kernels/kernels.h"
#include "open_loop.h"
#include "shard/sharded_index.h"
#include "storage/env.h"
#include "storage/generational_index.h"
#include "storage/wal_format.h"
#include "storage/wal_reader.h"
#include "synonym/rule_io.h"
#include "taxonomy/taxonomy_io.h"
#include "trace.h"
#include "util/rng.h"

namespace aubench {
namespace {

using aujoin::Dataset;
using aujoin::Engine;
using aujoin::Record;
using aujoin::Result;
using aujoin::Status;
using aujoin::UnifiedSearcher;
using Pair = std::pair<uint32_t, uint32_t>;
namespace fs = std::filesystem;

// ------------------------------------------------------------ workloads

enum class Kind { kSelfJoin, kRsJoin, kServeSharded, kServeAppend };

// Everything that defines a workload except the seed. Collections: "S"
// is the served (or self-joined) collection, "R" the probe side of an
// R×S join, the queries of the serving workloads, or the texts the
// appender writes.
struct Shape {
  std::string name;
  Kind kind = Kind::kSelfJoin;
  bool rare_filler = false;  // false = the MED-like profile
  size_t s_records = 0;
  size_t r_fresh = 0;     // R records that are fresh base strings
  size_t r_variants = 0;  // R records planted as variants of S records
  size_t self_truth = 0;  // planted pairs inside S (self-join only)
  double theta = 0.8;
  int tau = 2;
  int engine_threads = 1;
  size_t shards = 0;
  size_t k = 10;  // top-k of every search request
  // Open-loop request phase.
  double request_share = 0.4;  // of --seconds; the rest is the bulk join
  int search_workers = 1;
  double search_rate = 0;  // offered searches per second (Poisson)
  double append_rate = 0;  // offered appends per second (Poisson)
  double s_query_share = 1.0;  // searches drawn from S (else from R)
  // serve_append only.
  size_t prerun_checkpointed = 0;  // appends folded into the base checkpoint
  size_t prerun_wal = 0;           // appends left in the WAL tail to replay
  size_t wal_checkpoint_bytes = 0;
};

Shape GetShape(const std::string& name) {
  Shape s;
  s.name = name;
  if (name == "selfjoin_verify") {
    s.kind = Kind::kSelfJoin;
    s.s_records = 600;
    s.self_truth = 304;
    s.theta = 0.8;
    s.tau = 2;
    s.engine_threads = 4;
    s.request_share = 0.65;
    s.search_workers = 3;
    s.search_rate = 48;
  } else if (name == "rxs_sharded") {
    s.kind = Kind::kRsJoin;
    s.rare_filler = true;
    s.s_records = 8192;
    s.r_fresh = 512;
    s.r_variants = 2048;
    s.theta = 0.95;
    s.tau = 4;
    s.engine_threads = 4;
    s.shards = 4;
    s.request_share = 0.5;
    s.search_workers = 4;
    s.search_rate = 180;
    s.s_query_share = 0.0;
  } else if (name == "serve_sharded") {
    s.kind = Kind::kServeSharded;
    s.rare_filler = true;
    s.s_records = 8192;
    s.r_fresh = 512;
    s.r_variants = 512;
    s.theta = 0.95;
    s.tau = 4;
    s.engine_threads = 1;
    s.shards = 4;
    s.request_share = 0.75;
    s.search_workers = 4;
    s.search_rate = 120;
    s.s_query_share = 0.5;
  } else if (name == "serve_append") {
    s.kind = Kind::kServeAppend;
    s.rare_filler = true;
    s.s_records = 4096;
    s.r_fresh = 1024;
    s.r_variants = 1024;
    s.theta = 0.95;
    s.tau = 4;
    s.engine_threads = 1;
    s.request_share = 0.75;
    s.search_workers = 3;
    s.search_rate = 150;
    // Appends stay a small share of the requests: fsync latency on a
    // shared disk is noisy, and a larger share put the median request
    // on the fsync-bound appends.
    s.append_rate = 20;
    s.prerun_checkpointed = 200;
    s.prerun_wal = 400;
    s.wal_checkpoint_bytes = 8 << 10;
  } else {
    s.name.clear();
  }
  return s;
}

bool Served(const Shape& s) {
  return s.kind == Kind::kServeSharded || s.kind == Kind::kServeAppend;
}

// ------------------------------------------------------------- file i/o

bool WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::binary);
  for (const std::string& line : lines) out << line << '\n';
  return static_cast<bool>(out);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<Pair> ReadPairs(const std::string& path) {
  std::vector<Pair> pairs;
  for (const std::string& line : ReadLines(path)) {
    std::istringstream in(line);
    Pair p;
    if (in >> p.first >> p.second) pairs.push_back(p);
  }
  return pairs;
}

std::vector<Op> ReadSchedule(const std::string& path) {
  std::vector<Op> ops;
  for (const std::string& line : ReadLines(path)) {
    std::istringstream in(line);
    Op op;
    if (in >> op.due_us >> op.kind >> op.collection >> op.index) ops.push_back(op);
  }
  return ops;
}

bool CopyFile(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::copy_file(from, to, fs::copy_options::overwrite_existing, ec);
  return !ec;
}

// ------------------------------------------------------------ generation

aujoin::DatasetSpec Spec(const std::string& dir, bool with_r) {
  aujoin::DatasetSpec spec;
  spec.records_path = dir + "/s.txt";
  if (with_r) spec.records2_path = dir + "/r.txt";
  spec.rules_path = dir + "/rules.tsv";
  spec.taxonomy_path = dir + "/taxonomy.tsv";
  return spec;
}

Engine MakeEngine(const Dataset& ds, const Shape& shape) {
  return aujoin::EngineBuilder()
      .SetKnowledge(ds.knowledge())
      .SetMeasures("TJS")
      .SetQ(3)
      .SetThreads(shape.engine_threads)
      .SetNumShards(shape.shards)
      .SetWalCheckpointBytes(shape.wal_checkpoint_bytes)
      .Build();
}

aujoin::EngineSearchOptions SearchOptions(const Shape& shape) {
  aujoin::EngineSearchOptions o;
  o.theta = shape.theta;
  o.tau = shape.tau;
  o.k = shape.k;
  return o;
}

// Poisson arrivals at `rate` per second over [0, seconds).
void AddArrivals(double rate, double seconds, char kind, aujoin::Rng* rng,
                 const std::function<void(Op*)>& fill, std::vector<Op>* ops) {
  if (rate <= 0) return;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng->UniformReal()) / rate;
    if (t >= seconds) return;
    Op op;
    op.due_us = static_cast<int64_t>(t * 1e6);
    op.kind = kind;
    fill(&op);
    ops->push_back(op);
  }
}

constexpr uint64_t kKnowledgeSeed = 1;
constexpr size_t kSelfJoinParts = 4;

int Gen(const Shape& shape, uint64_t seed, double seconds, const std::string& dir) {
  fs::create_directories(dir);
  // The knowledge sources are fixed across seeds (they shape how costly
  // verification is, and a different taxonomy per seed would swamp the
  // run-to-run comparison); the seed drives the records and schedule.
  aujoin::Vocabulary vocab;
  aujoin::TaxonomyGenOptions tax;
  tax.num_nodes = 2000;
  tax.seed = kKnowledgeSeed;
  aujoin::Taxonomy taxonomy = aujoin::GenerateTaxonomy(tax, &vocab);
  aujoin::SynonymGenOptions syn;
  syn.num_rules = 3000;
  syn.seed = kKnowledgeSeed + 1;
  aujoin::RuleSet rules = aujoin::GenerateSynonyms(syn, taxonomy, &vocab);
  if (!aujoin::SaveTaxonomyToTsv(taxonomy, vocab, dir + "/taxonomy.tsv").ok() ||
      !aujoin::SaveRulesToTsv(rules, vocab, dir + "/rules.tsv").ok()) {
    std::fprintf(stderr, "gen: cannot write knowledge files\n");
    return 1;
  }

  const size_t prerun = shape.prerun_checkpointed + shape.prerun_wal;
  const size_t base_strings = shape.s_records + shape.r_fresh + prerun;
  aujoin::CorpusProfile profile = aujoin::CorpusProfile::Med(base_strings);
  if (shape.rare_filler) {
    // Skewed, rare fillers: a large filler vocabulary with zipf 0.65 and
    // few knowledge mentions, so signatures are selective and the probe
    // side carries weight. (At zipf 0.8 the serving tail and the bulk
    // batch time swung by up to 2x between seeds.)
    profile.filler_vocab = 50000;
    profile.zipf_alpha = 0.65;
    profile.entity_mention_prob = 0.1;
    profile.synonym_mention_prob = 0.1;
  }
  // Capping string length keeps a handful of very long records, whose
  // pair graphs dominate verification, from deciding a run's cost.
  profile.max_tokens = 14;
  // The self-join's base strings are fixed across seeds too: how costly
  // one random MED-like corpus is to verify and search moved join_s and
  // the search median by up to a fifth between seeds. The seed drives
  // its planted variants and the schedule.
  if (shape.kind != Kind::kSelfJoin) profile.seed += seed;
  aujoin::GroundTruthOptions truth_options;
  truth_options.seed = seed + 2;
  if (shape.rare_filler) {
    // Milder edits, so a planted variant sits near theta = 0.95 instead
    // of far below it.
    truth_options.typo_prob = 0.05;
  }
  // Variants pick their base uniformly; oversample so enough land in S.
  truth_options.num_pairs =
      shape.kind == Kind::kSelfJoin
          ? shape.self_truth
          : std::min(base_strings,
                     shape.r_variants * base_strings / shape.s_records * 3 / 2 + 16);
  aujoin::CorpusGenerator generator(&vocab, &taxonomy, &rules);
  aujoin::Corpus corpus;
  if (shape.kind == Kind::kSelfJoin) {
    // The self-join corpus is the union of independently seeded parts
    // (each with its own filler pool), which averages out how much one
    // random filler pool happens to overlap in grams.
    const size_t parts = kSelfJoinParts;
    for (size_t j = 0; j < parts; ++j) {
      aujoin::CorpusProfile part = profile;
      part.num_strings = base_strings / parts;
      part.seed = profile.seed * parts + j;
      aujoin::GroundTruthOptions part_truth = truth_options;
      part_truth.num_pairs = shape.self_truth / parts;
      part_truth.seed = truth_options.seed * parts + j;
      aujoin::Corpus c = generator.Generate(part, part_truth);
      const uint32_t offset = static_cast<uint32_t>(corpus.records.size());
      for (const Record& r : c.records) corpus.records.push_back(r);
      for (const Pair& p : c.truth_pairs) {
        corpus.truth_pairs.emplace_back(p.first + offset, p.second + offset);
      }
    }
  } else {
    corpus = generator.Generate(profile, truth_options);
  }

  std::vector<std::string> s_lines, r_lines, prerun_lines;
  std::vector<Pair> truth;
  if (shape.kind == Kind::kSelfJoin) {
    for (const Record& r : corpus.records) s_lines.push_back(r.text);
    truth = corpus.truth_pairs;
  } else {
    for (size_t i = 0; i < shape.s_records; ++i) {
      s_lines.push_back(corpus.records[i].text);
    }
    for (const Pair& p : corpus.truth_pairs) {
      if (r_lines.size() == shape.r_variants) break;
      if (p.first >= shape.s_records) continue;
      truth.emplace_back(static_cast<uint32_t>(r_lines.size()), p.first);
      r_lines.push_back(corpus.records[p.second].text);
    }
    if (r_lines.size() < shape.r_variants) {
      std::fprintf(stderr, "gen: only %zu planted variants\n", r_lines.size());
      return 1;
    }
    for (size_t i = 0; i < shape.r_fresh; ++i) {
      r_lines.push_back(corpus.records[shape.s_records + i].text);
    }
    for (size_t i = 0; i < prerun; ++i) {
      prerun_lines.push_back(corpus.records[shape.s_records + shape.r_fresh + i].text);
    }
  }
  if (!WriteLines(dir + "/s.txt", s_lines) ||
      (!r_lines.empty() && !WriteLines(dir + "/r.txt", r_lines))) {
    std::fprintf(stderr, "gen: cannot write records\n");
    return 1;
  }
  std::vector<std::string> truth_lines;
  for (const Pair& p : truth) {
    truth_lines.push_back(std::to_string(p.first) + "\t" + std::to_string(p.second));
  }
  WriteLines(dir + "/truth.tsv", truth_lines);

  // The open-loop schedule, fixed before the run.
  aujoin::Rng rng(seed * 7919 + 17);
  const double window = shape.request_share * seconds;
  std::vector<Op> ops;
  const size_t s_count = s_lines.size();
  const size_t r_count = r_lines.size();
  // Queries visit each collection in a seeded random order, a full pass
  // before any record repeats, so a run's query mix is close to the
  // whole collection's and its latency median does not hang on which
  // records a short run happened to draw.
  std::vector<uint32_t> s_order(s_count), r_order(r_count);
  for (uint32_t i = 0; i < s_count; ++i) s_order[i] = i;
  for (uint32_t i = 0; i < r_count; ++i) r_order[i] = i;
  rng.Shuffle(&s_order);
  rng.Shuffle(&r_order);
  size_t s_next = 0, r_next = 0;
  AddArrivals(shape.search_rate, window, 'q', &rng,
              [&](Op* op) {
                bool from_s = r_count == 0 || rng.UniformReal() < shape.s_query_share;
                op->collection = from_s ? 'S' : 'R';
                op->index = from_s ? s_order[s_next++ % s_count] : r_order[r_next++ % r_count];
              },
              &ops);
  uint32_t next_append = 0;
  AddArrivals(shape.append_rate, window, 'a', &rng,
              [&](Op* op) {
                op->collection = 'R';
                op->index = next_append++ % static_cast<uint32_t>(std::max<size_t>(r_count, 1));
              },
              &ops);
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Op& a, const Op& b) { return a.due_us < b.due_us; });
  std::vector<std::string> sched;
  for (const Op& op : ops) {
    sched.push_back(std::to_string(op.due_us) + "\t" + op.kind + "\t" +
                    op.collection + "\t" + std::to_string(op.index));
  }
  WriteLines(dir + "/schedule.tsv", sched);

  // Serving state, built through the same public calls a deployment uses.
  if (Served(shape)) {
    Result<Dataset> ds = aujoin::LoadDataset(Spec(dir, true));
    if (!ds.ok()) {
      std::fprintf(stderr, "gen: %s\n", ds.status().ToString().c_str());
      return 1;
    }
    // No auto-checkpoints here: they would fold the WAL tail that the
    // run's set-up is meant to replay into the checkpoint.
    Shape gen_shape = shape;
    gen_shape.wal_checkpoint_bytes = 0;
    Engine engine = MakeEngine(*ds, gen_shape);
    engine.SetRecords(ds->records);
    Status st;
    if (shape.kind == Kind::kServeSharded) {
      st = engine.SaveIndex(dir + "/s.aujsnap");
    } else {
      aujoin::Vocabulary* vocab_ptr = &ds->vocab;
      st = engine.EnableAppend(
          dir + "/wal.log",
          [vocab_ptr](const std::string& text) { return aujoin::MakeRecord(0, text, vocab_ptr); },
          dir + "/base.ckpt");
      for (size_t i = 0; st.ok() && i < prerun; ++i) {
        Result<uint32_t> id = engine.Append(prerun_lines[i]);
        if (!id.ok()) st = id.status();
        if (st.ok() && i + 1 == shape.prerun_checkpointed) {
          st = engine.Checkpoint(dir + "/base.ckpt");
        }
      }
    }
    if (!st.ok()) {
      std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

// ------------------------------------------------------------------ run

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunState {
  Shape shape;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string dir;
  Tracer* tracer = nullptr;

  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex error_mutex;
  std::vector<std::string> errors;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> provenance;

  void Fail(const std::string& what) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(error_mutex);
    if (errors.size() < 20) errors.push_back(what);
  }
  void E2e(const std::string& name, double v, const std::string& unit) {
    e2e[name] = {v, unit};
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    layer[name] = {v, unit};
  }
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Counts matches and checks the MatchSink contract: strictly ascending,
// unique pairs (first < second on self-joins). In traced runs it also
// times the emission itself.
class CheckingSink final : public aujoin::MatchSink {
 public:
  CheckingSink(bool self_join, bool collect, bool timed)
      : self_join_(self_join), collect_(collect), timed_(timed) {}

  bool OnMatch(uint32_t first, uint32_t second) override {
    Clock::time_point t0;
    if (timed_) t0 = Clock::now();
    Pair p(first, second);
    if ((count_ > 0 && !(prev_ < p)) || (self_join_ && first >= second)) {
      ++violations_;
    }
    prev_ = p;
    ++count_;
    if (collect_) pairs_.push_back(p);
    if (timed_) emit_seconds_ += Since(t0);
    return true;
  }

  uint64_t count() const { return count_; }
  uint64_t violations() const { return violations_; }
  double emit_seconds() const { return emit_seconds_; }
  const std::vector<Pair>& pairs() const { return pairs_; }

 private:
  bool self_join_, collect_, timed_;
  Pair prev_{0, 0};
  uint64_t count_ = 0;
  uint64_t violations_ = 0;
  double emit_seconds_ = 0;
  std::vector<Pair> pairs_;
};

// join_s is the median repetition of the bulk phase; the traced run
// reports it too (as trace.join_s) so the tracing overhead can be taken
// against the untraced run. Every repetition goes into the provenance.
void ReportJoinTimes(RunState* st, const std::vector<double>& join_s) {
  st->E2e("join_s", Median(join_s), "s");
  st->Layer("trace.join_s", Median(join_s), "s");
  std::string all;
  for (double j : join_s) all += (all.empty() ? "" : " ") + JsonNumber(j);
  st->provenance["join_reps"] = std::to_string(join_s.size());
  st->provenance["join_s_all"] = all;
}

// Recall and precision of `found` against the expected pair set.
void Quality(RunState* st, const std::vector<Pair>& found, const std::vector<Pair>& expected) {
  std::set<Pair> want(expected.begin(), expected.end());
  size_t hit = 0;
  for (const Pair& p : found) hit += want.count(p);
  st->E2e("recall", want.empty() ? 0 : static_cast<double>(hit) / want.size(), "ratio");
  st->E2e("precision", found.empty() ? 0 : static_cast<double>(hit) / found.size(), "ratio");
}

// Checks one ranked search answer: similarities within [theta, 1],
// descending, ids in range; a query drawn from the served collection
// must find itself unless k ties at similarity 1 crowd it out.
bool CheckAnswer(const std::vector<UnifiedSearcher::Match>& m, const Shape& shape,
                 size_t served, int64_t self_id) {
  for (size_t i = 0; i < m.size(); ++i) {
    if (m[i].similarity < shape.theta - 1e-9 || m[i].similarity > 1 + 1e-9 ||
        m[i].id >= served) {
      return false;
    }
    if (i > 0 && m[i - 1].similarity < m[i].similarity) return false;
  }
  if (self_id < 0) return true;
  for (const auto& x : m) {
    if (x.id == static_cast<uint32_t>(self_id)) return true;
  }
  return m.size() == shape.k && m.back().similarity >= 1 - 1e-9;
}

// Latency and lag summaries of one open-loop run.
void SummarizeRequests(RunState* st, const std::vector<Op>& ops,
                       const std::vector<OpResult>& res) {
  std::vector<double> all, search, append, lag;
  for (size_t i = 0; i < ops.size(); ++i) {
    all.push_back(res[i].latency_ms);
    lag.push_back(res[i].lag_ms);
    (ops[i].kind == 'a' ? append : search).push_back(res[i].latency_ms);
  }
  st->E2e("request_p50_ms", Percentile(all, 50), "ms");
  st->Layer("search.request_p90_ms", Percentile(all, 90), "ms");
  st->Layer("search.query_p50_ms", Percentile(search, 50), "ms");
  st->Layer("search.query_p99_ms", Percentile(search, 99), "ms");
  st->Layer("search.sched_lag_p99_ms", Percentile(lag, 99), "ms");
  st->Layer("storage.append_p50_ms", Percentile(append, 50), "ms");
  st->Layer("storage.append_p99_ms", Percentile(append, 99), "ms");
  st->provenance["requests"] = std::to_string(ops.size());
}

// Replays a seeded sample of candidate pairs through Algorithm 1's
// public steps: segment enumeration, pair-graph build, SquareImp, GetSim
// (msim + Hungarian), then the full Approx with theta early exit; claw
// improvement is what Approx spends beyond the first three steps.
void CoreReplay(RunState* st, const Dataset& ds, const std::vector<Record>& first,
                const std::vector<Record>& second, const std::vector<Pair>& truth) {
  const Shape& shape = st->shape;
  Tracer* tr = st->tracer;
  if (truth.empty()) return;
  ScopedSpan root(tr, "core.replay");
  aujoin::Rng rng(st->seed * 31 + 5);
  std::vector<Record> sample;
  std::set<std::pair<char, uint32_t>> seen;
  for (size_t i = 0; i < truth.size() && sample.size() < 400; ++i) {
    const Pair& p = truth[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(truth.size()) - 1))];
    if (seen.insert({'a', p.first}).second) sample.push_back(first[p.first]);
    if (seen.insert({'b', p.second}).second) sample.push_back(second[p.second]);
  }
  for (size_t i = 0; i < sample.size(); ++i) sample[i].id = static_cast<uint32_t>(i);
  aujoin::MsimOptions msim;
  msim.measures = aujoin::ParseMeasures("TJS");
  msim.q = 3;
  aujoin::JoinContext ctx(ds.knowledge(), msim);
  ctx.Prepare(sample, nullptr);
  aujoin::SignatureOptions sig;
  sig.theta = shape.theta;
  sig.tau = shape.tau;
  std::vector<Pair> cands = ctx.RunFilter(sig).candidates;
  if (cands.size() > 300) {
    for (size_t i = 0; i < 300; ++i) {
      std::swap(cands[i], cands[static_cast<size_t>(rng.Uniform(static_cast<int64_t>(i), static_cast<int64_t>(cands.size()) - 1))]);
    }
    cands.resize(300);
  }
  aujoin::UsimOptions usim;
  usim.msim = msim;
  aujoin::UsimComputer steps(ds.knowledge(), usim), whole(ds.knowledge(), usim);
  double seg = 0, graph = 0, sq = 0, getsim = 0, approx = 0, vertices = 0;
  for (const Pair& c : cands) {
    const Record& a = sample[c.first];
    const Record& b = sample[c.second];
    auto t0 = Clock::now();
    {
      ScopedSpan s(tr, "core.EnumerateSegments", root.id());
      aujoin::EnumerateSegments(a, ds.knowledge());
      aujoin::EnumerateSegments(b, ds.knowledge());
    }
    auto t1 = Clock::now();
    aujoin::PairGraph g;
    {
      ScopedSpan s(tr, "core.BuildPairGraph", root.id());
      g = aujoin::BuildPairGraph(a, b, steps.evaluator(), usim.graph);
    }
    auto t2 = Clock::now();
    std::vector<uint32_t> mis;
    {
      ScopedSpan s(tr, "core.SquareImp", root.id());
      mis = aujoin::SquareImp(g, usim.squareimp);
    }
    auto t3 = Clock::now();
    {
      ScopedSpan s(tr, "core.GetSim", root.id());
      steps.GetSim(a, b, g, mis);
    }
    auto t4 = Clock::now();
    {
      ScopedSpan s(tr, "core.Approx", root.id());
      whole.Approx(a, b, shape.theta);
    }
    auto t5 = Clock::now();
    auto sec = [](Clock::time_point x, Clock::time_point y) {
      return std::chrono::duration<double>(y - x).count();
    };
    seg += sec(t0, t1);
    graph += sec(t1, t2);
    sq += sec(t2, t3);
    getsim += sec(t3, t4);
    approx += sec(t4, t5);
    vertices += static_cast<double>(g.num_vertices());
  }
  const double n = std::max<double>(1, static_cast<double>(cands.size()));
  st->Layer("core.replay_pairs", static_cast<double>(cands.size()), "count");
  st->Layer("core.segments_s", seg, "s");
  st->Layer("core.pair_graph_s", graph, "s");
  st->Layer("core.pair_graph_vertices", vertices / n, "count");
  st->Layer("core.squareimp_s", sq, "s");
  st->Layer("core.getsim_s", getsim, "s");
  st->Layer("core.approx_s", approx, "s");
  st->Layer("core.claw_s", std::max(0.0, approx - graph - sq - getsim), "s");
}

// Total (record, segment) gram sets the verify caches would hold for
// the workload's records, against the engine's cache threshold.
void GramSets(RunState* st, const Dataset& ds) {
  ScopedSpan span(st->tracer, "core.segment_gramsets");
  double total = 0;
  for (const auto* coll : {&ds.records, &ds.records2}) {
    for (const Record& r : *coll) {
      total += static_cast<double>(aujoin::EnumerateSegments(r, ds.knowledge()).size());
    }
  }
  st->Layer("core.segment_gramsets", total, "count");
  st->Layer("core.gramsets_per_cache",
            total / static_cast<double>(aujoin::EngineOptions{}.cache_evict_threshold), "ratio");
}

double PebblesPerRecord(const aujoin::PreparedIndex& index) {
  double pebbles = 0;
  for (const auto& p : index.t_prepared()) pebbles += static_cast<double>(p.pebbles.pebbles.size());
  return index.t_prepared().empty() ? 0 : pebbles / static_cast<double>(index.t_prepared().size());
}

// Searches per request worker run untimed before the open loop.
constexpr size_t kWarmUpPerWorker = 16;

// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupReps = 15;

// Ingest: the timed LoadDataset call.
std::unique_ptr<Dataset> Ingest(RunState* st, int parent, double* seconds) {
  ScopedSpan span(st->tracer, "dataset.LoadDataset", parent);
  auto t0 = Clock::now();
  Result<Dataset> ds = aujoin::LoadDataset(Spec(st->dir, st->shape.kind != Kind::kSelfJoin));
  *seconds = Since(t0);
  if (!ds.ok()) {
    std::fprintf(stderr, "run: %s\n", ds.status().ToString().c_str());
    std::exit(2);
  }
  return std::make_unique<Dataset>(std::move(*ds));
}

void ReportIngest(RunState* st, const std::vector<double>& load_s, const Dataset& ds) {
  double load = Median(load_s);
  double records = static_cast<double>(ds.records.size() + ds.records2.size());
  st->Layer("dataset.load_s", load, "s");
  st->Layer("dataset.records_per_s", load > 0 ? records / load : 0, "1/s");
  st->provenance["records"] = std::to_string(static_cast<uint64_t>(records));
}

// The open-loop search request of one op against `engine`.
struct SearchCounters {
  std::atomic<uint64_t> queries{0}, candidates{0}, results{0};
  std::atomic<double> index_seconds{0};
};

bool RunSearch(RunState* st, const Engine& engine, const Dataset& ds, const Op& op,
               size_t served, bool s_is_served, SearchCounters* counters) {
  const Record& q = op.collection == 'S' ? ds.records[op.index] : ds.records2[op.index];
  aujoin::SearchStats stats;
  ScopedSpan span(st->tracer, "search.TopK");
  Result<std::vector<UnifiedSearcher::Match>> m =
      engine.Search(q, SearchOptions(st->shape), &stats);
  span.End();
  st->attempted.fetch_add(1);
  counters->queries.fetch_add(stats.queries);
  counters->candidates.fetch_add(stats.query_candidates);
  counters->results.fetch_add(stats.results);
  double cur = counters->index_seconds.load();
  while (!counters->index_seconds.compare_exchange_weak(cur, cur + stats.index_seconds)) {
  }
  int64_t self = op.collection == 'S' && s_is_served ? static_cast<int64_t>(op.index) : -1;
  if (!m.ok() || !CheckAnswer(*m, st->shape, served, self)) {
    std::string got;
    if (m.ok()) {
      for (const auto& x : *m) got += " " + std::to_string(x.id) + "@" + std::to_string(x.similarity);
    }
    st->Fail("search " + std::string(1, op.collection) + std::to_string(op.index) +
             (m.ok() ? ": wrong answer:" + got : ": " + m.status().ToString()));
    return false;
  }
  return true;
}

void ReportSearchCounters(RunState* st, const SearchCounters& c) {
  double q = static_cast<double>(c.queries.load());
  double cand = static_cast<double>(c.candidates.load());
  st->Layer("search.candidates_per_query", q > 0 ? cand / q : 0, "count");
  st->Layer("search.results_per_candidate",
            cand > 0 ? static_cast<double>(c.results.load()) / cand : 0, "ratio");
}

// ----------------------------------------------------- join workloads

void RunJoin(RunState* st) {
  const Shape& shape = st->shape;
  Tracer* tr = st->tracer;
  const bool rs = shape.kind == Kind::kRsJoin;
  const std::vector<Pair> truth = ReadPairs(st->dir + "/truth.tsv");
  const std::vector<Op> ops = ReadSchedule(st->dir + "/schedule.tsv");

  // Set-up: inputs on disk -> an engine ready to join (ingest, plus the
  // forced prepare on the monolithic path; sharded joins prepare per
  // block inside the join).
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<Engine> engine;
  std::vector<double> setup_s, load_s, prepare_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    ds.reset();
    ScopedSpan span(tr, "setup");
    auto t0 = Clock::now();
    double load = 0;
    ds = Ingest(st, span.id(), &load);
    engine = std::make_unique<Engine>(MakeEngine(*ds, shape));
    if (rs) {
      engine->SetRecords(ds->records2, &ds->records);
    } else {
      engine->SetRecords(ds->records);
      ScopedSpan prep(tr, "index.Prepare", span.id());
      auto p0 = Clock::now();
      if (!engine->ServingIndex().ok()) st->Fail("prepare");
      prepare_s.push_back(Since(p0));
    }
    setup_s.push_back(Since(t0));
    load_s.push_back(load);
  }
  st->E2e("setup_s", Median(setup_s), "s");
  ReportIngest(st, load_s, *ds);
  st->Layer("index.prepare_s", Median(prepare_s), "s");
  st->Layer("index.pebbles_per_record",
            rs ? 0 : PebblesPerRecord(**engine->ServingIndex()), "count");

  // Bulk phase: the join, repeated, into a checking counting sink.
  const std::vector<Record>& first = rs ? ds->records2 : ds->records;
  const std::vector<Record>& second = ds->records;
  aujoin::EngineJoinOptions jo;
  jo.theta = shape.theta;
  jo.tau = shape.tau;
  const auto deadline = Clock::now() + std::chrono::duration<double>(
                                           st->seconds * (1 - shape.request_share));
  std::vector<double> join_s;
  std::vector<aujoin::JoinStats> stats;
  std::vector<double> emit_s;
  std::vector<Pair> pairs;
  uint64_t expected_count = 0;
  while (join_s.size() < 2 || (Clock::now() < deadline && join_s.size() < 50)) {
    const bool first_rep = join_s.empty();
    CheckingSink sink(!rs, first_rep, st->trace);
    ScopedSpan span(tr, "join.Join");
    auto t0 = Clock::now();
    Result<aujoin::JoinStats> js = engine->Join("unified", jo, &sink);
    double wall = Since(t0);
    st->attempted.fetch_add(1);
    if (!js.ok()) {
      st->Fail("join: " + js.status().ToString());
      break;
    }
    if (st->trace) {
      if (rs) tr->AddAggregate("index.block_prepare", js->prepare_seconds, span.id());
      tr->AddAggregate("join.signature", js->signature_seconds, span.id());
      tr->AddAggregate("join.probe", js->filter_seconds, span.id());
      tr->AddAggregate("join.verify", js->verify_seconds, span.id());
      tr->AddAggregate("join.emit", sink.emit_seconds(), span.id());
    }
    span.End();
    if (first_rep) {
      pairs = sink.pairs();
      expected_count = sink.count();
    }
    if (sink.violations() > 0 || sink.count() != expected_count ||
        js->results != sink.count()) {
      st->Fail("join emitted out-of-order, duplicate or differing pairs");
    }
    join_s.push_back(wall);
    stats.push_back(*js);
    emit_s.push_back(sink.emit_seconds());
  }
  ReportJoinTimes(st, join_s);

  // Every emitted pair scores >= theta again under a fresh computer.
  {
    aujoin::UsimOptions usim;
    usim.msim = engine->options().msim;
    aujoin::UsimComputer fresh(ds->knowledge(), usim);
    size_t bad = 0;
    for (const Pair& p : pairs) {
      if (fresh.Approx(first[p.first], second[p.second]) < shape.theta - 1e-9) ++bad;
    }
    if (bad > 0) st->Fail(std::to_string(bad) + " join pairs score below theta");
  }
  std::vector<Pair> expected = truth;
  if (!rs) {
    for (Pair& p : expected) {
      if (p.first > p.second) std::swap(p.first, p.second);
    }
  }
  Quality(st, pairs, expected);

  // The median-wall repetition's own phase accounting.
  size_t mid = 0;
  {
    std::vector<size_t> order(join_s.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) { return join_s[a] < join_s[b]; });
    mid = order[order.size() / 2];
  }
  const aujoin::JoinStats& js = stats[mid];
  const double verify_pairs = static_cast<double>(js.candidates);
  st->Layer("join.signature_s", js.signature_seconds, "s");
  st->Layer("join.signature_pebbles", js.avg_signature_pebbles, "count");
  st->Layer("join.probe_s", js.filter_seconds, "s");
  st->Layer("join.processed_pairs", static_cast<double>(js.processed_pairs), "count");
  st->Layer("join.candidates", verify_pairs, "count");
  st->Layer("join.candidate_rate",
            js.processed_pairs > 0 ? verify_pairs / static_cast<double>(js.processed_pairs) : 0,
            "ratio");
  st->Layer("join.verify_s", js.verify_seconds, "s");
  st->Layer("join.verify_pairs_per_s", js.verify_seconds > 0 ? verify_pairs / js.verify_seconds : 0,
            "1/s");
  st->Layer("join.verify_yield",
            verify_pairs > 0 ? static_cast<double>(js.results) / verify_pairs : 0, "ratio");
  st->Layer("join.emit_s", emit_s[mid], "s");
  // Coverage: the phases the library times, over the join's wall time.
  // Blocks run one per worker on the sharded path, so their phase sums
  // are set against wall time times workers.
  const double busy = (rs ? js.prepare_seconds : 0) + js.signature_seconds + js.filter_seconds +
                      js.verify_seconds + emit_s[mid];
  const double capacity = join_s[mid] * (rs ? shape.engine_threads : 1);
  st->Layer("join.coverage", capacity > 0 ? busy / capacity : 0, "ratio");
  st->Layer("shard.blocks", static_cast<double>(js.partition_blocks), "count");
  st->Layer("shard.prepare_s_sum", rs ? js.prepare_seconds : 0, "s");
  st->Layer("shard.signature_s_sum", rs ? js.signature_seconds : 0, "s");

  // Request phase: open-loop searches over the joined collections. The
  // monolithic engine that joined serves them itself. The sharded join
  // engine scatters every search over a transient pool of its 4 threads,
  // so its searches go to a second engine with one thread per request
  // (the serving policy of Engine::BatchSearch: parallel requests, no
  // pool inside a pool), which keeps the process within nproc threads.
  SearchCounters counters;
  const size_t served = second.size();
  const Engine* serving = engine.get();
  std::unique_ptr<Engine> sharded_serving;
  if (rs) {
    Shape serve_shape = shape;
    serve_shape.engine_threads = 1;
    sharded_serving = std::make_unique<Engine>(MakeEngine(*ds, serve_shape));
    sharded_serving->SetRecords(first, &second);
    serving = sharded_serving.get();
    // Sharded serving builds each shard's index on its first probe; the
    // build is set-up for this phase, not a request.
    ScopedSpan span(tr, "shard.Build");
    auto t0 = Clock::now();
    if (!serving->Search(first[0], SearchOptions(shape)).ok()) st->Fail("shard build");
    st->Layer("shard.mount_s", Since(t0), "s");
  } else {
    st->Layer("shard.mount_s", 0, "s");
  }
  auto search_fn = [&](size_t i) { return RunSearch(st, *serving, *ds, ops[i], served, !rs, &counters); };
  RunWarmUp(ops, kWarmUpPerWorker * static_cast<size_t>(shape.search_workers), shape.search_workers,
            search_fn);
  std::vector<OpResult> res = RunOpenLoop(ops, shape.search_workers, search_fn);
  SummarizeRequests(st, ops, res);
  ReportSearchCounters(st, counters);
  const aujoin::ShardedIndex* sharded = serving->sharded_index();
  st->Layer("shard.resident_end", sharded ? static_cast<double>(sharded->num_resident_shards()) : 0,
            "count");
  st->Layer("shard.first_query_ms", 0, "ms");
  st->Layer("shard.resident_first", 0, "count");

  if (st->trace) {
    GramSets(st, *ds);
    CoreReplay(st, *ds, first, second, rs ? truth : expected);
  }
}

// --------------------------------------------------- serving workloads

// The bulk phase of a serving workload spreads its batch over this many
// threads, in chunks of this many queries.
constexpr int kBulkWorkers = 4;
constexpr size_t kBulkChunk = 16;

void RunServe(RunState* st) {
  const Shape& shape = st->shape;
  Tracer* tr = st->tracer;
  const bool append = shape.kind == Kind::kServeAppend;
  const std::vector<Pair> truth = ReadPairs(st->dir + "/truth.tsv");  // (R, S)
  const std::vector<Op> ops = ReadSchedule(st->dir + "/schedule.tsv");
  const std::string wal = st->dir + "/live.wal";
  const std::string ckpt = st->dir + "/live.ckpt";

  std::unique_ptr<Dataset> ds;
  std::unique_ptr<Engine> engine;
  std::unordered_map<std::string, uint32_t> append_index;  // text -> R index
  std::atomic<bool> serving{false};
  std::atomic<uint64_t> interned_while_serving{0};
  // Appends are tokenised before the run (they are the R collection of
  // the dataset): Vocabulary::Intern is not safe beside concurrent
  // searches, so the factory interns only during single-threaded replay.
  auto factory_for = [&](Dataset* d) {
    return [d, &append_index, &serving, &interned_while_serving](const std::string& text) {
      auto it = append_index.find(text);
      if (it != append_index.end()) return d->records2[it->second];
      if (serving.load()) interned_while_serving.fetch_add(1);
      return aujoin::MakeRecord(0, text, &d->vocab);
    };
  };

  // Set-up: inputs on disk -> an engine ready to serve: ingest, then the
  // snapshot mount (serve_sharded) or checkpoint mount plus WAL replay
  // (serve_append). Traced runs add one mount-only set-up to split
  // checkpoint mount from WAL replay.
  std::vector<double> setup_s, load_s, storage_s;
  double mount_only_s = 0;
  const int setups = append && st->trace ? kSetupReps + 1 : kSetupReps;
  for (int rep = 0; rep < setups; ++rep) {
    engine.reset();
    ds.reset();
    const bool mount_only = append && st->trace && rep == 0;
    if (append) {
      std::error_code ec;
      fs::remove(wal, ec);
      if (!CopyFile(st->dir + "/base.ckpt", ckpt) ||
          (!mount_only && !CopyFile(st->dir + "/wal.log", wal))) {
        st->Fail("cannot stage checkpoint and WAL");
        return;
      }
    }
    ScopedSpan span(tr, "setup");
    auto t0 = Clock::now();
    double load = 0;
    ds = Ingest(st, span.id(), &load);
    engine = std::make_unique<Engine>(MakeEngine(*ds, shape));
    engine->SetRecords(ds->records);
    auto s0 = Clock::now();
    Status status;
    if (append) {
      append_index.clear();
      for (uint32_t i = 0; i < ds->records2.size(); ++i) append_index.emplace(ds->records2[i].text, i);
      ScopedSpan s(tr, "storage.EnableAppend", span.id());
      status = engine->EnableAppend(wal, factory_for(ds.get()), ckpt);
    } else {
      ScopedSpan s(tr, "storage.LoadIndex", span.id());
      status = engine->LoadIndex(st->dir + "/s.aujsnap");
    }
    if (!status.ok()) {
      st->Fail("mount: " + status.ToString());
      return;
    }
    if (mount_only) {
      mount_only_s = Since(s0);
      continue;
    }
    storage_s.push_back(Since(s0));
    setup_s.push_back(Since(t0));
    load_s.push_back(load);
  }
  st->E2e("setup_s", Median(setup_s), "s");
  ReportIngest(st, load_s, *ds);
  st->Layer("index.prepare_s", 0, "s");
  if (append) {
    st->Layer("storage.snapshot_load_s", mount_only_s, "s");
    st->Layer("storage.wal_replay_s", std::max(0.0, Median(storage_s) - mount_only_s), "s");
    st->Layer("storage.wal_recovered", static_cast<double>(engine->wal_recovered_records()), "count");
  } else {
    st->Layer("storage.snapshot_load_s", Median(storage_s), "s");
    st->Layer("storage.wal_replay_s", 0, "s");
    st->Layer("storage.wal_recovered", 0, "count");
  }

  // Request phase: open-loop searches (and appends from one appender).
  const size_t base_count = append ? engine->generational_index()->size() : ds->records.size();
  std::vector<Op> search_ops, append_ops;
  for (const Op& op : ops) (op.kind == 'a' ? append_ops : search_ops).push_back(op);
  SearchCounters counters;
  std::atomic<size_t> staged_peak{0};
  std::vector<uint32_t> acked(append_ops.size(), UINT32_MAX);
  std::atomic<double> first_query_ms{0};
  std::atomic<size_t> resident_first{0};
  serving.store(true);
  auto search_fn = [&](size_t i) {
    bool ok = RunSearch(st, *engine, *ds, search_ops[i], append ? SIZE_MAX : ds->records.size(),
                        true, &counters);
    if (i == 0 && engine->sharded_index() != nullptr) {
      resident_first.store(engine->sharded_index()->num_resident_shards());
    }
    return ok;
  };
  auto append_fn = [&](size_t i) {
    const std::string& text = ds->records2[append_ops[i].index].text;
    ScopedSpan span(tr, "storage.Append");
    Result<uint32_t> id = engine->Append(text);
    span.End();
    st->attempted.fetch_add(1);
    const uint32_t want = static_cast<uint32_t>(base_count + i);
    if (!id.ok() || *id != want || !engine->auto_checkpoint_status().ok()) {
      st->Fail("append " + std::to_string(i) + (id.ok() ? ": wrong id or checkpoint failure"
                                                         : ": " + id.status().ToString()));
      return false;
    }
    acked[i] = *id;
    size_t staged = engine->generational_index()->num_staged();
    size_t peak = staged_peak.load();
    while (staged > peak && !staged_peak.compare_exchange_weak(peak, staged)) {
    }
    return true;
  };
  // The warm-up's first search is the cold start's first query: on
  // serve_sharded it mounts the shards.
  std::vector<OpResult> warm = RunWarmUp(
      search_ops, kWarmUpPerWorker * static_cast<size_t>(shape.search_workers),
      shape.search_workers, search_fn);
  if (!warm.empty()) first_query_ms.store(warm[0].latency_ms);
  std::vector<OpResult> append_res;
  std::thread appender([&] { append_res = RunOpenLoop(append_ops, 1, append_fn); });
  std::vector<OpResult> search_res = RunOpenLoop(search_ops, shape.search_workers, search_fn);
  appender.join();
  serving.store(false);
  std::vector<Op> all_ops = search_ops;
  std::vector<OpResult> all_res = search_res;
  all_ops.insert(all_ops.end(), append_ops.begin(), append_ops.end());
  all_res.insert(all_res.end(), append_res.begin(), append_res.end());
  SummarizeRequests(st, all_ops, all_res);
  ReportSearchCounters(st, counters);
  if (interned_while_serving.load() > 0) st->Fail("append text was not pre-tokenised");
  const aujoin::ShardedIndex* sharded = engine->sharded_index();
  st->Layer("shard.mount_s", counters.index_seconds.load(), "s");
  st->Layer("shard.first_query_ms", sharded ? first_query_ms.load() : 0, "ms");
  st->Layer("shard.resident_first", static_cast<double>(resident_first.load()), "count");
  st->Layer("shard.resident_end", sharded ? static_cast<double>(sharded->num_resident_shards()) : 0,
            "count");

  // Bulk phase: every scheduled query as one batch (an R×S join of the
  // queries against the served collection), repeated.
  std::vector<Record> queries;
  std::vector<int64_t> query_self;  // served id the query must find, or -1
  std::vector<uint32_t> query_r;    // R index of the query, or UINT32_MAX
  for (const Op& op : search_ops) {
    queries.push_back(op.collection == 'S' ? ds->records[op.index] : ds->records2[op.index]);
    query_self.push_back(op.collection == 'S' ? static_cast<int64_t>(op.index) : -1);
    query_r.push_back(op.collection == 'R' ? op.index : UINT32_MAX);
  }
  const auto deadline = Clock::now() + std::chrono::duration<double>(
                                           st->seconds * (1 - shape.request_share));
  std::vector<double> join_s;
  std::vector<std::vector<UnifiedSearcher::Match>> answers;
  // The engine serves with one thread per call, so the batch is cut into
  // small chunks that kBulkWorkers threads take in turn, each answered
  // by its own BatchSearch call. Taking chunks in turn keeps a few very
  // costly queries from deciding the batch's wall time through one
  // overloaded thread.
  std::vector<std::vector<Record>> chunks;
  for (size_t lo = 0; lo < queries.size(); lo += kBulkChunk) {
    chunks.emplace_back(queries.begin() + static_cast<std::ptrdiff_t>(lo),
                        queries.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(queries.size(), lo + kBulkChunk)));
  }
  while (join_s.empty() || (Clock::now() < deadline && join_s.size() < 50)) {
    std::vector<std::vector<UnifiedSearcher::Match>> got(queries.size());
    const size_t slices = static_cast<size_t>(kBulkWorkers);
    std::vector<Status> status(slices);
    std::atomic<size_t> next_chunk{0};
    ScopedSpan span(tr, "search.Batch");
    auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t w = 0; w < slices; ++w) {
      threads.emplace_back([&, w] {
        for (size_t c = next_chunk.fetch_add(1); c < chunks.size(); c = next_chunk.fetch_add(1)) {
          const size_t lo = c * kBulkChunk;
          ScopedSpan call(tr, "search.BatchSearch", span.id());
          Status s = engine->BatchSearch(chunks[c], SearchOptions(shape),
                                         [&got, lo](uint32_t q, const UnifiedSearcher::Match& m) {
                                           got[lo + q].push_back(m);
                                           return true;
                                         });
          if (!s.ok()) status[w] = s;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    join_s.push_back(Since(t0));
    span.End();
    st->attempted.fetch_add(1);
    bool failed = false;
    for (const Status& s : status) {
      if (!s.ok() && !failed) {
        st->Fail("batch search: " + s.ToString());
        failed = true;
      }
    }
    if (failed) break;
    if (answers.empty()) {
      answers = std::move(got);
    } else if (got != answers) {
      st->Fail("batch search answers differ between repetitions");
    }
  }
  ReportJoinTimes(st, join_s);
  answers.resize(queries.size());

  // Expected answers: the query itself when it is a served record, its
  // planted partner when it is a planted R variant, and (serve_append)
  // every acknowledged append planted as a variant of it.
  std::map<uint32_t, uint32_t> r_partner(truth.begin(), truth.end());
  std::map<uint32_t, std::vector<uint32_t>> appended_variants;
  if (append) {
    for (size_t i = 0; i < append_ops.size(); ++i) {
      auto it = r_partner.find(append_ops[i].index);
      if (it != r_partner.end() && acked[i] != UINT32_MAX) appended_variants[it->second].push_back(acked[i]);
    }
  }
  std::vector<Pair> found, expected;
  for (size_t q = 0; q < queries.size(); ++q) {
    const uint32_t qid = static_cast<uint32_t>(q);
    if (!CheckAnswer(answers[q], shape, append ? SIZE_MAX : ds->records.size(), query_self[q])) {
      st->Fail("batch answer " + std::to_string(q));
    }
    for (const auto& m : answers[q]) found.emplace_back(qid, m.id);
    if (query_self[q] >= 0) {
      expected.emplace_back(qid, static_cast<uint32_t>(query_self[q]));
      for (uint32_t v : appended_variants[static_cast<uint32_t>(query_self[q])]) expected.emplace_back(qid, v);
    }
    if (query_r[q] != UINT32_MAX && !append) {
      auto it = r_partner.find(query_r[q]);
      if (it != r_partner.end()) expected.emplace_back(qid, it->second);
    }
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
  Quality(st, found, expected);

  if (!append) {
    // A fixed sample of answers must match a monolithic searcher built
    // off the clock.
    std::shared_ptr<const aujoin::PreparedIndex> mono = aujoin::PreparedIndex::Build(
        ds->knowledge(), engine->options().msim, ds->records, nullptr);
    UnifiedSearcher searcher(mono);
    UnifiedSearcher::SearchOptions so;
    so.theta = shape.theta;
    so.tau = shape.tau;
    for (size_t q = 0; q < queries.size() && q < 64; ++q) {
      if (searcher.TopK(queries[q], shape.k, shape.theta, so) != answers[q]) {
        st->Fail("sharded answer " + std::to_string(q) + " differs from the monolithic searcher");
      }
    }
    double pebbles = 0;
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      Result<std::shared_ptr<const aujoin::PreparedIndex>> idx = sharded->ShardIndex(s);
      if (idx.ok()) pebbles += PebblesPerRecord(**idx) * static_cast<double>((*idx)->t_records().size());
    }
    st->Layer("index.pebbles_per_record", pebbles / static_cast<double>(ds->records.size()), "count");
    for (const char* m : {"storage.append_p50_ms", "storage.append_p99_ms"}) st->Layer(m, 0, "ms");
    for (const char* m : {"storage.wal_bytes_per_user_byte", "storage.checkpoint_bytes_per_user_byte"}) {
      st->Layer(m, 0, "ratio");
    }
    for (const char* m : {"storage.auto_checkpoints", "storage.generations", "storage.staged_peak"}) {
      st->Layer(m, 0, "count");
    }
  } else {
    const aujoin::GenerationalIndex* gen = engine->generational_index();
    st->Layer("index.pebbles_per_record", PebblesPerRecord(*gen->frozen_index()), "count");
    st->Layer("storage.auto_checkpoints", static_cast<double>(engine->auto_checkpoints()), "count");
    st->Layer("storage.generations", static_cast<double>(gen->generation()), "count");
    st->Layer("storage.staged_peak", static_cast<double>(staged_peak.load()), "count");

    // Every acknowledged append is found by a search for its text.
    std::vector<Record> appended;
    std::vector<uint32_t> appended_ids;
    for (size_t i = 0; i < append_ops.size(); ++i) {
      if (acked[i] == UINT32_MAX) continue;
      appended.push_back(ds->records2[append_ops[i].index]);
      appended_ids.push_back(acked[i]);
    }
    aujoin::EngineSearchOptions all = SearchOptions(shape);
    all.k = 0;
    std::vector<char> seen(appended.size(), 0);
    Status s = engine->BatchSearch(appended, all, [&](uint32_t q, const UnifiedSearcher::Match& m) {
      if (m.id == appended_ids[q]) seen[q] = 1;
      return true;
    });
    size_t missing = static_cast<size_t>(std::count(seen.begin(), seen.end(), 0));
    if (!s.ok() || missing > 0) st->Fail(std::to_string(missing) + " acknowledged appends not found");

    // Storage amplification: WAL tail and checkpoint bytes over the user
    // text bytes they hold.
    Result<aujoin::WalReplay> replay = aujoin::WalReader::ReadAll(aujoin::Env::Default(), wal);
    double wal_user = 0;
    if (replay.ok()) {
      for (const std::string& payload : replay->records) {
        uint32_t id = 0;
        std::string_view text;
        if (aujoin::DecodeWalAppend(payload, &id, &text)) wal_user += static_cast<double>(text.size());
      }
    }
    st->Layer("storage.wal_bytes_per_user_byte",
              replay.ok() && wal_user > 0 ? static_cast<double>(replay->valid_bytes) / wal_user : 0,
              "ratio");
    double ckpt_user = 0;
    for (uint32_t id = 0; id < gen->num_frozen(); ++id) ckpt_user += static_cast<double>(gen->TextOf(id).size());
    std::error_code ec;
    double ckpt_bytes = static_cast<double>(fs::file_size(ckpt, ec));
    st->Layer("storage.checkpoint_bytes_per_user_byte", ckpt_user > 0 && !ec ? ckpt_bytes / ckpt_user : 0,
              "ratio");

    // Reopening the checkpoint plus WAL recovers exactly the acknowledged
    // records.
    const size_t want = base_count + static_cast<size_t>(std::count_if(
                                         acked.begin(), acked.end(), [](uint32_t a) { return a != UINT32_MAX; }));
    engine.reset();
    std::unique_ptr<Dataset> ds2;
    double ignored = 0;
    ds2 = Ingest(st, -1, &ignored);
    append_index.clear();
    for (uint32_t i = 0; i < ds2->records2.size(); ++i) append_index.emplace(ds2->records2[i].text, i);
    Engine reopened = MakeEngine(*ds2, shape);
    reopened.SetRecords(ds2->records);
    Status rs = reopened.EnableAppend(wal, factory_for(ds2.get()), ckpt);
    if (!rs.ok() || reopened.generational_index()->size() != want) {
      st->Fail("recovery found " +
               (rs.ok() ? std::to_string(reopened.generational_index()->size()) : rs.ToString()) +
               " records, want " + std::to_string(want));
    }
  }

  if (st->trace && ds != nullptr) {
    GramSets(st, *ds);
    CoreReplay(st, *ds, ds->records2, ds->records, truth);
  }
  for (const char* m : {"join.signature_s", "join.probe_s", "join.verify_s", "join.emit_s",
                        "shard.prepare_s_sum", "shard.signature_s_sum"}) {
    st->Layer(m, 0, "s");
  }
  for (const char* m : {"join.signature_pebbles", "join.processed_pairs", "join.candidates",
                        "shard.blocks"}) {
    st->Layer(m, 0, "count");
  }
  for (const char* m : {"join.candidate_rate", "join.verify_yield", "join.coverage"}) st->Layer(m, 0, "ratio");
  st->Layer("join.verify_pairs_per_s", 0, "1/s");
}

// Per-layer metrics a join workload has no storage activity for.
void ZeroStorage(RunState* st) {
  for (const char* m : {"storage.snapshot_load_s", "storage.wal_replay_s"}) st->Layer(m, 0, "s");
  for (const char* m : {"storage.wal_recovered", "storage.auto_checkpoints", "storage.generations",
                        "storage.staged_peak"}) {
    st->Layer(m, 0, "count");
  }
  for (const char* m : {"storage.wal_bytes_per_user_byte", "storage.checkpoint_bytes_per_user_byte"}) {
    st->Layer(m, 0, "ratio");
  }
}


std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Run(RunState* st) {
  if (st->shape.kind == Kind::kSelfJoin || st->shape.kind == Kind::kRsJoin) {
    RunJoin(st);
    ZeroStorage(st);
  } else {
    RunServe(st);
  }
  st->E2e("peak_rss_mb", PeakRssMb(), "MB");
  st->Layer("trace.spans", static_cast<double>(st->tracer->size()), "count");

  st->provenance["workload"] = st->shape.name;
  st->provenance["seed"] = std::to_string(st->seed);
  st->provenance["seconds"] = JsonNumber(st->seconds);
  st->provenance["engine_threads"] = std::to_string(st->shape.engine_threads);
  st->provenance["request_workers"] = std::to_string(
      st->shape.search_workers + (st->shape.append_rate > 0 ? 1 : 0));
  st->provenance["nproc"] = std::to_string(std::thread::hardware_concurrency());
  st->provenance["kernel"] = aujoin::ActiveKernel().name;
  st->provenance["shards"] = std::to_string(st->shape.shards);

  if (st->trace) {
    std::vector<std::pair<std::string, std::string>> meta(st->provenance.begin(),
                                                          st->provenance.end());
    for (const auto& [layer, self] : st->tracer->LayerSelfSeconds()) {
      std::printf("self_time %s %.6f s\n", layer.c_str(), self);
      meta.emplace_back("self_s." + layer, JsonNumber(self));
    }
    std::string path = st->dir + "/../trace-" + st->shape.name + "-" + std::to_string(st->seed) + ".json";
    if (!st->tracer->WriteChrome(path, meta)) st->Fail("cannot write the trace file");
  }
  for (const std::string& e : st->errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());

  std::string prov = "{";
  for (const auto& [k, v] : st->provenance) {
    prov += (prov.size() > 1 ? "," : "") + JsonString(k) + ":" + JsonString(v);
  }
  std::printf("provenance %s}\n", prov.c_str());
  const auto& metrics = st->trace ? st->layer : st->e2e;
  std::string out = "{\"correct\": ";
  out += st->failed.load() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, st->attempted.load()));
  out += ", \"failed\": " + std::to_string(st->failed.load());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace aubench

int main(int argc, char** argv) {
  using namespace aubench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: aubench gen|run --workload W --seed N --seconds S [--trace 0|1] --dir D\n");
    return 2;
  }
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  const std::string mode = argv[1];
  Shape shape = GetShape(args["workload"]);
  if (shape.name.empty() || args["dir"].empty()) {
    std::fprintf(stderr, "unknown workload '%s' or missing --dir\n", args["workload"].c_str());
    return 2;
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = args.count("seconds") ? std::atof(args["seconds"].c_str()) : 10.0;
  if (mode == "gen") return Gen(shape, seed, seconds, args["dir"]);
  if (mode != "run") {
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  }
  Tracer tracer(args["trace"] == "1");
  RunState st;
  st.shape = shape;
  st.seed = seed;
  st.seconds = seconds;
  st.trace = tracer.enabled();
  st.dir = args["dir"];
  st.tracer = &tracer;
  return Run(&st);
}
