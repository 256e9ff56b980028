// perfbench_tool — the benchmark's in-process half. run.py drives the
// shipped netout_serve over the wire; this tool makes the seeded request
// streams, computes the answers the served bytes must equal, and replays
// a stream in-process with a span around every call into a layer.
//
//   perfbench_tool prepare GRAPH.hin OUT_DIR --seed=N
//   perfbench_tool expect GRAPH.hin QUERIES.ndjson OUT.jsonl
//                  [--mutations=STREAM.ndjson --mutation-ops=N]
//   perfbench_tool trace --graph=PATH [--graph-budget-mb=N] --pm=IDX
//                  [--cache-mb=N] --requests=A.ndjson[,B] --spans=OUT
//
// `prepare` writes: pool.ndjson (distinct uniform-anchor Q1/Q2/Q3
// requests), mixed.ndjson (a long stream drawn from the pool, templates
// in equal shares), writes.ndjson (add_edge between existing authors and
// papers), ingest.ndjson (Zipf(1.1) anchors, every tenth op a write) and
// probes.ndjson (the ingest verification probe set).
//
// `expect` stages the add_edge ops among the first N lines of a stream
// onto a MutableHin, commits once, and answers every query line with a
// traversal Engine (no index), one QueryResultToJson line per query.
//
// `trace` loads the graph and PM file, then replays request lines (with
// --cache-mb, queries use the PM behind a row cache of that size, as
// netout_serve --pm --cache does; without, they traverse): each
// line gets a root span with children for ParseRequest, ParseQuery,
// AnalyzeQuery, Planner::AddQuery+Take, Engine::Execute and
// QueryResultToJson (queries) or MutableHin::Commit, PmIndex::ApplyDelta
// and CachedIndex::BeginEpoch (mutations). Spans stay in memory and are
// written as NDJSON at the end; stdout gets a one-line JSON summary.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "datagen/workload.h"
#include "graph/delta.h"
#include "graph/io.h"
#include "graph/segment.h"
#include "index/cached_index.h"
#include "index/incremental.h"
#include "index/serialize.h"
#include "query/analyzer.h"
#include "query/batch.h"
#include "query/engine.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/result_json.h"
#include "server/protocol.h"
#include "tools/tool_util.h"

namespace {

using namespace netout;
using namespace netout::tools;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPoolPerTemplate = 1000;
constexpr std::size_t kMixedStreamOps = 60000;
constexpr std::size_t kWriteOps = 4000;
constexpr std::size_t kIngestStreamOps = 60000;
constexpr std::size_t kIngestWriteEvery = 10;
constexpr std::size_t kProbesPerTemplate = 10;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kExpectThreads = 3;
// Warm Q1 queries timed through BatchRunner and Engine::Execute.
constexpr std::size_t kBatchProbes = 200;

std::string QueryLine(const std::string& query) {
  return "{\"op\":\"query\",\"q\":" + JsonEscape(query) + "}";
}

std::string WriteLine(const std::string& author, const std::string& paper) {
  return "{\"op\":\"add_edge\",\"edge\":\"writes\",\"src\":" +
         JsonEscape(author) + ",\"dst\":" + JsonEscape(paper) + "}";
}

void WriteLines(const std::string& path,
                const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

Request ParseLineOrDie(const std::string& line) {
  return UnwrapOrDie(ParseRequest(line, ProtocolLimits{}), "parse request");
}

// Interleaves per-template streams in blocks of three, each block holding
// one query of every template in a seeded random order, so templates get
// exactly equal shares.
std::vector<std::string> Interleave(
    const std::vector<std::vector<std::string>>& per_template,
    std::size_t count, Rng* rng, bool sample) {
  std::vector<std::string> out;
  out.reserve(count);
  std::vector<std::size_t> next(per_template.size(), 0);
  std::vector<std::size_t> order = {0, 1, 2};
  while (out.size() < count) {
    rng->Shuffle(&order);
    for (std::size_t t : order) {
      const std::vector<std::string>& source = per_template[t];
      const std::size_t pick = sample ? rng->NextBounded(source.size())
                                      : next[t]++ % source.size();
      out.push_back(source[pick]);
    }
  }
  out.resize(count);
  return out;
}

int Prepare(const Args& args) {
  const std::string out_dir = args.positional[2];
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.GetInt("seed", 1));
  const HinPtr hin = UnwrapOrDie(LoadHinBinary(args.positional[1]),
                                 "load graph");
  const QueryTemplate templates[] = {QueryTemplate::kQ1, QueryTemplate::kQ2,
                                     QueryTemplate::kQ3};

  // Uniform anchors, deduplicated per template.
  std::vector<std::vector<std::string>> pool(3);
  std::vector<std::string> pool_lines;
  for (std::size_t t = 0; t < 3; ++t) {
    WorkloadConfig config;
    config.num_queries = kPoolPerTemplate;
    config.seed = seed * 1000003 + t;
    const std::vector<std::string> queries = UnwrapOrDie(
        GenerateWorkload(*hin, "author", templates[t], config), "workload");
    std::set<std::string> seen;
    for (const std::string& q : queries) {
      if (seen.insert(q).second) {
        pool[t].push_back(q);
        pool_lines.push_back(QueryLine(q));
      }
    }
  }
  WriteLines(out_dir + "/pool.ndjson", pool_lines);

  Rng rng(seed * 7919 + 17);
  std::vector<std::string> mixed;
  for (const std::string& q : Interleave(pool, kMixedStreamOps, &rng, true)) {
    mixed.push_back(QueryLine(q));
  }
  WriteLines(out_dir + "/mixed.ndjson", mixed);

  // add_edge writes between uniformly drawn existing authors and papers.
  const TypeId author = UnwrapOrDie(hin->schema().FindVertexType("author"),
                                    "author type");
  const TypeId paper = UnwrapOrDie(hin->schema().FindVertexType("paper"),
                                   "paper type");
  std::vector<std::string> writes;
  for (std::size_t i = 0; i < kWriteOps; ++i) {
    const auto a =
        static_cast<LocalId>(rng.NextBounded(hin->NumVertices(author)));
    const auto p =
        static_cast<LocalId>(rng.NextBounded(hin->NumVertices(paper)));
    writes.push_back(WriteLine(hin->VertexName(VertexRef{author, a}),
                               hin->VertexName(VertexRef{paper, p})));
  }
  WriteLines(out_dir + "/writes.ndjson", writes);

  std::vector<std::vector<std::string>> skewed(3);
  for (std::size_t t = 0; t < 3; ++t) {
    SkewedWorkloadConfig config;
    config.num_queries = kIngestStreamOps / 3 + 1;
    config.seed = seed * 1000033 + 101 + t;
    config.zipf_exponent = kZipfExponent;
    skewed[t] = UnwrapOrDie(
        GenerateSkewedWorkload(*hin, "author", templates[t], config),
        "skewed workload");
  }
  const std::vector<std::string> zipf =
      Interleave(skewed, kIngestStreamOps, &rng, false);
  std::vector<std::string> ingest;
  std::size_t next_query = 0;
  for (std::size_t i = 0; i < kIngestStreamOps; ++i) {
    if (i % kIngestWriteEvery == kIngestWriteEvery - 1) {
      ingest.push_back(writes[(i / kIngestWriteEvery) % writes.size()]);
    } else {
      ingest.push_back(QueryLine(zipf[next_query++]));
    }
  }
  WriteLines(out_dir + "/ingest.ndjson", ingest);

  // Probes: the first distinct queries of each template's Zipf stream,
  // which are the hot anchors the cache and the writes compete over.
  std::vector<std::string> probes;
  for (std::size_t t = 0; t < 3; ++t) {
    std::set<std::string> seen;
    for (const std::string& q : skewed[t]) {
      if (seen.size() == kProbesPerTemplate) break;
      if (seen.insert(q).second) probes.push_back(QueryLine(q));
    }
  }
  WriteLines(out_dir + "/probes.ndjson", probes);
  return 0;
}

int Expect(const Args& args) {
  HinPtr hin = UnwrapOrDie(LoadHinBinary(args.positional[1]), "load graph");
  const std::vector<std::string> lines = ReadLines(args.positional[2]);
  if (args.Has("mutations")) {
    MutableHin graph(hin);
    const std::vector<std::string> stream = ReadLines(args.Get("mutations"));
    const auto ops = static_cast<std::size_t>(args.GetInt("mutation-ops", 0));
    std::size_t staged = 0;
    for (std::size_t i = 0; i < std::min(ops, stream.size()); ++i) {
      const Request request = ParseLineOrDie(stream[i]);
      if (request.op != RequestOp::kAddEdge) continue;
      CheckOk(graph.AddEdge(request.edge_type, request.src_name,
                            request.dst_name,
                            static_cast<std::uint32_t>(request.count),
                            /*create_vertices=*/true),
              "stage add_edge");
      ++staged;
    }
    if (staged > 0) {
      hin = UnwrapOrDie(graph.Commit(), "commit").snapshot.hin;
    }
  }

  std::vector<std::string> queries;
  for (const std::string& line : lines) {
    queries.push_back(ParseLineOrDie(line).query);
  }
  std::vector<std::string> answers(queries.size());
  std::vector<std::string> errors(queries.size());
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kExpectThreads; ++w) {
    workers.emplace_back([&, w] {
      Engine engine(hin);
      for (std::size_t i = w; i < queries.size(); i += kExpectThreads) {
        Result<QueryResult> result = engine.Execute(queries[i]);
        if (result.ok()) {
          answers[i] = QueryResultToJson(*hin, result.value());
        } else {
          errors[i] = result.status().ToString();
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "error: query %zu failed: %s\n", i,
                   StrEscapeControl(errors[i]).c_str());
      return 1;
    }
  }
  WriteLines(args.positional[3], answers);
  return 0;
}

// ---------------------------------------------------------------- trace

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span vector, -1 = root
  std::int64_t request = -1;
  std::string attrs;  // extra JSON members, "" or starting with ','
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  std::int64_t Begin(const char* name, std::int64_t parent,
                     std::int64_t request) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void End(std::int64_t id, std::string attrs = "") {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = Now();
    span.attrs = std::move(attrs);
  }

  // Times fn() as one span and returns its result.
  template <typename Fn>
  auto Time(const char* name, std::int64_t parent, std::int64_t request,
            Fn&& fn) {
    const std::int64_t id = Begin(name, parent, request);
    auto result = fn();
    End(id);
    return result;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << s.attrs << "}\n";
    }
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      std::exit(1);
    }
  }

  std::size_t size() const { return spans_.size(); }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

const char* TemplateOf(const std::string& query) {
  if (query.find("JUDGED BY author.paper.venue") != std::string::npos) {
    return "q1";
  }
  if (query.find("JUDGED BY venue.paper.term") != std::string::npos) {
    return "q2";
  }
  return "q3";
}

HinPtr LoadTracedGraph(const Args& args) {
  struct stat st{};
  const std::string path = args.Get("graph");
  if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    ShardedOptions options;
    options.budget_bytes =
        static_cast<std::uint64_t>(args.GetInt("graph-budget-mb", 0)) << 20;
    return UnwrapOrDie(LoadShardedHin(path, options), "load sharded graph");
  }
  return UnwrapOrDie(LoadHinBinary(path), "load graph");
}

int Trace(const Args& args) {
  Tracer tracer;
  const HinPtr root = tracer.Time("graph.load", -1, -1,
                                  [&] { return LoadTracedGraph(args); });
  std::unique_ptr<PmIndex> pm = tracer.Time("index.load", -1, -1, [&] {
    return UnwrapOrDie(LoadPmIndex(*root, args.Get("pm")), "load PM index");
  });

  // The index serves queries only where the served workload uses one;
  // the PM is loaded and delta-patched either way so every run reports
  // the index seams.
  std::unique_ptr<CachedIndex> cache;
  EngineOptions options;
  const std::int64_t cache_mb = args.GetInt("cache-mb", 0);
  if (cache_mb > 0) {
    CachedIndex::Options cache_options;
    cache_options.capacity_bytes = static_cast<std::size_t>(cache_mb) << 20;
    cache = std::make_unique<CachedIndex>(pm.get(), cache_options);
    options.index = cache.get();
  }

  std::vector<std::string> lines;
  for (const std::string& file : StrSplit(args.Get("requests"), ',')) {
    const std::vector<std::string> part = ReadLines(file);
    lines.insert(lines.end(), part.begin(), part.end());
  }

  MutableHin graph(root);
  HinPtr snapshot = root;
  auto engine = std::make_unique<Engine>(snapshot, options);

  // BatchRunner on a batch of one (as the server runs it: 2 workers, merged
  // plans) against Engine::Execute of the same warm Q1 query.
  {
    BatchOptions batch_options;
    batch_options.merge_plans = true;
    BatchRunner runner(snapshot, options, 2, batch_options);
    std::size_t probes = 0;
    for (std::size_t i = 0; i < lines.size() && probes < kBatchProbes; ++i) {
      const Request request = ParseLineOrDie(lines[i]);
      if (request.op != RequestOp::kQuery ||
          std::string(TemplateOf(request.query)) != "q1") {
        continue;
      }
      ++probes;
      CheckOk(engine->Execute(request.query).status(), "warm execute");
      const auto request_id = static_cast<std::int64_t>(i);
      tracer.Time("query.solo_execute", -1, request_id, [&] {
        return engine->Execute(request.query).ok();
      });
      tracer.Time("query.batch_of_one", -1, request_id, [&] {
        return runner.Run(std::vector<std::string>{request.query})[0]
            .status.ok();
      });
    }
  }

  PlannerOptions planner_options;
  planner_options.index = options.index;
  std::size_t queries = 0;
  std::size_t commits = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto request_id = static_cast<std::int64_t>(i);
    const std::int64_t root_span = tracer.Begin("request", -1, request_id);
    const Request request = tracer.Time(
        "server.parse_request", root_span, request_id,
        [&] { return ParseLineOrDie(lines[i]); });
    if (request.op == RequestOp::kQuery) {
      ++queries;
      const QueryAst ast =
          tracer.Time("query.parse", root_span, request_id, [&] {
            return UnwrapOrDie(ParseQuery(request.query), "parse query");
          });
      const QueryPlan plan =
          tracer.Time("query.analyze", root_span, request_id, [&] {
            return UnwrapOrDie(AnalyzeQuery(*snapshot, ast), "analyze query");
          });
      tracer.Time("query.plan", root_span, request_id, [&] {
        Planner planner(*snapshot, planner_options);
        planner.AddQuery(plan);
        return planner.Take().ops.size();
      });
      const QueryResult result =
          tracer.Time("query.execute", root_span, request_id, [&] {
            return UnwrapOrDie(engine->Execute(request.query), "execute");
          });
      const std::size_t bytes =
          tracer.Time("server.encode", root_span, request_id, [&] {
            return QueryResultToJson(*snapshot, result).size();
          });
      const QueryExecStats& s = result.stats;
      tracer.End(root_span,
                 ",\"template\":\"" + std::string(TemplateOf(request.query)) +
                     "\",\"vectors_materialized\":" +
                     std::to_string(s.vectors_materialized) +
                     ",\"vectors_reused\":" +
                     std::to_string(s.vectors_reused) +
                     ",\"index_hits\":" + std::to_string(s.eval.index_hits) +
                     ",\"index_misses\":" +
                     std::to_string(s.eval.index_misses) +
                     ",\"candidates\":" + std::to_string(s.candidate_count) +
                     ",\"references\":" + std::to_string(s.reference_count) +
                     ",\"encoded_bytes\":" + std::to_string(bytes));
      continue;
    }
    if (request.op != RequestOp::kAddEdge) {
      std::fprintf(stderr, "error: trace replays queries and add_edge only\n");
      return 1;
    }
    CheckOk(graph.AddEdge(request.edge_type, request.src_name,
                          request.dst_name,
                          static_cast<std::uint32_t>(request.count),
                          /*create_vertices=*/true),
            "stage add_edge");
    const CommitResult committed =
        tracer.Time("graph.commit", root_span, request_id,
                    [&] { return UnwrapOrDie(graph.Commit(), "commit"); });
    const Hin& after = *committed.snapshot.hin;
    const std::uint64_t patched_before = pm->rows_patched();
    tracer.Time("index.apply_delta", root_span, request_id, [&] {
      const AffectedRows affected =
          AffectedTwoStepRows(after, committed.summary);
      CheckOk(pm->ApplyDelta(after, affected), "apply delta");
      if (cache != nullptr) {
        cache->BeginEpoch(committed.snapshot.epoch, affected);
      }
      return true;
    });
    snapshot = committed.snapshot.hin;
    engine = std::make_unique<Engine>(snapshot, options);
    ++commits;
    tracer.End(root_span, ",\"rows_patched\":" +
                              std::to_string(pm->rows_patched() -
                                             patched_before));
  }

  tracer.Write(args.Get("spans"));
  std::printf("{\"spans\":%zu,\"queries\":%zu,\"commits\":%zu}\n",
              tracer.size(), queries, commits);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: perfbench_tool prepare GRAPH.hin OUT_DIR --seed=N\n"
      "       perfbench_tool expect GRAPH.hin QUERIES OUT "
      "[--mutations=STREAM --mutation-ops=N]\n"
      "       perfbench_tool trace --graph=PATH [--graph-budget-mb=N] "
      "--pm=IDX [--cache-mb=N] --requests=A[,B] --spans=OUT\n";
  const Args args = ParseArgs(
      argc, argv,
      {"seed", "mutations", "mutation-ops", "graph", "graph-budget-mb", "pm",
       "cache-mb", "requests", "spans"},
      kUsage);
  const std::string verb = args.positional.empty() ? "" : args.positional[0];
  if (verb == "prepare" && args.positional.size() == 3) return Prepare(args);
  if (verb == "expect" && args.positional.size() == 4) return Expect(args);
  if (verb == "trace" && args.positional.size() == 1 && args.Has("graph") &&
      args.Has("pm") && args.Has("requests") && args.Has("spans")) {
    return Trace(args);
  }
  std::fprintf(stderr, "%s", kUsage);
  return 1;
}
