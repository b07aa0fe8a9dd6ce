#include "bench_common.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/strings.h"
#include "data/csv.h"

namespace ida::bench {

namespace {

std::string CacheDir() {
  const char* env = std::getenv("IDA_BENCH_CACHE");
  std::string base = env != nullptr ? env : "/tmp/ida_bench_cache";
  return base + "/" + kCacheVersion + "_" + std::to_string(kWorldSeed);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void EnsureDir(const std::string& path) {
  std::string partial;
  for (const std::string& part : Split(path, '/')) {
    partial += part + "/";
    ::mkdir(partial.c_str(), 0755);
  }
}

GeneratorOptions PaperScaleOptions() {
  GeneratorOptions o;
  o.num_users = 56;
  o.num_sessions = 454;
  o.rows_per_dataset = 3000;
  o.seed = kWorldSeed;
  return o;
}

// ------------------------------------------------ labeled-step persistence

std::string SerializeLabels(const std::vector<LabeledStep>& labels) {
  std::ostringstream os;
  // Scores round-trip exactly, so a cached run labels like the first one.
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const LabeledStep& s : labels) {
    os << s.tree_index << " " << s.step << " "
       << s.result.effective_reference_size << " |";
    for (double r : s.result.raw_scores) os << " " << r;
    os << " |";
    for (double r : s.result.relative_scores) os << " " << r;
    os << "\n";
  }
  return os.str();
}

bool ParseLabels(const std::string& text, std::vector<LabeledStep>* out) {
  out->clear();
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    LabeledStep s;
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> s.tree_index >> s.step >>
          s.result.effective_reference_size >> tok) ||
        tok != "|") {
      return false;
    }
    while (ls >> tok && tok != "|") {
      s.result.raw_scores.push_back(std::atof(tok.c_str()));
    }
    double v;
    while (ls >> v) s.result.relative_scores.push_back(v);
    if (s.result.raw_scores.size() != s.result.relative_scores.size()) {
      return false;
    }
    FillDominant(&s.result);
    // Reconstruct the thin-reference abstention (mirrors
    // ReferenceBasedLabeler). Normalized labels persist with
    // effective_reference_size == kNormalizedMarker.
    if (s.result.effective_reference_size < 3 &&
        s.result.effective_reference_size != kNormalizedMarker) {
      s.result.dominant.clear();
      s.result.max_relative = 0.0;
    }
    out->push_back(std::move(s));
  }
  return !out->empty();
}

bool LoadLabels(const std::string& path, std::vector<LabeledStep>* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream buf;
  buf << f.rdbuf();
  return ParseLabels(buf.str(), out);
}

void SaveLabels(const std::string& path,
                const std::vector<LabeledStep>& labels) {
  std::ofstream f(path);
  f << SerializeLabels(labels);
}

}  // namespace

World& GetWorld() {
  static World* world = [] {
    auto* w = new World;
    w->all_measures = CreateAllMeasures();
    std::string dir = CacheDir();
    EnsureDir(dir);
    std::string log_path = dir + "/sessions.log";
    bool loaded = false;
    if (FileExists(log_path)) {
      // Datasets are regenerated (deterministic); the log is loaded.
      auto log = SessionLog::LoadFromFile(log_path);
      if (log.ok()) {
        GeneratorOptions o = PaperScaleOptions();
        w->bench.datasets = MakeAllScenarios(o.rows_per_dataset, o.seed);
        for (const SynthDataset& d : w->bench.datasets) {
          w->bench.registry[d.id] = d.table;
        }
        w->bench.log = std::move(*log);
        loaded = true;
        std::printf("[world] loaded cached session log (%zu sessions) from %s\n",
                    w->bench.log.size(), log_path.c_str());
      }
    }
    if (!loaded) {
      std::printf("[world] generating paper-scale benchmark (this is done "
                  "once; cached in %s)...\n", dir.c_str());
      auto bench = GenerateBenchmark(PaperScaleOptions());
      if (!bench.ok()) {
        std::fprintf(stderr, "FATAL: %s\n", bench.status().ToString().c_str());
        std::exit(1);
      }
      w->bench = std::move(*bench);
      Status st = w->bench.log.SaveToFile(log_path);
      if (!st.ok()) {
        std::fprintf(stderr, "warning: cannot cache log: %s\n",
                     st.ToString().c_str());
      }
      // Build the world from the log's text, as every later run loads it:
      // the text rounds double operands (Action::Serialize), so the
      // generated log would otherwise serve slightly different sessions.
      auto parsed = SessionLog::Parse(w->bench.log.Serialize());
      if (!parsed.ok()) {
        std::fprintf(stderr, "FATAL: %s\n", parsed.status().ToString().c_str());
        std::exit(1);
      }
      w->bench.log = std::move(*parsed);
    }
    ActionExecutor exec;
    auto repo = ReplayedRepository::Build(w->bench.log, w->bench.registry, exec);
    if (!repo.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", repo.status().ToString().c_str());
      std::exit(1);
    }
    w->repo = std::make_unique<ReplayedRepository>(std::move(*repo));
    std::printf("[world] %zu sessions, %zu actions, %zu successful sessions "
                "(%zu actions)\n",
                w->bench.log.size(), w->bench.log.total_actions(),
                w->bench.log.successful_sessions(),
                w->bench.log.successful_actions());
    return w;
  }();
  return *world;
}

const std::vector<LabeledStep>& NormalizedLabels(World& world) {
  static std::vector<LabeledStep>* labels = [&world] {
    auto* out = new std::vector<LabeledStep>;
    std::string path = CacheDir() + "/labels_normalized.txt";
    if (LoadLabels(path, out) &&
        out->size() == world.repo->total_steps()) {
      std::printf("[labels] loaded cached normalized labels (%zu)\n",
                  out->size());
      return out;
    }
    std::printf("[labels] computing normalized labels...\n");
    NormalizedLabeler labeler(world.all_measures);
    Status st = labeler.Preprocess(*world.repo);
    if (!st.ok()) {
      std::fprintf(stderr, "FATAL: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    auto labeled = LabelRepository(*world.repo, &labeler);
    if (!labeled.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   labeled.status().ToString().c_str());
      std::exit(1);
    }
    *out = std::move(*labeled);
    for (LabeledStep& s : *out) {
      s.result.effective_reference_size = kNormalizedMarker;
    }
    SaveLabels(path, *out);
    return out;
  }();
  return *labels;
}

const std::vector<LabeledStep>& ReferenceBasedLabels(World& world,
                                                     size_t max_reference) {
  static std::vector<LabeledStep>* labels = [&world, max_reference] {
    auto* out = new std::vector<LabeledStep>;
    std::string path = CacheDir() + "/labels_reference_based.txt";
    if (LoadLabels(path, out) &&
        out->size() == world.repo->total_steps()) {
      std::printf("[labels] loaded cached reference-based labels (%zu)\n",
                  out->size());
      return out;
    }
    std::printf("[labels] computing reference-based labels "
                "(max_ref=%zu; one-time, takes a minute)...\n",
                max_reference);
    ReferenceBasedLabelerOptions options;
    options.max_reference_actions = max_reference;
    ReferenceBasedLabeler labeler(world.all_measures, world.repo.get(),
                                  options);
    auto labeled = LabelRepository(*world.repo, &labeler);
    if (!labeled.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   labeled.status().ToString().c_str());
      std::exit(1);
    }
    *out = std::move(*labeled);
    SaveLabels(path, *out);
    return out;
  }();
  return *labels;
}

std::vector<std::vector<int>> SixteenConfigIndices(const MeasureSet& all) {
  std::vector<std::vector<int>> per_facet(kNumFacets);
  for (size_t i = 0; i < all.size(); ++i) {
    per_facet[static_cast<int>(all[i]->facet())].push_back(
        static_cast<int>(i));
  }
  std::vector<std::vector<int>> configs;
  for (int d : per_facet[0]) {
    for (int s : per_facet[1]) {
      for (int p : per_facet[2]) {
        for (int c : per_facet[3]) {
          configs.push_back({d, s, p, c});
        }
      }
    }
  }
  return configs;
}

const StateSpace& GetStateSpace(World& world, int n) {
  static std::map<int, StateSpace>* spaces = new std::map<int, StateSpace>;
  auto it = spaces->find(n);
  if (it != spaces->end()) return it->second;

  StateSpace space;
  // Enumerate successful-session states in the same order LabelRepository
  // enumerates steps.
  size_t pos = 0;
  for (size_t ti = 0; ti < world.repo->trees().size(); ++ti) {
    const SessionTree& tree = world.repo->trees()[ti];
    for (int step = 1; step <= tree.num_steps(); ++step, ++pos) {
      if (!tree.successful()) continue;
      TrainingSample s;
      s.context = ExtractNContext(tree, step - 1, n);
      s.tree_index = static_cast<int>(ti);
      s.step = step - 1;
      space.samples.push_back(std::move(s));
      space.label_positions.push_back(pos);
    }
  }
  SessionDistance metric;
  std::vector<NContext> contexts;
  contexts.reserve(space.samples.size());
  for (const TrainingSample& s : space.samples) contexts.push_back(s.context);
  space.distances = BuildDistanceMatrix(contexts, metric);
  auto [ins, ok] = spaces->emplace(n, std::move(space));
  (void)ok;
  return ins->second;
}

std::vector<size_t> ApplyConfigLabels(const StateSpace& space,
                                      const std::vector<LabeledStep>& labels,
                                      const std::vector<int>& config_indices,
                                      double theta_interest,
                                      std::vector<TrainingSample>* samples) {
  std::vector<size_t> subset;
  for (size_t i = 0; i < space.samples.size(); ++i) {
    const LabeledStep& full = labels[space.label_positions[i]];
    ComparisonResult projected = SubsetResult(full.result, config_indices);
    // Preserve thin-reference abstentions.
    if (full.result.dominant.empty()) projected.dominant.clear();
    TrainingSample& s = (*samples)[i];
    if (projected.dominant.empty() ||
        projected.max_relative < theta_interest) {
      s.label = -1;
      s.labels.clear();
      continue;
    }
    s.label = projected.primary();
    s.labels = projected.dominant;
    s.max_relative = projected.max_relative;
    subset.push_back(i);
  }
  return subset;
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Header(const std::string& title) {
  std::printf("\n================================================================\n"
              "%s\n"
              "================================================================\n",
              title.c_str());
}

}  // namespace ida::bench
