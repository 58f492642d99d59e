#include "model.h"

#include <algorithm>
#include <cmath>

namespace servicebench {

namespace {

constexpr const char* kOnsets[] = {"b", "d", "f", "g", "h", "j", "k", "l",
                                   "m", "n", "p", "r", "t", "v", "w", "z"};
constexpr const char* kVowels[] = {"a", "e", "i", "o", "u"};
constexpr const char* kCodas[] = {"b", "k", "p", "x", "z"};
constexpr std::size_t kSyllables = 16 * 5;

std::string syllable(std::size_t i) {
  return std::string(kOnsets[i / 5]) + kVowels[i % 5];
}

}  // namespace

std::string word(std::size_t rank) {
  // Two syllables and a coda give 32000 words; a third syllable beyond.
  std::string w = syllable(rank % kSyllables);
  rank /= kSyllables;
  w += syllable(rank % kSyllables);
  rank /= kSyllables;
  w += kCodas[rank % 5];
  rank /= 5;
  if (rank > 0) w = syllable((rank - 1) % kSyllables) + w;
  return w;
}

Zipf::Zipf(std::size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (std::size_t r = 1; r <= n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::draw(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::shared_ptr<const Doc> make_doc(std::uint64_t id, const std::vector<std::string>& tokens) {
  auto doc = std::make_shared<Doc>();
  doc->id = id;
  for (const std::string& t : tokens) {
    if (!doc->text.empty()) doc->text += ' ';
    doc->text += t;
    ++doc->tf[t];
  }
  doc->length = static_cast<std::uint32_t>(tokens.size());
  return doc;
}

double score(const Doc& doc, const std::string& term) {
  const auto it = doc.tf.find(term);
  if (it == doc.tf.end()) return 0.0;
  return (1.0 + std::log(static_cast<double>(it->second))) /
         static_cast<double>(doc.length);
}

std::uint64_t Levels::level(double s) const {
  if (s <= min_score) return 1;
  if (s >= max_score) return levels;
  const double frac = (s - min_score) / (max_score - min_score);
  return std::min<std::uint64_t>(
      static_cast<std::uint64_t>(frac * static_cast<double>(levels)) + 1, levels);
}

std::vector<std::shared_ptr<const Doc>> generate_docs(const CorpusSpec& spec,
                                                      std::uint64_t first_id, Rng& rng) {
  const Zipf zipf(spec.vocabulary, spec.zipf);
  std::vector<std::shared_ptr<const Doc>> docs;
  docs.reserve(spec.docs);
  for (std::size_t d = 0; d < spec.docs; ++d) {
    const std::size_t n =
        spec.min_tokens + rng.below(spec.max_tokens - spec.min_tokens + 1);
    std::vector<std::string> tokens;
    tokens.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      tokens.push_back(word(spec.rank_offset + zipf.draw(rng)));
    docs.push_back(make_doc(first_id + d, tokens));
  }
  return docs;
}

Model::Model(const std::vector<std::shared_ptr<const Doc>>& base) {
  std::unordered_map<std::string, std::size_t> df;
  bool first = true;
  for (const auto& doc : base) {
    history_[doc->id].emplace_back(0, doc);
    for (const auto& [term, count] : doc->tf) {
      ever_[term].insert(doc->id);
      ++df[term];
      const double s = score(*doc, term);
      base_min_score_ = first ? s : std::min(base_min_score_, s);
      base_max_score_ = first ? s : std::max(base_max_score_, s);
      first = false;
    }
  }
  base_terms_ = df.size();
  for (const auto& [term, n] : df) base_max_df_ = std::max(base_max_df_, n);
}

void Model::apply(const std::vector<std::shared_ptr<const Doc>>& upserts,
                  const std::vector<std::uint64_t>& removes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t v = ++version_;
  for (const auto& doc : upserts) {
    history_[doc->id].emplace_back(v, doc);
    for (const auto& [term, count] : doc->tf) ever_[term].insert(doc->id);
  }
  for (const std::uint64_t id : removes) history_[id].emplace_back(v, nullptr);
}

std::uint64_t Model::version() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

const Doc* Model::at(std::uint64_t id, std::uint64_t version) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = history_.find(id);
  if (it == history_.end()) return nullptr;
  const Doc* found = nullptr;
  for (const auto& [v, doc] : it->second) {
    if (v > version) break;
    found = doc.get();
  }
  return found;
}

std::vector<const Doc*> Model::matches(const std::string& term, std::uint64_t version) const {
  std::vector<std::uint64_t> candidates;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = ever_.find(term);
    if (it == ever_.end()) return {};
    candidates.assign(it->second.begin(), it->second.end());
  }
  std::vector<const Doc*> out;
  for (const std::uint64_t id : candidates) {
    const Doc* doc = at(id, version);
    if (doc != nullptr && doc->tf.contains(term)) out.push_back(doc);
  }
  return out;
}

std::uint64_t digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const unsigned char c : text) h = (h ^ c) * 1099511628211ull;
  return h;
}

namespace {

std::string text_check(const Model& model, const Answer& got, std::uint64_t lo,
                       std::uint64_t hi) {
  for (std::size_t i = 0; i < got.ids.size(); ++i) {
    bool ok = false;
    for (std::uint64_t v = lo; v <= hi && !ok; ++v) {
      const Doc* doc = model.at(got.ids[i], v);
      ok = doc != nullptr && digest(doc->text) == got.text_digests[i];
    }
    if (!ok) return "file " + std::to_string(got.ids[i]) + " decrypts to the wrong text";
  }
  return {};
}

}  // namespace

std::string check_ranked(const Model& model, const Levels& levels, const std::string& term,
                         std::size_t k, const Answer& got, std::uint64_t version) {
  std::vector<std::pair<double, std::uint64_t>> full;  // (score, id)
  for (const Doc* doc : model.matches(term, version))
    full.emplace_back(score(*doc, term), doc->id);
  std::sort(full.begin(), full.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  const std::size_t want = k == 0 ? full.size() : std::min(k, full.size());
  if (got.ids.size() != want)
    return term + ": " + std::to_string(got.ids.size()) + " results, want " +
           std::to_string(want);
  std::unordered_map<std::uint64_t, std::uint64_t> level_of;
  for (const auto& [s, id] : full) level_of[id] = levels.level(s);
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < got.ids.size(); ++i) {
    const auto it = level_of.find(got.ids[i]);
    if (it == level_of.end())
      return term + ": file " + std::to_string(got.ids[i]) + " does not match";
    if (!seen.insert(got.ids[i]).second)
      return term + ": file " + std::to_string(got.ids[i]) + " returned twice";
    if (it->second != levels.level(full[i].first))
      return term + ": rank " + std::to_string(i) + " at level " +
             std::to_string(it->second) + ", want " +
             std::to_string(levels.level(full[i].first));
  }
  return {};
}

std::string check_ranked_window(const Model& model, const Levels& levels,
                                const std::string& term, std::size_t k, const Answer& got,
                                std::uint64_t lo, std::uint64_t hi) {
  std::string why;
  bool ranked = false;
  for (std::uint64_t v = lo; v <= hi && !ranked; ++v) {
    why = check_ranked(model, levels, term, k, got, v);
    ranked = why.empty();
  }
  if (!ranked) return why;
  return text_check(model, got, lo, hi);
}

namespace {

/// Membership and count of a multi-keyword answer at one version.
std::string multi_at(const Model& model, const std::vector<std::string>& terms,
                     bool conjunctive, std::size_t k, const Answer& got, std::uint64_t version) {
  std::map<std::uint64_t, std::size_t> hits;  // id -> keywords held
  std::set<std::string> distinct(terms.begin(), terms.end());
  for (const std::string& term : distinct)
    for (const Doc* doc : model.matches(term, version)) ++hits[doc->id];
  std::size_t matching = 0;
  for (const auto& [id, n] : hits)
    if (!conjunctive || n == distinct.size()) ++matching;
  const std::size_t want = k == 0 ? matching : std::min(k, matching);
  const std::string name = conjunctive ? "AND" : "OR";
  if (got.ids.size() != want)
    return name + ": " + std::to_string(got.ids.size()) + " results, want " +
           std::to_string(want);
  std::set<std::uint64_t> seen;
  for (const std::uint64_t id : got.ids) {
    const auto it = hits.find(id);
    if (it == hits.end() || (conjunctive && it->second != distinct.size()))
      return name + ": file " + std::to_string(id) + " does not match";
    if (!seen.insert(id).second)
      return name + ": file " + std::to_string(id) + " returned twice";
  }
  return {};
}

}  // namespace

std::string check_multi(const Model& model, const std::vector<std::string>& terms,
                        bool conjunctive, std::size_t k, const Answer& got, std::uint64_t lo,
                        std::uint64_t hi) {
  std::string why;
  for (std::uint64_t v = lo; v <= hi; ++v) {
    why = multi_at(model, terms, conjunctive, k, got, v);
    if (why.empty()) return text_check(model, got, lo, hi);
  }
  return why;
}

}  // namespace servicebench
