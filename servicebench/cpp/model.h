// The benchmark's own inputs and its own answer key.
//
// Inputs: a seeded generator of documents over a synthetic vocabulary
// whose words survive the program's analyzer unchanged (consonant-vowel
// syllables ending in b, k, p, x or z: no Porter suffix rule ends in
// those letters and no stop word looks like them). Because every token
// is indexed as written, the term counts and document lengths are known
// by construction and eq. 2 can be scored here without the program's
// analyzer.
//
// Answer key: a plaintext model of each served collection, versioned by
// acknowledged update delta, and the checks every answer must pass:
// tie-aware top-k correctness against eq. 2 quantized with the owner's
// quantizer interval, decrypted text equal to the model's text, and
// multi-keyword membership (AND: every keyword, OR: any).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace servicebench {

/// splitmix64: the seed expander for every generated input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Analyzer-stable synthetic word for rank `rank` (distinct ranks give
/// distinct words).
std::string word(std::size_t rank);

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One plaintext document as the model knows it.
struct Doc {
  std::uint64_t id = 0;
  std::string text;
  std::map<std::string, std::uint32_t> tf;  ///< term -> count
  std::uint32_t length = 0;                 ///< indexed terms (|F_d|)
};

/// Builds a Doc from its tokens (joined by single spaces).
std::shared_ptr<const Doc> make_doc(std::uint64_t id, const std::vector<std::string>& tokens);

/// Eq. 2, computed here: (1 + ln tf) / |F_d|.
double score(const Doc& doc, const std::string& term);

/// The owner's quantizer interval (min, max score, levels M), as read
/// from its public serialization; level() reimplements the mapping.
struct Levels {
  double min_score = 0;
  double max_score = 1;
  std::uint64_t levels = 128;
  [[nodiscard]] std::uint64_t level(double s) const;
};

/// Generation knobs of one collection.
struct CorpusSpec {
  std::size_t docs = 0;
  std::size_t vocabulary = 0;
  double zipf = 1.0;
  std::size_t min_tokens = 0;
  std::size_t max_tokens = 0;
  std::size_t rank_offset = 0;  ///< first vocabulary rank used
};

/// Generates `spec.docs` documents with ids [first_id, first_id + docs).
std::vector<std::shared_ptr<const Doc>> generate_docs(const CorpusSpec& spec,
                                                      std::uint64_t first_id, Rng& rng);

/// A served collection's plaintext state, versioned by acknowledged
/// delta. Version 0 is the outsourced base. Writers (one owner thread)
/// call apply(); checks run after the timed phase.
class Model {
 public:
  explicit Model(const std::vector<std::shared_ptr<const Doc>>& base);

  /// Records delta number version() + 1: upserts then removes.
  void apply(const std::vector<std::shared_ptr<const Doc>>& upserts,
             const std::vector<std::uint64_t>& removes);

  [[nodiscard]] std::uint64_t version() const;

  /// The document `id` at `version` (nullptr when absent).
  [[nodiscard]] const Doc* at(std::uint64_t id, std::uint64_t version) const;

  /// Live ids containing `term` at `version`.
  [[nodiscard]] std::vector<const Doc*> matches(const std::string& term,
                                                std::uint64_t version) const;

  /// Distinct terms and the largest document frequency of the base.
  [[nodiscard]] std::size_t base_terms() const { return base_terms_; }
  [[nodiscard]] std::size_t base_max_df() const { return base_max_df_; }
  [[nodiscard]] double base_min_score() const { return base_min_score_; }
  [[nodiscard]] double base_max_score() const { return base_max_score_; }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::shared_ptr<const Doc>>>>
      history_;  ///< id -> (version, doc or null = removed), ascending
  std::unordered_map<std::string, std::set<std::uint64_t>> ever_;  ///< term -> ids
  std::uint64_t version_ = 0;
  std::size_t base_terms_ = 0;
  std::size_t base_max_df_ = 0;
  double base_min_score_ = 0;
  double base_max_score_ = 0;
};

/// What one answer returned: ids in rank order plus a digest of each
/// decrypted text.
struct Answer {
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> text_digests;
};

std::uint64_t digest(const std::string& text);

/// Tie-aware ranked check at one version: count min(k, matches), every
/// id a live match, no duplicates, and the quantized level at each rank
/// equal to the plaintext ranking's level at that rank (so levels are
/// non-increasing and nothing unreturned sits above the boundary).
/// Returns an empty string when correct, else the reason.
std::string check_ranked(const Model& model, const Levels& levels, const std::string& term,
                         std::size_t k, const Answer& got, std::uint64_t version);

/// The ranked check against any version in [lo, hi], with each text
/// matching the model's text at some version in that window.
std::string check_ranked_window(const Model& model, const Levels& levels,
                                const std::string& term, std::size_t k, const Answer& got,
                                std::uint64_t lo, std::uint64_t hi);

/// Multi-keyword check against any version in [lo, hi]: only files
/// holding every (AND) or some (OR) keyword, no duplicates, count
/// min(k, matches), each text the model's at some version in the window.
std::string check_multi(const Model& model, const std::vector<std::string>& terms,
                        bool conjunctive, std::size_t k, const Answer& got, std::uint64_t lo,
                        std::uint64_t hi);

}  // namespace servicebench
