// Seeded malformed-input campaign over the text formats that cross the
// host boundary: LSTM and GRU weight files, sandbox-trace JSONL and
// scenario specs (.scn).
//
// Each iteration takes a valid serialization and applies one to three
// mutations: truncate the text, delete, duplicate or replace a token,
// overwrite a byte, or set a number to -1, 0, 2.5, 1e18 or 2^61. The
// loader must then either accept the input, in which case saving it and
// loading that again reproduces the same text (a fixed point), or throw a
// csdml::Error subclass. Any other exception fails the test, and the
// sanitizer builds run the same loop for memory errors. The dimension
// cap keeps every accepted weight file in the megabytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fuzz_harness.hpp"
#include "nn/weights_io.hpp"
#include "ransomware/trace_io.hpp"
#include "scenario/scenario.hpp"

namespace csdml {
namespace {

using testing::fuzz_iterations;

/// Loads a serialization and saves what it loaded; throws what the
/// loader throws.
using Resave = std::function<std::string(const std::string&)>;

constexpr const char* kNumbers[] = {"-1", "0", "2.5", "1e18",
                                    "2305843009213693952"};

bool is_separator(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '{' || c == '}' ||
         c == '[' || c == ']' || c == ',' || c == ':';
}

struct Span {
  std::size_t begin;
  std::size_t end;
};

/// Whitespace- and JSON-punctuation-separated tokens; a quoted string is
/// one token with its quotes.
std::vector<Span> tokens_of(const std::string& text) {
  std::vector<Span> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    if (is_separator(text[i])) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    if (text[i] == '"') {
      ++i;
      while (i < text.size() && text[i] != '"') i += text[i] == '\\' ? 2 : 1;
      i = std::min(i + 1, text.size());
    } else {
      while (i < text.size() && !is_separator(text[i])) ++i;
    }
    tokens.push_back({begin, i});
  }
  return tokens;
}

bool is_number(const std::string& token) {
  return !token.empty() &&
         token.find_first_not_of("0123456789.-+e") == std::string::npos &&
         token.find_first_of("0123456789") != std::string::npos;
}

/// One random mutation of `text`; `separator` joins a duplicated token to
/// its original (a space in weight files, a comma in JSONL arrays).
std::string mutate(std::string text, char separator, Rng& rng) {
  const std::vector<Span> tokens = tokens_of(text);
  if (text.empty() || tokens.empty()) return text;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  const Span token = tokens[pick(tokens.size())];
  const std::string word = text.substr(token.begin, token.end - token.begin);
  switch (pick(6)) {
    case 0:
      return text.substr(0, pick(text.size()));
    case 1:
      return text.erase(token.begin, token.end - token.begin);
    case 2:
      return text.insert(token.end, separator + word);
    case 3: {
      const Span other = tokens[pick(tokens.size())];
      return text.replace(token.begin, token.end - token.begin,
                          text.substr(other.begin, other.end - other.begin));
    }
    case 4:
      text[pick(text.size())] = static_cast<char>(rng.next() & 0xff);
      return text;
    default: {
      std::vector<Span> numbers;
      for (const Span& span : tokens) {
        if (is_number(text.substr(span.begin, span.end - span.begin))) {
          numbers.push_back(span);
        }
      }
      if (numbers.empty()) return text;
      const Span number = numbers[pick(numbers.size())];
      return text.replace(number.begin, number.end - number.begin,
                          kNumbers[pick(std::size(kNumbers))]);
    }
  }
}

/// Runs the campaign over `valid` and returns how many mutated inputs
/// were accepted (the rest were typed rejections).
std::size_t run_campaign(const std::string& valid, char separator,
                         const Resave& resave, std::uint64_t seed,
                         std::size_t iterations) {
  Rng rng(seed);
  std::size_t accepted = 0;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < iterations && failures < 5; ++i) {
    std::string input = valid;
    const std::size_t mutations = 1 + static_cast<std::size_t>(rng.next() % 3);
    for (std::size_t m = 0; m < mutations; ++m) {
      input = mutate(std::move(input), separator, rng);
    }
    std::string saved;
    try {
      saved = resave(input);
    } catch (const Error&) {
      continue;  // a typed rejection
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << i << ": untyped " << e.what()
                    << "\ninput:\n" << input;
      ++failures;
      continue;
    }
    ++accepted;
    std::string again;
    try {
      again = resave(saved);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << i << ": re-saved text fails to load: "
                    << e.what() << "\ninput:\n" << input;
      ++failures;
      continue;
    }
    if (again != saved) {
      ADD_FAILURE() << "iteration " << i << ": re-save is not a fixed point"
                    << "\ninput:\n" << input;
      ++failures;
    }
  }
  return accepted;
}

TEST(MalformedInput, LstmWeightFilesLoadToAFixedPointOrFailTyped) {
  const nn::LstmConfig config{.vocab_size = 6, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(31);
  std::ostringstream valid;
  nn::save_weights(valid, config, nn::LstmParams::glorot(config, rng));
  const Resave resave = [](const std::string& text) {
    std::istringstream in(text);
    const nn::ModelSnapshot snapshot = nn::load_weights(in);
    std::ostringstream out;
    nn::save_weights(out, snapshot.config, snapshot.params);
    return out.str();
  };
  ASSERT_EQ(resave(valid.str()), valid.str());
  const std::size_t accepted =
      run_campaign(valid.str(), ' ', resave, 101, fuzz_iterations(2'000));
  EXPECT_GT(accepted, 0u);
}

TEST(MalformedInput, GruWeightFilesLoadToAFixedPointOrFailTyped) {
  const nn::GruConfig config{.vocab_size = 5, .embed_dim = 2, .hidden_dim = 3};
  Rng rng(37);
  std::ostringstream valid;
  nn::save_gru_weights(valid, config, nn::GruParams::glorot(config, rng));
  const Resave resave = [](const std::string& text) {
    std::istringstream in(text);
    const nn::GruModelSnapshot snapshot = nn::load_gru_weights(in);
    std::ostringstream out;
    nn::save_gru_weights(out, snapshot.config, snapshot.params);
    return out.str();
  };
  ASSERT_EQ(resave(valid.str()), valid.str());
  const std::size_t accepted =
      run_campaign(valid.str(), ' ', resave, 103, fuzz_iterations(2'000));
  EXPECT_GT(accepted, 0u);
}

TEST(MalformedInput, TraceJsonlLoadsToAFixedPointOrFailsTyped) {
  Rng rng(41);
  std::vector<ransomware::TraceRecord> records;
  for (int r = 0; r < 3; ++r) {
    ransomware::TraceRecord record;
    record.sample = r == 0 ? "Ryuk/\"variant\"\t\\2" : "7-Zip/session-" + std::to_string(r);
    record.label = r == 0 ? 1 : 0;
    for (int c = 0; c < 4 + 3 * r; ++c) {
      record.calls.push_back(static_cast<nn::TokenId>(rng.next() % 200));
    }
    records.push_back(std::move(record));
  }
  std::ostringstream valid;
  ransomware::write_traces_jsonl(valid, records);
  const Resave resave = [](const std::string& text) {
    std::istringstream in(text);
    std::ostringstream out;
    ransomware::write_traces_jsonl(out, ransomware::read_traces_jsonl(in));
    return out.str();
  };
  ASSERT_EQ(resave(valid.str()), valid.str());
  // Ten times the weight budget: the trace text is short, and a sign
  // byte landing on the label (a lone "-" once threw std::invalid_argument)
  // first shows after a few thousand iterations.
  const std::size_t accepted =
      run_campaign(valid.str(), ',', resave, 107, fuzz_iterations(20'000));
  EXPECT_GT(accepted, 0u);
}

TEST(MalformedInput, ScenarioSpecsLoadToAFixedPointOrFailTyped) {
  // Every line kind and event kind, a non-default noise rate and
  // multi-digit counts for the number mutations to land on.
  const std::string valid = scenario::serialize_scenario(
      scenario::ScenarioBuilder("fuzz-spec")
          .seed(4242)
          .boards(3)
          .detector(100, 25, 2, 0.75)
          .benign(11, "VLC", 3, 0, 900, 0.05)
          .attack(12, "Cryptowall", 5, 120, 700)
          .kill_board(2, 300)
          .revive_board(2, 600)
          .kill_owner(12, 260)
          .rollout(450)
          .budget(350, 90, 0.25)
          .build());
  const Resave resave = [](const std::string& text) {
    return scenario::serialize_scenario(scenario::parse_scenario(text));
  };
  ASSERT_EQ(resave(valid), valid);
  const std::size_t accepted =
      run_campaign(valid, ' ', resave, 109, fuzz_iterations(2'000));
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace csdml
