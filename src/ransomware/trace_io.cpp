#include "ransomware/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "ransomware/api_vocab.hpp"
#include "ransomware/sandbox.hpp"

namespace csdml::ransomware {

namespace {

void write_json_string(std::ostream& out, std::string_view value) {
  out << '"';
  for (const char c : value) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
  out << '"';
}

/// Minimal strict parser for the record grammar this module writes.
class JsonCursor {
 public:
  JsonCursor(const std::string& text, std::size_t line)
      : text_(text), line_(line) {}

  void expect(char c) {
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool try_consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    skip_space();
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          default: fail("unsupported escape");
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  long parse_integer() {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == '+') ++pos_;
    long value = 0;
    const char* begin = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(begin, text_.data() + text_.size(), value);
    if (ec == std::errc::result_out_of_range) fail("integer out of range");
    if (ec != std::errc{}) fail("expected integer");
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  void finish() {
    skip_space();
    if (pos_ != text_.size()) fail("trailing content");
  }

  [[noreturn]] void fail(const std::string& what) {
    throw ParseError("trace jsonl line " + std::to_string(line_) + ": " + what);
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_{0};
  std::size_t line_;
};

}  // namespace

void write_traces_jsonl(std::ostream& out, const std::vector<TraceRecord>& records) {
  const auto& vocab = ApiVocabulary::instance();
  for (const TraceRecord& record : records) {
    CSDML_REQUIRE(record.label == 0 || record.label == 1, "label must be binary");
    out << "{\"sample\":";
    write_json_string(out, record.sample);
    out << ",\"label\":" << record.label << ",\"calls\":[";
    for (std::size_t i = 0; i < record.calls.size(); ++i) {
      if (i) out << ',';
      write_json_string(out, vocab.call(record.calls[i]).name);
    }
    out << "]}\n";
  }
}

void write_traces_jsonl_file(const std::string& path,
                             const std::vector<TraceRecord>& records) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ParseError("cannot open for writing: " + path);
  write_traces_jsonl(out, records);
}

std::vector<TraceRecord> read_traces_jsonl(std::istream& in) {
  const auto& vocab = ApiVocabulary::instance();
  std::vector<TraceRecord> records;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonCursor cursor(line, line_number);
    TraceRecord record;
    cursor.expect('{');
    bool first = true;
    while (true) {
      if (!first) {
        if (!cursor.try_consume(',')) break;
      }
      first = false;
      const std::string key = cursor.parse_string();
      cursor.expect(':');
      if (key == "sample") {
        record.sample = cursor.parse_string();
      } else if (key == "label") {
        const long label = cursor.parse_integer();
        if (label != 0 && label != 1) cursor.fail("label must be 0 or 1");
        record.label = static_cast<int>(label);
      } else if (key == "calls") {
        cursor.expect('[');
        if (!cursor.try_consume(']')) {
          do {
            const std::string name = cursor.parse_string();
            const auto token = vocab.token_of(name);
            if (!token.has_value()) cursor.fail("unknown API call " + name);
            record.calls.push_back(*token);
          } while (cursor.try_consume(','));
          cursor.expect(']');
        }
      } else {
        cursor.fail("unknown key " + key);
      }
    }
    cursor.expect('}');
    cursor.finish();
    records.push_back(std::move(record));
  }
  return records;
}

std::vector<TraceRecord> read_traces_jsonl_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open trace file: " + path);
  return read_traces_jsonl(in);
}

std::vector<TraceRecord> export_corpus_traces(std::uint64_t seed,
                                              std::size_t min_trace_length) {
  SandboxConfig config;
  config.seed = seed;
  const SandboxTraceGenerator sandbox(config);
  std::vector<TraceRecord> records;
  for (const auto& family : ransomware_families()) {
    for (std::uint32_t v = 0; v < family.variants; ++v) {
      TraceRecord record;
      record.sample = family.name + "/variant-" + std::to_string(v);
      record.label = 1;
      record.calls = sandbox.ransomware_trace(family, v, min_trace_length);
      records.push_back(std::move(record));
    }
  }
  for (const auto& profile : benign_profiles()) {
    TraceRecord record;
    record.sample = profile.name + "/session-0";
    record.label = 0;
    record.calls = sandbox.benign_trace(profile, 0, min_trace_length);
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace csdml::ransomware
