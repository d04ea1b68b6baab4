#include "check/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace xpass::check {

namespace {

const std::string kEmptyString;

// Shortest formatting that strtod round-trips to the same double (same
// scheme as stats::Recorder's JSON emission). Non-finite values have no
// JSON spelling; emit null.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

class Parser {
 public:
  Parser(std::string_view text, std::string* err) : text_(text), err_(err) {}

  std::optional<Json> run() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  void fail(const std::string& why) {
    if (err_ != nullptr && err_->empty()) {
      *err_ = "offset " + std::to_string(pos_) + ": " + why;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<Json> value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      auto s = string();
      if (!s) return std::nullopt;
      return Json::str(std::move(*s));
    }
    if (literal("null")) return Json();
    if (literal("true")) return Json::boolean(true);
    if (literal("false")) return Json::boolean(false);
    return number();
  }

  std::optional<std::string> string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            const std::string hex(text_.substr(pos_, 4));
            char* end = nullptr;
            const long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4 || code > 0x7f) {
              fail("unsupported \\u escape (ASCII only)");
              return std::nullopt;
            }
            out += static_cast<char>(code);
            pos_ += 4;
            break;
          }
          default:
            fail("bad escape");
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string tok(text_.substr(start, pos_ - start));
    if (tok.empty() || tok == "-") {
      pos_ = start;
      fail("expected a value");
      return std::nullopt;
    }
    // Unsigned integer tokens keep exact 64-bit precision (seeds!); any
    // sign/fraction/exponent goes through the double path.
    if (integral && tok[0] != '-') {
      errno = 0;
      char* end = nullptr;
      const unsigned long long u = std::strtoull(tok.c_str(), &end, 10);
      if (errno == 0 && end == tok.c_str() + tok.size()) {
        return Json::u64(static_cast<uint64_t>(u));
      }
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      pos_ = start;
      fail("malformed number '" + tok + "'");
      return std::nullopt;
    }
    return Json::number(d);
  }

  std::optional<Json> array() {
    ++pos_;  // '['
    Json out = Json::array();
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      auto v = value();
      if (!v) return std::nullopt;
      out.push(std::move(*v));
      if (consume(']')) return out;
      if (!consume(',')) {
        fail("expected ',' or ']'");
        return std::nullopt;
      }
    }
  }

  std::optional<Json> object() {
    ++pos_;  // '{'
    Json out = Json::object();
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        return std::nullopt;
      }
      const size_t key_pos = pos_;
      auto key = string();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':'");
        return std::nullopt;
      }
      auto v = value();
      if (!v) return std::nullopt;
      const size_t n = out.members().size();
      out.set(*key, std::move(*v));
      if (out.members().size() == n) {  // set() replaced an earlier member
        pos_ = key_pos;
        fail("duplicate key '" + *key + "'");
        return std::nullopt;
      }
      if (consume('}')) return out;
      if (!consume(',')) {
        fail("expected ',' or '}'");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::string* err_;
  size_t pos_ = 0;
};

}  // namespace

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::u64(uint64_t v) {
  Json j;
  j.type_ = Type::kNumber;
  j.u64_ = v;
  j.num_ = static_cast<double>(v);
  j.num_is_u64_ = true;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  return j;
}

Json Json::str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double Json::as_double(double fallback) const {
  return type_ == Type::kNumber ? num_ : fallback;
}

uint64_t Json::as_u64(uint64_t fallback) const {
  if (type_ != Type::kNumber) return fallback;
  if (num_is_u64_) return u64_;
  return num_ >= 0 ? static_cast<uint64_t>(num_) : fallback;
}

const std::string& Json::as_string() const {
  return type_ == Type::kString ? str_ : kEmptyString;
}

void Json::push(Json v) {
  items_.push_back(std::move(v));
}

Json& Json::set(const std::string& key, Json v) {
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  members_.emplace_back(key, std::move(v));
  return members_.back().second;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::get_double(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_double(fallback) : fallback;
}

uint64_t Json::get_u64(const std::string& key, uint64_t fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->as_u64(fallback) : fallback;
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->type() == Type::kString ? v->as_string()
                                                    : fallback;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad =
      pretty ? std::string(static_cast<size_t>(indent) * (depth + 1), ' ')
             : std::string();
  const std::string close_pad =
      pretty ? std::string(static_cast<size_t>(indent) * depth, ' ')
             : std::string();
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      if (num_is_u64_) {
        out += std::to_string(u64_);
      } else {
        append_double(out, num_);
      }
      break;
    case Type::kString:
      append_quoted(out, str_);
      break;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += pretty ? "," : ", ";
        if (pretty) {
          out += '\n';
          out += pad;
        }
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += pretty ? "," : ", ";
        if (pretty) {
          out += '\n';
          out += pad;
        }
        append_quoted(out, members_[i].first);
        out += ": ";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::optional<Json> Json::parse(std::string_view text, std::string* err) {
  if (err != nullptr) err->clear();
  return Parser(text, err).run();
}

}  // namespace xpass::check
