#include "adt/text_format.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>

#include "util/json.hpp"

namespace adtp {

namespace {

/// std::isspace and std::isalnum of the "C" locale, minus the locale
/// lookup: the lexer calls them once per byte.
constexpr bool is_space(char ch) {
  return ch == ' ' || (ch >= '\t' && ch <= '\r');
}
constexpr bool is_alnum(char ch) {
  const char lower = static_cast<char>(ch | 0x20);
  return (ch >= '0' && ch <= '9') || (lower >= 'a' && lower <= 'z');
}

/// A minimal tokenizer for one statement line. Tokens are views into the
/// line, so lexing copies nothing.
class LineLexer {
 public:
  LineLexer(std::string_view line, std::size_t line_no)
      : line_(line), line_no_(line_no) {}

  /// Next token; punctuation characters are single-char tokens; returns
  /// empty at end of line.
  std::string_view next() {
    skip_space();
    if (pos_ >= line_.size()) return {};
    const char ch = line_[pos_];
    if (ch == '(' || ch == ')' || ch == ',' || ch == '|' || ch == '=') {
      return line_.substr(pos_++, 1);
    }
    if (ch == '"') {
      const std::size_t close = line_.find('"', pos_ + 1);
      if (close == std::string_view::npos) {
        throw ParseError(line_no_, "unterminated quoted name");
      }
      const std::string_view out = line_.substr(pos_ + 1, close - pos_ - 1);
      pos_ = close + 1;
      if (out.empty()) throw ParseError(line_no_, "empty quoted name");
      return out;
    }
    const std::size_t start = pos_;
    while (pos_ < line_.size() && is_word(line_[pos_])) ++pos_;
    if (pos_ == start) {
      throw ParseError(line_no_, std::string("unexpected character '") + ch +
                                     "'");
    }
    return line_.substr(start, pos_ - start);
  }

  std::string_view expect(std::string_view what) {
    const std::string_view tok = next();
    if (tok.empty()) {
      throw ParseError(line_no_, "expected " + std::string(what) +
                                     " but the line ended");
    }
    return tok;
  }

  void expect_literal(std::string_view lit) {
    const std::string_view tok = next();
    if (tok == lit) return;
    if (tok.empty()) {
      throw ParseError(line_no_, "expected '" + std::string(lit) +
                                     "' but the line ended");
    }
    throw ParseError(line_no_, "expected '" + std::string(lit) + "', got '" +
                                   std::string(tok) + "'");
  }

  void expect_end() {
    const std::string_view tok = next();
    if (!tok.empty()) {
      throw ParseError(line_no_,
                       "unexpected trailing token '" + std::string(tok) + "'");
    }
  }

 private:
  static bool is_word(char ch) {
    return is_alnum(ch) || ch == '_' || ch == '@' || ch == '.' || ch == '-' ||
           ch == '+';
  }
  void skip_space() {
    while (pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
  }

  std::string_view line_;
  std::size_t line_no_;
  std::size_t pos_ = 0;
};

/// A value token in std::stod's grammar ("5", "+5", "0.25", "1e-4",
/// "0x10", "inf"), which must consume the whole token. Out of range is an
/// error, except that a subnormal result counts as in range: the export
/// writes every finite value, subnormals included.
double parse_value(std::string_view token, std::size_t line_no) {
  if (token == "inf") return std::numeric_limits<double>::infinity();
  // Up to 15 decimal digits is an exact integer below 1e15: the common
  // case needs no strtod.
  if (token.size() <= 15 &&
      std::all_of(token.begin(), token.end(),
                  [](char ch) { return ch >= '0' && ch <= '9'; })) {
    std::uint64_t v = 0;
    for (const char ch : token) v = v * 10 + static_cast<unsigned>(ch - '0');
    return static_cast<double>(v);
  }
  const std::string copy(token);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(copy.c_str(), &end);
  const bool out_of_range = errno == ERANGE && (v == 0 || std::isinf(v));
  if (end != copy.c_str() + copy.size() || out_of_range) {
    throw ParseError(line_no, "invalid numeric value '" + copy + "'");
  }
  return v;
}

NodeId resolve(const Adt& adt, std::string_view name, std::size_t line_no) {
  const auto id = adt.find(name);
  if (!id) {
    throw ParseError(line_no, "unknown node '" + std::string(name) +
                                  "' (nodes must be defined before use)");
  }
  return *id;
}

std::optional<Agent> parse_agent_token(std::string_view tok) {
  if (tok == "A" || tok == "a") return Agent::Attacker;
  if (tok == "D" || tok == "d") return Agent::Defender;
  return std::nullopt;
}

/// Quotes a name for output when it contains non-word characters.
std::string quote_name(const std::string& name) {
  for (char ch : name) {
    const bool word =
        is_alnum(ch) || ch == '_' || ch == '@' || ch == '.' || ch == '-';
    if (!word) return '"' + name + '"';
  }
  return name;
}

}  // namespace

ParsedModel parse_adt_text(const std::string& text) {
  ParsedModel model;
  bool have_root = false;
  std::string_view root_name;
  std::size_t root_line = 0;
  std::string_view nan_leaf;  // the first leaf whose value is NaN

  // Lines split like std::getline: a final line without '\n' counts, a
  // trailing '\n' opens no extra line.
  const std::string_view all(text);
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < all.size();) {
    const std::size_t eol = std::min(all.find('\n', pos), all.size());
    std::string_view raw = all.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    raw = raw.substr(0, raw.find('#'));
    LineLexer lex(raw, line_no);
    const std::string_view first = lex.next();
    if (first.empty()) continue;

    if (first == "domains") {
      const std::string_view def = lex.expect("defender domain name");
      const std::string_view att = lex.expect("attacker domain name");
      lex.expect_end();
      const auto def_kind = parse_semiring_kind(def);
      const auto att_kind = parse_semiring_kind(att);
      if (!def_kind) {
        throw ParseError(line_no,
                         "unknown defender domain '" + std::string(def) + "'");
      }
      if (!att_kind) {
        throw ParseError(line_no,
                         "unknown attacker domain '" + std::string(att) + "'");
      }
      model.defender_domain = Semiring(*def_kind);
      model.attacker_domain = Semiring(*att_kind);
      continue;
    }

    if (first == "root") {
      root_name = lex.expect("root node name");
      lex.expect_end();
      have_root = true;
      root_line = line_no;
      continue;
    }

    // Node definition: NAME = KIND ...
    const std::string_view name = first;
    lex.expect_literal("=");
    const std::string_view kind = lex.expect("node kind");

    if (kind == "attack" || kind == "defense") {
      const double value = parse_value(lex.expect("value"), line_no);
      lex.expect_end();
      model.adt.add_basic(std::string(name), kind == "attack"
                                                 ? Agent::Attacker
                                                 : Agent::Defender);
      model.attribution.set(std::string(name), value);
      if (std::isnan(value) && nan_leaf.empty()) nan_leaf = name;
      continue;
    }

    if (kind == "AND" || kind == "OR") {
      const std::string_view tok = lex.expect("agent or '('");
      std::optional<Agent> agent;
      if (tok != "(") {
        agent = parse_agent_token(tok);
        if (!agent) {
          throw ParseError(line_no, "expected agent A/D or '(', got '" +
                                        std::string(tok) + "'");
        }
        lex.expect_literal("(");
      }
      std::vector<NodeId> children;
      while (true) {
        const std::string_view child = lex.expect("child name or ')'");
        if (child == ")") break;
        if (child == ",") continue;
        children.push_back(resolve(model.adt, child, line_no));
      }
      lex.expect_end();
      if (children.empty()) {
        throw ParseError(line_no,
                         "gate '" + std::string(name) + "' has no children");
      }
      if (!agent) agent = model.adt.agent(children[0]);
      model.adt.add_gate(std::string(name),
                         kind == "AND" ? GateType::And : GateType::Or, *agent,
                         std::move(children));
      continue;
    }

    if (kind == "INH") {
      lex.expect_literal("(");
      const std::string_view inhibited = lex.expect("inhibited child");
      lex.expect_literal("|");
      const std::string_view trigger = lex.expect("trigger child");
      lex.expect_literal(")");
      lex.expect_end();
      model.adt.add_inhibit(std::string(name),
                            resolve(model.adt, inhibited, line_no),
                            resolve(model.adt, trigger, line_no));
      continue;
    }

    throw ParseError(line_no, "unknown node kind '" + std::string(kind) +
                                  "' (expected attack, defense, AND, OR, "
                                  "INH)");
  }

  if (model.adt.size() == 0) {
    throw ParseError(line_no, "the model defines no nodes");
  }
  if (have_root) {
    model.adt.set_root(resolve(model.adt, root_name, root_line));
  }
  model.adt.freeze();
  // Each leaf got exactly one value on its own line (a repeated name is a
  // ModelError above), so Attribution::validate could only find a NaN.
  if (!nan_leaf.empty()) {
    throw AttributionError("Attribution: value of '" + std::string(nan_leaf) +
                           "' is NaN");
  }
  return model;
}

std::string to_text_format(const AugmentedAdt& aadt) {
  const Adt& adt = aadt.adt();
  std::ostringstream out;
  out << "# adtpareto model: " << adt.size() << " nodes\n";
  out << "domains " << semiring_kind_name(aadt.defender_domain().kind())
      << ' ' << semiring_kind_name(aadt.attacker_domain().kind()) << '\n';

  for (NodeId v : adt.topological_order()) {
    const Node& n = adt.node(v);
    out << quote_name(n.name) << " = ";
    switch (n.type) {
      case GateType::BasicStep:
        out << (n.agent == Agent::Attacker ? "attack " : "defense ")
            << format_double_exact(aadt.value_of(v));
        break;
      case GateType::And:
      case GateType::Or:
        out << (n.type == GateType::And ? "AND " : "OR ")
            << to_string(n.agent) << " (";
        for (std::size_t i = 0; i < n.children.size(); ++i) {
          if (i != 0) out << ", ";
          out << quote_name(adt.name(n.children[i]));
        }
        out << ")";
        break;
      case GateType::Inhibit:
        out << "INH (" << quote_name(adt.name(n.children[0])) << " | "
            << quote_name(adt.name(n.children[1])) << ")";
        break;
    }
    out << '\n';
  }
  out << "root " << quote_name(adt.name(adt.root())) << '\n';
  return out.str();
}

ParsedModel load_adt_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_adt_text(buffer.str());
}

void save_adt_file(const AugmentedAdt& aadt, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw Error("cannot open '" + path + "' for writing");
  }
  out << to_text_format(aadt);
  if (!out) {
    throw Error("failed writing '" + path + "'");
  }
}

}  // namespace adtp
