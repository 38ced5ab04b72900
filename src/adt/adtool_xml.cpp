#include "adt/adtool_xml.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "util/json.hpp"

namespace adtp {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// std::isspace and std::isalnum of the "C" locale, minus the locale
/// lookup: the reader's inner loops call them once per byte.
constexpr bool is_space(char ch) {
  return ch == ' ' || (ch >= '\t' && ch <= '\r');
}
constexpr bool is_alnum(char ch) {
  const char lower = static_cast<char>(ch | 0x20);
  return (ch >= '0' && ch <= '9') || (lower >= 'a' && lower <= 'z');
}

/// One element of the document, held as views into the input.
struct XmlElement {
  std::string_view name;
  /// The attribute values the importer reads, entities decoded; empty
  /// when absent. A repeated attribute keeps its last value.
  std::string_view refinement;
  std::string_view switch_role;
  std::string_view domain_id;
  /// Character data directly inside, concatenated and entity-decoded.
  /// Kept only for <label> and <parameter>, the elements that use it.
  std::string_view text;
  std::uint32_t first_child = kNone;
  std::uint32_t last_child = kNone;
  std::uint32_t next_sibling = kNone;
  std::uint32_t text_buffer = kNone;  ///< index into owned_, once needed
};

/// A minimal XML reader - just enough for ADTool exports: elements,
/// attributes, text content, comments, declarations. No namespaces, no
/// CDATA, no DTDs. One pass records every element in document order,
/// with an explicit stack of open elements instead of recursion, so the
/// nesting depth is bounded by memory rather than by the call stack.
class XmlDocument {
 public:
  explicit XmlDocument(std::string_view input) : in_(input) {
    skip_misc();
    std::vector<std::uint32_t> open;
    if (start_tag(kNone)) open.push_back(0);
    while (!open.empty()) {
      const std::uint32_t top = open.back();
      if (pos_ >= in_.size()) {
        fail("unterminated element <" + std::string(elements_[top].name) +
             ">");
      }
      if (in_[pos_] != '<') {
        const auto end = in_.find('<', pos_);
        if (end == std::string_view::npos) {
          fail("unterminated element <" + std::string(elements_[top].name) +
               ">");
        }
        add_text(top, in_.substr(pos_, end - pos_));
        pos_ = end;
      } else if (starts_with("</")) {
        pos_ += 2;
        const std::string_view name = parse_name();
        if (name != elements_[top].name) {
          fail("mismatched close tag </" + std::string(name) + "> for <" +
               std::string(elements_[top].name) + ">");
        }
        skip_ws();
        if (pos_ >= in_.size() || in_[pos_] != '>') fail("expected '>'");
        ++pos_;
        open.pop_back();
      } else if (starts_with("<!--")) {
        skip_comment();
      } else {
        const auto child = static_cast<std::uint32_t>(elements_.size());
        if (start_tag(top)) open.push_back(child);
      }
    }
    skip_misc();
    if (pos_ != in_.size()) {
      fail("trailing content after the document element");
    }
  }

  /// Every element in document order; the document element is first.
  [[nodiscard]] const std::vector<XmlElement>& elements() const {
    return elements_;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < in_.size(); ++i) {
      if (in_[i] == '\n') ++line;
    }
    throw ParseError(line, "adtool xml: " + what);
  }

  [[nodiscard]] bool starts_with(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }

  void skip_ws() {
    while (pos_ < in_.size() && is_space(in_[pos_])) ++pos_;
  }

  void skip_comment() {
    const auto end = in_.find("-->", pos_ + 4);
    if (end == std::string_view::npos) fail("unterminated comment");
    pos_ = end + 3;
  }

  /// Skips whitespace, comments and processing instructions/declarations.
  void skip_misc() {
    while (true) {
      skip_ws();
      if (starts_with("<!--")) {
        skip_comment();
      } else if (starts_with("<?")) {
        const auto end = in_.find("?>", pos_ + 2);
        if (end == std::string_view::npos) fail("unterminated declaration");
        pos_ = end + 2;
      } else {
        return;
      }
    }
  }

  std::string_view parse_name() {
    const std::size_t start = pos_;
    while (pos_ < in_.size() &&
           (is_alnum(in_[pos_]) || in_[pos_] == '_' || in_[pos_] == '-' ||
            in_[pos_] == ':' || in_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a name");
    return in_.substr(start, pos_ - start);
  }

  /// Appends \p raw to \p out with the predefined entities decoded.
  void append_decoded(std::string& out, std::string_view raw) const {
    std::size_t i = 0;
    while (true) {
      const auto amp = raw.find('&', i);
      out.append(raw.substr(i, amp - i));
      if (amp == std::string_view::npos) return;
      const auto semi = raw.find(';', amp);
      if (semi == std::string_view::npos) fail("unterminated entity");
      const std::string_view entity = raw.substr(amp + 1, semi - amp - 1);
      if (entity == "amp") {
        out += '&';
      } else if (entity == "lt") {
        out += '<';
      } else if (entity == "gt") {
        out += '>';
      } else if (entity == "quot") {
        out += '"';
      } else if (entity == "apos") {
        out += '\'';
      } else {
        fail("unknown entity '&" + std::string(entity) + ";'");
      }
      i = semi + 1;
    }
  }

  /// \p raw decoded: itself when it has no entity, else an owned copy.
  std::string_view decoded(std::string_view raw) {
    if (raw.find('&') == std::string_view::npos) return raw;
    append_decoded(owned_.emplace_back(), raw);
    return owned_.back();
  }

  /// Parses a start tag at pos_ as a child of \p parent (kNone for the
  /// document element); returns false when it was self-closing.
  bool start_tag(std::uint32_t parent) {
    if (pos_ >= in_.size() || in_[pos_] != '<') fail("expected '<'");
    ++pos_;
    const auto id = static_cast<std::uint32_t>(elements_.size());
    elements_.emplace_back().name = parse_name();
    if (parent != kNone) {
      XmlElement& p = elements_[parent];
      if (p.last_child == kNone) {
        p.first_child = id;
      } else {
        elements_[p.last_child].next_sibling = id;
      }
      p.last_child = id;
    }

    while (true) {
      skip_ws();
      if (pos_ >= in_.size()) fail("unterminated start tag");
      if (in_[pos_] == '>') {
        ++pos_;
        return true;
      }
      if (starts_with("/>")) {
        pos_ += 2;
        return false;
      }
      const std::string_view key = parse_name();
      skip_ws();
      if (pos_ >= in_.size() || in_[pos_] != '=') fail("expected '='");
      ++pos_;
      skip_ws();
      if (pos_ >= in_.size() || (in_[pos_] != '"' && in_[pos_] != '\'')) {
        fail("expected a quoted attribute value");
      }
      const char quote = in_[pos_++];
      const auto end = in_.find(quote, pos_);
      if (end == std::string_view::npos) fail("unterminated attribute value");
      const std::string_view value = decoded(in_.substr(pos_, end - pos_));
      XmlElement& element = elements_[id];
      if (key == "refinement") {
        element.refinement = value;
      } else if (key == "switchRole") {
        element.switch_role = value;
      } else if (key == "domainId") {
        element.domain_id = value;
      }
      pos_ = end + 1;
    }
  }

  /// Character data \p raw directly inside element \p id.
  void add_text(std::uint32_t id, std::string_view raw) {
    XmlElement& element = elements_[id];
    if (element.name != "label" && element.name != "parameter") {
      // Unused, but a bad entity is still a malformed document.
      if (raw.find('&') != std::string_view::npos) {
        std::string scratch;
        append_decoded(scratch, raw);
      }
      return;
    }
    if (element.text.empty()) {
      element.text = decoded(raw);
      return;
    }
    if (element.text_buffer == kNone) {
      element.text_buffer = static_cast<std::uint32_t>(owned_.size());
      owned_.emplace_back(element.text);
    }
    std::string& buffer = owned_[element.text_buffer];
    append_decoded(buffer, raw);
    element.text = buffer;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  std::vector<XmlElement> elements_;
  /// Decoded text that is not a plain slice of the input; a deque, so the
  /// views into it stay valid as it grows.
  std::deque<std::string> owned_;
};

std::string_view trim(std::string_view s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return {};
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

bool is_countermeasure(const XmlElement& node) {
  return node.switch_role == "yes" || node.switch_role == "true";
}

/// Converts the ADTool element tree into an Adt, without recursion. The
/// order of every step is fixed, because NodeIds, generated names and
/// the domain_ids order all follow it: a node's same-role children are
/// converted first, then the node itself (its gate, or its basic step
/// before anything else), then its countermeasures, their OR and the INH.
class Converter {
 public:
  Converter(const std::vector<XmlElement>& elements, AdtoolImport& out,
            std::string_view domain_id)
      : elements_(elements), out_(out), requested_domain_(domain_id) {}

  NodeId convert(std::uint32_t root_node) {
    enter(root_node, Agent::Attacker);
    while (true) {
      Frame& frame = stack_.back();
      if (const std::uint32_t child = next_child(frame); child != kNone) {
        enter(child, frame.countering ? opponent(frame.role) : frame.role);
        continue;
      }
      const std::span<const NodeId> done(results_.data() + frame.results,
                                         results_.size() - frame.results);
      if (!frame.countering) {
        // Same-role children converted: the refinement gate over them.
        if (!done.empty()) {
          frame.base = out_.adt.add_gate(
              unique_name(std::string(frame.label)), frame.type, frame.role,
              std::vector<NodeId>(done.begin(), done.end()));
        }
        results_.resize(frame.results);
        frame.countering = true;
        frame.cursor = elements_[frame.element].first_child;
        continue;
      }
      // Countermeasures belong to the opposite agent; several of them
      // are OR-ed (any one blocks).
      NodeId id = frame.base;
      if (!done.empty()) {
        const NodeId trigger =
            done.size() == 1
                ? done.front()
                : out_.adt.add_gate(
                      unique_name(std::string(frame.label) + " counters"),
                      GateType::Or, opponent(frame.role),
                      std::vector<NodeId>(done.begin(), done.end()));
        id = out_.adt.add_inhibit(
            unique_name(std::string(frame.label) + " countered"), frame.base,
            trigger);
      }
      results_.resize(frame.results);
      stack_.pop_back();
      if (stack_.empty()) return id;
      results_.push_back(id);
    }
  }

 private:
  /// A <node> being converted: its same-role children first, then its
  /// countermeasures; converted children collect on results_.
  struct Frame {
    std::uint32_t element;
    Agent role;
    bool countering;
    std::uint32_t cursor;  ///< next child element to look at
    std::size_t results;   ///< where this node's children start in results_
    std::string_view label;
    GateType type;
    NodeId base;
  };

  /// Reads a <node>'s label and parameters, creates its basic step when
  /// it has no same-role child, and pushes its frame.
  void enter(std::uint32_t element, Agent role) {
    std::string_view label;
    bool refined = false;
    for (std::uint32_t c = elements_[element].first_child; c != kNone;
         c = elements_[c].next_sibling) {
      const XmlElement& child = elements_[c];
      if (child.name == "label") {
        label = trim(child.text);
      } else if (child.name == "node") {
        refined = refined || !is_countermeasure(child);
      } else if (child.name == "parameter") {
        record_parameter(child, label);
      }
      // Other elements (<comment> etc.): ignored.
    }
    if (label.empty()) {
      throw ModelError("adtool xml: <node> without a <label>");
    }
    Frame frame{element, role, false, kNone, results_.size(), label,
                GateType::Or, kNoNode};
    if (refined) {
      const std::string_view refinement = elements_[element].refinement;
      if (refinement == "conjunctive") {
        frame.type = GateType::And;
      } else if (refinement != "disjunctive" && !refinement.empty()) {
        throw ModelError("adtool xml: unknown refinement '" +
                         std::string(refinement) + "'");
      }
      frame.cursor = elements_[element].first_child;
    } else {
      frame.base = basic_step(label, role);
    }
    stack_.push_back(frame);
  }

  /// The next <node> child of \p frame's phase, or kNone.
  std::uint32_t next_child(Frame& frame) const {
    while (frame.cursor != kNone) {
      const std::uint32_t c = frame.cursor;
      const XmlElement& child = elements_[c];
      frame.cursor = child.next_sibling;
      if (child.name == "node" &&
          is_countermeasure(child) == frame.countering) {
        return c;
      }
    }
    return kNone;
  }

  /// ADTool's repeated-labels convention: equal basic-step labels (per
  /// role) are the *same* action - one shared node. Basic steps are named
  /// by their label, so the node of that name is the one to share.
  NodeId basic_step(std::string_view label, Agent role) {
    if (const auto id = out_.adt.find(label);
        id && out_.adt.type(*id) == GateType::BasicStep &&
        out_.adt.agent(*id) == role) {
      return *id;
    }
    return out_.adt.add_basic(std::string(label), role);
  }

  std::string unique_name(std::string base) {
    // Labels may repeat freely in ADTool (both between gates and against
    // basic steps); probe base, base@2, base@3, ... until a name is free.
    // The counter remembers where the last probe for this base stopped;
    // a base that is free on its first use needs no counter yet.
    const auto it = name_uses_.find(base);
    if (it == name_uses_.end() && !out_.adt.find(base)) return base;
    std::size_t& n = it != name_uses_.end() ? it->second : name_uses_[base];
    while (true) {
      ++n;
      std::string candidate =
          n == 1 ? base : base + "@" + std::to_string(n);
      if (!out_.adt.find(candidate)) return candidate;
    }
  }

  void record_parameter(const XmlElement& parameter, std::string_view label) {
    const std::string_view domain = parameter.domain_id;
    if (!domain.empty() &&
        std::find(out_.domain_ids.begin(), out_.domain_ids.end(), domain) ==
            out_.domain_ids.end()) {
      out_.domain_ids.emplace_back(domain);
    }
    const std::string_view wanted =
        requested_domain_.empty()
            ? (out_.domain_ids.empty() ? std::string_view()
                                       : out_.domain_ids.front())
            : requested_domain_;
    if (!wanted.empty() && domain != wanted) return;
    if (label.empty()) {
      throw ModelError("adtool xml: <parameter> before the node's <label>");
    }
    const std::string value(trim(parameter.text));
    try {
      out_.attribution.set(std::string(label), parse_parameter(value));
    } catch (const std::exception&) {
      throw ModelError("adtool xml: non-numeric parameter value '" + value +
                       "' on '" + std::string(label) + "'");
    }
  }

  /// std::stod, with plain digit strings below 1e15 (exact integers)
  /// read directly.
  static double parse_parameter(const std::string& value) {
    if (!value.empty() && value.size() <= 15 &&
        std::all_of(value.begin(), value.end(),
                    [](char ch) { return ch >= '0' && ch <= '9'; })) {
      std::uint64_t v = 0;
      for (const char ch : value) v = v * 10 + static_cast<unsigned>(ch - '0');
      return static_cast<double>(v);
    }
    return std::stod(value);
  }

  const std::vector<XmlElement>& elements_;
  AdtoolImport& out_;
  std::string_view requested_domain_;
  std::vector<Frame> stack_;
  std::vector<NodeId> results_;
  std::unordered_map<std::string, std::size_t> name_uses_;
};

}  // namespace

AdtoolImport import_adtool_xml(const std::string& xml,
                               const std::string& domain_id) {
  const XmlDocument document(xml);
  const std::vector<XmlElement>& elements = document.elements();
  const XmlElement& adtree = elements.front();
  if (adtree.name != "adtree") {
    throw ModelError("adtool xml: document element is <" +
                     std::string(adtree.name) + ">, expected <adtree>");
  }
  std::uint32_t root_node = kNone;
  for (std::uint32_t c = adtree.first_child; c != kNone;
       c = elements[c].next_sibling) {
    if (elements[c].name == "node") {
      if (root_node != kNone) {
        throw ModelError("adtool xml: multiple root <node> elements");
      }
      root_node = c;
    }
  }
  if (root_node == kNone) {
    throw ModelError("adtool xml: <adtree> has no <node>");
  }

  AdtoolImport result;
  const NodeId root =
      Converter(elements, result, domain_id).convert(root_node);
  result.adt.set_root(root);
  result.adt.freeze();
  return result;
}

AdtoolImport load_adtool_file(const std::string& path,
                              const std::string& domain_id) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return import_adtool_xml(buffer.str(), domain_id);
}

namespace {

std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += ch;
    }
  }
  return out;
}

/// The recursive ADTool serializer; see export_adtool_xml() in the
/// header for the mapping.
class Exporter {
 public:
  Exporter(const Adt& adt, const Attribution& attribution,
           const std::string& domain_id)
      : adt_(adt), attribution_(attribution), domain_id_(domain_id) {}

  std::string run() {
    out_ = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<adtree>\n";
    render(adt_.root(), false, 1);
    out_ += "</adtree>\n";
    return std::move(out_);
  }

 private:
  void indent(int depth) { out_.append(static_cast<std::size_t>(depth) * 2, ' '); }

  /// Renders node \p v as one <node> element. An INH renders as its
  /// *base* element with the trigger appended as a countermeasure; a
  /// nested-INH base gets a singleton disjunctive wrapper so the result
  /// stays inside ADTool's representable class.
  void render(NodeId v, bool switch_role, int depth) {
    if (adt_.type(v) == GateType::Inhibit) {
      const NodeId base = adt_.inhibited_child(v);
      const NodeId trigger = adt_.trigger_child(v);
      if (adt_.type(base) == GateType::Inhibit) {
        indent(depth);
        out_ += "<node refinement=\"disjunctive\"";
        if (switch_role) out_ += " switchRole=\"yes\"";
        out_ += ">\n";
        emit_label(adt_.name(v), depth + 1);
        render(base, false, depth + 1);
        render(trigger, true, depth + 1);
        indent(depth);
        out_ += "</node>\n";
      } else {
        render_plain(base, switch_role, trigger, depth);
      }
      return;
    }
    render_plain(v, switch_role, kNoNode, depth);
  }

  /// Renders a non-INH node, optionally with \p counter appended as a
  /// switchRole child (the trigger of the INH wrapping it).
  void render_plain(NodeId v, bool switch_role, NodeId counter, int depth) {
    indent(depth);
    out_ += "<node";
    if (adt_.type(v) == GateType::And) {
      out_ += " refinement=\"conjunctive\"";
    } else if (adt_.type(v) == GateType::Or) {
      out_ += " refinement=\"disjunctive\"";
    }
    if (switch_role) out_ += " switchRole=\"yes\"";
    out_ += ">\n";
    emit_label(adt_.name(v), depth + 1);
    if (adt_.type(v) == GateType::BasicStep &&
        attribution_.has(adt_.name(v))) {
      indent(depth + 1);
      out_ += "<parameter domainId=\"" + xml_escape(domain_id_) +
              "\" category=\"basic\">" +
              format_double_exact(attribution_.get(adt_.name(v))) +
              "</parameter>\n";
    }
    for (NodeId c : adt_.children(v)) render(c, false, depth + 1);
    if (counter != kNoNode) render(counter, true, depth + 1);
    indent(depth);
    out_ += "</node>\n";
  }

  void emit_label(const std::string& name, int depth) {
    indent(depth);
    out_ += "<label>" + xml_escape(name) + "</label>\n";
  }

  const Adt& adt_;
  const Attribution& attribution_;
  const std::string& domain_id_;
  std::string out_;
};

}  // namespace

std::string export_adtool_xml(const Adt& adt, const Attribution& attribution,
                              const std::string& domain_id) {
  adt.require_frozen();
  if (adt.agent(adt.root()) != Agent::Attacker) {
    throw ModelError(
        "adtool xml: export requires an attacker root (ADTool's proponent); "
        "defender-rooted models are not representable");
  }
  return Exporter(adt, attribution, domain_id).run();
}

void save_adtool_file(const Adt& adt, const Attribution& attribution,
                      const std::string& path, const std::string& domain_id) {
  std::ofstream out(path);
  if (!out) {
    throw Error("cannot open '" + path + "' for writing");
  }
  out << export_adtool_xml(adt, attribution, domain_id);
  if (!out.good()) {
    throw Error("failed writing '" + path + "'");
  }
}

}  // namespace adtp
