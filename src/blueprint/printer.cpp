#include "blueprint/printer.hpp"

#include "common/strings.hpp"

namespace damocles::blueprint {

namespace {

/// Values print bare when they lex as a single identifier, quoted
/// otherwise (so they re-lex to the same token).
std::string FormatValue(const std::string& value) {
  return IsIdentifier(value) ? value : QuoteString(value);
}

/// A template prints as its original source: a bare identifier if it
/// was one, otherwise quoted.
std::string FormatTemplateValue(const StringTemplate& value) {
  const std::string& source = value.source();
  if (IsIdentifier(source)) return source;
  if (!source.empty() && source.front() == '$' &&
      IsIdentifier(source.substr(1))) {
    return source;  // A bare $variable token.
  }
  return QuoteString(source);
}

std::string FormatCarry(metadb::CarryPolicy carry) {
  switch (carry) {
    case metadb::CarryPolicy::kCopy:
      return " copy";
    case metadb::CarryPolicy::kMove:
      return " move";
    case metadb::CarryPolicy::kNone:
      return "";
  }
  return "";
}

}  // namespace

std::string FormatAction(const Action& action) {
  struct Visitor {
    std::string operator()(const ActionAssign& assign) const {
      return assign.property + " = " + FormatTemplateValue(assign.value);
    }
    std::string operator()(const ActionExec& exec) const {
      std::string text = "exec ";
      text += FormatTemplateValue(exec.script);
      for (const StringTemplate& arg : exec.args) {
        text += ' ';
        text += FormatTemplateValue(arg);
      }
      return text;
    }
    std::string operator()(const ActionNotify& notify) const {
      std::string text = "notify ";
      text += FormatTemplateValue(notify.message);
      return text;
    }
    std::string operator()(const ActionPost& post) const {
      std::string text = "post " + post.event + " " +
                         events::DirectionName(post.direction);
      if (!post.to_view.empty()) text += " to " + post.to_view;
      if (!post.arg.source().empty()) {
        text += ' ';
        text += FormatTemplateValue(post.arg);
      }
      return text;
    }
  };
  return std::visit(Visitor{}, action);
}

std::string FormatBlueprint(const Blueprint& blueprint) {
  std::string out = "blueprint " + blueprint.name + "\n";
  for (const ViewTemplate& view : blueprint.views) {
    out += "view " + view.name + "\n";
    for (const PropertyTemplate& property : view.properties) {
      out += "  property " + property.name + " default " +
             FormatValue(property.default_value) + FormatCarry(property.carry) +
             "\n";
    }
    for (const LinkTemplate& link : view.links) {
      if (link.kind == metadb::LinkKind::kUse) {
        out += "  use_link" + FormatCarry(link.carry) + " propagates " +
               Join(link.propagates, ", ") + "\n";
      } else {
        out += "  link_from " + link.from_view + FormatCarry(link.carry) +
               " propagates " + Join(link.propagates, ", ");
        if (!link.type.empty()) out += " type " + link.type;
        out += "\n";
      }
    }
    for (const ContinuousAssignment& assignment : view.assignments) {
      out += "  let " + assignment.property + " = " +
             assignment.expr.ToSource() + "\n";
    }
    for (const RuntimeRule& rule : view.rules) {
      out += "  when " + rule.event + " do ";
      for (size_t i = 0; i < rule.actions.size(); ++i) {
        if (i != 0) out += "; ";
        out += FormatAction(rule.actions[i]);
      }
      out += " done\n";
    }
    out += "endview\n";
  }
  out += "endblueprint\n";
  return out;
}

}  // namespace damocles::blueprint
