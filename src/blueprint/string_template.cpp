#include "blueprint/string_template.hpp"

#include <cctype>

namespace damocles::blueprint {

namespace {

bool IsVarChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

StringTemplate StringTemplate::Parse(std::string_view text) {
  StringTemplate result;
  result.source_ = std::string(text);

  std::string literal;
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c != '$') {
      literal.push_back(c);
      ++i;
      continue;
    }
    if (i + 1 < text.size() && text[i + 1] == '$') {
      literal.push_back('$');
      i += 2;
      continue;
    }
    size_t j = i + 1;
    while (j < text.size() && IsVarChar(text[j])) ++j;
    if (j == i + 1) {
      // Lone '$' with no name: keep it literal.
      literal.push_back('$');
      ++i;
      continue;
    }
    if (!literal.empty()) {
      result.pieces_.push_back(Piece{false, std::move(literal)});
      literal.clear();
    }
    result.pieces_.push_back(
        Piece{true, std::string(text.substr(i + 1, j - i - 1))});
    i = j;
  }
  if (!literal.empty()) {
    result.pieces_.push_back(Piece{false, std::move(literal)});
  }
  return result;
}

StringTemplate StringTemplate::Variable(std::string_view name) {
  StringTemplate result;
  result.source_ += '$';
  result.source_ += name;
  result.pieces_.push_back(Piece{true, std::string(name)});
  return result;
}

StringTemplate StringTemplate::Literal(std::string_view text) {
  StringTemplate result;
  result.source_ = std::string(text);
  if (!text.empty()) {
    result.pieces_.push_back(Piece{false, std::string(text)});
  }
  return result;
}

std::string StringTemplate::Expand(const VariableResolver& resolver) const {
  std::string out;
  for (const Piece& piece : pieces_) {
    if (piece.is_variable) {
      out += resolver(piece.text);
    } else {
      out += piece.text;
    }
  }
  return out;
}

bool StringTemplate::IsPureLiteral() const noexcept {
  for (const Piece& piece : pieces_) {
    if (piece.is_variable) return false;
  }
  return true;
}

std::vector<std::string> StringTemplate::VariableNames() const {
  std::vector<std::string> names;
  for (const Piece& piece : pieces_) {
    if (piece.is_variable) names.push_back(piece.text);
  }
  return names;
}

}  // namespace damocles::blueprint
