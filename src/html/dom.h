// A small element tree — the "DOM" the CacheCatalyst server module
// traverses to collect subresource links (§3 of the paper: "it first
// traverses its entire DOM, extracts all resource links").
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "html/tokenizer.h"

namespace catalyst::html {

class Node {
 public:
  enum class Kind { Document, Element, Text, Comment };

  static std::unique_ptr<Node> document();
  static std::unique_ptr<Node> element(std::string tag,
                                       std::vector<Attribute> attributes);
  static std::unique_ptr<Node> text(std::string content);
  static std::unique_ptr<Node> comment(std::string content);

  Kind kind() const { return kind_; }
  /// Tag name (elements), or text/comment content.
  const std::string& data() const { return data_; }
  const std::vector<Attribute>& attributes() const { return attributes_; }
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }

  bool is_element(std::string_view tag) const {
    return kind_ == Kind::Element && data_ == tag;
  }

  /// Attribute value, if present (names are stored lowercased).
  std::optional<std::string_view> attr(std::string_view name) const;
  bool has_attr(std::string_view name) const {
    return attr(name).has_value();
  }

  void append_child(std::unique_ptr<Node> child);

  /// Concatenated text content of this subtree.
  std::string text_content() const;

  /// Depth-first visit of every element node in the subtree.
  void for_each_element(const std::function<void(const Node&)>& fn) const;

  /// First descendant element with the given tag, or nullptr.
  const Node* find_first(std::string_view tag) const;

 private:
  Node(Kind kind, std::string data, std::vector<Attribute> attributes)
      : kind_(kind), data_(std::move(data)),
        attributes_(std::move(attributes)) {}

  Kind kind_;
  std::string data_;
  std::vector<Attribute> attributes_;
  std::vector<std::unique_ptr<Node>> children_;
};

}  // namespace catalyst::html
