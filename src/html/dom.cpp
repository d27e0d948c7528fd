#include "html/dom.h"

#include "util/strings.h"

namespace catalyst::html {

std::unique_ptr<Node> Node::document() {
  return std::unique_ptr<Node>(new Node(Kind::Document, "#document", {}));
}

std::unique_ptr<Node> Node::element(std::string tag,
                                    std::vector<Attribute> attributes) {
  return std::unique_ptr<Node>(
      new Node(Kind::Element, std::move(tag), std::move(attributes)));
}

std::unique_ptr<Node> Node::text(std::string content) {
  return std::unique_ptr<Node>(new Node(Kind::Text, std::move(content), {}));
}

std::unique_ptr<Node> Node::comment(std::string content) {
  return std::unique_ptr<Node>(
      new Node(Kind::Comment, std::move(content), {}));
}

std::optional<std::string_view> Node::attr(std::string_view name) const {
  for (const Attribute& a : attributes_) {
    if (a.name == name) return std::string_view(a.value);
  }
  return std::nullopt;
}

void Node::append_child(std::unique_ptr<Node> child) {
  children_.push_back(std::move(child));
}

std::string Node::text_content() const {
  if (kind_ == Kind::Text) return data_;
  std::string out;
  for (const auto& child : children_) out += child->text_content();
  return out;
}

void Node::for_each_element(
    const std::function<void(const Node&)>& fn) const {
  if (kind_ == Kind::Element) fn(*this);
  for (const auto& child : children_) child->for_each_element(fn);
}

const Node* Node::find_first(std::string_view tag) const {
  if (is_element(tag)) return this;
  for (const auto& child : children_) {
    if (const Node* found = child->find_first(tag)) return found;
  }
  return nullptr;
}

}  // namespace catalyst::html
