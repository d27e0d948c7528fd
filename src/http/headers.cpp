#include "http/headers.h"

#include "util/strings.h"

namespace catalyst::http {

void Headers::add(std::string_view name, std::string_view value) {
  fields_.push_back(Field{std::string(name), std::string(value)});
}

void Headers::set(std::string_view name, std::string_view value) {
  remove(name);
  add(name, value);
}

std::size_t Headers::remove(std::string_view name) {
  const std::size_t before = fields_.size();
  std::erase_if(fields_,
                [name](const Field& f) { return iequals(f.name, name); });
  return before - fields_.size();
}

std::optional<std::string_view> Headers::get(std::string_view name) const {
  for (const Field& f : fields_) {
    if (iequals(f.name, name)) return std::string_view(f.value);
  }
  return std::nullopt;
}

bool Headers::contains(std::string_view name) const {
  return get(name).has_value();
}

ByteCount Headers::wire_size() const {
  ByteCount total = 0;
  for (const Field& f : fields_) {
    total += f.name.size() + 2 /* ": " */ + f.value.size() + 2 /* CRLF */;
  }
  return total;
}

bool Headers::operator==(const Headers& other) const {
  if (fields_.size() != other.fields_.size()) return false;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (!iequals(fields_[i].name, other.fields_[i].name) ||
        fields_[i].value != other.fields_[i].value) {
      return false;
    }
  }
  return true;
}

}  // namespace catalyst::http
