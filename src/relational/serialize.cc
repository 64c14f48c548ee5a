#include "relational/serialize.h"

#include <sstream>

#include "core/text.h"

namespace dynfo::relational {

namespace {

/// Emits a dense bitmap page: the word array with zero runs run-length
/// encoded as "z<count>" and live words as 16-digit hex. The overlay is
/// folded by the caller, so page bytes are a pure function of the logical
/// contents plus the backend flag — flattening never changes a snapshot.
void WriteDensePage(std::ostringstream* out, const std::string& name,
                    const DenseSet& set) {
  *out << "dense " << name << " words=" << set.num_words();
  const uint64_t* words = set.words();
  const size_t count = set.num_words();
  for (size_t i = 0; i < count;) {
    if (words[i] == 0) {
      size_t run = 1;
      while (i + run < count && words[i + run] == 0) ++run;
      *out << " z" << run;
      i += run;
    } else {
      *out << " " << core::HexU64(words[i]);
      ++i;
    }
  }
  *out << "\n";
}

}  // namespace

std::string WriteStructure(const Structure& structure) {
  std::ostringstream out;
  out << "structure n=" << structure.universe_size() << "\n";
  const Vocabulary& vocab = structure.vocabulary();
  for (int i = 0; i < vocab.num_relations(); ++i) {
    const std::string& name = vocab.relation(i).name;
    const Relation& rel = structure.relation(i);
    if (rel.backend() == RelationBackend::kDense) {
      WriteDensePage(&out, name, rel.DenseContents());
      continue;
    }
    for (const Tuple& t : rel.SortedTuples()) {
      out << "rel " << name;
      for (int p = 0; p < t.size(); ++p) out << " " << t[p];
      out << "\n";
    }
  }
  for (int j = 0; j < vocab.num_constants(); ++j) {
    out << "const " << vocab.constant(j) << " " << structure.constant(j) << "\n";
  }
  out << "end\n";
  return out.str();
}

namespace {

core::Status Err(size_t line, const std::string& message) {
  return core::Status::Error("line " + std::to_string(line) + ": " + message);
}

/// Universes are {0..n-1} with n <= 2^32 (Element is uint32_t); accepting a
/// larger header would make the per-element range checks wrap on the cast.
constexpr uint64_t kMaxUniverse = uint64_t{1} << 32;

/// Strictly parses the next whitespace token as an in-universe element.
bool NextElement(std::istringstream* words, uint64_t universe_size,
                 Element* out) {
  std::string token;
  if (!(*words >> token)) return false;
  uint64_t value = 0;
  if (!core::ParseU64(token, &value) || value >= universe_size) return false;
  *out = static_cast<Element>(value);
  return true;
}

bool HasTrailingTokens(std::istringstream* words) {
  std::string extra;
  return static_cast<bool>(*words >> extra);
}

}  // namespace

core::Result<Structure> ReadStructure(const std::string& text,
                                      std::shared_ptr<const Vocabulary> vocabulary) {
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  bool saw_header = false;
  bool saw_end = false;
  std::unique_ptr<Structure> structure;

  while (std::getline(in, line)) {
    ++line_number;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream words(line);
    std::string keyword;
    if (!(words >> keyword)) continue;
    if (saw_end) return Err(line_number, "content after 'end'");

    if (keyword == "structure") {
      std::string size_field;
      if (saw_header || !(words >> size_field) || size_field.rfind("n=", 0) != 0) {
        return Err(line_number, "expected a single 'structure n=<size>' header");
      }
      uint64_t n = 0;
      if (!core::ParseU64(size_field.substr(2), &n)) {
        return Err(line_number, "bad universe size: " + size_field);
      }
      if (n == 0) return Err(line_number, "universes are nonempty");
      if (n > kMaxUniverse) {
        return Err(line_number, "universe size above element range: " + size_field);
      }
      if (HasTrailingTokens(&words)) {
        return Err(line_number, "trailing tokens after header");
      }
      structure = std::make_unique<Structure>(vocabulary, static_cast<size_t>(n));
      saw_header = true;
      continue;
    }
    if (!saw_header) return Err(line_number, "missing 'structure n=...' header");

    if (keyword == "rel") {
      std::string name;
      if (!(words >> name)) return Err(line_number, "rel needs a relation name");
      int index = vocabulary->RelationIndex(name);
      if (index < 0) return Err(line_number, "unknown relation " + name);
      const int arity = vocabulary->relation(index).arity;
      Tuple t;
      for (int p = 0; p < arity; ++p) {
        Element value = 0;
        if (!NextElement(&words, structure->universe_size(), &value)) {
          return Err(line_number, name + " tuple malformed or outside universe");
        }
        t = t.Append(value);
      }
      if (HasTrailingTokens(&words)) return Err(line_number, name + " tuple too long");
      structure->relation(index).Insert(t);
      continue;
    }
    if (keyword == "dense") {
      std::string name;
      if (!(words >> name)) return Err(line_number, "dense needs a relation name");
      int index = vocabulary->RelationIndex(name);
      if (index < 0) return Err(line_number, "unknown relation " + name);
      const int arity = vocabulary->relation(index).arity;
      const size_t n = structure->universe_size();
      // Checked before the page is sized: the header's universe alone would
      // otherwise pick the allocation (2 TB for an arity-2 page at n=4e6).
      if (!Relation::DenseRepresentable(arity, n)) {
        return Err(line_number, name + " cannot be dense at arity " +
                                    std::to_string(arity) + " over n=" +
                                    std::to_string(n));
      }
      Relation& rel = structure->relation(index);
      if (rel.backend() == RelationBackend::kDense || !rel.empty()) {
        return Err(line_number, "duplicate page for relation " + name);
      }
      const size_t expected_words = DenseSet::WordsFor(arity, n);
      std::string words_field;
      if (!(words >> words_field) || words_field.rfind("words=", 0) != 0) {
        return Err(line_number, "dense needs a words=<count> field");
      }
      uint64_t declared = 0;
      if (!core::ParseU64(words_field.substr(6), &declared) ||
          declared != expected_words) {
        return Err(line_number, "dense word count does not match " + name +
                                    "'s shape over this universe");
      }
      DenseSet* target = rel.BeginDenseRewrite(n);
      uint64_t* page = target->mutable_words();
      size_t filled = 0;
      std::string token;
      while (words >> token) {
        if (token[0] == 'z') {
          uint64_t run = 0;
          if (!core::ParseU64(token.substr(1), &run) || run == 0 ||
              run > expected_words - filled) {
            return Err(line_number, "bad zero run in dense page");
          }
          filled += static_cast<size_t>(run);  // page starts zeroed
          continue;
        }
        uint64_t value = 0;
        if (token.size() != 16 || !core::ParseHexU64(token, &value) ||
            filled >= expected_words) {
          return Err(line_number, "bad word in dense page");
        }
        page[filled++] = value;
      }
      if (filled != expected_words) {
        return Err(line_number, "dense page for " + name + " holds " +
                                    std::to_string(filled) + " words, want " +
                                    std::to_string(expected_words));
      }
      if (!target->CheckTailBitsZero()) {
        return Err(line_number, "dense page sets bits outside the universe");
      }
      rel.FinishDenseRewrite();
      continue;
    }
    if (keyword == "const") {
      std::string name;
      if (!(words >> name)) return Err(line_number, "const needs name value");
      if (vocabulary->ConstantIndex(name) < 0) {
        return Err(line_number, "unknown constant " + name);
      }
      Element value = 0;
      if (!NextElement(&words, structure->universe_size(), &value)) {
        return Err(line_number, "constant malformed or outside universe");
      }
      if (HasTrailingTokens(&words)) {
        return Err(line_number, "trailing tokens after const");
      }
      structure->set_constant(name, value);
      continue;
    }
    if (keyword == "end") {
      if (HasTrailingTokens(&words)) return Err(line_number, "trailing tokens after end");
      saw_end = true;
      continue;
    }
    return Err(line_number, "unrecognized keyword " + keyword);
  }
  if (!saw_header) return core::Status::Error("empty input");
  if (!saw_end) return core::Status::Error("missing 'end'");
  return std::move(*structure);
}

std::string WrapChecksummed(const std::string& kind, const std::string& payload) {
  std::string out = "dynfo " + kind + " v1 bytes=" + std::to_string(payload.size()) +
                    "\n" + payload;
  out += "checksum fnv1a " + core::HexU64(core::Fnv1a64(payload)) + "\n";
  return out;
}

core::Result<std::string> UnwrapChecksummed(const std::string& kind,
                                            const std::string& text) {
  const size_t header_end = text.find('\n');
  if (header_end == std::string::npos) {
    return core::Status::Error("missing container header");
  }
  std::istringstream header(text.substr(0, header_end));
  std::string magic, got_kind, version, bytes_field;
  if (!(header >> magic >> got_kind >> version >> bytes_field) || magic != "dynfo" ||
      version != "v1" || bytes_field.rfind("bytes=", 0) != 0) {
    return core::Status::Error("malformed container header");
  }
  if (got_kind != kind) {
    return core::Status::Error("container holds '" + got_kind + "', expected '" +
                               kind + "'");
  }
  std::string extra;
  if (header >> extra) return core::Status::Error("trailing tokens in header");
  uint64_t bytes = 0;
  if (!core::ParseU64(bytes_field.substr(6), &bytes)) {
    return core::Status::Error("bad payload length");
  }
  const size_t payload_begin = header_end + 1;
  if (text.size() < payload_begin + bytes) {
    return core::Status::Error("container truncated (payload incomplete)");
  }
  std::string payload = text.substr(payload_begin, bytes);

  // Trailer: byte-exact "checksum fnv1a <16 hex>\n" and nothing after it,
  // so even whitespace damage or appended bytes are detected.
  const std::string trailer = text.substr(payload_begin + bytes);
  const std::string prefix = "checksum fnv1a ";
  if (trailer.size() != prefix.size() + 17 ||
      trailer.compare(0, prefix.size(), prefix) != 0 || trailer.back() != '\n') {
    return core::Status::Error("container truncated (missing checksum trailer)");
  }
  uint64_t expected = 0;
  if (!core::ParseHexU64(trailer.substr(prefix.size(), 16), &expected)) {
    return core::Status::Error("malformed checksum");
  }
  if (core::Fnv1a64(payload) != expected) {
    return core::Status::Error("checksum mismatch: container is corrupt");
  }
  return payload;
}

std::string WriteStructureChecksummed(const Structure& structure) {
  return WrapChecksummed("structure", WriteStructure(structure));
}

core::Result<Structure> ReadStructureChecksummed(
    const std::string& text, std::shared_ptr<const Vocabulary> vocabulary) {
  core::Result<std::string> payload = UnwrapChecksummed("structure", text);
  if (!payload.ok()) return payload.status();
  return ReadStructure(payload.value(), std::move(vocabulary));
}

}  // namespace dynfo::relational
