/// \file serialize.h
/// A plain-text serialization for finite structures, so sessions can be
/// saved and restored (used by tools/dynfo_cli's save/load commands) and
/// golden-tested.
///
/// Format (line oriented, '#' comments):
///   structure n=<universe size>
///   rel <name> <e1> <e2> ...      # one line per tuple (hash backend)
///   dense <name> words=<k> ...    # one bitmap page (dense backend)
///   const <name> <value>
///   end
///
/// Relations/constants absent from the text are empty/zero; unknown names
/// or out-of-universe elements are errors. The vocabulary itself is not
/// serialized — the reader supplies it, and the text is validated against
/// it (a structure is only meaningful relative to its schema). A relation
/// is written as a `dense` page exactly when its backend is dense, so a
/// snapshot carries each relation's backend as well as its contents.
///
/// Parsing is hardened against hostile bytes: every numeric token must be
/// a full decimal number, no trailing tokens are tolerated, the universe
/// size is bounded by the Element range, and a `dense` page is accepted
/// only for shapes the engine can hold dense (Relation::DenseRepresentable),
/// so no header can make the reader allocate more than the cost model
/// ever would. Malformed input always yields an error Status, never a
/// crash.
///
/// For durable state (snapshots, anything that crosses a process
/// boundary), the checksummed container adds a versioned header and an
/// FNV-1a trailer so that truncation or any byte corruption is detected
/// before contents are trusted:
///   dynfo <kind> v1 bytes=<payload size>
///   <payload>
///   checksum fnv1a <16 hex digits>

#ifndef DYNFO_RELATIONAL_SERIALIZE_H_
#define DYNFO_RELATIONAL_SERIALIZE_H_

#include <memory>
#include <string>

#include "core/status.h"
#include "relational/structure.h"

namespace dynfo::relational {

/// Serializes the structure (deterministic: tuples in sorted order).
std::string WriteStructure(const Structure& structure);

/// Parses a structure over the given vocabulary.
core::Result<Structure> ReadStructure(const std::string& text,
                                      std::shared_ptr<const Vocabulary> vocabulary);

/// Wraps an arbitrary payload in the versioned, checksummed container.
/// `kind` names the content ("structure", "snapshot", ...) and must be a
/// single whitespace-free token; readers reject mismatched kinds.
std::string WrapChecksummed(const std::string& kind, const std::string& payload);

/// Verifies the container (kind, version, length, checksum) and returns
/// the payload. Any truncation or byte corruption is an error.
core::Result<std::string> UnwrapChecksummed(const std::string& kind,
                                            const std::string& text);

/// WriteStructure/ReadStructure composed with the checksummed container —
/// the durable on-disk form of a structure.
std::string WriteStructureChecksummed(const Structure& structure);
core::Result<Structure> ReadStructureChecksummed(
    const std::string& text, std::shared_ptr<const Vocabulary> vocabulary);

}  // namespace dynfo::relational

#endif  // DYNFO_RELATIONAL_SERIALIZE_H_
