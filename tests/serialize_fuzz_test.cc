/// Hostile-bytes property tests for the serialization layer.
///
/// The checksummed container guarantees: ANY single-byte corruption and ANY
/// truncation of a serialized structure yields an error Status — exhaustively
/// checked over every byte position and every cut point. The raw structure
/// format cannot promise that (flipping a digit yields a different but
/// well-formed text), so its property is weaker: hostile mutations never
/// crash, and whatever parses round-trips cleanly through the writer.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/fault.h"
#include "core/rng.h"
#include "programs/parity.h"
#include "programs/reach_u.h"
#include "relational/request.h"
#include "relational/serialize.h"

namespace dynfo::relational {
namespace {

Structure SampleStructure() {
  Structure structure(programs::ReachUInputVocabulary(), 6);
  ApplyRequest(&structure, Request::Insert("E", {0, 1}));
  ApplyRequest(&structure, Request::Insert("E", {1, 2}));
  ApplyRequest(&structure, Request::Insert("E", {4, 5}));
  ApplyRequest(&structure, Request::SetConstant("s", 0));
  ApplyRequest(&structure, Request::SetConstant("t", 5));
  return structure;
}

TEST(SerializeFuzzTest, ChecksummedRejectsEverySingleByteCorruption) {
  const Structure structure = SampleStructure();
  const std::string clean = WriteStructureChecksummed(structure);
  ASSERT_TRUE(
      ReadStructureChecksummed(clean, programs::ReachUInputVocabulary()).ok());

  for (size_t i = 0; i < clean.size(); ++i) {
    for (unsigned char mask : {0x01, 0x10, 0x80, 0xff}) {
      std::string mutated = clean;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      core::Result<Structure> parsed =
          ReadStructureChecksummed(mutated, programs::ReachUInputVocabulary());
      EXPECT_FALSE(parsed.ok())
          << "byte " << i << " ^ 0x" << std::hex << static_cast<int>(mask)
          << " was silently accepted";
    }
  }
}

TEST(SerializeFuzzTest, ChecksummedRejectsEveryTruncation) {
  const std::string clean = WriteStructureChecksummed(SampleStructure());
  for (size_t cut = 0; cut < clean.size(); ++cut) {
    core::Result<Structure> parsed = ReadStructureChecksummed(
        clean.substr(0, cut), programs::ReachUInputVocabulary());
    EXPECT_FALSE(parsed.ok()) << "truncation at " << cut << " accepted";
  }
}

TEST(SerializeFuzzTest, ChecksummedRejectsAppendedGarbage) {
  const std::string clean = WriteStructureChecksummed(SampleStructure());
  for (const std::string& tail : {std::string("x"), std::string("\n"),
                                  std::string("rel E 0 1\n")}) {
    EXPECT_FALSE(
        ReadStructureChecksummed(clean + tail, programs::ReachUInputVocabulary())
            .ok());
  }
}

TEST(SerializeFuzzTest, ChecksummedRejectsRandomMutationBursts) {
  const std::string clean = WriteStructureChecksummed(SampleStructure());
  core::FaultInjector faults(41);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = clean;
    const int flips = 1 + static_cast<int>(faults.rng().Below(4));
    for (int f = 0; f < flips; ++f) faults.FlipByte(&mutated);
    if (mutated == clean) continue;  // flips can cancel out
    EXPECT_FALSE(
        ReadStructureChecksummed(mutated, programs::ReachUInputVocabulary()).ok())
        << "trial " << trial;
  }
}

TEST(SerializeFuzzTest, WrongKindIsRejected) {
  const std::string blob = WrapChecksummed("snapshot", "payload\n");
  EXPECT_TRUE(UnwrapChecksummed("snapshot", blob).ok());
  EXPECT_FALSE(UnwrapChecksummed("structure", blob).ok());
}

/// The raw reader's property: hostile mutations never crash, and any text it
/// does accept denotes a real structure (it survives a write/read round
/// trip). This is exactly why durable state goes through the checksummed
/// container instead.
TEST(SerializeFuzzTest, RawReaderNeverCrashesOnMutatedText) {
  const Structure structure = SampleStructure();
  const std::string clean = WriteStructure(structure);
  core::FaultInjector faults(43);
  size_t accepted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = clean;
    switch (faults.rng().Below(3)) {
      case 0:
        faults.FlipByte(&mutated);
        break;
      case 1:
        faults.TruncateTail(&mutated);
        break;
      default:
        faults.FlipByte(&mutated);
        faults.FlipByte(&mutated);
        break;
    }
    core::Result<Structure> parsed =
        ReadStructure(mutated, programs::ReachUInputVocabulary());
    if (parsed.ok()) {
      ++accepted;
      const std::string rewritten = WriteStructure(parsed.value());
      core::Result<Structure> reparsed =
          ReadStructure(rewritten, programs::ReachUInputVocabulary());
      ASSERT_TRUE(reparsed.ok());
      EXPECT_EQ(reparsed.value(), parsed.value());
    }
  }
  // Most mutations must be caught even without a checksum (strict numeric
  // tokens, no trailing tokens, mandatory 'end').
  EXPECT_LT(accepted, 250u);
}

TEST(SerializeFuzzTest, RawReaderRejectsStructuralDamage) {
  auto vocab = programs::ReachUInputVocabulary();
  const std::string cases[] = {
      "structure n=\nend\n",                 // missing size
      "structure n=6x\nend\n",               // trailing garbage in number
      "structure n=6\nrel E 0\nend\n",       // arity mismatch
      "structure n=6\nrel E 0 9\nend\n",     // element outside universe
      "structure n=6\nrel Q 0 1\nend\n",     // unknown relation
      "structure n=6\nconst s 9\nend\n",     // constant outside universe
      "structure n=6\nconst q 0\nend\n",     // unknown constant
      "structure n=6\nrel E 0 1",            // missing end
      "structure n=6\nrel E 0 1 2\nend\n",   // too many elements
      "structure n=6\nrel E 0 1\nend extra\n",  // trailing tokens on end
      "structure n=18446744073709551616\nend\n",  // u64 overflow
      "structure n=4294967297\nend\n",       // beyond Element range
      "",                                     // empty
      // A dense page the cost model would never build: the header's n
      // alone would size a 2 TB plane before any word is read.
      "structure n=4000000\ndense E words=250000000000 z250000000000\nend\n",
  };
  for (const std::string& text : cases) {
    EXPECT_FALSE(ReadStructure(text, vocab).ok()) << "accepted: " << text;
  }
  // The arity-1 shape of the same attack: a 512 MiB bitmap at n=2^32.
  const std::string unary_page =
      "structure n=4294967296\ndense M words=67108864 z67108864\nend\n";
  EXPECT_FALSE(ReadStructure(unary_page, programs::ParityInputVocabulary()).ok());
}

}  // namespace
}  // namespace dynfo::relational
