/// Record-level crash-consistency contract of the segment journal
/// (ParseSegment): clean round trips of plain and group-commit records,
/// torn-tail tolerance (a torn batch drops the whole batch), and hard
/// errors for interior damage (dropped, duplicated, bit-rotted, malformed,
/// or invalid records). Store-level behavior lives in durability_test.

#include <gtest/gtest.h>

#include <span>
#include <string>

#include "core/fault.h"
#include "core/text.h"
#include "dynfo/journal.h"
#include "programs/reach_u.h"
#include "relational/request.h"

namespace dynfo::dyn {
namespace {

using relational::Request;
using relational::RequestSequence;

/// Segments in these tests start past zero, so every record's absolute
/// sequence number is exercised, not just its offset.
constexpr uint64_t kFirst = 40;

RequestSequence SampleRequests() {
  return {Request::SetConstant("s", 0), Request::Insert("E", {0, 1}),
          Request::Insert("E", {1, 2}), Request::Delete("E", {0, 1}),
          Request::SetConstant("t", 2)};
}

std::string SampleSegmentText() {
  std::string text = SegmentHeader(kFirst);
  uint64_t seq = kFirst;
  for (const Request& request : SampleRequests()) {
    text += FormatJournalRecord(seq++, request);
  }
  return text;
}

core::Result<SegmentParse> Parse(const std::string& text) {
  return ParseSegment(text, *programs::ReachUInputVocabulary(), 8, kFirst);
}

TEST(JournalTest, FormatParseRoundTrip) {
  core::Result<SegmentParse> parsed = Parse(SampleSegmentText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_FALSE(parsed.value().torn_tail);
  EXPECT_EQ(parsed.value().valid_bytes, SampleSegmentText().size());
  const RequestSequence expected = SampleRequests();
  ASSERT_EQ(parsed.value().requests.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(parsed.value().requests[i].ToString(), expected[i].ToString());
  }
}

TEST(JournalTest, EmptyAndHeaderOnlyJournalsParse) {
  core::Result<SegmentParse> empty = Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().requests.empty());
  EXPECT_FALSE(empty.value().torn_tail);

  core::Result<SegmentParse> header_only = Parse(SegmentHeader(kFirst));
  ASSERT_TRUE(header_only.ok());
  EXPECT_TRUE(header_only.value().requests.empty());
  EXPECT_FALSE(header_only.value().torn_tail);

  // A header naming another first sequence is not this segment.
  EXPECT_FALSE(Parse(SegmentHeader(kFirst + 1)).ok());
}

TEST(JournalTest, TornFinalRecordIsDroppedNotFatal) {
  const std::string full = SampleSegmentText();
  // Cut anywhere inside the final record: parse succeeds minus that record.
  for (size_t cut = full.size() - 1; full[cut - 1] != '\n'; --cut) {
    core::Result<SegmentParse> parsed = Parse(full.substr(0, cut));
    ASSERT_TRUE(parsed.ok()) << "cut at " << cut << ": "
                             << parsed.status().message();
    EXPECT_TRUE(parsed.value().torn_tail);
    EXPECT_EQ(parsed.value().requests.size(), SampleRequests().size() - 1);
  }
}

// ---------------------------------------------------------------------------
// Batch (group-commit) records: one line holding many requests.

TEST(JournalTest, BatchRecordRoundTrips) {
  const RequestSequence requests = SampleRequests();
  std::string text = SegmentHeader(kFirst);
  text += FormatJournalRecord(kFirst, requests[0]);
  text += FormatBatchRecord(
      kFirst + 1, std::span<const Request>(requests.data() + 1, requests.size() - 2));
  text += FormatJournalRecord(kFirst + requests.size() - 1, requests.back());

  core::Result<SegmentParse> parsed = Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_FALSE(parsed.value().torn_tail);
  ASSERT_EQ(parsed.value().requests.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(parsed.value().requests[i].ToString(), requests[i].ToString());
  }
}

TEST(JournalTest, TornBatchRecordDropsWholeBatchNotAPrefix) {
  const RequestSequence requests = SampleRequests();
  std::string text = SegmentHeader(kFirst);
  text += FormatJournalRecord(kFirst, requests[0]);
  const size_t intact = text.size();
  text += FormatBatchRecord(
      kFirst + 1, std::span<const Request>(requests.data() + 1, requests.size() - 1));

  // Cut anywhere inside the batch line: the WHOLE batch vanishes — replay
  // must never surface a prefix of a group commit.
  for (size_t cut = text.size() - 1; cut > intact; --cut) {
    core::Result<SegmentParse> parsed = Parse(text.substr(0, cut));
    ASSERT_TRUE(parsed.ok()) << "cut at " << cut << ": "
                             << parsed.status().message();
    EXPECT_TRUE(parsed.value().torn_tail) << "cut at " << cut;
    EXPECT_EQ(parsed.value().requests.size(), 1u)
        << "cut at " << cut << ": a torn batch leaked a partial prefix";
    EXPECT_EQ(parsed.value().valid_bytes, intact);
  }
}

TEST(JournalTest, MalformedBatchRecordsAreRejected) {
  auto reject = [&](const std::string& body, const std::string& why) {
    // Recompute the real checksum so the failure exercises record parsing,
    // not checksum verification. FormatBatchRecord is unusable here (it
    // CHECKs on well-formed input), so build the line by hand.
    const std::string line = body + " c=" + core::HexU64(core::Fnv1a64(body)) + "\n";
    std::string text = SegmentHeader(kFirst) + line;
    // A trailing clean record makes the damage interior (hard error), not a
    // droppable tail.
    text += FormatJournalRecord(kFirst + 9, Request::Insert("E", {4, 5}));
    EXPECT_FALSE(Parse(text).ok()) << why << " was accepted";
  };
  reject("40 batch 2 | ins E 0 1", "count larger than contents");
  reject("40 batch 1 | ins E 0 1 | ins E 1 2", "count smaller than contents");
  reject("40 batch 1 | ins E 0", "arity-short sub-record");
  reject("40 batch 1 | ins E 0 1 2", "arity-long sub-record");
  reject("40 batch 1 | ins Q 0 1", "unknown relation in sub-record");
  reject("40 batch 1 | ins E 0 99", "out-of-universe element in sub-record");
  reject("40 batch 0", "empty batch");
  reject("40 batch x | ins E 0 1", "non-numeric count");
  reject("40 ins E 0 1 2 3 4", "plain record wider than Tuple::kMaxArity");
}

TEST(JournalTest, InteriorDamageIsAHardError) {
  core::FaultInjector faults(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::string text = SampleSegmentText();
    // Drop or duplicate a random record; pad the tail with two more clean
    // records so the damage is interior even when the fault hits the last
    // original record (a damaged FINAL record is indistinguishable from a
    // torn tail and is dropped by design, not errored).
    if (trial % 2 == 0) {
      faults.DropLine(&text);
    } else {
      faults.DuplicateLine(&text);
    }
    const uint64_t next = kFirst + SampleRequests().size();
    text += FormatJournalRecord(next, Request::Insert("E", {3, 4}));
    text += FormatJournalRecord(next + 1, Request::Insert("E", {4, 5}));
    EXPECT_FALSE(Parse(text).ok()) << "trial " << trial << " accepted damaged segment";
  }
}

TEST(JournalTest, BitRotBeforeFinalRecordIsAHardError) {
  const std::string clean = SampleSegmentText();
  // Flip each byte of the first record; every flip must be rejected (the
  // record's checksum covers seq, kind, target, and elements).
  const size_t first_record_begin = SegmentHeader(kFirst).size();
  const size_t first_record_end = clean.find('\n', first_record_begin);
  for (size_t i = first_record_begin; i < first_record_end; ++i) {
    std::string text = clean;
    text[i] ^= 0x20;
    if (text[i] == clean[i]) continue;
    EXPECT_FALSE(Parse(text).ok()) << "byte " << i << " flip accepted";
  }
}

TEST(JournalTest, RejectsRecordsFailingValidation) {
  // Unknown relation, bad arity, out-of-universe element: all hard errors
  // even with correct checksums.
  // The bad record is followed by a clean one so the damage is interior (a
  // lone damaged final record would be dropped as a torn tail instead).
  for (const Request& bad :
       {Request::Insert("Q", {0, 1}), Request::Insert("E", {0, 1, 2}),
        Request::Insert("E", {0, 9}), Request::SetConstant("s", 9)}) {
    std::string text = SegmentHeader(kFirst) + FormatJournalRecord(kFirst, bad) +
                       FormatJournalRecord(kFirst + 1, Request::Insert("E", {0, 1}));
    EXPECT_FALSE(Parse(text).ok()) << bad.ToString() << " accepted";
  }
}

}  // namespace
}  // namespace dynfo::dyn
