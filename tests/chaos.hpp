/**
 * @file
 * Chaos-testing harness for the assertion service: an adversarial
 * wire-input corpus and a journal tail chopper.
 *
 * The corpus feeds the JSON/wire layer directly (hostile input must be
 * rejected typed, never crash). Journal-tail truncation is a file
 * operation (chopFileTail) applied between a kill and a replay.
 */
#ifndef QA_TESTS_CHAOS_HPP
#define QA_TESTS_CHAOS_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace qa
{
namespace resilience
{

/**
 * Truncate the last `bytes` bytes of a file (simulates a crash torn
 * tail on a journal). Throws UserError when the file cannot be opened;
 * truncating more than the file holds empties it.
 */
void chopFileTail(const std::string& path, size_t bytes);

/** One adversarial wire payload and what the service must do with it. */
struct AdversarialPayload
{
    std::string payload;

    /**
     * True: the line must be rejected with a typed UserError
     * (kBadRequest or kQasmSyntax). False: the line may parse — the
     * requirement is only that nothing crashes, throws untyped, or
     * trips ASan.
     */
    bool must_fail = true;

    const char* why = "";
};

/**
 * The malformed-input corpus: truncated documents, deep nesting,
 * duplicate keys, bad numbers, invalid UTF-8/escapes, wrong-typed or
 * unknown fields, hostile sizes. Shared by the corpus test and the chaos
 * harness's wire-fuzz pass.
 */
const std::vector<AdversarialPayload>& adversarialWireCorpus();

} // namespace resilience
} // namespace qa

#endif // QA_TESTS_CHAOS_HPP
