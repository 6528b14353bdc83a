#include "common/error.hpp"

namespace qa
{

const char*
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kGeneric:           return "generic";
      case ErrorCode::kBadFaultSite:      return "bad_fault_site";
      case ErrorCode::kUnsupportedFault:  return "unsupported_fault";
      case ErrorCode::kInvalidNoiseModel: return "invalid_noise_model";
      case ErrorCode::kPolicyUnsupported: return "policy_unsupported";
      case ErrorCode::kPolicyExhausted:   return "policy_exhausted";
      case ErrorCode::kQasmSyntax:        return "qasm_syntax";
      case ErrorCode::kDeadlineExpired:   return "deadline_expired";
      case ErrorCode::kWorkerFailure:     return "worker_failure";
      case ErrorCode::kQueueFull:         return "queue_full";
      case ErrorCode::kServiceStopped:    return "service_stopped";
      case ErrorCode::kBadRequest:        return "bad_request";
      case ErrorCode::kWorkerLost:        return "worker_lost";
      case ErrorCode::kShedding:          return "shedding";
      case ErrorCode::kJournalCorrupt:    return "journal_corrupt";
      case ErrorCode::kNoShardAvailable:  return "no_shard_available";
      case ErrorCode::kUnsupportedAssertion:
          return "unsupported_assertion";
      case ErrorCode::kResourceExhausted: return "resource_exhausted";
    }
    return "unknown";
}

} // namespace qa
