#include "support/error.h"

namespace firmup {

const char *
error_code_name(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Unknown:
        return "unknown";
      case ErrorCode::MalformedContainer:
        return "malformed-container";
      case ErrorCode::TruncatedMember:
        return "truncated-member";
      case ErrorCode::UndecodableInsn:
        return "undecodable-insn";
      case ErrorCode::LiftBailout:
        return "lift-bailout";
      case ErrorCode::BudgetExhausted:
        return "budget-exhausted";
      case ErrorCode::MissingProcedure:
        return "missing-procedure";
      case ErrorCode::IoError:
        return "io-error";
      case ErrorCode::StaleFormat:
        return "stale-format";
    }
    return "invalid";
}

void
assert_fail(const char *expr, const char *file, int line,
            const std::string &message)
{
    std::fprintf(stderr, "firmup: assertion `%s` failed at %s:%d: %s\n",
                 expr, file, line, message.c_str());
    std::abort();
}

}  // namespace firmup
