#include "resilience/chaos.hpp"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qa
{
namespace resilience
{

const char*
serviceFaultName(ServiceFaultKind kind)
{
    switch (kind) {
      case ServiceFaultKind::kNone:        return "none";
      case ServiceFaultKind::kWorkerStall: return "worker_stall";
      case ServiceFaultKind::kJobThrow:    return "job_throw";
    }
    return "unknown";
}

ServiceFault
ChaosPlan::at(uint64_t job_seq, int attempt) const
{
    ServiceFault fault;
    if (options_.first_attempt_only && attempt > 0) return fault;
    // Counter-based draw: the site (seq, attempt) fully determines the
    // fault, mirroring Rng::forStream's (seed, stream) scheme.
    const uint64_t draw = splitmix64(
        options_.seed ^ (job_seq * 0x9E3779B97F4A7C15ULL +
                         uint64_t(uint32_t(attempt)) * 0xBF58476D1CE4E5B9ULL));
    const double unit = double(draw >> 11) * 0x1.0p-53;
    if (unit < options_.p_stall) {
        fault.kind = ServiceFaultKind::kWorkerStall;
        fault.stall_ms = options_.stall_ms;
    } else if (unit < options_.p_stall + options_.p_throw) {
        fault.kind = ServiceFaultKind::kJobThrow;
    }
    return fault;
}

size_t
ChaosPlan::plannedFaults(uint64_t njobs) const
{
    size_t count = 0;
    for (uint64_t seq = 0; seq < njobs; ++seq) {
        if (at(seq, 0).kind != ServiceFaultKind::kNone) ++count;
    }
    return count;
}

void
chopFileTail(const std::string& path, size_t bytes)
{
    struct stat st;
    QA_REQUIRE(::stat(path.c_str(), &st) == 0,
               "cannot stat '" + path + "': " + std::strerror(errno));
    const off_t size = st.st_size;
    const off_t keep =
        bytes >= size_t(size) ? 0 : size - off_t(bytes);
    QA_REQUIRE(::truncate(path.c_str(), keep) == 0,
               "cannot truncate '" + path + "': " + std::strerror(errno));
}

const std::vector<AdversarialPayload>&
adversarialWireCorpus()
{
    static const std::vector<AdversarialPayload> corpus = [] {
        std::vector<AdversarialPayload> c;
        auto fail = [&c](std::string payload, const char* why) {
            c.push_back({std::move(payload), true, why});
        };
        auto survive = [&c](std::string payload, const char* why) {
            c.push_back({std::move(payload), false, why});
        };

        // --- truncated documents -----------------------------------
        fail("", "empty line");
        fail("{", "lone open brace");
        fail("[", "lone open bracket");
        fail("{\"op\"", "cut after key");
        fail("{\"op\":", "cut after colon");
        fail("{\"op\":\"run\"", "cut before close");
        fail("{\"op\":\"run\",", "cut after comma");
        fail("[1,2", "unterminated array");
        fail("\"half a string", "unterminated string");
        fail("tru", "truncated literal");
        fail("-", "sign without digits");
        fail("{\"qasm\":\"OPENQASM 2.0;\\", "cut inside escape");

        // --- nesting and structure ---------------------------------
        fail(std::string(80, '[') + std::string(80, ']'),
             "nesting beyond the depth bound");
        {
            std::string deep;
            for (int i = 0; i < 80; ++i) deep += "{\"k\":";
            deep += "1";
            for (int i = 0; i < 80; ++i) deep += "}";
            fail(std::move(deep), "object nesting beyond the bound");
        }
        fail("[1,]", "trailing comma in array");
        fail("{\"a\":1,}", "trailing comma in object");
        fail("{,}", "comma without member");
        fail("{:1}", "missing key");
        fail("{\"a\" 1}", "missing colon");
        fail("[1 2]", "missing comma");
        fail("{} {}", "two documents on one line");
        fail("null null", "trailing literal");
        fail("{\"a\":1}x", "trailing garbage");
        fail(std::string("{\"op\":\"metrics\"}\0y", 18),
             "embedded NUL then trailing bytes");

        // --- duplicate keys ----------------------------------------
        fail("{\"a\":1,\"a\":2}", "duplicate key");
        fail("{\"op\":\"metrics\",\"op\":\"metrics\"}",
             "duplicate op key");

        // --- bad numbers -------------------------------------------
        fail("01", "leading zero");
        fail("0123", "leading zeros");
        fail("+1", "explicit plus sign");
        fail("1.", "digitless fraction");
        fail(".5", "bare fraction");
        fail("1e", "digitless exponent");
        fail("1e+", "signed digitless exponent");
        fail("0x10", "hex number");
        fail("Infinity", "infinity literal");
        fail("NaN", "nan literal");
        fail("1e999", "overflowing exponent");
        fail("--1", "double sign");
        fail("1..2", "double decimal point");
        fail("{\"shots\":1e999}", "overflow inside a request");

        // --- bad strings and escapes -------------------------------
        fail("\"bad \\q escape\"", "unknown escape");
        fail("\"\\u12\"", "truncated unicode escape");
        fail("\"\\ud800\"", "lone high surrogate");
        fail("\"\\uDFFF\"", "lone low surrogate");
        fail(std::string("\"ctrl \x01 char\""), "raw control character");
        fail("\"trailing backslash\\", "escape at end of input");

        // --- wrong top-level kinds for the wire --------------------
        fail("[]", "array cannot be a request");
        fail("123", "number cannot be a request");
        fail("\"run\"", "string cannot be a request");
        fail("null", "null cannot be a request");
        fail("true", "bool cannot be a request");

        // --- wire-level field abuse (valid JSON, bad request) ------
        fail("{\"op\":\"frobnicate\"}", "unknown op");
        fail("{\"id\":\"x\"}", "run without qasm");
        fail("{\"qasm\":42}", "numeric qasm");
        fail("{\"qasm\":[\"OPENQASM 2.0;\"]}", "array qasm");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\",\"shots\":0}",
             "zero shots");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\",\"shots\":-8}",
             "negative shots");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\",\"shots\":1.5}",
             "fractional shots");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\",\"shots\":\"many\"}",
             "string shots");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\",\"seed\":\"x\"}",
             "string seed");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\","
             "\"assert_clbits\":3}",
             "scalar slot list");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\","
             "\"assert_clbits\":[3]}",
             "flat slot list");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\","
             "\"assert_clbits\":[[true]]}",
             "boolean clbit");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\","
             "\"assert_clbits\":[[0.5]]}",
             "fractional clbit");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\","
             "\"noise\":\"saturn\"}",
             "unknown noise kind");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\","
             "\"noise\":{\"kind\":42}}",
             "numeric noise kind");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\","
             "\"noise\":[1,2]}",
             "array noise");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\","
             "\"mps_trunc_tol\":1e-3}",
             "unknown field (the tolerance is mps_tol)");
        fail("{\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\","
             "\"noise\":{\"kind\":\"melbourne\",\"p1\":0.1}}",
             "field the noise kind does not read");
        fail("{\"op\":\"metrics\",\"junk\":[[[1,2,3],{\"a\":null}]]}",
             "unknown field on a control op");
        fail("{\"qasm\":\"not qasm at all\"}", "qasm gibberish");
        fail("{\"qasm\":\"" + std::string(4096, 'z') + "\"}",
             "large gibberish qasm");

        // --- hostile but survivable (must not crash or leak) -------
        survive("{\"op\":\"metrics\",\"id\":\"\xff\xfe ok\"}",
                "invalid UTF-8 passes through the parser");
        survive("{\"op\":\"shutdown\",\"id\":" + std::string("1234567") +
                    "}",
                "numeric id is stringified");
        survive("  {\"op\":\"metrics\"}  ", "surrounding whitespace");
        return c;
    }();
    return corpus;
}

} // namespace resilience
} // namespace qa
