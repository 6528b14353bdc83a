/**
 * @file
 * qa_explain: stand-alone CircuitAnalyzer/Router front-end. Reads a
 * QASM circuit, prints its classification, the per-backend capability
 * verdicts, and the routing decision — without executing a shot.
 *
 * Usage:
 *   qa_explain FILE [--noise none|melbourne|depolarizing]
 *             [--p1 X] [--p2 X] [--shots N] [--backend NAME]
 *             [--chi N] [--mps-tol X]
 *             [--auto-assert] [--lowering NAME]
 *
 * FILE may be "-" for stdin. --shots feeds the router's density-vs-
 * replay cost model; --backend exercises explicit-override validation
 * (an incapable override is reported, not executed). The fusion plan
 * printed is the one every routed dense run executes; it has no
 * switches. --auto-assert
 * runs the assertion compiler over the raw circuit first and prints
 * the per-slot lowering table (form, ancillas, gates, generators)
 * before routing the instrumented circuit; --lowering pins the form.
 */
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "acomp/run.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "sim/noise.hpp"

namespace
{

using namespace qa;

int
usage(int code)
{
    std::cerr << "usage: qa_explain FILE [--noise none|melbourne|"
                 "depolarizing] [--p1 X] [--p2 X]\n"
                 "                  [--shots N] [--backend auto|"
                 "statevector|density_matrix|stabilizer|mps]\n"
                 "                  [--chi N] [--mps-tol X]\n"
                 "                  [--auto-assert] [--lowering auto|swap|"
                 "or|ndd|pauli]\n"
                 "FILE is a QASM circuit, or - for stdin; prints the "
                 "backend routing decision\n"
                 "and the fusion plan every dense run uses, without "
                 "executing.\n"
                 "--auto-assert additionally prints the assertion "
                 "compiler's lowering table and\n"
                 "routes the instrumented circuit\n";
    return code;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string path;
    std::string noise_kind = "none";
    double p1 = 1e-3, p2 = 1e-2;
    int shots = defaults::kShots;
    BackendRequest request = BackendRequest::kAuto;
    int mps_chi = defaults::kMpsChi;
    double mps_tol = defaults::kMpsTruncTol;
    bool auto_assert = false;
    acomp::LoweringRequest lowering = acomp::LoweringRequest::kAuto;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--help" || arg == "-h") return usage(0);
        if (arg == "--noise") {
            if (value == nullptr) return usage(2);
            noise_kind = value;
            ++i;
        } else if (arg == "--p1") {
            if (value == nullptr) return usage(2);
            p1 = std::atof(value);
            ++i;
        } else if (arg == "--p2") {
            if (value == nullptr) return usage(2);
            p2 = std::atof(value);
            ++i;
        } else if (arg == "--shots") {
            if (value == nullptr) return usage(2);
            shots = std::atoi(value);
            ++i;
        } else if (arg == "--backend") {
            if (value == nullptr) return usage(2);
            if (!parseBackendRequest(value, &request)) {
                std::cerr << "qa_explain: unknown backend '" << value
                          << "'\n";
                return 2;
            }
            ++i;
        } else if (arg == "--auto-assert") {
            auto_assert = true;
        } else if (arg == "--lowering") {
            if (value == nullptr) return usage(2);
            if (!acomp::parseLoweringRequest(value, &lowering)) {
                std::cerr << "qa_explain: unknown lowering '" << value
                          << "'\n";
                return 2;
            }
            auto_assert = true; // pinning a form implies the compiler
            ++i;
        } else if (arg == "--chi") {
            if (value == nullptr) return usage(2);
            mps_chi = std::atoi(value);
            ++i;
        } else if (arg == "--mps-tol") {
            if (value == nullptr) return usage(2);
            mps_tol = std::atof(value);
            ++i;
        } else if (path.empty() && (arg == "-" || arg[0] != '-')) {
            path = arg;
        } else {
            std::cerr << "qa_explain: unknown option '" << arg << "'\n";
            return usage(2);
        }
    }
    if (path.empty()) return usage(2);

    std::string text;
    if (path == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        text = buffer.str();
    } else {
        std::ifstream in(path);
        if (!in) {
            std::cerr << "qa_explain: cannot open '" << path << "'\n";
            return 1;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }

    NoiseModel noise;
    if (noise_kind == "melbourne") {
        noise = NoiseModel::ibmqMelbourneLike();
    } else if (noise_kind == "depolarizing") {
        noise = NoiseModel::depolarizing(p1, p2);
    } else if (noise_kind != "none") {
        std::cerr << "qa_explain: unknown noise kind '" << noise_kind
                  << "'\n";
        return 2;
    }

    try {
        std::vector<QasmPos> positions;
        const QuantumCircuit circuit = parseQasm(text, &positions);
        SimOptions options;
        options.shots = shots;
        options.noise = noise.enabled() ? &noise : nullptr;
        options.backend = request;
        options.mps_chi = mps_chi;
        options.mps_trunc_tol = mps_tol;
        acomp::AcompOptions aopts;
        aopts.lowering = lowering;
        aopts.backend = request;
        const acomp::PlannedRun plan = acomp::planRun(
            circuit, options, auto_assert ? &aopts : nullptr, &positions);
        if (plan.compiled) {
            std::cout << acomp::formatLoweringTable(*plan.compiled);
        }
        std::cout << backend::explainRouting(plan.route, options);
    } catch (const UserError& err) {
        std::cerr << "qa_explain: " << err.what() << "\n";
        return 1;
    }
    return 0;
}
