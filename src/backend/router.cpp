#include "backend/router.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "sim/statevector.hpp"
#include "stab/tableau.hpp"

namespace qa
{
namespace backend
{

namespace
{

/**
 * Below this width the dense statevector engine is comfortable (2^n
 * fits in cache-friendly memory) and its SIMD kernels beat the MPS
 * SVD machinery even on product-ish states, so auto-routing never
 * picks MPS. Explicit `backend=mps` requests ignore this floor.
 */
constexpr int kMpsMinQubits = 24;

/** "n qubits exceed the max-qubit <engine> limit" ("" when n fits). */
std::string
widthObjection(int num_qubits, int max_qubits, const char* engine)
{
    if (num_qubits <= max_qubits) return "";
    std::ostringstream out;
    out << num_qubits << " qubits exceed the " << max_qubits << "-qubit "
        << engine << " limit";
    return out.str();
}

/**
 * Instructions a dense backend executes, plus one: the fused stream's
 * kernels unless Kraus noise keeps the raw gates.
 */
double
denseWork(const CircuitAnalysis& analysis)
{
    const CircuitProfile& profile = analysis.profile;
    size_t executed = profile.instructions;
    if (analysis.fused.has_value() && !analysis.noise.kraus) {
        executed = profile.instructions - profile.gates +
                   analysis.fused->stats.gates_out;
    }
    return double(executed) + 1.0;
}

/**
 * The statevector's price: evolve once and sample each shot under
 * terminal sampling, else touch every amplitude per instruction per
 * shot.
 */
double
statevectorPrice(const CircuitAnalysis& analysis, const SimOptions& options)
{
    const int n = analysis.profile.num_qubits;
    const double dim = std::ldexp(1.0, std::min(n, 60));
    const double work = denseWork(analysis);
    if (analysis.plan.terminal_sampling) {
        return work * dim + double(options.shots) * double(n);
    }
    return double(options.shots) * work * dim;
}

/**
 * The density backend's price: one evolution of 4^n entries, each gate
 * and each of its channels applied exactly; shots are nearly free.
 */
double
densityPrice(const CircuitAnalysis& analysis, const SimOptions& options)
{
    const double dim = std::ldexp(1.0, analysis.profile.num_qubits);
    size_t channels = 0;
    if (options.noise != nullptr) {
        channels = options.noise->noise_1q.size() +
                   options.noise->noise_2q.size();
    }
    return denseWork(analysis) * double(1 + channels) * dim * dim;
}

/**
 * The MPS backend's price: chi^3-ish two-site updates for the unitary
 * part, then either cheap left-to-right sampling (terminal
 * measurements) or per-shot suffix replay (mid-circuit collapse).
 */
double
mpsPrice(const CircuitAnalysis& analysis, const SimOptions& options)
{
    const CircuitProfile& profile = analysis.profile;
    const EntanglementProfile& ent = analysis.entanglement;
    const double chi_d =
        double(mpsEffectiveChi(ent, std::max(1, options.mps_chi)));
    const double two_site = double(ent.swap_routed_ops) * chi_d * chi_d *
                            chi_d * 8.0;
    const double one_site = double(profile.gates) * chi_d * chi_d * 2.0;
    const double evolve = two_site + one_site;
    const double shots = double(options.shots);
    if (profile.terminal_measure_only) {
        return evolve +
               shots * double(profile.num_qubits) * chi_d * chi_d;
    }
    // Mid-circuit collapse: per-shot replay plus O(n chi^3)
    // re-canonicalization per collapse.
    const double collapses = double(profile.measures + profile.resets);
    return shots * (evolve + collapses * double(profile.num_qubits) *
                                 chi_d * chi_d * chi_d);
}

std::string
describeNoise(const NoiseProfile& noise)
{
    if (!noise.enabled) return "none";
    std::string desc;
    if (noise.kraus) {
        desc = noise.pauli_only ? "Pauli channels" : "non-Pauli channels";
    }
    if (noise.readout) {
        if (!desc.empty()) desc += " + ";
        desc += "readout error";
    }
    return desc;
}

/**
 * Why backend `kind` cannot run the analyzed job under `options` ("" when
 * it can): the one capability check behind routing, explicit requests
 * and explains. Each width bound is the one its engine enforces.
 */
std::string
capabilityGap(BackendKind kind, const CircuitAnalysis& analysis,
              const SimOptions& options)
{
    const CircuitProfile& profile = analysis.profile;
    const EntanglementProfile& ent = analysis.entanglement;
    const NoiseProfile& noise = analysis.noise;
    std::ostringstream out;
    switch (kind) {
      case BackendKind::kStatevector:
        return widthObjection(profile.num_qubits, kStatevectorMaxQubits,
                              "statevector");
      case BackendKind::kDensityMatrix:
        if (!profile.terminal_measure_only) {
            return "mid-circuit measurements or resets";
        }
        return widthObjection(profile.num_qubits, kDensityMaxQubits,
                              "density-matrix");
      case BackendKind::kStabilizer:
        if (profile.non_clifford_gates > 0) {
            out << profile.non_clifford_gates << " non-Clifford gate"
                << (profile.non_clifford_gates == 1 ? "" : "s");
            if (!profile.non_clifford_names.empty()) {
                out << " (first: " << profile.non_clifford_names.front()
                    << ")";
            }
            return out.str();
        }
        if (noise.kraus && !noise.pauli_only) {
            return "non-Pauli Kraus channels in the noise model";
        }
        return widthObjection(profile.num_qubits, kTableauMaxQubits,
                              "tableau");
      case BackendKind::kMps: {
        if (ent.max_gate_arity > 3) {
            out << ent.max_gate_arity
                << "-qubit gates exceed the MPS lowering (max arity 3)";
            return out.str();
        }
        if (noise.kraus) {
            return "gate-level Kraus channels (MPS runs pure-state "
                   "trajectories without per-gate noise)";
        }
        const int chi_cap = std::max(1, options.mps_chi);
        const double bound = mpsTruncationBound(ent, chi_cap);
        if (bound <= options.mps_trunc_tol) return "";
        out << "estimated truncation error " << std::scientific
            << std::setprecision(2) << bound
            << " exceeds the mps_tol tolerance " << options.mps_trunc_tol
            << " (entanglement width needs chi ~ 2^"
            << ent.needed_log2_chi << ", cap is " << chi_cap << ")";
        return out.str();
      }
    }
    return "unknown backend kind";
}

} // namespace

CircuitAnalysis
analyzeForRouting(const QuantumCircuit& circuit, const SimOptions& options)
{
    CircuitAnalysis analysis;
    analysis.profile = analyzeCircuit(circuit);
    analysis.noise = analyzeNoise(options.noise);
    analysis.entanglement = analyzeEntanglement(circuit);
    analysis.plan = analyzeShotPlan(circuit, options.noise);
    analysis.fused = fuseCircuit(
        circuit, FusionOptions{true, defaults::kFusionMaxQubits});
    if (analysis.fused.has_value()) {
        const std::vector<Instruction>& fused = analysis.fused->instructions;
        size_t& split = analysis.fused_split;
        while (split < fused.size() &&
               fused[split].type != OpType::kMeasure &&
               fused[split].type != OpType::kReset) {
            ++split;
        }
    }
    return analysis;
}

Route
route(const QuantumCircuit& circuit, const SimOptions& options)
{
    Route out;
    out.analysis = analyzeForRouting(circuit, options);
    const CircuitAnalysis& analysis = out.analysis;
    const CircuitProfile& profile = analysis.profile;
    const EntanglementProfile& ent = analysis.entanglement;
    const NoiseProfile& noise = analysis.noise;
    const int chi_cap = std::max(1, options.mps_chi);

    BackendChoice& choice = out.choice;
    choice.klass = profile.klass;
    choice.non_clifford_gates = profile.non_clifford_gates;
    choice.mps_chi = mpsEffectiveChi(ent, chi_cap);
    choice.mps_ent_width = int(ent.max_cut_crossings);
    choice.mps_trunc_bound = mpsTruncationBound(ent, chi_cap);
    choice.fusion_enabled = analysis.fused.has_value();
    if (choice.fusion_enabled) choice.fusion = analysis.fused->stats;

    if (const std::optional<BackendKind> kind =
            requestedKind(options.backend)) {
        choice.explicit_request = true;
        choice.backend = *kind;
        const std::string why = capabilityGap(*kind, analysis, options);
        choice.capable = why.empty();
        choice.reason =
            choice.capable
                ? std::string("explicit ") + backendName(*kind) +
                      " request"
                : std::string(backendName(*kind)) +
                      " backend cannot run this job: " + why;
        return out;
    }

    const std::string stab_why =
        capabilityGap(BackendKind::kStabilizer, analysis, options);
    if (stab_why.empty()) {
        choice.backend = BackendKind::kStabilizer;
        choice.reason = "Clifford circuit (noise: " +
                        describeNoise(noise) + "), O(n^2)-per-gate "
                        "tableau simulation";
        return out;
    }

    // Chi-capped MPS: wide non-Clifford circuits whose entanglement
    // width fits the cap cost O(chi^3) per 2q gate instead of O(2^n)
    // per instruction. Gated on a width floor (dense SIMD wins below
    // it) and on beating the statevector's price, unless the
    // statevector cannot hold the circuit at all.
    const std::string sv_why =
        capabilityGap(BackendKind::kStatevector, analysis, options);
    const std::string mps_why =
        capabilityGap(BackendKind::kMps, analysis, options);
    if (profile.num_qubits >= kMpsMinQubits && mps_why.empty() &&
        (!sv_why.empty() ||
         mpsPrice(analysis, options) < statevectorPrice(analysis, options))) {
        choice.backend = BackendKind::kMps;
        std::ostringstream why;
        why << "wide low-entanglement circuit: chi-capped MPS (chi="
            << choice.mps_chi << ", entanglement width "
            << choice.mps_ent_width << ", est truncation bound "
            << std::scientific << std::setprecision(1)
            << choice.mps_trunc_bound << ") "
            << (sv_why.empty() ? "beats 2^n dense evolution"
                               : "runs where the statevector cannot: " +
                                     sv_why);
        choice.reason = why.str();
        return out;
    }

    const std::string dm_why =
        capabilityGap(BackendKind::kDensityMatrix, analysis, options);
    if (noise.kraus && !noise.pauli_only && dm_why.empty() &&
        densityPrice(analysis, options) <
            statevectorPrice(analysis, options)) {
        choice.backend = BackendKind::kDensityMatrix;
        choice.reason =
            "non-Pauli Kraus channels on a small terminal-"
            "measurement circuit: one exact channel evolution is "
            "cheaper than per-shot trajectory replay";
        return out;
    }

    choice.backend = BackendKind::kStatevector;
    if (!sv_why.empty()) {
        choice.capable = false;
        choice.reason = "no backend can run this job: statevector: " +
                        sv_why + "; stabilizer: " + stab_why +
                        "; mps: " + mps_why + "; density_matrix: " +
                        dm_why;
        return out;
    }
    choice.reason = "general circuit: " + stab_why;
    return out;
}

BackendChoice
routeShots(const QuantumCircuit& circuit, const SimOptions& options)
{
    return route(circuit, options).choice;
}

double
assertionGateWeight(BackendKind kind, int num_qubits)
{
    const int n = std::max(1, num_qubits);
    switch (kind) {
      case BackendKind::kStabilizer:
        // O(n) row update per gate (O(n^2) for measures; gates
        // dominate assertion fragments).
        return double(n);
      case BackendKind::kStatevector:
        // O(2^n) amplitudes per gate; clamp the exponent so the weight
        // stays finite and comparable for wide circuits.
        return std::ldexp(1.0, std::min(n, 48));
      case BackendKind::kDensityMatrix:
        // O(4^n) per gate.
        return std::ldexp(1.0, std::min(2 * n, 60));
      case BackendKind::kMps:
        // O(chi^3) two-site updates: 2^n until the default cap binds,
        // then flat (chi=64 -> 64^3 = 2^18 flops per gate).
        return std::min(std::ldexp(1.0, std::min(n, 48)), 262144.0);
    }
    return 1.0;
}

std::string
explainRouting(const Route& route, const SimOptions& options)
{
    const CircuitProfile& profile = route.analysis.profile;
    const EntanglementProfile& ent = route.analysis.entanglement;
    const BackendChoice& choice = route.choice;
    const NoiseProfile& noise = route.analysis.noise;
    const auto verdict = [&](BackendKind kind) {
        const std::string why =
            capabilityGap(kind, route.analysis, options);
        return why.empty() ? std::string("yes") : "no (" + why + ")";
    };

    std::ostringstream out;
    out << "circuit: " << profile.num_qubits << " qubits, "
        << profile.gates << " gates, " << profile.measures
        << " measures, " << profile.resets << " resets\n";
    out << "class: " << circuitClassName(profile.klass);
    if (profile.non_clifford_gates > 0) {
        out << " (" << profile.non_clifford_gates
            << " non-Clifford gates";
        if (!profile.non_clifford_names.empty()) {
            out << ":";
            for (const std::string& name : profile.non_clifford_names) {
                out << " " << name;
            }
        }
        out << ")";
    }
    out << "\n";
    out << "measurement shape: "
        << (profile.terminal_measure_only ? "terminal only"
                                          : "mid-circuit")
        << "\n";
    out << "noise: " << describeNoise(noise) << "\n";
    const FusionStats& fs = choice.fusion;
    out << "fusion: on (max " << defaults::kFusionMaxQubits
        << " qubits): " << fs.gates_in << " gates -> " << fs.gates_out
        << " kernels (ratio " << std::fixed << std::setprecision(2)
        << fs.ratio() << std::defaultfloat << ", " << fs.fused_groups
        << " fused groups, largest " << fs.max_group << ")";
    if (noise.kraus) out << " [Kraus-noisy gates run unfused]";
    out << "\n";
    out << "kernels:";
    for (const auto& [name, n] : fs.kernel_counts) {
        out << " " << name << "=" << n;
    }
    if (fs.kernel_counts.empty()) out << " none";
    out << "\n";
    out << "entanglement: width " << ent.max_cut_crossings
        << " (needs chi ~ 2^" << ent.needed_log2_chi << "), chi cap "
        << std::max(1, options.mps_chi) << " -> effective chi "
        << choice.mps_chi << ", est truncation bound "
        << std::scientific << std::setprecision(2)
        << choice.mps_trunc_bound << std::defaultfloat;
    if (ent.long_range_gates > 0) {
        out << ", " << ent.long_range_gates
            << " SWAP-routed long-range gates";
    }
    out << "\n";
    out << "capable: statevector=" << verdict(BackendKind::kStatevector)
        << ", density_matrix=" << verdict(BackendKind::kDensityMatrix)
        << ", stabilizer=" << verdict(BackendKind::kStabilizer)
        << ", mps=" << verdict(BackendKind::kMps) << "\n";
    out << "chosen: " << backendName(choice.backend)
        << (choice.capable ? "" : " [INCAPABLE]") << " — "
        << choice.reason << "\n";
    return out.str();
}

} // namespace backend
} // namespace qa
