#include "backend/router.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

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

/** Deterministic cost estimates used to arbitrate density vs replay. */
struct CostEstimate
{
    double statevector = 0.0;
    double density = 0.0;
};

CostEstimate
estimateCosts(const CircuitProfile& circuit, const NoiseModel* noise,
              int shots, size_t effective_instructions)
{
    const double dim = std::ldexp(1.0, circuit.num_qubits);
    const double work = double(effective_instructions) + 1.0;
    size_t channels = 0;
    if (noise != nullptr) {
        channels = noise->noise_1q.size() + noise->noise_2q.size();
    }
    CostEstimate est;
    // Per-shot replay touches every amplitude per instruction; the
    // density path evolves 4^n entries once, channels included exactly.
    est.statevector = double(shots) * work * dim;
    est.density = work * double(1 + channels) * dim * dim;
    return est;
}

/** Why the stabilizer backend cannot run this job ("" when it can). */
std::string
stabilizerObjection(const CircuitProfile& circuit,
                    const NoiseProfile& noise)
{
    if (circuit.non_clifford_gates > 0) {
        std::ostringstream out;
        out << circuit.non_clifford_gates << " non-Clifford gate"
            << (circuit.non_clifford_gates == 1 ? "" : "s");
        if (!circuit.non_clifford_names.empty()) {
            out << " (first: " << circuit.non_clifford_names.front()
                << ")";
        }
        return out.str();
    }
    if (noise.kraus && !noise.pauli_only) {
        return "non-Pauli Kraus channels in the noise model";
    }
    return "";
}

/** Why the density backend cannot run this job ("" when it can). */
std::string
densityObjection(const CircuitProfile& circuit)
{
    if (!circuit.terminal_measure_only) {
        return "mid-circuit measurements or resets";
    }
    if (circuit.num_qubits > kDensityMaxQubits) {
        std::ostringstream out;
        out << circuit.num_qubits << " qubits exceed the "
            << kDensityMaxQubits << "-qubit density-matrix limit";
        return out.str();
    }
    return "";
}

/** Why the MPS backend cannot run this job ("" when it can). */
std::string
mpsObjection(const EntanglementProfile& ent, const NoiseProfile& noise,
             const SimOptions& options)
{
    if (ent.max_gate_arity > 3) {
        std::ostringstream out;
        out << ent.max_gate_arity
            << "-qubit gates exceed the MPS lowering (max arity 3)";
        return out.str();
    }
    if (noise.kraus) {
        return "gate-level Kraus channels (MPS runs pure-state "
               "trajectories without per-gate noise)";
    }
    const double bound =
        mpsTruncationBound(ent, std::max(1, options.mps_chi));
    if (bound > options.mps_trunc_tol) {
        std::ostringstream out;
        out << "estimated truncation error " << std::scientific
            << std::setprecision(2) << bound
            << " exceeds the mps_tol tolerance " << options.mps_trunc_tol
            << " (entanglement width needs chi ~ 2^"
            << ent.needed_log2_chi << ", cap is "
            << std::max(1, options.mps_chi) << ")";
        return out.str();
    }
    return "";
}

/**
 * Estimated work for an MPS run: chi^3-ish two-site updates for the
 * unitary part, then either cheap left-to-right sampling (terminal
 * measurements) or per-shot suffix replay (mid-circuit collapse).
 */
double
mpsCost(const CircuitProfile& profile, const EntanglementProfile& ent,
        int chi, int shots)
{
    const double chi_d = double(std::max(1, chi));
    const double two_site = double(ent.swap_routed_ops) * chi_d * chi_d *
                            chi_d * 8.0;
    const double one_site = double(profile.gates) * chi_d * chi_d * 2.0;
    const double evolve = two_site + one_site;
    const double sample =
        double(shots) * double(profile.num_qubits) * chi_d * chi_d;
    if (profile.terminal_measure_only) return evolve + sample;
    // Mid-circuit collapse: per-shot replay plus O(n chi^3)
    // re-canonicalization per collapse.
    const double collapses =
        double(profile.measures + profile.resets);
    return double(shots) *
           (evolve + collapses * double(profile.num_qubits) * chi_d *
                         chi_d * chi_d);
}

/** Prefix-aware statevector cost (mirrors the engine's replay split). */
double
statevectorCost(const CircuitProfile& profile, int shots,
                size_t effective_instructions)
{
    const double dim = std::ldexp(1.0, std::min(profile.num_qubits, 60));
    const double work = double(effective_instructions) + 1.0;
    if (profile.terminal_measure_only) {
        // Evolve once, sample the final distribution per shot.
        return work * dim + double(shots) * double(profile.num_qubits);
    }
    return double(shots) * work * dim;
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
 * it can): the capability check behind explicit requests and explains.
 */
std::string
capabilityGap(BackendKind kind, const CircuitAnalysis& analysis,
              const SimOptions& options)
{
    switch (kind) {
      case BackendKind::kStatevector:
        return "";
      case BackendKind::kDensityMatrix:
        return densityObjection(analysis.profile);
      case BackendKind::kStabilizer:
        return stabilizerObjection(analysis.profile,
                                   analyzeNoise(options.noise));
      case BackendKind::kMps:
        return mpsObjection(analysis.entanglement,
                            analyzeNoise(options.noise), options);
    }
    return "unknown backend kind";
}

} // namespace

CircuitAnalysis
analyzeForRouting(const QuantumCircuit& circuit, const SimOptions& options)
{
    CircuitAnalysis analysis;
    analysis.profile = analyzeCircuit(circuit);
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
    const CircuitProfile& profile = out.analysis.profile;
    const EntanglementProfile& ent = out.analysis.entanglement;
    const NoiseProfile noise = analyzeNoise(options.noise);
    const int chi_cap = std::max(1, options.mps_chi);

    BackendChoice& choice = out.choice;
    choice.klass = profile.klass;
    choice.non_clifford_gates = profile.non_clifford_gates;
    choice.mps_chi = mpsEffectiveChi(ent, chi_cap);
    choice.mps_ent_width = int(ent.max_cut_crossings);
    choice.mps_trunc_bound = mpsTruncationBound(ent, chi_cap);

    // Fusion summary: what the dense backends will execute. Kraus
    // channels keep them on the raw gates at prepare time, so the cost
    // model only credits fusion when none are active.
    choice.fusion_enabled = out.analysis.fused.has_value();
    if (choice.fusion_enabled) choice.fusion = out.analysis.fused->stats;
    size_t effective = profile.instructions;
    if (choice.fusion_enabled && !noise.kraus) {
        effective = profile.instructions - profile.gates +
                    choice.fusion.gates_out;
    }

    if (options.backend != BackendRequest::kAuto) {
        choice.explicit_request = true;
        switch (options.backend) {
          case BackendRequest::kStatevector:
            choice.backend = BackendKind::kStatevector;
            break;
          case BackendRequest::kDensityMatrix:
            choice.backend = BackendKind::kDensityMatrix;
            break;
          case BackendRequest::kStabilizer:
            choice.backend = BackendKind::kStabilizer;
            break;
          case BackendRequest::kMps:
            choice.backend = BackendKind::kMps;
            break;
          case BackendRequest::kAuto:
            break;
        }
        const std::string why =
            capabilityGap(choice.backend, out.analysis, options);
        choice.capable = why.empty();
        choice.reason =
            choice.capable
                ? std::string("explicit ") + backendName(choice.backend) +
                      " request"
                : std::string(backendName(choice.backend)) +
                      " backend cannot run this job: " + why;
        return out;
    }

    const std::string stab_why = stabilizerObjection(profile, noise);
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
    // it) and an honest cost comparison against the prefix-aware
    // statevector estimate.
    if (!noise.kraus && profile.num_qubits >= kMpsMinQubits &&
        mpsObjection(ent, noise, options).empty()) {
        const double mps_est =
            mpsCost(profile, ent, choice.mps_chi, options.shots);
        const double sv_est =
            statevectorCost(profile, options.shots, effective);
        if (mps_est < sv_est) {
            choice.backend = BackendKind::kMps;
            std::ostringstream why;
            why << "wide low-entanglement circuit: chi-capped MPS "
                   "(chi="
                << choice.mps_chi << ", entanglement width "
                << choice.mps_ent_width << ", est truncation bound "
                << std::scientific << std::setprecision(1)
                << choice.mps_trunc_bound
                << ") beats 2^n dense evolution";
            choice.reason = why.str();
            return out;
        }
    }

    if (noise.kraus && !noise.pauli_only &&
        densityObjection(profile).empty()) {
        const CostEstimate est = estimateCosts(
            profile, options.noise, options.shots, effective);
        if (est.density < est.statevector) {
            choice.backend = BackendKind::kDensityMatrix;
            choice.reason =
                "non-Pauli Kraus channels on a small terminal-"
                "measurement circuit: one exact channel evolution is "
                "cheaper than per-shot trajectory replay";
            return out;
        }
    }

    choice.backend = BackendKind::kStatevector;
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
    const NoiseProfile noise = analyzeNoise(options.noise);
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
    out << "capable: statevector=yes, density_matrix="
        << verdict(BackendKind::kDensityMatrix)
        << ", stabilizer=" << verdict(BackendKind::kStabilizer)
        << ", mps=" << verdict(BackendKind::kMps) << "\n";
    out << "chosen: " << backendName(choice.backend)
        << (choice.capable ? "" : " [INCAPABLE]") << " — "
        << choice.reason << "\n";
    return out.str();
}

} // namespace backend
} // namespace qa
