/**
 * @file
 * Tests for the assertion compiler (src/acomp): stabilizer-generator
 * extraction, the Pauli parity-measurement gadget, cross-form
 * statistical equivalence of the lowerings, the static assertion
 * generator (including the GHZ
 * idiom's fault-detection power), kUnsupportedAssertion diagnostics,
 * and the serve-layer auto_assert integration.
 */
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acomp/compiler.hpp"
#include "acomp/generator.hpp"
#include "acomp/lowering.hpp"
#include "acomp/run.hpp"
#include "algos/states.hpp"
#include "backend/backend.hpp"
#include "baselines/chi_square.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "serve/job.hpp"
#include "serve/wire.hpp"
#include "stab/observables.hpp"
#include "stab/tableau.hpp"
#include "synth/pauli_gadget.hpp"

namespace qa
{
namespace
{

using namespace acomp;
using namespace algos;

/** GHZ-n preparation with measured program output. */
QuantumCircuit
measuredGhz(int n)
{
    QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    for (int q = 0; q < n; ++q) qc.measure(q, q);
    return qc;
}

/** One user site asserting the GHZ-n state at instruction `position`. */
AssertionSite
ghzSite(int n, size_t position)
{
    AssertionSite site;
    site.position = position;
    for (int q = 0; q < n; ++q) site.qubits.push_back(q);
    site.set = std::make_shared<StateSet>(StateSet::pure(ghzVector(n)));
    return site;
}

TEST(AcompLoweringTest, NamesRoundTrip)
{
    EXPECT_STREQ(formName(LoweringForm::kSwap), "swap");
    EXPECT_STREQ(formName(LoweringForm::kPauliMeasure), "pauli");
    for (const char* name : {"auto", "swap", "or", "ndd", "pauli"}) {
        LoweringRequest req;
        ASSERT_TRUE(parseLoweringRequest(name, &req)) << name;
        EXPECT_STREQ(loweringRequestName(req), name);
    }
    LoweringRequest req;
    EXPECT_TRUE(parseLoweringRequest("pauli_measure", &req));
    EXPECT_EQ(req, LoweringRequest::kPauliMeasure);
    EXPECT_FALSE(parseLoweringRequest("bogus", &req));
    EXPECT_FALSE(parseLoweringRequest("pauli_sample", &req));
    EXPECT_STREQ(invariantClassName(InvariantClass::kEntangled),
                 "entangled");
}

TEST(AcompLoweringTest, GhzGeneratorsStabilizeTheState)
{
    for (int n : {2, 3, 5}) {
        const CorrectSubspace sub =
            analyzeStateSet(StateSet::pure(ghzVector(n)));
        const auto gens = stabilizerGenerators(sub);
        ASSERT_TRUE(gens.has_value()) << "GHZ-" << n;
        EXPECT_EQ(int(gens->size()), n);
        for (const PauliString& g : *gens) {
            EXPECT_TRUE(stabilizes(g, ghzVector(n)));
        }
    }
}

TEST(AcompLoweringTest, AffineBasisSetsGetSignedZGenerators)
{
    // {|00>,|11>}: rank-2 affine set stabilized by +ZZ.
    const CVector b00 = CVector::basisState(4, 0);
    const CVector b11 = CVector::basisState(4, 3);
    const auto even = stabilizerGenerators(
        analyzeStateSet(StateSet::approximate({b00, b11})));
    ASSERT_TRUE(even.has_value());
    ASSERT_EQ(even->size(), 1u);
    EXPECT_EQ((*even)[0].phase(), 0);
    for (const CVector& v : {b00, b11}) {
        EXPECT_TRUE(stabilizes((*even)[0], v));
    }

    // {|01>,|10>}: the odd-parity coset needs the -ZZ sign.
    const CVector b01 = CVector::basisState(4, 1);
    const CVector b10 = CVector::basisState(4, 2);
    const auto odd = stabilizerGenerators(
        analyzeStateSet(StateSet::approximate({b01, b10})));
    ASSERT_TRUE(odd.has_value());
    ASSERT_EQ(odd->size(), 1u);
    EXPECT_EQ((*odd)[0].phase(), 2);
    for (const CVector& v : {b01, b10}) {
        EXPECT_TRUE(stabilizes((*odd)[0], v));
    }
}

TEST(AcompLoweringTest, NonStabilizerSubspacesReturnNullopt)
{
    // W-3 is famously not a stabilizer state.
    EXPECT_FALSE(
        stabilizerGenerators(analyzeStateSet(StateSet::pure(wVector(3))))
            .has_value());
    // Rank 3 in 2 qubits: not a power of 2.
    EXPECT_FALSE(stabilizerGenerators(
                     analyzeStateSet(StateSet::approximate(
                         {CVector::basisState(4, 0),
                          CVector::basisState(4, 1),
                          CVector::basisState(4, 2)})))
                     .has_value());
}

TEST(AcompLoweringTest, FullSpaceYieldsEmptyGeneratorList)
{
    const auto gens = stabilizerGenerators(
        analyzeStateSet(StateSet::approximate({CVector::basisState(2, 0),
                                               CVector::basisState(2, 1)})));
    ASSERT_TRUE(gens.has_value());
    EXPECT_TRUE(gens->empty());
}

TEST(AcompLoweringTest, ClusterStateGeneratorsViaConjugation)
{
    // Linear cluster states exercise the Clifford-conjugation path with
    // X-containing generators (K_i = Z X Z).
    const CVector cluster = linearClusterVector(4);
    const auto gens = stabilizerGenerators(
        analyzeStateSet(StateSet::pure(cluster)));
    ASSERT_TRUE(gens.has_value());
    EXPECT_EQ(gens->size(), 4u);
    for (const PauliString& g : *gens) {
        EXPECT_TRUE(stabilizes(g, cluster));
    }
}

TEST(PauliGadgetTest, MeasuresWithoutDisturbingStabilizedStates)
{
    // Bell state, stabilized by +XX and +ZZ: two back-to-back gadgets
    // both read 0, proving the first one restored the state.
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    PauliString xx(2), zz(2);
    xx.setX(0, true);
    xx.setX(1, true);
    zz.setZ(0, true);
    zz.setZ(1, true);
    appendPauliMeasureGadget(qc, xx, {0, 1}, 0);
    appendPauliMeasureGadget(qc, zz, {0, 1}, 1);

    SimOptions options;
    options.shots = 256;
    options.seed = 11;
    const Counts counts = backend::backendFor(BackendKind::kStatevector).runShots(qc, options);
    EXPECT_DOUBLE_EQ(counts.fractionAllZero({0, 1}), 1.0);
}

TEST(PauliGadgetTest, NegativePhaseGeneratorKeepsZeroMeansPass)
{
    // (|01>+|10>)/sqrt2 is stabilized by -ZZ and flagged by +ZZ.
    QuantumCircuit qc(2, 2);
    qc.h(0);
    qc.cx(0, 1);
    qc.x(1);
    PauliString pos(2), neg(2);
    pos.setZ(0, true);
    pos.setZ(1, true);
    neg = pos;
    neg.setPhase(2);
    appendPauliMeasureGadget(qc, neg, {0, 1}, 0);
    appendPauliMeasureGadget(qc, pos, {0, 1}, 1);

    SimOptions options;
    options.shots = 128;
    options.seed = 5;
    const Counts counts = backend::backendFor(BackendKind::kStatevector).runShots(qc, options);
    EXPECT_DOUBLE_EQ(counts.fractionAllZero({0}), 1.0);
    EXPECT_DOUBLE_EQ(counts.fractionAllZero({1}), 0.0);
}

/** Compile the measured GHZ-3 with one end-of-prep site under `req`. */
CompiledProgram
compileGhz3(LoweringRequest req, bool fault = false)
{
    QuantumCircuit qc(3, 3);
    qc.h(0);
    qc.cx(0, 1);
    qc.cx(1, 2);
    if (fault) qc.x(1);
    const size_t site_pos = qc.instructions().size();
    for (int q = 0; q < 3; ++q) qc.measure(q, q);
    AcompOptions opts;
    opts.lowering = req;
    return compileAssertions(qc, {ghzSite(3, site_pos)}, opts);
}

TEST(AcompCompilerTest, FormsMatchTheRequestAndBudget)
{
    const CompiledProgram pauli = compileGhz3(LoweringRequest::kPauliMeasure);
    ASSERT_EQ(pauli.slots.size(), 1u);
    EXPECT_EQ(pauli.slots[0].form, LoweringForm::kPauliMeasure);
    EXPECT_TRUE(pauli.slots[0].ancillas.empty());
    EXPECT_EQ(pauli.slots[0].generators, 3);
    EXPECT_EQ(pauli.variants.size(), 1u);
    EXPECT_EQ(pauli.slots[0].clbits.size(), 3u);

    const CompiledProgram swap = compileGhz3(LoweringRequest::kSwap);
    ASSERT_EQ(swap.slots.size(), 1u);
    EXPECT_EQ(swap.slots[0].form, LoweringForm::kSwap);
    EXPECT_FALSE(swap.slots[0].ancillas.empty());
    EXPECT_TRUE(swap.repair_supported);

    // Clifford program + stabilizer-expressible slot: the cost model
    // picks the ancilla-free Pauli form on its own.
    const CompiledProgram autod = compileGhz3(LoweringRequest::kAuto);
    EXPECT_EQ(autod.slots[0].form, LoweringForm::kPauliMeasure);
}

TEST(AcompCompilerTest, CrossFormVerdictsAreChiSquareEquivalent)
{
    // 4096 shots of the clean GHZ-3 under both forms: each form must
    // accept every shot, and the accepted program histograms must both
    // be consistent with the ideal 50/50 split.
    for (LoweringRequest req :
         {LoweringRequest::kSwap, LoweringRequest::kPauliMeasure}) {
        const CompiledProgram compiled = compileGhz3(req);
        SimOptions options;
        options.shots = 4096;
        options.seed = 1234;
        const PolicyOutcome out = runLowered(compiled, options);
        EXPECT_DOUBLE_EQ(out.pass_rate, 1.0)
            << loweringRequestName(req);
        ASSERT_EQ(out.slot_error_rate.size(), 1u);
        EXPECT_DOUBLE_EQ(out.slot_error_rate[0], 0.0);

        const long zeros = out.program_counts.map.count("000")
                               ? out.program_counts.map.at("000")
                               : 0;
        const long ones = out.program_counts.map.count("111")
                              ? out.program_counts.map.at("111")
                              : 0;
        EXPECT_EQ(zeros + ones, out.program_counts.shots)
            << loweringRequestName(req);
        const ChiSquareResult chi =
            chiSquareTest({zeros, ones}, {0.5, 0.5});
        EXPECT_GT(chi.p_value, 1e-4) << loweringRequestName(req);
    }
}

TEST(AcompCompilerTest, EveryFormDetectsAnInjectedPauliFault)
{
    // X on q1 after the prep: orthogonal to GHZ-3, so the full parity
    // check flags deterministically.
    SimOptions options;
    options.shots = 1024;
    options.seed = 77;

    const PolicyOutcome pauli = runLowered(
        compileGhz3(LoweringRequest::kPauliMeasure, true), options);
    EXPECT_DOUBLE_EQ(pauli.slot_error_rate[0], 1.0);

    const PolicyOutcome swap = runLowered(
        compileGhz3(LoweringRequest::kSwap, true), options);
    EXPECT_GT(swap.slot_error_rate[0], 0.3);
}

TEST(AcompGeneratorTest, ClassifiesClassicalAndSuperpositionInvariants)
{
    QuantumCircuit qc(3, 3);
    qc.h(0);
    qc.x(1);
    qc.x(2);
    qc.measureAll();
    const std::vector<AssertionSite> sites = generateAssertions(qc);
    ASSERT_EQ(sites.size(), 2u);
    bool saw_classical = false, saw_superposition = false;
    for (const AssertionSite& site : sites) {
        EXPECT_EQ(site.position, 3u); // before the measures
        if (site.invariant == InvariantClass::kClassical) {
            saw_classical = true;
            EXPECT_EQ(site.qubits, (std::vector<int>{1, 2}));
        }
        if (site.invariant == InvariantClass::kSuperposition) {
            saw_superposition = true;
            EXPECT_EQ(site.qubits, (std::vector<int>{0}));
        }
    }
    EXPECT_TRUE(saw_classical);
    EXPECT_TRUE(saw_superposition);
}

TEST(AcompGeneratorTest, NonCliffordPrefixYieldsNoSites)
{
    QuantumCircuit qc(1, 1);
    qc.t(0);
    qc.measure(0, 0);
    EXPECT_TRUE(generateAssertions(qc).empty());

    const CompiledProgram compiled = autoAssert(qc);
    EXPECT_TRUE(compiled.slots.empty());
    ASSERT_EQ(compiled.variants.size(), 1u);
    SimOptions options;
    options.shots = 64;
    options.seed = 1;
    const PolicyOutcome out = runLowered(compiled, options);
    EXPECT_DOUBLE_EQ(out.pass_rate, 1.0);
    EXPECT_EQ(out.raw.shots, 64);
}

TEST(AcompGeneratorTest, CleanGhzPassesAndIdiomCatchesInjectedFault)
{
    SimOptions options;
    options.shots = 512;
    options.seed = 9;

    const PolicyOutcome clean = runLowered(autoAssert(measuredGhz(4)),
                                           options);
    EXPECT_DOUBLE_EQ(clean.pass_rate, 1.0);

    // The injected x q[1] mid-preparation is exactly the fault a pure
    // tableau walk absorbs into its invariant; the GHZ idiom asserts
    // what the *pattern* promises instead and must flag it.
    QuantumCircuit faulty(4, 4);
    faulty.h(0);
    faulty.cx(0, 1);
    faulty.x(1);
    faulty.cx(1, 2);
    faulty.cx(2, 3);
    faulty.measureAll();
    const CompiledProgram compiled = autoAssert(faulty);
    ASSERT_FALSE(compiled.slots.empty());
    const PolicyOutcome out = runLowered(compiled, options);
    EXPECT_LT(out.pass_rate, 0.1);
}

/**
 * A random Clifford circuit with barriers, mixing gates the classifier
 * reads from the gate table (sx, cy, ...) with one it recognizes from
 * the matrix (rz(pi/2)). With `ghz_prelude` it opens with h q[0] and a
 * CX fan-out, which the GHZ idiom claims when nothing else touches it;
 * otherwise an s on every qubit leaves the idiom no fresh root. A t
 * sometimes ends the Clifford prefix before the measurements.
 */
QuantumCircuit
randomBarrierCircuit(Rng& rng, bool ghz_prelude)
{
    const int n = 4 + int(rng.index(3));
    QuantumCircuit qc(n, n);
    int first = 0;
    if (ghz_prelude) {
        qc.h(0);
        qc.cx(0, 1);
        qc.cx(0, 2);
        qc.barrier();
        first = 3;
    } else {
        for (int q = 0; q < n; ++q) qc.s(q);
    }
    for (int g = 0; g < 20; ++g) {
        const int a = first + int(rng.index(size_t(n - first)));
        int b = first + int(rng.index(size_t(n - first)));
        if (b == a) b = a + 1 < n ? a + 1 : first;
        switch (rng.index(14)) {
          case 0: qc.h(a); break;
          case 1: qc.s(a); break;
          case 2: qc.sdg(a); break;
          case 3: qc.sx(a); break;
          case 4: qc.rz(a, M_PI / 2.0); break;
          case 5: qc.x(a); break;
          case 6: qc.y(ghz_prelude ? int(rng.index(3)) : a); break;
          case 7: if (b != a) qc.cx(a, b); break;
          case 8: if (b != a) qc.cy(a, b); break;
          case 9: if (b != a) qc.cz(a, b); break;
          case 10: if (b != a) qc.swap(a, b); break;
          default: qc.barrier(); break;
        }
    }
    if (rng.bernoulli(0.3)) qc.t(n - 1);
    qc.h(first);
    qc.measureAll();
    return qc;
}

TEST(AcompGeneratorTest, SitesMatchTheTableauOfTheirPrefix)
{
    // Every tableau-derived site asserts, for each of its qubits, that
    // qubit's stabilizer row of the prefix before the site, restricted
    // to the site's qubits.
    Rng rng(41);
    int checked = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const QuantumCircuit raw = randomBarrierCircuit(rng, false);
        for (const AssertionSite& site : generateAssertions(raw)) {
            SCOPED_TRACE("trial " + std::to_string(trial) + " position " +
                         std::to_string(site.position));
            QuantumCircuit prefix(raw.numQubits());
            for (size_t i = 0; i < site.position; ++i) {
                prefix.append(raw.instructions()[i]);
            }
            const StabilizerTableau tab = runClifford(prefix);
            ASSERT_EQ(site.generators.size(), site.qubits.size());
            for (size_t j = 0; j < site.qubits.size(); ++j) {
                const PauliString row = tab.stabilizer(site.qubits[j]);
                PauliString expected(int(site.qubits.size()));
                expected.setPhase(row.phase());
                for (size_t l = 0; l < site.qubits.size(); ++l) {
                    expected.setX(int(l), row.x(site.qubits[l]));
                    expected.setZ(int(l), row.z(site.qubits[l]));
                }
                EXPECT_EQ(site.generators[j].toString(), expected.toString());
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 100);
}

TEST(AcompGeneratorTest, OutputMatchesPinnedDigests)
{
    // Digest of generateAssertions' sites (position, invariant, qubits,
    // generators, source anchors) over random barrier circuits, with
    // and without the GHZ idiom, parsed back from QASM so the anchors
    // are real. The pins were recorded with the generator that rebuilt
    // the prefix tableau from gate 0 for every cut.
    const char* const kPins[] = {
        "77c4040fc6e150eff564a08b2ef650f7",
        "744f904e070ed57285fa694f16246df4",
        "98cdae94bf5f6eb808d7f971e2b263b8",
        "dd1c4f30feb905fab9001a1c59dcf1a6",
    };
    Rng rng(43);
    for (size_t round = 0; round < std::size(kPins); ++round) {
        HashStream hash;
        for (int trial = 0; trial < 10; ++trial) {
            const QuantumCircuit built =
                randomBarrierCircuit(rng, round % 2 == 1);
            std::vector<QasmPos> positions;
            const QuantumCircuit raw = parseQasm(built.toQasm(), &positions);
            const std::vector<AssertionSite> sites =
                generateAssertions(raw, &positions);
            hash.u64(sites.size());
            for (const AssertionSite& site : sites) {
                hash.u64(site.position)
                    .str(invariantClassName(site.invariant))
                    .i64(site.source_line)
                    .i64(site.source_col);
                for (int q : site.qubits) hash.i64(q);
                for (const PauliString& g : site.generators) {
                    hash.str(g.toString());
                }
            }
        }
        EXPECT_EQ(hash.digest().str(), kPins[round]) << "round " << round;
    }
}

TEST(AcompCompilerTest, UnsupportedAssertionCarriesSourceAnchor)
{
    QuantumCircuit qc = wPrep(3);
    AssertionSite site;
    site.position = qc.instructions().size();
    site.qubits = {0, 1, 2};
    site.set = std::make_shared<StateSet>(StateSet::pure(wVector(3)));
    site.source_line = 42;
    site.source_col = 7;
    AcompOptions opts;
    opts.lowering = LoweringRequest::kPauliMeasure;
    try {
        compileAssertions(qc, {site}, opts);
        FAIL() << "expected kUnsupportedAssertion";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kUnsupportedAssertion);
        const std::string what = err.what();
        EXPECT_NE(what.find("42"), std::string::npos) << what;
        EXPECT_NE(what.find("slot 0"), std::string::npos) << what;
    }
    // kAuto still lowers it — the unitary designs cover dense targets.
    opts.lowering = LoweringRequest::kAuto;
    const CompiledProgram compiled = compileAssertions(qc, {site}, opts);
    ASSERT_EQ(compiled.slots.size(), 1u);
    EXPECT_NE(compiled.slots[0].form, LoweringForm::kPauliMeasure);
}

TEST(AcompServeTest, AutoAssertJobsExecuteAndReportSlots)
{
    serve::JobSpec spec;
    spec.circuit = measuredGhz(3);
    spec.auto_assert = true;
    spec.shots = 256;
    spec.seed = 3;
    const serve::JobResult result = serve::executeJob(spec);
    EXPECT_EQ(result.status, serve::JobStatus::kOk);
    EXPECT_DOUBLE_EQ(result.pass_rate, 1.0);
    ASSERT_FALSE(result.assertions.empty());
    EXPECT_EQ(result.assert_variants, 1);

    // The knob must separate cache keys: same circuit, different key.
    serve::JobSpec plain = spec;
    plain.auto_assert = false;
    EXPECT_NE(serve::jobKey(spec).str(), serve::jobKey(plain).str());
}

TEST(AcompServeTest, AutoAssertConflictsAreTypedBadRequests)
{
    serve::JobSpec with_slots;
    with_slots.circuit = measuredGhz(3);
    with_slots.auto_assert = true;
    with_slots.assert_clbits = {{0}};
    try {
        serve::executeJob(with_slots);
        FAIL() << "expected kBadRequest";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }
}

TEST(AcompServeTest, WireRoundTripsAutoAssertFields)
{
    const std::string qasm =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n"
        "h q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n"
        "measure q[1] -> c[1];\n";
    const std::string line =
        "{\"op\":\"run\",\"id\":\"j1\",\"qasm\":\"" +
        serve::jsonEscape(qasm) +
        "\",\"shots\":128,\"auto_assert\":true,"
        "\"assert_lowering\":\"pauli\"}";
    const serve::WireRequest request = serve::parseRequest(line);
    EXPECT_TRUE(request.spec.auto_assert);
    EXPECT_EQ(request.spec.assert_lowering,
              LoweringRequest::kPauliMeasure);
    EXPECT_FALSE(request.spec.qasm_positions.empty());

    const serve::JobResult result = serve::executeJob(request.spec);
    const std::string encoded = serve::encodeResult("j1", result);
    EXPECT_NE(encoded.find("\"auto_assert\":{"), std::string::npos);
    EXPECT_NE(encoded.find("\"form\":\"pauli\""), std::string::npos);
    const std::string replayed = serve::encodeReplay("j1", result);
    EXPECT_NE(replayed.find("\"auto_assert\":{"), std::string::npos);

    try {
        serve::parseRequest(
            "{\"op\":\"run\",\"qasm\":\"OPENQASM 2.0;\\nqreg q[1];\\n\","
            "\"assert_lowering\":\"bogus\"}");
        FAIL() << "expected kBadRequest";
    } catch (const UserError& err) {
        EXPECT_EQ(err.code(), ErrorCode::kBadRequest);
    }
}

} // namespace
} // namespace qa
