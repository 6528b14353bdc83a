#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "algos/adder.hpp"
#include "algos/deutsch_jozsa.hpp"
#include "algos/qft.hpp"
#include "algos/qpe.hpp"
#include "algos/states.hpp"
#include "core/asserted_program.hpp"
#include "serve/json.hpp"
#include "sim/statevector.hpp"

namespace qa
{
namespace perf
{

namespace
{

/** splitmix64: a portable, fully specified generator for the streams. */
class Mix
{
  public:
    explicit Mix(uint64_t seed) : state_(seed) {}

    uint64_t
    u64()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1) from the top 53 bits. */
    double uniform() { return double(u64() >> 11) * 0x1.0p-53; }

    /** Uniform integer in [0, n). */
    size_t below(size_t n) { return size_t(uniform() * double(n)); }

  private:
    uint64_t state_;
};

uint64_t
mixKey(uint64_t a, uint64_t b)
{
    return Mix(a * 0x100000001b3ULL ^ b).u64();
}

uint64_t
mixString(uint64_t seed, const std::string& s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
    return mixKey(seed, h);
}

/** Wire seeds stay below 2^48: JSON numbers are doubles. */
uint64_t
wireSeed(uint64_t x)
{
    return x & ((uint64_t(1) << 48) - 1);
}

/**
 * Stratified draws: the deck holds index i `counts[i]` times and is
 * dealt in a freshly shuffled order, so every full deck has exactly the
 * configured mix and only the order depends on the seed. That keeps the
 * cost of a run's job mix the same from seed to seed.
 */
class Deck
{
  public:
    explicit Deck(const std::vector<int>& counts)
    {
        for (size_t i = 0; i < counts.size(); ++i) {
            cards_.insert(cards_.end(), size_t(counts[i]), i);
        }
    }

    size_t
    deal(Mix& rng)
    {
        if (next_ == 0) {
            for (size_t i = cards_.size(); i > 1; --i) {
                std::swap(cards_[i - 1], cards_[rng.below(i)]);
            }
        }
        const size_t card = cards_[next_];
        next_ = (next_ + 1) % cards_.size();
        return card;
    }

  private:
    std::vector<size_t> cards_;
    size_t next_ = 0;
};

/** A deck with one card per index 0..n-1. */
Deck
uniformDeck(size_t n)
{
    return Deck(std::vector<int>(n, 1));
}

/** Inverse-CDF sampler over ranks 0..n-1 with P(r) ~ 1/(r+1)^s. */
class Zipf
{
  public:
    Zipf(size_t n, double s)
    {
        cdf_.reserve(n);
        double acc = 0.0;
        for (size_t r = 0; r < n; ++r) {
            acc += 1.0 / std::pow(double(r + 1), s);
            cdf_.push_back(acc);
        }
        for (double& c : cdf_) c /= acc;
    }

    size_t
    draw(Mix& rng) const
    {
        const double u = rng.uniform();
        const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        return std::min(size_t(it - cdf_.begin()), cdf_.size() - 1);
    }

  private:
    std::vector<double> cdf_;
};

std::string
clbitSlots(const std::vector<std::vector<int>>& slots)
{
    std::ostringstream oss;
    oss << "[";
    for (size_t i = 0; i < slots.size(); ++i) {
        oss << (i ? ",[" : "[");
        for (size_t j = 0; j < slots[i].size(); ++j) {
            oss << (j ? "," : "") << slots[i][j];
        }
        oss << "]";
    }
    oss << "]";
    return oss.str();
}

/** The qubit list 0..n-1. */
std::vector<int>
range(int n)
{
    std::vector<int> out;
    for (int q = 0; q < n; ++q) out.push_back(q);
    return out;
}

/** Request body after the id: `"qasm":...,"shots":..,"seed":..}`. */
std::string
requestBody(const std::string& qasm, int shots, uint64_t seed,
            const std::string& extra)
{
    std::ostringstream oss;
    oss << ",\"qasm\":\"" << serve::jsonEscape(qasm) << "\",\"shots\":"
        << shots << ",\"seed\":" << seed << extra << "}";
    return oss.str();
}

GenJob
makeJob(const std::string& id, const std::string& klass,
        const std::string& body, int shots, const Expectation& expect)
{
    GenJob job;
    job.id = id;
    job.klass = klass;
    job.line = "{\"id\":\"" + id + "\"" + body;
    job.shots = shots;
    job.expect = expect;
    return job;
}

Expectation
expectNoFlags(const std::string& check)
{
    Expectation e;
    e.check = check;
    e.kind = Expectation::Kind::kNoFlags;
    return e;
}

// ---------------------------------------------------------------------
// clifford_cached: a Zipf-popular catalog of GHZ / linear-cluster jobs.
// ---------------------------------------------------------------------

constexpr int kCliffordMinQubits = 2;
constexpr int kCliffordSizes = 19; // 2..20 qubits
constexpr int kCliffordShots[] = {256, 512, 1024};
constexpr size_t kCliffordReplicas = 20;
constexpr size_t kCliffordCatalog = kCliffordSizes * 3 * kCliffordReplicas;
constexpr double kZipfExponent = 1.1;

struct CliffordClass
{
    const char* name;
    bool cluster;
    bool auto_assert;
    int cards; ///< Share of the class deck.
};

// Cards inverse to each class's measured busy time per job (an
// auto_assert job also compiles and runs the lowered program), so each
// class takes about a quarter of the busy time; see perfbench/README.md.
constexpr CliffordClass kCliffordClasses[] = {
    {"ghz_slots", false, false, 4},
    {"cluster_slots", true, false, 3},
    {"ghz_auto", false, true, 2},
    {"cluster_auto", true, true, 2},
};

/**
 * GHZ or linear-cluster preparation over n program qubits, optionally
 * followed by stabilizer checks on ancillas n.. (Proq-style projections:
 * ZZ parities for GHZ, Z X Z generators for the cluster), Z-Z pairs on
 * the qubits `frame` selects (identities: the state and every invariant
 * stay clean, but the circuit is seed-specific), and terminal
 * measurement of the program qubits into clbits 0..n-1.
 */
QuantumCircuit
cliffordCircuit(int n, bool cluster, int checks, uint64_t frame)
{
    QuantumCircuit qc(n + checks, n + checks);
    if (cluster) {
        for (int q = 0; q < n; ++q) qc.h(q);
        for (int q = 0; q + 1 < n; ++q) qc.cz(q, q + 1);
    } else {
        qc.h(0);
        for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
    }
    for (int k = 0; k < checks; ++k) {
        const int anc = n + k;
        // Spread the checked sites over the register.
        const int site = int((int64_t(k) * (n - 1)) / std::max(checks, 1));
        if (cluster) {
            qc.h(anc);
            qc.cx(anc, site);
            if (site > 0) qc.cz(anc, site - 1);
            if (site + 1 < n) qc.cz(anc, site + 1);
            qc.h(anc);
        } else {
            qc.cx(site, anc);
            qc.cx(site + 1, anc);
        }
        qc.measure(anc, n + k);
    }
    for (int q = 0; q < n; ++q) {
        if ((frame >> q) & 1) {
            qc.z(q);
            qc.z(q);
        }
    }
    for (int q = 0; q < n; ++q) qc.measure(q, q);
    return qc;
}

// ---------------------------------------------------------------------
// dense_terminal: unique layered u3+cx and QFT-family circuits.
// ---------------------------------------------------------------------

struct DenseShape
{
    int qubits;
    bool qft;
    int cards; ///< Share of the shape deck.
};

// Cards roughly inverse to cost: no width takes more than about 20% of
// busy time on a 4-core x86-64 host. The QFT family stops at 16 qubits:
// 18-qubit QFT jobs (~170 ms, memory-bound) set the p99 alone, and it
// spread by 17-21% across seeds on a shared host; the layered 18-qubit
// jobs (~60 ms) keep that width and spread by under 10%.
constexpr DenseShape kDenseShapes[] = {
    {6, false, 8},   {6, true, 8},   {8, false, 8},   {8, true, 8},
    {10, false, 8},  {10, true, 8},  {12, false, 8},  {12, true, 8},
    {14, false, 6},  {14, true, 6},  {16, false, 3},  {16, true, 3},
    {18, false, 4},
};
constexpr int kDenseLayers = 8;
constexpr int kDenseShots = 4096;

QuantumCircuit
layeredCircuit(int n, Mix& rng)
{
    QuantumCircuit qc(n, n);
    for (int l = 0; l < kDenseLayers; ++l) {
        for (int q = 0; q < n; ++q) {
            qc.u3(q, rng.uniform() * M_PI, rng.uniform() * 2 * M_PI,
                  rng.uniform() * 2 * M_PI);
        }
        for (int q = l % 2; q + 1 < n; q += 2) qc.cx(q, q + 1);
    }
    qc.measureAll();
    return qc;
}

QuantumCircuit
qftCircuit(int n, Mix& rng)
{
    QuantumCircuit qc(n, n);
    for (int q = 0; q < n; ++q) {
        qc.u3(q, rng.uniform() * M_PI, rng.uniform() * 2 * M_PI, 0.0);
    }
    algos::appendQft(qc, range(n));
    qc.measureAll();
    return qc;
}

// ---------------------------------------------------------------------
// assert_replay: paper assertion circuits, Trotter chains, noisy jobs.
// ---------------------------------------------------------------------

/** A fixed circuit that jobs reuse with fresh seeds. */
struct Template
{
    std::string klass;
    std::string body_extra; ///< assert_clbits / noise fields.
    std::string qasm;
    int shots = 1024;
    Expectation expect;
};

std::string
slotsOf(const AssertedProgram& prog)
{
    std::vector<std::vector<int>> slots;
    for (const AssertedProgram::Slot& slot : prog.slots()) {
        slots.push_back(slot.clbits);
    }
    return ",\"assert_clbits\":" + clbitSlots(slots);
}

Template
fromProgram(const std::string& klass, AssertedProgram prog, int shots,
            const Expectation& expect, const std::string& noise = "")
{
    prog.measureProgram();
    Template t;
    t.klass = klass;
    t.body_extra = slotsOf(prog) + noise;
    t.qasm = prog.circuit().toQasm();
    t.shots = shots;
    t.expect = expect;
    return t;
}

constexpr double kQpeLambda = M_PI / 8;
constexpr int kPaperShots = 512;
constexpr int kTrotterShots = 128;
constexpr int kNoisyShots = 1024;
const char* const kDepolarizing =
    ",\"noise\":{\"kind\":\"depolarizing\",\"p1\":0.001,\"p2\":0.01}";
const char* const kMelbourne = ",\"noise\":{\"kind\":\"melbourne\"}";

/** QPE program after `slot` stages with a precise SWAP assertion. */
AssertedProgram
qpeSlotProgram(algos::QpeBug bug, int slot)
{
    const algos::QpeProgram qpe(4, kQpeLambda, bug);
    const algos::QpeProgram clean(4, kQpeLambda);
    QuantumCircuit prefix(qpe.numQubits());
    const std::vector<int> ident{0, 1, 2, 3, 4};
    for (int s = 0; s < slot; ++s) prefix.compose(qpe.stage(s), ident);
    AssertedProgram prog(prefix);
    prog.assertState(ident, StateSet::pure(clean.expectedStateAtSlot(slot)),
                     AssertionDesign::kSwap);
    return prog;
}

/** Appendix-D adder prefix: both controls on, so the bug is live. */
QuantumCircuit
adderPrefix(bool buggy)
{
    constexpr int kWidth = 3;
    constexpr uint64_t kInitial = 4;
    constexpr uint64_t kConstant = 3;
    QuantumCircuit qc(kWidth + 2);
    const std::vector<int> data{0, 1, 2};
    const std::vector<int> controls{3, 4};
    for (int q = 0; q < kWidth; ++q) {
        if ((kInitial >> (kWidth - 1 - q)) & 1) qc.x(q);
    }
    for (int c : controls) qc.x(c);
    algos::appendQft(qc, data);
    algos::appendControlledAdder(qc, controls, data, kConstant, buggy);
    return qc;
}

/** The BENCH_PR10 shape: rx layers plus cx/rz/cx couplers. */
QuantumCircuit
trotterGates(int n, int layers)
{
    QuantumCircuit qc(n, 0);
    for (int q = 0; q < n; ++q) qc.rx(q, 0.30 + 0.01 * q);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q + 1 < n; ++q) {
            qc.cx(q, q + 1);
            qc.rz(q + 1, 0.17);
            qc.cx(q, q + 1);
        }
        for (int q = 0; q < n; ++q) qc.rx(q, 0.21);
    }
    return qc;
}

struct ReplayTemplates
{
    /** Groups drawn uniformly, then a template uniformly in the group. */
    std::vector<std::vector<Template>> paper;
    std::vector<Template> trotter;
    std::vector<Template> noisy;
    std::vector<Template> generated;
};

ReplayTemplates
buildReplayTemplates()
{
    using algos::QpeBug;
    ReplayTemplates out;

    // QPE slots (Sec. IX-A): Bug1 first flags at slot 3, Bug2 at slot 2.
    std::vector<Template> qpe;
    const struct
    {
        QpeBug bug;
        const char* check;
        int first_flag;
    } bugs[] = {{QpeBug::kNone, "qpe.clean", 99},
                {QpeBug::kFixedAngle, "qpe.bug1", 3},
                {QpeBug::kMissingControl, "qpe.bug2", 2}};
    for (const auto& b : bugs) {
        for (int slot = 1; slot <= 6; ++slot) {
            Expectation e = expectNoFlags(b.check);
            if (slot >= b.first_flag) e.kind = Expectation::Kind::kFlags;
            qpe.push_back(fromProgram("paper.qpe",
                                      qpeSlotProgram(b.bug, slot),
                                      kPaperShots, e));
        }
    }
    out.paper.push_back(std::move(qpe));

    // Deutsch-Jozsa approximate assertion (Fig. 17).
    std::vector<Template> dj;
    const StateSet constant = StateSet::approximate(algos::djConstantSet(2));
    for (algos::DjOracle oracle :
         {algos::DjOracle::kConstantZero, algos::DjOracle::kConstantOne,
          algos::DjOracle::kBuggyAnd}) {
        AssertedProgram prog(algos::djFunctionEval(2, oracle));
        prog.assertState({0, 1, 2}, constant, AssertionDesign::kSwap);
        Expectation e = expectNoFlags("dj.constant");
        if (oracle == algos::DjOracle::kBuggyAnd) {
            e.check = "dj.three_to_one";
            e.kind = Expectation::Kind::kRate;
            e.rate = 0.375;
        }
        dj.push_back(fromProgram("paper.dj", prog, kPaperShots, e));
    }
    out.paper.push_back(std::move(dj));

    // Appendix-D adder, precise assertion after the adder layer.
    std::vector<Template> adder;
    const CVector expected = finalState(adderPrefix(false)).amplitudes();
    for (bool buggy : {false, true}) {
        AssertedProgram prog(adderPrefix(buggy));
        prog.assertState({0, 1, 2, 3, 4}, StateSet::pure(expected),
                         AssertionDesign::kSwap);
        Expectation e = expectNoFlags("adder.clean");
        if (buggy) {
            e.check = "adder.buggy";
            e.kind = Expectation::Kind::kFlags;
        }
        adder.push_back(fromProgram("paper.adder", prog, kPaperShots, e));
    }
    out.paper.push_back(std::move(adder));

    // GHZ with precise SWAP assertions (Table I).
    std::vector<Template> ghz;
    for (int n : {3, 4, 5}) {
        AssertedProgram prog(algos::ghzPrep(n));
        prog.assertState(range(n), StateSet::pure(algos::ghzVector(n)),
                         AssertionDesign::kSwap);
        ghz.push_back(fromProgram("paper.ghz_swap", prog, kPaperShots,
                                  expectNoFlags("ghz.swap")));
    }
    out.paper.push_back(std::move(ghz));

    // Wide Trotter chains: SWAP assertion on the last pair, routed to MPS.
    const StateSet pair_subspace = StateSet::approximate(
        {CVector::basisState(4, 0), CVector::basisState(4, 3)});
    for (int n : {24, 28, 32, 36, 40}) {
        AssertedProgram prog(trotterGates(n, 2));
        prog.assertState({n - 2, n - 1}, pair_subspace,
                         AssertionDesign::kSwap);
        out.trotter.push_back(
            fromProgram("trotter", prog, kTrotterShots, Expectation{}));
    }

    // Noisy small circuits: melbourne on a terminal-measured QPE (density
    // matrix) and depolarizing on the mid-circuit DJ assertion
    // (statevector trajectories).
    {
        const QuantumCircuit full = algos::QpeProgram(4, kQpeLambda).full();
        QuantumCircuit measured(full.numQubits(), 4);
        measured.compose(full, {0, 1, 2, 3, 4});
        for (int q = 0; q < 4; ++q) measured.measure(q, q);
        Template t;
        t.klass = "noisy.density";
        t.body_extra = kMelbourne;
        t.qasm = measured.toQasm();
        t.shots = kNoisyShots;
        out.noisy.push_back(t);
    }
    {
        AssertedProgram prog(
            algos::djFunctionEval(2, algos::DjOracle::kBuggyAnd));
        prog.assertState({0, 1, 2}, constant, AssertionDesign::kSwap);
        out.noisy.push_back(fromProgram("noisy.trajectory", prog,
                                        kNoisyShots, Expectation{},
                                        kDepolarizing));
    }

    // Raw GHZ and cluster circuits with quAssert-style generated
    // invariants (auto_assert): the acomp compiler and the lowered
    // program's stabilizer shot loop.
    for (int n : {6, 10, 14, 18}) {
        for (bool cluster : {false, true}) {
            Template t;
            t.klass = cluster ? "generated.cluster" : "generated.ghz";
            t.body_extra = ",\"auto_assert\":true";
            t.qasm = cliffordCircuit(n, cluster, 0, 0).toQasm();
            t.shots = kPaperShots;
            t.expect = expectNoFlags("generated.clean");
            out.generated.push_back(t);
        }
    }
    return out;
}

const ReplayTemplates&
replayTemplates()
{
    static const ReplayTemplates templates = buildReplayTemplates();
    return templates;
}

const std::vector<WorkloadConfig>&
allConfigs()
{
    static const std::vector<WorkloadConfig> configs = [] {
        // Client requests in flight and service workers across all
        // processes both total the host's CPU count.
        const int nproc =
            int(std::max(1u, std::thread::hardware_concurrency()));
        std::vector<WorkloadConfig> c(3);
        for (WorkloadConfig& config : c) {
            config.in_flight = nproc;
            config.workers = nproc;
        }
        c[0].name = "clifford_cached";
        c[0].loop = Loop::kOpen;
        // About 28% of the 1800 req/s capacity measured on a 4-core
        // host. A hit's latency is mostly pipe hops and thread wake-ups,
        // which grow once every CPU is busy: at 800 req/s the p50 of ten
        // seeds spread by 54% of its median, at 500 req/s by about 10%.
        c[0].rate_per_s = 500.0;
        c[0].shards = 2;
        c[0].workers = std::max(1, nproc / 2);
        c[0].warmup_jobs = 2048;
        c[0].trace_jobs = 6000;

        c[1].name = "dense_terminal";
        c[1].loop = Loop::kClosed;
        c[1].warmup_jobs = 86; // one full deck of shapes
        c[1].trace_jobs = 400;

        c[2].name = "assert_replay";
        c[2].loop = Loop::kClosed;
        c[2].warmup_jobs = 110; // two full decks of classes
        c[2].trace_jobs = 400;
        return c;
    }();
    return configs;
}

} // namespace

const WorkloadConfig&
workloadConfig(const std::string& name)
{
    for (const WorkloadConfig& c : allConfigs()) {
        if (c.name == name) return c;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

struct JobStream::Impl
{
    const WorkloadConfig& config;
    uint64_t seed;     ///< The workload seed (catalog identity).
    Mix rng;           ///< The phase's draw sequence.
    char id_prefix;
    size_t index = 0;

    // clifford_cached
    Zipf zipf{kCliffordCatalog, kZipfExponent};
    Deck clifford_classes{[] {
        std::vector<int> cards;
        for (const CliffordClass& c : kCliffordClasses) {
            cards.push_back(c.cards);
        }
        return cards;
    }()};
    std::map<std::pair<size_t, size_t>, std::string> bodies;

    // dense_terminal: card = index into kDenseShapes.
    Deck dense_shapes{[] {
        std::vector<int> cards;
        for (const DenseShape& shape : kDenseShapes) {
            cards.push_back(shape.cards);
        }
        return cards;
    }()};

    // assert_replay: cards chosen from measured per-job busy time (see
    // perfbench/README.md) so that paper circuits, Trotter chains, noisy
    // jobs and generated-invariant jobs each take about a quarter of the
    // busy time.
    Deck replay_classes{{9, 4, 23, 19}};
    Deck paper_groups = uniformDeck(replayTemplates().paper.size());
    std::vector<Deck> paper_templates = [] {
        std::vector<Deck> decks;
        for (const auto& group : replayTemplates().paper) {
            decks.push_back(uniformDeck(group.size()));
        }
        return decks;
    }();
    Deck trotter_templates = uniformDeck(replayTemplates().trotter.size());
    // Density-matrix jobs cost about a fifth of a trajectory job.
    Deck noisy_templates{{5, 1}};
    Deck generated_templates = uniformDeck(replayTemplates().generated.size());

    Impl(const WorkloadConfig& c, uint64_t s, const std::string& phase)
        : config(c), seed(s),
          rng(mixString(mixString(s, c.name), phase)),
          id_prefix(phase.empty() ? 'j' : phase[0])
    {}

    GenJob
    next()
    {
        const std::string id = id_prefix + std::to_string(index++);
        if (config.name == "clifford_cached") return clifford(id);
        if (config.name == "dense_terminal") return dense(id);
        return replay(id);
    }

    GenJob
    clifford(const std::string& id)
    {
        const size_t k = clifford_classes.deal(rng);
        const size_t rank = zipf.draw(rng);
        const CliffordClass& cls = kCliffordClasses[k];

        // The rank fixes the job's cost (qubits, shots); the seed picks
        // the job's identity (wire seed and Z-Z pair placement).
        const int n = kCliffordMinQubits + int(rank % kCliffordSizes);
        const int shots = kCliffordShots[(rank / kCliffordSizes) % 3];
        std::string& body = bodies[{k, rank}];
        if (body.empty()) {
            const uint64_t ident = mixKey(mixString(seed, cls.name), rank);
            const int checks = cls.auto_assert ? 0 : std::min(3, n - 1);
            const QuantumCircuit qc =
                cliffordCircuit(n, cls.cluster, checks, ident >> 16);
            std::string extra;
            if (cls.auto_assert) {
                extra = ",\"auto_assert\":true";
            } else {
                std::vector<std::vector<int>> slots;
                for (int c = 0; c < checks; ++c) slots.push_back({n + c});
                extra = ",\"assert_clbits\":" + clbitSlots(slots);
            }
            body = requestBody(qc.toQasm(), shots, wireSeed(ident), extra);
        }
        return makeJob(id, std::string("clifford.") + cls.name, body, shots,
                       expectNoFlags(cls.auto_assert
                                         ? "clifford.auto_assert"
                                         : "clifford.slots"));
    }

    GenJob
    dense(const std::string& id)
    {
        const DenseShape& shape = kDenseShapes[dense_shapes.deal(rng)];
        const int n = shape.qubits;
        const bool qft = shape.qft;
        const QuantumCircuit qc = qft ? qftCircuit(n, rng)
                                      : layeredCircuit(n, rng);
        const std::string klass =
            std::string(qft ? "dense.qft" : "dense.layered");
        return makeJob(id, klass,
                       requestBody(qc.toQasm(), kDenseShots,
                                   wireSeed(rng.u64()), ""),
                       kDenseShots, Expectation{});
    }

    GenJob
    replay(const std::string& id)
    {
        const ReplayTemplates& t = replayTemplates();
        const Template* tpl = nullptr;
        switch (replay_classes.deal(rng)) {
          case 0: {
            const size_t group = paper_groups.deal(rng);
            tpl = &t.paper[group][paper_templates[group].deal(rng)];
            break;
          }
          case 1: tpl = &t.trotter[trotter_templates.deal(rng)]; break;
          case 2: tpl = &t.noisy[noisy_templates.deal(rng)]; break;
          default: tpl = &t.generated[generated_templates.deal(rng)]; break;
        }
        return makeJob(id, tpl->klass,
                       requestBody(tpl->qasm, tpl->shots,
                                   wireSeed(rng.u64()), tpl->body_extra),
                       tpl->shots, tpl->expect);
    }
};

JobStream::JobStream(const WorkloadConfig& config, uint64_t seed,
                     const std::string& phase)
    : impl_(std::make_unique<Impl>(config, seed, phase))
{}

JobStream::~JobStream() = default;

GenJob
JobStream::next()
{
    return impl_->next();
}

} // namespace perf
} // namespace qa
