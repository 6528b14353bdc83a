#include "core/asserted_program.hpp"

#include "common/error.hpp"

namespace qa
{

namespace
{

/** Cost a design against a hypothetical standalone layout. */
CircuitCost
costDesign(const CorrectSubspace& subspace, AssertionDesign design,
           SwapPlacement placement, const std::vector<int>& free_qubits,
           int base_qubits)
{
    const AssertionPlan plan = planAssertion(subspace, design, placement);
    BuildContext ctx;
    ctx.total_qubits = base_qubits + plan.num_ancillas;
    ctx.total_clbits = plan.num_clbits;
    for (int q = 0; q < subspace.n; ++q) ctx.qubits.push_back(q);
    for (int a = 0; a < plan.num_ancillas; ++a) {
        ctx.ancillas.push_back(base_qubits + a);
    }
    for (int c = 0; c < plan.num_clbits; ++c) ctx.clbits.push_back(c);
    ctx.free_qubits = free_qubits;

    const QuantumCircuit frag =
        buildAssertion(subspace, design, placement, ctx);
    CircuitCost cost = circuitCost(frag);
    cost.ancilla = plan.num_ancillas;
    return cost;
}

} // namespace

AssertedProgram::AssertedProgram(const QuantumCircuit& program)
    : program_qubits_(program.numQubits()), circ_(program)
{
    QA_REQUIRE(program.countMeasure() == 0,
               "assertions must be inserted before final measurement");
}

void
AssertedProgram::append(const QuantumCircuit& fragment)
{
    QA_REQUIRE(fragment.numQubits() <= circ_.numQubits(),
               "fragment wider than the program");
    std::vector<int> ident;
    for (int q = 0; q < fragment.numQubits(); ++q) ident.push_back(q);
    circ_.compose(fragment, ident);
}

void
AssertedProgram::widen(int extra_qubits, int extra_clbits)
{
    if (extra_qubits == 0 && extra_clbits == 0) return;
    QuantumCircuit wider(circ_.numQubits() + extra_qubits,
                         circ_.numClbits() + extra_clbits);
    std::vector<int> qmap, cmap;
    for (int q = 0; q < circ_.numQubits(); ++q) qmap.push_back(q);
    for (int c = 0; c < circ_.numClbits(); ++c) cmap.push_back(c);
    wider.compose(circ_, qmap, cmap);
    circ_ = std::move(wider);
}

int
AssertedProgram::assertState(const std::vector<int>& qubits,
                             const StateSet& set, AssertionDesign design,
                             SwapPlacement placement)
{
    QA_REQUIRE(int(qubits.size()) == set.numQubits(),
               "qubit list does not match the state size");
    for (int q : qubits) {
        QA_REQUIRE(q >= 0 && q < program_qubits_,
                   "assertions apply to program qubits");
    }
    const CorrectSubspace subspace = analyzeStateSet(set);

    // Program qubits not under test may serve as dirty ancillas.
    std::vector<int> free_qubits;
    for (int q = 0; q < program_qubits_; ++q) {
        bool tested = false;
        for (int t : qubits) tested |= (t == q);
        if (!tested) free_qubits.push_back(q);
    }

    AssertionDesign resolved = design;
    if (design == AssertionDesign::kAuto) {
        // The paper's design = NONE: pick the least CX count.
        const AssertionDesign candidates[] = {AssertionDesign::kSwap,
                                              AssertionDesign::kOr,
                                              AssertionDesign::kNdd};
        int best_cx = -1, best_sg = -1;
        for (AssertionDesign cand : candidates) {
            const CircuitCost cost = costDesign(
                subspace, cand, placement, free_qubits, program_qubits_);
            const bool better =
                best_cx < 0 || cost.cx < best_cx ||
                (cost.cx == best_cx && cost.sg < best_sg);
            if (better) {
                best_cx = cost.cx;
                best_sg = cost.sg;
                resolved = cand;
            }
        }
    }

    const AssertionPlan plan = planAssertion(subspace, resolved, placement);
    const int first_clbit = circ_.numClbits();
    widen(0, plan.num_clbits);

    BuildContext ctx;
    ctx.qubits = qubits;
    ctx.ancillas = acquireAncillas(plan.num_ancillas);
    ctx.total_qubits = circ_.numQubits();
    ctx.total_clbits = circ_.numClbits();
    for (int c = 0; c < plan.num_clbits; ++c) {
        ctx.clbits.push_back(first_clbit + c);
    }
    ctx.free_qubits = free_qubits;

    const QuantumCircuit frag =
        buildAssertion(subspace, resolved, placement, ctx);

    std::vector<int> qmap, cmap;
    for (int q = 0; q < circ_.numQubits(); ++q) qmap.push_back(q);
    for (int c = 0; c < circ_.numClbits(); ++c) cmap.push_back(c);
    circ_.compose(frag, qmap, cmap);
    releaseAncillas(ctx.ancillas);

    Slot slot;
    slot.design = resolved;
    slot.qubits = qubits;
    slot.ancillas = ctx.ancillas;
    slot.clbits = ctx.clbits;
    slot.cost = circuitCost(frag);
    slot.cost.ancilla = plan.num_ancillas;
    slots_.push_back(std::move(slot));
    return int(slots_.size()) - 1;
}

std::vector<int>
AssertedProgram::acquireAncillas(int count)
{
    std::vector<int> out;
    while (int(out.size()) < count && !ancilla_pool_.empty()) {
        out.push_back(ancilla_pool_.back());
        ancilla_pool_.pop_back();
    }
    const int missing = count - int(out.size());
    if (missing > 0) {
        const int first = circ_.numQubits();
        widen(missing, 0);
        for (int a = 0; a < missing; ++a) out.push_back(first + a);
    }
    return out;
}

void
AssertedProgram::releaseAncillas(const std::vector<int>& ancillas)
{
    // Reset before recycling: measured ancillas hold classical junk and
    // the kLarge embedding ancilla may hold residue on error branches.
    for (int a : ancillas) {
        circ_.reset(a);
        ancilla_pool_.push_back(a);
    }
}

void
AssertedProgram::measureProgram()
{
    const int first_clbit = circ_.numClbits();
    widen(0, program_qubits_);
    program_clbits_.clear();
    for (int q = 0; q < program_qubits_; ++q) {
        circ_.measure(q, first_clbit + q);
        program_clbits_.push_back(first_clbit + q);
    }
}

int
AssertedProgram::addCustomAssertion(
    int num_ancillas, int num_clbits,
    const std::function<QuantumCircuit(const BuildContext&)>& builder)
{
    const int first_clbit = circ_.numClbits();
    widen(0, num_clbits);

    BuildContext ctx;
    ctx.ancillas = acquireAncillas(num_ancillas);
    ctx.total_qubits = circ_.numQubits();
    ctx.total_clbits = circ_.numClbits();
    for (int c = 0; c < num_clbits; ++c) {
        ctx.clbits.push_back(first_clbit + c);
    }

    const QuantumCircuit frag = builder(ctx);
    QA_REQUIRE(frag.numQubits() == circ_.numQubits() &&
                   frag.numClbits() == circ_.numClbits(),
               "custom fragment width mismatch");
    std::vector<int> qmap, cmap;
    for (int q = 0; q < circ_.numQubits(); ++q) qmap.push_back(q);
    for (int c = 0; c < circ_.numClbits(); ++c) cmap.push_back(c);
    circ_.compose(frag, qmap, cmap);
    releaseAncillas(ctx.ancillas);

    Slot slot;
    slot.design = AssertionDesign::kCustom;
    slot.ancillas = ctx.ancillas;
    slot.clbits = ctx.clbits;
    slot.cost = circuitCost(frag);
    slot.cost.ancilla = num_ancillas;
    slots_.push_back(std::move(slot));
    return int(slots_.size()) - 1;
}

std::vector<int>
AssertedProgram::assertionClbits() const
{
    std::vector<int> out;
    for (const Slot& slot : slots_) {
        out.insert(out.end(), slot.clbits.begin(), slot.clbits.end());
    }
    return out;
}

CircuitCost
estimateAssertionCost(const StateSet& set, AssertionDesign design,
                      SwapPlacement placement)
{
    QA_REQUIRE(design != AssertionDesign::kAuto,
               "estimate a concrete design");
    const CorrectSubspace subspace = analyzeStateSet(set);
    return costDesign(subspace, design, placement, {}, subspace.n);
}

} // namespace qa
