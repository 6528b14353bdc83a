#include "core/asserted_program.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/error.hpp"

namespace qa
{

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

BuildContext
AssertedProgram::slotLayout(const std::vector<int>& qubits,
                            const AssertionPlan& plan) const
{
    const size_t recycled =
        std::min(size_t(plan.num_ancillas), ancilla_pool_.size());
    std::vector<int> ancillas(ancilla_pool_.rbegin(),
                              ancilla_pool_.rbegin() + recycled);
    for (int q = circ_.numQubits(); int(ancillas.size()) < plan.num_ancillas;
         ++q) {
        ancillas.push_back(q);
    }
    std::vector<int> clbits(plan.num_clbits);
    std::iota(clbits.begin(), clbits.end(), circ_.numClbits());
    return slotContext(
        circ_.numQubits() + plan.num_ancillas - int(recycled),
        circ_.numClbits() + plan.num_clbits, program_qubits_, qubits,
        std::move(ancillas), std::move(clbits));
}

int
AssertedProgram::insert(AssertionDesign design, const BuildContext& ctx,
                        const QuantumCircuit& frag)
{
    const size_t recycled =
        std::min(ctx.ancillas.size(), ancilla_pool_.size());
    ancilla_pool_.resize(ancilla_pool_.size() - recycled);
    widen(int(ctx.ancillas.size() - recycled), int(ctx.clbits.size()));
    QA_REQUIRE(frag.numQubits() == circ_.numQubits() &&
                   frag.numClbits() == circ_.numClbits(),
               "assertion fragment width mismatch");

    std::vector<int> qmap, cmap;
    for (int q = 0; q < circ_.numQubits(); ++q) qmap.push_back(q);
    for (int c = 0; c < circ_.numClbits(); ++c) cmap.push_back(c);
    circ_.compose(frag, qmap, cmap);
    // Reset before recycling: measured ancillas hold classical junk and
    // the kLarge embedding ancilla may hold residue on error branches.
    for (int a : ctx.ancillas) {
        circ_.reset(a);
        ancilla_pool_.push_back(a);
    }

    Slot slot;
    slot.design = design;
    slot.qubits = ctx.qubits;
    slot.ancillas = ctx.ancillas;
    slot.clbits = ctx.clbits;
    slot.cost = circuitCost(frag);
    slot.cost.ancilla = int(ctx.ancillas.size());
    slots_.push_back(std::move(slot));
    return int(slots_.size()) - 1;
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
    auto build = [&](AssertionDesign d, BuildContext* ctx) {
        *ctx = slotLayout(qubits, planAssertion(subspace, d));
        return buildAssertion(subspace, d, placement, *ctx);
    };

    if (design != AssertionDesign::kAuto) {
        BuildContext ctx;
        const QuantumCircuit frag = build(design, &ctx);
        return insert(design, ctx, frag);
    }
    // The paper's design = NONE: insert the least CX count (then the
    // fewest single-qubit gates), each candidate costed on the layout it
    // would be inserted on.
    AssertionDesign best = AssertionDesign::kAuto;
    std::optional<QuantumCircuit> best_frag;
    BuildContext best_ctx;
    CircuitCost best_cost;
    for (AssertionDesign cand : {AssertionDesign::kSwap, AssertionDesign::kOr,
                                 AssertionDesign::kNdd}) {
        BuildContext ctx;
        QuantumCircuit frag = build(cand, &ctx);
        const CircuitCost cost = circuitCost(frag);
        if (!best_frag || cost.cx < best_cost.cx ||
            (cost.cx == best_cost.cx && cost.sg < best_cost.sg)) {
            best = cand;
            best_frag = std::move(frag);
            best_ctx = std::move(ctx);
            best_cost = cost;
        }
    }
    return insert(best, best_ctx, *best_frag);
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
    // A custom fragment names no qubits under test, so it borrows none.
    BuildContext ctx = slotLayout({}, {num_ancillas, num_clbits});
    ctx.free_qubits.clear();
    return insert(AssertionDesign::kCustom, ctx, builder(ctx));
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
    // The cost of inserting the assertion into a bare program of the
    // set's width, on every one of its qubits.
    AssertedProgram bare{QuantumCircuit(set.numQubits())};
    std::vector<int> qubits(set.numQubits());
    std::iota(qubits.begin(), qubits.end(), 0);
    return bare.slots()[bare.assertState(qubits, set, design, placement)]
        .cost;
}

} // namespace qa
