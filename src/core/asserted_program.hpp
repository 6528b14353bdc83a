/**
 * @file
 * AssertedProgram: the user-facing assertion API, mirroring the paper's
 *   assert(circuit, qubitList, stateSet, design)
 * call (Sec. VII). A program circuit is extended in place; each
 * assertState() call widens the register with the ancillas its design
 * needs, appends the assertion circuit, and records the slot metadata
 * (design used, measured classical bits, circuit cost). `design = kAuto`
 * reproduces the paper's design = NONE behaviour: build all three
 * designs on the slot's own layout and insert the one with the fewest
 * CX gates (then single-qubit gates).
 */
#ifndef QA_CORE_ASSERTED_PROGRAM_HPP
#define QA_CORE_ASSERTED_PROGRAM_HPP

#include <functional>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/builders.hpp"
#include "core/state_set.hpp"
#include "transpile/peephole.hpp"

namespace qa
{

/** A quantum program with runtime assertions inserted. */
class AssertedProgram
{
  public:
    /** Metadata of one inserted assertion. */
    struct Slot
    {
        AssertionDesign design;       ///< Resolved design (never kAuto).
        std::vector<int> qubits;      ///< Qubits under test.
        std::vector<int> ancillas;    ///< Ancillas allocated for the slot.
        std::vector<int> clbits;      ///< Classical bits holding outcomes.
        CircuitCost cost;             ///< Cost of the assertion fragment.
    };

    /** Wrap a (measurement-free) program circuit. */
    explicit AssertedProgram(const QuantumCircuit& program);

    /** Append more program gates (same width as the original program). */
    void append(const QuantumCircuit& fragment);

    /**
     * Insert an assertion that the listed program qubits are in (resp.
     * within) `set`. Returns the slot index.
     */
    int assertState(const std::vector<int>& qubits, const StateSet& set,
                    AssertionDesign design = AssertionDesign::kAuto,
                    SwapPlacement placement =
                        SwapPlacement::kInvBeforePrepAfter);

    /**
     * Insert a custom assertion fragment (used by the baseline schemes):
     * `builder` receives the allocated context and must return a
     * fragment of matching width whose measured clbits use the |0> =
     * pass convention. Returns the slot index.
     */
    int addCustomAssertion(
        int num_ancillas, int num_clbits,
        const std::function<QuantumCircuit(const BuildContext&)>& builder);

    /** Measure every program qubit into a fresh classical bit. */
    void measureProgram();

    /** The full circuit built so far (program + assertions). */
    const QuantumCircuit& circuit() const { return circ_; }

    int numProgramQubits() const { return program_qubits_; }
    const std::vector<Slot>& slots() const { return slots_; }

    /** Classical bits holding the program's own measurements. */
    const std::vector<int>& programClbits() const { return program_clbits_; }

    /** All classical bits belonging to assertion slots. */
    std::vector<int> assertionClbits() const;

  private:
    void widen(int extra_qubits, int extra_clbits);

    /**
     * The layout the next slot is built on: `qubits` under test, the
     * ancillas the pool hands out next (recycled ones first, then fresh
     * wires), the next classical bits, and the untested program qubits
     * as borrowable. Costing and inserting both use it.
     */
    BuildContext slotLayout(const std::vector<int>& qubits,
                            const AssertionPlan& plan) const;

    /** Insert `frag`, built on slotLayout()'s `ctx`, and record it. */
    int insert(AssertionDesign design, const BuildContext& ctx,
               const QuantumCircuit& frag);

    int program_qubits_;
    QuantumCircuit circ_;
    std::vector<Slot> slots_;
    std::vector<int> program_clbits_;
    std::vector<int> ancilla_pool_;
};

/**
 * The cost of asserting `set` with the given design on a bare program
 * of the set's width, every qubit under test (used by the cost tables).
 */
CircuitCost estimateAssertionCost(
    const StateSet& set, AssertionDesign design,
    SwapPlacement placement = SwapPlacement::kInvBeforePrepAfter);

} // namespace qa

#endif // QA_CORE_ASSERTED_PROGRAM_HPP
