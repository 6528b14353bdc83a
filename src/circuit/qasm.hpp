/**
 * @file
 * OpenQASM 2.0 importer. Parses the subset qassert's exporter emits
 * (plus common aliases), so circuits round-trip through text and
 * programs written for other toolchains can be asserted directly.
 *
 * Supported: OPENQASM header, include (ignored), one or more qreg/creg
 * declarations (flattened in declaration order), every gate of the
 * gate table (circuit/stdgates.hpp) under its name or a parse alias
 * (u1, u, U, CX, cu1), barrier, reset, and measure. A gate's qubit and
 * parameter counts are checked against its row. Parameter expressions
 * support numbers, pi, + - * / and parentheses.
 */
#ifndef QA_CIRCUIT_QASM_HPP
#define QA_CIRCUIT_QASM_HPP

#include <string>
#include <vector>

#include "circuit/circuit.hpp"

namespace qa
{

/** Source position (1-based) of a parsed QASM statement. */
struct QasmPos
{
    int line = 0;
    int col = 0;
};

/**
 * Parse an OpenQASM 2.0 program. Throws UserError with line context.
 * When `positions` is non-null it receives one QasmPos per emitted
 * instruction (parallel to circuit.instructions()), pointing at the
 * source statement that produced it — the assertion compiler uses this
 * to anchor kUnsupportedAssertion diagnostics to the submitted text.
 */
QuantumCircuit parseQasm(const std::string& source,
                         std::vector<QasmPos>* positions = nullptr);

} // namespace qa

#endif // QA_CIRCUIT_QASM_HPP
