/**
 * @file
 * The standard gates: their matrices (Qiskit u1/u2/u3 conventions),
 * helpers for building controlled variants, and the gate table, the one
 * definition of the gate vocabulary that the circuit builders,
 * parseQasm, toQasm, QuantumCircuit::inverse and the Clifford classifier
 * read.
 */
#ifndef QA_CIRCUIT_STDGATES_HPP
#define QA_CIRCUIT_STDGATES_HPP

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "circuit/instruction.hpp"

namespace qa
{
namespace gates
{

CMatrix i();
CMatrix x();
CMatrix y();
CMatrix z();
CMatrix h();
CMatrix s();
CMatrix sdg();
CMatrix t();
CMatrix tdg();
CMatrix sx();

/** Rotation about X: exp(-i theta X / 2). */
CMatrix rx(double theta);
/** Rotation about Y: exp(-i theta Y / 2). */
CMatrix ry(double theta);
/** Rotation about Z: exp(-i theta Z / 2). */
CMatrix rz(double theta);
/** Phase gate diag(1, e^{i lambda}) (Qiskit u1). */
CMatrix p(double lambda);
/** Qiskit u2(phi, lambda) = u3(pi/2, phi, lambda). */
CMatrix u2(double phi, double lambda);
/** Qiskit u3(theta, phi, lambda) general single-qubit unitary. */
CMatrix u3(double theta, double phi, double lambda);

CMatrix cx();
CMatrix cy();
CMatrix cz();
CMatrix ch();
CMatrix swap();
CMatrix ccx();
CMatrix crz(double theta);
/** Doubly controlled rz (a qassert extension, see the gate table). */
CMatrix ccrz(double theta);
CMatrix cp(double lambda);
CMatrix cu3(double theta, double phi, double lambda);

/**
 * Controlled version of an arbitrary unitary: the first `num_controls`
 * local qubits control `u` on the remaining ones
 * (|1...1><1...1| (x) u + rest (x) I).
 */
CMatrix controlled(const CMatrix& u, int num_controls = 1);

/**
 * Like controlled(), but control i is an *open* control (fires on |0>)
 * when bit i of `open_mask` is set (bit 0 = first control).
 */
CMatrix controlledOpen(const CMatrix& u, int num_controls,
                       unsigned open_mask);

} // namespace gates

/** Row index of the gate table. */
enum class GateId : uint8_t
{
    kId, kX, kY, kZ, kH, kS, kSdg, kT, kTdg, kSx,
    kRx, kRy, kRz, kP, kU2, kU3,
    kCx, kCy, kCz, kCh, kSwap, kCrz, kCp, kCu3,
    kCcx, kCcrz,
};

/** How inverse() rewrites the params (the matrix is the dagger). */
enum class InverseParams : uint8_t
{
    kKeep,   ///< unchanged (self-inverse, or s <-> sdg, t <-> tdg)
    kNegate, ///< every angle negated
    kU3Swap, ///< (theta, phi, lambda) -> (-theta, -lambda, -phi)
    kU2ToU3, ///< u2(phi, lambda) -> u3(-pi/2, -lambda, -phi)
    kNone,   ///< no named inverse: the name becomes "<name>_dg"
};

/** One standard gate. */
struct GateDef
{
    GateId id;
    std::string_view name;
    /** Other spellings parseQasm accepts; stored under `name`. */
    std::array<std::string_view, 2> aliases;
    int num_qubits;
    int num_params;
    CMatrix (*matrix)(const double* params);
    InverseParams inverse;
    GateId inverse_name; ///< the inverse's row (itself unless renamed)
};

/** Every row, in GateId order. */
std::span<const GateDef> gateTable();

const GateDef& gateDef(GateId id);

/** The row whose canonical name is `name`, or nullptr. */
const GateDef* findGate(std::string_view name);

/** Like findGate, but also accepts the rows' parse aliases. */
const GateDef* findGateOrAlias(std::string_view name);

/** A gate instruction for `def`, its matrix built from `params`. */
Instruction makeGate(const GateDef& def, std::vector<int> qubits,
                     std::vector<double> params = {});

} // namespace qa

#endif // QA_CIRCUIT_STDGATES_HPP
