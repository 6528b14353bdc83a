#include "circuit/stdgates.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "linalg/states.hpp"

namespace qa
{
namespace gates
{

namespace
{
const double kSqrt2Inv = 1.0 / std::sqrt(2.0);

Complex
expi(double phi)
{
    return Complex(std::cos(phi), std::sin(phi));
}
} // namespace

CMatrix i() { return CMatrix::identity(2); }

CMatrix
x()
{
    return CMatrix{{0, 1}, {1, 0}};
}

CMatrix
y()
{
    return CMatrix{{0, -kI}, {kI, 0}};
}

CMatrix
z()
{
    return CMatrix{{1, 0}, {0, -1}};
}

CMatrix
h()
{
    return CMatrix{{kSqrt2Inv, kSqrt2Inv}, {kSqrt2Inv, -kSqrt2Inv}};
}

CMatrix
s()
{
    return CMatrix{{1, 0}, {0, kI}};
}

CMatrix
sdg()
{
    return CMatrix{{1, 0}, {0, -kI}};
}

CMatrix
t()
{
    return CMatrix{{1, 0}, {0, expi(M_PI / 4)}};
}

CMatrix
tdg()
{
    return CMatrix{{1, 0}, {0, expi(-M_PI / 4)}};
}

CMatrix
sx()
{
    return CMatrix{{Complex(0.5, 0.5), Complex(0.5, -0.5)},
                   {Complex(0.5, -0.5), Complex(0.5, 0.5)}};
}

CMatrix
rx(double theta)
{
    double c = std::cos(theta / 2), s_ = std::sin(theta / 2);
    return CMatrix{{c, -kI * s_}, {-kI * s_, c}};
}

CMatrix
ry(double theta)
{
    double c = std::cos(theta / 2), s_ = std::sin(theta / 2);
    return CMatrix{{c, -s_}, {s_, c}};
}

CMatrix
rz(double theta)
{
    return CMatrix{{expi(-theta / 2), 0}, {0, expi(theta / 2)}};
}

CMatrix
p(double lambda)
{
    return CMatrix{{1, 0}, {0, expi(lambda)}};
}

CMatrix
u2(double phi, double lambda)
{
    return u3(M_PI / 2, phi, lambda);
}

CMatrix
u3(double theta, double phi, double lambda)
{
    double c = std::cos(theta / 2), s_ = std::sin(theta / 2);
    return CMatrix{{c, -expi(lambda) * s_},
                   {expi(phi) * s_, expi(phi + lambda) * c}};
}

CMatrix cx() { return controlled(x()); }
CMatrix cy() { return controlled(y()); }
CMatrix cz() { return controlled(z()); }
CMatrix ch() { return controlled(h()); }

CMatrix
swap()
{
    return CMatrix{{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}};
}

CMatrix ccx() { return controlled(x(), 2); }
CMatrix crz(double theta) { return controlled(rz(theta)); }
CMatrix ccrz(double theta) { return controlled(rz(theta), 2); }
CMatrix cp(double lambda) { return controlled(p(lambda)); }

CMatrix
cu3(double theta, double phi, double lambda)
{
    return controlled(u3(theta, phi, lambda));
}

CMatrix
controlled(const CMatrix& u, int num_controls)
{
    return controlledOpen(u, num_controls, 0u);
}

CMatrix
controlledOpen(const CMatrix& u, int num_controls, unsigned open_mask)
{
    QA_REQUIRE(u.rows() == u.cols(), "controlled() needs a square matrix");
    QA_REQUIRE(num_controls >= 1, "need at least one control");
    const size_t udim = u.rows();
    const size_t cdim = size_t(1) << num_controls;
    const size_t dim = cdim * udim;

    // The control pattern that activates u: closed controls need 1, open
    // controls need 0. Control i is local qubit i, i.e. bit
    // (num_controls - 1 - i) of the control-subspace index.
    size_t active = 0;
    for (int i = 0; i < num_controls; ++i) {
        bool open = (open_mask >> i) & 1u;
        if (!open) active |= size_t(1) << (num_controls - 1 - i);
    }

    CMatrix out = CMatrix::identity(dim);
    for (size_t r = 0; r < udim; ++r) {
        for (size_t c = 0; c < udim; ++c) {
            out(active * udim + r, active * udim + c) = u(r, c);
        }
    }
    return out;
}

} // namespace gates

namespace
{

template <CMatrix (*F)()>
CMatrix
fix(const double*)
{
    return F();
}

template <CMatrix (*F)(double)>
CMatrix
rot(const double* p)
{
    return F(p[0]);
}

CMatrix u2Matrix(const double* p) { return gates::u2(p[0], p[1]); }
CMatrix u3Matrix(const double* p) { return gates::u3(p[0], p[1], p[2]); }
CMatrix cu3Matrix(const double* p) { return gates::cu3(p[0], p[1], p[2]); }

using enum GateId;
using enum InverseParams;

// "ccrz" is a qassert extension (the adder programs emit it); the
// importer accepts it back, other toolchains need a gate definition.
// Columns: id, name, aliases, qubits, params, matrix, inverse,
// inverse_name. A parameterless row's Clifford action is recognized
// from its matrix once (stab/clifford.cpp), so no column records it.
constexpr GateDef kGates[] = {
    {kId,   "id",   {},         1, 0, fix<gates::i>,    kKeep,   kId},
    {kX,    "x",    {},         1, 0, fix<gates::x>,    kKeep,   kX},
    {kY,    "y",    {},         1, 0, fix<gates::y>,    kKeep,   kY},
    {kZ,    "z",    {},         1, 0, fix<gates::z>,    kKeep,   kZ},
    {kH,    "h",    {},         1, 0, fix<gates::h>,    kKeep,   kH},
    {kS,    "s",    {},         1, 0, fix<gates::s>,    kKeep,   kSdg},
    {kSdg,  "sdg",  {},         1, 0, fix<gates::sdg>,  kKeep,   kS},
    {kT,    "t",    {},         1, 0, fix<gates::t>,    kKeep,   kTdg},
    {kTdg,  "tdg",  {},         1, 0, fix<gates::tdg>,  kKeep,   kT},
    {kSx,   "sx",   {},         1, 0, fix<gates::sx>,   kNone,   kSx},
    {kRx,   "rx",   {},         1, 1, rot<gates::rx>,   kNegate, kRx},
    {kRy,   "ry",   {},         1, 1, rot<gates::ry>,   kNegate, kRy},
    {kRz,   "rz",   {},         1, 1, rot<gates::rz>,   kNegate, kRz},
    {kP,    "p",    {"u1"},     1, 1, rot<gates::p>,    kNegate, kP},
    {kU2,   "u2",   {},         1, 2, u2Matrix,         kU2ToU3, kU3},
    {kU3,   "u3",   {"u", "U"}, 1, 3, u3Matrix,         kU3Swap, kU3},
    {kCx,   "cx",   {"CX"},     2, 0, fix<gates::cx>,   kKeep,   kCx},
    {kCy,   "cy",   {},         2, 0, fix<gates::cy>,   kKeep,   kCy},
    {kCz,   "cz",   {},         2, 0, fix<gates::cz>,   kKeep,   kCz},
    {kCh,   "ch",   {},         2, 0, fix<gates::ch>,   kKeep,   kCh},
    {kSwap, "swap", {},         2, 0, fix<gates::swap>, kKeep,   kSwap},
    {kCrz,  "crz",  {},         2, 1, rot<gates::crz>,  kNegate, kCrz},
    {kCp,   "cp",   {"cu1"},    2, 1, rot<gates::cp>,   kNegate, kCp},
    {kCu3,  "cu3",  {},         2, 3, cu3Matrix,        kU3Swap, kCu3},
    {kCcx,  "ccx",  {},         3, 0, fix<gates::ccx>,  kKeep,   kCcx},
    {kCcrz, "ccrz", {},         3, 1, rot<gates::ccrz>, kNegate, kCcrz},
};

static_assert([] {
    for (size_t i = 0; i < std::size(kGates); ++i) {
        if (size_t(kGates[i].id) != i) return false;
    }
    return true;
}(), "kGates rows must follow GateId order");

/** A name of up to 7 bytes packed with its length (0: any other). */
constexpr uint64_t
nameKey(std::string_view name)
{
    if (name.size() > 7) return 0;
    uint64_t key = name.size();
    for (char c : name) key = key << 8 | uint8_t(c);
    return key;
}

/** kGates' name keys: a lookup compares integers, not strings. */
constexpr auto kNameKeys = [] {
    std::array<uint64_t, std::size(kGates)> keys{};
    for (size_t i = 0; i < keys.size(); ++i) {
        keys[i] = nameKey(kGates[i].name);
    }
    return keys;
}();

} // namespace

std::span<const GateDef>
gateTable()
{
    return kGates;
}

const GateDef&
gateDef(GateId id)
{
    return kGates[size_t(id)];
}

const GateDef*
findGate(std::string_view name)
{
    const uint64_t key = nameKey(name);
    for (size_t i = 0; i < kNameKeys.size(); ++i) {
        if (kNameKeys[i] == key) return &kGates[i];
    }
    return nullptr;
}

const GateDef*
findGateOrAlias(std::string_view name)
{
    if (const GateDef* def = findGate(name)) return def;
    for (const GateDef& row : kGates) {
        for (std::string_view alias : row.aliases) {
            if (!alias.empty() && alias == name) return &row;
        }
    }
    return nullptr;
}

Instruction
makeGate(const GateDef& def, std::vector<int> qubits,
         std::vector<double> params)
{
    QA_REQUIRE(params.size() == size_t(def.num_params),
               std::string(def.name) + " takes " +
                   std::to_string(def.num_params) + " parameters");
    CMatrix matrix = def.matrix(params.data());
    return Instruction{OpType::kGate, std::string(def.name),
                       std::move(qubits), std::move(params),
                       std::move(matrix)};
}

} // namespace qa
