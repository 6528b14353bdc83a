#include "circuit/qasm.hpp"

#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "circuit/stdgates.hpp"
#include "common/error.hpp"

namespace qa
{

namespace
{

/** Source position of a statement, rendered as "line L, col C". */
struct Loc
{
    int line = 0;
    int col = 0;

    std::string
    str() const
    {
        std::ostringstream oss;
        oss << "line " << line << ", col " << col;
        return oss.str();
    }
};

/**
 * Parse a non-negative integer token. Rejects empty, non-digit, and
 * overflowing tokens with a positioned kQasmSyntax diagnostic instead of
 * letting std::stoi throw (or worse, silently accept trailing junk like
 * "3x" and corrupt indices downstream).
 */
int
parseIndexToken(const std::string& token, const Loc& loc,
                const std::string& what)
{
    QA_REQUIRE_CODE(!token.empty(), ErrorCode::kQasmSyntax,
                    loc.str() + ": missing " + what);
    long value = 0;
    for (char c : token) {
        QA_REQUIRE_CODE(std::isdigit(static_cast<unsigned char>(c)),
                        ErrorCode::kQasmSyntax,
                        loc.str() + ": malformed " + what + " '" + token +
                            "'");
        value = value * 10 + (c - '0');
        QA_REQUIRE_CODE(value <= 1000000, ErrorCode::kQasmSyntax,
                        loc.str() + ": " + what + " '" + token +
                            "' is out of range");
    }
    return int(value);
}

/** Recursive-descent evaluator for gate-parameter expressions. */
class ExprParser
{
  public:
    ExprParser(const std::string& text, const Loc& loc)
        : text_(text), loc_(loc)
    {}

    double
    parse()
    {
        const double value = parseSum();
        skipSpace();
        QA_REQUIRE_CODE(pos_ == text_.size(), ErrorCode::kQasmSyntax,
                        loc_.str() +
                            ": trailing characters in expression: '" +
                            text_ + "'");
        return value;
    }

  private:
    double
    parseSum()
    {
        double value = parseProduct();
        for (;;) {
            skipSpace();
            if (consume('+')) {
                value += parseProduct();
            } else if (consume('-')) {
                value -= parseProduct();
            } else {
                return value;
            }
        }
    }

    double
    parseProduct()
    {
        double value = parseUnary();
        for (;;) {
            skipSpace();
            if (consume('*')) {
                value *= parseUnary();
            } else if (consume('/')) {
                const double rhs = parseUnary();
                QA_REQUIRE_CODE(rhs != 0.0, ErrorCode::kQasmSyntax,
                                loc_.str() +
                                    ": division by zero in expression");
                value /= rhs;
            } else {
                return value;
            }
        }
    }

    double
    parseUnary()
    {
        skipSpace();
        if (consume('-')) return -parseUnary();
        if (consume('+')) return parseUnary();
        return parseAtom();
    }

    double
    parseAtom()
    {
        skipSpace();
        if (consume('(')) {
            const double value = parseSum();
            skipSpace();
            QA_REQUIRE_CODE(consume(')'), ErrorCode::kQasmSyntax,
                            loc_.str() + ": missing ')' in expression");
            return value;
        }
        if (pos_ < text_.size() &&
            (std::isalpha(static_cast<unsigned char>(text_[pos_])))) {
            std::string name;
            while (pos_ < text_.size() &&
                   std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
                name.push_back(text_[pos_++]);
            }
            QA_REQUIRE_CODE(name == "pi", ErrorCode::kQasmSyntax,
                            loc_.str() + ": unknown identifier '" + name +
                                "' in expression");
            return M_PI;
        }
        size_t digits = 0;
        double value = 0.0;
        try {
            value = std::stod(text_.substr(pos_), &digits);
        } catch (const std::exception&) {
            QA_FAIL_CODE(ErrorCode::kQasmSyntax,
                         loc_.str() + ": expected number in expression '" +
                             text_ + "' at offset " + std::to_string(pos_));
        }
        QA_REQUIRE_CODE(digits > 0, ErrorCode::kQasmSyntax,
                        loc_.str() + ": expected number in expression");
        pos_ += digits;
        return value;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    const std::string& text_;
    Loc loc_;
    size_t pos_ = 0;
};

/** A named register with its flattened base offset. */
struct Register
{
    int base = 0;
    int size = 0;
};

/** One parsed statement with its source position. */
struct Statement
{
    std::string text;
    Loc loc;
};

/** Strip // comments and split on ';', tracking line/column. */
std::vector<Statement>
tokenizeStatements(const std::string& source)
{
    std::vector<Statement> statements;
    std::string current;
    int line = 1, col = 1;
    Loc statement_loc{1, 1};
    for (size_t i = 0; i < source.size(); ++i, ++col) {
        if (source[i] == '/' && i + 1 < source.size() &&
            source[i + 1] == '/') {
            while (i < source.size() && source[i] != '\n') ++i;
            ++line;
            col = 0;
            continue;
        }
        if (source[i] == '\n') {
            ++line;
            col = 0;
            if (current.empty()) {
                // Next statement starts on the new line at the earliest.
                statement_loc = {line, 1};
            } else {
                current.push_back(' ');
            }
            continue;
        }
        if (source[i] == ';') {
            statements.push_back({current, statement_loc});
            current.clear();
            statement_loc = {line, col + 1};
            continue;
        }
        if (current.empty() &&
            std::isspace(static_cast<unsigned char>(source[i]))) {
            statement_loc = {line, col + 1};
            continue;
        }
        current.push_back(source[i]);
    }
    // Trailing non-statement text must be whitespace.
    for (char c : current) {
        QA_REQUIRE_CODE(std::isspace(static_cast<unsigned char>(c)),
                        ErrorCode::kQasmSyntax,
                        statement_loc.str() +
                            ": unterminated statement at end of input");
    }
    return statements;
}

std::string
trim(const std::string& s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
        --e;
    }
    return s.substr(b, e - b);
}

/** Split "a, b, c" at top level (no nested commas in qasm operands). */
std::vector<std::string>
splitCommas(const std::string& s)
{
    std::vector<std::string> parts;
    std::string current;
    int depth = 0;
    for (char c : s) {
        if (c == '(') ++depth;
        if (c == ')') --depth;
        if (c == ',' && depth == 0) {
            parts.push_back(trim(current));
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    if (!trim(current).empty()) parts.push_back(trim(current));
    return parts;
}

} // namespace

QuantumCircuit
parseQasm(const std::string& source, std::vector<QasmPos>* positions)
{
    if (positions != nullptr) positions->clear();
    const std::vector<Statement> statements = tokenizeStatements(source);

    // First pass: collect register declarations to size the circuit.
    std::map<std::string, Register> qregs, cregs;
    int total_qubits = 0, total_clbits = 0;
    auto parseDecl = [](const std::string& body, const Loc& loc,
                        std::string* name, int* size) {
        // body: "name[size]".
        const size_t lb = body.find('[');
        const size_t rb = body.find(']');
        QA_REQUIRE_CODE(lb != std::string::npos &&
                            rb != std::string::npos && rb > lb,
                        ErrorCode::kQasmSyntax,
                        loc.str() + ": malformed register declaration: " +
                            body);
        *name = trim(body.substr(0, lb));
        QA_REQUIRE_CODE(!name->empty(), ErrorCode::kQasmSyntax,
                        loc.str() + ": register declaration needs a name");
        *size = parseIndexToken(trim(body.substr(lb + 1, rb - lb - 1)),
                                loc, "register size");
        QA_REQUIRE_CODE(*size > 0, ErrorCode::kQasmSyntax,
                        loc.str() + ": register size must be positive");
    };
    for (const Statement& st : statements) {
        const std::string text = trim(st.text);
        if (text.rfind("qreg", 0) == 0) {
            std::string name;
            int size = 0;
            parseDecl(trim(text.substr(4)), st.loc, &name, &size);
            QA_REQUIRE_CODE(!qregs.count(name), ErrorCode::kQasmSyntax,
                            st.loc.str() + ": duplicate qreg " + name);
            qregs[name] = {total_qubits, size};
            total_qubits += size;
        } else if (text.rfind("creg", 0) == 0) {
            std::string name;
            int size = 0;
            parseDecl(trim(text.substr(4)), st.loc, &name, &size);
            QA_REQUIRE_CODE(!cregs.count(name), ErrorCode::kQasmSyntax,
                            st.loc.str() + ": duplicate creg " + name);
            cregs[name] = {total_clbits, size};
            total_clbits += size;
        }
    }
    QA_REQUIRE_CODE(total_qubits > 0, ErrorCode::kQasmSyntax,
                    "QASM program declares no qubits");
    QuantumCircuit circuit(total_qubits, total_clbits);

    auto resolve = [](const std::map<std::string, Register>& regs,
                      const std::string& operand, const Loc& loc,
                      const char* reg_kind) {
        const size_t lb = operand.find('[');
        const size_t rb = operand.find(']');
        QA_REQUIRE_CODE(lb != std::string::npos && rb != std::string::npos &&
                            rb > lb && rb == operand.size() - 1,
                        ErrorCode::kQasmSyntax,
                        loc.str() +
                            ": register-wide or malformed operand '" +
                            operand + "' (expected name[index])");
        const std::string name = trim(operand.substr(0, lb));
        const int index = parseIndexToken(
            trim(operand.substr(lb + 1, rb - lb - 1)), loc,
            std::string(reg_kind) + " index");
        auto it = regs.find(name);
        QA_REQUIRE_CODE(it != regs.end(), ErrorCode::kQasmSyntax,
                        loc.str() + ": unknown " + reg_kind + " register " +
                            name);
        QA_REQUIRE_CODE(
            index >= 0 && index < it->second.size, ErrorCode::kQasmSyntax,
            loc.str() + ": index " + std::to_string(index) +
                " out of range for " + name + "[" +
                std::to_string(it->second.size) + "]");
        return it->second.base + index;
    };

    QasmPos last_pos{1, 1};
    for (const Statement& st : statements) {
        // Instructions appended while handling the previous statement
        // carry its position (a statement may use `continue` below, so
        // the sync happens at the top of the next iteration).
        if (positions != nullptr) {
            positions->resize(circuit.size(), last_pos);
        }
        last_pos = QasmPos{st.loc.line, st.loc.col};
        const std::string text = trim(st.text);
        if (text.empty()) continue;
        if (text.rfind("OPENQASM", 0) == 0 ||
            text.rfind("include", 0) == 0 || text.rfind("qreg", 0) == 0 ||
            text.rfind("creg", 0) == 0) {
            continue;
        }
        if (text.rfind("barrier", 0) == 0) {
            circuit.barrier();
            continue;
        }
        if (text.rfind("measure", 0) == 0) {
            const size_t arrow = text.find("->");
            QA_REQUIRE_CODE(arrow != std::string::npos,
                            ErrorCode::kQasmSyntax,
                            st.loc.str() + ": measure needs '->'");
            const int q = resolve(qregs, trim(text.substr(7, arrow - 7)),
                                  st.loc, "qubit");
            const int c = resolve(cregs, trim(text.substr(arrow + 2)),
                                  st.loc, "clbit");
            circuit.measure(q, c);
            continue;
        }
        if (text.rfind("reset", 0) == 0) {
            circuit.reset(
                resolve(qregs, trim(text.substr(5)), st.loc, "qubit"));
            continue;
        }

        // Gate statement: name[(params)] operand{, operand}.
        size_t head_end = 0;
        while (head_end < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[head_end])) ||
                text[head_end] == '_')) {
            ++head_end;
        }
        const std::string name = text.substr(0, head_end);
        QA_REQUIRE_CODE(!name.empty(), ErrorCode::kQasmSyntax,
                        st.loc.str() + ": expected a gate name, found '" +
                            text + "'");
        std::string rest = trim(text.substr(head_end));

        std::vector<double> params;
        if (!rest.empty() && rest[0] == '(') {
            int depth = 0;
            size_t close = 0;
            for (size_t i = 0; i < rest.size(); ++i) {
                if (rest[i] == '(') ++depth;
                if (rest[i] == ')') {
                    --depth;
                    if (depth == 0) {
                        close = i;
                        break;
                    }
                }
            }
            QA_REQUIRE_CODE(close > 0, ErrorCode::kQasmSyntax,
                            st.loc.str() + ": unbalanced parameter list");
            for (const std::string& expr :
                 splitCommas(rest.substr(1, close - 1))) {
                params.push_back(ExprParser(expr, st.loc).parse());
            }
            rest = trim(rest.substr(close + 1));
        }
        std::vector<int> qubits;
        for (const std::string& operand : splitCommas(rest)) {
            qubits.push_back(resolve(qregs, operand, st.loc, "qubit"));
        }
        std::set<int> distinct(qubits.begin(), qubits.end());
        QA_REQUIRE_CODE(distinct.size() == qubits.size(),
                        ErrorCode::kQasmSyntax,
                        st.loc.str() + ": " + name +
                            " names the same qubit twice");

        const GateDef* def = findGateOrAlias(name);
        QA_REQUIRE_CODE(def != nullptr, ErrorCode::kQasmSyntax,
                        st.loc.str() + ": unsupported gate '" + name + "'");
        auto expect = [&](size_t got, int want, const char* what) {
            QA_REQUIRE_CODE(got == size_t(want), ErrorCode::kQasmSyntax,
                            st.loc.str() + ": " + name + " expects " +
                                std::to_string(want) + " " + what +
                                ", got " + std::to_string(got));
        };
        expect(qubits.size(), def->num_qubits, "qubits");
        expect(params.size(), def->num_params, "parameters");
        circuit.append(makeGate(*def, std::move(qubits), std::move(params)));
    }
    if (positions != nullptr) positions->resize(circuit.size(), last_pos);
    return circuit;
}

} // namespace qa
