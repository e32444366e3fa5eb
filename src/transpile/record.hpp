/**
 * @file
 * Transpile records: what one transpile did with the logical angles, so
 * that a circuit of the same structure transpiles by replaying that
 * arithmetic instead of running the passes.
 *
 * A recording run (mapCircuit with a record, src/geyser/pipeline) keeps
 * a CircuitRecorder next to every circuit the passes build: for each
 * gate, the value id of its U3 angles, or kConst when they depend on no
 * logical angle (lowered H and swap gates, products of them, CZs). The
 * record holds, in the order the passes made them:
 *
 *  - every angle-dependent value: the lowering formulas (u3FromGate,
 *    CP's +-lambda/2, the RZZ/RXX/RYY angle), each fusion product in
 *    the pass's left-multiply order, and each u3FromMatrix
 *    resynthesis, whose unitarity check would throw;
 *  - every angle-dependent test whose outcome shaped the output or
 *    throws: fusion's identity test (for a lone gate, behind its
 *    |sin(theta/2)| > 1e-8 pre-test), the finite-angle check, and CZ
 *    cancellation's diagonal test, in every routing candidate, not only
 *    the winner.
 *
 * Routing reads no angle, so a routed circuit's ids are gathered from
 * the circuit it routed. Equal computations on equal operands are
 * recorded once.
 *
 * replay() evaluates the same functions in the same order on another
 * circuit's angles, so each value is bit-identical to the one its
 * transpile computes. When every test comes out as recorded, every
 * structural decision (which gates fuse, drop and cancel, hence each
 * candidate's pulse count and the winner) did too, and the output is
 * the recorded circuit holding the replayed angles. Branches inside
 * u3FromMatrix and Matrix2::operator* need no entry: the replay runs
 * them on the member's values as the transpile does.
 */
#ifndef GEYSER_TRANSPILE_RECORD_HPP
#define GEYSER_TRANSPILE_RECORD_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.hpp"

namespace geyser {

/** The record of one transpile's angle arithmetic (file comment). */
class TranspileRecord
{
  public:
    /** Value id of angles that depend on no logical angle. */
    static constexpr int kConst = -1;

    /** Lowering formulas U3(0, 0, lambda) of a logical gate's angle a. */
    enum class Lambda : uint8_t
    {
        Angle,    ///< a (RZZ, and RXX/RYY through it).
        Half,     ///< a / 2 (CP's phase gates before its CXs).
        NegHalf,  ///< -(a / 2) (CP's phase gate between its CXs).
    };

    TranspileRecord() = default;

    /** An empty record of a transpile of `logical`. */
    explicit TranspileRecord(const Circuit &logical);

    // ---- Recording. Ids name U3 angle triples and 2x2 matrices. ----

    /** The angles of logical U3 gate `gate`, copied by lowering. */
    int input(int gate);
    /** u3FromGate of one-qubit logical gate `gate`, which has an angle. */
    int lowered(int gate);
    /** U3(0, 0, lambda) of logical gate `gate`'s first angle. */
    int lambda(int gate, Lambda formula);
    /** u3Matrix of a triple's angles (kConst for kConst). */
    int matrix(int triple);
    /** left * right; a kConst side is given by its value. */
    int product(int left, const Matrix2 &leftValue, int right,
                const Matrix2 &rightValue);
    /** u3FromMatrix of a matrix (kConst for kConst). */
    int resynthesis(int matrix);

    // Tests, each with the outcome the recording run saw; no-ops on
    // kConst values, whose outcome never changes.

    /** isIdentityUpToPhase(matrix): a fused run's identity test. */
    void identityTest(int matrix, bool identity);
    /**
     * A lone U3's identity test as fuseU3Pass makes it: its pre-test
     * mayBeIdentity(theta), then isIdentityUpToPhase of its matrix when
     * the pre-test leaves it open. The outcome recorded is whether the
     * gate is dropped; a pre-test that rounds the other way on a gate
     * that stays either way is no divergence.
     */
    void loneIdentityTest(int triple, bool identity);
    /** fuseU3Pass's finite-angle check, which throws when it fails. */
    void finiteTest(int triple);
    /** cancelCzPass's u3IsDiagonal(theta). */
    void diagonalTest(int triple, bool diagonal);

    /** Close the record: output gate i holds value ids[i]. */
    void finish(const std::vector<int> &ids);

    // ---- Replay ----

    /**
     * Replay on `logical`'s angles into `out`, a copy of the recorded
     * transpile's output: true, with every angle-dependent U3 of `out`
     * set, iff `logical` has the recorded structure (width, gate kinds,
     * operands) and every test comes out as recorded, with no check
     * that would throw. `logical` must be valid (Circuit::validate).
     */
    bool replay(const Circuit &logical, Circuit &out) const;

    /**
     * One flag per output gate: nonzero if its angles depend on a
     * logical slot flagged in `slots` (flat index gate * 3 + param over
     * the recorded circuit).
     */
    std::vector<uint8_t> dependents(const std::vector<uint8_t> &slots) const;

  private:
    enum class Op : uint8_t
    {
        Input,         ///< triple out = logical gate a's angles.
        Lowered,       ///< triple out = u3FromGate(logical gate a).
        Lambda,        ///< triple out = (0, 0, formula flag of gate a).
        Matrix,        ///< matrix out = u3Matrix(triple a).
        Product,       ///< matrix out = matrix a * matrix b.
        ProductConstL, ///< matrix out = constant a * matrix b.
        ProductConstR, ///< matrix out = matrix a * constant b.
        Resynthesis,   ///< triple out = u3FromMatrix(matrix a).
        IdentityTest,  ///< isIdentityUpToPhase(matrix a) == flag.
        LoneIdentity,  ///< loneIdentityTest's outcome for triple a == flag.
        FiniteTest,    ///< triple a is finite.
        DiagonalTest,  ///< u3IsDiagonal(triple a) == flag.
    };

    struct Step
    {
        Op op;
        uint8_t flag = 0;
        int a = 0;
        int b = 0;
        int out = 0;  ///< Triple or matrix id the step writes, if any.
    };

    /**
     * Add a step unless an equal one exists: the triple or matrix id it
     * writes (kConst for a test).
     */
    int add(Op op, int a, int b, uint8_t flag);
    /** Index of `value` in the constant pool (equal values share one). */
    int constant(const Matrix2 &value);

    Circuit logical_;  ///< The recorded circuit (its structure is checked).
    std::vector<Step> steps_;
    std::vector<Matrix2> constants_;
    int triples_ = 0;
    int matrices_ = 0;
    /** (step key) -> id it writes, so equal steps record once. */
    std::unordered_map<uint64_t, int> seen_;
    /** (output gate, triple) for every angle-dependent output U3. */
    std::vector<std::pair<int, int>> outputs_;
    size_t outputSize_ = 0;  ///< Gates in the recorded output.
};

/**
 * A recording run's companion of one circuit: the record being built
 * and each gate's value id (kConst for gates whose angles depend on no
 * logical angle, and for every non-U3 gate). A pass that takes one
 * keeps `ids` in step with the circuit it rewrites.
 */
struct CircuitRecorder
{
    TranspileRecord *record = nullptr;
    std::vector<int> ids;
};

/**
 * The recorder of a routed circuit whose gate i copies gate sources[i]
 * of the circuit `from` tracks, or is a constant swap gate (-1).
 */
CircuitRecorder gathered(const CircuitRecorder &from,
                         const std::vector<int> &sources);

}  // namespace geyser

#endif  // GEYSER_TRANSPILE_RECORD_HPP
