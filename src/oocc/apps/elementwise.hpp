// Serial in-memory reference for elementwise HPF programs: the oracle for
// compiled elementwise statements and fused chains, as serial_jacobi is for
// the stencil and gaxpy::serial_matmul for the GAXPY reduction.
//
// It runs the analyzed statements themselves, never their lowered slab
// programs: statement by statement and element by element over dense
// global arrays, each expression tree evaluated in operand order (left
// operand, right operand, then the operator) in double precision. The
// executor's column kernel keeps that per-element order, so a correct
// compile matches this reference bit for bit.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "oocc/hpf/sema.hpp"

namespace oocc::apps {

/// Global arrays by name, column-major: element (r, c) (0-based) of an
/// array with `rows` rows is at [c * rows + r].
using DenseArrays = std::map<std::string, std::vector<double>>;

/// Runs `program` over `arrays`, which holds every array the program names:
/// initial values in, final values out. FORALL and DO bodies run one index
/// at a time, which is what a FORALL means for the elementwise statements
/// lowering accepts (each element reads only its own position); an array
/// assignment runs over its lhs section, the k-th section subscript of
/// every reference following the lhs's k-th. Throws Error on a SUM
/// intrinsic, an unbound name or a subscript outside its array.
void serial_elementwise(const hpf::BoundProgram& program, DenseArrays& arrays);

}  // namespace oocc::apps
