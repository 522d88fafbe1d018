// Package grb is a pure-Go sparse linear algebra engine modelled on the
// GraphBLAS C API (Kepner et al., "Mathematical foundations of the
// GraphBLAS") and its SuiteSparse implementation. It provides sparse vectors
// and matrices over arbitrary element types, generalized matrix
// multiplication over user-supplied semirings, element-wise set
// union, submatrix extraction, structural masks,
// reductions, and SuiteSparse-style pending tuples with lazy assembly so
// that fine-grained updates are cheap.
//
// The operation set covers Table I of Elekes & Szárnyas, "An incremental
// GraphBLAS solution for the 2018 TTC Social Media case study":
//
//	GrB_mxm            → MxM
//	GrB_vxm            → VxM
//	GrB_mxv            → MxV, MxVFull
//	GrB_eWiseAdd       → EWiseAddV
//	GrB_extract        → ExtractSubmatrix
//	GrB_assign         → AssignV (over GrB_ALL)
//	GrB_apply          → ApplyV
//	GxB_select         → SelectM
//	GrB_reduce         → ReduceRows, ReduceCols
//	GrB_build          → VectorFromTuples, MatrixFromTuples
//	GrB_extractTuples  → (*Vector).ExtractTuples
//	masks ⟨M⟩          → MaskV
//	GrB_wait           → (*Matrix).Wait
//
// Unlike the C API, results are returned rather than written through output
// parameters — except where a caller reuses the output from call to call:
// ExtractSubmatrix writes into a given matrix and MxVFull into a given
// slice — and type dispatch happens through Go generics rather than
// runtime descriptors. Masks are structural: an entry is "in the mask" iff
// the mask has a stored element at that position.
//
// Indices are ints (Index) in the API, but a Matrix stores its row
// pointers, column indices and pending tuples in 32 bits, as
// SuiteSparse:GraphBLAS 10 does whenever they fit. So a matrix's shape,
// the tuples it is built from and its stored elements are bounded by
// 2³¹−1; beyond that an operation fails with ErrInvalidValue (NewMatrix
// panics with it) before it allocates.
package grb

import (
	"errors"
	"fmt"
)

// Index addresses rows, columns and vector positions.
type Index = int

// Errors returned by the API. They are wrapped with contextual detail;
// match with errors.Is.
var (
	// ErrDimensionMismatch reports incompatible operand shapes.
	ErrDimensionMismatch = errors.New("grb: dimension mismatch")
	// ErrIndexOutOfBounds reports an index outside the object's shape.
	ErrIndexOutOfBounds = errors.New("grb: index out of bounds")
	// ErrInvalidValue reports malformed arguments such as negative sizes
	// or tuple slices of different lengths.
	ErrInvalidValue = errors.New("grb: invalid value")
)

func dimErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrDimensionMismatch, fmt.Sprintf(format, args...))
}

func boundsErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrIndexOutOfBounds, fmt.Sprintf(format, args...))
}

func invalidErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidValue, fmt.Sprintf(format, args...))
}

// Must unwraps a (value, error) pair, panicking on error. It keeps
// algorithm-level code (where shapes are correct by construction) readable:
//
//	w := grb.Must(grb.MxV(semiring, a, u))
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Must0 panics if err is non-nil. It is the argument-less companion of Must.
func Must0(err error) {
	if err != nil {
		panic(err)
	}
}
