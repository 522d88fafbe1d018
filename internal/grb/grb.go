// Package grb is a pure-Go sparse linear algebra engine modelled on the
// GraphBLAS C API (Kepner et al., "Mathematical foundations of the
// GraphBLAS") and its SuiteSparse implementation. It provides sparse vectors
// and matrices over arbitrary element types, generalized matrix
// multiplication over user-supplied semirings, element-wise set
// union/intersection, submatrix extraction, structural masks,
// reductions, and SuiteSparse-style pending tuples with lazy assembly so
// that fine-grained updates are cheap.
//
// The operation set covers Table I of Elekes & Szárnyas, "An incremental
// GraphBLAS solution for the 2018 TTC Social Media case study":
//
//	GrB_mxm            → MxM
//	GrB_vxm            → VxM
//	GrB_mxv            → MxV
//	GrB_eWiseAdd       → EWiseAddV
//	GrB_eWiseMult      → EWiseMultV
//	GrB_extract        → ExtractSubmatrix, ExtractRow
//	GrB_assign         → AssignV
//	GrB_apply          → ApplyV
//	GxB_select         → SelectM
//	GrB_reduce         → ReduceRows, ReduceCols
//	GrB_build          → VectorFromTuples, MatrixFromTuples
//	GrB_extractTuples  → (*Vector).ExtractTuples, (*Matrix).ExtractTuples
//	masks ⟨M⟩          → MaskV
//	GrB_wait           → (*Matrix).Wait
//
// Unlike the C API, results are returned rather than written through output
// parameters, and type dispatch happens through Go generics rather than
// runtime descriptors. Masks are structural: an entry is "in the mask" iff
// the mask has a stored element at that position.
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
