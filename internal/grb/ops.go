package grb

// This file defines the operator algebra: unary operators, binary operators,
// monoids and semirings. They are plain values (structs holding funcs), so
// user code can define new algebras without touching the engine, mirroring
// GrB_Monoid_new / GrB_Semiring_new.

// Number constrains the built-in numeric types for the predefined algebras.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// Ordered constrains types with a total order usable by min/max monoids.
type Ordered interface {
	Number | ~string
}

// UnaryOp maps an element of type T to type U (GrB_UnaryOp).
type UnaryOp[T, U any] func(T) U

// BinaryOp combines an A and a B into a C (GrB_BinaryOp).
type BinaryOp[A, B, C any] func(A, B) C

// Monoid is an associative, commutative binary operator with an identity
// (GrB_Monoid). The engine relies on associativity for parallel reduction.
type Monoid[T any] struct {
	Identity T
	Op       func(T, T) T
}

// Semiring pairs an additive monoid over C with a multiplicative operator
// A×B→C (GrB_Semiring). MxM/MxV/VxM sum products with Add.Op.
type Semiring[A, B, C any] struct {
	Add Monoid[C]
	Mul BinaryOp[A, B, C]
}

// ---------------------------------------------------------------------------
// Predefined binary operators.

// Plus returns x+y.
func Plus[T Number](x, y T) T { return x + y }

// Times returns x*y.
func Times[T Number](x, y T) T { return x * y }

// Min returns the smaller of x and y.
func Min[T Ordered](x, y T) T {
	if y < x {
		return y
	}
	return x
}

// First returns its first argument (GrB_FIRST).
func First[A, B any](x A, _ B) A { return x }

// Second returns its second argument (GrB_SECOND).
func Second[A, B any](_ A, y B) B { return y }

// Pair returns 1 regardless of its inputs (GxB_PAIR); with a plus monoid it
// counts structural overlaps.
func Pair[A, B any](_ A, _ B) int { return 1 }

// Or is boolean disjunction.
func Or(x, y bool) bool { return x || y }

// And is boolean conjunction.
func And(x, y bool) bool { return x && y }

// ---------------------------------------------------------------------------
// Predefined monoids.

// PlusMonoid is the (+, 0) monoid.
func PlusMonoid[T Number]() Monoid[T] { return Monoid[T]{Identity: 0, Op: Plus[T]} }

// MinMonoid is the (min, +inf) monoid; the identity must be supplied because
// Go has no generic maximal value for all Ordered types.
func MinMonoid[T Ordered](identity T) Monoid[T] { return Monoid[T]{Identity: identity, Op: Min[T]} }

// OrMonoid is the (∨, false) monoid.
func OrMonoid() Monoid[bool] { return Monoid[bool]{Identity: false, Op: Or} }

// ---------------------------------------------------------------------------
// Predefined semirings.

// PlusTimes is the conventional (+, ×) arithmetic semiring.
func PlusTimes[T Number]() Semiring[T, T, T] {
	return Semiring[T, T, T]{Add: PlusMonoid[T](), Mul: Times[T]}
}

// PlusSecond sums the vector/matrix-B operand over structural matches of A:
// mul(a, b) = b. It is the workhorse for "sum values selected by a boolean
// matrix", e.g. likesScore ← RootPost ⊕.⊗ likesCount in Q1.
func PlusSecond[A any, T Number]() Semiring[A, T, T] {
	return Semiring[A, T, T]{Add: PlusMonoid[T](), Mul: Second[A, T]}
}

// PlusFirst is the mirror image of PlusSecond: mul(a, b) = a.
func PlusFirst[T Number, B any]() Semiring[T, B, T] {
	return Semiring[T, B, T]{Add: PlusMonoid[T](), Mul: First[T, B]}
}

// PlusPair counts structural matches: mul ≡ 1, add = +.
func PlusPair[A, B any]() Semiring[A, B, int] {
	return Semiring[A, B, int]{Add: PlusMonoid[int](), Mul: Pair[A, B]}
}

// MinSecond propagates the minimum of the B operand over structural matches
// of A (used by FastSV hooking). identity is the monoid identity (e.g. a
// value larger than any vertex id).
func MinSecond[A any, T Ordered](identity T) Semiring[A, T, T] {
	return Semiring[A, T, T]{Add: MinMonoid(identity), Mul: Second[A, T]}
}

// OrAnd is the boolean (∨, ∧) semiring used for reachability.
func OrAnd() Semiring[bool, bool, bool] {
	return Semiring[bool, bool, bool]{Add: OrMonoid(), Mul: And}
}
