package grb

import (
	"errors"
	"testing"
)

func TestNewVectorEmpty(t *testing.T) {
	v := NewVector[int](10)
	if v.Size() != 10 {
		t.Fatalf("Size = %d, want 10", v.Size())
	}
	if v.NVals() != 0 {
		t.Fatalf("NVals = %d, want 0", v.NVals())
	}
}

func TestVectorSetGet(t *testing.T) {
	v := NewVector[int](8)
	for _, i := range []Index{5, 1, 7, 3} {
		if err := v.SetElement(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	if v.NVals() != 4 {
		t.Fatalf("NVals = %d, want 4", v.NVals())
	}
	for _, i := range []Index{1, 3, 5, 7} {
		x, ok, err := v.GetElement(i)
		if err != nil || !ok || x != i*10 {
			t.Fatalf("GetElement(%d) = (%d,%v,%v), want (%d,true,nil)", i, x, ok, err, i*10)
		}
	}
	for _, i := range []Index{0, 2, 4, 6} {
		_, ok, err := v.GetElement(i)
		if err != nil || ok {
			t.Fatalf("GetElement(%d) present, want absent", i)
		}
	}
}

func TestVectorSetOverwrites(t *testing.T) {
	v := NewVector[string](3)
	Must0(v.SetElement(1, "a"))
	Must0(v.SetElement(1, "b"))
	if x, _, _ := v.GetElement(1); x != "b" {
		t.Fatalf("got %q, want overwrite to %q", x, "b")
	}
	if v.NVals() != 1 {
		t.Fatalf("NVals = %d after overwrite, want 1", v.NVals())
	}
}

func TestVectorBounds(t *testing.T) {
	v := NewVector[int](3)
	if err := v.SetElement(3, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("SetElement(3): err = %v, want ErrIndexOutOfBounds", err)
	}
	if err := v.SetElement(-1, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("SetElement(-1): err = %v, want ErrIndexOutOfBounds", err)
	}
	if _, _, err := v.GetElement(5); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("GetElement(5): err = %v, want ErrIndexOutOfBounds", err)
	}
}

func TestVectorFromTuples(t *testing.T) {
	v, err := VectorFromTuples(6, []Index{4, 0, 2}, []int{40, 0, 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ind, val := v.ExtractTuples()
	wantInd := []Index{0, 2, 4}
	wantVal := []int{0, 20, 40}
	for k := range wantInd {
		if ind[k] != wantInd[k] || val[k] != wantVal[k] {
			t.Fatalf("tuple %d = (%d,%d), want (%d,%d)", k, ind[k], val[k], wantInd[k], wantVal[k])
		}
	}
}

func TestVectorFromTuplesDup(t *testing.T) {
	// dup = plus combines; nil dup keeps the last value.
	v, err := VectorFromTuples(4, []Index{1, 1, 1}, []int{1, 2, 3}, Plus[int])
	if err != nil {
		t.Fatal(err)
	}
	if x, _, _ := v.GetElement(1); x != 6 {
		t.Fatalf("dup-plus = %d, want 6", x)
	}
	v, err = VectorFromTuples(4, []Index{1, 1, 1}, []int{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x, _, _ := v.GetElement(1); x != 3 {
		t.Fatalf("dup-last = %d, want 3", x)
	}
}

func TestVectorFromTuplesErrors(t *testing.T) {
	if _, err := VectorFromTuples(4, []Index{1}, []int{1, 2}, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("length mismatch: err = %v", err)
	}
	if _, err := VectorFromTuples(4, []Index{4}, []int{1}, nil); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("out of range: err = %v", err)
	}
}

func TestVectorResize(t *testing.T) {
	v := NewVector[int](10)
	for i := 0; i < 10; i += 2 {
		Must0(v.SetElement(i, i))
	}
	for _, n := range []int{5, -1} {
		if err := v.Resize(n); !errors.Is(err, ErrInvalidValue) {
			t.Fatalf("Resize(%d) of a size-10 vector: err = %v, want ErrInvalidValue", n, err)
		}
		if v.Size() != 10 || v.NVals() != 5 {
			t.Fatalf("refused Resize(%d): size=%d nvals=%d, want 10,5", n, v.Size(), v.NVals())
		}
	}
	if x, ok, _ := v.GetElement(8); !ok || x != 8 {
		t.Fatal("a refused shrink lost element 8")
	}
	Must0(v.Resize(20))
	if v.Size() != 20 || v.NVals() != 5 {
		t.Fatalf("after grow: size=%d nvals=%d, want 20,5", v.Size(), v.NVals())
	}
	Must0(v.SetElement(19, 190))
	if x, _, _ := v.GetElement(19); x != 190 {
		t.Fatal("cannot write into grown region")
	}
}

func TestVectorIterateOrderAndStop(t *testing.T) {
	v, _ := VectorFromTuples(10, []Index{7, 2, 5}, []int{70, 20, 50}, nil)
	var seen []Index
	v.Iterate(func(i Index, x int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 5 {
		t.Fatalf("Iterate visited %v, want [2 5] then stop", seen)
	}
}
