package ringq

import (
	"math/rand"
	"testing"
)

// At returns element i (0 = front). It panics when i is out of range.
func (r *Ring[T]) At(i int) T { return *r.Ptr(i) }

// Empty reports whether the ring holds no elements.
func (r *Ring[T]) Empty() bool { return r.n == 0 }

// CeilPow2 rounds n up to a power of two (minimum 1) — the backing
// length Adopt requires for a ring meant to hold n elements.
func CeilPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// newRing returns a ring whose backing array already holds capacity
// elements (rounded up to a power of two), as a slab-carved one would.
func newRing[T any](capacity int) *Ring[T] {
	r := &Ring[T]{}
	if capacity > 0 {
		r.Adopt(make([]T, CeilPow2(capacity)))
	}
	return r
}

func TestFIFOOrder(t *testing.T) {
	r := newRing[int](2)
	for i := 0; i < 100; i++ {
		r.PushBack(i)
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	for i := 0; i < 100; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	if !r.Empty() {
		t.Error("ring not empty after draining")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Ring[string]
	r.PushBack("a")
	r.InsertAt(0, "b")
	if r.Len() != 2 || r.Front() != "b" || r.At(1) != "a" {
		t.Fatalf("zero-value ring misbehaves: len %d front %q", r.Len(), r.Front())
	}
}

func TestGrowPreservesOrderAcrossWrap(t *testing.T) {
	r := newRing[int](4)
	for i := 0; i < 3; i++ {
		r.PushBack(i)
		r.PopFront()
	}
	// head is offset; now fill past capacity to force growth mid-wrap.
	for i := 0; i < 9; i++ {
		r.PushBack(i)
	}
	for i := 0; i < 9; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("after grow, PopFront = %d, want %d", got, i)
		}
	}
}

func TestInsertAtAndRemoveAt(t *testing.T) {
	r := newRing[int](4)
	for i := 0; i < 5; i++ {
		r.PushBack(i) // 0 1 2 3 4
	}
	r.InsertAt(0, 10) // 10 0 1 2 3 4
	r.InsertAt(3, 11) // 10 0 1 11 2 3 4
	r.InsertAt(7, 12) // 10 0 1 11 2 3 4 12
	want := []int{10, 0, 1, 11, 2, 3, 4, 12}
	for i, w := range want {
		if got := r.At(i); got != w {
			t.Fatalf("after inserts, At(%d) = %d, want %d", i, got, w)
		}
	}
	if got := r.RemoveAt(3); got != 11 {
		t.Fatalf("RemoveAt(3) = %d, want 11", got)
	}
	if got := r.RemoveAt(0); got != 10 {
		t.Fatalf("RemoveAt(0) = %d, want 10", got)
	}
	if got := r.RemoveAt(r.Len() - 1); got != 12 {
		t.Fatalf("RemoveAt(last) = %d, want 12", got)
	}
	for i := 0; i < 5; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("after removes, PopFront = %d, want %d", got, i)
		}
	}
}

func TestPopZeroesSlots(t *testing.T) {
	r := newRing[*int](2)
	x := 7
	r.PushBack(&x)
	r.PopFront()
	for i, p := range r.buf {
		if p != nil {
			t.Errorf("slot %d still holds a pointer after pop", i)
		}
	}
	r.PushBack(&x)
	r.RemoveAt(0)
	for i, p := range r.buf {
		if p != nil {
			t.Errorf("slot %d still holds a pointer after RemoveAt", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := map[string]func(r *Ring[int]){
		"Front":    func(r *Ring[int]) { r.Front() },
		"PopFront": func(r *Ring[int]) { r.PopFront() },
		"At":       func(r *Ring[int]) { r.At(0) },
		"RemoveAt": func(r *Ring[int]) { r.RemoveAt(0) },
		"InsertAt": func(r *Ring[int]) { r.InsertAt(1, 0) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty ring did not panic", name)
				}
			}()
			f(newRing[int](0))
		}()
	}
}

// TestRandomizedAgainstSlice fuzzes the ring against a reference slice
// implementation, covering wrap/grow interactions of every operation.
func TestRandomizedAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := newRing[int](0)
	var ref []int
	for op := 0; op < 20000; op++ {
		switch k := rng.Intn(6); {
		case k == 0 || r.Len() == 0:
			v := rng.Int()
			r.PushBack(v)
			ref = append(ref, v)
		case k == 1:
			v := rng.Int()
			r.InsertAt(0, v)
			ref = append([]int{v}, ref...)
		case k == 2:
			if got, want := r.PopFront(), ref[0]; got != want {
				t.Fatalf("op %d: PopFront = %d, want %d", op, got, want)
			}
			ref = ref[1:]
		case k == 3:
			i := rng.Intn(len(ref))
			if got, want := r.RemoveAt(i), ref[i]; got != want {
				t.Fatalf("op %d: RemoveAt(%d) = %d, want %d", op, i, got, want)
			}
			ref = append(ref[:i], ref[i+1:]...)
		case k == 4:
			i := rng.Intn(len(ref) + 1)
			v := rng.Int()
			r.InsertAt(i, v)
			ref = append(ref[:i], append([]int{v}, ref[i:]...)...)
		default:
			i := rng.Intn(len(ref))
			if got, want := r.At(i), ref[i]; got != want {
				t.Fatalf("op %d: At(%d) = %d, want %d", op, i, got, want)
			}
		}
		if r.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, r.Len(), len(ref))
		}
	}
	for i, want := range ref {
		if got := r.PopFront(); got != want {
			t.Fatalf("final drain %d: got %d, want %d", i, got, want)
		}
	}
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	r := newRing[int](8)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			r.PushBack(i)
		}
		r.InsertAt(0, 9) // grows once on the first run, then never again
		for !r.Empty() {
			r.PopFront()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state ring ops allocate %.1f times per run, want 0", allocs)
	}
}
