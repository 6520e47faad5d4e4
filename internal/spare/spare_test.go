package spare

import (
	"sync"
	"testing"
)

// TestTakeReturnsZeroedMemory: an array dirtied before Put comes back
// all zero, to its whole capacity, even past the prefix its user wrote.
func TestTakeReturnsZeroedMemory(t *testing.T) {
	var s Store[int]
	a := s.Take(8)
	for i := range a {
		a[i] = i + 1
	}
	s.Put(a[:3]) // a window: Put clears and keeps the whole capacity
	b := s.Take(8)
	if &b[0] != &a[0] {
		t.Fatal("Take made a new array while a released one fitted")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("element %d of a taken array is %d, want 0", i, v)
		}
	}
}

// TestSmallerTakeGetsPrefix: a Take gets the prefix of the shortest
// kept array long enough for it; a Take longer than every kept array
// gets a new one and leaves them kept.
func TestSmallerTakeGetsPrefix(t *testing.T) {
	var s Store[byte]
	big, mid := s.Take(64), s.Take(16)
	s.Put(big)
	s.Put(mid)
	if got := s.Take(100); len(got) != 100 || &got[0] == &big[0] || &got[0] == &mid[0] {
		t.Fatal("a Take longer than every kept array did not make a new one")
	}
	if got := s.Take(10); len(got) != 10 || &got[0] != &mid[0] {
		t.Fatal("Take(10) did not get the prefix of the kept 16")
	}
	if got := s.Take(10); len(got) != 10 || &got[0] != &big[0] {
		t.Fatal("Take(10) did not get the prefix of the kept 64 once the 16 was taken")
	}
	if got := s.Take(10); &got[0] == &big[0] || &got[0] == &mid[0] {
		t.Fatal("a taken array was handed out twice")
	}
}

// TestStoreKeepsAtMostMax: a full store keeps its maxKept longest arrays
// and drops the shortest.
func TestStoreKeepsAtMostMax(t *testing.T) {
	var s Store[int]
	arrays := make([][]int, maxKept+3)
	for i := range arrays {
		arrays[i] = make([]int, len(arrays)-i) // longest first
	}
	for _, a := range arrays {
		s.Put(a)
	}
	if len(s.kept) != maxKept {
		t.Fatalf("store keeps %d arrays, want %d", len(s.kept), maxKept)
	}
	for i := maxKept - 1; i >= 0; i-- { // shortest kept first
		if got := s.Take(1); &got[0] != &arrays[i][0] {
			t.Fatalf("Take(1) got a %d-long array, want kept array %d of %d", cap(got), i, len(arrays[i]))
		}
	}
	if len(s.kept) != 0 {
		t.Fatalf("store still keeps %d arrays after maxKept takes", len(s.kept))
	}
}

// TestConcurrentTakePut: goroutines taking, writing and putting back
// arrays never share one (the race detector checks the store itself),
// and every array taken is zero.
func TestConcurrentTakePut(t *testing.T) {
	var s Store[int]
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				a := s.Take(1 + (g+i)%32)
				for j := range a {
					if a[j] != 0 {
						t.Errorf("goroutine %d took a dirty array", g)
						return
					}
					a[j] = g + 1
				}
				s.Put(a)
			}
		}()
	}
	wg.Wait()
}
