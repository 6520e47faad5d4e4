// Package spare passes a finished run's arrays and maps to the next run
// in the process. A paper-scale evaluation is hundreds of short runs,
// and each would otherwise make its mesh, router slab, channels, NICs,
// watchdog, injector, RNG streams and protocol tables anew and leave the
// old ones to the GC (DESIGN.md §9).
package spare

import (
	"slices"
	"sync"
)

// maxKept is the number of arrays a Store keeps. A store only fills to
// the number of runs that were live at once, so reuse does not raise a
// process's peak.
const maxKept = 8

// Store keeps at most maxKept zeroed arrays of T. It is guarded by a mutex
// and not a sync.Pool, which every GC empties. The zero value is empty
// and ready to use.
type Store[T any] struct {
	mu   sync.Mutex
	kept [][]T
}

// Take returns n zero elements: a prefix of the shortest kept array
// that is long enough, or a new array. The capacity may exceed n.
func (s *Store[T]) Take(n int) []T {
	s.mu.Lock()
	best := -1
	for i, a := range s.kept {
		if cap(a) >= n && (best < 0 || cap(a) < cap(s.kept[best])) {
			best = i
		}
	}
	if best < 0 {
		s.mu.Unlock()
		return make([]T, n)
	}
	a := s.kept[best]
	s.kept = slices.Delete(s.kept, best, best+1)
	s.mu.Unlock()
	return a[:n]
}

// Put clears a's whole capacity and keeps it for a later Take. A full
// store drops its shortest array, a included, so one that filled with
// a small shape's arrays still serves a larger build; an array of no
// capacity is not kept. Nothing may use a, or any window onto it,
// afterwards.
func (s *Store[T]) Put(a []T) {
	if a = a[:cap(a)]; len(a) == 0 {
		return
	}
	clear(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kept = append(s.kept, a)
	if len(s.kept) > maxKept {
		short := 0
		for i, k := range s.kept {
			if cap(k) < cap(s.kept[short]) {
				short = i
			}
		}
		s.kept = slices.Delete(s.kept, short, short+1)
	}
}

// Maps keeps at most maxKept emptied maps, as Store keeps arrays: a
// cleared map keeps the room it grew. The zero value is empty and ready
// to use.
type Maps[K comparable, V any] struct {
	mu   sync.Mutex
	kept []map[K]V
}

// Take returns an empty map: the last one kept, or a new one sized for
// hint entries.
func (s *Maps[K, V]) Take(hint int) map[K]V {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.kept)
	if n == 0 {
		return make(map[K]V, hint)
	}
	m := s.kept[n-1]
	s.kept[n-1], s.kept = nil, s.kept[:n-1]
	return m
}

// Put clears m and keeps it for a later Take, unless maxKept maps are
// kept already. Nothing may use m afterwards.
func (s *Maps[K, V]) Put(m map[K]V) {
	clear(m)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.kept) < maxKept {
		s.kept = append(s.kept, m)
	}
}
