package network

import "sort"

// activeSet is the membership structure behind the active-set cycle
// engine: a deduplicated set of node IDs kept sorted ascending, so that
// iterating it visits exactly the members a full 0..N-1 scan would
// visit, in the same order.
//
// Sorted order is not a nicety — it is the determinism argument. The
// cycle loop's observable side effects (ejection into NICs, trace
// records, protocol consumption) happen in iteration order; a raw
// insertion-order list would reorder them between runs that wake nodes
// along different paths. See DESIGN.md §9.
//
// The set supports insertion *during* iteration with full-scan
// semantics: a member added at a position the cursor has not reached
// yet will be visited this pass; one added behind the cursor will not
// (exactly as a 0..N-1 scan would have it). Removal only happens in
// compact, never mid-iteration.
type activeSet struct {
	in  []bool // membership flag, indexed by ID
	ids []int  // members, sorted ascending
	cur int    // iteration cursor; -1 when no iteration is running
}

func newActiveSet(n int) activeSet {
	return activeSet{in: make([]bool, n), ids: make([]int, 0, n), cur: -1}
}

// add inserts id, keeping ids sorted; duplicates are ignored. If an
// iteration is running and the insertion lands at or before the cursor,
// the cursor shifts so the current member is not visited twice.
func (s *activeSet) add(id int) {
	if s.in[id] {
		return
	}
	s.in[id] = true
	i := sort.SearchInts(s.ids, id)
	s.ids = append(s.ids, 0)
	copy(s.ids[i+1:], s.ids[i:])
	s.ids[i] = id
	if s.cur >= 0 && i <= s.cur {
		s.cur++
	}
}

// compact drops members for which keep is false. Must not run while an
// iteration is in progress.
func (s *activeSet) compact(keep func(id int) bool) {
	if s.cur >= 0 {
		panic("network: active-set compaction during iteration")
	}
	w := 0
	for _, id := range s.ids {
		if keep(id) {
			s.ids[w] = id
			w++
		} else {
			s.in[id] = false
		}
	}
	s.ids = s.ids[:w]
}
