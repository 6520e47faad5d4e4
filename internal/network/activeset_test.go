package network

import (
	"math/rand"
	"testing"
)

// TestActiveSetMatchesFullScanOracle is the determinism argument the
// active-set engine relies on, checked by property test: iterating an
// activeSet with mid-iteration inserts must visit exactly the members a
// naive 0..N-1 scan (over a membership bitmap mutated by the same
// inserts) would visit, in the same order. Randomised trials land
// inserts behind the cursor, exactly at it, and ahead of it.
func TestActiveSetMatchesFullScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0xAC7155E7))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(40)
		var initial []int
		member := make([]bool, n)
		for id := 0; id < n; id++ {
			if rng.Intn(2) == 0 {
				initial = append(initial, id)
				member[id] = true
			}
		}
		// addsAt[k] is the set of inserts performed while visiting the
		// k-th visited member. Drawn up-front so both executions replay
		// the identical script.
		addsAt := make([][]int, 2*n+1)
		for k := range addsAt {
			for j := 0; j < rng.Intn(3); j++ {
				addsAt[k] = append(addsAt[k], rng.Intn(n))
			}
		}

		s := newActiveSet(n)
		// Insert order must not matter; shuffle it.
		for _, i := range rng.Perm(len(initial)) {
			s.add(initial[i])
		}
		var got []int
		for s.cur = 0; s.cur < len(s.ids); s.cur++ {
			got = append(got, s.ids[s.cur])
			if len(got) <= len(addsAt) {
				for _, a := range addsAt[len(got)-1] {
					s.add(a)
				}
			}
		}
		s.cur = -1

		var want []int
		for id := 0; id < n; id++ {
			if !member[id] {
				continue
			}
			want = append(want, id)
			if len(want) <= len(addsAt) {
				for _, a := range addsAt[len(want)-1] {
					member[a] = true
				}
			}
		}

		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d): visited %v, full scan visited %v", trial, n, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d): visit %d = %d, full scan had %d\nset:  %v\nscan: %v",
					trial, n, i, got[i], want[i], got, want)
			}
		}
		// Post-iteration membership must agree too: inserts behind the
		// cursor were deferred to the next pass, not lost.
		for id := 0; id < n; id++ {
			if member[id] != s.in[id] {
				t.Fatalf("trial %d: membership of %d = %v, oracle has %v", trial, id, s.in[id], member[id])
			}
		}
	}
}

// TestActiveSetCursorEdgeCases pins the three insert positions the
// property test relies on with explicit, readable cases.
func TestActiveSetCursorEdgeCases(t *testing.T) {
	visit := func(adds map[int][]int) []int {
		s := newActiveSet(10)
		s.add(2)
		s.add(5)
		s.add(8)
		var got []int
		for s.cur = 0; s.cur < len(s.ids); s.cur++ {
			got = append(got, s.ids[s.cur])
			for _, a := range adds[s.ids[s.cur]] {
				s.add(a)
			}
		}
		s.cur = -1
		return got
	}
	cases := []struct {
		name string
		adds map[int][]int
		want []int
	}{
		{"insert ahead is visited this pass", map[int][]int{5: {7}}, []int{2, 5, 7, 8}},
		{"insert behind waits for next pass", map[int][]int{5: {1}}, []int{2, 5, 8}},
		{"insert at cursor does not revisit", map[int][]int{5: {4}}, []int{2, 5, 8}},
		{"duplicate insert is a no-op", map[int][]int{2: {5, 5}}, []int{2, 5, 8}},
	}
	for _, c := range cases {
		got := visit(c.adds)
		if len(got) != len(c.want) {
			t.Errorf("%s: visited %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: visited %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

// TestActiveSetCompactDuringIterationPanics: compaction mid-iteration
// would invalidate the cursor; the set must refuse loudly.
func TestActiveSetCompactDuringIterationPanics(t *testing.T) {
	s := newActiveSet(4)
	s.add(1)
	s.add(3)
	s.cur = 0
	defer func() {
		if recover() == nil {
			t.Error("compact during iteration did not panic")
		}
	}()
	s.compact(func(int) bool { return true })
}
