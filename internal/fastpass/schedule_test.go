package fastpass

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/routing"
	"repro/internal/topology"
)

func TestScheduleK(t *testing.T) {
	m := topology.NewMesh(8, 8)
	s := NewSchedule(m, 5, 1)
	// (2×14 hops) × 5 inputs × 1 VC = 140 (Qn 5).
	if s.K != 140 {
		t.Errorf("K = %d, want 140", s.K)
	}
	s4 := NewSchedule(m, 5, 4)
	if s4.K != 560 {
		t.Errorf("K(4 VCs) = %d, want 560", s4.K)
	}
	if s.PhaseLen() != 8*140 {
		t.Errorf("PhaseLen = %d", s.PhaseLen())
	}
	if s.RoundLen() != 8*8*140 {
		t.Errorf("RoundLen = %d", s.RoundLen())
	}
}

func TestScheduleKFloorOnTinyMesh(t *testing.T) {
	m := topology.NewMesh(2, 2)
	s := NewSchedule(m, 5, 1)
	if s.K < minSlotLen(m.W, m.H) {
		t.Errorf("K = %d below the round-trip floor %d", s.K, minSlotLen(m.W, m.H))
	}
}

func TestPhaseSlotProgression(t *testing.T) {
	s := Schedule{W: 3, H: 3, K: 10}
	if s.Phase(0) != 0 || s.Slot(0) != 0 {
		t.Error("cycle 0 should be phase 0 slot 0")
	}
	if s.Slot(10) != 1 || s.Slot(29) != 2 {
		t.Errorf("slot(10)=%d slot(29)=%d", s.Slot(10), s.Slot(29))
	}
	if s.Phase(30) != 1 {
		t.Errorf("phase(30) = %d, want 1", s.Phase(30))
	}
	// Phases wrap after H of them.
	if s.Phase(int64(3*s.PhaseLen())) != 0 {
		t.Error("phase should wrap to 0")
	}
	if s.SlotRemaining(0) != 10 || s.SlotRemaining(9) != 1 {
		t.Errorf("SlotRemaining: %d, %d", s.SlotRemaining(0), s.SlotRemaining(9))
	}
}

// Concurrent primes must never share a row or a column (§III-E) — the
// arrangement that makes lanes and returning paths collision-free.
func TestPrimesDistinctRowsAndColumns(t *testing.T) {
	f := func(wRaw, hRaw, phRaw uint8) bool {
		w := int(wRaw%8) + 1
		h := int(hRaw%8) + 1
		s := Schedule{W: w, H: h, K: 100}
		ph := int(phRaw) % h
		rows := map[int]bool{}
		for col := 0; col < w; col++ {
			r := s.PrimeRow(col, ph)
			if r < 0 || r >= h {
				return false
			}
			if w <= h {
				// With more rows than columns every prime row must be
				// unique; otherwise uniqueness is impossible and the
				// mesh degenerates (the paper's meshes are square).
				if rows[r] {
					return false
				}
				rows[r] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Over one phase every prime covers every partition exactly once, and
// within one slot the covered partitions are a permutation (pairwise
// distinct).
func TestCoverageIsPermutation(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5, 8, 16} {
		s := Schedule{W: w, H: w, K: 50}
		for slot := 0; slot < w; slot++ {
			seen := map[int]bool{}
			for col := 0; col < w; col++ {
				cv := s.Covered(col, slot)
				if seen[cv] {
					t.Fatalf("w=%d slot=%d: column %d covered twice", w, slot, cv)
				}
				seen[cv] = true
			}
		}
		for col := 0; col < w; col++ {
			seen := map[int]bool{}
			for slot := 0; slot < w; slot++ {
				seen[s.Covered(col, slot)] = true
			}
			if len(seen) != w {
				t.Fatalf("w=%d col=%d: phase covers %d of %d partitions", w, col, len(seen), w)
			}
		}
	}
}

// Every router becomes prime exactly once per round (Lemma 2's
// foundation).
func TestEveryRouterBecomesPrime(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {4, 4}, {8, 8}, {4, 6}} {
		s := Schedule{W: dims[0], H: dims[1], K: 10}
		count := map[int]int{}
		for ph := 0; ph < s.H; ph++ {
			for col := 0; col < s.W; col++ {
				count[s.PrimeNode(col, ph)]++
			}
		}
		if len(count) != dims[0]*dims[1] {
			t.Fatalf("%v: only %d routers ever prime", dims, len(count))
		}
		for node, k := range count {
			if k != 1 {
				t.Fatalf("%v: router %d prime %d times per round", dims, node, k)
			}
		}
	}
}

func TestPrimeFor(t *testing.T) {
	s := Schedule{W: 3, H: 3, K: 10}
	for ph := 0; ph < 3; ph++ {
		for col := 0; col < 3; col++ {
			node := s.PrimeNode(col, ph)
			if got := s.PrimeFor(node, ph); got != col {
				t.Errorf("PrimeFor(prime of col %d) = %d", col, got)
			}
		}
	}
	// A non-prime node must report -1.
	node := s.PrimeNode(0, 0)
	other := (node + s.W) % (s.W * s.H) // same column, different row
	if s.PrimeFor(other, 0) != -1 {
		t.Error("non-prime reported as prime")
	}
}

// The paper's central geometric invariant (Figs. 1 and 4): in any phase
// and slot, pick any destination for each prime within its covered
// partition — all lanes (XY) and all returning paths (YX) are pairwise
// link-disjoint.
func TestLanesAndReturnsNeverOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{2, 3, 4, 8} {
		m := topology.NewMesh(dim, dim)
		s := NewSchedule(m, 5, 1)
		for ph := 0; ph < s.H; ph++ {
			for slot := 0; slot < s.Partitions(); slot++ {
				for trial := 0; trial < 10; trial++ {
					used := map[int]int{} // link ID -> owning column
					for col := 0; col < s.Partitions(); col++ {
						prime := s.PrimeNode(col, ph)
						covered := s.Covered(col, slot)
						dst := m.ID(covered, rng.Intn(dim))
						lane := routing.AppendPathXY(m, nil, prime, dst)
						ret := routing.AppendPathYX(m, nil, dst, prime)
						for _, l := range append(lane, ret...) {
							if owner, clash := used[l.ID]; clash {
								t.Fatalf("dim=%d ph=%d slot=%d: link %d shared by columns %d and %d",
									dim, ph, slot, l.ID, owner, col)
							}
							used[l.ID] = col
						}
					}
				}
			}
		}
	}
}

// Exhaustive variant for a small mesh: every destination combination.
func TestLanesExhaustive3x3(t *testing.T) {
	m := topology.NewMesh(3, 3)
	s := NewSchedule(m, 5, 1)
	for ph := 0; ph < 3; ph++ {
		for slot := 0; slot < 3; slot++ {
			// All 27 combinations of one destination row per prime.
			for combo := 0; combo < 27; combo++ {
				rows := [3]int{combo % 3, (combo / 3) % 3, (combo / 9) % 3}
				used := map[int]bool{}
				for col := 0; col < 3; col++ {
					prime := s.PrimeNode(col, ph)
					dst := m.ID(s.Covered(col, slot), rows[col])
					for _, l := range routing.AppendPathXY(m, nil, prime, dst) {
						if used[l.ID] {
							t.Fatalf("lane overlap ph=%d slot=%d combo=%d", ph, slot, combo)
						}
						used[l.ID] = true
					}
					for _, l := range routing.AppendPathYX(m, nil, dst, prime) {
						if used[l.ID] {
							t.Fatalf("return overlap ph=%d slot=%d combo=%d", ph, slot, combo)
						}
						used[l.ID] = true
					}
				}
			}
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Schedule{W: 0, H: 1, K: 1}).Validate(); err == nil {
		t.Error("degenerate schedule accepted")
	}
	if err := (Schedule{W: 8, H: 8, K: 140}).Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// RoundLen is the number of cycles for every router to have served as
// prime: H phases (the prime walks down its column one row per phase).
func (s Schedule) RoundLen() int { return s.H * s.PhaseLen() }

// PrimeFor reports which column's prime the given node currently is, or
// -1 when the node is not a prime this phase.
func (s Schedule) PrimeFor(node int, phase int) int {
	col := node % s.W
	if s.PrimeNode(col, phase) == node {
		return col
	}
	return -1
}
