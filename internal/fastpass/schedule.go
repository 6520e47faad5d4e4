// Package fastpass implements the paper's contribution: the FastPass
// flow-control mechanism (§III). It provides
//
//   - the TDM schedule of phases and K-cycle slots (§III-C1, Qn 5),
//   - column partitions with one prime router each, placed on a shifting
//     diagonal so concurrent primes never share a row or column (§III-E),
//   - non-overlapping FastPass-Lanes (XY) and returning paths (YX),
//   - the lane controller: packet upgrade in the mandated scan order,
//     bufferless hop-per-cycle traversal with lookahead link claims,
//     ejection-queue reservations, and the dynamic-bubble dropping of
//     injection request packets with MSHR regeneration (§III-C4),
//
// and attaches to a network as its Controller.
package fastpass

import (
	"fmt"

	"repro/internal/topology"
)

// Schedule is the pure TDM arithmetic of FastPass: who is prime when,
// and which partition each prime's lane covers. Keeping it side-effect
// free makes the non-overlap properties directly testable.
type Schedule struct {
	// W and H are the mesh dimensions; partitions are the W columns.
	W, H int
	// K is the slot length in cycles (Qn 5).
	K int
}

// NewSchedule derives the schedule for a mesh. K follows the paper's
// pre-computed bound (2·#Hops)·#Inputs·#VCs, the time for a round trip
// to the furthest node repeated once per input VC.
func NewSchedule(m *topology.Mesh, numInputs, numVCs int) Schedule {
	k := 2 * m.Diameter() * numInputs * numVCs
	if min := minSlotLen(m.W, m.H); k < min {
		// Tiny meshes (diameter 1–2) need enough room for at least one
		// full round trip plus ejection; the paper's formula already
		// exceeds this for every evaluated size.
		k = min
	}
	return Schedule{W: m.W, H: m.H, K: k}
}

// minSlotLen is the smallest slot that always fits one worst-case
// promote→travel→reject→return→park sequence.
func minSlotLen(w, h int) int {
	const maxPktLen = 5
	return 2*(w-1+h-1) + 2*maxPktLen + 4
}

// Validate checks the schedule invariants: a positive geometry and a
// slot long enough for a worst-case round trip.
func (s Schedule) Validate() error {
	if s.W < 1 || s.H < 1 || s.K < 1 {
		return fmt.Errorf("fastpass: degenerate schedule %+v", s)
	}
	if min := minSlotLen(s.W, s.H); s.K < min {
		return fmt.Errorf("fastpass: slot K=%d shorter than a worst-case round trip %d", s.K, min)
	}
	return nil
}

// Partitions is the number of partitions P (mesh columns).
func (s Schedule) Partitions() int { return s.W }

// PhaseLen is the length of one phase: P slots of K cycles, after which
// every prime has had a lane to every partition.
func (s Schedule) PhaseLen() int { return s.W * s.K }

// Phase returns the phase index in [0, H) at the given cycle.
func (s Schedule) Phase(cycle int64) int {
	return int((cycle / int64(s.PhaseLen())) % int64(s.H))
}

// Slot returns the slot index in [0, P) within the current phase.
func (s Schedule) Slot(cycle int64) int {
	return int(cycle%int64(s.PhaseLen())) / s.K
}

// SlotRemaining returns how many cycles of the current slot are left,
// including the current cycle.
func (s Schedule) SlotRemaining(cycle int64) int {
	return s.K - int(cycle%int64(s.K))
}

// PrimeRow returns the row of the prime router of column col during the
// given phase. Primes sit on a diagonal shifted by the phase: row
// (phase+col) mod H. Distinct columns therefore always map to distinct
// rows, the arrangement §III-E requires for lane/return non-overlap, and
// the prime walks contiguously down its column from phase to phase
// (the "next adjacent router" rule).
func (s Schedule) PrimeRow(col, phase int) int { return (phase + col) % s.H }

// PrimeNode returns the node ID of column col's prime during phase.
func (s Schedule) PrimeNode(col, phase int) int {
	return s.PrimeRow(col, phase)*s.W + col
}

// Covered returns the partition (column) that column col's prime may
// reach during the given slot: a rotation, so over one phase each prime
// covers every partition exactly once and concurrent primes always
// cover pairwise distinct columns.
func (s Schedule) Covered(col, slot int) int { return (col + slot) % s.W }
