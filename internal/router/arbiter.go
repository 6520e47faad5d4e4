package router

import "math/bits"

// RRArbiter is a round-robin arbiter over n requesters. It grants the
// first requesting index at or after the pointer, then advances the
// pointer past the winner, giving every requester bounded waiting — the
// fairness property the paper's prime-router input scan and the router's
// VC/switch allocators both rely on. (Eleven per router: counts are bytes.)
type RRArbiter struct {
	n    uint8
	next uint8
}

// GrantMask returns the winning index among the requesters whose bits
// are set in reqs (no bit at or above n may be set), or -1 when none
// request: the first set bit at or after the pointer, else the lowest.
// The pointer only advances when a grant is issued.
func (a *RRArbiter) GrantMask(reqs uint64) int {
	if reqs == 0 {
		return -1
	}
	i := bits.TrailingZeros64(reqs &^ (1<<a.next - 1))
	if i == 64 {
		i = bits.TrailingZeros64(reqs)
	}
	if a.next = uint8(i + 1); a.next == a.n {
		a.next = 0
	}
	return i
}
