package router

import "math/bits"

// RRArbiter is a round-robin arbiter over n requesters. It grants the
// first requesting index at or after the pointer, then advances the
// pointer past the winner, giving every requester bounded waiting — the
// fairness property the paper's prime-router input scan and the router's
// VC/switch allocators both rely on.
type RRArbiter struct {
	n    int
	next int
}

// NewRRArbiter creates an arbiter over n requesters.
func NewRRArbiter(n int) *RRArbiter {
	if n < 1 {
		panic("router: arbiter needs at least one requester")
	}
	return &RRArbiter{n: n}
}

// Grant returns the winning index among the requesters for which
// request(i) is true, or -1 when none request. The pointer only advances
// when a grant is issued.
func (a *RRArbiter) Grant(request func(i int) bool) int {
	for k := 0; k < a.n; k++ {
		i := (a.next + k) % a.n
		if request(i) {
			a.next = (i + 1) % a.n
			return i
		}
	}
	return -1
}

// GrantMask is Grant over a request mask, bit i for requester i (no bit
// at or above n may be set; n ≤ 64): the first set bit at or after the
// pointer, else the lowest — the same winner, and the same pointer
// afterwards, as Grant.
func (a *RRArbiter) GrantMask(reqs uint64) int {
	if reqs == 0 {
		return -1
	}
	i := bits.TrailingZeros64(reqs &^ (1<<a.next - 1))
	if i == 64 {
		i = bits.TrailingZeros64(reqs)
	}
	a.next = (i + 1) % a.n
	return i
}
