// Package hotalloc2 exercises the interprocedural hot-path allocation
// analyzer: a //nocvet:hot root, every allocation idiom, the panic
// exemption, cross-package reachability, the //nocvet:cold rare-event
// boundary, and the suppression path.
package hotalloc2

import (
	"fmt"

	"repro/internal/lint/testdata/src/hotalloc2/deep"
)

type engine struct {
	buf []int
}

//nocvet:hot
func (e *engine) step(n int) {
	e.buf = make([]int, n)
	tmp := &engine{}
	_ = tmp
	var scratch []int
	scratch = append(scratch, n)
	_ = scratch
	f := func() int { return n }
	_ = f()
	fmt.Println("cycle", n)
	e.buf = append([]int{n}, e.buf...)
	deep.Grow()
	warm()
	rederive(n)
	if n < 0 {
		// Exempt: a panicking cycle is not a hot cycle.
		panic(fmt.Sprintf("hotalloc2: negative width %d", n))
	}
}

// warm carries the fixture's one suppressed case.
func warm() {
	//nocvet:ignore hotalloc2 construction-time warm-up, runs once, not per cycle
	_ = make([]byte, 1)
}

// cold is unreachable from any hot root: its allocations are fine.
func cold() []int {
	return make([]int, 64)
}

// rederive is reachable from the hot root but declares itself a
// rare-event boundary: neither its own allocations nor its callees'
// are flagged.
//
//nocvet:cold runs once per rare event, not per cycle
func rederive(n int) []int {
	out := make([]int, n)
	return append(out, deepCold()...)
}

// deepCold is covered by its caller's cold boundary.
func deepCold() []int {
	return make([]int, 8)
}
