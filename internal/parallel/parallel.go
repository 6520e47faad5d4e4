// Package parallel is the deterministic fan-out runner behind the
// experiment stack. Every cell of every figure — one synthetic run, one
// serial rate sweep or bisection, one (app, scheme) run — is an
// independent pure function of its config, so a run's cells can go
// through one pool on all cores at once. The contract this package
// enforces is that parallelism never shows in the output: Map returns
// results in submission order, workers share nothing, and a run at
// `-j 8` is bit-identical to the same run at `-j 1` (a property the
// exp and cmd test suites assert and CI re-checks under the race
// detector).
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a -j style job count: 0 (or any non-positive value)
// means one worker per available core (GOMAXPROCS), anything else is
// taken literally.
func Workers(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// Map applies fn to every item on a bounded pool of Workers(jobs)
// workers and returns the results in submission order: out[i] is always
// fn(items[i]), however the scheduler interleaved the calls. Items start
// in index order, so a caller that lists its longest items first keeps
// the pool's tail short. fn must be safe for concurrent use (in this
// codebase that means: build your own simulator instance and seed your
// own *rand.Rand from the config).
//
// With one worker the items run serially on the calling goroutine, so
// `-j 1` involves no goroutine at all.
//
// Failure is deterministic too: a panic inside fn does not tear down
// the pool — every other item still runs — and afterwards the panic
// from the lowest-indexed failing item is re-raised on the caller,
// whatever order the workers actually hit them in.
func Map[T, R any](jobs int, items []T, fn func(T) R) []R {
	out := make([]R, len(items))
	var (
		next    atomic.Int64 // the next item to start
		mu      sync.Mutex
		failed  = -1 // lowest-indexed item whose fn panicked
		failure any
	)
	work := func() {
		for i := int(next.Add(1) - 1); i < len(items); i = int(next.Add(1) - 1) {
			r, p := call(fn, items[i])
			out[i] = r // each index has one writer
			if p != nil {
				mu.Lock()
				if failed < 0 || i < failed {
					failed, failure = i, p
				}
				mu.Unlock()
			}
		}
	}

	var wg sync.WaitGroup
	for w := min(Workers(jobs), len(items)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if failed >= 0 {
		panic(fmt.Sprintf("parallel: worker for item %d panicked: %v", failed, failure))
	}
	return out
}

// call runs fn on one item, turning a panic into a returned value so
// the pool keeps going.
func call[T, R any](fn func(T) R, item T) (r R, p any) {
	defer func() { p = recover() }()
	return fn(item), nil
}
