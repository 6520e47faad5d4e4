// Package parallel is the deterministic fan-out runner behind the
// experiment stack. Every point of every figure — one (scheme, pattern,
// rate) synthetic run, one (app, scheme) cell, one saturation probe —
// is an independent pure function of its config, so the figures can be
// regenerated on all cores at once. The contract this package enforces
// is that parallelism never shows in the output: Map returns results in
// submission order, workers share nothing, and a run at `-j 8` is
// bit-identical to the same run at `-j 1` (a property the sim and exp
// test suites assert and CI re-checks under the race detector).
package parallel

import (
	"fmt"
	"runtime"
	"sync"
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
// fn(items[i]), however the scheduler interleaved the calls. fn must be
// safe for concurrent use (in this codebase that means: build your own
// simulator instance and seed your own *rand.Rand from the config).
//
// With one worker the items run serially on the calling goroutine, so
// `-j 1` involves no goroutine at all.
//
// Failure is deterministic too: a panic inside fn does not tear down
// the pool — every other item still runs — and afterwards the panic
// from the lowest-indexed failing item is re-raised on the caller,
// whatever order the workers actually hit them in.
func Map[T, R any](jobs int, items []T, fn func(T) R) []R {
	return MapUntil(jobs, items, fn, nil)
}

// MapUntil is Map with an early stop. Items start in index order; after
// each one completes, cut (when non-nil) is shown the longest completed
// prefix of the results, and once it reports a cutoff n no item at or
// past n starts. With one worker that is exactly the serial loop that
// breaks at the cutoff. With more, items past n may already have
// started when the cutoff becomes known; out[n:] is then undefined.
//
// cut must be a function of the prefix alone, and once it reports a
// cutoff it must report the same one for every longer prefix: then the
// cutoff, and so out[:n], are the same at any worker count. It runs
// under the pool's lock.
//
// Panics follow Map's rule — the lowest-indexed one is re-raised once
// every started item has finished — except that a panic from an item
// at or past the final cutoff is dropped, since the serial loop never
// starts that item. A panicking item leaves its zero R in the prefix.
func MapUntil[T, R any](jobs int, items []T, fn func(T) R, cut func(done []R) (int, bool)) []R {
	out := make([]R, len(items))
	finished := make([]bool, len(items))
	var (
		mu           sync.Mutex
		next, prefix int
		limit        = len(items) // no item at or past limit starts
		failed       = -1         // lowest-indexed item whose fn panicked
		failure      any
	)
	work := func() {
		mu.Lock()
		defer mu.Unlock()
		for next < limit {
			i := next
			next++
			mu.Unlock()
			r, p := call(fn, items[i])
			mu.Lock()
			out[i], finished[i] = r, true
			if p != nil && (failed < 0 || i < failed) {
				failed, failure = i, p
			}
			for prefix < len(finished) && finished[prefix] {
				prefix++
			}
			if cut != nil {
				if n, ok := cut(out[:prefix]); ok {
					limit, cut = min(n, limit), nil
				}
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
	if failed >= 0 && failed < limit {
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
