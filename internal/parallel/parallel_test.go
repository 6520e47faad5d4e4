package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		jobs, want int
	}{
		{jobs: 0, want: cores},
		{jobs: -3, want: cores},
		{jobs: 1, want: 1},
		{jobs: 5, want: 5},
	} {
		if got := Workers(tc.jobs); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.jobs, got, tc.want)
		}
	}
}

// TestMapOrdering checks that results land at their submission index
// even when items deliberately finish in reverse order.
func TestMapOrdering(t *testing.T) {
	for _, jobs := range []int{1, 2, 4, 16, 0} {
		items := make([]int, 32)
		for i := range items {
			items[i] = i
		}
		out := Map(jobs, items, func(i int) int {
			// Early items sleep longest, so under any real parallelism
			// the completions arrive back-to-front.
			time.Sleep(time.Duration(len(items)-i) * time.Millisecond / 4)
			return i * i
		})
		if len(out) != len(items) {
			t.Fatalf("jobs=%d: %d results for %d items", jobs, len(out), len(items))
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

// TestMapSerialEquivalence is the -j 1 contract at the runner level:
// any worker count produces the slice the plain loop produces.
func TestMapSerialEquivalence(t *testing.T) {
	items := []string{"a", "bb", "ccc", "dddd", "eeeee"}
	fn := func(s string) int { return len(s) * 10 }
	serial := Map(1, items, fn)
	for _, jobs := range []int{2, 3, 8, 0} {
		got := Map(jobs, items, fn)
		for i := range serial {
			if got[i] != serial[i] {
				t.Errorf("jobs=%d: out[%d] = %d, want %d", jobs, i, got[i], serial[i])
			}
		}
	}
}

// TestMapPanic checks panic propagation: the pool finishes the other
// items, then re-raises the lowest-indexed worker panic on the caller.
func TestMapPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		jobs int
		want string
	}{
		{name: "serial", jobs: 1, want: "item 3"},
		{name: "parallel", jobs: 4, want: "item 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var finished [8]bool
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("Map swallowed the worker panic")
					}
					msg, ok := r.(string)
					if !ok || !strings.Contains(msg, tc.want) || !strings.Contains(msg, "boom") {
						t.Fatalf("panic %v does not attribute %q", r, tc.want)
					}
				}()
				Map(tc.jobs, []int{0, 1, 2, 3, 4, 5, 6, 7}, func(i int) int {
					if i == 3 || i == 6 {
						panic("boom")
					}
					finished[i] = true
					return i
				})
			}()
			// The pool must not abandon work on a panic, serial or not.
			for _, i := range []int{0, 1, 2, 4, 5, 7} {
				if !finished[i] {
					t.Errorf("item %d never ran after the panic", i)
				}
			}
		})
	}
}

func TestMapEmptyAndOversizedPool(t *testing.T) {
	if out := Map(8, nil, func(i int) int { return i }); len(out) != 0 {
		t.Errorf("empty input produced %d results", len(out))
	}
	out := Map(100, []int{1, 2}, func(i int) int { return i + 1 })
	if out[0] != 2 || out[1] != 3 {
		t.Errorf("oversized pool returned %v", out)
	}
}

// TestMapConcurrencyBound checks the pool's size: Map never runs more
// than Workers(jobs) calls at once, and at -j 1 exactly one.
func TestMapConcurrencyBound(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		var running, peak atomic.Int64
		Map(jobs, make([]int, 4*jobs), func(int) int {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
			return 0
		})
		if got := peak.Load(); got > int64(Workers(jobs)) {
			t.Errorf("jobs=%d: %d calls ran at once, want at most %d", jobs, got, Workers(jobs))
		}
		if jobs == 1 && peak.Load() != 1 {
			t.Errorf("jobs=1: peak concurrency %d, want 1", peak.Load())
		}
	}
}
