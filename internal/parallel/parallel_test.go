package parallel

import (
	"runtime"
	"slices"
	"strings"
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

// stopAtNegative is a MapUntil cut: the cutoff is one past the first
// negative result.
func stopAtNegative(done []int) (int, bool) {
	for i, v := range done {
		if v < 0 {
			return i + 1, true
		}
	}
	return len(done), false
}

// TestMapUntilSerialStops is the early-stop contract at -j 1: fn never
// runs on an item at or past the cutoff.
func TestMapUntilSerialStops(t *testing.T) {
	calls := make([]int, 8)
	out := MapUntil(1, []int{0, 1, 2, 3, 4, 5, 6, 7}, func(i int) int {
		calls[i]++
		if i == 3 {
			return -1
		}
		return i
	}, stopAtNegative)
	for i, c := range calls {
		want := 0
		if i < 4 {
			want = 1
		}
		if c != want {
			t.Errorf("item %d ran %d times, want %d", i, c, want)
		}
	}
	if !slices.Equal(out[:4], []int{0, 1, 2, -1}) {
		t.Errorf("out[:4] = %v, want [0 1 2 -1]", out[:4])
	}
}

// TestMapUntilJobsEquivalence checks that out[:n] at -j 8 is the -j 1
// result while items finish out of order.
func TestMapUntilJobsEquivalence(t *testing.T) {
	items := make([]int, 24)
	for i := range items {
		items[i] = i
	}
	fn := func(i int) int {
		time.Sleep(time.Duration(len(items)-i) * time.Millisecond / 4)
		if i == 9 {
			return -1
		}
		return i * 3
	}
	serial := MapUntil(1, items, fn, stopAtNegative)
	n, _ := stopAtNegative(serial)
	if n != 10 {
		t.Fatalf("serial cutoff %d, want 10", n)
	}
	got := MapUntil(8, items, fn, stopAtNegative)
	for i := 0; i < n; i++ {
		if got[i] != serial[i] {
			t.Errorf("-j 8: out[%d] = %d, want %d", i, got[i], serial[i])
		}
	}
}

// TestMapUntilPanicPastCutoff forces a speculative item to panic: item
// 0 fixes the cutoff only once item 3 has started. Past the cutoff the
// panic is dropped, as the serial loop would never have run the item;
// below it the panic is re-raised with its index.
func TestMapUntilPanicPastCutoff(t *testing.T) {
	for _, tc := range []struct {
		cutoff int
		want   string // "" = no panic
	}{
		{cutoff: 1, want: ""},
		{cutoff: 4, want: "item 3"},
	} {
		started3 := make(chan struct{})
		var got any
		func() {
			defer func() { got = recover() }()
			MapUntil(4, []int{0, 1, 2, 3}, func(i int) int {
				switch i {
				case 0:
					<-started3
					return -1
				case 3:
					close(started3)
					panic("late")
				}
				return i
			}, func(done []int) (int, bool) {
				return tc.cutoff, len(done) > 0
			})
		}()
		msg, _ := got.(string)
		switch {
		case tc.want == "" && got != nil:
			t.Errorf("cutoff %d: panic %v past the cutoff was re-raised", tc.cutoff, got)
		case tc.want != "" && !strings.Contains(msg, tc.want):
			t.Errorf("cutoff %d: panic %v, want one attributing %q", tc.cutoff, got, tc.want)
		}
	}
}
