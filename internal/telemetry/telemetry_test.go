package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// harness is a minimal metered "simulation": a few raw counters the
// slots close over, advanced by hand.
type harness struct {
	created, delivered int64
	latSum, latCnt     int64
	perNode            []int64
}

func newMetered(t *testing.T, opt Options) (*Metrics, *harness) {
	t.Helper()
	h := &harness{perNode: make([]int64, 4)}
	m := New(opt, Meta{Scheme: "FastPass", Pattern: "Uniform", Rate: 0.05, Nodes: 4})
	m.Counter("created", func() int64 { return h.created })
	m.Counter("delivered", func() int64 { return h.delivered })
	m.Gauge("in_flight", func() int64 { return h.created - h.delivered })
	m.BindLatency(func() int64 { return h.latSum }, func() int64 { return h.latCnt })
	m.VecGauge("vc_occ", 2, func(i int) int64 { return int64(i) })
	m.NodeGrid(len(h.perNode), func(i int) int64 { return h.perNode[i] })
	m.Freeze()
	return m, h
}

// step simulates one cycle's worth of activity and ticks the clock.
func (h *harness) step(m *Metrics, cycle int64) {
	h.created += 2
	h.delivered++
	h.latSum += 7
	h.latCnt++
	h.perNode[int(cycle)%len(h.perNode)]++
	m.ObserveLatency(7)
	m.Tick(cycle)
}

func TestWindowRecordsCarryDeltas(t *testing.T) {
	var out bytes.Buffer
	m, h := newMetered(t, Options{Window: 10, JSONL: &out})
	for c := int64(1); c <= 25; c++ {
		h.step(m, c)
	}
	m.Finish(25)
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want meta + 3 records (two full windows + one partial):\n%s", len(lines), out.String())
	}
	// Every line must be valid JSON (the hand-rolled encoder is checked
	// against the real parser, not against itself).
	for i, ln := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, ln)
		}
	}
	for i, want := range []struct{ cycle, span, created int64 }{
		{10, 10, 20}, {20, 10, 20}, {25, 5, 10},
	} {
		var r struct {
			Window, Cycle, Span int64
			Counters            struct{ Created int64 }
			Lat                 struct{ Samples, Sum int64 }
		}
		if err := json.Unmarshal([]byte(lines[i+1]), &r); err != nil {
			t.Fatal(err)
		}
		if r.Window != int64(i) || r.Cycle != want.cycle || r.Span != want.span || r.Counters.Created != want.created {
			t.Errorf("record %d: window=%d cycle=%d span=%d created=%d, want %+v", i, r.Window, r.Cycle, r.Span, r.Counters.Created, want)
		}
		if r.Lat.Samples != r.Span || r.Lat.Sum != 7*r.Span {
			t.Errorf("record %d: lat samples=%d sum=%d, want %d/%d", i, r.Lat.Samples, r.Lat.Sum, r.Span, 7*r.Span)
		}
	}
	if !strings.Contains(lines[0], `"meta"`) || !strings.Contains(lines[0], `"scheme":"FastPass"`) {
		t.Errorf("first line is not the meta record: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"counters":{"created":20,"delivered":10}`) {
		t.Errorf("record line lacks expected counter deltas: %s", lines[1])
	}
	if !strings.Contains(lines[1], `"mean":7`) {
		t.Errorf("record line lacks latency mean: %s", lines[1])
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1 << 40, -5} {
		h.Observe(v)
	}
	wantCounts := map[int]int64{0: 2, 1: 1, 2: 2, 3: 3, 4: 1, NumBuckets - 1: 1}
	// -5 clamps into bucket 0; 4 and 7 share bucket 3; 8 is bucket 4;
	// 1<<40 overflows into the last bucket.
	wantCounts[3] = 2
	wantCounts[4] = 1
	for b := 0; b < NumBuckets; b++ {
		if h.Count(b) != wantCounts[b] {
			t.Errorf("bucket %d: got %d, want %d", b, h.Count(b), wantCounts[b])
		}
	}
	if h.Total() != 9 {
		t.Errorf("total %d, want 9", h.Total())
	}
}

func TestCSVGridRows(t *testing.T) {
	var node bytes.Buffer
	m, h := newMetered(t, Options{Window: 4, NodeCSV: &node})
	for c := int64(1); c <= 8; c++ {
		h.step(m, c)
	}
	got := node.String()
	want := "window,cycle,span,n0,n1,n2,n3\n" +
		"0,4,4,1,1,1,1\n" +
		"1,8,4,1,1,1,1\n"
	if got != want {
		t.Errorf("node CSV:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotRoundTripEmitsIdenticalTail checkpoints mid-window,
// restores into a fresh Metrics, and checks the resumed stream
// concatenates to the uninterrupted one byte for byte.
func TestSnapshotRoundTripEmitsIdenticalTail(t *testing.T) {
	var full bytes.Buffer
	mf, hf := newMetered(t, Options{Window: 10, JSONL: &full})
	for c := int64(1); c <= 37; c++ {
		hf.step(mf, c)
	}
	mf.Finish(37)

	var head bytes.Buffer
	m1, h1 := newMetered(t, Options{Window: 10, JSONL: &head})
	for c := int64(1); c <= 23; c++ { // checkpoint at a non-multiple of the window
		h1.step(m1, c)
	}
	w := snapshot.NewWriter()
	m1.SnapshotState(w)

	var tail bytes.Buffer
	m2, h2 := newMetered(t, Options{Window: 10, JSONL: &tail})
	m2.RestoreState(snapshot.NewReader(w.Bytes()))
	*h2 = *h1 // the layers' counters restore through their own snapshots
	h2.perNode = append([]int64(nil), h1.perNode...)
	// Re-bind the grid reader onto the restored harness copy.
	m2.node.read = func(i int) int64 { return h2.perNode[i] }
	for c := int64(24); c <= 37; c++ {
		h2.step(m2, c)
	}
	m2.Finish(37)

	if got, want := head.String()+tail.String(), full.String(); got != want {
		t.Errorf("split stream differs from uninterrupted:\n--- split ---\n%s--- full ---\n%s", got, want)
	}
	if rw, fw := m2.Windows(), mf.Windows(); rw != fw {
		t.Errorf("restored run closed %d windows, uninterrupted %d", rw, fw)
	}
}

func TestRestoreShapeMismatchFails(t *testing.T) {
	m1, _ := newMetered(t, Options{Window: 10})
	w := snapshot.NewWriter()
	m1.SnapshotState(w)

	m2 := New(Options{Window: 10}, Meta{})
	m2.Counter("only_one", func() int64 { return 0 })
	m2.Freeze()
	r := snapshot.NewReader(w.Bytes())
	m2.RestoreState(r)
	if r.Err() == nil {
		t.Fatal("restore into a differently-shaped Metrics should fail")
	}
}

func TestSinkErrorIsStickyAndHarmless(t *testing.T) {
	m, h := newMetered(t, Options{Window: 2, JSONL: failWriter{}})
	for c := int64(1); c <= 8; c++ {
		h.step(m, c)
	}
	if m.Err() == nil {
		t.Fatal("sink error not surfaced")
	}
	if m.Windows() != 4 {
		t.Errorf("window machinery stopped on sink error: %d windows, want 4", m.Windows())
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// TestCloseIsAllocAmortized pins the window-close cost: after the emit
// buffers warm up, a close into a discarding sink settles to (near)
// zero allocations, so even window=1 telemetry cannot break the
// simulator's alloc budget by more than the documented amortisation.
func TestCloseIsAllocAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m, h := newMetered(t, Options{Window: 1, JSONL: io.Discard, NodeCSV: io.Discard})
	cycle := int64(0)
	tick := func() {
		cycle++
		h.step(m, cycle)
	}
	for i := 0; i < 64; i++ {
		tick()
	}
	// Counted from MemStats and divided as a fraction: AllocsPerRun
	// rounds anything under one object per call down to zero.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		tick()
	}
	runtime.ReadMemStats(&after)
	if avg := float64(after.Mallocs-before.Mallocs) / 200; avg > 0.05 {
		t.Errorf("window close allocates %.3f times on average after warmup, want ~0", avg)
	}
}

// Count reports the samples in bucket b.
func (h *Hist) Count(b int) int64 { return h.counts[b] }

// Total reports all samples observed.
func (h *Hist) Total() int64 {
	var t int64
	for _, c := range h.counts {
		t += c
	}
	return t
}
