package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/message"
	"repro/internal/snapshot"
)

func TestPatternStrings(t *testing.T) {
	for _, p := range Patterns() {
		if p.String() == "" || p.String() == "Pattern(99)" {
			t.Errorf("pattern %d has bad name %q", p, p)
		}
	}
}

// Every pattern's name is unique and parses back to it; an unknown name
// is rejected.
func TestParsePattern(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Patterns() {
		if seen[p.String()] {
			t.Errorf("duplicate pattern %v", p)
		}
		seen[p.String()] = true
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePattern(%v): %v, %v", p, got, err)
		}
	}
	if _, err := ParsePattern("Nope"); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestTranspose(t *testing.T) {
	g := &Generator{Pattern: Transpose, W: 4, H: 4}
	rng := rand.New(rand.NewSource(1))
	// (x,y) -> (y,x): node 1 = (1,0) -> (0,1) = node 4.
	if d := g.Dest(rng, 1); d != 4 {
		t.Errorf("Transpose(1) = %d, want 4", d)
	}
	// Diagonal maps to itself.
	if d := g.Dest(rng, 5); d != 5 {
		t.Errorf("Transpose(5) = %d, want 5", d)
	}
}

func TestShuffleAndRotationAreInverses(t *testing.T) {
	g1 := &Generator{Pattern: Shuffle, W: 8, H: 8}
	g2 := &Generator{Pattern: BitRotation, W: 8, H: 8}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 64; s++ {
		if got := g2.Dest(rng, g1.Dest(rng, s)); got != s {
			t.Fatalf("rotate(shuffle(%d)) = %d", s, got)
		}
	}
}

func TestBitComplement(t *testing.T) {
	g := &Generator{Pattern: BitComplement, W: 4, H: 4}
	rng := rand.New(rand.NewSource(1))
	if d := g.Dest(rng, 0); d != 15 {
		t.Errorf("BitComplement(0) = %d, want 15", d)
	}
	if d := g.Dest(rng, 5); d != 10 {
		t.Errorf("BitComplement(5) = %d, want 10", d)
	}
}

func TestUniformNeverSelf(t *testing.T) {
	g := &Generator{Pattern: Uniform, W: 4, H: 4}
	rng := rand.New(rand.NewSource(2))
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		d := g.Dest(rng, 5)
		if d == 5 {
			t.Fatal("uniform destination equals source")
		}
		counts[d]++
	}
	// Roughly uniform over the 15 other nodes.
	for d, k := range counts {
		if d == 5 {
			continue
		}
		if k < 800 || k > 1400 {
			t.Errorf("node %d drew %d of 16000 (expected ~1067)", d, k)
		}
	}
}

func TestHotspotBias(t *testing.T) {
	g := &Generator{Pattern: Hotspot, W: 4, H: 4, HotspotNode: 0, HotspotFraction: 0.5}
	rng := rand.New(rand.NewSource(3))
	hot := 0
	n := 10000
	for i := 0; i < n; i++ {
		if g.Dest(rng, 7) == 0 {
			hot++
		}
	}
	frac := float64(hot) / float64(n)
	if frac < 0.45 || frac < 0.2 {
		// 0.5 direct + ~1/15 of the uniform remainder.
		t.Errorf("hotspot fraction = %v", frac)
	}
}

func TestTickRateAndMix(t *testing.T) {
	g := &Generator{Pattern: Uniform, W: 8, H: 8, Rate: 0.1}
	rng := rand.New(rand.NewSource(4))
	cycles := 2000
	var pkts []*message.Packet
	for c := 0; c < cycles; c++ {
		pkts = append(pkts, g.Tick(int64(c), rng)...)
	}
	got := float64(len(pkts)) / float64(cycles) / 64.0
	if math.Abs(got-0.1) > 0.01 {
		t.Errorf("offered rate = %v, want ~0.1", got)
	}
	ones, fives := 0, 0
	ids := map[uint64]bool{}
	for _, p := range pkts {
		if p.Class != message.Request {
			t.Fatal("synthetic traffic rides a single vnet (Request class)")
		}
		switch p.Len {
		case CtrlLen:
			ones++
		case DataLen:
			fives++
		default:
			t.Fatalf("unexpected length %d", p.Len)
		}
		if ids[p.ID] {
			t.Fatal("duplicate packet ID")
		}
		ids[p.ID] = true
		if p.Src == p.Dst {
			t.Fatal("self-addressed packet emitted")
		}
	}
	if ones == 0 || fives == 0 {
		t.Error("mix should contain both packet sizes")
	}
	// Table II: a 50/50 mix of 1-flit and 5-flit packets.
	frac := float64(fives) / float64(ones+fives)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("data fraction = %v, want ~0.5", frac)
	}
}

// Property: all patterns stay in range on an 8x8 mesh.
func TestDestInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range Patterns() {
		g := &Generator{Pattern: p, W: 8, H: 8}
		f := func(raw uint8) bool {
			src := int(raw) % 64
			d := g.Dest(rng, src)
			return d >= 0 && d < 64
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
}

func TestTransposePanicsOnNonSquare(t *testing.T) {
	g := &Generator{Pattern: Transpose, W: 4, H: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Dest(rand.New(rand.NewSource(1)), 1)
}

func TestShufflePanicsOnNonPowerOfTwo(t *testing.T) {
	g := &Generator{Pattern: Shuffle, W: 3, H: 3}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Dest(rand.New(rand.NewSource(1)), 1)
}

// TestPatternCheck: Check accepts exactly the meshes Dest is defined on.
func TestPatternCheck(t *testing.T) {
	for _, tc := range []struct {
		p    Pattern
		w, h int
		ok   bool
	}{
		{Uniform, 6, 6, true}, {Hotspot, 3, 5, true},
		{Transpose, 6, 6, true}, {Transpose, 4, 2, false},
		{Shuffle, 8, 8, true}, {Shuffle, 6, 6, false}, {Shuffle, 4, 2, true},
		{BitRotation, 3, 3, false}, {BitComplement, 5, 4, false}, {BitComplement, 16, 16, true},
		// A checkpoint's config decodes any integer as its pattern.
		{Pattern(-30), 4, 4, false}, {Hotspot + 1, 4, 4, false},
	} {
		if err := tc.p.Check(tc.w, tc.h); (err == nil) != tc.ok {
			t.Errorf("%v.Check(%d, %d) = %v, want ok=%v", tc.p, tc.w, tc.h, err, tc.ok)
		}
	}
}

// refTick is Tick as it stood before the injection draw became an
// integer compare and a scan of the source's own state: one Float64 per
// node per cycle. Kept verbatim as the lockstep reference.
func refTick(g *Generator, cycle int64, rng *rand.Rand) []*message.Packet {
	out := g.out[:0]
	for src := 0; src < g.nodes(); src++ {
		if rng.Float64() >= g.Rate {
			continue
		}
		dst := g.Dest(rng, src)
		if dst == src {
			continue
		}
		cl, ln := classMix(rng)
		g.nextID++
		if g.Pool != nil {
			out = append(out, g.Pool.Get(g.nextID, src, dst, cl, ln, cycle))
		} else {
			out = append(out, message.NewPacket(g.nextID, src, dst, cl, ln, cycle))
		}
	}
	g.out = out
	return out
}

// drawCounter is what the lockstep needs of a source: the stream and
// how far into it the generator has read.
type drawCounter interface {
	rand.Source64
	Draws() uint64
}

// lockstep steps refTick and Tick over twin sources and demands the same
// packets and the same stream position after every cycle.
func lockstep(t *testing.T, name string, cfg Generator, refSrc, src drawCounter, cycles int) (packets int) {
	t.Helper()
	ref, gen := cfg, cfg
	ref.Stream = nil
	refRng, rng := rand.New(refSrc), rand.New(src)
	for c := int64(0); c < int64(cycles); c++ {
		want, got := refTick(&ref, c, refRng), gen.Tick(c, rng)
		if len(want) != len(got) {
			t.Fatalf("%s cycle %d: %d packets, reference %d", name, c, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.ID != w.ID || g.Src != w.Src || g.Dst != w.Dst || g.Class != w.Class || g.Len != w.Len || g.CreateTime != w.CreateTime {
				t.Fatalf("%s cycle %d packet %d: %+v, reference %+v", name, c, i, *g, *w)
			}
		}
		if refSrc.Draws() != src.Draws() {
			t.Fatalf("%s cycle %d: %d draws, reference %d", name, c, src.Draws(), refSrc.Draws())
		}
		packets += len(got)
	}
	return packets
}

// TestTickMatchesReference: every pattern, from an idle network to one
// where every node injects every cycle, with the draws scanned through
// Stream and taken one rng.Int63 at a time.
func TestTickMatchesReference(t *testing.T) {
	for _, p := range Patterns() {
		for _, rate := range []float64{0, 5e-4, 0.05, 0.22, 1} {
			for _, size := range []int{4, 8, 16} {
				for _, stream := range []bool{true, false} {
					name := fmt.Sprintf("%v rate %v %dx%d stream=%v", p, rate, size, size, stream)
					seed := int64(size)*1000 + int64(p)
					src := snapshot.NewCountingSource(seed)
					cfg := Generator{Pattern: p, Rate: rate, W: size, H: size, HotspotNode: 3}
					if stream {
						cfg.Stream = src
					}
					n := lockstep(t, name, cfg, snapshot.NewCountingSource(seed), src, 6000/size)
					if (n > 0) != (rate > 0) {
						t.Errorf("%s: %d packets", name, n)
					}
				}
			}
		}
	}
}

// scripted replays a fixed list of 63-bit draws, then a constant.
type scripted struct {
	vals []int64
	n    uint64
}

func (s *scripted) Int63() int64 {
	v := int64(1) << 62
	if s.n < uint64(len(s.vals)) {
		v = s.vals[s.n]
	}
	s.n++
	return v
}
func (s *scripted) Uint64() uint64 { return uint64(s.Int63()) }
func (s *scripted) Seed(int64)     {}
func (s *scripted) Draws() uint64  { return s.n }

// TestThresholdBoundaries: thr and redo sit exactly on Float64's
// rounding edges, and a draw on either side of each decides as
// `rng.Float64() < rate` does — including the redraw at redo, which
// consumes a second value.
func TestThresholdBoundaries(t *testing.T) {
	quo := func(v int64) float64 { return float64(v) / (1 << 63) }
	for _, rate := range []float64{0, 1, 1e-12, 0.5, 0.0005, math.Nextafter(1, 0), 2, -1} {
		thr := threshold(rate)
		if quo(redo) != 1 || quo(redo-1) == 1 {
			t.Fatalf("redo = %d: not the smallest draw Float64 rounds to 1.0", redo)
		}
		if thr < 0 || thr > redo || (thr < redo && quo(thr) < rate) || (thr > 0 && quo(thr-1) >= rate) {
			t.Fatalf("rate %v: thr = %d is not the smallest draw whose quotient reaches it", rate, thr)
		}
		// Two nodes, each addressed to the other: the first draw of a
		// cycle is node 0's injection draw.
		cfg := Generator{Pattern: BitComplement, Rate: rate, W: 2, H: 1}
		for _, v := range []int64{0, thr - 1, thr, thr + 1, redo - 1, redo, redo + 1, math.MaxInt64} {
			for _, next := range []int64{0, thr - 1, thr, redo} {
				if v < 0 || next < 0 {
					continue
				}
				name := fmt.Sprintf("rate %v draws %d,%d", rate, v, next)
				lockstep(t, name, cfg, &scripted{vals: []int64{v, next}}, &scripted{vals: []int64{v, next}}, 3)
			}
		}
	}
}
