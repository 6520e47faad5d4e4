// Package traffic generates the synthetic workloads of the paper's
// evaluation (Table II): Uniform, Transpose and Shuffle (plus Bit
// Rotation from Fig. 7, Bit Complement and Hotspot for completeness),
// with the 1-flit / 5-flit packet mix tied to message classes the way
// coherence traffic mixes control and data packets.
package traffic

import (
	"fmt"
	mbits "math/bits"
	"math/rand"

	"repro/internal/message"
	"repro/internal/snapshot"
)

// Pattern names a synthetic destination distribution.
type Pattern int

// Supported patterns.
const (
	Uniform Pattern = iota
	Transpose
	Shuffle
	BitRotation
	BitComplement
	Hotspot
)

var patternNames = [...]string{"Uniform", "Transpose", "Shuffle", "BitRotation", "BitComplement", "Hotspot"}

// String returns the pattern name.
func (p Pattern) String() string {
	if p < 0 || int(p) >= len(patternNames) {
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
	return patternNames[p]
}

// Patterns lists every supported pattern.
func Patterns() []Pattern {
	return []Pattern{Uniform, Transpose, Shuffle, BitRotation, BitComplement, Hotspot}
}

// ParsePattern resolves a pattern by its String name.
func ParsePattern(name string) (Pattern, error) {
	for _, p := range Patterns() {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown pattern %q", name)
}

// Check reports whether the pattern is one of Patterns and defined on a
// w×h mesh: Transpose
// swaps coordinates, the bit permutations act on log2(nodes) address
// bits.
func (p Pattern) Check(w, h int) error {
	switch {
	case p < 0 || int(p) >= len(patternNames):
		return fmt.Errorf("traffic: unknown pattern %d", int(p)) //nocvet:ignore hotalloc2 error path
	case p == Transpose && w != h:
		return fmt.Errorf("traffic: %v requires a square mesh, not %dx%d", p, w, h) //nocvet:ignore hotalloc2 error path
	case (p == Shuffle || p == BitRotation || p == BitComplement) && bits(w*h) < 0:
		return fmt.Errorf("traffic: %v requires a power-of-two node count, not %d", p, w*h) //nocvet:ignore hotalloc2 error path
	}
	return nil
}

// DataLen and CtrlLen are the two packet sizes of the Table II mix.
const (
	CtrlLen = 1
	DataLen = 5
)

// Generator produces an open-loop Bernoulli injection process at a given
// rate per node.
type Generator struct {
	// Pattern picks destinations.
	Pattern Pattern
	// Rate is the injection rate in packets/node/cycle.
	Rate float64
	// W, H are mesh dimensions (Transpose and the bit patterns need the
	// geometry).
	W, H int
	// HotspotNode receives the biased share under Hotspot.
	HotspotNode int
	// HotspotFraction of packets target HotspotNode (default 0.2).
	HotspotFraction float64

	// Pool, when set, is the packet arena new packets are drawn from;
	// its owner wired the ejection side to release each delivered packet
	// (sim.Instance.UsePool, every scheme). Nil = plain allocation.
	Pool *message.Pool
	// Stream, when set, must be the source behind the rng passed to
	// Tick: the injection draws then scan it directly (ScanBelow), from
	// one injecting node to the next. Nil = one rng.Int63 at a time.
	Stream *snapshot.CountingSource

	nextID uint64
	out    []*message.Packet // Tick scratch, reused across cycles
	// thr restates `rng.Float64() < thrRate` on the raw 63-bit draw.
	thr     int64
	thrRate float64
}

// logical number of nodes.
func (g *Generator) nodes() int { return g.W * g.H }

// bits returns log2(n) when n is a power of two, else -1.
func bits(n int) int {
	if n < 1 || n&(n-1) != 0 {
		return -1
	}
	return mbits.TrailingZeros(uint(n))
}

// redo is the smallest 63-bit draw v that rand.Float64 redraws: the
// first whose float64(v)/(1<<63) rounds up to 1.0 (float64 keeps 53
// bits, so the last 512 values below 1<<63 round to it).
const redo = 1<<63 - 512

// threshold returns the smallest draw whose quotient float64(v)/(1<<63)
// reaches rate, redo when none does: the quotient is monotone in v and
// the division exact, so `rng.Float64() < rate` is `v < threshold(rate)`
// for every draw Float64 does not redraw.
func threshold(rate float64) int64 {
	lo, hi := int64(0), int64(redo)
	for lo < hi {
		if mid := lo + (hi-lo)/2; float64(mid)/(1<<63) >= rate {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Dest returns the destination for a packet sourced at src. It panics
// for a pattern that fails Check on this mesh (the paper evaluates 16,
// 64 and 256 nodes, all powers of two); sim.SynthConfig.Validate turns
// such a configuration away first.
func (g *Generator) Dest(rng *rand.Rand, src int) int {
	if err := g.Pattern.Check(g.W, g.H); err != nil {
		panic(err) //nocvet:ignore panicstyle Check builds its errors with the "traffic: " prefix
	}
	n := g.nodes()
	switch g.Pattern {
	case Hotspot:
		frac := g.HotspotFraction
		if frac == 0 {
			frac = 0.2
		}
		if rng.Float64() < frac && src != g.HotspotNode {
			return g.HotspotNode
		}
		fallthrough
	case Uniform:
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d
	case Transpose:
		return src%g.W*g.W + src/g.W
	case Shuffle:
		return ((src << 1) | (src >> (bits(n) - 1))) & (n - 1)
	case BitRotation:
		return (src >> 1) | ((src & 1) << (bits(n) - 1))
	case BitComplement:
		return ^src & (n - 1)
	default:
		panic(fmt.Sprintf("traffic: unknown pattern %d", int(g.Pattern)))
	}
}

// classMix draws the Table II synthetic mix: half 1-flit and half
// 5-flit packets, all in one message class. Like Garnet's synthetic
// mode — which injects into a single virtual network — this leaves the
// VN-based baselines' other virtual networks idle: their buffers are
// partitioned for the coherence protocol and cannot be pooled, while
// the VN-free schemes (FastPass, Pitstop) share their whole VC pool
// across whatever traffic arrives. That asymmetry is the paper's core
// buffer-utilisation argument and is what the Fig. 7/8 gaps measure.
func classMix(rng *rand.Rand) (message.Class, int) {
	if rng.Intn(2) == 0 {
		return message.Request, CtrlLen
	}
	return message.Request, DataLen
}

// Tick performs one cycle of Bernoulli injection and returns the packets
// created this cycle (one per node at most). Destinations equal to the
// source are suppressed (bit patterns map some nodes to themselves). The
// returned slice is reused on the next call.
//
//nocvet:hot
func (g *Generator) Tick(cycle int64, rng *rand.Rand) []*message.Packet {
	if g.thrRate != g.Rate { // the zero value is right: threshold(0) == 0
		g.thr, g.thrRate = threshold(g.Rate), g.Rate
	}
	out, n := g.out[:0], g.nodes()
	for src := 0; src < n; src++ {
		if g.Stream != nil {
			skipped, hit := g.Stream.ScanBelow(g.thr, redo, n-src)
			if src += skipped; !hit {
				break
			}
		} else {
			v := rng.Int63()
			for v >= redo {
				v = rng.Int63()
			}
			if v >= g.thr {
				continue
			}
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
