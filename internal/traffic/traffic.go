// Package traffic generates the synthetic workloads of the paper's
// evaluation (Table II): Uniform, Transpose and Shuffle (plus Bit
// Rotation from Fig. 7, Bit Complement and Hotspot for completeness),
// with the 1-flit / 5-flit packet mix tied to message classes the way
// coherence traffic mixes control and data packets.
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/message"
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

// String returns the pattern name.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "Uniform"
	case Transpose:
		return "Transpose"
	case Shuffle:
		return "Shuffle"
	case BitRotation:
		return "BitRotation"
	case BitComplement:
		return "BitComplement"
	case Hotspot:
		return "Hotspot"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
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

	nextID uint64
	out    []*message.Packet // Tick scratch, reused across cycles
}

// logical number of nodes.
func (g *Generator) nodes() int { return g.W * g.H }

// bits returns log2(nodes) when nodes is a power of two, else -1.
func bits(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	if 1<<b != n {
		return -1
	}
	return b
}

// Dest returns the destination for a packet sourced at src. It panics
// for bit-permutation patterns on non-power-of-two networks (the paper
// evaluates 16, 64 and 256 nodes, all powers of two).
func (g *Generator) Dest(rng *rand.Rand, src int) int {
	n := g.nodes()
	switch g.Pattern {
	case Uniform:
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d
	case Transpose:
		x, y := src%g.W, src/g.W
		if g.W != g.H {
			panic("traffic: Transpose requires a square mesh")
		}
		return x*g.W + y
	case Shuffle:
		b := bits(n)
		if b < 0 {
			panic("traffic: Shuffle requires a power-of-two node count")
		}
		return ((src << 1) | (src >> (b - 1))) & (n - 1)
	case BitRotation:
		b := bits(n)
		if b < 0 {
			panic("traffic: BitRotation requires a power-of-two node count")
		}
		return (src >> 1) | ((src & 1) << (b - 1))
	case BitComplement:
		b := bits(n)
		if b < 0 {
			panic("traffic: BitComplement requires a power-of-two node count")
		}
		return ^src & (n - 1)
	case Hotspot:
		frac := g.HotspotFraction
		if frac == 0 {
			frac = 0.2
		}
		if rng.Float64() < frac && src != g.HotspotNode {
			return g.HotspotNode
		}
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d
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
func (g *Generator) Tick(cycle int64, rng *rand.Rand) []*message.Packet {
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
