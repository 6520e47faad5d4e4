package message

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClassStrings(t *testing.T) {
	names := map[Class]string{
		Request: "Request", Forward: "Forward", Invalidate: "Invalidate",
		WriteBack: "WriteBack", Response: "Response", Unblock: "Unblock",
	}
	seen := map[string]bool{}
	for c, want := range names {
		got := c.String()
		if got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
		if seen[got] {
			t.Errorf("duplicate class name %q", got)
		}
		seen[got] = true
	}
	if got := Class(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown class String = %q", got)
	}
}

func TestNumClasses(t *testing.T) {
	if NumClasses != 6 {
		t.Fatalf("the paper's MOESI Hammer setup needs 6 classes, have %d", NumClasses)
	}
}

// flitsOf expands a packet into its flit sequence.
func flitsOf(p *Packet) []Flit {
	fs := make([]Flit, p.Len)
	for i := range fs {
		fs[i] = Flit{Pkt: p, Seq: i}
	}
	return fs
}

func TestFlitsHeadTail(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		p := &Packet{ID: 1, Len: n}
		fs := flitsOf(p)
		if len(fs) != n {
			t.Fatalf("len %d: got %d flits", n, len(fs))
		}
		if !fs[0].IsHead() {
			t.Error("first flit must be head")
		}
		if !fs[n-1].IsTail() {
			t.Error("last flit must be tail")
		}
		for i, f := range fs {
			if f.Seq != i {
				t.Errorf("flit %d has seq %d", i, f.Seq)
			}
			if i > 0 && f.IsHead() {
				t.Errorf("flit %d claims to be head", i)
			}
			if i < n-1 && f.IsTail() {
				t.Errorf("flit %d claims to be tail", i)
			}
		}
	}
}

func TestSingleFlitPacketIsHeadAndTail(t *testing.T) {
	p := &Packet{Len: 1}
	f := flitsOf(p)[0]
	if !f.IsHead() || !f.IsTail() {
		t.Error("1-flit packet's only flit must be both head and tail")
	}
}

func TestLatency(t *testing.T) {
	p := &Packet{CreateTime: 10, EjectTime: 35}
	if got := p.Latency(); got != 25 {
		t.Errorf("Latency = %d, want 25", got)
	}
}

func TestLatencyPanicsBeforeEjection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := &Packet{CreateTime: 10, EjectTime: 0}
	p.Latency()
}

func TestPacketString(t *testing.T) {
	p := &Packet{ID: 7, Class: Response, Src: 1, Dst: 2, Len: 5}
	s := p.String()
	for _, want := range []string{"7", "Response", "1->2", "5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: a flit sequence always has exactly one head, one tail, and
// monotonically increasing sequence numbers.
func TestFlitsProperty(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%16) + 1
		p := &Packet{Len: n}
		heads, tails := 0, 0
		for i, fl := range flitsOf(p) {
			if fl.Seq != i {
				return false
			}
			if fl.IsHead() {
				heads++
			}
			if fl.IsTail() {
				tails++
			}
		}
		return heads == 1 && tails == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Every single-bit corruption of a flit payload must change its
// checksum — the property the fault model's detection rests on.
func TestChecksumDetectsEverySingleBitFlip(t *testing.T) {
	for _, id := range []uint64{1, 42, 1 << 40} {
		for seq := 0; seq < 5; seq++ {
			w := FlitPayload(id, seq)
			sum := Checksum(w)
			for bit := 0; bit < 64; bit++ {
				if Checksum(w^(1<<uint(bit))) == sum {
					t.Fatalf("flip of bit %d of payload(%d,%d) undetected", bit, id, seq)
				}
			}
		}
	}
}

// Payloads must differ across flits of a packet and across packets, or
// a misrouted/duplicated flit would checksum clean.
func TestFlitPayloadSpread(t *testing.T) {
	seen := map[uint64]bool{}
	for id := uint64(1); id <= 64; id++ {
		for seq := 0; seq < 5; seq++ {
			w := FlitPayload(id, seq)
			if seen[w] {
				t.Fatalf("payload collision at (%d,%d)", id, seq)
			}
			seen[w] = true
		}
	}
}
