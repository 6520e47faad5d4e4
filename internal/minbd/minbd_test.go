package minbd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/message"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

func TestSinglePacketDelivery(t *testing.T) {
	n := New(topology.NewMesh(4, 4), Params{})
	var got *message.Packet
	n.OnEject = func(p *message.Packet) { got = p }
	p := message.NewPacket(1, 0, 15, message.Request, 1, 0)
	n.EnqueueSource(p)
	n.Run(40)
	if got != p {
		t.Fatal("packet not delivered")
	}
	if p.Hops != 6 {
		t.Errorf("uncontended path took %d hops, want 6 (no deflection)", p.Hops)
	}
	if p.Latency() > 20 {
		t.Errorf("latency %d too high for an empty network", p.Latency())
	}
	if n.Resident() != 0 {
		t.Error("network should be empty")
	}
}

func TestAllToAllDrains(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := New(mesh, Params{})
	ejected := 0
	n.OnEject = func(*message.Packet) { ejected++ }
	id := uint64(0)
	total := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			id++
			ln := 1
			if id%2 == 0 {
				ln = 5
			}
			n.EnqueueSource(message.NewPacket(id, s, d, message.Class(id%6), ln, 0))
			total++
		}
	}
	for i := 0; i < 60000 && ejected < total; i++ {
		n.Step()
	}
	if ejected != total {
		t.Fatalf("delivered %d of %d (resident %d, backlog %d)",
			ejected, total, n.Resident(), n.SourceBacklog())
	}
	if n.Resident() != 0 {
		t.Error("resident count should be zero after drain")
	}
}

func TestDeflectionsOccurUnderContention(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := New(mesh, Params{})
	rng := rand.New(rand.NewSource(7))
	ejected := 0
	n.OnEject = func(*message.Packet) { ejected++ }
	id := uint64(0)
	// Sustained uniform random traffic past saturation (mixed sizes).
	for cyc := 0; cyc < 6000; cyc++ {
		for s := 0; s < 16; s++ {
			if rng.Float64() < 0.5 {
				d := rng.Intn(15)
				if d >= s {
					d++
				}
				id++
				ln := 1
				if id%2 == 0 {
					ln = 5
				}
				n.EnqueueSource(message.NewPacket(id, s, d, message.Request, ln, int64(cyc)))
			}
		}
		n.Step()
	}
	if n.Deflections == 0 {
		t.Error("high load should force deflections")
	}
	if n.SideBuffered == 0 {
		t.Error("high load should exercise the side buffer")
	}
	if ejected == 0 {
		t.Fatal("nothing delivered")
	}
}

// Deflection may misroute, but age priority keeps the network
// livelock-free: every packet of a finite burst is delivered.
func TestNoLivelockUnderBurst(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := New(mesh, Params{})
	ejected := 0
	n.OnEject = func(*message.Packet) { ejected++ }
	id := uint64(0)
	total := 0
	// Everyone floods node 0 plus background traffic.
	for round := 0; round < 10; round++ {
		for s := 1; s < 16; s++ {
			id++
			n.EnqueueSource(message.NewPacket(id, s, 0, message.Request, 1, 0))
			total++
			id++
			n.EnqueueSource(message.NewPacket(id, s, 15-s, message.Response, 5, 0))
			total++
		}
	}
	for i := 0; i < 100000 && ejected < total; i++ {
		n.Step()
	}
	if ejected != total {
		t.Fatalf("livelock suspected: %d of %d delivered", ejected, total)
	}
}

func TestSelfAddressedPacket(t *testing.T) {
	n := New(topology.NewMesh(2, 2), Params{})
	done := false
	n.OnEject = func(*message.Packet) { done = true }
	n.EnqueueSource(message.NewPacket(1, 0, 0, message.Request, 1, 0))
	n.Run(10)
	if !done {
		t.Fatal("self-addressed packet not delivered")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		n := New(topology.NewMesh(4, 4), Params{})
		var latSum int64
		n.OnEject = func(p *message.Packet) { latSum += p.Latency() }
		id := uint64(0)
		for s := 0; s < 16; s++ {
			for k := 0; k < 5; k++ {
				id++
				d := int(id*11) % 16
				if d == s {
					d = (d + 1) % 16
				}
				n.EnqueueSource(message.NewPacket(id, s, d, message.Request, 1+int(id%2)*4, 0))
			}
		}
		n.Run(5000)
		return latSum, n.Deflections
	}
	l1, d1 := run()
	l2, d2 := run()
	if l1 != l2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", l1, d1, l2, d2)
	}
}

// Flits of multi-flit packets can arrive out of order through
// deflections; the destination must reassemble them exactly once per
// packet, and Resident must return to zero.
func TestReassemblyUnderDeflection(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := New(mesh, Params{})
	got := map[uint64]int{}
	n.OnEject = func(p *message.Packet) { got[p.ID]++ }
	id := uint64(0)
	total := 0
	// Many 5-flit packets converging on two nodes to force deflections.
	for round := 0; round < 8; round++ {
		for s := 0; s < 16; s++ {
			if s == 0 || s == 15 {
				continue
			}
			id++
			n.EnqueueSource(message.NewPacket(id, s, int(id%2)*15, message.Response, 5, 0))
			total++
		}
	}
	for i := 0; i < 60000 && len(got) < total; i++ {
		n.Step()
	}
	if len(got) != total {
		t.Fatalf("reassembled %d of %d packets", len(got), total)
	}
	for pid, k := range got {
		if k != 1 {
			t.Errorf("packet %d delivered %d times", pid, k)
		}
	}
	if n.Resident() != 0 {
		t.Errorf("resident = %d after full delivery", n.Resident())
	}
	if n.Deflections == 0 {
		t.Error("convergent 5-flit traffic should deflect")
	}
}

// Age priority: under sustained contention the oldest packet is never
// starved — its flits win productive ports, bounding its latency.
func TestOldestPacketProgress(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	n := New(mesh, Params{})
	var lat []int64
	n.OnEject = func(p *message.Packet) { lat = append(lat, p.Latency()) }
	// One old packet injected first, then a flood of younger traffic
	// along its path.
	old := message.NewPacket(1, 0, 15, message.Request, 5, 0)
	n.EnqueueSource(old)
	id := uint64(1)
	for round := 0; round < 20; round++ {
		for s := 1; s < 15; s++ {
			id++
			p := message.NewPacket(id, s, 15, message.Request, 1, 1)
			n.EnqueueSource(p)
		}
	}
	n.Run(2000)
	if old.EjectTime < 0 {
		t.Fatal("oldest packet starved")
	}
	if old.Latency() > 200 {
		t.Errorf("oldest packet latency %d despite age priority", old.Latency())
	}
}

// refNetwork is the engine as it stood before the allocation-free
// rewrite — maps, fresh slices, closures and sort.Slice — kept verbatim
// as the oracle the rewritten engine is stepped against in lockstep.
type refNetwork struct {
	Mesh *topology.Mesh
	prm  Params

	cur, mid, next []message.Flit
	inLinks        [][]int

	side   [][]message.Flit
	source [][]*message.Packet
	injSeq []int

	rx map[uint64]int

	cycle int64

	OnEject func(pkt *message.Packet)

	Deflections, SideBuffered, Ejections int64

	resident int
}

func newRef(mesh *topology.Mesh, prm Params) *refNetwork {
	prm.setDefaults()
	n := &refNetwork{
		Mesh:   mesh,
		prm:    prm,
		cur:    make([]message.Flit, len(mesh.Links())),
		mid:    make([]message.Flit, len(mesh.Links())),
		next:   make([]message.Flit, len(mesh.Links())),
		side:   make([][]message.Flit, mesh.NumNodes()),
		source: make([][]*message.Packet, mesh.NumNodes()),
		injSeq: make([]int, mesh.NumNodes()),
		rx:     make(map[uint64]int),
	}
	n.inLinks = make([][]int, mesh.NumNodes())
	for _, l := range mesh.Links() {
		n.inLinks[l.Dst] = append(n.inLinks[l.Dst], l.ID)
	}
	return n
}

func (n *refNetwork) EnqueueSource(pkt *message.Packet) {
	n.source[pkt.Src] = append(n.source[pkt.Src], pkt)
}

func (n *refNetwork) Step() {
	for node := 0; node < n.Mesh.NumNodes(); node++ {
		n.stepRouter(node)
	}
	n.cur, n.mid, n.next = n.mid, n.next, n.cur
	for i := range n.next {
		n.next[i] = message.Flit{}
	}
	n.cycle++
}

func (n *refNetwork) outLinks(node int) []*topology.Link {
	var out []*topology.Link
	for d := topology.North; d <= topology.West; d++ {
		if l := n.Mesh.OutLink(node, d); l != nil {
			out = append(out, l)
		}
	}
	return out
}

func (n *refNetwork) stepRouter(node int) {
	var arrivals []message.Flit
	for _, id := range n.inLinks[node] {
		if n.cur[id].Pkt != nil {
			arrivals = append(arrivals, n.cur[id])
		}
	}
	sort.Slice(arrivals, func(i, j int) bool { return older(arrivals[i], arrivals[j]) })

	outs := n.outLinks(node)
	taken := make(map[int]bool, len(outs))
	var dirBuf [2]topology.Direction
	assign := func(f message.Flit, productiveOnly bool) bool {
		for _, d := range n.Mesh.AppendPortToward(dirBuf[:0], node, f.Pkt.Dst) {
			if l := n.Mesh.OutLink(node, d); l != nil && !taken[l.ID] {
				taken[l.ID] = true
				n.next[l.ID] = f
				if f.IsHead() {
					f.Pkt.Hops++
				}
				return true
			}
		}
		if productiveOnly {
			return false
		}
		for _, l := range outs {
			if !taken[l.ID] {
				taken[l.ID] = true
				n.next[l.ID] = f
				n.Deflections++
				return true
			}
		}
		return false
	}

	ejected := 0
	// tryEject consumes one flit of ejection bandwidth; when the last
	// flit of a packet lands, the packet completes. The caller adjusts
	// the resident count (source-side flits were never resident).
	tryEject := func(f message.Flit) (consumed, completed bool) {
		if f.Pkt.Dst != node || ejected >= n.prm.EjectCap {
			return false, false
		}
		ejected++
		n.rx[f.Pkt.ID]++
		if n.rx[f.Pkt.ID] == f.Pkt.Len {
			delete(n.rx, f.Pkt.ID)
			f.Pkt.EjectTime = n.cycle
			n.Ejections++
			if n.OnEject != nil {
				n.OnEject(f.Pkt)
			}
			return true, true
		}
		return true, false
	}

	// Pass 1: link arrivals (oldest first): eject, else productive port.
	var leftovers []message.Flit
	for _, f := range arrivals {
		if consumed, completed := tryEject(f); consumed {
			if completed {
				n.resident--
			}
			continue
		}
		if !assign(f, true) {
			leftovers = append(leftovers, f)
		}
	}
	// Pass 2: losers park in the side buffer when it has room, else
	// deflect (pigeonhole guarantees a free port for link arrivals).
	for _, f := range leftovers {
		if len(n.side[node]) < sideCap {
			n.side[node] = append(n.side[node], f)
			n.SideBuffered++
			continue
		}
		if !assign(f, false) {
			panic("minbd: link arrival had no output port")
		}
	}
	// Pass 3: side buffer re-entry onto productive free ports only.
	if len(n.side[node]) > 0 {
		f := n.side[node][0]
		if consumed, completed := tryEject(f); consumed {
			if completed {
				n.resident--
			}
			n.side[node] = n.side[node][1:]
		} else if assign(f, true) {
			n.side[node] = n.side[node][1:]
		}
	}
	// Pass 4: inject the next flit of the head source packet.
	if len(n.source[node]) > 0 {
		pkt := n.source[node][0]
		f := message.Flit{Pkt: pkt, Seq: n.injSeq[node]}
		injected := false
		if pkt.Dst == node {
			// Self-addressed: injection feeds ejection directly; the
			// packet never becomes network-resident.
			consumed, _ := tryEject(f)
			injected = consumed
			if injected && n.injSeq[node] == 0 {
				pkt.InjectTime = n.cycle
			}
		} else if assign(f, true) {
			injected = true
			if n.injSeq[node] == 0 {
				pkt.InjectTime = n.cycle
				n.resident++
			}
		}
		if injected {
			n.injSeq[node]++
			if n.injSeq[node] == pkt.Len {
				n.source[node] = n.source[node][1:]
				n.injSeq[node] = 0
			}
		}
	}
}

// driveUniform offers one cycle of seeded uniform traffic (mixed 1- and
// 5-flit packets) and hands every new packet to enqueue.
func driveUniform(rng *rand.Rand, nodes int, rate float64, cycle int64, nextID *uint64, enqueue func(id uint64, src, dst, ln int, cycle int64)) {
	for s := 0; s < nodes; s++ {
		if rng.Float64() >= rate {
			continue
		}
		d := rng.Intn(nodes - 1)
		if d >= s {
			d++
		}
		*nextID++
		ln := 1
		if rng.Intn(2) == 0 {
			ln = 5
		}
		enqueue(*nextID, s, d, ln, cycle)
	}
}

// TestCheckpointBytesPinned pins the bytes of a mid-run MinBD
// checkpoint: the engine's storage may change, its wire format and the
// state it reaches may not.
func TestCheckpointBytesPinned(t *testing.T) {
	n := New(topology.NewMesh(8, 8), Params{})
	rng := rand.New(rand.NewSource(42))
	var id uint64
	for c := int64(0); c < 700; c++ {
		driveUniform(rng, 64, 0.10, c, &id, func(id uint64, src, dst, ln int, cycle int64) {
			n.EnqueueSource(message.NewPacket(id, src, dst, message.Request, ln, cycle))
		})
		n.Step()
	}
	w := snapshot.NewWriter()
	n.SnapshotState(w)
	sum := sha256.Sum256(snapshot.Seal(nil, w))
	const want = "9ba24eecf593ae5857eeccaf7f46951db5850f8202c31a31d940245c549ac5c9"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("mid-run checkpoint sha256 = %s, want %s", got, want)
	}
}

// sameFlits compares two register banks (or side buffers) by packet ID
// and flit sequence — the two engines carry twin packets, not shared
// pointers, because Step mutates Hops and the timestamps.
func sameFlits(a, b []message.Flit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i].Pkt == nil) != (b[i].Pkt == nil) {
			return false
		}
		if a[i].Pkt != nil && (a[i].Pkt.ID != b[i].Pkt.ID || a[i].Seq != b[i].Seq) {
			return false
		}
	}
	return true
}

// TestEngineMatchesReference steps the reference engine and the
// allocation-free one in lockstep and demands identical link registers,
// side buffers, injection cursors, counters and per-packet outcomes
// every cycle.
func TestEngineMatchesReference(t *testing.T) {
	for _, size := range []int{4, 8} {
		for _, rate := range []float64{0.02, 0.10, 0.22} {
			for _, seed := range []int64{1, 2, 3} {
				t.Run(fmt.Sprintf("%dx%d/rate%.2f/seed%d", size, size, rate, seed), func(t *testing.T) {
					mesh := topology.NewMesh(size, size)
					ref, eng := newRef(mesh, Params{}), New(mesh, Params{})
					var refOut, engOut []message.Packet
					ref.OnEject = func(p *message.Packet) { refOut = append(refOut, *p) }
					eng.OnEject = func(p *message.Packet) { engOut = append(engOut, *p) }
					rng := rand.New(rand.NewSource(seed))
					var id uint64
					var side []message.Flit
					for c := int64(0); c < 1500; c++ {
						driveUniform(rng, mesh.NumNodes(), rate, c, &id, func(id uint64, src, dst, ln int, cycle int64) {
							ref.EnqueueSource(message.NewPacket(id, src, dst, message.Request, ln, cycle))
							eng.EnqueueSource(message.NewPacket(id, src, dst, message.Request, ln, cycle))
						})
						ref.Step()
						eng.Step()
						if !sameFlits(ref.cur, eng.cur) || !sameFlits(ref.mid, eng.mid) || !sameFlits(ref.next, eng.next) {
							t.Fatalf("cycle %d: link registers diverge", c)
						}
						for node := range ref.side {
							side = side[:0]
							for i := 0; i < eng.side[node].Len(); i++ {
								side = append(side, *eng.side[node].Ptr(i))
							}
							if !sameFlits(ref.side[node], side) {
								t.Fatalf("cycle %d: side buffer of node %d diverges", c, node)
							}
							if ref.injSeq[node] != eng.injSeq[node] || len(ref.source[node]) != eng.source[node].Len() {
								t.Fatalf("cycle %d: injection state of node %d diverges", c, node)
							}
						}
						if ref.Deflections != eng.Deflections || ref.SideBuffered != eng.SideBuffered ||
							ref.Ejections != eng.Ejections || ref.resident != eng.resident {
							t.Fatalf("cycle %d: counters diverge: ref %d/%d/%d/%d engine %d/%d/%d/%d", c,
								ref.Deflections, ref.SideBuffered, ref.Ejections, ref.resident,
								eng.Deflections, eng.SideBuffered, eng.Ejections, eng.resident)
						}
						if len(refOut) != len(engOut) {
							t.Fatalf("cycle %d: ejected %d packets, reference %d", c, len(engOut), len(refOut))
						}
					}
					for i := range refOut {
						if refOut[i] != engOut[i] {
							t.Fatalf("ejection %d differs:\n ref    %+v\n engine %+v", i, refOut[i], engOut[i])
						}
					}
					if rate >= 0.10 && (eng.Deflections == 0 || eng.SideBuffered == 0) {
						t.Errorf("contention never exercised: %d deflections, %d side-buffered", eng.Deflections, eng.SideBuffered)
					}
				})
			}
		}
	}
}
