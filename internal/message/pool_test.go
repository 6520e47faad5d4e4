package message

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

func TestPoolRecyclesAndCounts(t *testing.T) {
	pl := NewPool()
	a := pl.Get(1, 0, 3, Request, 5, 10)
	b := pl.Get(2, 1, 2, Response, 1, 11)
	pl.PutCtx(a, -1, -1)
	c := pl.Get(3, 2, 0, WriteBack, 3, 12)
	if c != a {
		t.Error("pool did not hand back the released packet")
	}
	if pl.News != 2 || pl.Gets != 3 || pl.Puts != 1 {
		t.Errorf("counters News/Gets/Puts = %d/%d/%d, want 2/3/1", pl.News, pl.Gets, pl.Puts)
	}
	pl.PutCtx(b, -1, -1)
	pl.PutCtx(c, -1, -1)
	if pl.FreeLen() != 2 {
		t.Errorf("FreeLen = %d, want 2", pl.FreeLen())
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	pl := NewPool()
	p := pl.Get(1, 0, 1, Request, 1, 0)
	pl.PutCtx(p, -1, -1)
	defer func() {
		if recover() == nil {
			t.Error("double Put did not panic")
		}
	}()
	pl.PutCtx(p, -1, -1)
}

// A poison panic from a fault run must name the packet, the releasing
// NIC and the cycle — the context that makes a double free in a
// corrupted simulation debuggable at all.
func TestPoolDoublePutPanicNamesOwnerAndCycle(t *testing.T) {
	pl := NewPool()
	p := pl.Get(42, 0, 1, Request, 1, 0)
	pl.PutCtx(p, 7, 1234)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double PutCtx did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"packet 42", "owner NIC 7", "cycle 5678"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q missing %q", msg, want)
			}
		}
	}()
	pl.PutCtx(p, 7, 5678)
}

func TestPoolDetectsMutationAfterRelease(t *testing.T) {
	pl := NewPool()
	p := pl.Get(1, 0, 1, Request, 1, 0)
	pl.PutCtx(p, -1, -1)
	p.Hops = 3 // use-after-free
	defer func() {
		if recover() == nil {
			t.Error("Get handed out a packet dirtied after release")
		}
	}()
	pl.Get(2, 0, 1, Request, 1, 0)
}

// TestPoolHygieneFuzz is the arena's stale-field-leak guard: across
// thousands of simulated inject/eject/recycle lives, a recycled packet
// must be field-for-field identical to a freshly allocated one — no
// previous life's ID, TxnID, kind, flags, timestamps, or counters may
// survive. The in-flight phase mutates every mutable field the
// simulator touches.
//
// The same script drives refPool, the pool as it stood before chunk
// carving (free list, else one NewPacket): the chunked pool must report
// the same Gets/Puts/News and recycle in the same LIFO order — a Get is
// a recycle exactly when the reference's is, and of the same packet.
func TestPoolHygieneFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pl, ref := NewPool(), &refPool{}
	var inflight []*Packet
	twin := map[*Packet]*Packet{} // pool packet → its reference-pool counterpart
	var id uint64
	for step := 0; step < 5000; step++ {
		if len(inflight) == 0 || rng.Intn(2) == 0 {
			id++
			cycle := int64(step)
			news := pl.News
			got := pl.Get(id, rng.Intn(64), rng.Intn(64), Class(rng.Intn(int(NumClasses))), 1+rng.Intn(5), cycle)
			want := NewPacket(got.ID, got.Src, got.Dst, got.Class, got.Len, cycle)
			if *got != *want {
				t.Fatalf("step %d: recycled packet differs from fresh allocation:\n got %+v\nwant %+v", step, *got, *want)
			}
			refGot, recycled := ref.get(got.ID, got.Src, got.Dst, got.Class, got.Len, cycle)
			if recycled != (pl.News == news) || (recycled && twin[got] != refGot) {
				t.Fatalf("step %d: pool recycled=%v packet %p, reference recycled=%v (twin %p)", step, pl.News == news, got, recycled, twin[got])
			}
			twin[got] = refGot
			// Simulate a network life: scribble on every mutable field.
			got.TxnID = rng.Uint64()
			got.InjectTime = cycle + 1
			got.EjectTime = cycle + int64(rng.Intn(100)) + 1
			got.Kind = Kind(rng.Intn(2))
			got.RegularCycles = int64(rng.Intn(50))
			got.FastCycles = int64(rng.Intn(50))
			got.Dropped = rng.Intn(3)
			got.Rejected = rng.Intn(2) == 0
			got.Hops = rng.Intn(16)
			got.Corrupted = rng.Intn(2) == 0
			inflight = append(inflight, got)
		} else {
			i := rng.Intn(len(inflight))
			pl.PutCtx(inflight[i], -1, -1)
			ref.free = append(ref.free, twin[inflight[i]])
			ref.puts++
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
		}
		if pl.Gets != ref.gets || pl.Puts != ref.puts || pl.News != ref.news {
			t.Fatalf("step %d: Gets/Puts/News = %d/%d/%d, pre-chunk pool %d/%d/%d",
				step, pl.Gets, pl.Puts, pl.News, ref.gets, ref.puts, ref.news)
		}
	}
	if pl.News >= pl.Gets {
		t.Errorf("pool never recycled (News %d, Gets %d)", pl.News, pl.Gets)
	}
	if pl.News <= 4*minChunk/int64(unsafe.Sizeof(Packet{})) {
		t.Errorf("only %d packets carved: the script never left the first chunks", pl.News)
	}
}

// refPool is the pre-chunk arena's traffic model: a LIFO free list that
// falls back to one heap packet per miss.
type refPool struct {
	free             []*Packet
	gets, puts, news int64
}

func (r *refPool) get(id uint64, src, dst int, class Class, flits int, cycle int64) (p *Packet, recycled bool) {
	r.gets++
	if n := len(r.free); n > 0 {
		p, r.free = r.free[n-1], r.free[:n-1]
		return p, true
	}
	r.news++
	return NewPacket(id, src, dst, class, flits, cycle), false
}

// TestPoolCarvesChunks: packets that miss the free list come out of
// chunks — distinct, each equal to NewPacket's — at a small fraction of
// one heap object per packet.
func TestPoolCarvesChunks(t *testing.T) {
	const n = 1000
	seen := map[*Packet]bool{}
	var pl *Pool
	allocs := testing.AllocsPerRun(1, func() {
		pl = NewPool()
		for i := 1; i <= n; i++ {
			pl.Get(uint64(i), 0, 1, Request, 1, 0)
		}
	})
	if allocs > n/16 {
		t.Errorf("carving %d packets made %.0f heap objects, want at most %d", n, allocs, n/16)
	}
	pl = NewPool()
	for i := 1; i <= n; i++ {
		p := pl.Get(uint64(i), i%7, i%5, Response, 1+i%5, int64(i))
		if seen[p] {
			t.Fatalf("packet %d shares storage with an earlier one", i)
		}
		seen[p] = true
		if want := NewPacket(uint64(i), i%7, i%5, Response, 1+i%5, int64(i)); *p != *want {
			t.Fatalf("carved packet %+v, NewPacket %+v", *p, *want)
		}
	}
	if pl.News != n || pl.Gets != n {
		t.Errorf("News/Gets = %d/%d, want %d/%d: News counts packets, not chunks", pl.News, pl.Gets, n, n)
	}
}

func TestPoolSteadyStateDoesNotAllocate(t *testing.T) {
	pl := NewPool()
	warm := make([]*Packet, 32)
	for i := range warm {
		warm[i] = pl.Get(uint64(i), 0, 1, Request, 5, 0)
	}
	for _, p := range warm {
		pl.PutCtx(p, -1, -1)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range warm {
			warm[i] = pl.Get(uint64(i), 0, 1, Request, 5, 0)
		}
		for _, p := range warm {
			pl.PutCtx(p, -1, -1)
		}
	})
	if allocs != 0 {
		t.Errorf("warm pool Get/Put allocates %.1f times per run, want 0", allocs)
	}
}

// TestReleasedPoolServesNextPool: a released pool's chunks come back,
// zeroed and in carving order, to the next NewPool, which counts from
// zero; a pool past maxSpareBytes hands on only its first chunks and no
// free list, and a full store keeps nothing more.
func TestReleasedPoolServesNextPool(t *testing.T) {
	spares.list = nil
	fill := func(pl *Pool, n int) {
		for i := range n {
			pl.Get(uint64(i+1), 0, 1, Request, 5, 0).Hops = 7
		}
	}
	a := NewPool()
	fill(a, 100)
	a.PutCtx(&a.chunks[0][3], -1, -1)
	chunks := a.chunks
	a.Release()
	b := NewPool()
	if len(b.chunks) != len(chunks) || &b.chunks[0][0] != &chunks[0][0] || cap(b.free) == 0 || b.FreeLen() != 0 || b.Gets != 0 || b.News != 0 {
		t.Fatalf("next pool: %d chunks (want %d, same first), free %d/%d, Gets %d, News %d",
			len(b.chunks), len(chunks), b.FreeLen(), cap(b.free), b.Gets, b.News)
	}
	for _, c := range b.chunks {
		for i := range c {
			if c[i] != (Packet{}) {
				t.Fatalf("spare packet %d not zero: %+v", i, c[i])
			}
		}
	}
	if p := b.Get(1, 0, 1, Request, 5, 0); p != &chunks[0][0] {
		t.Error("next pool does not carve the spare's first chunk first")
	}

	big := NewPool()
	fill(big, 2*maxSpareBytes/packetSize)
	big.PutCtx(&big.chunks[0][0], -1, -1)
	big.Release()
	c := NewPool()
	bytes := 0
	for _, ch := range c.chunks {
		bytes += len(ch) * packetSize
	}
	if bytes > maxSpareBytes || bytes < maxSpareBytes-maxChunk || c.free != nil {
		t.Errorf("pool past the bound hands on %d bytes of chunks (bound %d) and free list %v", bytes, maxSpareBytes, c.free != nil)
	}

	pools := make([]*Pool, maxSpares+1)
	for i := range pools {
		pools[i] = NewPool()
	}
	for _, pl := range pools {
		pl.Release()
	}
	if len(spares.list) != maxSpares {
		t.Errorf("store holds %d pools, at most %d", len(spares.list), maxSpares)
	}
}
