package message

import (
	"fmt"
	"sync"
	"unsafe"
)

// Pool is a per-simulation packet arena: a free list that recycles
// Packet structs instead of leaving every delivered packet to the
// garbage collector. One simulation allocates only its high-water mark
// of in-flight packets, carved from chunks; at steady state Get and
// PutCtx touch no allocator.
//
// Pools are deliberately not concurrency-safe: a simulation is
// single-threaded by design (the parallel experiment runner spreads
// *simulations* across workers, each with its own Pool); only spares,
// under a lock, pass from one simulation to the next.
//
// Hygiene contract: a recycled packet is indistinguishable from a
// freshly constructed one. PutCtx resets every field, and Get verifies
// the reset actually held — a packet mutated after release (use-after-free)
// or a PutCtx that misses a future field fails loudly at the next Get
// instead of leaking a previous life's ID, flags or timestamps into a
// new one.
type Pool struct {
	free []*Packet
	// fresh is the uncarved tail of the newest chunk — capacity, not
	// state: a restored pool starts without one.
	fresh []Packet
	// chunks are the arena's chunks in carving order; those past carved
	// came zeroed from a released pool.
	chunks [][]Packet
	carved int

	// Gets, Puts and News count pool traffic (News ≤ Gets is the arena
	// working; News == Gets means nothing was ever recycled).
	Gets, Puts, News int64
}

// NewPool returns an empty pool, which grows into the chunks and free
// list of the pool released last, if one waits.
func NewPool() *Pool {
	pl := &Pool{}
	spares.Lock()
	defer spares.Unlock()
	if n := len(spares.list); n > 0 {
		pl.chunks, pl.free = spares.list[n-1].chunks, spares.list[n-1].free
		spares.list[n-1] = Pool{}
		spares.list = spares.list[:n-1]
	}
	return pl
}

// spares holds released pools' chunks and free lists, all zero, for the
// next NewPool: at most maxSpares, each with at most maxSpareBytes of
// chunks (a saturated 8×8 point reaches 2.5 MB at the benchmark's scale,
// 10.4 MB at full scale) and a free list of at most twice the packets
// its run pooled — at most 8 × 18.3 MiB, in practice one pool per run
// that was live at once. A mutex and not a sync.Pool, which every GC
// empties.
var spares struct {
	sync.Mutex
	list []Pool
}

const maxSpares, maxSpareBytes = 8, 16 << 20

// blank is what a released packet must still look like when it is
// handed out again: all zero except the recycled marker. The ID is the
// one deliberate exception — PutCtx keeps it so poison panics (double
// release, dirtied packet) can name the packet; Get masks it out of the
// hygiene comparison.
var blank = Packet{recycled: true}

// A chunk is as large as everything carved before it, within these
// bounds in bytes: a short run strands under 1 KB, a long one at most
// 8 KB. Both are allocator size classes, so a chunk of as many packets
// as fit wastes less than one packet.
const minChunk, maxChunk = 1 << 10, 8 << 10

// Get returns a packet initialised exactly as NewPacket would build it:
// the most recently released one if any, else the next chunk slot.
func (pl *Pool) Get(id uint64, src, dst int, class Class, flits int, cycle int64) *Packet {
	pl.Gets++
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		was := *p
		was.ID = 0
		if was != blank {
			panic(fmt.Sprintf("message: pooled packet %d dirtied after release while handing out packet %d at cycle %d (%+v)",
				p.ID, id, cycle, *p))
		}
	} else {
		if len(pl.fresh) == 0 {
			pl.grow()
		}
		p, pl.fresh = &pl.fresh[0], pl.fresh[1:]
		pl.News++
	}
	return p.init(id, src, dst, class, flits, cycle)
}

const packetSize = int(unsafe.Sizeof(Packet{}))

//nocvet:cold a new chunk only when the in-flight high-water mark rises, not per cycle
func (pl *Pool) grow() {
	if pl.carved == len(pl.chunks) {
		pl.chunks = append(pl.chunks, make([]Packet, min(max(int(pl.News)*packetSize, minChunk), maxChunk)/packetSize))
	}
	pl.fresh = pl.chunks[pl.carved]
	pl.carved++
}

// Release hands the pool's first maxSpareBytes of chunks, cleared to
// zero, to a later NewPool in the process, with its emptied free list
// when no chunk was dropped. Neither the pool nor any of its packets
// may be used after the call.
func (pl *Pool) Release() {
	n, bytes := 0, 0
	for ; n < len(pl.chunks) && bytes+len(pl.chunks[n])*packetSize <= maxSpareBytes; n++ {
		bytes += len(pl.chunks[n]) * packetSize
	}
	for _, c := range pl.chunks[:min(n, pl.carved)] {
		clear(c)
	}
	clear(pl.chunks[n:])
	clear(pl.free)
	spare := Pool{chunks: pl.chunks[:n]}
	if n == len(pl.chunks) {
		spare.free = pl.free[:0]
	}
	*pl = Pool{}
	spares.Lock()
	defer spares.Unlock()
	if len(spares.list) < maxSpares {
		spares.list = append(spares.list, spare)
	}
}

// PutCtx releases a packet back to the arena. The caller must hold the
// only live reference; the packet is fully reset so no field of its
// previous life can leak into the next. Releasing the same packet twice
// without an intervening Get panics, and so does releasing one that
// still waits in a Queue. owner is the NIC releasing the packet and
// cycle the simulation time, both folded into the poison panic so a
// double release points at the guilty node and moment (-1 = unknown).
func (pl *Pool) PutCtx(p *Packet, owner int, cycle int64) {
	if p == nil {
		return
	}
	if p.recycled {
		panic(fmt.Sprintf("message: double release of packet %d (owner NIC %d, cycle %d)", p.ID, owner, cycle))
	}
	if p.queued {
		panic(fmt.Sprintf("message: release of packet %d while it waits in a queue (owner NIC %d, cycle %d)", p.ID, owner, cycle))
	}
	id := p.ID
	*p = blank
	p.ID = id
	pl.free = append(pl.free, p)
	pl.Puts++
}

// FreeLen reports the current free-list depth (diagnostics).
func (pl *Pool) FreeLen() int { return len(pl.free) }

// FreeList exposes the free list in release order for checkpointing.
// Callers must not mutate the returned slice or the packets it holds.
func (pl *Pool) FreeList() []*Packet { return pl.free }

// SetFreeList replaces the free list with ps (restore path), re-arming
// the recycled poison marker on every pooled packet so the
// use-after-free guard holds across a checkpoint/restore boundary.
// Restored packets must otherwise be blank, exactly as PutCtx left them;
// the next Get verifies that as usual.
func (pl *Pool) SetFreeList(ps []*Packet) {
	pl.free = append(pl.free[:0], ps...)
	for _, p := range pl.free {
		p.recycled = true
	}
}
