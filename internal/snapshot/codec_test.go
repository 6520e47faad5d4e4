package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/message"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xDEADBEEF)
	w.I32(-12345)
	w.U64(1 << 62)
	w.I64(-(1 << 40))
	w.Int(-7)
	w.F64(math.Pi)
	w.F64(math.NaN())
	w.Str("hello, façade")
	w.Str("")
	blob := Seal(nil, w)
	_, r, err := Open(blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.I32(); got != -12345 {
		t.Errorf("I32 = %d", got)
	}
	if got := r.U64(); got != 1<<62 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -(1 << 40) {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsNaN(got) {
		t.Errorf("F64 NaN = %v", got)
	}
	if got := r.Str(); got != "hello, façade" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
}

func TestPacketTableIdentityAndFields(t *testing.T) {
	a := message.NewPacket(1, 0, 5, message.Request, 5, 100)
	a.TxnID = 42
	a.InjectTime = 110
	a.Hops = 3
	a.Corrupted = true
	b := message.NewPacket(2, 3, 4, message.Response, 1, 200)
	w := NewWriter()
	w.Packet(a)
	w.Packet(b)
	w.Packet(a) // same pointer → same index
	w.Packet(nil)
	blob := Seal([]byte("meta"), w)
	meta, r, err := Open(blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if string(meta) != "meta" {
		t.Errorf("meta = %q", meta)
	}
	ra, rb, ra2, rn := r.Packet(), r.Packet(), r.Packet(), r.Packet()
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
	if ra != ra2 {
		t.Error("same source pointer decoded to distinct packets")
	}
	if rn != nil {
		t.Error("nil packet did not round trip")
	}
	if ra == rb {
		t.Error("distinct packets decoded to the same pointer")
	}
	if ra.ID != 1 || ra.Dst != 5 || ra.TxnID != 42 || ra.InjectTime != 110 ||
		ra.Hops != 3 || !ra.Corrupted || ra.Len != 5 {
		t.Errorf("packet fields lost: %+v", ra)
	}
	if rb.ID != 2 || rb.Class != message.Response || rb.CreateTime != 200 {
		t.Errorf("packet fields lost: %+v", rb)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	w := NewWriter()
	w.U64(7)
	blob := Seal(nil, w)
	for off := 0; off < len(blob); off++ {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 1
		if _, _, err := Open(bad); err == nil {
			// Flipping a bit inside the crc field itself must also fail:
			// the stored crc then mismatches the recomputed one.
			t.Errorf("bit flip at offset %d not rejected", off)
		}
	}
	if _, _, err := Open(blob[:8]); err == nil {
		t.Error("truncated header not rejected")
	}
}

func TestReaderErrorsAreSticky(t *testing.T) {
	w := NewWriter()
	w.U8(2) // invalid Bool encoding
	blob := Seal(nil, w)
	_, r, err := Open(blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_ = r.Bool()
	if r.Err() == nil {
		t.Fatal("Bool(2) did not error")
	}
	if got := r.U64(); got != 0 {
		t.Errorf("read after error returned %d, want zero value", got)
	}
	_ = r.I64() // reading past the end must not panic
	if r.Err() == nil {
		t.Error("error was cleared")
	}

	// A varint cut off mid-continuation, and one that runs past 64 bits.
	for _, tc := range []struct {
		data []byte
		want string
	}{
		{[]byte{0x80, 0x80}, "truncated varint"},
		{bytes.Repeat([]byte{0xff}, 11), "overlong varint"},
	} {
		r := NewReader(tc.data)
		if got := r.I64(); got != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
			t.Errorf("I64(% x) = %d, %v; want 0 and a %q error", tc.data, got, r.Err(), tc.want)
		}
		first := r.Err()
		if got := r.U64(); got != 0 || r.Err() != first || r.off != 0 {
			t.Errorf("U64 after a bad varint = %d at offset %d, error %v; want 0 at 0, error unchanged", got, r.off, r.Err())
		}
	}
}

// TestVarintExtremes: the integers that take the most and the fewest
// varint bytes survive the round trip, and their encoded lengths are
// the ones the format promises (1 byte for 0 and ±1, 10 at the ends).
func TestVarintExtremes(t *testing.T) {
	signed := []int64{0, 1, -1, 63, -64, 64, math.MinInt64, math.MaxInt64}
	unsigned := []uint64{0, 1, 127, 128, math.MaxUint64}
	w := NewWriter()
	for _, v := range signed {
		w.I64(v)
		w.Int(int(v))
	}
	for _, v := range unsigned {
		w.U64(v)
	}
	r := NewReader(w.Bytes())
	for _, v := range signed {
		if got := r.I64(); got != v {
			t.Errorf("I64 %d round-tripped to %d", v, got)
		}
		if got := r.Int(); got != int(v) {
			t.Errorf("Int %d round-tripped to %d", v, got)
		}
	}
	for _, v := range unsigned {
		if got := r.U64(); got != v {
			t.Errorf("U64 %d round-tripped to %d", v, got)
		}
	}
	if r.Err() != nil || r.off != len(w.Bytes()) {
		t.Fatalf("decode stopped at %d of %d: %v", r.off, len(w.Bytes()), r.Err())
	}
	for _, tc := range []struct {
		v    int64
		size int
	}{{0, 1}, {1, 1}, {-1, 1}, {math.MinInt64, 10}, {math.MaxInt64, 10}} {
		w := NewWriter()
		w.I64(tc.v)
		if len(w.Bytes()) != tc.size {
			t.Errorf("I64(%d) takes %d bytes, want %d", tc.v, len(w.Bytes()), tc.size)
		}
	}
}

// FuzzReader: arbitrary bytes, decoded by an op sequence the input
// chooses, never panic, never move the offset past the end, and once a
// read fails every later read returns the zero value with the first
// error unchanged.
func FuzzReader(f *testing.F) {
	w := NewWriter()
	w.Int(-3)
	w.U64(1 << 40)
	w.Str("lane")
	w.F64(math.Pi)
	w.Packet(nil)
	f.Add([]byte{5, 4, 8, 7, 9}, w.Bytes())
	f.Add([]byte{4, 4, 4}, []byte{0x80, 0x80})
	f.Add([]byte{8, 0, 1}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	// A string length near MaxInt64 used to overflow take's bounds check.
	f.Add([]byte{8}, binary.AppendVarint(nil, math.MaxInt64))
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		var first error
		for _, op := range ops {
			var zero bool
			switch op % 10 {
			case 0:
				zero = r.U8() == 0
			case 1:
				zero = !r.Bool()
			case 2:
				zero = r.U32() == 0
			case 3:
				zero = r.I32() == 0
			case 4:
				zero = r.U64() == 0
			case 5:
				zero = r.I64() == 0
			case 6:
				zero = r.Int() == 0
			case 7:
				zero = r.F64() == 0
			case 8:
				zero = r.Str() == ""
			case 9:
				zero = r.Packet() == nil
			}
			if r.off < 0 || r.off > len(data) {
				t.Fatalf("op %d moved the offset to %d of %d", op%10, r.off, len(data))
			}
			if first != nil && (r.Err() != first || !zero) {
				t.Fatalf("op %d after %v: error %v, zero value %v", op%10, first, r.Err(), zero)
			}
			first = r.Err()
		}
	})
}

// TestCountingSourceMatchesMathRand: the self-hosted generator must be
// rand.NewSource's stream value for value (every golden seed in the
// repo depends on this) however it is consumed — Int63, Uint64, the
// ScanBelow loop, a Skip or a re-Seed mid-stream — and Draws must count
// every value, so (seed, draws) restores the exact position.
func TestCountingSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{math.MinInt64, math.MaxInt64}
	for s := int64(-3); s <= 40; s++ {
		seeds = append(seeds, s)
	}
	const draws = 1_000_000
	const redo = 1<<63 - 512
	for _, seed := range seeds {
		std := rand.NewSource(seed).(rand.Source64)
		src := NewCountingSource(seed + 1) // re-Seed must erase this
		src.Int63()
		src.Seed(seed)
		pick := rand.New(rand.NewSource(seed ^ 0x9e37))
		// n counts draws since the last Seed, total those before it.
		var n, total uint64
		reseeded := false
		for total+n < draws {
			switch pick.Intn(5) {
			case 0:
				if w, g := std.Int63(), src.Int63(); w != g {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, n, g, w)
				}
				n++
			case 1:
				if w, g := std.Uint64(), src.Uint64(); w != g {
					t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, n, g, w)
				}
				n++
			case 2:
				// A threshold low enough to run to max, one that hits
				// within a few draws, and a redo low enough to be seen.
				thr := int64(1) << uint(40+pick.Intn(23))
				rd := int64(redo)
				if pick.Intn(2) == 0 {
					rd = thr + (math.MaxInt64-thr)/2
				}
				max := pick.Intn(700)
				wantSkipped, wantHit := 0, false
				for wantSkipped < max {
					v := std.Int63()
					n++
					if v < thr {
						wantHit = true
						break
					} else if v < rd {
						wantSkipped++
					}
				}
				if skipped, hit := src.ScanBelow(thr, rd, max); skipped != wantSkipped || hit != wantHit {
					t.Fatalf("seed %d draw %d: ScanBelow(%d, %d, %d) = %d, %v, want %d, %v",
						seed, n, thr, rd, max, skipped, hit, wantSkipped, wantHit)
				}
			case 3:
				k := uint64(pick.Intn(1500))
				for i := uint64(0); i < k; i++ {
					std.Uint64()
				}
				src.Skip(k)
				n += k
			case 4:
				if !reseeded && n > draws/2 {
					reseeded = true
					std.Seed(seed*31 + 7)
					src.Seed(seed*31 + 7)
					total, n = total+n, 0
				}
			}
			if src.Draws() != n {
				t.Fatalf("seed %d: Draws = %d, want %d", seed, src.Draws(), n)
			}
		}
	}
}

// TestCountingSourceSkipRestoresPosition: variable-draw consumers
// (Float64, Intn) are restored exactly by (seed, draws).
func TestCountingSourceSkipRestoresPosition(t *testing.T) {
	src := NewCountingSource(99)
	counted := rand.New(src)
	for i := 0; i < 500; i++ {
		counted.Float64()
		counted.Intn(7)
	}
	rsrc := NewCountingSource(99)
	rsrc.Skip(src.Draws())
	restored := rand.New(rsrc)
	for i := 0; i < 1000; i++ {
		if a, b := counted.Int63(), restored.Int63(); a != b {
			t.Fatalf("post-skip draw %d: live %d, restored %d", i, a, b)
		}
	}
}

// refSkip is Skip as it was: one recurrence step per discarded draw.
// TestSkipMatchesPerDraw steps the windowed Skip against it.
func refSkip(s *CountingSource, n uint64) {
	for i := uint64(0); i < n; i++ {
		s.Uint64()
	}
}

// TestSkipMatchesPerDraw: the windowed Skip leaves the very state —
// all 607 slots, both cursors and the draw count — that discarding the
// draws one at a time does, across every cursor wrap (at 273 draws the
// tap cursor wraps, at 334 the feed cursor, at 607 both are back where
// they started) and from cursors that do not start at a wrap.
func TestSkipMatchesPerDraw(t *testing.T) {
	counts := []uint64{0, 1, 272, 273, 274, 333, 334, 606, 607, 608, 1214, 4001, 123_457}
	for _, pre := range []uint64{0, 1, 100, 272, 333, 606} {
		for _, n := range counts {
			got, want := NewCountingSource(7), NewCountingSource(7)
			refSkip(got, pre)
			refSkip(want, pre)
			got.Skip(n)
			refSkip(want, n)
			if *got != *want {
				t.Fatalf("after %d draws, Skip(%d) left tap %d feed %d draws %d, per-draw tap %d feed %d draws %d (or a slot differs)",
					pre, n, got.tap, got.feed, got.n, want.tap, want.feed, want.n)
			}
		}
	}
}

// TestOpenLeavesTableUndecoded: Open steps over the packet table, so a
// meta read materialises no packet; the body's first packet reference
// decodes the table, from the attached arena when there is one.
func TestOpenLeavesTableUndecoded(t *testing.T) {
	a := message.NewPacket(1, 0, 5, message.Request, 5, 100)
	b := message.NewPacket(2, 3, 4, message.Response, 1, 200)
	w := NewWriter()
	w.Packet(nil)
	w.Packet(b)
	w.Packet(a)
	w.Packet(b)
	blob := Seal([]byte("meta"), w)
	_, r, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if r.pkts != nil || r.table == nil {
		t.Fatalf("Open decoded the packet table: %d packets", len(r.pkts))
	}
	pl := message.NewPool()
	r.Arena(pl)
	if r.Packet() != nil || r.pkts != nil {
		t.Fatal("a nil reference decoded the packet table")
	}
	rb, ra, rb2 := r.Packet(), r.Packet(), r.Packet()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if rb != rb2 || ra == rb || ra.ID != 1 || rb.ID != 2 || rb.Class != message.Response {
		t.Errorf("table decoded to %+v, %+v, %+v", rb, ra, rb2)
	}
	if pl.News != 2 || pl.Gets != 0 {
		t.Errorf("arena carved %d packets and handed out %d, want 2 and 0", pl.News, pl.Gets)
	}

	// A table that does not decode to exactly its length fails the body
	// at its first packet reference, not at Open.
	bad := append([]byte(nil), blob...)
	tbl := 12 + 1 + len("meta")
	bad[tbl] += 2 // zigzag: one byte past the table now belongs to it
	binary.LittleEndian.PutUint32(bad[8:12], crc32.ChecksumIEEE(bad[12:]))
	_, r, err = Open(bad)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	r.Packet()
	if r.Packet(); r.Err() == nil || !strings.Contains(r.Err().Error(), "packet table ends 1 bytes before its length") {
		t.Errorf("overlong table: %v", r.Err())
	}
}

// TestWriterResetDropsPacketReferences: a retained Writer must not pin
// packets from its previous encode — Reset clears the table slots, not
// just the length — and a reused Writer seals the same bytes as a fresh
// one.
func TestWriterResetDropsPacketReferences(t *testing.T) {
	encode := func(w *Writer, ps ...*message.Packet) []byte {
		w.Int(len(ps))
		for _, p := range ps {
			w.Packet(p)
		}
		return Seal([]byte("meta"), w)
	}
	a := message.NewPacket(1, 0, 3, message.Request, 5, 10)
	b := message.NewPacket(2, 1, 2, message.Response, 1, 11)

	w := NewWriter()
	encode(w, a, b, a)
	w.Reset()
	if len(w.Bytes()) != 0 || len(w.order) != 0 || len(w.pkts) != 0 {
		t.Fatalf("Reset left %d body bytes, %d table rows, %d map entries",
			len(w.Bytes()), len(w.order), len(w.pkts))
	}
	for i, p := range w.order[:cap(w.order)] {
		if p != nil {
			t.Errorf("Reset left packet %d pinned in table slot %d", p.ID, i)
		}
	}
	if reused, fresh := encode(w, b), encode(NewWriter(), b); !bytes.Equal(reused, fresh) {
		t.Errorf("reused Writer sealed %x, fresh Writer %x", reused, fresh)
	}
}

// TestPoolBlobIgnoresChunkSlack: a pool's encoding is its free list and
// counters only. A pool with uncarved chunk slots and the pool restored
// from its blob (which has no chunk at all) seal to the same bytes, and
// the restored free list keeps its use-after-free poison.
func TestPoolBlobIgnoresChunkSlack(t *testing.T) {
	seal := func(pl *message.Pool) []byte {
		w := NewWriter()
		WritePool(w, pl)
		return Seal(nil, w)
	}
	pl := message.NewPool()
	a := pl.Get(1, 0, 3, message.Request, 5, 10)
	b := pl.Get(2, 1, 2, message.Response, 1, 11)
	pl.Get(3, 2, 1, message.Unblock, 1, 12) // still live: absent from the free list
	pl.PutCtx(a, -1, -1)
	pl.PutCtx(b, -1, -1) // 3 of the first chunk's slots carved, the rest unconsumed
	blob := seal(pl)

	_, r, err := Open(blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	restored := message.NewPool()
	ReadPool(r, restored)
	if err := r.Err(); err != nil {
		t.Fatalf("ReadPool: %v", err)
	}
	if got := seal(restored); !bytes.Equal(got, blob) {
		t.Errorf("restored pool (no chunk) seals to\n%x\npool with chunk slack sealed to\n%x", got, blob)
	}
	if restored.Gets != 3 || restored.Puts != 2 || restored.News != 3 || restored.FreeLen() != 2 {
		t.Errorf("restored Gets/Puts/News/free = %d/%d/%d/%d, want 3/2/3/2",
			restored.Gets, restored.Puts, restored.News, restored.FreeLen())
	}

	free := restored.FreeList()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic on a restored pool", what)
			}
		}()
		f()
	}
	mustPanic("double release", func() { restored.PutCtx(free[0], -1, -1) })
	free[len(free)-1].Hops = 3 // use-after-free across the restore boundary
	mustPanic("Get of a dirtied packet", func() { restored.Get(4, 0, 1, message.Request, 1, 20) })
}

// TestOpenRejectsOlderVersion: v6 encodes only live buffers and puts the
// packet table behind its byte length, so a blob written by a version-5
// build (a MinBD mid-run checkpoint, kept as testdata) must fail Open's
// version check — before the crc — rather than be misread.
func TestOpenRejectsOlderVersion(t *testing.T) {
	if Version != 6 {
		t.Fatalf("Version = %d; this test pins the 5 → 6 bump", Version)
	}
	f, err := os.Open("testdata/v5_MinBD.ckpt.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	v5 := new(bytes.Buffer)
	if _, err := v5.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(v5.Bytes())
	if err == nil || !strings.Contains(err.Error(), "format version 5, this build reads only 6") {
		t.Errorf("Open(version 5 blob) = %v, want the format-version error", err)
	}
}
