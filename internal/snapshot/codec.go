// Package snapshot is the serialization substrate for checkpoint /
// restore: a versioned, deterministic, stdlib-only binary codec plus
// the small contracts (Stater, manifests, counting RNG sources) that
// let every stateful simulator layer express its mutable state
// explicitly.
//
// # Format
//
// A sealed checkpoint is
//
//	magic u32 | version u32 | crc32 u32 | meta len + bytes | table len + packet table | graph body
//
// where the header words, packet references and floats are fixed-width
// little-endian and every other integer is a varint (zigzag for signed
// values), so the small counts and cycle numbers that make up most of
// a simulator's state cost a byte or two. The crc covers all bytes
// after itself, so truncation and corruption fail loudly at Open
// rather than as a garbled restore. The meta blob is opaque to this
// package — the simulator stores its full run configuration there so a
// checkpoint file is self-describing (restore needs no flags).
//
// # Pointer translation
//
// Live state is a graph: the same *message.Packet is referenced from a
// VC entry, the trace, a controller flight and possibly a pool free
// list. Writer.Packet registers each distinct packet on first
// encounter and emits a table index, so shared references encode as
// shared indices and survive a process boundary. Seal then writes the
// packet table (each packet's own fields, in first-encounter order)
// ahead of the graph body. Open only steps over the table, by its byte
// length, so reading a blob's meta decodes no packet; the body Reader
// materialises the table at its first packet reference — carving the
// packets from an attached arena (Reader.Arena) — and resolves every
// later index through the same index→pointer mapping, so decoding
// rebuilds the exact aliasing structure.
//
// Encoding never iterates a map (first-encounter order is carried by a
// slice) and never reads the wall clock, so identical state produces
// identical bytes — the property the checkpoint-equivalence CI job
// diffs on.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/message"
)

// Version is the checkpoint format version. Bump it on any layout
// change; Open rejects mismatches outright (no cross-version decode —
// a checkpoint is a resume token, not an archival format).
const Version = 6

// magic spells "NOCS" when the u32 is read little-endian.
const magic = 0x53434f4e

// Writer serialises state into a growing buffer. The zero Writer is
// not usable for packet references; construct with NewWriter.
type Writer struct {
	buf   []byte
	pkts  map[*message.Packet]int32
	order []*message.Packet
	// table is Seal's scratch for the encoded packet table, retained so
	// a reused body Writer seals without growing a fresh buffer.
	table []byte
}

// NewWriter returns an empty Writer ready to register packet
// references.
func NewWriter() *Writer {
	return &Writer{pkts: make(map[*message.Packet]int32)}
}

// Reset empties the Writer for another encode, keeping the capacity of
// its buffers and packet map. Registered packet references are dropped,
// not merely truncated: a retained Writer must not pin packets the
// simulation has since recycled.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	clear(w.pkts)
	clear(w.order)
	w.order = w.order[:0]
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.U8(b)
}

// U32 writes a fixed 4-byte little-endian word.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// I32 writes an int32 as its two's-complement u32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// U64 writes an unsigned varint: one byte below 128, at most ten.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 writes a zigzag varint, so small magnitudes of either sign stay
// short.
func (w *Writer) I64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Int writes an int as an I64 (cycle counters and lengths are int64 or
// machine ints throughout the simulator).
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64's bit pattern as a fixed 8-byte word.
func (w *Writer) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// Packet writes a reference to p: -1 for nil, otherwise p's index in
// the packet table, registering p on first encounter.
func (w *Writer) Packet(p *message.Packet) {
	if p == nil {
		w.I32(-1)
		return
	}
	idx, ok := w.pkts[p]
	if !ok {
		idx = int32(len(w.order))
		w.pkts[p] = idx
		w.order = append(w.order, p)
	}
	w.I32(idx)
}

// Bytes returns the encoded buffer (the graph body when the Writer is
// later passed to Seal).
func (w *Writer) Bytes() []byte { return w.buf }

// Reader decodes a buffer produced by a Writer. Errors are sticky:
// after the first failure every read returns a zero value and Err
// reports the original cause, so decode call-sites stay unconditional.
type Reader struct {
	data []byte
	off  int
	err  error
	pkts []*message.Packet
	// table is the sealed packet table until the first packet reference
	// decodes it into pkts; arena, when set, is where its packets are
	// carved.
	table []byte
	arena *message.Pool
}

// NewReader wraps raw bytes (used for the meta blob, which carries no
// packet references).
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err reports the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

// take consumes n bytes, or fails.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.off {
		r.fail("truncated: need %d bytes at offset %d of %d", n, r.off, len(r.data))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool, rejecting anything but 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.fail("corrupt bool byte %d", v)
	}
	return v == 1
}

// U32 reads a fixed 4-byte little-endian word.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I32 reads an int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// U64 reads an unsigned varint, failing where the buffer ends inside it
// or it runs past 64 bits.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	switch v, n := binary.Uvarint(r.data[r.off:]); {
	case n == 0:
		r.fail("truncated varint at offset %d of %d", r.off, len(r.data))
	case n < 0:
		r.fail("overlong varint at offset %d", r.off)
	default:
		r.off += n
		return v
	}
	return 0
}

// I64 reads a zigzag varint.
func (r *Reader) I64() int64 {
	u := r.U64()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 from its fixed 8-byte bit pattern.
func (r *Reader) F64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.take(r.Int())) }

// Arena makes the packets of r's table come from pl's chunks rather
// than one allocation each. It must precede the first packet reference.
func (r *Reader) Arena(pl *message.Pool) { r.arena = pl }

// Packet resolves a packet reference written by Writer.Packet.
func (r *Reader) Packet() *message.Packet {
	idx := r.I32()
	if idx >= 0 && r.table != nil {
		r.loadTable()
	}
	if r.err != nil || idx < 0 {
		return nil
	}
	if int(idx) >= len(r.pkts) {
		r.fail("packet reference %d out of table range %d", idx, len(r.pkts))
		return nil
	}
	return r.pkts[int(idx)]
}

// packetRow walks one packet's own fields for the table. The unexported
// recycled marker is deliberately absent: free-list membership defines
// it, and Pool restore re-poisons pooled packets.
func packetRow(s State, p *message.Packet) {
	Uint(s, &p.ID)
	Int(s, &p.Src, &p.Dst)
	Byte(s, &p.Class)
	Int(s, &p.Len)
	Uint(s, &p.TxnID)
	Int(s, &p.CreateTime, &p.InjectTime, &p.EjectTime)
	Byte(s, &p.Kind)
	Int(s, &p.RegularCycles, &p.FastCycles)
	Int(s, &p.Dropped)
	s.Bool(&p.Rejected)
	Int(s, &p.Hops)
	s.Bool(&p.Corrupted)
}

// loadTable materialises the packet table; a table that does not
// decode to exactly its length fails r.
func (r *Reader) loadTable() {
	t := &Reader{data: r.table}
	r.table = nil
	r.pkts = make([]*message.Packet, t.State().Len(0, math.MaxInt, "packet table count"))
	for i := 0; i < len(r.pkts) && t.err == nil; i++ {
		if r.arena != nil {
			r.pkts[i] = r.arena.Carve()
		} else {
			r.pkts[i] = new(message.Packet)
		}
		packetRow(t.State(), r.pkts[i])
	}
	if t.err == nil && t.off != len(t.data) {
		t.fail("packet table ends %d bytes before its length", len(t.data)-t.off)
	}
	if r.err == nil {
		r.err = t.err
	}
}

// Seal assembles a checkpoint file from an opaque meta blob and a
// fully-encoded graph body: header, meta, the packet table (in the
// body's first-encounter order, behind its byte length) and the body
// bytes, with the crc stamped over everything after itself. The returned
// blob is a fresh exact-size slice owned by the caller — it never
// aliases the body Writer, which may be Reset and reused; the table is
// staged in scratch the body Writer retains, so the blob is Seal's only
// allocation.
func Seal(meta []byte, body *Writer) []byte {
	t := Writer{buf: body.table[:0]}
	t.Int(len(body.order))
	for _, p := range body.order {
		packetRow(t.State(), p)
	}
	body.table = t.buf

	h := Writer{buf: make([]byte, 0, 12+2*binary.MaxVarintLen64+len(meta)+len(t.buf)+len(body.buf))}
	h.U32(magic)
	h.U32(Version)
	h.U32(0) // crc placeholder
	h.Int(len(meta))
	h.buf = append(h.buf, meta...)
	h.Int(len(t.buf))
	h.buf = append(h.buf, t.buf...)
	h.buf = append(h.buf, body.buf...)
	binary.LittleEndian.PutUint32(h.buf[8:12], crc32.ChecksumIEEE(h.buf[12:]))
	return h.buf
}

// Open validates a sealed checkpoint and splits it back into the meta
// blob and a body Reader, which decodes the packet table at its first
// packet reference.
func Open(data []byte) (meta []byte, body *Reader, err error) {
	r := &Reader{data: data}
	if m := r.U32(); r.err == nil && m != magic {
		return nil, nil, fmt.Errorf("snapshot: bad magic %#08x (not a checkpoint file?)", m)
	}
	if v := r.U32(); r.err == nil && v != Version {
		return nil, nil, fmt.Errorf("snapshot: format version %d, this build reads only %d", v, Version)
	}
	crc := r.U32()
	if r.err == nil && crc32.ChecksumIEEE(data[12:]) != crc {
		return nil, nil, fmt.Errorf("snapshot: crc mismatch (truncated or corrupted checkpoint)")
	}
	meta = append([]byte(nil), r.take(r.Int())...)
	table := r.take(r.Int())
	if r.err != nil {
		return nil, nil, r.err
	}
	return meta, &Reader{data: data, off: r.off, table: table}, nil
}
