package network

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/snapshot"
)

// fresh3x3 is the network the restore tests decode into: 3×3, one VC,
// 24 directed links.
func fresh3x3() *Network { return New(paramsWith(3, 3, 1, 1, routing.XY)) }

func seal(n *Network) []byte {
	w := snapshot.NewWriter()
	n.SnapshotState(w)
	return snapshot.Seal(nil, w)
}

// FuzzNetworkRestore feeds RestoreState arbitrary bodies (the crc is
// re-stamped, so the fuzzer gets past Open): a hostile checkpoint must
// fail the reader, never panic. The seeds are a fresh 3×3 network's blob
// and one with packets in flight and claims held.
func FuzzNetworkRestore(f *testing.F) {
	f.Add(seal(fresh3x3()))
	busy := fresh3x3()
	for s := 0; s < 9; s++ {
		busy.NICs[s].EnqueueSource(message.NewPacket(uint64(s+1), s, 8-s, message.Request, 1+s%5, 0))
	}
	busy.Run(4)
	busy.ClaimLink(3)
	busy.ClaimEject(4)
	f.Add(seal(busy))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 12 {
			binary.LittleEndian.PutUint32(data[8:12], crc32.ChecksumIEEE(data[12:]))
		}
		if _, r, err := snapshot.Open(data); err == nil {
			fresh3x3().RestoreState(r)
		}
	})
}

// TestRestoreRejectsBadIndices crafts, for every list RestoreState
// indexes with a decoded value and every mask whose bits name VCs or
// classes, a body whose one entry is out of range (or repeated), and
// requires a reader error naming the list instead of a panic. The
// "entry" rows put one packet of two flits in router 0's East input VC,
// its fields {Arrived, Sent, Allocated, OutPort, OutVC} from bad; the
// "arbiter cursor" rows set router 0's cursor bad[0] to bad[1].
func TestRestoreRejectsBadIndices(t *testing.T) {
	for _, tc := range []struct {
		list string
		bad  []int
		want string
	}{
		{"flit VC", []int{1}, "flit VC 1 outside [0, 1)"},
		{"claimed link", []int{1 << 40}, "claimed link 1099511627776 outside [0, 24)"},
		{"claimed link", []int{3, 3}, "claimed link 3 repeated"},
		{"claimed ejection port", []int{9}, "claimed ejection port 9 outside [0, 9)"},
		{"claimed ejection port", []int{4, 4}, "claimed ejection port 4 repeated"},
		{"dirty channel", []int{24}, "dirty channel 24 outside [0, 24)"},
		{"dirty channel", []int{2, 2}, "dirty channel 2 repeated"},
		{"active router", []int{-5}, "active router -5 outside [0, 9)"},
		{"active NIC", []int{1 << 40}, "active NIC 1099511627776 outside [0, 9)"},
		// A network port of the 1-VC mesh has VC 0 only; a NIC six classes.
		{"occupancy", []int{1 << 1}, "router occupancy mask 0x2 names a bit past 1"},
		{"nic classes", []int{1 << 6}, "nic class mask 0x40 names a bit past 6"},
		// Flit 1 of a 2-flit packet on link 0 (node 0 east to node 1)
		// while every router encodes its VCs empty: a router walk that
		// drops its highest occupied VC writes this, and the resumed run
		// used to panic in ringq when the flit arrived.
		{"landing", []int{1}, "link 0 carries a flit that router 1 port West VC 0 cannot take"},
		{"entry", []int{3, 0, 0, 0, 0}, "entry has 3 of 2 flits arrived, 0 sent"},
		{"entry", []int{1, 2, 1, 3, 0}, "entry has 1 of 2 flits arrived, 2 sent"},
		{"entry", []int{2, 1, 0, 0, 0}, "entry sent 1 flits unallocated"},
		{"entry", []int{2, 0, 1, 0, 3}, "ejects a class 0 packet on class 3"},
		// Router 0, the north-west corner, has no North output; the 1-VC
		// mesh no VC 1 and no port 5.
		{"entry", []int{2, 0, 1, 1, 0}, "granted port 1 VC 0, which router 0 lacks"},
		{"entry", []int{2, 1, 1, 3, 1}, "granted port 3 VC 1, which router 0 lacks"},
		{"entry", []int{2, 0, 1, 5, 0}, "granted port 5 VC 0, which router 0 lacks"},
		// Cursors 0-4 are the ports' VC arbiters (the Local one over six
		// classes, the rest over one VC), 5-9 the output arbiters over
		// five inputs, 10 the port tie-break.
		{"arbiter cursor", []int{0, 6}, "arbiter cursor 6 outside [0, 6)"},
		{"arbiter cursor", []int{2, 1}, "arbiter cursor 1 outside [0, 1)"},
		{"arbiter cursor", []int{10, 200}, "arbiter cursor 200 outside [0, 5)"},
	} {
		n := fresh3x3()
		w := snapshot.NewWriter()
		w.I64(0)
		w.I64(0)
		list := func(name string) {
			switch {
			case name == "dirty channel" && (tc.list == "flit VC" || tc.list == "landing"):
				w.Int(1)
				w.Int(0)
			case name != tc.list:
				w.Int(0)
			default:
				w.Int(len(tc.bad))
				for _, v := range tc.bad {
					w.Int(v)
				}
			}
		}
		for range n.channels {
			w.I64(0) // flit counter
		}
		for _, name := range []string{"claimed link", "claimed ejection port", "dirty channel"} {
			list(name)
		}
		if seq, vc := 0, tc.bad[0]; tc.list == "flit VC" || tc.list == "landing" { // channel 0's link stage
			if tc.list == "landing" {
				seq, vc = tc.bad[0], 0
			}
			w.Packet(message.NewPacket(1, 0, 1, message.Request, 2, 0))
			w.Int(seq)
			w.Int(vc)
			w.U64(0)
			w.U8(0)
		}
		list("active router")
		list("active NIC")
		mask := func(name string) {
			if name == tc.list {
				w.U64(uint64(tc.bad[0]))
			} else {
				w.U64(0)
			}
		}
		for range n.NICs {
			w.I64(0) // Enqueued
			mask("nic classes")
			w.U64(0) // no reservations
		}
		for id := range n.Routers {
			for range 5 { // four credit masks and the ejection locks
				w.U64(0)
			}
			w.U64(0) // the Local port's occupancy
			for p := 1; p < 5; p++ {
				if e := tc.bad; id == 0 && p == 2 && tc.list == "entry" {
					w.U64(1)
					w.Int(e[0] - e[1]) // flits buffered
					w.Int(1)           // one packet
					w.Packet(message.NewPacket(1, 1, 0, message.Request, 2, 0))
					w.Int(e[0])
					w.Int(e[1])
					w.Bool(e[2] == 1)
					w.Int(e[3])
					w.Int(e[4])
					w.Int(0) // EnqueueCycle
					w.Int(0) // LastMove
					continue
				}
				mask("occupancy")
			}
			for k := range 13 { // arbiter cursors and counters
				if id == 0 && tc.list == "arbiter cursor" && k == tc.bad[0] {
					w.Int(tc.bad[1])
				} else {
					w.Int(0)
				}
			}
		}
		w.Bool(false) // no controller state
		w.Bool(false) // no fault injector
		_, r, err := snapshot.Open(snapshot.Seal(nil, w))
		if err != nil {
			t.Fatal(err)
		}
		n.RestoreState(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: restore error %v, want %q", tc.list, tc.bad, err, tc.want)
		}
	}
}
