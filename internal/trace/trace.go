// Package trace records structured simulation events — packet
// lifecycles, lane activity, recovery actions — into a bounded ring
// buffer that tools and tests can query or export. Tracing is strictly
// opt-in: a nil *Recorder is a valid no-op sink, so the simulator hot
// paths pay one nil check when tracing is off.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Kind classifies an event.
type Kind uint8

// Event kinds, covering the packet lifecycle and the FastPass /
// recovery machinery.
const (
	PacketCreated Kind = iota
	PacketPromoted
	PacketRejected
	PacketParked
	PacketDropped
	PacketRegenerated
	PacketEjected
	LaneDeliver
	RecoveryAction // SWAP swap, SPIN spin, DRAIN rotation, Pitstop absorb
	numKinds
)

var kindNames = [numKinds]string{"created", "promoted", "rejected", "parked", "dropped", "regenerated", "ejected", "lane-deliver", "recovery"}

// String names the kind.
func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("kind(%d)", uint8(k)) //nocvet:ignore hotalloc2 unreachable for defined kinds; diagnostic fallback only
	}
	return kindNames[k]
}

// Event is one recorded occurrence.
type Event struct {
	Cycle int64  `json:"cycle"`
	Kind  Kind   `json:"-"`
	KindS string `json:"kind"`
	// Pkt is the packet ID (0 when not packet-related).
	Pkt uint64 `json:"pkt,omitempty"`
	// Node is the location (-1 when not applicable).
	Node int `json:"node"`
	// Note carries scheme-specific detail ("lane 3", "victim of bubble").
	Note string `json:"note,omitempty"`
}

// Recorder is a bounded ring buffer of events. The zero value is not
// usable; construct with New. A nil *Recorder discards events.
type Recorder struct {
	buf    []Event
	next   int
	total  int64
	byKind [numKinds]int64
}

// New creates a recorder keeping the most recent capacity events.
func New(capacity int) *Recorder {
	if capacity < 1 {
		panic("trace: capacity must be positive")
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// Record appends an event. Safe on a nil recorder (no-op).
func (r *Recorder) Record(cycle int64, kind Kind, pkt uint64, node int, note string) {
	if r == nil {
		return
	}
	e := Event{Cycle: cycle, Kind: kind, KindS: kind.String(), Pkt: pkt, Node: node, Note: note}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.byKind[kind]++
}

// Len reports the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Events returns the retained events in chronological order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// PacketHistory returns the retained events of one packet, in order.
func (r *Recorder) PacketHistory(pkt uint64) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Pkt == pkt {
			out = append(out, e)
		}
	}
	return out
}

// WriteText renders the retained events one per line.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, e := range r.Events() {
		line := fmt.Sprintf("cycle %-8d %-12s", e.Cycle, e.Kind)
		if e.Pkt != 0 {
			line += fmt.Sprintf(" pkt %-6d", e.Pkt)
		}
		if e.Node >= 0 {
			line += fmt.Sprintf(" node %-3d", e.Node)
		}
		if e.Note != "" {
			line += " " + e.Note
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the retained events as a JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Events())
}

// WriteJSONL renders the retained events as JSON Lines — one event
// object per line, the same encoding WriteJSON uses per element, ready
// to concatenate with other streams or feed line-oriented tools.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders per-kind totals.
func (r *Recorder) Summary() string {
	if r == nil {
		return "trace: disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events (%d retained)\n", r.total, len(r.buf))
	for k := Kind(0); k < numKinds; k++ {
		if r.byKind[k] > 0 {
			fmt.Fprintf(&b, "  %-12s %d\n", k, r.byKind[k])
		}
	}
	return b.String()
}
