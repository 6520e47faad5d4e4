package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Record(1, PacketCreated, 1, 0, "") // must not panic
	if r.Len() != 0 || r.Total() != 0 || r.Count(PacketCreated) != 0 {
		t.Fatal("nil recorder should report zeros")
	}
	if r.Events() != nil {
		t.Fatal("nil recorder should return nil events")
	}
	if !strings.Contains(r.Summary(), "disabled") {
		t.Fatal("nil summary should say disabled")
	}
}

func TestRecordAndQuery(t *testing.T) {
	r := New(10)
	r.Record(1, PacketCreated, 7, 0, "")
	r.Record(2, PacketPromoted, 7, 3, "lane 1")
	r.Record(3, PacketEjected, 7, 5, "")
	r.Record(3, RecoveryAction, 0, -1, "drain rotation")
	if r.Len() != 4 || r.Total() != 4 {
		t.Fatalf("len=%d total=%d", r.Len(), r.Total())
	}
	if r.Count(PacketPromoted) != 1 || r.Count(PacketDropped) != 0 {
		t.Error("per-kind counts wrong")
	}
	hist := r.PacketHistory(7)
	if len(hist) != 3 {
		t.Fatalf("history = %d events", len(hist))
	}
	if hist[0].Kind != PacketCreated || hist[2].Kind != PacketEjected {
		t.Error("history out of order")
	}
}

func TestRingEviction(t *testing.T) {
	r := New(3)
	for i := int64(1); i <= 5; i++ {
		r.Record(i, PacketCreated, uint64(i), 0, "")
	}
	if r.Len() != 3 {
		t.Fatalf("retained %d, want 3", r.Len())
	}
	if r.Total() != 5 {
		t.Fatalf("total %d, want 5", r.Total())
	}
	ev := r.Events()
	// The oldest two were evicted; order must remain chronological.
	if ev[0].Cycle != 3 || ev[2].Cycle != 5 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := New(4)
	r.Record(10, PacketPromoted, 42, 3, "lane 0")
	r.Record(11, PacketEjected, 42, 9, "")
	var txt bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"promoted", "pkt 42", "node 3", "lane 0", "ejected"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(decoded) != 2 || decoded[0]["kind"] != "promoted" {
		t.Fatalf("decoded = %v", decoded)
	}
}

func TestSummary(t *testing.T) {
	r := New(8)
	r.Record(1, PacketDropped, 1, 2, "")
	r.Record(2, PacketDropped, 3, 2, "")
	s := r.Summary()
	if !strings.Contains(s, "dropped") || !strings.Contains(s, "2") {
		t.Errorf("summary = %q", s)
	}
}

func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("kind %d has bad name %q", k, name)
		}
		if seen[name] {
			t.Errorf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

// Total reports all events ever recorded (including evicted ones).
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Count reports the number of events of a kind ever recorded.
func (r *Recorder) Count(k Kind) int64 {
	if r == nil {
		return 0
	}
	return r.byKind[k]
}
