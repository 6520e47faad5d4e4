package message

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// checkQueue compares q with its model: length, front and the full
// in-order walk.
func checkQueue(t *testing.T, step int, q *Queue, model []*Packet) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("step %d: Len = %d, model holds %d", step, q.Len(), len(model))
	}
	var front *Packet
	if len(model) > 0 {
		front = model[0]
	}
	if q.Front() != front {
		t.Fatalf("step %d: Front = %v, model front %v", step, q.Front(), front)
	}
	i := 0
	for p := range q.All() {
		if i >= len(model) || p != model[i] {
			t.Fatalf("step %d: walk position %d yields %v, model disagrees", step, i, p)
		}
		if !p.Queued() {
			t.Fatalf("step %d: %v is linked but not marked queued", step, p)
		}
		i++
	}
	if i != len(model) {
		t.Fatalf("step %d: walk ended after %d of %d packets", step, i, len(model))
	}
}

// TestQueueAgainstSliceModel drives two queues sharing one population of
// packets through random pushes and pops, each against a plain slice
// model: a packet moves between the queues and the idle set exactly as
// it moves between a NIC's source and ejection queues.
func TestQueueAgainstSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var qs [2]Queue
	var models [2][]*Packet
	var idle []*Packet
	for i := 0; i < 24; i++ {
		idle = append(idle, NewPacket(uint64(i+1), 0, 1, Request, 1, 0))
	}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(2)
		q, model := &qs[k], &models[k]
		switch op := rng.Intn(3); {
		case op < 2 && len(idle) > 0:
			i := rng.Intn(len(idle))
			p := idle[i]
			idle[i] = idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			if op == 0 {
				q.PushBack(p)
				*model = append(*model, p)
			} else {
				q.PushFront(p)
				*model = append([]*Packet{p}, *model...)
			}
		case len(*model) > 0:
			p := q.PopFront()
			if p != (*model)[0] {
				t.Fatalf("step %d: PopFront = %v, model front %v", step, p, (*model)[0])
			}
			if p.Queued() || p.next != nil {
				t.Fatalf("step %d: popped %v still linked", step, p)
			}
			*model = (*model)[1:]
			idle = append(idle, p)
		}
		checkQueue(t, step, &qs[0], models[0])
		checkQueue(t, step, &qs[1], models[1])
	}
}

// mustPanicNaming runs f and requires a panic whose message names the
// packet.
func mustPanicNaming(t *testing.T, id uint64, f func()) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if want := fmt.Sprintf("packet %d ", id); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one naming %q", msg, want)
		}
	}()
	f()
}

func TestQueueOwnershipPanics(t *testing.T) {
	pl := NewPool()
	var a, b Queue
	p := pl.Get(41, 0, 1, Request, 1, 0)
	a.PushBack(p)
	mustPanicNaming(t, 41, func() { b.PushBack(p) })
	mustPanicNaming(t, 41, func() { a.PushFront(p) })
	mustPanicNaming(t, 41, func() { pl.PutCtx(p, 3, 99) })
	if a.Len() != 1 || b.Len() != 0 || pl.FreeLen() != 0 {
		t.Fatalf("a refused operation changed state: a=%d b=%d free=%d", a.Len(), b.Len(), pl.FreeLen())
	}
	// Off the queue the packet is free to go anywhere.
	b.PushBack(a.PopFront())
	pl.PutCtx(b.PopFront(), -1, -1)
	if got := pl.Get(42, 0, 1, Request, 1, 0); got != p {
		t.Error("released packet was not recycled")
	}
	defer func() {
		if recover() == nil {
			t.Error("PopFront of an empty queue did not panic")
		}
	}()
	a.PopFront()
}
