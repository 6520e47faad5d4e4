package message

import (
	"fmt"
	"iter"
)

// Queue is a FIFO of packets that owns no memory: it is threaded
// through the packets themselves (Packet.next), which the arena already
// holds, so a queue of any depth costs three words and never touches
// the allocator. The price is the ownership rule the NIC and MinBD
// source/ejection queues obey anyway — a packet waits in at most one
// Queue at a time. The rule is enforced: pushing a packet that is
// already queued panics, and so does releasing a queued packet to a
// Pool. The zero value is an empty queue.
type Queue struct {
	head, tail *Packet
	n          int
}

// Len reports the number of queued packets.
func (q *Queue) Len() int { return q.n }

// Front returns the oldest packet, or nil when the queue is empty.
func (q *Queue) Front() *Packet { return q.head }

// Queued reports whether p currently waits in a Queue.
func (p *Packet) Queued() bool { return p.queued }

// claim marks p as queued, or panics when it already waits somewhere.
func claim(p *Packet) {
	if p.queued {
		panic(fmt.Sprintf("message: packet %d pushed onto a queue while still in one", p.ID))
	}
	p.queued = true
}

// PushBack appends p at the tail.
func (q *Queue) PushBack(p *Packet) {
	claim(p)
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.n++
}

// PushFront inserts p ahead of every queued packet (the MSHR re-issuing
// a dropped request ahead of younger traffic).
func (q *Queue) PushFront(p *Packet) {
	claim(p)
	if q.head == nil {
		q.tail = p
	}
	p.next, q.head = q.head, p
	q.n++
}

// PopFront removes and returns the oldest packet, which is then free to
// join another queue or return to its Pool. It panics on an empty queue.
func (q *Queue) PopFront() *Packet {
	p := q.head
	if p == nil {
		panic("message: PopFront of empty queue")
	}
	if q.head = p.next; q.head == nil {
		q.tail = nil
	}
	p.next, p.queued = nil, false
	q.n--
	return p
}

// All iterates the queued packets oldest first. The queue must not
// change during the walk.
func (q *Queue) All() iter.Seq[*Packet] {
	return func(yield func(*Packet) bool) {
		for p := q.head; p != nil; p = p.next {
			if !yield(p) {
				return
			}
		}
	}
}
