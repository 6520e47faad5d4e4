package dettaint

import (
	"math/rand"
	"sort"
	"time"
)

// hostInputs reads the host clock and process-global generator state:
// each call is a finding where it is made, hot path or not. A seeded
// generator and duration constants stay legal.
func hostInputs(seed int64) time.Duration {
	start := time.Now()
	n := rand.Intn(10)
	f := rand.Float64()
	rand.Shuffle(n, func(i, j int) {})
	_ = f + float64(rand.New(rand.NewSource(seed)).Intn(10))
	return time.Since(start) + time.Millisecond
}

// replay leaks map order into a channel and into a simulator method.
func (s *sim) replay(m map[int]bool, ch chan<- int) {
	for id := range m {
		ch <- id
	}
	for range m {
		s.clock()
	}
}

// sortedIDs is the collect-then-sort fix: not flagged.
func sortedIDs(m map[int]bool) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
