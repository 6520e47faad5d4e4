package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/noc"
)

// telemetrySink buffers every run's JSONL telemetry stream in memory
// and writes them out in (scheme, rate) order after the sweep, so the
// file is byte-identical at any -j. Every buffer is preallocated before
// the fan-out — workers look up their own buffer by rate (buildRateGrid
// rejects repeated rates) in a read-only structure and are the only
// writer to it, so no locking is needed — and the buffers of padded
// (post-saturation) points are dropped on write: at -j N a worker may
// start such a point before the cutoff is known, while at -j 1 it
// never runs, and only discarding it keeps the output independent of
// the worker count.
type telemetrySink struct {
	window  int64
	rates   []float64
	rateIdx map[float64]int
	bufs    [][]*bytes.Buffer // [scheme][rate]
	cutoff  []int             // first padded rate index per scheme
}

func newTelemetrySink(cfg sweepConfig, window int64) *telemetrySink {
	s := &telemetrySink{
		window:  window,
		rates:   cfg.rates,
		rateIdx: make(map[float64]int, len(cfg.rates)),
		bufs:    make([][]*bytes.Buffer, len(cfg.schemes)),
		cutoff:  make([]int, len(cfg.schemes)),
	}
	for i, r := range cfg.rates {
		s.rateIdx[r] = i
	}
	for j := range s.bufs {
		s.bufs[j] = make([]*bytes.Buffer, len(cfg.rates))
		for i := range s.bufs[j] {
			s.bufs[j][i] = &bytes.Buffer{}
		}
		s.cutoff[j] = len(cfg.rates)
	}
	return s
}

// instrument wires scheme j's base config to route each run's JSONL
// stream into that (scheme, rate) buffer. The Instrument hook runs
// inside sim.NewSynthetic, after the sweep has set the point's Rate.
func (s *telemetrySink) instrument(j int, base *noc.SynthConfig) {
	base.Telemetry.Window = s.window
	base.Instrument = func(c *noc.SynthConfig) {
		if i, ok := s.rateIdx[c.Rate]; ok {
			c.Telemetry.JSONL = s.bufs[j][i]
		}
	}
}

// setCutoff records where scheme j's padded tail begins (from
// noc.PadCutoff over the measured series).
func (s *telemetrySink) setCutoff(j, cutoff int) { s.cutoff[j] = cutoff }

// writeFile concatenates the retained streams in (scheme, rate) order.
func (s *telemetrySink) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for j := range s.bufs {
		for i := 0; i < s.cutoff[j] && i < len(s.bufs[j]); i++ {
			if _, err := f.Write(s.bufs[j][i].Bytes()); err != nil {
				f.Close()
				return fmt.Errorf("telemetry: %w", err)
			}
		}
	}
	return f.Close()
}
