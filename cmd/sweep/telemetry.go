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
// writer to it, so no locking is needed. A padded (post-saturation)
// point never runs, so its buffer stays empty.
type telemetrySink struct {
	window  int64
	rateIdx map[float64]int
	bufs    [][]*bytes.Buffer // [scheme][rate]
}

func newTelemetrySink(cfg sweepConfig, window int64) *telemetrySink {
	s := &telemetrySink{
		window:  window,
		rateIdx: make(map[float64]int, len(cfg.rates)),
		bufs:    make([][]*bytes.Buffer, len(cfg.schemes)),
	}
	for i, r := range cfg.rates {
		s.rateIdx[r] = i
	}
	for j := range s.bufs {
		s.bufs[j] = make([]*bytes.Buffer, len(cfg.rates))
		for i := range s.bufs[j] {
			s.bufs[j][i] = &bytes.Buffer{}
		}
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

// writeFile concatenates the streams in (scheme, rate) order.
func (s *telemetrySink) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for j := range s.bufs {
		for _, buf := range s.bufs[j] {
			if _, err := f.Write(buf.Bytes()); err != nil {
				f.Close()
				return fmt.Errorf("telemetry: %w", err)
			}
		}
	}
	return f.Close()
}
