package main

import (
	"bytes"
	"fmt"
	"os"
)

// telemetrySink buffers each scheme's JSONL telemetry stream in memory
// and writes them out in scheme order after the sweep, so the file is
// byte-identical at any -j. A scheme's series is one serial cell, so
// its buffer has one writer and receives the runs in rate order; a
// padded (post-saturation) point never runs and writes nothing.
type telemetrySink struct {
	window int64
	bufs   []bytes.Buffer // one per scheme
}

// writeFile concatenates the streams in scheme order.
func (s *telemetrySink) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, buf := range s.bufs {
		if _, err := f.Write(buf.Bytes()); err != nil {
			f.Close()
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	return f.Close()
}
