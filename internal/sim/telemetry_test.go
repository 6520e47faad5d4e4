package sim

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/obs"
)

// telemetryBase is checkpointBase with windowed telemetry on: window
// 250 over a 1800-cycle run closes seven windows plus the Finish
// partial, and 250 does not divide the checkpoint cadences used below,
// so restore tests always split mid-window.
func telemetryBase(shards int) SynthConfig {
	cfg := checkpointBase(FastPass, shards)
	cfg.Telemetry.Window = 250
	return cfg
}

// telemetryJSONL runs cfg with a buffer JSONL sink and returns the
// stream bytes plus the result.
func telemetryJSONL(cfg SynthConfig) ([]byte, SynthResult) {
	var buf bytes.Buffer
	cfg.Telemetry.JSONL = &buf
	res := RunSynthetic(cfg)
	return buf.Bytes(), res
}

// TestTelemetryJSONLShardInvariant: the telemetry stream is part of the
// determinism contract — the same seed must emit byte-identical JSONL
// at any shard count, because every window closes serially between
// Steps over counters whose writers are uniquely owned by one shard.
func TestTelemetryJSONLShardInvariant(t *testing.T) {
	base, _ := telemetryJSONL(telemetryBase(1))
	if len(base) == 0 {
		t.Fatal("telemetry run emitted no JSONL")
	}
	if n := bytes.Count(base, []byte{'\n'}); n < 8 {
		t.Fatalf("expected meta line plus >=7 window records, got %d lines", n)
	}
	for _, shards := range []int{2, 4} {
		got, _ := telemetryJSONL(telemetryBase(shards))
		if !bytes.Equal(got, base) {
			t.Errorf("shards=%d telemetry differs from shards=1 (len %d vs %d)",
				shards, len(got), len(base))
		}
	}
}

// TestTelemetryDoesNotPerturbFigures: attaching telemetry must not
// change a single result field — the probes are read-only closures over
// counters the layers maintain anyway.
func TestTelemetryDoesNotPerturbFigures(t *testing.T) {
	plain := RunSynthetic(checkpointBase(FastPass, 1))
	_, instrumented := telemetryJSONL(telemetryBase(1))
	if got, want := resultFingerprint(instrumented), resultFingerprint(plain); got != want {
		t.Errorf("telemetry perturbed the run\nwith:    %s\nwithout: %s", got, want)
	}
}

// TestTelemetryCheckpointSplitByteIdentical: snapshot mid-window,
// restore into a fresh instance with a fresh sink, and the head stream
// (bytes emitted before the checkpoint) concatenated with the tail
// stream must equal the uninterrupted run's stream byte for byte — the
// restored Metrics carries the partial window's baseline, the histogram
// and the window ring across the blob.
func TestTelemetryCheckpointSplitByteIdentical(t *testing.T) {
	fullCfg := telemetryBase(1)
	var fullBuf bytes.Buffer
	fullCfg.Telemetry.JSONL = &fullBuf
	full := NewSynthetic(fullCfg)
	fullRes := finish(full)
	wantWindows := full.tel.Windows()

	// Head run: checkpoint every 700 cycles (not a multiple of the
	// 250-cycle window). The run continues after each checkpoint, so the
	// stream-so-far is snapshotted inside the callback; the last
	// checkpoint (cycle 1400) wins.
	headCfg := telemetryBase(1)
	var headBuf bytes.Buffer
	headCfg.Telemetry.JSONL = &headBuf
	headCfg.CheckpointEvery = 700
	var blob, headStream []byte
	var at int64
	headCfg.OnCheckpoint = func(cycle int64, b []byte) {
		at, blob = cycle, b
		headStream = append(headStream[:0], headBuf.Bytes()...)
	}
	RunSynthetic(headCfg)
	if blob == nil {
		t.Fatal("no checkpoint was taken")
	}
	if at%fullCfg.Telemetry.Window == 0 {
		t.Fatalf("checkpoint at cycle %d is window-aligned; the test needs a mid-window split", at)
	}

	rcfg, err := OpenCheckpoint(blob)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	if rcfg.Telemetry.Window != fullCfg.Telemetry.Window {
		t.Fatalf("recorded telemetry window %d, want %d", rcfg.Telemetry.Window, fullCfg.Telemetry.Window)
	}
	var tailBuf bytes.Buffer
	rcfg.Telemetry.JSONL = &tailBuf
	resumed := NewSynthetic(rcfg)
	if err := resumed.restore(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	resRes := finish(resumed)

	if got, want := resultFingerprint(resRes), resultFingerprint(fullRes); got != want {
		t.Errorf("resumed result differs\nresumed: %s\nfull:    %s", got, want)
	}
	if got := resumed.tel.Windows(); got != wantWindows {
		t.Errorf("resumed run closed %d windows total, want %d", got, wantWindows)
	}
	combined := append(append([]byte(nil), headStream...), tailBuf.Bytes()...)
	if !bytes.Equal(combined, fullBuf.Bytes()) {
		t.Errorf("head+tail streams differ from the uninterrupted stream (len %d vs %d)",
			len(combined), fullBuf.Len())
	}
}

// TestTelemetryUnperturbedByHTTPReaders: a live observe server with
// clients hammering /metrics and holding an /events SSE stream during
// the run must not change the emitted JSONL or the figures — Publish
// copies bytes under a lock and never blocks on readers.
func TestTelemetryUnperturbedByHTTPReaders(t *testing.T) {
	quiet, quietRes := telemetryJSONL(telemetryBase(1))

	srv, err := obs.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("obs.New: %v", err)
	}
	defer srv.Close()

	cfg := telemetryBase(1)
	var buf bytes.Buffer
	cfg.Telemetry.JSONL = &buf
	cfg.Telemetry.Publish = srv.Publish

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // scrape /metrics as fast as the server answers
		defer wg.Done()
		for ctx.Err() == nil {
			req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+srv.Addr()+"/metrics", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	go func() { // hold an SSE stream open for the whole run
		defer wg.Done()
		req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+srv.Addr()+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
	}()

	res := RunSynthetic(cfg)
	cancel()
	wg.Wait()

	if got, want := resultFingerprint(res), resultFingerprint(quietRes); got != want {
		t.Errorf("HTTP readers perturbed the run\nobserved: %s\nquiet:    %s", got, want)
	}
	if !bytes.Equal(buf.Bytes(), quiet) {
		t.Errorf("telemetry JSONL differs with live HTTP readers (len %d vs %d)",
			buf.Len(), len(quiet))
	}
}
