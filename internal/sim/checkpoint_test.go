package sim

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/message"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// checkpointBase is a configuration that exercises every snapshotted
// subsystem at once: tracing, watchdogs, the packet pool, and (for
// FastPass / Pitstop) controller-held packets.
func checkpointBase(s Scheme) SynthConfig {
	return SynthConfig{
		Options: Options{
			Scheme: s, W: 4, H: 4, Seed: 0xC0FFEE,
			DrainPeriod: 2048, SwapDuty: 256,
			TraceCapacity: 512,
			Watchdog:      "on",
		},
		Pattern: traffic.Uniform,
		Rate:    0.10,
		Warmup:  300, Measure: 900, Drain: 600,
	}
}

// traceText renders a recorder's retained events for byte comparison.
func traceText(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	var b strings.Builder
	if err := rec.WriteText(&b); err != nil {
		t.Fatalf("trace render: %v", err)
	}
	return b.String()
}

// lastCheckpoint runs cfg taking a checkpoint every `every` cycles and
// returns the final blob alongside the run's result.
func lastCheckpoint(cfg SynthConfig, every int64) (blob []byte, at int64, res SynthResult) {
	c := cfg
	c.CheckpointEvery = every
	c.OnCheckpoint = func(cycle int64, b []byte) { at, blob = cycle, b }
	res = RunSynthetic(c)
	return blob, at, res
}

// TestCheckpointResumeBitIdentical is the headline invariant: snapshot
// at cycle C, restore into a freshly built instance (from nothing but
// the blob bytes, as a separate process would), run to the end — and
// every stat, every retained trace event and every counter matches the
// uninterrupted run exactly. Checked for every scheme (MinBD takes its
// deflection-network path); the subtests keep the names they had when
// checkpoints encoded Options.Shards, at 1.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme.String()+"/shards=1", func(t *testing.T) {
			t.Parallel()
			cfg := checkpointBase(scheme)

			base := NewSynthetic(cfg)
			baseRes := finish(base)
			baseTrace := traceText(t, base.Inst.Trace)

			blob, at, chkRes := lastCheckpoint(cfg, 500)
			if blob == nil {
				t.Fatal("no checkpoint was taken")
			}
			if got, want := resultFingerprint(chkRes), resultFingerprint(baseRes); got != want {
				t.Fatalf("taking checkpoints perturbed the run\nwith:    %s\nwithout: %s", got, want)
			}

			rcfg, err := OpenCheckpoint(blob)
			if err != nil {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			resumed := NewSynthetic(rcfg)
			if err := resumed.restore(blob); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := resumed.Inst.Cycle(); got != at {
				t.Fatalf("restored to cycle %d, checkpoint was at %d", got, at)
			}
			resRes := finish(resumed)
			if got, want := resultFingerprint(resRes), resultFingerprint(baseRes); got != want {
				t.Errorf("resumed run diverged from uninterrupted run\nresumed: %s\nbase:    %s", got, want)
			}
			if got := traceText(t, resumed.Inst.Trace); got != baseTrace {
				t.Errorf("resumed trace differs from uninterrupted trace\nresumed:\n%s\nbase:\n%s", got, baseTrace)
			}
		})
	}
}

// TestResumeSyntheticAPI exercises the exported entry points end to
// end the way a command does: blob in, result out.
func TestResumeSyntheticAPI(t *testing.T) {
	cfg := checkpointBase(FastPass)
	want := RunSynthetic(cfg)
	blob, _, _ := lastCheckpoint(cfg, 700)
	rcfg, err := OpenCheckpoint(blob)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	got, err := ResumeSynthetic(rcfg, blob)
	if err != nil {
		t.Fatalf("ResumeSynthetic: %v", err)
	}
	if resultFingerprint(got) != resultFingerprint(want) {
		t.Errorf("resumed result differs\nresumed: %s\nbase:    %s", resultFingerprint(got), resultFingerprint(want))
	}
}

// TestCheckpointCorruptionDetected: a flipped byte anywhere in the blob
// must be rejected at Open, not silently decoded into a wrong state.
func TestCheckpointCorruptionDetected(t *testing.T) {
	blob, _, _ := lastCheckpoint(checkpointBase(EscapeVC), 600)
	for _, off := range []int{12, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x40
		if _, err := OpenCheckpoint(bad); err == nil {
			t.Errorf("corruption at offset %d was not detected", off)
		}
	}
}

// TestCheckpointUnderFaultsIdenticalAbort is the restore-under-faults
// guarantee: a seeded fault campaign with watchdogs armed, checkpointed
// mid-run, must reach the same abort at the same cycle with the same
// structured report after restore — fault events, RNG draws and
// watchdog phase all survive the round trip.
func TestCheckpointUnderFaultsIdenticalAbort(t *testing.T) {
	cfg := SynthConfig{
		Options: Options{
			Scheme: EscapeVC, W: 4, H: 4, Seed: 11,
			Faults:   "linkfail:rate=0.002,dur=64;stallconsumer:node=3,at=400,perm",
			Watchdog: "stride=16,starve=300",
		},
		Pattern: traffic.Uniform,
		Rate:    0.08,
		Warmup:  300, Measure: 900, Drain: 600,
	}
	base := RunSynthetic(cfg)
	if !base.Aborted {
		t.Fatal("fault campaign did not trip the watchdog; the test needs an aborting run")
	}
	blob, at, chkRes := lastCheckpoint(cfg, 250)
	if blob == nil || at >= base.AbortCycle {
		t.Fatalf("no checkpoint before the abort (last at %d, abort at %d)", at, base.AbortCycle)
	}
	if resultFingerprint(chkRes) != resultFingerprint(base) {
		t.Fatalf("checkpointing perturbed the faulted run")
	}
	rcfg, err := OpenCheckpoint(blob)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	res, err := ResumeSynthetic(rcfg, blob)
	if err != nil {
		t.Fatalf("ResumeSynthetic: %v", err)
	}
	if res.AbortCycle != base.AbortCycle {
		t.Errorf("abort cycle: resumed %d, uninterrupted %d", res.AbortCycle, base.AbortCycle)
	}
	if res.AbortReport != base.AbortReport {
		t.Errorf("abort report differs\nresumed:\n%s\nbase:\n%s", res.AbortReport, base.AbortReport)
	}
	if res.Faults != base.Faults {
		t.Errorf("fault counters differ: resumed %+v, base %+v", res.Faults, base.Faults)
	}
	if resultFingerprint(res) != resultFingerprint(base) {
		t.Errorf("full result differs\nresumed: %s\nbase:    %s", resultFingerprint(res), resultFingerprint(base))
	}
}

// TestCheckpointBlobIsCallerOwned pins the ownership contract of
// OnCheckpoint: the encoder reuses its buffers from one checkpoint to
// the next, so a blob the callback retained must neither change when
// later checkpoints are taken nor stop being a valid resume token.
func TestCheckpointBlobIsCallerOwned(t *testing.T) {
	cfg := checkpointBase(FastPass)
	want := RunSynthetic(cfg)

	var kept, copies [][]byte
	c := cfg
	c.CheckpointEvery = 300
	c.OnCheckpoint = func(_ int64, b []byte) {
		kept = append(kept, b)
		copies = append(copies, bytes.Clone(b))
	}
	RunSynthetic(c)
	if len(kept) < 3 {
		t.Fatalf("only %d checkpoints taken, need at least 3", len(kept))
	}
	for k := range kept {
		if !bytes.Equal(kept[k], copies[k]) {
			t.Fatalf("blob %d changed after later checkpoints were taken", k)
		}
	}
	rcfg, err := OpenCheckpoint(kept[0])
	if err != nil {
		t.Fatalf("OpenCheckpoint(first retained blob): %v", err)
	}
	got, err := ResumeSynthetic(rcfg, kept[0])
	if err != nil {
		t.Fatalf("ResumeSynthetic(first retained blob): %v", err)
	}
	if resultFingerprint(got) != resultFingerprint(want) {
		t.Errorf("resume from a retained blob diverged\nresumed: %s\nbase:    %s", resultFingerprint(got), resultFingerprint(want))
	}
}

// TestReusedEncoderMatchesFresh: for every scheme, the blob the run's
// retained (Reset) Writers produce equals, byte for byte, what fresh
// Writers produce over the same state — buffer reuse is invisible in
// the bytes.
func TestReusedEncoderMatchesFresh(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			t.Parallel()
			var s *SynthRun
			taken := 0
			cfg := checkpointBase(scheme)
			cfg.CheckpointEvery = 250
			cfg.OnCheckpoint = func(cycle int64, reused []byte) {
				taken++
				meta, body := snapshot.NewWriter(), snapshot.NewWriter()
				s.cfg.state(meta.State())
				s.state(body.State())
				if fresh := snapshot.Seal(meta.Bytes(), body); !bytes.Equal(reused, fresh) {
					t.Errorf("cycle %d: reused-encoder blob (%d bytes) differs from fresh-encoder blob (%d bytes)",
						cycle, len(reused), len(fresh))
				}
			}
			s = NewSynthetic(cfg)
			finish(s)
			if taken < 3 {
				t.Fatalf("only %d checkpoints compared, need at least 3 to exercise reuse", taken)
			}
		})
	}
}

// TestParentCommitBlobs is the cross-commit fence of changes that must
// not move a checkpoint byte: testdata/v6_*.ckpt.gz are mid-run
// checkpoints (cycle 1400 of checkpointBase, every 700) written by the
// commit that introduced format v6 (occupancy and class masks in place
// of every empty buffer, the packet table behind its byte length, no
// Options.Shards in the meta); FastPassHealed
// is the same cycle of a self-healing run under
// linkfail:link=0,at=300,perm, taken mid-ride on the healed lanes. This
// commit must write the very same bytes at that cycle, and a run
// resumed from the old blob must end exactly as an uninterrupted one.
func TestParentCommitBlobs(t *testing.T) {
	healed := checkpointBase(FastPass)
	healed.FPHealing = true
	healed.Faults = "linkfail:link=0,at=300,perm"
	for _, row := range []struct {
		ver, name string
		cfg       SynthConfig
		// live, when set, checks the restored state exercises what the
		// blob was taken for.
		live func(*testing.T, *Instance)
	}{
		{"v6", "FastPass", checkpointBase(FastPass), nil},
		{"v6", "MinBD", checkpointBase(MinBD), nil},
		{"v6", "EscapeVC", checkpointBase(EscapeVC), nil},
		{"v6", "FastPassHealed", healed, func(t *testing.T, inst *Instance) {
			reserved := 0
			for _, nc := range inst.Net.NICs {
				for cl := message.Class(0); cl < message.NumClasses; cl++ {
					reserved += nc.Reservations(cl)
				}
			}
			held := 0
			inst.FP.ForEachHeld(func(*message.Packet) { held++ })
			if !inst.FP.Healed() || held == 0 || reserved == 0 {
				t.Fatalf("blob is not mid-ride on healed lanes: healed %v, %d packets on lanes or landed, %d reservations",
					inst.FP.Healed(), held, reserved)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			parent := testdataBlob(t, row.ver+"_"+row.name)
			blob, at, want := lastCheckpoint(row.cfg, 700)
			if at != 1400 || !bytes.Equal(blob, parent) {
				t.Fatalf("checkpoint at cycle %d (%d bytes) differs from the parent commit's at 1400 (%d bytes)", at, len(blob), len(parent))
			}
			rcfg, err := OpenCheckpoint(parent)
			if err != nil {
				t.Fatalf("OpenCheckpoint: %v", err)
			}
			s := NewSynthetic(rcfg)
			if err := s.restore(parent); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if row.live != nil {
				row.live(t, s.Inst)
			}
			if got := finish(s); resultFingerprint(got) != resultFingerprint(want) {
				t.Errorf("run resumed from the parent's blob diverged\nresumed: %s\nbase:    %s", resultFingerprint(got), resultFingerprint(want))
			}
		})
	}
}

// TestTraceCapacityBounded: a trace capacity past MaxTraceCapacity is
// refused by Validate — the recorder would reserve 64 bytes per event
// before the first cycle — and so is a checkpoint that records one, at
// OpenCheckpoint, before anything is built.
func TestTraceCapacityBounded(t *testing.T) {
	const want = "trace capacity 1048577 events exceeds the bound of 1048576"
	cfg := checkpointBase(FastPass)
	cfg.TraceCapacity = MaxTraceCapacity
	if err := cfg.Validate(); err != nil {
		t.Fatalf("capacity at the bound: %v", err)
	}
	cfg.TraceCapacity++
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate = %v, want %q", err, want)
	}
	meta := snapshot.NewWriter()
	cfg.state(meta.State())
	if _, err := OpenCheckpoint(snapshot.Seal(meta.Bytes(), snapshot.NewWriter())); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("OpenCheckpoint = %v, want %q", err, want)
	}
}

// testdataBlob reads testdata/<name>.ckpt.gz.
func testdataBlob(t testing.TB, name string) []byte {
	t.Helper()
	f, err := os.Open("testdata/" + name + ".ckpt.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// FuzzRestore feeds the whole restore path arbitrary blobs (the crc is
// re-stamped, so the fuzzer gets past Open), seeded with the four
// parent-commit checkpoints: OpenCheckpoint, a fresh build of the
// recorded config and restore must return an error or succeed, never
// panic. Configs past 64 nodes, 5,000 cycles or a 1,024-event trace are
// skipped — they test resource limits, not body decode.
func FuzzRestore(f *testing.F) {
	for _, name := range []string{"FastPass", "MinBD", "EscapeVC", "FastPassHealed"} {
		f.Add(testdataBlob(f, "v6_"+name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 12 {
			binary.LittleEndian.PutUint32(data[8:12], crc32.ChecksumIEEE(data[12:]))
		}
		cfg, err := OpenCheckpoint(data)
		if cfg.setDefaults(); err != nil || cfg.W*cfg.H > 64 || cfg.Warmup+cfg.Measure+cfg.Drain > 5000 ||
			cfg.TraceCapacity > 1024 || cfg.EjectCap > 64 {
			return
		}
		NewSynthetic(cfg).restore(data)
	})
}
