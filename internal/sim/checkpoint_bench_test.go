package sim

import (
	"io"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// warmCheckpointRun is bench's checkpoint_telemetry run — a 16×16
// FastPass mesh at rate 0.03 with three telemetry sinks — stepped 500
// cycles, so a blob carries steady-state traffic.
func warmCheckpointRun() *SynthRun {
	s := NewSynthetic(SynthConfig{
		Options: Options{Scheme: FastPass, W: 16, H: 16, Seed: 1},
		Pattern: traffic.Uniform, Rate: 0.03, Warmup: 500,
		Telemetry: telemetry.Options{Window: 20, JSONL: io.Discard, NodeCSV: io.Discard, LinkCSV: io.Discard},
	})
	finish(s)
	return s
}

// BenchmarkCheckpointEncode is the per-blob cost of checkpoint(): the
// walk into the retained Writers plus Seal.
func BenchmarkCheckpointEncode(b *testing.B) {
	s := warmCheckpointRun()
	b.ReportAllocs()
	b.SetBytes(int64(len(s.checkpoint())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.checkpoint()
	}
}

// BenchmarkCheckpointRestore is the per-blob cost of restore() into a
// freshly built run (the build is not timed).
func BenchmarkCheckpointRestore(b *testing.B) {
	s := warmCheckpointRun()
	blob := s.checkpoint()
	b.ReportAllocs()
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := NewSynthetic(s.cfg)
		b.StartTimer()
		if err := fresh.restore(blob); err != nil {
			b.Fatal(err)
		}
	}
}
