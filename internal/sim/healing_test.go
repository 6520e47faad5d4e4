package sim

import (
	"fmt"
	"testing"

	"repro/internal/topology"
	"repro/internal/traffic"
)

// permFailSpec returns a targeted fault plan that permanently kills the
// directed link 0→1 at the given cycle. A packet for node 1 parked at
// node 0 has exactly one minimal path — that link — so under
// FastPass-static it wedges forever (node 0's lane to the covered
// column crosses the dead wire, so the prime may never rescue it),
// while a healed walk detours around the dead channel.
func permFailSpec(at int64) string {
	mesh := topology.NewMesh(4, 4)
	for _, l := range mesh.Links() {
		if l.Src == 0 && l.Dst == 1 {
			return fmt.Sprintf("linkfail:link=%d,at=%d,perm", l.ID, at)
		}
	}
	panic("mesh has no 0->1 link")
}

// healingBase is the seeded permanent-link-failure scenario the
// static-vs-healing regression runs on.
func healingBase(healing bool) SynthConfig {
	return SynthConfig{
		Options: Options{
			Scheme: FastPass, W: 4, H: 4, Seed: 42,
			Faults:    permFailSpec(500),
			FPHealing: healing,
		},
		Pattern: traffic.Uniform,
		Rate:    0.05,
		Warmup:  500, Measure: 3000, Drain: 1500,
	}
}

// TestHealingBeatsStatic pins the headline self-healing claim: on the
// same seeded permanent-link-failure plan, FastPass-healing delivers
// strictly more packets than FastPass-static, strands strictly fewer,
// and records exactly one successful re-derivation.
func TestHealingBeatsStatic(t *testing.T) {
	static := RunSynthetic(healingBase(false))
	healed := RunSynthetic(healingBase(true))

	if static.Heals != 0 {
		t.Errorf("static run recorded %d heals, want 0", static.Heals)
	}
	if healed.Heals != 1 {
		t.Errorf("healing run recorded %d heals, want 1", healed.Heals)
	}
	if healed.HealFails != 0 {
		t.Errorf("healing run recorded %d failed heals, want 0", healed.HealFails)
	}
	if static.Stranded == 0 {
		t.Error("static run stranded no packets; the scenario no longer wedges anything")
	}
	if healed.Delivered <= static.Delivered {
		t.Errorf("healing delivered %d, static %d; want strictly more",
			healed.Delivered, static.Delivered)
	}
	if healed.Stranded >= static.Stranded {
		t.Errorf("healing stranded %d, static %d; want strictly fewer",
			healed.Stranded, static.Stranded)
	}
}

// TestHealingDisconnectFallsBackStatic: killing every channel of node 0
// disconnects the fabric, so the re-derivation must fail (HealFails),
// leave no healed wiring installed, and keep the rest of the run alive.
func TestHealingDisconnectFallsBackStatic(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	spec := ""
	for _, l := range mesh.Links() {
		if l.Src == 0 || l.Dst == 0 {
			if spec != "" {
				spec += ";"
			}
			spec += fmt.Sprintf("linkfail:link=%d,at=500,perm", l.ID)
		}
	}
	cfg := healingBase(true)
	cfg.Faults = spec
	res := RunSynthetic(cfg)
	if res.Heals != 0 {
		t.Errorf("disconnected fabric healed %d times, want 0", res.Heals)
	}
	if res.HealFails == 0 {
		t.Error("disconnected fabric recorded no failed heal")
	}
}

// TestHealingCheckpointResume: a checkpoint taken after (or during) the
// heal must restore the re-derived wiring explicitly and resume
// bit-identically.
func TestHealingCheckpointResume(t *testing.T) {
	cfg := healingBase(true)
	want := RunSynthetic(cfg)
	blob, at, chkRes := lastCheckpoint(cfg, 1000)
	if blob == nil {
		t.Fatal("no checkpoint was taken")
	}
	if at <= 500 {
		t.Fatalf("last checkpoint at cycle %d predates the fault; scenario mis-sized", at)
	}
	if resultFingerprint(chkRes) != resultFingerprint(want) {
		t.Fatalf("taking checkpoints perturbed the run")
	}
	rcfg, err := OpenCheckpoint(blob)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	got, err := ResumeSynthetic(rcfg, blob)
	if err != nil {
		t.Fatalf("ResumeSynthetic: %v", err)
	}
	if resultFingerprint(got) != resultFingerprint(want) {
		t.Errorf("resumed healing run diverged\nresumed: %s\nbase:    %s",
			resultFingerprint(got), resultFingerprint(want))
	}
	if got.Heals != want.Heals || got.Delivered != want.Delivered {
		t.Errorf("resumed heal accounting diverged: got %d heals/%d delivered, want %d/%d",
			got.Heals, got.Delivered, want.Heals, want.Delivered)
	}
}
