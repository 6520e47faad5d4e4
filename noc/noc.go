// Package noc is the public API of the FastPass reproduction: build any
// of the paper's eight schemes over the cycle-accurate NoC substrate,
// run synthetic or coherence-protocol workloads, sweep injection rates,
// and estimate router power and area.
//
// Quick start:
//
//	res := noc.RunSynthetic(noc.SynthConfig{
//	    Options: noc.Options{Scheme: noc.FastPass, W: 8, H: 8, Seed: 1},
//	    Pattern: noc.Uniform,
//	    Rate:    0.05,
//	})
//	fmt.Println(res.AvgLatency)
//
// The heavy machinery lives in internal packages; this package
// re-exports the stable surface used by the example programs, the
// command-line tools and the paper-figure benchmarks.
package noc

import (
	"io"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/invariant"
	"repro/internal/powerarea"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// Scheme identifies a flow-control/deadlock-freedom design.
type Scheme = sim.Scheme

// The eight evaluated schemes (Table II).
const (
	FastPass = sim.FastPass
	EscapeVC = sim.EscapeVC
	SPIN     = sim.SPIN
	SWAP     = sim.SWAP
	DRAIN    = sim.DRAIN
	Pitstop  = sim.Pitstop
	MinBD    = sim.MinBD
	TFC      = sim.TFC
)

// ParseScheme resolves a scheme name ("FastPass", "EscapeVC", ...).
func ParseScheme(name string) (Scheme, error) { return sim.ParseScheme(name) }

// Pattern identifies a synthetic traffic pattern.
type Pattern = traffic.Pattern

// The synthetic patterns (Table II plus Fig. 7's Bit Rotation).
const (
	Uniform       = traffic.Uniform
	Transpose     = traffic.Transpose
	Shuffle       = traffic.Shuffle
	BitRotation   = traffic.BitRotation
	BitComplement = traffic.BitComplement
	Hotspot       = traffic.Hotspot
)

// ParsePattern resolves a pattern name ("Uniform", "Transpose", ...).
func ParsePattern(name string) (Pattern, error) { return traffic.ParsePattern(name) }

// Options sizes a scheme instance; SynthConfig and AppConfig describe
// runs. See the sim package documentation for field semantics.
type (
	Options     = sim.Options
	SynthConfig = sim.SynthConfig
	SynthResult = sim.SynthResult
	AppConfig   = sim.AppConfig
	AppResult   = sim.AppResult
)

// Progress is the periodic status sample handed to
// SynthConfig.OnProgress during long runs.
type Progress = sim.Progress

// TelemetryOptions configures a run's windowed telemetry (the
// SynthConfig.Telemetry field); TelemetryMeta is the stream identity
// line. See the telemetry package for the record format and the
// determinism contract.
type (
	TelemetryOptions = telemetry.Options
	TelemetryMeta    = telemetry.Meta
)

// RunSynthetic executes one synthetic-traffic measurement point.
func RunSynthetic(cfg SynthConfig) SynthResult { return sim.RunSynthetic(cfg) }

// OpenCheckpoint validates a checkpoint blob (produced through
// SynthConfig.CheckpointEvery/OnCheckpoint) and returns the embedded
// run configuration. Shards and the checkpoint knobs may be adjusted
// before resuming; everything else must stay as recorded.
func OpenCheckpoint(data []byte) (SynthConfig, error) { return sim.OpenCheckpoint(data) }

// ResumeSynthetic rebuilds the instance described by cfg, restores the
// checkpointed state, and runs to completion. The continuation is
// bit-identical to the uninterrupted run.
func ResumeSynthetic(cfg SynthConfig, data []byte) (SynthResult, error) {
	return sim.ResumeSynthetic(cfg, data)
}

// SweepLatency measures a latency-vs-injection-rate curve (a Fig. 7
// series) serially, stopping two points past saturation and padding the
// remaining rates with inert saturated points.
func SweepLatency(base SynthConfig, rates []float64) []SynthResult {
	return sim.SweepLatency(base, rates)
}

// FaultCounters reports what a run's fault injector did (see the faults
// package for the -faults spec grammar); Violation is one tripped
// invariant watchdog (see the invariant package).
type (
	FaultCounters = faults.Counters
	Violation     = invariant.Violation
)

// CampaignConfig describes a Monte Carlo reliability campaign: one
// fault plan swept over a (variant × fault-scale × seed) grid and
// aggregated into per-variant degradation curves. CampaignVariant is
// one grid column (a scheme plus the FastPass healing toggle),
// CampaignPoint one cell, CampaignRecord one cell's measurement (the
// JSONL journal line), and CampaignCurve one aggregated (variant,
// scale) row of the output CSV. See the campaign package.
type (
	CampaignConfig  = campaign.Config
	CampaignVariant = campaign.Variant
	CampaignPoint   = campaign.Point
	CampaignRecord  = campaign.Record
	CampaignCurve   = campaign.Curve
)

// ParseCampaignVariants resolves a comma-separated variant list
// ("FastPass-static,FastPass-healing,EscapeVC,...").
func ParseCampaignVariants(spec string) ([]CampaignVariant, error) {
	return campaign.ParseVariants(spec)
}

// CampaignGrid lays out a campaign's cells in output order
// (variant-major, then scale, then seed).
func CampaignGrid(c CampaignConfig) []CampaignPoint { return campaign.Grid(c) }

// RunCampaign executes a campaign and returns one record per grid
// cell, in grid order. Cells whose key appears in done are reused
// verbatim (resume); onRecord, when non-nil, streams each freshly
// measured record from worker goroutines. Deterministic: the record
// slice is bit-identical at any Jobs value.
func RunCampaign(c CampaignConfig, done map[string]CampaignRecord, onRecord func(CampaignRecord)) ([]CampaignRecord, error) {
	return campaign.Run(c, done, onRecord)
}

// AggregateCampaign folds a full record population into degradation
// curves, one per (variant, scale) in grid order. A missing cell is an
// error, never a silently skewed curve.
func AggregateCampaign(c CampaignConfig, recs []CampaignRecord) ([]CampaignCurve, error) {
	return campaign.Aggregate(c, recs)
}

// EncodeCampaignRecord renders one journal line (no trailing newline).
func EncodeCampaignRecord(r CampaignRecord) ([]byte, error) { return campaign.EncodeRecord(r) }

// WriteCampaignJournal writes records as JSONL in the order given;
// ReadCampaignJournal parses a journal into a resume map, tolerating a
// torn final line; WriteCampaignCurvesCSV renders the degradation-curve
// table.
func WriteCampaignJournal(w io.Writer, recs []CampaignRecord) error {
	return campaign.WriteJournal(w, recs)
}

// ReadCampaignJournal parses a JSONL journal into a resume map keyed by
// cell identity (see ReadJournal in the campaign package).
func ReadCampaignJournal(r io.Reader) (map[string]CampaignRecord, error) {
	return campaign.ReadJournal(r)
}

// WriteCampaignCurvesCSV renders aggregated degradation curves as CSV.
func WriteCampaignCurvesCSV(w io.Writer, curves []CampaignCurve) error {
	return campaign.WriteCurvesCSV(w, curves)
}

// App is a named application workload profile.
type App = workload.App

// GetApp returns a named application profile (Radix, Canneal, FFT, FMM,
// Lu_cb, Streamcluster, Volrend, Barnes).
func GetApp(name string) (App, error) { return workload.Get(name) }

// AppNames lists the registered application profiles.
func AppNames() []string { return workload.Names() }

// RunApp executes one application workload on one scheme (Figs. 10, 12
// and 13b).
func RunApp(cfg AppConfig) AppResult { return sim.RunApp(cfg) }

// PowerAreaConfig and PowerAreaResult expose the analytical router
// power/area model of Fig. 11.
type (
	PowerAreaConfig = powerarea.Config
	PowerAreaResult = powerarea.Result
)

// EstimatePowerArea runs the analytical model for one router
// configuration.
func EstimatePowerArea(c PowerAreaConfig) PowerAreaResult { return powerarea.Estimate(c) }

// Fig11Configs returns the six router configurations of Fig. 11.
func Fig11Configs() []PowerAreaConfig { return powerarea.Fig11Configs() }
