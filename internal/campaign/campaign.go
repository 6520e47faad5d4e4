// Package campaign is the Monte Carlo reliability campaign driver: one
// fault plan swept over a (variant × fault-scale × seed) grid, each
// cell an independent seeded simulation, aggregated into SLA-style
// degradation curves — delivered-fraction percentiles, time-to-first-
// watchdog-trip and MTTF-to-deadlock distributions — per variant.
//
// Where the resilience sweep (sweep -fault-scales) runs these cells at
// one seed, a campaign measures a population: the same plan replayed
// under many seeds, so the output is a distribution, not an anecdote. The
// grid includes FastPass twice — FastPass-static and FastPass-healing —
// which is the experiment the self-healing lane re-derivation exists
// for: same silicon failures, with and without online re-derivation.
//
// Determinism contract: every cell is a pure function of (config,
// variant, scale, seed). The grid is fixed by the config, results are
// reported in grid order whatever the worker count, and the renderers
// format numbers reproducibly — so the journal and curve files are
// byte-identical at -j 1 and -j N, and across an interrupt/resume.
package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/parallel"
	"repro/internal/sim"
)

// Variant is one column of the campaign grid: a scheme, plus the
// healing toggle that splits FastPass into its static and self-healing
// configurations.
type Variant struct {
	Scheme  sim.Scheme
	Healing bool // FastPass only: online lane re-derivation
}

// String names the variant as the output files spell it.
func (v Variant) String() string {
	if v.Scheme == sim.FastPass {
		if v.Healing {
			return "FastPass-healing"
		}
		return "FastPass-static"
	}
	return v.Scheme.String()
}

// ParseVariant resolves a variant name: "FastPass-static" (or plain
// "FastPass") and "FastPass-healing" for the two FastPass
// configurations, any other scheme by its sim name. MinBD is rejected —
// its deflection network has no links, credits or NICs to degrade.
func ParseVariant(name string) (Variant, error) {
	switch name {
	case "FastPass", "FastPass-static":
		return Variant{Scheme: sim.FastPass}, nil
	case "FastPass-healing":
		return Variant{Scheme: sim.FastPass, Healing: true}, nil
	}
	s, err := sim.ParseScheme(name)
	if err != nil {
		return Variant{}, fmt.Errorf("campaign: unknown variant %q (use a scheme name, FastPass-static or FastPass-healing)", name)
	}
	if s == sim.MinBD {
		return Variant{}, fmt.Errorf("campaign: %v has no fault model; it cannot join a reliability campaign", s)
	}
	return Variant{Scheme: s}, nil
}

// ParseVariants resolves a comma-separated variant list; an empty name
// is an error, as in every comma list the commands take.
func ParseVariants(spec string) ([]Variant, error) {
	var out []Variant
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("campaign: empty variant name in %q", spec)
		}
		v, err := ParseVariant(name)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseScales parses a comma-separated fault-scale list (0 is the
// fault-free control; Validate rejects a negative scale).
func ParseScales(list string) ([]float64, error) {
	var scales []float64
	for _, raw := range strings.Split(list, ",") {
		s, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return nil, fmt.Errorf("fault scale %q is not a number", raw)
		}
		scales = append(scales, s)
	}
	return scales, nil
}

// Config describes a campaign.
type Config struct {
	// Base carries the mesh, traffic, windows, watchdog spec and the
	// fault plan (Base.Options.Faults). Cell overrides Scheme,
	// FPHealing, VCs, Seed and FaultScale.
	Base sim.SynthConfig

	// Variants are the columns under test.
	Variants []Variant

	// Scales multiplies the plan's rates per cell; 0 is the fault-free
	// control (the plan, targeted events included, is dropped).
	Scales []float64

	// Seeds are the Monte Carlo axis: each seed reruns every
	// (variant, scale) cell with fresh fault rolls and traffic.
	Seeds []int64

	// Jobs is the worker count (0 = all cores, 1 = serial). Output is
	// bit-identical at any value.
	Jobs int
}

// Validate rejects configs the grid cannot run: an empty axis, a cell
// listed twice, MinBD, a nonzero scale without a plan, or any cell sim
// rejects.
func (c Config) Validate() error {
	if len(c.Variants) == 0 || len(c.Scales) == 0 || len(c.Seeds) == 0 {
		return fmt.Errorf("campaign: need variants, fault scales and seeds, have %d, %d and %d", len(c.Variants), len(c.Scales), len(c.Seeds))
	}
	seen := map[Point]bool{}
	for _, p := range Grid(c) {
		if seen[p] {
			return fmt.Errorf("campaign: cell %s appears twice; list each variant, fault scale and seed once", p.Key())
		}
		seen[p] = true
	}
	one := c
	one.Seeds = c.Seeds[:1] // a seed never makes a cell invalid
	for _, p := range Grid(one) {
		if p.Variant.Scheme == sim.MinBD {
			return fmt.Errorf("campaign: %v has no fault model", p.Variant.Scheme)
		}
		if p.Scale > 0 && c.Base.Faults == "" {
			return fmt.Errorf("campaign: nonzero fault scales but no fault plan in the base config")
		}
		if err := c.Cell(p).Validate(); err != nil {
			return fmt.Errorf("campaign: %v", err)
		}
	}
	return nil
}

// Point is one grid cell.
type Point struct {
	Variant Variant
	Scale   float64
	Seed    int64
}

// Key is the cell's stable identity in journals and resume matching.
func (p Point) Key() string {
	return fmt.Sprintf("%s|x%g|s%d", p.Variant, p.Scale, p.Seed)
}

// Grid lays out the campaign cells variant-major, then scale, then
// seed — the order every output file uses.
func Grid(c Config) []Point {
	pts := make([]Point, 0, len(c.Variants)*len(c.Scales)*len(c.Seeds))
	for _, v := range c.Variants {
		for _, sc := range c.Scales {
			for _, seed := range c.Seeds {
				pts = append(pts, Point{Variant: v, Scale: sc, Seed: seed})
			}
		}
	}
	return pts
}

// Record is the campaign's per-cell measurement: the reliability slice
// of a SynthResult, with the cell identity attached. It is the journal
// line format (JSONL) and the unit resume works in. Every field is
// finite — no NaNs — so encoding/json round-trips it.
type Record struct {
	Variant string  `json:"variant"`
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`

	Created       int64   `json:"created"`
	Delivered     int64   `json:"delivered"`
	Stranded      int64   `json:"stranded"`
	DeliveredFrac float64 `json:"delivered_frac"` // Delivered/Created over the whole run

	Aborted           bool    `json:"aborted"`
	TripCycle         int64   `json:"trip_cycle"` // first fatal watchdog trip; -1 clean
	TripDeliveredFrac float64 `json:"trip_delivered_frac"`
	Deadlock          bool    `json:"deadlock"`
	CreditLeaks       int     `json:"credit_leaks"`

	Heals     int64 `json:"heals"`
	HealFails int64 `json:"heal_fails"`
}

// Key matches Point.Key for resume lookups.
func (r Record) Key() string {
	return fmt.Sprintf("%s|x%g|s%d", r.Variant, r.Scale, r.Seed)
}

// Cell is one grid point's run config, and the one home of the fault
// experiments' per-point rule: the variant's scheme and healing
// toggle, the scheme's Table II VC count, the point's seed, and at
// scale 0 no fault plan at all (its targeted events included).
func (c Config) Cell(p Point) sim.SynthConfig {
	cfg := c.Base
	cfg.Scheme = p.Variant.Scheme
	cfg.FPHealing = p.Variant.Healing
	cfg.VCs = 0
	cfg.Seed = p.Seed
	cfg.FaultScale = p.Scale
	if p.Scale == 0 {
		cfg.Faults = ""
	}
	return cfg
}

// record is a cell's journal line.
func record(p Point, res sim.SynthResult) Record {
	rec := Record{
		Variant:           p.Variant.String(),
		Scale:             p.Scale,
		Seed:              p.Seed,
		Created:           res.Created,
		Delivered:         res.Delivered,
		Stranded:          res.Stranded,
		Aborted:           res.Aborted,
		TripCycle:         res.TripCycle,
		TripDeliveredFrac: res.TripDeliveredFrac,
		Deadlock:          res.DeadlockDetected,
		CreditLeaks:       res.CreditLeaks,
		Heals:             res.Heals,
		HealFails:         res.HealFails,
	}
	if res.Created > 0 {
		rec.DeliveredFrac = float64(res.Delivered) / float64(res.Created)
	} else {
		rec.DeliveredFrac = 1
	}
	return rec
}

// Run executes the campaign and returns one Record per grid cell, in
// grid order. done, when non-nil, maps Point.Key() to already-measured
// records (a resumed journal); matching cells are reused verbatim and
// never re-simulated. onRecord, when non-nil, is invoked once per cell
// as it completes — from worker goroutines, in completion order — so a
// driver can stream a crash-durable journal; it must synchronize
// itself. The returned slice does not depend on either.
func Run(c Config, done map[string]Record, onRecord func(Record)) ([]Record, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	pts := Grid(c)
	recs := parallel.Map(c.Jobs, pts, func(p Point) Record {
		if r, ok := done[p.Key()]; ok {
			return r
		}
		r := record(p, sim.RunSynthetic(c.Cell(p)))
		if onRecord != nil {
			onRecord(r)
		}
		return r
	})
	return recs, nil
}
