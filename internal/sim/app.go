package sim

import (
	"cmp"
	"fmt"

	"repro/internal/message"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AppConfig describes one application run (a Fig. 10 / Fig. 12 bar).
type AppConfig struct {
	Options
	App workload.App
	// MaxCycles bounds the run; 0 → 400000. A run that hits the bound
	// before completing the work quota reports Timeout.
	MaxCycles int64
}

// AppResult is the outcome of one application run.
type AppResult struct {
	Scheme Scheme
	App    string

	// ExecTime is the cycle at which the work quota completed — the
	// quantity Fig. 10 normalizes to EscapeVC.
	ExecTime int64
	Timeout  bool

	AvgLatency float64
	P99Latency float64 // Fig. 12
	Samples    int

	Completed, Issued, Stalled int64

	// Fig. 13(b) extras.
	RegularFrac, FastFrac, DroppedFrac float64

	// Aborted is set when the invariant watchdog tripped fatally before
	// the quota completed; the structured diagnostic rides along.
	Aborted          bool
	AbortCycle       int64
	AbortReport      string
	DeadlockDetected bool
}

// Validate is Options.Validate plus the application knobs: the scheme
// must carry protocol traffic (MinBD does not), the work quota must be
// positive and a negative MaxCycles is not "default".
func (c AppConfig) Validate() error {
	if err := c.Options.Validate(); err != nil {
		return err
	}
	if !c.Scheme.SupportsProtocol() {
		return fmt.Errorf("sim: scheme %v cannot run protocol traffic", c.Scheme)
	}
	if c.App.WorkQuota <= 0 || c.MaxCycles < 0 {
		return fmt.Errorf("sim: application %q needs a positive work quota and a non-negative cycle bound, not %d and %d", c.App.Name, c.App.WorkQuota, c.MaxCycles)
	}
	return nil
}

// AppRun is one application run, built and not yet started: the
// protocol engine is its Source, and a driver may set Inst.Hook before
// Run.
type AppRun struct {
	Inst *Instance
	cfg  AppConfig
	col  *stats.Collector
	eng  *protocol.Engine
}

// NewApp builds an application run. A config Validate rejects panics
// with its error.
func NewApp(cfg AppConfig) *AppRun {
	if err := cfg.Validate(); err != nil {
		panic(err) //nocvet:ignore panicstyle Validate's errors carry the "sim: " prefix
	}
	cfg.Options.setDefaults()
	cfg.MaxCycles = cmp.Or(cfg.MaxCycles, 400000)
	a := &AppRun{Inst: Build(cfg.Options), cfg: cfg, col: stats.New(cfg.W*cfg.H, 0, cfg.MaxCycles)}
	a.Inst.SetOnEject(func(pkt *message.Packet) {
		a.Inst.phase(network.PhaseEject)
		a.col.OnEject(pkt)
		a.Inst.phase(network.PhaseEjectEnd)
	})
	a.eng = protocol.New(a.Inst.Net, cfg.App.Profile, cfg.Seed+0xa99)
	return a
}

// Tick runs the protocol engine: cores issue, caches and homes respond.
func (a *AppRun) Tick(c int64) {
	a.Inst.phase(network.PhaseSource)
	a.eng.Tick(c)
}

// Tock reports the work quota met.
func (a *AppRun) Tock(int64) bool { return a.eng.Completed >= a.cfg.App.WorkQuota }

// Run steps the instance's loop until the quota completes, the cycle
// bound passes or the watchdog trips, and scores the run.
func (a *AppRun) Run() AppResult {
	inst, col, eng := a.Inst, a.col, a.eng
	inst.Run(a, a.cfg.MaxCycles)
	res := AppResult{
		Scheme: a.cfg.Scheme, App: a.cfg.App.Name,
		ExecTime: inst.Cycle(), Timeout: eng.Completed < a.cfg.App.WorkQuota,
		AvgLatency: col.MeanLatency(), P99Latency: col.Percentile(0.99), Samples: col.Samples(),
		Completed: eng.Completed, Issued: eng.Issued, Stalled: eng.Stalled,
	}
	if inst.Watch.Tripped() {
		res.Aborted = true
		res.AbortCycle = inst.Cycle()
		res.AbortReport = inst.Watch.Report()
		res.DeadlockDetected = inst.Watch.Deadlocked()
	}
	res.RegularFrac, res.FastFrac, res.DroppedFrac = col.Breakdown()
	return res
}

// RunApp executes one application workload on one scheme. The run's
// memory serves later runs (Instance.release).
func RunApp(cfg AppConfig) AppResult {
	a := NewApp(cfg)
	res := a.Run()
	a.Inst.release(a.eng.Pool())
	a.eng.Release()
	a.col.Release()
	return res
}
