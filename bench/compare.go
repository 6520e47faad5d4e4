package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// readReport loads a -out report: one runLine per line. Traced and
// smoke runs carry no comparable end-to-end numbers and are skipped.
func readReport(path string) (map[string][]runLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]runLine{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l runLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if l.Trace != 0 || l.Smoke {
			continue
		}
		out[l.Workload] = append(out[l.Workload], l)
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the driver uses. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// side summarises one report's runs of one (workload, metric) row: the
// median of the runs' medians, and the run-to-run spread as a share of
// it. With four or more runs the spread is the interquartile distance
// of the runs; with fewer it is estimated from the repetitions pooled
// from the runs: their interquartile distance (their range when there
// are under four) over √n, n the repetitions per run, since a run
// reports their median.
type side struct{ median, spread float64 }

func summarise(lines []runLine, metric string) (side, bool) {
	var medians, reps []float64
	for _, l := range lines {
		m, ok := l.Metrics[metric]
		if !ok {
			return side{}, false
		}
		medians = append(medians, m.Value)
		reps = append(reps, m.Values...)
	}
	if len(medians) == 0 {
		return side{}, false
	}
	s := side{median: median(medians)}
	switch {
	case len(medians) >= 4:
		q1, q3 := quartiles(medians)
		s.spread = ratio(q3-q1, s.median)
	case len(reps) >= 2:
		sort.Float64s(reps)
		q1, q3 := reps[0], reps[len(reps)-1]
		if len(reps) >= 4 {
			q1, q3 = quartiles(reps)
		}
		perRun := float64(len(reps)) / float64(len(medians))
		s.spread = ratio(q3-q1, s.median) / math.Sqrt(perRun)
	}
	return s, true
}

// Row verdicts.
const (
	vUnchanged  = "unchanged"
	vImproved   = "improved"
	vUnresolved = "unresolved"
	vRegressed  = "REGRESSED"
)

// verdict applies a bound to one row. worse is how much B's median is
// worse than A's as a share of A's; a row whose run-to-run spread
// exceeds the bound cannot be called unchanged.
func verdict(a, b side, better string, bound float64) (worse float64, v string) {
	worse = ratio(b.median-a.median, a.median)
	if better == "higher" {
		worse = -worse
	}
	spread := a.spread
	if b.spread > spread {
		spread = b.spread
	}
	switch {
	case worse > bound:
		return worse, vRegressed
	case spread > bound:
		return worse, vUnresolved
	case worse < -bound:
		return worse, vImproved
	}
	return worse, vUnchanged
}

// compareReports applies the spec's bounds row by row (workload ×
// end-to-end metric) to two reports and prints each side's median and
// spread. It reports whether B passes: no row regressed and no
// workload failed more operations than in A.
func compareReports(sp spec, a, b map[string][]runLine, w io.Writer) bool {
	pass := true
	fmt.Fprintf(w, "%-22s %-22s %14s %7s %14s %7s %8s %7s  %s\n",
		"workload", "metric", "A median", "A ±", "B median", "B ±", "worse", "bound", "verdict")
	for _, wl := range sp.Workloads {
		la, lb := a[wl.Name], b[wl.Name]
		if len(la) == 0 || len(lb) == 0 {
			fmt.Fprintf(w, "%-22s missing from one report (A %d runs, B %d runs)\n", wl.Name, len(la), len(lb))
			pass = false
			continue
		}
		for _, m := range sp.EndToEnd {
			sa, okA := summarise(la, m.Name)
			sb, okB := summarise(lb, m.Name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-22s %-22s missing from one report\n", wl.Name, m.Name)
				pass = false
				continue
			}
			worse, v := verdict(sa, sb, m.Better, m.Bound)
			if v == vRegressed {
				pass = false
			}
			fmt.Fprintf(w, "%-22s %-22s %14.6g %6.2f%% %14.6g %6.2f%% %+7.2f%% %6.1f%%  %s\n",
				wl.Name, m.Name, sa.median, 100*sa.spread, sb.median, 100*sb.spread, 100*worse, 100*m.Bound, v)
		}
		var failedA, failedB, attemptedA, attemptedB int
		for _, l := range la {
			failedA += l.Failed
			attemptedA += l.Attempted
		}
		for _, l := range lb {
			failedB += l.Failed
			attemptedB += l.Attempted
		}
		// Reports may hold different numbers of runs: compare shares.
		v := vUnchanged
		if ratio(float64(failedB), float64(attemptedB)) > ratio(float64(failedA), float64(attemptedA)) {
			v = vRegressed
			pass = false
		}
		fmt.Fprintf(w, "%-22s %-22s %11d/%-6d %11d/%-6d %27s  %s\n",
			wl.Name, "ops_failed", failedA, attemptedA, failedB, attemptedB, "", v)
		if la[0].Seed == lb[0].Seed {
			same := "identical"
			if la[0].SimFingerprint != lb[0].SimFingerprint {
				same = "DIFFERS (simulated statistics changed)"
			}
			fmt.Fprintf(w, "%-22s %-22s %s vs %s  %s\n", wl.Name, "sim_fingerprint", la[0].SimFingerprint, lb[0].SimFingerprint, same)
		}
	}
	return pass
}

// runCompare is the -compare mode.
func runCompare(specPath, aPath, bPath string, w io.Writer) (bool, error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readReport(aPath)
	if err != nil {
		return false, err
	}
	b, err := readReport(bPath)
	if err != nil {
		return false, err
	}
	return compareReports(sp, a, b, w), nil
}

// ledgerLine is one entry of the trajectory ledger: which commit, under
// which conditions, and every end-to-end median.
type ledgerLine struct {
	Commit    string                        `json:"commit"`
	Seed      int64                         `json:"seed"`
	NProc     int                           `json:"nproc"`
	GoVersion string                        `json:"go_version"`
	Failed    int                           `json:"ops_failed"`
	Attempted int                           `json:"ops"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

// appendLedger appends one line for the given runs. The file is opened
// append-only: earlier lines are never rewritten.
func appendLedger(path, commit string, lines []runLine) error {
	if len(lines) == 0 {
		return fmt.Errorf("no end-to-end runs to record")
	}
	entry := ledgerLine{
		Commit: commit, Seed: lines[0].Seed, NProc: lines[0].NProc, GoVersion: lines[0].GoVersion,
		Workloads: map[string]map[string]float64{},
	}
	for _, l := range lines {
		entry.Failed += l.Failed
		entry.Attempted += l.Attempted
		ms := map[string]float64{}
		for name, m := range l.Metrics {
			ms[name] = m.Value
		}
		entry.Workloads[l.Workload] = ms
	}
	return appendJSONLine(path, entry)
}

// appendJSONLine appends v as one JSON line to path, creating the file
// (and its directory) if needed.
func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
