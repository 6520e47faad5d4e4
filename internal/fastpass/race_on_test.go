//go:build race

package fastpass

// raceEnabled mirrors the root test helper: allocation-count guards
// skip under race instrumentation.
const raceEnabled = true
