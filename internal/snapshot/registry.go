package snapshot

// Stater is the per-layer state contract: a type that can write its
// mutable state to a Writer and read it back from a Reader. Restore
// always runs against a freshly constructed instance (same
// configuration, zero history), so implementations encode only what
// mutates during a run — wiring, closures and sizing come from the
// constructor.
type Stater interface {
	SnapshotState(w *Writer)
	RestoreState(r *Reader)
}

// Manifest declares, for one snapshotted struct type, which fields the
// codec encodes and which are deliberately transient (scratch rebuilt
// on demand, configuration re-established by the constructor, or
// values provably empty at the cycle boundary where snapshots are
// taken). The snapshot-completeness test reflects over Sample's type
// and fails on any field in neither list — so adding a field without
// deciding its snapshot fate breaks the build, not the resume.
type Manifest struct {
	Name      string
	Sample    any
	Encoded   []string
	Transient []string
}

var registry []Manifest

// Register records a manifest; each snapshotted package calls it from
// an init function in its snapshot file, next to the code that does
// the encoding it attests to.
func Register(name string, sample any, encoded, transient []string) {
	registry = append(registry, Manifest{
		Name: name, Sample: sample, Encoded: encoded, Transient: transient,
	})
}
