package topology

// The route tests live in the external topology_test package, since
// routing imports topology; these hand them the internal test helpers.
var (
	MustGraph   = mustGraph
	RandomEdges = randomEdges
)
