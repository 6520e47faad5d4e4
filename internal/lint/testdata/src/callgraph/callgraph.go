// Package callgraph is the fixture for the whole-program graph builder:
// direct edges, interface fan-out, hot roots and cold boundaries.
package callgraph

type ticker interface{ tick() }

type alpha struct{}

func (alpha) tick() { helperA() }

type beta struct{}

func (*beta) tick() { helperB() }

func helperA() {}

func helperB() {}

// drive calls through the interface: the edge fans out to both
// implementations.
func drive(t ticker) { t.tick() }

func route() {
	drive(alpha{})
	heal()
}

//nocvet:cold runs once per link failure
func heal() { helperC() }

func helperC() {}

//nocvet:hot
func hot() { route() }
