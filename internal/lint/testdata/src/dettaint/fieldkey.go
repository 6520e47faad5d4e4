package dettaint

import (
	"repro/internal/lint/testdata/src/dettaint/_unloaded"
	"repro/internal/lint/testdata/src/dettaint/shared"
)

// Simulator state is a field of a named type declared at package level
// in a package the run loaded. Reported: a field promoted from an
// embedded struct (as base.ids), a generic struct's field inside its
// own method and through an instantiation (both as Gen.v), and a struct
// of a loaded sub-package. Not reported: a package-level var of
// anonymous struct type, a function-local type, and a struct of a
// package the run only imports.
type base struct{ ids []int }

type outer struct{ base }

type Gen[T any] struct {
	v    []int
	last T
}

var tally struct{ ids []int }

func (o *outer) promoted(m map[int]bool) { o.ids = collect(m) }

func (g *Gen[T]) fill(m map[int]bool) { g.v = collect(m) }

func instantiated(g *Gen[string], m map[int]bool) { g.v = collect(m) }

func anonymous(m map[int]bool) { tally.ids = collect(m) }

func local(m map[int]bool) int {
	type box struct{ ids []int }
	var b box
	b.ids = collect(m)
	return len(b.ids)
}

func loaded(s *shared.State, m map[int]bool) { s.IDs = collect(m) }

func unloadedWrite(s *unloaded.State, m map[int]bool) { s.IDs = collect(m) }
