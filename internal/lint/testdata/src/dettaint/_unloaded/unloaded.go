// Package unloaded holds state in a sub-package the fixture run only
// imports: the subtree walk skips "_" directories.
package unloaded

type State struct{ IDs []int }
